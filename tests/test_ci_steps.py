"""The CI workflow's golden-netlist steps, run through the CLI in tier-1.

Each one-line ``qadd synth ... | cmp - tests/data/*.qn`` step of
``.github/workflows/tier1.yml`` is run through ``qadd.cli.dispatch`` and its
output compared byte for byte with the golden file, so a broken step shows up
here and not only in CI.  Every ``--kind`` must have such a step.
"""

import re
import shlex
from pathlib import Path

import pytest

import qadd.cli as cli

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

GOLDEN_STEP = re.compile(r"^\s*run: qadd (synth [^|]*?) \| cmp - (tests/data/\S+\.qn)$")


def _kind(argv):
    return argv[argv.index("--kind") + 1]


STEPS = [
    (shlex.split(step[1]), step[2])
    for step in map(GOLDEN_STEP.match, WORKFLOW.read_text().splitlines())
    if step
]


@pytest.mark.parametrize("argv,golden", STEPS, ids=[_kind(argv) for argv, _ in STEPS])
def test_golden_step_output_matches_its_file(capsys, argv, golden):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.encode() == (ROOT / golden).read_bytes()


def test_every_kind_has_a_golden_step():
    assert set(cli._KINDS) <= {_kind(argv) for argv, _ in STEPS}
