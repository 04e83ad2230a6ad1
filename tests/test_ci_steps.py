"""The CI workflow's scripted steps, run in tier-1 through ``ci/run_steps.py``.

Each scripted step of ``.github/workflows/tier1.yml`` is one file of
``ci/steps/``, and the workflow only names it.  Tier-1 runs every file through
the same runner a developer uses, except the few that only CI runs, so a
broken step shows up here and not only in CI.  Each golden-netlist line
``qadd synth ... | cmp - tests/data/*.qn`` also runs through
``qadd.cli.dispatch``, which checks that it writes nothing to stderr, and
every ``--kind`` must have such a line.
"""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qadd.cli as cli

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
RUNNER = ROOT / "ci" / "run_steps.py"
STEP_FILES = sorted((ROOT / "ci" / "steps").glob("*.sh"))
HEADER = "set -eo pipefail\n"

# The steps that only CI runs: the two cap-sized seeded checks take about 3 s
# and up to about 460 MB each, and the four benchmark workloads about 4 s each.
CI_ONLY = {
    "19-seeded-cap-64-chunks.sh",
    "20-seeded-cap-7-wires.sh",
    "24-bench-synth-sweep.sh",
    "25-bench-netlist-roundtrip.sh",
    "26-bench-verify-exhaustive.sh",
    "27-bench-verify-random.sh",
}
FAST_STEPS = [s for s in STEP_FILES if s.name not in CI_ONLY]
# The workflow steps that keep their command inline.
INLINE = ["Install the test extra", "Tier-1 tests"]


def _runner(steps):
    return subprocess.Popen(
        [sys.executable, str(RUNNER), *map(str, steps)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _reports(output):
    """Each step's line of the runner's output, and what follows it, by file name."""
    reports, name = {}, None
    for line in output.splitlines(keepends=True):
        if line.startswith(("ok  ", "FAIL")):
            name = Path(line.split()[-1]).name
            reports[name] = ""
        if name:
            reports[name] += line
    return reports


@pytest.fixture(scope="module")
def fast_steps():
    """The runner's output on every step that tier-1 runs.  Two runners take
    alternate steps at once, which halves the wait.  No timeout here: the
    runner stops a hung step itself, and kills its process group."""
    runners = [_runner(FAST_STEPS[i::2]) for i in range(2)]
    return "".join(runner.communicate()[0] for runner in runners)


def _golden_steps():
    """The ``(argv, golden file)`` of each step line
    ``qadd synth --kind K ... | cmp - tests/data/*.qn``."""
    steps = []
    for step in STEP_FILES:
        for line in step.read_text().splitlines():
            command, sep, golden = line.partition(" | cmp - tests/data/")
            if sep and command.startswith("qadd synth ") and golden.endswith(".qn"):
                steps.append((shlex.split(command)[1:], f"tests/data/{golden}"))
    return steps


def _kind(argv):
    return argv[argv.index("--kind") + 1]


GOLDEN_STEPS = _golden_steps()


def _workflow_steps():
    """The ``(name, run)`` of each step of the workflow, in order."""
    steps = []
    for line in WORKFLOW.read_text().splitlines():
        text = line.strip()
        if text.startswith("- "):
            steps.append({})
            text = text[2:]
        key, sep, value = text.partition(": ")
        if steps and sep and key in ("name", "run"):
            steps[-1][key] = value
    return [(step.get("name"), step.get("run")) for step in steps]


@pytest.mark.parametrize("step", FAST_STEPS, ids=lambda s: s.name)
def test_step_passes_through_the_runner(fast_steps, step):
    report = _reports(fast_steps).get(step.name, fast_steps)
    assert report.startswith("ok "), report


def test_workflow_runs_each_step_file_once_in_order():
    steps = _workflow_steps()
    names = [name for name, _ in steps if name]
    assert len(names) == len(set(names)) == len(STEP_FILES) + len(INLINE)
    scripted = [run for name, run in steps if run and name not in INLINE]
    assert scripted == [f"bash ci/steps/{s.name}" for s in STEP_FILES]
    assert [name for name, run in steps if run and name in INLINE] == INLINE
    assert CI_ONLY <= {s.name for s in STEP_FILES}


def test_every_step_file_opens_with_pipefail():
    assert [s.name for s in STEP_FILES if not s.read_text().startswith(HEADER)] == []


@pytest.mark.parametrize(
    "argv,golden", GOLDEN_STEPS, ids=[_kind(argv) for argv, _ in GOLDEN_STEPS]
)
def test_golden_step_output_matches_its_file(capsys, argv, golden):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.encode() == (ROOT / golden).read_bytes()


def test_every_kind_has_a_golden_step():
    assert set(cli._KINDS) <= {_kind(argv) for argv, _ in GOLDEN_STEPS}


def test_runner_reports_each_failing_step(tmp_path):
    steps = {
        "a-exit.sh": "exit 3\n",
        "b-pipe.sh": "false | cat\n",
        # the settings every step runs with
        "c-pass.sh": (
            'test -d "$RUNNER_TEMP" && test -f ci/run_steps.py\n'
            f'test "$(python3 -c "import sys; print(sys.executable)")" = {shlex.quote(sys.executable)}\n'
            "qadd synth --kind ripple --n 3 | cmp - tests/data/ripple_n3.qn\n"
        ),
    }
    for name, script in steps.items():
        (tmp_path / name).write_text(HEADER + script)
    runner = _runner(tmp_path / name for name in steps)
    output = runner.communicate()[0]
    reports = _reports(output)
    assert [(name, report.split()[0]) for name, report in reports.items()] == [
        ("a-exit.sh", "FAIL"),
        ("b-pipe.sh", "FAIL"),
        ("c-pass.sh", "ok"),
    ], output
    assert runner.returncode == 1
