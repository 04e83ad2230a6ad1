"""The CI step files, run in tier-1 through ``ci/run_steps.py``.

Each scripted CI check is one file: the fast ones in ``ci/steps/``, which
tier-1 runs here through the same runner a developer uses, so a broken step
shows up here and not only in CI, and the slow ones in ``ci/slow/``, which
CI runs through the runner after the tests.  CI also runs the
``ci/steps/*-golden-*.sh`` files through the installed ``qadd`` console
script.  Each of their lines ``qadd synth ... | cmp - tests/data/*.qn`` also
runs through ``qadd.cli.dispatch``, which checks that it writes nothing to
stderr, and every ``--kind`` must have such a line.
"""

import contextlib
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qadd.cli as cli

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "ci" / "run_steps.py"
STEP_FILES = sorted((ROOT / "ci" / "steps").glob("*.sh"))
SLOW_STEP_FILES = sorted((ROOT / "ci" / "slow").glob("*.sh"))
HEADER = "set -eo pipefail\n"


def _runner(steps, **popen_args):
    return subprocess.Popen(
        [sys.executable, str(RUNNER), *map(str, steps)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **popen_args,
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
    runners = [_runner(STEP_FILES[i::2]) for i in range(2)]
    return "".join(runner.communicate()[0] for runner in runners)


def _golden_steps():
    """The ``(argv, golden file)`` of each line
    ``qadd synth --kind K ... | cmp - tests/data/*.qn`` of the golden step
    files, the ones CI runs through the installed console script."""
    steps = []
    for step in sorted((ROOT / "ci" / "steps").glob("*-golden-*.sh")):
        for line in step.read_text().splitlines():
            command, sep, golden = line.partition(" | cmp - tests/data/")
            if sep and command.startswith("qadd synth ") and golden.endswith(".qn"):
                steps.append((shlex.split(command)[1:], f"tests/data/{golden}"))
    return steps


def _kind(argv):
    return argv[argv.index("--kind") + 1]


GOLDEN_STEPS = _golden_steps()


@pytest.mark.parametrize("step", STEP_FILES, ids=lambda s: s.name)
def test_step_passes_through_the_runner(fast_steps, step):
    report = _reports(fast_steps).get(step.name, fast_steps)
    assert report.startswith("ok "), report


def test_every_step_file_opens_with_pipefail():
    steps = STEP_FILES + SLOW_STEP_FILES
    assert [s.name for s in steps if not s.read_text().startswith(HEADER)] == []


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


def _wait_until(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


def _live_group(pgid):
    """The PIDs of the processes in group ``pgid`` that have not exited."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):  # the process exited meanwhile
            state, _, group = stat.read_text().rpartition(")")[2].split()[:3]
            if state not in ("Z", "X") and int(group) == pgid:
                live.append(int(stat.parent.name))
    return live


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_stopping_the_runner_kills_its_step(tmp_path, signum):
    started = tmp_path / "started"
    quoted = shlex.quote(str(started))
    step = tmp_path / "sleep.sh"
    step.write_text(
        HEADER
        + f'echo "$$ $RUNNER_TEMP" > {quoted}.part\n'
        + f"mv {quoted}.part {quoted}\n"
        + "sleep 30\n"
    )
    # a runner started with SIGINT ignored, as in a background job, would
    # never see the interrupt
    runner = _runner([step], preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    _wait_until(lambda: started.exists() or runner.poll() is not None, 30)
    assert started.exists(), runner.communicate()[0]
    pid, runner_temp = started.read_text().split()
    try:
        runner.send_signal(signum)
        output = runner.communicate(timeout=60)[0]
        # the step's bash is its group's leader, so its PID is the group's
        assert _wait_until(lambda: not _live_group(int(pid)), 10), output
        assert not Path(runner_temp).exists(), output
        assert runner.returncode != 0
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(int(pid), signal.SIGKILL)
