"""Run the repository's CI step files, as CI runs them.

    python ci/run_steps.py [STEP.sh ...]

With no arguments it runs every file of ``ci/steps/`` in name order, then
every file of ``ci/slow/``.  Tier-1 runs ``ci/steps/``; CI runs ``ci/slow/``
after the tests: the two cap-sized seeded checks there take about 3 s and up
to about 460 MB each, and the four benchmark workloads about 4 s each.  Each
file runs under ``bash`` from the repository root with a fresh
``RUNNER_TEMP``, ``src`` on ``PYTHONPATH``, ``python`` and ``python3``
resolving to this interpreter, and ``qadd`` to a shim that runs
``python -m qadd.cli`` on ``src``, so the steps run the checkout, installed
or not.

It prints one line per step (ok or FAIL, seconds, file) and a failing step's
output, stops a step after 600 s as a failure, and exits 1 if any step failed.
However a step ends, its process group is killed, also when the runner is
interrupted or sent SIGTERM.
"""

import contextlib
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEP_DIRS = [ROOT / "ci" / "steps", ROOT / "ci" / "slow"]
STEP_TIMEOUT_S = 600


def _shim(path, command):
    path.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
    path.chmod(0o755)


def _kill_group(proc):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def _run(step, env):
    """Run one step file; return (ok, its output)."""
    with subprocess.Popen(
        ["bash", str(step)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            out, _ = proc.communicate()
            out += f"stopped after {STEP_TIMEOUT_S} s\n".encode()
        finally:
            _kill_group(proc)
    return proc.returncode == 0, out.decode(errors="replace")


def main(argv):
    steps = [Path(arg).resolve() for arg in argv] or [
        step for step_dir in STEP_DIRS for step in sorted(step_dir.glob("*.sh"))
    ]
    failed = False
    with tempfile.TemporaryDirectory(prefix="qadd-ci-") as tmp:
        bin_dir = Path(tmp, "bin")
        bin_dir.mkdir()
        python = shlex.quote(sys.executable)
        _shim(bin_dir / "python", python)
        _shim(bin_dir / "python3", python)
        _shim(bin_dir / "qadd", f"{python} -m qadd.cli")
        pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        base_env = {
            **os.environ,
            "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', os.defpath)}",
            "PYTHONPATH": os.pathsep.join(filter(None, pythonpath)),
        }
        for step in steps:
            start = time.perf_counter()
            ok, out = _run(step, {**base_env, "RUNNER_TEMP": tempfile.mkdtemp(dir=tmp)})
            seconds = time.perf_counter() - start
            shown = step.relative_to(ROOT) if step.is_relative_to(ROOT) else step
            print(f"{'ok' if ok else 'FAIL':4}  {seconds:6.1f} s  {shown}", flush=True)
            failed = failed or not ok
            if not ok and out:
                print(out.rstrip("\n"), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    # SIGTERM unwinds like an interrupt, so each step's group is killed and
    # the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
