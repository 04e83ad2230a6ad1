"""Run the CI workflow's scripted steps, as CI runs them.

    python ci/run_steps.py [STEP.sh ...]

With no arguments it runs every file of ``ci/steps/`` in name order, which is
the order of the steps in ``.github/workflows/tier1.yml``.  Each file runs
under ``bash`` from the repository root with a fresh ``RUNNER_TEMP``, ``src``
on ``PYTHONPATH``, ``python`` and ``python3`` resolving to this
interpreter, and ``qadd`` to a shim that runs ``python -m qadd.cli`` on
``src``, so the steps run the checkout, installed or not.

It prints one line per step (ok or FAIL, seconds, file) and a failing step's
output, stops a step after 600 s as a failure, and exits 1 if any step failed.
"""

import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = ROOT / "ci" / "steps"
STEP_TIMEOUT_S = 600


def _shim(path, command):
    path.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
    path.chmod(0o755)


def _run(step, env):
    """Run one step file; return (ok, its output)."""
    proc = subprocess.Popen(
        ["bash", str(step)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        out += f"stopped after {STEP_TIMEOUT_S} s\n".encode()
    return proc.returncode == 0, out.decode(errors="replace")


def main(argv):
    steps = [Path(arg).resolve() for arg in argv] or sorted(STEPS.glob("*.sh"))
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
    sys.exit(main(sys.argv[1:]))
