"""Run a snippet in a fresh Python process and read that process's own peak
resident memory, for tests that bound what one call allocates."""

import os
import subprocess
import sys
from pathlib import Path

import qadd

# Printed by the child as its last line.  VmHWM is the child's own peak;
# ``ru_maxrss`` of RUSAGE_SELF is only the fallback where /proc is missing,
# as on Linux it also counts the peak of the process that started the child
# (a child of a parent that once touched 300 MB read 313 MB there, against
# 13 MB from VmHWM).
_PRINT_PEAK = """
def _peak_mb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    import resource, sys
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024 ** (2 if sys.platform == "darwin" else 1)  # bytes or KiB
print(_peak_mb())
"""


def child_peak_mb(code: str, timeout: float = 60) -> float:
    """Run ``code`` in a new interpreter on this package and return the
    child's peak resident memory in MB; fail the test if the child fails."""
    src = str(Path(qadd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code + _PRINT_PEAK],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout.splitlines()[-1])
