set -eo pipefail
python - <<'EOF'
import json, resource, subprocess
# 33 wires x 32537631 trials is the 2^30-bit input cap.
run = "timeout 180 qadd verify --kind ripple --n 16 --trials 32537631 --seed 5 --json".split()
r = json.loads(subprocess.run(run, check=True, capture_output=True, text=True).stdout)
assert (r["total_cases"], r["failures"], r["ancilla_violations"]) == (32537631, [], []), r
# 128 MiB of input columns: generating them alone peaked at 160.8 MB,
# and the run at 368 MB while checking them (CPython 3.11, glibc);
# one transpose chunk for all the trials took it to 596 MB
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb < 460, f"{peak_mb:.1f} MB peak RSS"
EOF
