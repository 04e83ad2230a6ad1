set -eo pipefail
python - <<'EOF'
import json, resource, subprocess
def qadd(command):
    run = ["timeout", "60", *command.split()]
    return subprocess.run(run, check=True, capture_output=True, text=True).stdout
# 24 free wires, the exhaustive cap: 256 chunks of 2^16 cases
r = json.loads(qadd("qadd verify --kind fanout-tree --t 23 --f 2 --exhaustive --json"))
assert (r["total_cases"], r["failures"], r["ancilla_violations"]) == (2**24, [], []), r
out = qadd("qadd verify --kind ripple --n 11 --exhaustive")
assert out == "verify ripple [exhaustive]: cases 8388608  failures 0  ancilla-violations 0  seed -\n", out
# one 2^24-case column is 2 MiB; both runs peaked at 169 MB when
# the whole truth table was one chunk
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb < 64, f"{peak_mb:.1f} MB peak RSS"
EOF
