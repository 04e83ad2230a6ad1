set -eo pipefail
python3 qaddbench/run.py --workload netlist-roundtrip --seed 1 --seconds 3 --trace 0 > "$RUNNER_TEMP/roundtrip.out"
tail -n 1 "$RUNNER_TEMP/roundtrip.out" | python -c 'import json, sys; r = json.loads(sys.stdin.read()); assert r["correct"] and r["failed"] == 0, r'
grep -qx '  digest sha256:5e80e6e9d394cbb12507b9777751c7fa845ede45b830bd778a95f18d020ad959' "$RUNNER_TEMP/roundtrip.out"
