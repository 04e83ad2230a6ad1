set -eo pipefail
python3 qaddbench/run.py --workload verify-exhaustive --seed 1 --seconds 3 --trace 0 > "$RUNNER_TEMP/exhaustive.out"
tail -n 1 "$RUNNER_TEMP/exhaustive.out" | python -c 'import json, sys; r = json.loads(sys.stdin.read()); assert r["correct"] and r["failed"] == 0, r'
