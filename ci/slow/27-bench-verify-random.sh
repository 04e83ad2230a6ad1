set -eo pipefail
python3 qaddbench/run.py --workload verify-random --seed 1 --seconds 3 --trace 0 > "$RUNNER_TEMP/random.out"
tail -n 1 "$RUNNER_TEMP/random.out" | python -c 'import json, sys; r = json.loads(sys.stdin.read()); assert r["correct"] and r["failed"] == 0, r'
grep -qx '  digest sha256:7a43eae8c212b0881ca73034a0cbdb8af677432e7a580c43157251543c3b2cec' "$RUNNER_TEMP/random.out"
