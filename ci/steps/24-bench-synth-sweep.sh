set -eo pipefail
python3 qaddbench/run.py --workload synth-sweep --seed 1 --seconds 3 --trace 0 > "$RUNNER_TEMP/sweep.out"
tail -n 1 "$RUNNER_TEMP/sweep.out" | python -c 'import json, sys; r = json.loads(sys.stdin.read()); assert r["correct"] and r["failed"] == 0, r'
grep -qx '  digest sha256:c16ff28ac542501fc9b914324d4f57acc1ceb9d58469a152f26f010ec2cf8544' "$RUNNER_TEMP/sweep.out"
