set -eo pipefail
for request in "--n 8 --d 4" "--n 36 --d 8"; do
  set +e
  qadd synth --kind combined $request 2> "$RUNNER_TEMP/block.err"
  code=$?
  set -e
  test "$code" -eq 2
  grep -q "power of two" "$RUNNER_TEMP/block.err"
done
timeout 20 python -c '
import qadd
try:
    qadd.synth_carry(16, 10**18)
except ValueError:
    pass
else:
    raise SystemExit("synth_carry(16, 10**18) was not refused")
'
