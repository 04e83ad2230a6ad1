set -eo pipefail
qadd synth --kind combined --n 4096 --d 12 -o "$RUNNER_TEMP/c.qn"
qadd stats "$RUNNER_TEMP/c.qn" --json > "$RUNNER_TEMP/from-file.json"
qadd stats --kind combined --n 4096 --d 12 --json > "$RUNNER_TEMP/from-kind.json"
cmp "$RUNNER_TEMP/from-file.json" "$RUNNER_TEMP/from-kind.json"
qadd synth --kind ripple --n 4093 -o "$RUNNER_TEMP/r.qn"
qadd stats "$RUNNER_TEMP/r.qn" --json > "$RUNNER_TEMP/ripple-from-file.json"
qadd stats --kind ripple --n 4093 --json > "$RUNNER_TEMP/ripple-from-kind.json"
cmp "$RUNNER_TEMP/ripple-from-file.json" "$RUNNER_TEMP/ripple-from-kind.json"
