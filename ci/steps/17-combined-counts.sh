set -eo pipefail
qadd stats --kind combined --n 4096 --d 12 --json > "$RUNNER_TEMP/combined.json"
python -c 'import json, sys; s = json.load(open(sys.argv[1])); assert (s["count_toffoli"], s["ancilla_count"], s["size"], s["count_cnot"], s["depth"]) == (55110, 1524, 88358, 25072, 171), s' "$RUNNER_TEMP/combined.json"
qadd verify --kind combined --n 8 --d 3 --exhaustive
