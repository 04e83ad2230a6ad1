set -eo pipefail
qadd verify --kind fanout-tree --t 7 --f 2
qadd verify --kind fanout-tree --t 1024 --f 16 --json > "$RUNNER_TEMP/fanout.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); assert (r["total_cases"], r["failures"], r["ancilla_violations"], r["seed"]) == (1000, [], [], 42), r' "$RUNNER_TEMP/fanout.json"
qadd estimate --target adder-fanout --n 65536 --e 4 --f 16 > "$RUNNER_TEMP/estimate.txt"
printf 'formula adder-fanout\nqubits_total 180225\nancilla 49152\ndepth 4\nsize 65536\n' | cmp - "$RUNNER_TEMP/estimate.txt"
