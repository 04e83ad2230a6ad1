set -eo pipefail
qadd synth --kind combined --n 256 --d 4 -o "$RUNNER_TEMP/combined256.qn"
timeout 60 python - "$RUNNER_TEMP/combined256.qn" <<'EOF'
import sys, qadd
from qadd.oracles import adder_oracle, carry_fold_oracle
with open(sys.argv[1]) as f:
    parsed = qadd.parse_netlist(f.read())
assert parsed == qadd.synth_combined(qadd.BlockParams(256, 4))
_, packed = adder_oracle(parsed)
report = qadd.verify_random(parsed, packed_oracle=packed, trials=2000)
assert report.ok and report.total_cases == 2000, report
with open("tests/data/carry_n8_l1.qn") as f:
    carry = qadd.parse_netlist(f.read())
_, packed = carry_fold_oracle(carry)
assert qadd.verify_exhaustive(carry, packed_oracle=packed).ok
EOF
