set -eo pipefail
timeout 20 python - <<'EOF'
from itertools import count
from qadd import WIRE_CAP, Circuit, fo, tg, verify_exhaustive, verify_random
from qadd.fanout import fanout_tree_gates
from qadd.oracles import fanout_oracle
def same(cols, n_cases):
    return cols
calls = [
    "Circuit(3, ancilla=count())",
    "verify_random(Circuit(3), packed_oracle=same, free_wires=count())",
    "verify_exhaustive(Circuit(3), packed_oracle=same, free_wires=count())",
    "fanout_tree_gates(0, count(1), 2)",
    "fanout_oracle(Circuit(3), 0, count(1))",
    "fo(0, count(1))",
    "tg(count(1), 0)",
]
for call in calls:
    try:
        eval(call)
    except ValueError as err:
        assert f"cap {WIRE_CAP}" in str(err), (call, err)
    else:
        raise SystemExit(f"{call} was not refused")
EOF
