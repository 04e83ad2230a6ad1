set -eo pipefail
timeout 60 python - <<'EOF'
import json, subprocess, qadd
# the fold, the chain and the Toffolis: 3n - 1 distinct gates, one object each
n = 4095
gates = qadd.synth_ripple(n).gates
counts = (len({id(g) for g in gates}), len(set(gates)), len(gates))
assert counts == (3 * n - 1, 3 * n - 1, 7 * n - 6), counts
# one one-wire operand tuple per wire: B_i, A_i and Z
tuples = [t for g in gates for t in g[1:] if len(t) == 1]
assert (len({id(t) for t in tuples}), len(set(tuples))) == (2 * n + 1, 2 * n + 1)
# the combined adder's blocks slice one family per register: one object per distinct gate
combined = qadd.synth_combined(qadd.BlockParams(4096, 12)).gates
counts = (len({id(g) for g in combined}), len(set(combined)), len(combined))
assert counts == (19935, 19935, 88358), counts
# and so do the small blocks of (4096, 2), built as per-position columns
combined = qadd.synth_combined(qadd.BlockParams(4096, 2)).gates
counts = (len({id(g) for g in combined}), len(set(combined)), len(combined))
assert counts == (30689, 30689, 96116), counts
run = ["qadd", "stats", "--kind", "ripple", "--n", str(n), "--json"]
stats = json.loads(subprocess.run(run, check=True, capture_output=True, text=True).stdout)
closed = qadd.ripple_closed_forms(n)
assert {key: stats[key] for key in closed} == closed, stats
EOF
