set -eo pipefail
timeout 60 python - <<'EOF'
import qadd
from qadd.oracles import first_half_oracle, init_oracle, sum_oracle
def check(circuit, factory, **free):
    _, packed = factory(circuit)
    report = qadd.verify_exhaustive(circuit, packed_oracle=packed, **free)
    assert report.ok, (factory.__name__, circuit, report)
for w in range(1, 9):
    check(qadd.synth_sum(w), sum_oracle)
    check(qadd.synth_sum(w, with_carry_in=False), sum_oracle)
for w in range(2, 9):
    check(qadd.synth_init(w), init_oracle, free_wires=range(2 * w))
# steps 1-3 of the ripple adder on its layout: B_i = 2i, A_i = 2i + 1, Z = 2n
for n in range(1, 10):
    b, a = list(range(0, 2 * n, 2)), list(range(1, 2 * n, 2))
    gates = qadd.adder_first_half_gates(b, a, 2 * n)
    roles = qadd.synth_ripple(n).role_map
    check(qadd.Circuit(2 * n + 1, role_map=roles, gates=gates), first_half_oracle)
EOF
