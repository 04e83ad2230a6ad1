set -eo pipefail
timeout 60 python - <<'EOF'
import qadd
from qadd.oracles import adder_oracle
class XorLiar(int):
    def __xor__(self, other):
        return 0
    __rxor__ = __xor__
def without(circuit, index):
    gates = circuit.gates[:index] + circuit.gates[index + 1 :]
    return qadd.Circuit(circuit.wire_count, circuit.ancilla, circuit.role_map, gates)
def xor_liar(circuit, packed):
    return lambda cols, n: [XorLiar(c) for c in packed(cols, n)]
def none_ancilla(circuit, packed):
    def wrapped(cols, n):
        out = packed(cols, n)
        for w in circuit.ancilla:
            out[w] = None
        return out
    return wrapped
ripple = qadd.synth_ripple(3)
toffoli = next(i for i, g in enumerate(ripple.gates) if g.kind is qadd.GateKind.TOFFOLI)
combined = without(qadd.synth_combined(qadd.BlockParams(8, 2)), 0)
verifies = [
    lambda c, packed: qadd.verify_exhaustive(c, packed_oracle=packed),
    lambda c, packed: qadd.verify_random(c, packed_oracle=packed, trials=500, seed=3),
]
for circuit, oracle in [(without(ripple, toffoli), xor_liar), (combined, none_ancilla)]:
    _, packed = adder_oracle(circuit)
    for verify in verifies:
        want = verify(circuit, packed)
        got = verify(circuit, oracle(circuit, packed))
        assert not want.ok and got.to_json() == want.to_json(), (oracle.__name__, got)
EOF
