"""Cross-checks of the packed reference oracles against plain-integer models.

The packed oracles in qadd.oracles drive the heavy verification runs, so
they are themselves checked here against independent evaluations built on
Python integer arithmetic.
"""

import pytest

from qadd import BlockParams, Circuit, splitmix64, synth_carry, synth_combined, synth_init, synth_ripple, synth_sum
from qadd.oracles import adder_oracle, carry_fold_oracle, init_oracle, sum_oracle
from qadd.oracles import first_half_oracle
from qadd.sim import _enumeration_columns


def _unpack(cols, wire, case):
    return (cols[wire] >> case) & 1


def _majority(a, b, c):
    return (a & b) ^ (b & c) ^ (c & a)


def test_adder_oracle_matches_integer_addition():
    for n in (1, 2, 3, 4):
        c = synth_ripple(n)
        _, packed = adder_oracle(c)
        free = list(range(c.wire_count))
        cols = _enumeration_columns(c, free)
        out = packed(cols, 1 << len(free))
        by_role = c.wires_by_role()
        for case in range(1 << len(free)):
            a = sum(_unpack(cols, by_role[f"A{i}"], case) << i for i in range(n))
            b = sum(_unpack(cols, by_role[f"B{i}"], case) << i for i in range(n))
            z = _unpack(cols, by_role["Z"], case)
            s = a + b
            for i in range(n):
                assert _unpack(out, by_role[f"B{i}"], case) == (s >> i) & 1
                assert _unpack(out, by_role[f"A{i}"], case) == (a >> i) & 1
            assert _unpack(out, by_role["Z"], case) == z ^ ((s >> n) & 1)


def test_adder_oracle_matches_at_width_64():
    c = synth_ripple(64)
    _, packed = adder_oracle(c)
    by_role = c.wires_by_role()
    gen = splitmix64(5)
    cols = [0] * c.wire_count
    cases = 64
    values = []
    for case in range(cases):
        a, b, z = next(gen), next(gen), next(gen) & 1
        values.append((a, b, z))
        for i in range(64):
            cols[by_role[f"A{i}"]] |= ((a >> i) & 1) << case
            cols[by_role[f"B{i}"]] |= ((b >> i) & 1) << case
        cols[by_role["Z"]] |= z << case
    out = packed(cols, cases)
    for case, (a, b, z) in enumerate(values):
        s = a + b
        got = sum(_unpack(out, by_role[f"B{i}"], case) << i for i in range(64))
        assert got == s & ((1 << 64) - 1)
        assert _unpack(out, by_role["Z"], case) == z ^ (s >> 64)


def test_init_oracle_matches_direct_recurrences():
    w = 4
    c = synth_init(w)
    _, packed = init_oracle(c)
    by_role = c.wires_by_role()
    free = list(range(2 * w))
    cols = _enumeration_columns(c, free)
    out = packed(cols, 1 << len(free))
    for case in range(1 << len(free)):
        a = [_unpack(cols, by_role[f"A{i}"], case) for i in range(w)]
        b = [_unpack(cols, by_role[f"B{i}"], case) for i in range(w)]
        # generate/propagate from their definitions
        carries = [0]
        for i in range(w):
            carries.append(_majority(a[i], b[i], carries[i]))
        prefix = [1]
        for i in range(w):
            prefix.append(prefix[i] & (a[i] ^ b[i]))
        for i in range(w):
            assert _unpack(out, by_role[f"B{i}"], case) == a[i] ^ b[i]
        assert _unpack(out, by_role["A0"], case) == a[0]
        for i in range(1, w):
            assert _unpack(out, by_role[f"A{i}"], case) == a[i] ^ carries[i] ^ prefix[i]
        assert _unpack(out, by_role["G"], case) == carries[w]
        assert _unpack(out, by_role["P"], case) == prefix[w]


def test_sum_oracle_matches_integer_addition():
    w = 4
    c = synth_sum(w, with_carry_in=True)
    _, packed = sum_oracle(c)
    by_role = c.wires_by_role()
    cols = _enumeration_columns(c, list(range(c.wire_count)))
    out = packed(cols, 1 << c.wire_count)
    for case in range(1 << c.wire_count):
        a = sum(_unpack(cols, by_role[f"A{i}"], case) << i for i in range(w))
        b = sum(_unpack(cols, by_role[f"B{i}"], case) << i for i in range(w))
        cin = _unpack(cols, by_role["C"], case)
        t = a + b + cin
        for i in range(w):
            assert _unpack(out, by_role[f"B{i}"], case) == (t >> i) & 1
            assert _unpack(out, by_role[f"A{i}"], case) == (a >> i) & 1
        assert _unpack(out, by_role["C"], case) == cin


def test_carry_fold_oracle_matches_integer_carries():
    # block p/g derived from integer operands must fold to the true carries
    n, l = 16, 2
    k = 1 << (l - 1)
    m = n >> (l - 1)
    c = synth_carry(n, l)
    _, packed = carry_fold_oracle(c)
    by_role = c.wires_by_role()
    gen = splitmix64(8)
    for _ in range(50):
        a, b = next(gen) % (1 << n), next(gen) % (1 << n)
        state = [0] * c.wire_count
        for j in range(m):
            aj = (a >> (j * k)) & ((1 << k) - 1)
            bj = (b >> (j * k)) & ((1 << k) - 1)
            state[by_role[f"G{j}"]] = ((aj + bj) >> k) & 1  # block generate
            if j >= 1:
                prop = 1
                for i in range(k):
                    prop &= ((aj >> i) & 1) ^ ((bj >> i) & 1)
                state[by_role[f"P{j}"]] = prop
        out = packed([v for v in state], 1)
        s = a + b
        for j in range(m):
            true_carry = ((a % (1 << ((j + 1) * k))) + (b % (1 << ((j + 1) * k)))) >> ((j + 1) * k)
            assert out[by_role[f"G{j}"]] == true_carry


def test_combined_uses_same_contract_as_ripple():
    params = BlockParams(8, 2)
    c = synth_combined(params)
    per, _ = adder_oracle(c)
    by_role = c.wires_by_role()
    state = [0] * c.wire_count
    # a = 170, b = 85 -> s = 255, no carry out
    for i in range(8):
        state[by_role[f"A{i}"]] = (170 >> i) & 1
        state[by_role[f"B{i}"]] = (85 >> i) & 1
    out = per(state)
    assert sum(out[by_role[f"B{i}"]] << i for i in range(8)) == 255
    assert out[by_role["Z"]] == 0


def test_adder_per_case_matches_integer_addition():
    # the per-case form is derived from the packed one; pin it to integers
    for n in (1, 2, 3):
        c = synth_ripple(n)
        per_case, _ = adder_oracle(c)
        by_role = c.wires_by_role()
        for case in range(1 << c.wire_count):
            state = [(case >> w) & 1 for w in range(c.wire_count)]
            a = sum(state[by_role[f"A{i}"]] << i for i in range(n))
            b = sum(state[by_role[f"B{i}"]] << i for i in range(n))
            s = a + b
            out = per_case(state)
            assert sum(out[by_role[f"B{i}"]] << i for i in range(n)) == s % (1 << n)
            assert out[by_role["Z"]] == state[by_role["Z"]] ^ (s >> n)
            assert [out[by_role[f"A{i}"]] for i in range(n)] == [(a >> i) & 1 for i in range(n)]



def test_oracles_pass_ancilla_columns_through():
    # the ancilla rule is checked by sim alone; the oracles model data wires
    for circuit, factory in [
        (synth_combined(BlockParams(8, 2)), adder_oracle),
        (synth_carry(16, 1), carry_fold_oracle),
    ]:
        _, packed = factory(circuit)
        cols = [0] * circuit.wire_count
        for w in circuit.ancilla:
            cols[w] = 0b1011
        out = packed(cols, 4)
        assert all(out[w] == 0b1011 for w in circuit.ancilla)


def test_carry_fold_oracle_needs_every_propagate_label():
    good = synth_carry(8, 1)
    roles = {w: label for w, label in good.role_map.items() if label != "P2"}
    with pytest.raises(KeyError, match="P2"):
        carry_fold_oracle(Circuit(good.wire_count, good.ancilla, roles, good.gates))


# The labels each factory reads besides the B and A registers.
OPERAND_FACTORIES = {
    "adder": (adder_oracle, ["Z"]),
    "first-half": (first_half_oracle, ["Z"]),
    "init": (init_oracle, ["G", "P"]),
    "sum": (sum_oracle, ["C"]),
}


@pytest.mark.parametrize(
    "registers,missing",
    [
        (["B0", "B1", "A0", "A1", "B3", "A3"], "B2"),  # a gap below later labels
        (["B0", "B1", "A0"], "A1"),  # A narrower than B
        (["B0", "A0", "A1"], "B1"),  # B narrower than A
    ],
    ids=["gap", "short-a", "short-b"],
)
@pytest.mark.parametrize("factory,extra", OPERAND_FACTORIES.values(), ids=OPERAND_FACTORIES.keys())
def test_operand_oracles_name_the_first_missing_label(factory, extra, registers, missing):
    # The gap used to give a 2-bit adder oracle that passed B3 through, and
    # the narrow A register an IndexError once the packed oracle was called.
    labels = registers + extra
    circuit = Circuit(len(labels), role_map=dict(enumerate(labels)))
    with pytest.raises(KeyError, match=missing):
        factory(circuit)
