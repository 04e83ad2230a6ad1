"""Each distinct gate of a gate-list builder is built once.

The ripple adder, the block sum, the prefix-AND ladder and INIT repeat
gates across their steps, and the builders repeat one object where a step
repeats a gate.  The references below are the step-by-step loops the
builders used when each position built its own gate; the builders must
give equal lists on any checked wire registers.  ``GRID_SHA256`` in
``test_role_registers.py`` pins the netlists on canonical wire ids only.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadd import BlockParams, ccx, cx, synth_combined, synth_ripple, synth_sum
from qadd.blocked import init_gates, prefix_and_ladder_gates, sum_gates
from qadd.ripple import adder_first_half_gates, ripple_add_gates


def reference_first_half(b, a, carry_out):
    n = len(b)
    aa = list(a) + [carry_out]
    gates = [cx(aa[i], b[i]) for i in range(1, n)]
    gates += [cx(aa[i], aa[i + 1]) for i in range(n - 1, 0, -1)]
    gates += [ccx(b[i], aa[i], aa[i + 1]) for i in range(n)]
    return gates


def reference_ripple_add(b, a, z):
    n = len(b)
    aa = list(a) + [z]
    gates = reference_first_half(b, a, z)
    for i in range(n - 1, 0, -1):
        gates.append(cx(aa[i], b[i]))
        gates.append(ccx(b[i - 1], aa[i - 1], aa[i]))
    gates += [cx(aa[i], aa[i + 1]) for i in range(1, n - 1)]
    gates += [cx(aa[i], b[i]) for i in range(n)]
    return gates


def reference_ladder(conjuncts, scratch, target):
    w = len(conjuncts)
    gates = [ccx(conjuncts[w - 1], scratch[w - 2], target)]
    for j in range(w - 1, 1, -1):
        gates.append(ccx(conjuncts[j - 1], scratch[j - 2], scratch[j - 1]))
    gates.append(cx(conjuncts[0], scratch[0]))
    for j in range(2, w):
        gates.append(ccx(conjuncts[j - 1], scratch[j - 2], scratch[j - 1]))
    gates.append(ccx(conjuncts[w - 1], scratch[w - 2], target))
    return gates


def reference_init(b, a, g, p):
    return reference_first_half(b, a, g) + [cx(a[0], b[0])] + reference_ladder(b, a[1:], p)


def reference_sum(b, a, carry):
    w = len(b)
    gates = [cx(a[i], b[i]) for i in range(w)]
    gates += [cx(a[i], a[i + 1]) for i in range(w - 2, -1, -1)]
    carry_into_a0 = carry is not None and w > 1
    if carry_into_a0:
        gates.append(cx(carry, a[0]))
    gates += [ccx(b[i], a[i], a[i + 1]) for i in range(w - 1)]
    for i in range(w - 1, 0, -1):
        gates.append(cx(a[i], b[i]))
        gates.append(ccx(b[i - 1], a[i - 1], a[i]))
    if carry_into_a0:
        gates.append(cx(carry, a[0]))
    if carry is not None:
        gates.append(cx(carry, b[0]))
    gates += [cx(a[i], a[i + 1]) for i in range(w - 1)]
    gates += [cx(a[i], b[i]) for i in range(1, w)]
    return gates


def objects_and_values(gates):
    return len({id(g) for g in gates}), len(set(gates))


@st.composite
def registers(draw):
    """b and a of one width from 1 to 40 and two more wires, all distinct,
    drawn from a wide range in random order."""
    w = draw(st.integers(1, 40))
    size = 2 * w + 2
    ids = draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size, unique=True))
    return ids[:w], ids[w : 2 * w], ids[2 * w], ids[2 * w + 1]


@settings(max_examples=300, deadline=None)
@given(registers())
def test_builders_match_their_step_by_step_references(regs):
    b, a, x, y = regs
    built = {
        "ripple_add_gates": (ripple_add_gates(b, a, x), reference_ripple_add(b, a, x)),
        "adder_first_half_gates": (adder_first_half_gates(b, a, x), reference_first_half(b, a, x)),
        "sum_gates with a carry": (sum_gates(b, a, x), reference_sum(b, a, x)),
        "sum_gates without": (sum_gates(b, a), reference_sum(b, a, None)),
    }
    if len(b) >= 2:
        built["init_gates"] = (init_gates(b, a, x, y), reference_init(b, a, x, y))
        built["prefix_and_ladder_gates"] = (
            prefix_and_ladder_gates(b, a[1:], x),
            reference_ladder(b, a[1:], x),
        )
    for name, (gates, reference) in built.items():
        assert gates == reference, name
        # an equal gate at several positions is one object
        objects, values = objects_and_values(gates)
        assert objects == values, name


@pytest.mark.parametrize("n", [*range(1, 65), 4095])
def test_ripple_adder_holds_one_object_per_distinct_gate(n):
    # n fold CNOTs, n - 1 chain CNOTs and n Toffolis
    assert objects_and_values(synth_ripple(n).gates) == (3 * n - 1, 3 * n - 1)


@pytest.mark.parametrize("w", range(1, 41))
def test_block_sum_and_ladder_hold_one_object_per_distinct_gate(w):
    for with_carry_in in (True, False):
        objects, values = objects_and_values(synth_sum(w, with_carry_in).gates)
        assert objects == values
    if w >= 2:
        objects, values = objects_and_values(
            prefix_and_ladder_gates(list(range(w)), list(range(w, 2 * w - 1)), 2 * w)
        )
        assert objects == values == w


def test_combined_adder_shares_its_repeated_gates():
    gates = synth_combined(BlockParams(4096, 12)).gates
    objects, values = objects_and_values(gates)
    # 88 358 gates, 19 935 distinct; 38 877 objects when each position
    # built its own gate inside a section
    assert (len(gates), values) == (88358, 19935)
    assert objects <= 27620
