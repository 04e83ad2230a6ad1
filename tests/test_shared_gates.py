"""Each distinct gate of a gate-list builder is built once.

The ripple adder, the block sum, the prefix-AND ladder and INIT repeat
gates across their steps, and the builders repeat one object where a step
repeats a gate.  The references below are the step-by-step loops the
builders used when each position built its own gate; the builders must
give equal lists on any checked wire registers.  The combined adder builds
its gate families once over all n bits and lets each block slice them; its
reference builds each block's INIT and SUM from the block's own wires.
``GRID_SHA256`` in ``test_role_registers.py`` pins the netlists on
canonical wire ids only.
"""

import functools
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadd import (
    BlockParams,
    ccx,
    combined_step_gates,
    cx,
    synth_combined,
    synth_ripple,
    synth_sum,
    x,
)
from qadd.blocked import (
    _carry,
    _tree_backwards,
    carry_gates,
    carry_tree_scratch_count,
    combined_wire_plan,
    init_gates,
    prefix_and_ladder_gates,
    sum_gates,
)
from qadd.ripple import adder_first_half_gates, ripple_add_gates, ripple_wires
from test_gate import _valid_depths


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


def reference_carry(g_wires, p_wires, scratch):
    """The carry tree one gate at a time: an upward combine with the level
    products on ``scratch`` in the order they are computed, a downward
    distribution, then the products uncomputed in reverse."""
    m = len(g_wires)
    levels = m.bit_length() - 1
    p_lvl = [{i: p_wires[i] for i in range(1, m)}]
    gates = []
    compute_order = []
    for t in range(1, levels + 1):
        blocks_t = m >> t
        prev = p_lvl[t - 1]
        if t < levels:
            cur = {}
            for i in range(1, blocks_t):
                w = scratch[len(compute_order)]
                gate = ccx(prev[2 * i], prev[2 * i + 1], w)
                gates.append(gate)
                compute_order.append(gate)
                cur[i] = w
            p_lvl.append(cur)
        step = 1 << t
        half = step >> 1
        for i in range(blocks_t):
            gates.append(
                ccx(g_wires[i * step + half - 1], prev[2 * i + 1], g_wires[(i + 1) * step - 1])
            )
    for s in range(levels - 2, -1, -1):
        step = 1 << s
        q = 3
        while q * step <= m:
            gates.append(ccx(g_wires[(q - 1) * step - 1], p_lvl[s][q - 1], g_wires[q * step - 1]))
            q += 2
    gates += reversed(compute_order)
    return gates


def reference_tree_backwards(carry, zero):
    """The carry tree run backwards as a data-flow filter: a gate is kept
    unless a control is known to be 0, and a kept gate's targets are no
    longer known to be 0.  ``zero`` is the wires at 0 when it starts."""
    zero = set(zero)
    kept = []
    for gate in reversed(carry):
        if zero.isdisjoint(gate.controls):
            kept.append(gate)
            zero.difference_update(gate.targets)
    return kept


@functools.lru_cache(maxsize=None)
def reference_combined_sections(n, k):
    """The combined adder's sections, each block's INIT and SUM built on its
    own wires and sliced, as before the blocks shared one family per register."""
    params = BlockParams(n, k)
    m = params.blocks
    plan = combined_wire_plan(params)
    b, a, _ = ripple_wires(n)
    g_slots = plan["g_slots"] + [plan["z"]]
    p_slots = plan["p_slots"]
    regs = [(b[j * k : (j + 1) * k], a[j * k : (j + 1) * k]) for j in range(m)]

    blocks = [adder_first_half_gates(*regs[0], g_slots[0])]
    blocks += [init_gates(*regs[j], g_slots[j], p_slots[j - 1]) for j in range(1, m)]
    step1 = [gate for block in blocks for gate in block]

    carry, scratch = carry_gates(g_slots, [None, *p_slots], plan["scratch"][0])
    assert scratch == plan["scratch"]

    frame = 2 * k - 2
    carry_slots = set(g_slots)
    tails = [
        [g for g in block[frame:] if carry_slots.isdisjoint(g.operands)] for block in blocks
    ]
    step3 = [g for tail in reversed(tails) for g in reversed(tail)]

    step4 = []
    for j in range(m):
        s = sum_gates(*regs[j], g_slots[j - 1]) if j else sum_gates(*regs[j])
        end = len(s) if j == m - 1 else len(s) - (frame - 1)
        step4 += s[:1] + s[frame:end]

    step5 = [x(b[i]) for i in range(n - k)]

    step6 = [g for tail in tails[:-1] for g in tail]
    step6 += reference_tree_backwards(carry, {p_slots[-1], *plan["scratch"]})
    step6 += [g for block in reversed(blocks[:-1]) for g in reversed(block)]

    return [
        ("init", step1),
        ("carry", carry),
        ("uncompute-init", step3),
        ("sum", step4),
        ("complement", step5),
        ("unwind", step6),
        ("uncomplement", list(step5)),
    ]


@functools.lru_cache(maxsize=None)
def reference_distinct_gates(n, k):
    return len({g for _, gates in reference_combined_sections(n, k) for g in gates})


def objects_and_values(gates):
    return len({id(g) for g in gates}), len(set(gates))


def one_wire_tuples(gates):
    """Objects and values among the gates' one-wire control and target tuples."""
    tuples = [operands for g in gates for operands in g[1:] if len(operands) == 1]
    return len({id(t) for t in tuples}), len(set(tuples))


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
    gates = synth_ripple(n).gates
    # n fold CNOTs, n - 1 chain CNOTs and n Toffolis
    assert objects_and_values(gates) == (3 * n - 1, 3 * n - 1)
    # one operand tuple per wire: B_i, A_i and Z
    assert one_wire_tuples(gates) == (2 * n + 1, 2 * n + 1)


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
    # built its own gate inside a section, 27 620 when each section built its own
    assert len(gates) == 88358
    assert objects == values == 19935


@pytest.mark.parametrize("m", [1 << e for e in range(2, 13)])
def test_carry_tree_matches_its_step_by_step_reference(m):
    g_wires = list(range(m))
    p_wires = [None, *range(m, 2 * m - 1)]
    gates, scratch = carry_gates(g_wires, p_wires, 2 * m - 1)
    assert gates == reference_carry(g_wires, p_wires, scratch)
    # each product's uncompute is its compute gate again
    objects, values = objects_and_values(gates)
    assert objects == values


@pytest.mark.parametrize("m", [1 << e for e in range(2, 13)])
def test_unwound_tree_matches_the_known_zero_filter(m):
    # the unwind's tree, built from the level families, against the filter
    # over the step-by-step tree with the top propagate and the scratch at 0
    g_wires = list(range(m))
    p_wires = [None, *range(m, 2 * m - 1)]
    scratch = list(range(2 * m - 1, 2 * m - 1 + carry_tree_scratch_count(m, 1)))
    up, down, undo = _carry(g_wires, p_wires, scratch)
    unwound = _tree_backwards(up, down)
    tree = reference_carry(g_wires, p_wires, scratch)
    assert unwound == reference_tree_backwards(tree, {p_wires[-1], *scratch})
    # each level's product over the top interval, computed and uncomputed,
    # and each level's combine into the top slot are left out
    assert len(tree) - len(unwound) == 3 * (m.bit_length() - 1) - 2
    # it runs the tree's own gate objects
    assert set(map(id, unwound)) <= set(map(id, chain(*up, down, undo)))


def _assert_sections_match_the_reference(params):
    sections = combined_step_gates(params)
    reference = reference_combined_sections(params.n, params.k)
    assert [name for name, _ in sections] == [name for name, _ in reference]
    for (name, gates), (_, expected) in zip(sections, reference):
        assert gates == expected, (params, name)
    # the reference's carry section comes from carry_gates: check the tree
    # level by level against the loop as well
    plan = combined_wire_plan(params)
    g_slots = plan["g_slots"] + [plan["z"]]
    expected = reference_carry(g_slots, [None, *plan["p_slots"]], plan["scratch"])
    assert dict(sections)["carry"] == expected, params
    # across sections too, an equal gate at several positions is one object
    objects = len(set(map(id, chain.from_iterable(gates for _, gates in sections))))
    assert objects == reference_distinct_gates(params.n, params.k), params


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
def test_combined_sections_match_the_per_block_reference(n):
    for d in _valid_depths(n):
        _assert_sections_match_the_reference(BlockParams(n, d))


@pytest.mark.parametrize("d", range(2, 13))
def test_wide_combined_sections_match_the_per_block_reference(d):
    _assert_sections_match_the_reference(BlockParams(4096, d))
