import pytest

from qadd import (
    BlockParams,
    Circuit,
    Gate,
    GateKind,
    build_circuit,
    ccx,
    compute_stats,
    cx,
    fo,
    max_window_span,
    parse_netlist,
    synth_combined,
    synth_fanout_tree,
    synth_ripple,
    tg,
    x,
)
from qadd.ripple import interleaved_layout
from qadd.sim import run, run_packed, _random_columns


def test_gate_constructors():
    g = ccx(0, 1, 2)
    assert g.kind is GateKind.TOFFOLI
    assert g.operands == (0, 1, 2)
    assert fo(3, [0, 1]).fanout_length == 2
    assert cx(0, 1).fanout_length == 0
    assert tg([0, 1, 2], 3).controls == (0, 1, 2)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: ccx(1, 1, 2),  # duplicate control
        lambda: cx(0, 0),
        lambda: fo(0, [1, 1]),
        lambda: fo(0, []),
        lambda: tg([], 0),
        lambda: Gate(GateKind.NOT, (0,), (1,)),  # NOT takes no controls
        lambda: cx(-1, 0),
    ],
)
def test_gate_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_build_circuit():
    c = build_circuit(3)
    assert compute_stats(c).depth == 0
    assert len(c) == 0
    with pytest.raises(ValueError):
        build_circuit(0)
    with pytest.raises(ValueError):
        build_circuit(2, {5})


def test_append():
    c = build_circuit(2).append(cx(0, 1))
    st = compute_stats(c)
    assert st.size == 1 and st.depth == 1
    with pytest.raises(ValueError):
        c.append(cx(0, 2))  # out of range
    # three gates on disjoint wires share a layer
    c = build_circuit(6)
    for i in range(3):
        c.append(cx(2 * i, 2 * i + 1))
    assert compute_stats(c).depth == 1


@pytest.mark.parametrize(
    "batch, error",
    [
        ([cx(0, 1), cx(1, 2), cx(0, 5)], ValueError),  # an operand out of range
        ([cx(0, 1), cx(1, 2), (0, (0,), (1,))], TypeError),  # not a Gate
    ],
    ids=["out-of-range", "not-a-gate"],
)
def test_a_failed_extend_appends_nothing(batch, error):
    c = Circuit(3, gates=[x(0)])
    before = list(c.gates)
    with pytest.raises(error):
        c.extend(batch)
    assert c.gates == before
    with pytest.raises(error):
        c.extend(iter(batch))
    assert c.gates == before


def test_role_map_validation():
    with pytest.raises(ValueError):
        Circuit(2, role_map={0: "B0", 1: "B0"})  # duplicate label
    with pytest.raises(ValueError):
        Circuit(2, role_map={5: "B0"})
    # labels are str, never coerced: these were stored as "None", "b'B0'", "5"
    for label in (None, b"B0", 5):
        with pytest.raises(ValueError, match="str"):
            Circuit(2, role_map={0: label})


def test_role_map_is_always_a_dict():
    plain = Circuit(2, gates=[cx(0, 1)])
    roleless = [plain, Circuit(2, role_map=None), Circuit(2, role_map={}), plain.inverse()]
    roleless.append(synth_fanout_tree(0, [1, 2, 3], 2))
    roleless.append(parse_netlist("qadd 1\nqubits 2\ncx 0 1\n"))
    for c in roleless:
        assert type(c.role_map) is dict and c.role_map == {}
        assert c.wires_by_role() == {}
    assert Circuit(2, role_map=None) == Circuit(2, role_map={})


def test_inverse_reverses_gates():
    assert build_circuit(1).inverse().gates == []
    c = build_circuit(3).extend([cx(0, 1), ccx(0, 1, 2)])
    inv = c.inverse()
    assert inv.gates == [ccx(0, 1, 2), cx(0, 1)]


def test_inverse_composes_to_identity():
    c = synth_ripple(64)
    inv = c.inverse()
    both = Circuit(c.wire_count, gates=c.gates + inv.gates)
    cols = _random_columns(both, list(range(c.wire_count)), 1000, seed=3)
    assert run_packed(both, cols, 1000) == cols


def test_stats_ripple_counts():
    st = compute_stats(synth_ripple(5))
    assert (st.depth, st.size, st.count_toffoli, st.count_cnot) == (22, 29, 9, 20)
    st = compute_stats(synth_ripple(3))
    assert (st.depth, st.size) == (12, 15)


def test_count_toffoli_like_adds_generalized_toffolis():
    st = synth_combined(BlockParams(8, 2)).stats()
    assert st.count_toffoli_like == st.count_toffoli + st.count_gen_toffoli
    st = build_circuit(4).extend([ccx(0, 1, 2), tg([0, 1, 2], 3), cx(0, 1)]).stats()
    assert (st.count_toffoli, st.count_gen_toffoli, st.count_toffoli_like) == (1, 1, 2)


def test_circuit_repr_names_its_shape():
    assert repr(synth_ripple(5)) == "Circuit(wires=11, gates=29, ancilla=0)"


def test_stats_sum_of_counts():
    c = build_circuit(5).extend([x(0), cx(0, 1), ccx(0, 1, 2), fo(0, [1, 2]), tg([0, 1], 2)])
    st = compute_stats(c)
    assert st.size == (
        st.count_not + st.count_cnot + st.count_toffoli + st.count_fanout + st.count_gen_toffoli
    )
    assert st.max_fanout_length == 2
    assert st.toffoli_depth <= st.depth


@pytest.mark.parametrize("gate", [cx(0, 1), ccx(0, 1, 2)])
def test_stats_carry_depth_from_every_operand_to_every_other(gate):
    # Two Toffolis raise operand i, then two more continue from operand j on
    # fresh wires, so the critical path runs through the gate for every pair.
    ops = gate.controls + gate.targets
    for i in ops:
        for j in ops:
            if i != j:
                c = Circuit(
                    11, gates=[ccx(3, 4, i), ccx(5, 6, i), gate, ccx(j, 7, 8), ccx(j, 9, 10)]
                )
                st = compute_stats(c)
                tdepth = 4 + (gate.kind is GateKind.TOFFOLI)
                assert (st.depth, st.toffoli_depth) == (5, tdepth), (i, j)


def test_depth_counts_every_gate_as_one_layer():
    c = build_circuit(8).extend([fo(0, list(range(1, 8))), tg(list(range(7)), 7)])
    assert compute_stats(c).depth == 2


def test_depth_monotone_under_append():
    c = build_circuit(4)
    prev = 0
    gates = [cx(0, 1), cx(2, 3), ccx(0, 2, 3), cx(1, 2), ccx(1, 2, 0)]
    for g in gates:
        c.append(g)
        d = compute_stats(c).depth
        assert d >= prev
        prev = d
    assert compute_stats(c.inverse()).depth == prev


def test_max_window_span():
    c = build_circuit(2).append(cx(0, 1))
    assert max_window_span(c, {0: 0, 1: 1}) == 1
    for n in (5, 64):
        rip = synth_ripple(n)
        assert max_window_span(rip, interleaved_layout(rip)) == 3
    with pytest.raises(ValueError):
        max_window_span(c, {0: 0})  # missing wire
    with pytest.raises(ValueError):
        max_window_span(c, {0: 0, 1: 0})  # not a bijection


@pytest.mark.parametrize(
    "extra, message",
    [
        ({}, r"layout missing wires \[4\]"),
        ({4: 4, 9: 9}, r"layout wires \[9\] out of range for 5 wires"),
        ({4: 4, -1: 5}, r"layout wires \[-1\] out of range for 5 wires"),
        ({4: 3}, "layout positions must be distinct"),
        ({4: -1}, "layout positions must be non-negative"),
    ],
)
def test_max_window_span_names_what_is_wrong_with_the_layout(extra, message):
    layout = {0: 0, 1: 1, 2: 2, 3: 3, **extra}
    with pytest.raises(ValueError, match=message):
        max_window_span(synth_ripple(2), layout)


@pytest.mark.parametrize(
    "layout", [{0: 0.9, 1: 1.2, 2: 2.7}, {0: 0, 1.0: 1, 2: 2}, {0: 0, 1: True, 2: 2}]
)
def test_max_window_span_rejects_a_layout_entry_that_is_not_an_int(layout):
    # int() used to truncate the first layout to 0, 1, 2, where cx(0, 2)
    # reads span 2.
    c = Circuit(3, gates=[cx(0, 2)])
    with pytest.raises(ValueError, match="is not an int"):
        max_window_span(c, layout)


def _involution_cases(gate, width):
    for bits in range(1 << width):
        state = [(bits >> i) & 1 for i in range(width)]
        once = run(Circuit(width, gates=[gate]), state)
        twice = run(Circuit(width, gates=[gate]), once)
        assert twice == state


@pytest.mark.parametrize(
    "gate,width",
    [
        (x(0), 1),
        (cx(0, 1), 2),
        (ccx(0, 1, 2), 3),
        (fo(0, [1]), 2),
        (fo(0, [1, 2]), 3),
        (tg([0], 1), 2),
        (tg([0, 1], 2), 3),
    ],
)
def test_gate_involution_small(gate, width):
    _involution_cases(gate, width)


def test_gate_involution_wide():
    # fanout and generalized Toffoli at t = 8
    c = Circuit(9, gates=[fo(0, list(range(1, 9)))])
    cols = _random_columns(c, list(range(9)), 256, seed=11)
    assert run_packed(c, run_packed(c, cols, 256), 256) == cols
    c = Circuit(9, gates=[tg(list(range(8)), 8)])
    assert run_packed(c, run_packed(c, cols, 256), 256) == cols
