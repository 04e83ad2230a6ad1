"""Differential properties over random circuits of all five gate kinds.

They guard the readers that unpack gates (``export_netlist``,
``parse_netlist``, ``run``, ``run_packed``, ``compute_stats``) against each
other.  ``run`` is now a one-case ``run_packed``, so the kernel is checked
against ``reference_run``, the scalar interpreter ``run`` used to be.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qadd import (
    Circuit,
    GateKind,
    ccx,
    compute_stats,
    cx,
    export_netlist,
    fo,
    parse_netlist,
    run,
    run_packed,
    tg,
    x,
)

MAX_WIRES = 10


def reference_run(circuit, state):
    """The scalar per-gate interpreter ``qadd.run`` was before it became a
    one-case packed run, kept as the reference for ``run_packed``."""
    if len(state) != circuit.wire_count:
        raise ValueError(
            f"state has {len(state)} wires, circuit has {circuit.wire_count}"
        )
    bad = [w for w in circuit.ancilla if state[w]]
    if bad:
        raise ValueError(f"ancilla wires {sorted(bad)} must be 0 on input")
    out = list(state)
    for kind, controls, targets in circuit.gates:
        if kind is GateKind.NOT:
            out[targets[0]] ^= 1
        elif kind is GateKind.CNOT:
            out[targets[0]] ^= out[controls[0]]
        elif kind is GateKind.TOFFOLI:
            c1, c2 = controls
            out[targets[0]] ^= out[c1] & out[c2]
        elif kind is GateKind.FANOUT:
            src = out[controls[0]]
            for t in targets:
                out[t] ^= src
        else:
            acc = 1
            for c in controls:
                acc &= out[c]
            out[targets[0]] ^= acc
    return out


@st.composite
def gates(draw, wire_count):
    kind = draw(st.sampled_from(list(GateKind)))
    need = {GateKind.NOT: 1, GateKind.CNOT: 2, GateKind.TOFFOLI: 3}.get(kind, 2)
    if need > wire_count:
        kind, need = GateKind.NOT, 1
    if kind in (GateKind.FANOUT, GateKind.GEN_TOFFOLI):
        need = draw(st.integers(2, wire_count))
    wires = draw(st.permutations(range(wire_count)))[:need]
    if kind is GateKind.NOT:
        return x(wires[0])
    if kind is GateKind.CNOT:
        return cx(*wires)
    if kind is GateKind.TOFFOLI:
        return ccx(*wires)
    if kind is GateKind.FANOUT:
        return fo(wires[0], wires[1:])
    return tg(wires[:-1], wires[-1])


@st.composite
def circuits(draw, with_ancilla=True):
    wire_count = draw(st.integers(1, MAX_WIRES))
    ancilla = draw(st.sets(st.integers(0, wire_count - 1))) if with_ancilla else set()
    labels = draw(st.sets(st.integers(0, wire_count - 1)))
    roles = {w: f"R{w}" for w in labels} or None
    gate_list = draw(st.lists(gates(wire_count), max_size=40))
    return Circuit(wire_count, ancilla, roles, gate_list)


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_netlist_round_trip_is_exact_and_byte_stable(circuit):
    text = export_netlist(circuit)
    parsed = parse_netlist(text)
    assert parsed == circuit
    assert export_netlist(parsed) == text


@settings(max_examples=100, deadline=None)
@given(circuits(with_ancilla=False), st.data())
def test_run_matches_run_packed_column_wise(circuit, data):
    n_cases = data.draw(st.integers(1, 70))
    wc = circuit.wire_count
    cols = data.draw(st.lists(st.integers(0, (1 << n_cases) - 1), min_size=wc, max_size=wc))
    out_cols = run_packed(circuit, cols, n_cases)
    for case in range(n_cases):
        state = [(col >> case) & 1 for col in cols]
        assert run(circuit, state) == [(col >> case) & 1 for col in out_cols]


@settings(max_examples=100, deadline=None)
@given(circuits(with_ancilla=False), st.data())
def test_run_packed_matches_reference_run_column_wise(circuit, data):
    n_cases = data.draw(st.integers(1, 70))
    wc = circuit.wire_count
    cols = data.draw(st.lists(st.integers(0, (1 << n_cases) - 1), min_size=wc, max_size=wc))
    out_cols = run_packed(circuit, cols, n_cases)
    for case in range(n_cases):
        state = [(col >> case) & 1 for col in cols]
        assert reference_run(circuit, state) == [(col >> case) & 1 for col in out_cols]


@settings(max_examples=100, deadline=None)
@given(circuits(), st.data())
def test_circuit_then_inverse_is_identity(circuit, data):
    n_cases = data.draw(st.integers(1, 70))
    wc = circuit.wire_count
    cols = data.draw(st.lists(st.integers(0, (1 << n_cases) - 1), min_size=wc, max_size=wc))
    inverse = circuit.inverse()
    assert run_packed(inverse, run_packed(circuit, cols, n_cases), n_cases) == cols
    assert run_packed(circuit, run_packed(inverse, cols, n_cases), n_cases) == cols
    assert inverse.inverse() == circuit


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_stats_depth_ordering(circuit):
    stats = compute_stats(circuit)
    assert 0 <= stats.toffoli_depth <= stats.depth <= stats.size == len(circuit.gates)
    assert stats.size == (
        stats.count_not
        + stats.count_cnot
        + stats.count_toffoli
        + stats.count_fanout
        + stats.count_gen_toffoli
    )
