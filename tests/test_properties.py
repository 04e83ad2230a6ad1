"""Differential properties over random circuits of all five gate kinds.

They guard the readers that unpack gates (``export_netlist``,
``parse_netlist``, ``run``, ``run_packed``, ``compute_stats``,
``max_window_span``) against each other.  ``run`` is now a one-case
``run_packed``, so the kernel is checked against ``reference_run``, the
scalar interpreter ``run`` used to be.  ``compute_stats`` and
``max_window_span`` read CNOT and Toffoli operands directly, so they are
checked against ``reference_stats`` and ``reference_span``, the generic
loops over ``controls + targets`` they used for every kind.
``export_netlist`` writes CNOT, Toffoli and NOT lines with one f-string
each, so it is checked against ``reference_export``, the generic ``join``
it used for every kind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qadd import (
    Circuit,
    CircuitStats,
    GateKind,
    ccx,
    compute_stats,
    cx,
    export_netlist,
    fo,
    max_window_span,
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


def reference_stats(circuit):
    """``compute_stats`` as one generic loop over every gate's operands,
    kept as the reference for its direct CNOT and Toffoli branches."""
    depth_at = [0] * circuit.wire_count
    tdepth_at = [0] * circuit.wire_count
    n_not = n_cnot = n_toffoli = n_fanout = n_gen = 0
    max_fanout = 0
    for kind, controls, targets in circuit.gates:
        ops = controls + targets
        d = 0
        td = 0
        for w in ops:
            if depth_at[w] > d:
                d = depth_at[w]
            if tdepth_at[w] > td:
                td = tdepth_at[w]
        d += 1
        if kind is GateKind.CNOT:
            n_cnot += 1
        elif kind is GateKind.TOFFOLI:
            n_toffoli += 1
            td += 1
        elif kind is GateKind.NOT:
            n_not += 1
        elif kind is GateKind.FANOUT:
            n_fanout += 1
            if len(targets) > max_fanout:
                max_fanout = len(targets)
        else:
            n_gen += 1
            td += 1
        for w in ops:
            depth_at[w] = d
            tdepth_at[w] = td
    return CircuitStats(
        depth=max(depth_at, default=0),
        toffoli_depth=max(tdepth_at, default=0),
        size=len(circuit.gates),
        count_not=n_not,
        count_cnot=n_cnot,
        count_toffoli=n_toffoli,
        count_fanout=n_fanout,
        count_gen_toffoli=n_gen,
        ancilla_count=len(circuit.ancilla),
        max_fanout_length=max_fanout,
    )


def reference_span(circuit, layout):
    """``max_window_span``'s generic min/max loop over every gate's
    operands, for a layout already known to be valid."""
    pos = [layout[w] for w in range(circuit.wire_count)]
    span = 0
    for _, controls, targets in circuit.gates:
        lo = hi = pos[targets[0]]
        for w in controls + targets:
            p = pos[w]
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
        if hi - lo > span:
            span = hi - lo
    return span


def reference_export(circuit):
    """``export_netlist`` as one generic ``join`` per gate, kept as the
    reference for its direct CNOT, Toffoli and NOT branches."""
    lines = ["qadd 1", f"qubits {circuit.wire_count}"]
    anc = " ".join(str(w) for w in sorted(circuit.ancilla))
    lines.append(f"ancilla {anc}".rstrip())
    if circuit.role_map:
        for w in sorted(circuit.role_map):
            lines.append(f"# role {w} {circuit.role_map[w]}")
    for kind, controls, targets in circuit.gates:
        lines.append(" ".join((kind.value, *map(str, controls + targets))))
    return "\n".join(lines) + "\n"


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


# Labels that join no register: a named wire, a leading zero and an index of
# eight digits, one more than a register index may have.
WHOLE_LABELS = ["Z", "B007", "A12345678"]


@st.composite
def role_maps(draw, wire_count):
    """Labels on random wires: registers A and B, whose indices follow a
    random permutation of their wires, and labels kept whole."""
    order = draw(st.permutations(range(wire_count)))
    count = draw(st.integers(0, wire_count))
    whole = draw(st.lists(st.sampled_from(WHOLE_LABELS), unique=True, max_size=count))
    rest = count - len(whole)
    cut = draw(st.integers(0, rest))
    labels = whole + [f"A{i}" for i in range(cut)] + [f"B{i}" for i in range(rest - cut)]
    return dict(zip(order, labels)) or None


@st.composite
def circuits(draw, with_ancilla=True):
    wire_count = draw(st.integers(1, MAX_WIRES))
    ancilla = draw(st.sets(st.integers(0, wire_count - 1))) if with_ancilla else set()
    roles = draw(role_maps(wire_count))
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


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_compute_stats_matches_reference_stats(circuit):
    assert compute_stats(circuit) == reference_stats(circuit)


@settings(max_examples=200, deadline=None)
@given(circuits(), st.randoms(use_true_random=False))
def test_max_window_span_matches_reference_span(circuit, rnd):
    positions = list(range(circuit.wire_count))
    rnd.shuffle(positions)
    layout = dict(enumerate(positions))
    assert max_window_span(circuit, layout) == reference_span(circuit, layout)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_export_netlist_matches_reference_export(circuit):
    assert export_netlist(circuit) == reference_export(circuit)
