"""The gate record: API, validation at every public creation route, and the
unchecked path the synthesizers use."""

import copy
import pickle

import pytest

from qadd import (
    BlockParams,
    Circuit,
    Gate,
    GateKind,
    adder_first_half_gates,
    carry_gates,
    ccx,
    cx,
    fo,
    init_gates,
    maj_fragment,
    parse_netlist,
    prefix_and_ladder_gates,
    ripple_add_gates,
    sum_gates,
    synth_carry,
    synth_combined,
    synth_fanout_tree,
    synth_init,
    synth_ripple,
    synth_sum,
    tg,
    x,
)
from qadd.fanout import fanout_tree_gates

EVERY_KIND = [x(4), cx(0, 1), ccx(0, 1, 2), fo(3, [0, 1, 2]), tg([0, 1, 2], 3)]


def _forged(kind, controls, targets):
    """A gate built without validation, as only the synthesizers may."""
    return tuple.__new__(Gate, (kind, controls, targets))


def test_fields_and_keyword_construction():
    g = Gate(kind=GateKind.TOFFOLI, controls=(0, 1), targets=(2,))
    assert g == ccx(0, 1, 2) == Gate(GateKind.TOFFOLI, [0, 1], [2])
    assert (g.kind, g.controls, g.targets) == (GateKind.TOFFOLI, (0, 1), (2,))
    kind, controls, targets = g
    assert (kind, controls, targets) == (g.kind, g.controls, g.targets)
    assert type(g.controls) is tuple and type(g.targets) is tuple
    assert g.operands == (0, 1, 2)
    assert fo(3, [0, 1, 2]).operands == (3, 0, 1, 2)
    assert [h.fanout_length for h in EVERY_KIND] == [0, 0, 0, 3, 0]


def test_hash_and_equality():
    assert ccx(0, 1, 2) == ccx(0, 1, 2) and hash(ccx(0, 1, 2)) == hash(ccx(0, 1, 2))
    assert ccx(0, 1, 2) != ccx(1, 0, 2)
    assert cx(0, 1) != cx(1, 0)
    assert fo(0, [1, 2]) != fo(0, [2, 1])
    assert tg([0, 1], 2) != ccx(0, 1, 2)  # same wires, different kind
    assert len({ccx(0, 1, 2), ccx(0, 1, 2), ccx(1, 0, 2), tg([0, 1], 2)}) == 3


def test_repr():
    assert repr(ccx(0, 1, 2)) == (
        "Gate(kind=<GateKind.TOFFOLI: 'ccx'>, controls=(0, 1), targets=(2,))"
    )
    assert repr(x(3)) == "Gate(kind=<GateKind.NOT: 'x'>, controls=(), targets=(3,))"


def test_immutable():
    g = cx(0, 1)
    for name in ("kind", "controls", "targets", "operands", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    with pytest.raises(TypeError):
        g[0] = GateKind.NOT
    assert g == cx(0, 1)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_and_copy_round_trip(protocol):
    for g in EVERY_KIND:
        for back in (pickle.loads(pickle.dumps(g, protocol)), copy.copy(g), copy.deepcopy(g)):
            assert back == g and type(back) is Gate


# (kind, controls, targets) that no public route may turn into a Gate.
BAD_FIELDS = [
    (GateKind.NOT, (0,), (1,)),  # NOT takes no controls
    (GateKind.CNOT, (0,), ()),  # no target
    (GateKind.CNOT, (0,), (1, 2)),  # two targets
    (GateKind.TOFFOLI, (0,), (1,)),  # one control
    (GateKind.FANOUT, (0, 1), (2,)),  # two sources
    (GateKind.FANOUT, (0,), ()),  # no fan-out targets
    (GateKind.GEN_TOFFOLI, (), (0,)),  # no controls
    (GateKind.CNOT, (1,), (1,)),  # duplicate wire
    (GateKind.FANOUT, (0,), (1, 1)),
    (GateKind.GEN_TOFFOLI, (0, 1, 0), (2,)),
    (GateKind.TOFFOLI, (0, -1), (2,)),  # negative wire
    (GateKind.NOT, (), (-1,)),
    (GateKind.FANOUT, (-3,), (0, 1)),
]


def _netlist_route(kind, controls, targets):
    ids = " ".join(str(w) for w in controls + targets)
    return parse_netlist(f"qadd 1\nqubits 8\nancilla\n{kind.value} {ids}\n")


ROUTES = {
    "positional": lambda k, c, t: Gate(k, c, t),
    "keyword": lambda k, c, t: Gate(kind=k, controls=c, targets=t),
    "pickle": lambda k, c, t: pickle.loads(pickle.dumps(_forged(k, c, t))),
    "copy": lambda k, c, t: copy.copy(_forged(k, c, t)),
    "deepcopy": lambda k, c, t: copy.deepcopy(_forged(k, c, t)),
    "netlist": _netlist_route,
}


# A netlist line splits its ids by kind, so "fo 0 1 2" is one source and two
# targets: two FANOUT sources have no netlist form.
ROUTE_CASES = [
    (route, fields)
    for route in ROUTES
    for fields in BAD_FIELDS
    if not (route == "netlist" and fields[0] is GateKind.FANOUT and len(fields[1]) > 1)
]


@pytest.mark.parametrize("route,fields", ROUTE_CASES, ids=repr)
def test_every_creation_route_validates(route, fields):
    with pytest.raises(ValueError):
        ROUTES[route](*fields)


def test_kind_must_be_a_gate_kind():
    with pytest.raises(ValueError):
        Gate("cx", (0,), (1,))
    with pytest.raises(ValueError):
        Gate(None, (), (0,))


@pytest.mark.parametrize(
    "bad",
    [
        lambda: x(-1),
        lambda: cx(0, -1),
        lambda: cx(2, 2),
        lambda: ccx(0, 1, 0),
        lambda: ccx(-1, 1, 2),
        lambda: fo(0, [1, 0]),
        lambda: fo(-1, [1]),
        lambda: tg([0, 1], 1),
        lambda: tg([0, 1], -2),
    ],
)
def test_gate_helpers_validate_wires(bad):
    with pytest.raises(ValueError):
        bad()


def test_circuit_rejects_non_gates_and_out_of_range_gates():
    c = Circuit(3)
    with pytest.raises(TypeError):
        c.append((GateKind.CNOT, (0,), (1,)))
    with pytest.raises(TypeError):
        c.extend([cx(0, 1), (GateKind.CNOT, (1,), (0,))])
    with pytest.raises(ValueError):
        c.append(_forged(GateKind.CNOT, (0,), (3,)))
    with pytest.raises(ValueError):
        Circuit(3, gates=[fo(0, [1, 2, 5])])


# --- the unchecked path ------------------------------------------------------


def _assert_revalidates(*circuits):
    # Each distinct gate once: circuits of one family share most of theirs.
    for g in {g for circuit in circuits for g in circuit.gates}:
        assert type(g) is Gate
        assert Gate(g.kind, g.controls, g.targets) == g


def _valid_depths(n):
    """Every d that ``BlockParams`` accepts at width n (at least 4 blocks)."""
    return [d for d in range(2, n) if n // (1 << (d.bit_length() - 1)) >= 4]


def test_synthesized_ripple_gates_revalidate():
    _assert_revalidates(*(synth_ripple(n) for n in range(1, 65)))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_synthesized_combined_gates_revalidate(n):
    depths = _valid_depths(n)
    assert depths[0] == 2 and len(depths) == n // 2 - 2
    _assert_revalidates(*(synth_combined(BlockParams(n, d)) for d in depths))


def test_synthesized_block_gates_revalidate():
    for w in range(2, 9):
        _assert_revalidates(synth_init(w))
    for w in range(1, 9):
        _assert_revalidates(synth_sum(w))
        _assert_revalidates(synth_sum(w, with_carry_in=False))
    for n in (4, 8, 16, 32, 64, 128):
        for l in range(1, n.bit_length()):
            if n >> (l - 1) >= 4:
                _assert_revalidates(synth_carry(n, l))


@pytest.mark.parametrize("f", [1, 2, 3, 16])
def test_synthesized_fanout_gates_revalidate(f):
    for t in list(range(1, 40)) + [255, 256, 257]:
        _assert_revalidates(synth_fanout_tree(0, range(1, t + 1), f))
        _assert_revalidates(synth_fanout_tree(t, range(t), f))


@pytest.mark.parametrize(
    "call",
    [
        lambda: maj_fragment(0, 0, 1),
        lambda: maj_fragment(0, 1, -1),
        lambda: ripple_add_gates([0, 2], [1, 3], 2),
        lambda: ripple_add_gates([0, 2], [1, -3], 4),
        lambda: adder_first_half_gates([0, 2], [1, 3], 3),
        lambda: adder_first_half_gates([0, -2], [1, 3], 4),
        lambda: prefix_and_ladder_gates([0, 1, 2], [3, 3], 5),
        lambda: prefix_and_ladder_gates([0, 1, 2], [3, 4], -5),
        lambda: init_gates([0, 2], [1, 3], 4, 4),
        lambda: init_gates([0, 2], [1, 3], -4, 5),
        lambda: sum_gates([0, 2], [1, 3], carry=3),
        lambda: sum_gates([0, 2], [1, -3]),
        # m = 4 blocks allocate one scratch wire at first_scratch, here 3 = G3
        lambda: carry_gates([0, 1, 2, 3], [None, 4, 5, 6], first_scratch=3),
        lambda: carry_gates([0, 1, 2, 3], [None, 4, 5, -6], first_scratch=7),
        lambda: fanout_tree_gates(0, (1, 2, 0), 2),
        lambda: fanout_tree_gates(-1, (1, 2), 2),
        lambda: fanout_tree_gates(0, (1, 1), 1),
        lambda: fanout_tree_gates(0, (), 2),
        lambda: fanout_tree_gates(0, (1, 2), 0),
    ],
)
def test_gate_list_helpers_reject_bad_wires(call):
    with pytest.raises(ValueError):
        call()
