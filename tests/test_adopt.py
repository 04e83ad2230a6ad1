"""The one-check trust boundary: circuits that the synthesizers, the netlist
parser and ``inverse`` adopt unchecked are exactly the circuits the public,
fully checked constructor builds from the same parts, and the bulk builders
pause the garbage collector without leaking that state."""

import gc

import pytest
from hypothesis import given, settings

from qadd import (
    WIRE_CAP,
    BlockParams,
    Circuit,
    NetlistError,
    combined_step_gates,
    cx,
    export_netlist,
    parse_netlist,
    ripple_add_gates,
    synth_carry,
    synth_combined,
    synth_fanout_tree,
    synth_init,
    synth_ripple,
    synth_sum,
)
from qadd.blocked import combined_wire_plan
from qadd.circuit import _check_wire_count
from qadd.ripple import ripple_wires
from test_gate import _valid_depths
from test_properties import circuits


def _assert_public_rebuild(*adopted):
    for c in adopted:
        rebuilt = Circuit(c.wire_count, c.ancilla, c.role_map, c.gates)
        assert rebuilt == c
        assert type(c.wire_count) is int and type(c.ancilla) is frozenset
        assert type(c.gates) is list
        assert type(c.role_map) is dict


def test_adopted_ripple_rebuilds_publicly():
    _assert_public_rebuild(*(synth_ripple(n) for n in range(1, 65)))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_adopted_combined_rebuilds_publicly(n):
    _assert_public_rebuild(*(synth_combined(BlockParams(n, d)) for d in _valid_depths(n)))


def test_adopted_block_circuits_rebuild_publicly():
    _assert_public_rebuild(*(synth_init(w) for w in range(2, 9)))
    for w in range(1, 9):
        _assert_public_rebuild(synth_sum(w), synth_sum(w, with_carry_in=False))
    for n in (4, 8, 16, 32, 64, 128):
        for l in range(1, n.bit_length()):
            if n >> (l - 1) >= 4:
                _assert_public_rebuild(synth_carry(n, l))


@pytest.mark.parametrize("f", [1, 2, 3, 16])
def test_adopted_fanout_trees_rebuild_publicly(f):
    for t in list(range(1, 40)) + [255, 256, 257]:
        _assert_public_rebuild(
            synth_fanout_tree(0, range(1, t + 1), f), synth_fanout_tree(t, range(t), f)
        )


def test_adopted_parse_and_inverse_rebuild_publicly():
    for c in (
        synth_ripple(9),
        synth_combined(BlockParams(16, 2)),
        synth_fanout_tree(3, range(3), 2),
    ):
        _assert_public_rebuild(parse_netlist(export_netlist(c)), c.inverse())


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_inverse_matches_the_public_constructor(circuit):
    inv = circuit.inverse()
    assert inv == Circuit(
        circuit.wire_count, circuit.ancilla, circuit.role_map, reversed(circuit.gates)
    )
    assert inv.gates is not circuit.gates
    assert inv.role_map is not circuit.role_map
    _assert_public_rebuild(inv)


@pytest.mark.parametrize("wire_count", [0, WIRE_CAP + 1])
def test_wire_count_rule_checks_the_wire_cap(wire_count):
    with pytest.raises(ValueError, match=f"cap {WIRE_CAP}"):
        _check_wire_count(wire_count)


def test_adopt_accepts_the_largest_in_range_wire():
    _check_wire_count(WIRE_CAP)
    c = Circuit._adopt(WIRE_CAP, (), {}, [cx(0, WIRE_CAP - 1)])
    assert c == Circuit(WIRE_CAP, gates=[cx(0, WIRE_CAP - 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: synth_fanout_tree(0, [WIRE_CAP], 2),
        lambda: synth_fanout_tree(WIRE_CAP, [0, 1, 2], 2),
        lambda: synth_fanout_tree(0, [1, WIRE_CAP + 5], 1),
        lambda: synth_fanout_tree(-1, [0, 1], 2),
        lambda: synth_fanout_tree(0, [1, 1], 2),
        lambda: ripple_add_gates([0, 2], [1, -1], 4),
        lambda: ripple_add_gates([0, 2], [1, 3], 0),
        lambda: ripple_add_gates([0, 2], [2, 3], 4),
    ],
)
def test_out_of_range_synthesizer_requests_still_raise(call):
    with pytest.raises(ValueError):
        call()


def _building(*args):
    raise AssertionError("built before the wire count was checked")


def test_over_cap_synthesis_is_refused_before_building(monkeypatch):
    # Every body that builds a wire list, a label or a gate raises, so each
    # request below is refused by its wire count alone, without allocating.
    step_gates = combined_step_gates  # the original: synth_combined calls the patched one
    for name in (
        "ripple.ripple_wires",
        "ripple.ripple_roles",
        "ripple._ripple_add",
        "blocked.ripple_wires",
        "blocked.ripple_roles",
        "blocked._init",
        "blocked._sum",
        "blocked._carry",
        "blocked.combined_step_gates",
    ):
        monkeypatch.setattr(f"qadd.{name}", _building)
    over_cap = [
        lambda: synth_ripple(2**21),
        lambda: synth_ripple(10**18),
        lambda: synth_init(2**21),
        lambda: synth_init(10**18),
        lambda: synth_sum(2**21),
        lambda: synth_sum(2**21 + 1, with_carry_in=False),
        lambda: synth_sum(10**18),
        lambda: synth_carry(2**21, 1),
        lambda: synth_carry(2**60, 1),
        lambda: synth_combined(BlockParams(2**21, 2)),
        lambda: synth_combined(BlockParams(2**60, 2)),
        lambda: combined_wire_plan(BlockParams(2**21, 2)),
        lambda: step_gates(BlockParams(2**60, 2)),
        lambda: synth_fanout_tree(0, [WIRE_CAP], 2),
        lambda: synth_fanout_tree(10**18, [0], 2),
    ]
    for call in over_cap:
        with pytest.raises(ValueError, match=f"cap {WIRE_CAP}"):
            call()
    # One size below the cap passes the check and goes on to build.
    for call in (lambda: synth_ripple(2**21 - 1), lambda: synth_init(2**21 - 1)):
        with pytest.raises(AssertionError, match="built before"):
            call()


BAD_NETLIST = "qadd 1\nqubits 2\ncx 0 5\n"


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_bulk_builders_restore_the_collector_state(enabled):
    was_enabled = gc.isenabled()
    try:
        _set_collector(enabled)
        synth_ripple(64)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            synth_ripple(0)
        assert gc.isenabled() is enabled
        with pytest.raises(NetlistError):
            parse_netlist(BAD_NETLIST)
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was_enabled)


def _collections_during(build):
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        build()
        return len(starts)
    finally:
        gc.callbacks.remove(count)


def test_no_collection_runs_inside_a_bulk_build():
    text = export_netlist(synth_combined(BlockParams(256, 2)))
    b, a, z = ripple_wires(1024)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        # The bare gate-list builder is not paused and crosses the thresholds.
        assert _collections_during(lambda: ripple_add_gates(b, a, z)) > 1
        # A paused build allows at most the one collection that the first
        # allocation after it may start.
        for build in (
            lambda: synth_ripple(1024),
            lambda: synth_combined(BlockParams(1024, 4)),
            lambda: parse_netlist(text),
        ):
            assert _collections_during(build) <= 1
    finally:
        _set_collector(was_enabled)
