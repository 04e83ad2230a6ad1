"""One wire-id rule: a caller's wire id is an ``int`` (not a bool), non-negative
and distinct from the other ids it comes with, wherever it enters.

``Gate``, ``Circuit``, every gate-list builder, ``synth_fanout_tree``,
``fanout_oracle`` and the ``free_wires=`` of ``verify_*`` reject any other id with ``ValueError``, so
``Circuit(...)`` accepts exactly the ids a netlist line can hold.  An id
like ``1.0`` or ``True`` used to be accepted and exported as a line the
parser rejects, or truncated to another wire.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qadd
from qadd import (
    Circuit,
    Gate,
    GateKind,
    adder_first_half_gates,
    carry_gates,
    ccx,
    cx,
    export_netlist,
    fo,
    init_gates,
    maj_fragment,
    parse_netlist,
    prefix_and_ladder_gates,
    ripple_add_gates,
    sum_gates,
    synth_fanout_tree,
    synth_ripple,
    tg,
    verify_exhaustive,
    verify_random,
    x,
)
from qadd.fanout import fanout_tree_gates
from qadd.oracles import adder_oracle, fanout_oracle

# Wire ids that are not ints.  None of them equals 0 or a wire the calls
# below use besides, so a rule that only looked for duplicates or negative
# values would let each one through.
BAD_IDS = [1.0, 0.5, True, "1", None]

RIPPLE_2 = synth_ripple(2)
RIPPLE_2_ORACLE = adder_oracle(RIPPLE_2)[1]
FANOUT_4 = synth_fanout_tree(0, [1, 2, 3, 4], 2)

# Each entry takes the bad id and passes it as one wire id; the other wires
# are distinct ints above 1, so the call is valid with the int 1 in its place.
CALLS = {
    "Gate": lambda v: Gate(GateKind.CNOT, (v,), (2,)),
    "Gate-target": lambda v: Gate(GateKind.FANOUT, (2,), (3, v)),
    "x": lambda v: x(v),
    "cx": lambda v: cx(2, v),
    "ccx": lambda v: ccx(v, 2, 3),
    "fo": lambda v: fo(v, [2, 3]),
    "tg": lambda v: tg([2, v, 3], 4),
    "Circuit-wire-count": lambda v: Circuit(v),
    "Circuit-ancilla": lambda v: Circuit(4, ancilla=[2, v]),
    "Circuit-role-map": lambda v: Circuit(4, role_map={2: "B0", v: "A0"}),
    "maj_fragment": lambda v: maj_fragment(2, 3, v),
    "ripple_add_gates-b": lambda v: ripple_add_gates([2, v], [3, 4], 5),
    "ripple_add_gates-z": lambda v: ripple_add_gates([2, 3], [4, 5], v),
    "adder_first_half_gates": lambda v: adder_first_half_gates([2, 3], [4, v], 5),
    "prefix_and_ladder_gates": lambda v: prefix_and_ladder_gates([2, 3, 4], [5, v], 6),
    "init_gates-a": lambda v: init_gates([2, 3], [v, 4], 5, 6),
    "init_gates-p": lambda v: init_gates([2, 3], [4, 5], 6, v),
    "sum_gates": lambda v: sum_gates([2, v], [3, 4]),
    "carry_gates-g": lambda v: carry_gates([2, 3, v, 4], [None, 5, 6, 7], 8),
    "carry_gates-p": lambda v: carry_gates([2, 3, 4, 5], [None, 6, v, 7], 8),
    "carry_gates-scratch": lambda v: carry_gates([2, 3, 4, 5], [None, 6, 7, 8], v),
    "fanout_tree_gates": lambda v: fanout_tree_gates(2, [3, v, 4], 2),
    "synth_fanout_tree-source": lambda v: synth_fanout_tree(v, [2, 3, 4], 2),
    "synth_fanout_tree-target": lambda v: synth_fanout_tree(2, [3, v, 4], 2),
    "fanout_oracle-source": lambda v: fanout_oracle(FANOUT_4, v, [2, 3]),
    "fanout_oracle-target": lambda v: fanout_oracle(FANOUT_4, 2, [3, v, 4]),
    "verify_exhaustive": lambda v: verify_exhaustive(
        RIPPLE_2, packed_oracle=RIPPLE_2_ORACLE, free_wires=[2, v]
    ),
    "verify_random": lambda v: verify_random(
        RIPPLE_2, packed_oracle=RIPPLE_2_ORACLE, trials=8, free_wires=[v, 3]
    ),
}


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_every_entry_point_rejects_a_wire_id_that_is_not_an_int(call, bad):
    with pytest.raises(ValueError, match=f"{bad!r} is not an int"):
        call(bad)


def test_sum_gates_carry_must_be_an_int():
    # None is the carry wire's "no carry-in", so it is left out of the matrix.
    for bad in (1.0, 0.5, True, "1"):
        with pytest.raises(ValueError, match="is not an int"):
            sum_gates([2, 3], [4, 5], bad)


def test_circuit_rejects_a_duplicate_ancilla_id():
    # The parser rejects "ancilla 1 1" too.
    with pytest.raises(ValueError, match="pairwise distinct"):
        Circuit(4, ancilla=[1, 1])


def test_wire_count_errors_name_the_wire_count_and_the_cap():
    for bad in (0, -1, 2.7, True, "4"):
        with pytest.raises(ValueError, match=f"wire count {bad!r} .*cap"):
            Circuit(bad)


def test_synth_fanout_tree_takes_a_one_shot_iterator():
    # The targets are read once, by the wire-id rule, then used twice.
    assert synth_fanout_tree(5, iter([1, 2, 3]), 2).wire_count == 6


def test_every_entry_point_reads_at_most_the_cap_plus_one_wire_ids():
    # More than WIRE_CAP distinct ids cannot all be wires of one circuit, so
    # the one rule reads WIRE_CAP + 1 of them and refuses.  Each request is
    # about 4 M ids; a subprocess keeps them out of this process, whose peak
    # a forked child's ru_maxrss would include.
    code = (
        "import qadd\n"
        "from qadd import WIRE_CAP, Circuit, fo, tg, verify_exhaustive, verify_random\n"
        "from qadd.fanout import fanout_tree_gates\n"
        "from qadd.oracles import fanout_oracle\n"
        "def ids():\n"
        "    yield from range(1, WIRE_CAP + 2)\n"
        "    raise AssertionError('read wire id WIRE_CAP + 2')\n"
        "def same(cols, n_cases):\n"
        "    return cols\n"
        "calls = [\n"
        "    'Circuit(3, ancilla=ids())',\n"
        "    'verify_random(Circuit(3), packed_oracle=same, free_wires=ids())',\n"
        "    'verify_exhaustive(Circuit(3), packed_oracle=same, free_wires=ids())',\n"
        "    'fanout_tree_gates(0, ids(), 2)',\n"
        "    'fanout_oracle(Circuit(3), 0, ids())',\n"
        "    'fo(0, ids())',\n"
        "    'tg(ids(), 0)',\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        eval(call)\n"
        "    except ValueError as err:\n"
        "        assert f'cap {WIRE_CAP}' in str(err), (call, err)\n"
        "    else:\n"
        "        raise SystemExit(f'{call} was not refused')\n"
    )
    src = str(Path(qadd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr


# --- Circuit(...) accepts exactly what round-trips through a netlist ------

_ARITY = {
    GateKind.NOT: (0, 0, 1, 1),
    GateKind.CNOT: (1, 1, 1, 1),
    GateKind.TOFFOLI: (2, 2, 1, 1),
    GateKind.FANOUT: (1, 1, 1, 3),
    GateKind.GEN_TOFFOLI: (1, 3, 1, 1),
}


@st.composite
def _parts(draw):
    """Valid circuit parts as registers of int ids: ``[wire_count]``, the
    ancilla, the role-map wires, then each gate's controls and targets."""
    n = draw(st.integers(1, 8))
    wire = st.integers(0, n - 1)
    regs = [[n], draw(st.lists(wire, unique=True, max_size=3))]
    regs.append(draw(st.lists(wire, unique=True, max_size=3)))
    kinds = []
    for kind in draw(st.lists(st.sampled_from(list(GateKind)), max_size=5)):
        lo_c, hi_c, lo_t, hi_t = _ARITY[kind]
        n_c = draw(st.integers(lo_c, hi_c))
        n_t = draw(st.integers(lo_t, hi_t))
        if n_c + n_t > n:
            continue
        ops = draw(st.permutations(range(n)))[: n_c + n_t]
        kinds.append(kind)
        regs += [ops[:n_c], ops[n_c:]]
    return regs, kinds


def _build(regs, kinds):
    gates = [Gate(kind, regs[3 + 2 * i], regs[4 + 2 * i]) for i, kind in enumerate(kinds)]
    roles = {w: f"R{j}" for j, w in enumerate(regs[2])}
    return Circuit(regs[0][0], regs[1], roles, gates)


@settings(max_examples=300, deadline=None)
@given(_parts(), st.data())
def test_accepted_circuits_round_trip_and_non_int_ids_never_reach_export(parts, data):
    regs, kinds = parts
    c = _build(regs, kinds)
    assert parse_netlist(export_netlist(c)) == c
    # The same parts with one id swapped for an equal float or bool.
    spots = [(r, i) for r, reg in enumerate(regs) for i in range(len(reg))]
    r, i = data.draw(st.sampled_from(spots))
    w = regs[r][i]
    as_bool = data.draw(st.booleans()) and w <= 1
    tainted = [list(reg) for reg in regs]
    tainted[r][i] = bool(w) if as_bool else float(w)
    with pytest.raises(ValueError, match="is not an int"):
        _build(tainted, kinds)
