"""Core reversible-circuit IR: wires, gates, stats, and layout span.

A circuit is an ordered list of gates over ``wire_count`` wires, with a
declared set of ancilla wires (required to start and end in 0) and an
optional role map labeling wires (``B3``, ``A0``, ``Z``, ...).  Depth is
never stored; it is derived from the wire-sharing dependency DAG, so the
reported statistics are always consistent with the gate list.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping


class GateKind(Enum):
    """The five supported elementary gate kinds.

    Every kind permutes computational basis states and is its own inverse,
    which is what makes circuits classically simulable and reversible by
    plain gate-list reversal.
    """

    NOT = "x"
    CNOT = "cx"
    TOFFOLI = "ccx"
    FANOUT = "fo"
    GEN_TOFFOLI = "tg"


#: Largest wire count a ``Circuit`` accepts (2**22).  Statistics, layouts and
#: simulation allocate per-wire state, so a hostile netlist or CLI flag is
#: refused here instead of allocating it; a synthesizer refuses before building.
WIRE_CAP = 1 << 22

#: Gate kinds that count toward the Toffoli-weighted depth.
TOFFOLI_KINDS = frozenset((GateKind.TOFFOLI, GateKind.GEN_TOFFOLI))

# Kind -> (cut, count), read by ``Gate`` and the netlist parser: the first
# ``cut`` ids are the controls (-1 leaves one target), and ``count`` is the
# exact id count, or None for the variadic kinds, which take at least two.
_SHAPES = {
    GateKind.NOT: (0, 1),
    GateKind.CNOT: (1, 2),
    GateKind.TOFFOLI: (2, 3),
    GateKind.FANOUT: (1, None),
    GateKind.GEN_TOFFOLI: (-1, None),
}


class Gate(tuple):
    """One elementary gate: an immutable ``(kind, controls, targets)`` record.

    ``controls`` holds the control wires; for FANOUT it holds the single
    source wire.  ``targets`` is exactly one wire for every kind except
    FANOUT, where it lists the t >= 1 fan-out targets (t is the gate's
    "length").  All operand wires of one gate must be pairwise distinct.

    ``Gate(...)``, the ``x``/``cx``/``ccx``/``fo``/``tg`` helpers and
    unpickling validate the kind and the shape (``_SHAPES``), and check the
    wires by the one wire-id rule, ``_check_wires``.  A gate is a tuple, so
    readers can unpack it as ``kind, controls, targets``, and it hashes and
    compares like the plain tuple of its three fields.
    """

    __slots__ = ()
    __match_args__ = ("kind", "controls", "targets")

    def __new__(cls, kind: GateKind, controls: Iterable[int], targets: Iterable[int]) -> "Gate":
        controls = tuple(controls)
        targets = tuple(targets)
        shape = _SHAPES.get(kind)
        if shape is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        cut, count = shape
        n = len(controls) + len(targets)
        # once the count holds, n > cut >= -1, and cut % n is the control count
        if (n < 2 if count is None else n != count) or len(controls) != cut % n:
            raise ValueError(f"bad {kind.value}: {len(controls)} controls, {len(targets)} targets")
        _check_wires(controls, targets)
        return _new(cls, (kind, controls, targets))

    kind = property(itemgetter(0), doc="The gate's ``GateKind``.")
    controls = property(itemgetter(1), doc="Control wires (the source wire for FANOUT).")
    targets = property(itemgetter(2), doc="Target wires.")

    @property
    def operands(self) -> tuple[int, ...]:
        return self[1] + self[2]

    @property
    def fanout_length(self) -> int:
        """Number of fan-out targets; 0 for non-FANOUT gates."""
        return len(self[2]) if self[0] is GateKind.FANOUT else 0

    def __reduce__(self):
        # Unpickling and copying go through the validating constructor.
        return (type(self), tuple(self))

    def __repr__(self) -> str:
        return f"Gate(kind={self[0]!r}, controls={self[1]!r}, targets={self[2]!r})"


# The synthesizers build gates unchecked, through ``tuple.__new__``: a public
# builder checks its request once, up front (``_check_wires`` or a rule built
# on it, and ``_check_size``), a synthesizer also checks its wire count by
# ``_check_wire_count`` before it builds any gate, and the package calls only
# the unchecked bodies.  Every body builds only on the wire lists its caller
# planned below that wire count, and picks no id of its own: the carry tree
# takes its scratch list like any other.  Each emits only gates of the
# right shape and hands them to ``Circuit._adopt``, which checks nothing.
# ``parse_netlist`` builds and adopts its gates the same way, after checking
# each gate line where it stands.  Everything else goes through ``Gate(...)``
# and the per-gate checks of ``Circuit``.
_new = tuple.__new__
_NOT, _CNOT, _TOFFOLI, _FANOUT = GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI, GateKind.FANOUT


def _x(target: int) -> Gate:
    return _new(Gate, (_NOT, (), (target,)))


def _cx(control: int, target: int) -> Gate:
    return _new(Gate, (_CNOT, (control,), (target,)))


def _ccx(c1: int, c2: int, target: int) -> Gate:
    return _new(Gate, (_TOFFOLI, (c1, c2), (target,)))


def _fo(source: int, targets: tuple[int, ...]) -> Gate:
    return _new(Gate, (_FANOUT, (source,), targets))


def _collector_paused(build):
    """Run the bulk builder ``build`` with the cyclic garbage collector paused.

    Every gate is a new tracked container, so a large build keeps crossing
    the collector's thresholds, and each full collection walks every live
    gate.  Gates hold no cycles, so pausing frees nothing later than
    reference counting does.  The previous state is restored in ``finally``,
    also when ``build`` raises.  The state is process-wide: a thread that
    switches the collector off while another thread builds may find it
    switched back on when that build returns.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def _check_wires(*registers: Iterable[int]) -> list[int]:
    """The one rule for a caller's wire ids, for ``Gate``, ``Circuit``, the
    builders and ``verify_*``: each is an ``int`` (not a bool), non-negative,
    and all are pairwise distinct across ``registers``, as in a netlist.
    Returns the ids flattened in order; range checks are the caller's."""
    wires = list(chain.from_iterable(registers))
    if not {int}.issuperset(map(type, wires)):
        bad = next(w for w in wires if type(w) is not int)
        raise ValueError(f"wire id {bad!r} is not an int")
    if wires and min(wires) < 0:
        raise ValueError(f"negative wire id {min(wires)}")
    if len(set(wires)) != len(wires):
        raise ValueError("wire ids must be pairwise distinct")
    return wires


def _check_size(name: str, value: int, least: int) -> None:
    """The one rule for a caller's size parameter (a width, a count, a
    bound): an ``int``, not a bool, and at least ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"need an int {name} >= {least}, got {value!r}")


def _check_wire_count(wire_count: int) -> int:
    """The one rule for a circuit's wire count, which it returns: an ``int``,
    not a bool, from 1 to ``WIRE_CAP``.  ``Circuit(...)`` checks it, and each
    synthesizer checks its count before it builds a gate or a label, and
    before any wire list it plans itself."""
    if type(wire_count) is not int or not 1 <= wire_count <= WIRE_CAP:
        raise ValueError(f"wire count {wire_count!r} is not an int from 1 to the cap {WIRE_CAP}")
    return wire_count


def x(target: int) -> Gate:
    return Gate(GateKind.NOT, (), (target,))


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control,), (target,))


def ccx(c1: int, c2: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2), (target,))


def fo(source: int, targets: Iterable[int]) -> Gate:
    return Gate(GateKind.FANOUT, (source,), targets)


def tg(controls: Iterable[int], target: int) -> Gate:
    return Gate(GateKind.GEN_TOFFOLI, controls, (target,))


@dataclass(frozen=True)
class CircuitStats:
    """Exact complexity record for one circuit.

    ``depth`` treats every gate (Fanout and GenToffoli of any arity
    included) as one layer.  ``toffoli_depth`` is the maximum-weight path
    through the same dependency DAG with Toffoli-kind gates weighted 1 and
    everything else 0.
    """

    depth: int
    toffoli_depth: int
    size: int
    count_not: int
    count_cnot: int
    count_toffoli: int
    count_fanout: int
    count_gen_toffoli: int
    ancilla_count: int
    max_fanout_length: int

    @property
    def count_toffoli_like(self) -> int:
        return self.count_toffoli + self.count_gen_toffoli

    def to_json_dict(self) -> dict:
        return asdict(self)


class Circuit:
    """Ordered gate list over a fixed wire set with ancilla bookkeeping.

    Circuits are meant to be immutable once synthesis is finished;
    ``append``/``extend`` are the only mutators.  At most ``WIRE_CAP``
    wires.  ``role_map`` is always a dict, empty for a circuit without
    roles; role labels are ``str``, unique, non-empty and free of whitespace.

    Each trust boundary checks once.  ``Circuit(...)``, ``append`` and
    ``extend`` take parts from any caller, so they check every gate against
    the wire count and every ancilla wire and role label.  The wire count
    follows ``_check_wire_count``; ancilla and role wires follow
    ``_check_wires``, the one wire-id rule, so a duplicate ancilla id raises.
    The synthesizers, ``parse_netlist`` and ``inverse`` have checked their
    parts already, so they go through the private ``_adopt`` instead, which
    checks nothing, and the synthesizers and the parser run with the garbage
    collector paused.
    """

    __slots__ = ("wire_count", "ancilla", "role_map", "gates")

    def __init__(
        self,
        wire_count: int,
        ancilla: Iterable[int] = (),
        role_map: Mapping[int, str] | None = None,
        gates: Iterable[Gate] = (),
    ) -> None:
        _check_wire_count(wire_count)
        self.wire_count = wire_count
        anc = _check_wires(ancilla)
        if max(anc, default=-1) >= wire_count:
            raise ValueError(f"ancilla wire {max(anc)} out of range for {wire_count} wires")
        self.ancilla = frozenset(anc)
        top = max(_check_wires(role_map or ()), default=-1)
        if top >= wire_count:
            raise ValueError(f"role wire {top} out of range for {wire_count} wires")
        roles = dict(role_map or ())
        for label in roles.values():
            # A label is one netlist token, so it can neither inject a line
            # nor split into two tokens on export.
            if type(label) is not str or label.split() != [label]:
                raise ValueError(f"role label {label!r} is not a non-empty str without whitespace")
        if len(set(roles.values())) != len(roles):
            raise ValueError("role labels must be unique")
        self.role_map: dict[int, str] = roles
        self.gates: list[Gate] = []
        self.extend(gates)

    @classmethod
    def _adopt(
        cls, wire_count: int, ancilla: Iterable[int], role_map: dict[int, str], gates: list[Gate]
    ) -> "Circuit":
        """Parts a builder has checked, its wire count by ``_check_wire_count``,
        stored as given and checked no further: the caller hands over fresh ones."""
        self = object.__new__(cls)
        self.wire_count = wire_count
        self.ancilla = frozenset(ancilla)
        self.role_map = role_map
        self.gates = gates
        return self

    def append(self, gate: Gate) -> "Circuit":
        return self.extend((gate,))

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        wire_count = self.wire_count
        out = self.gates
        for gate in gates:
            if not isinstance(gate, Gate):
                raise TypeError(f"expected a Gate, got {type(gate).__name__}")
            for w in gate[1] + gate[2]:
                if w >= wire_count:
                    raise ValueError(f"gate operand {w} out of range for {wire_count} wires")
            out.append(gate)
        return self

    def inverse(self) -> "Circuit":
        """Reversed gate list; every supported gate is an involution."""
        return Circuit._adopt(self.wire_count, self.ancilla, dict(self.role_map), self.gates[::-1])

    def stats(self) -> CircuitStats:
        return compute_stats(self)

    def wires_by_role(self) -> dict[str, int]:
        """Invert the role map (label -> wire)."""
        return {label: w for w, label in self.role_map.items()}

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.wire_count == other.wire_count
            and self.ancilla == other.ancilla
            and self.role_map == other.role_map
            and self.gates == other.gates
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(wires={self.wire_count}, gates={len(self.gates)}, "
            f"ancilla={len(self.ancilla)})"
        )


def _register_labels(prefix: str, wires: list[int], start: int = 0) -> dict[int, str]:
    """Role labels ``{prefix}{start}``, ``{prefix}{start + 1}``, ... in wire order:
    the register the synthesizers write and ``_register_wires`` reads back."""
    return {w: f"{prefix}{i}" for i, w in enumerate(wires, start)}


def _register_wires(by_role: dict[str, int], prefix: str, start: int = 0) -> list[int]:
    """Wires labelled ``{prefix}{start}``, ``{prefix}{start + 1}``, ... up to
    the first gap.  A label of the register past the gap (``prefix``, then
    ASCII digits, at an index >= ``start``) raises ``KeyError`` naming the
    missing label, rather than being passed through unchanged.  Indices are
    compared as digit strings, so a label of any length is read."""
    out = []
    i = start
    while f"{prefix}{i}" in by_role:
        out.append(by_role[f"{prefix}{i}"])
        i += 1
    gap = str(i)
    for label in by_role:
        digits = label[len(prefix) :].lstrip("0")
        if label.startswith(prefix) and digits.isascii() and digits.isdigit():
            if (len(digits), digits) > (len(gap), gap):
                raise KeyError(f"{prefix}{i}")
    return out


def _operands(by_role: dict[str, int]) -> tuple[list[int], list[int]]:
    """The B and A registers of an adder or a block, which must be equally
    wide: ``KeyError`` names the first label the narrower one lacks."""
    b, a = _register_wires(by_role, "B"), _register_wires(by_role, "A")
    if len(b) != len(a):
        raise KeyError(f"A{len(a)}" if len(a) < len(b) else f"B{len(b)}")
    return b, a


def build_circuit(wire_count: int, ancilla: Iterable[int] = ()) -> Circuit:
    """Empty circuit over ``wire_count`` wires with the given ancilla set."""
    return Circuit(wire_count, ancilla)


def compute_stats(circuit: Circuit) -> CircuitStats:
    """Depth, Toffoli-weighted depth, and exact gate counts.

    A gate depends on the most recent earlier gate touching any of its
    operand wires; inputs have depth 0 and every gate adds one layer.

    CNOT and Toffoli, which make up nearly every adder gate, take a direct
    branch that reads their two or three wires by name; NOT, FANOUT and
    GEN_TOFFOLI share the generic loop over ``controls + targets``.
    """
    depth_at = [0] * circuit.wire_count
    tdepth_at = [0] * circuit.wire_count
    n_not = n_cnot = n_toffoli = n_fanout = n_gen = 0
    max_fanout = 0
    for kind, controls, targets in circuit.gates:
        if kind is _CNOT:
            n_cnot += 1
            c = controls[0]
            t = targets[0]
            d = depth_at[c]
            e = depth_at[t]
            if e > d:
                d = e
            td = tdepth_at[c]
            e = tdepth_at[t]
            if e > td:
                td = e
            depth_at[c] = depth_at[t] = d + 1
            tdepth_at[c] = tdepth_at[t] = td
        elif kind is _TOFFOLI:
            n_toffoli += 1
            c1, c2 = controls
            t = targets[0]
            d = depth_at[c1]
            e = depth_at[c2]
            if e > d:
                d = e
            e = depth_at[t]
            if e > d:
                d = e
            td = tdepth_at[c1]
            e = tdepth_at[c2]
            if e > td:
                td = e
            e = tdepth_at[t]
            if e > td:
                td = e
            depth_at[c1] = depth_at[c2] = depth_at[t] = d + 1
            tdepth_at[c1] = tdepth_at[c2] = tdepth_at[t] = td + 1
        else:
            ops = controls + targets
            d = 0
            td = 0
            for w in ops:
                if depth_at[w] > d:
                    d = depth_at[w]
                if tdepth_at[w] > td:
                    td = tdepth_at[w]
            d += 1
            if kind is _NOT:
                n_not += 1
            elif kind is _FANOUT:
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


def max_window_span(circuit: Circuit, layout: Mapping[int, int]) -> int:
    """Largest distance any single gate spans under a line layout.

    ``layout`` must map every wire, and nothing else, to a distinct
    non-negative line position; wires and positions are ``int``.  Returns max over gates of (max operand
    position - min operand position); 0 for an empty circuit.
    """
    wire_count = circuit.wire_count
    positions = dict(layout)
    if {*map(type, positions), *map(type, positions.values())} - {int}:
        bad = next(v for item in positions.items() for v in item if type(v) is not int)
        raise ValueError(f"layout entry {bad!r} is not an int")
    try:
        pos = [positions[w] for w in range(wire_count)]
    except KeyError:
        missing = [w for w in range(wire_count) if w not in positions]
        raise ValueError(f"layout missing wires {missing}") from None
    if len(positions) != wire_count:
        extra = sorted(w for w in positions if not 0 <= w < wire_count)
        raise ValueError(f"layout wires {extra} out of range for {wire_count} wires")
    if len(set(pos)) != wire_count:
        raise ValueError("layout positions must be distinct")
    if min(pos) < 0:
        raise ValueError("layout positions must be non-negative")
    span = 0
    for kind, controls, targets in circuit.gates:
        if kind is _CNOT:
            s = abs(pos[controls[0]] - pos[targets[0]])
        elif kind is _TOFFOLI:
            c1, c2 = controls
            lo = pos[c1]
            hi = pos[c2]
            if lo > hi:
                lo, hi = hi, lo
            p = pos[targets[0]]
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
            s = hi - lo
        else:
            ops = [pos[w] for w in controls + targets]
            s = max(ops) - min(ops)
        if s > span:
            span = s
    return span
