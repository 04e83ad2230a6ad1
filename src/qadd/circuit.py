"""Core reversible-circuit IR: wires, gates, stats, and layout span.

A circuit is an ordered list of gates over ``wire_count`` wires, with a
declared set of ancilla wires (required to start and end in 0) and an
optional role map labeling wires (``B3``, ``A0``, ``Z``, ...).  Depth is
never stored; it is derived from the wire-sharing dependency DAG, so the
reported statistics are always consistent with the gate list.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
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
#: refused here instead of allocating it.
WIRE_CAP = 1 << 22

#: Gate kinds that count toward the Toffoli-weighted depth.
TOFFOLI_KINDS = frozenset((GateKind.TOFFOLI, GateKind.GEN_TOFFOLI))

# (min controls, max controls or None, min targets, max targets or None)
_ARITY = {
    GateKind.NOT: (0, 0, 1, 1),
    GateKind.CNOT: (1, 1, 1, 1),
    GateKind.TOFFOLI: (2, 2, 1, 1),
    GateKind.FANOUT: (1, 1, 1, None),
    GateKind.GEN_TOFFOLI: (1, None, 1, 1),
}


class Gate(tuple):
    """One elementary gate: an immutable ``(kind, controls, targets)`` record.

    ``controls`` holds the control wires; for FANOUT it holds the single
    source wire.  ``targets`` is exactly one wire for every kind except
    FANOUT, where it lists the t >= 1 fan-out targets (t is the gate's
    "length").  All operand wires of one gate must be pairwise distinct.

    ``Gate(...)``, the ``x``/``cx``/``ccx``/``fo``/``tg`` helpers and
    unpickling validate the kind, the arity and the wires.  A gate is a
    tuple, so readers can unpack it as ``kind, controls, targets``, and it
    hashes and compares like the plain tuple of its three fields.
    """

    __slots__ = ()
    __match_args__ = ("kind", "controls", "targets")

    def __new__(cls, kind: GateKind, controls: Iterable[int], targets: Iterable[int]) -> "Gate":
        controls = tuple(controls)
        targets = tuple(targets)
        arity = _ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        lo_c, hi_c, lo_t, hi_t = arity
        if len(controls) < lo_c or (hi_c is not None and len(controls) > hi_c):
            raise ValueError(f"{kind.value}: bad control count {len(controls)}")
        if len(targets) < lo_t or (hi_t is not None and len(targets) > hi_t):
            raise ValueError(f"{kind.value}: bad target count {len(targets)}")
        ops = controls + targets
        if any(w < 0 for w in ops):
            raise ValueError(f"{kind.value}: negative wire id in {ops}")
        if len(set(ops)) != len(ops):
            raise ValueError(f"{kind.value}: duplicate operand wire in {ops}")
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


# The synthesizers build gates unchecked, through ``tuple.__new__``: they
# check the wires they are given once, up front (``_check_wires``), and emit
# only gates of the right arity.  ``parse_netlist`` does too, after checking
# each gate line itself.  Everything else goes through ``Gate(...)``.
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


def _check_wires(*registers: Iterable[int]) -> None:
    """Reject caller-supplied wire ids that are negative or not pairwise
    distinct across all ``registers``."""
    wires = [w for register in registers for w in register]
    if wires and min(wires) < 0:
        raise ValueError(f"negative wire id {min(wires)}")
    if len(set(wires)) != len(wires):
        raise ValueError("wire ids must be pairwise distinct")


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
    ``append``/``extend`` are the only mutators and validate every gate
    against the wire count.  At most ``WIRE_CAP`` wires.  Role labels are
    unique, non-empty and free of whitespace.
    """

    __slots__ = ("wire_count", "ancilla", "role_map", "gates")

    def __init__(
        self,
        wire_count: int,
        ancilla: Iterable[int] = (),
        role_map: Mapping[int, str] | None = None,
        gates: Iterable[Gate] = (),
    ) -> None:
        if wire_count <= 0:
            raise ValueError(f"wire_count must be positive, got {wire_count}")
        if wire_count > WIRE_CAP:
            raise ValueError(f"wire_count {wire_count} exceeds the cap of {WIRE_CAP}")
        self.wire_count = int(wire_count)
        anc = frozenset(int(w) for w in ancilla)
        for w in anc:
            if not 0 <= w < wire_count:
                raise ValueError(f"ancilla wire {w} out of range for {wire_count} wires")
        self.ancilla = anc
        if role_map is not None:
            roles = {int(w): str(label) for w, label in role_map.items()}
            for w, label in roles.items():
                if not 0 <= w < wire_count:
                    raise ValueError(f"role wire {w} out of range")
                # A label is one netlist token, so it can neither inject a
                # line nor split into two tokens on export.
                if label.split() != [label]:
                    raise ValueError(f"role label {label!r} is empty or has whitespace")
            if len(set(roles.values())) != len(roles):
                raise ValueError("role labels must be unique")
            self.role_map: dict[int, str] | None = roles
        else:
            self.role_map = None
        self.gates: list[Gate] = []
        self.extend(gates)

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
        return Circuit(self.wire_count, self.ancilla, self.role_map, reversed(self.gates))

    def stats(self) -> CircuitStats:
        return compute_stats(self)

    def wires_by_role(self) -> dict[str, int]:
        """Invert the role map (label -> wire)."""
        if self.role_map is None:
            return {}
        return {label: w for w, label in self.role_map.items()}

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.wire_count == other.wire_count
            and self.ancilla == other.ancilla
            and (self.role_map or {}) == (other.role_map or {})
            and self.gates == other.gates
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(wires={self.wire_count}, gates={len(self.gates)}, "
            f"ancilla={len(self.ancilla)})"
        )


def build_circuit(wire_count: int, ancilla: Iterable[int] = ()) -> Circuit:
    """Empty circuit over ``wire_count`` wires with the given ancilla set."""
    return Circuit(wire_count, ancilla)


def compute_stats(circuit: Circuit) -> CircuitStats:
    """Depth, Toffoli-weighted depth, and exact gate counts.

    A gate depends on the most recent earlier gate touching any of its
    operand wires; inputs have depth 0 and every gate adds one layer.
    """
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


def max_window_span(circuit: Circuit, layout: Mapping[int, int]) -> int:
    """Largest distance any single gate spans under a line layout.

    ``layout`` must map every wire to a distinct non-negative line
    position.  Returns max over gates of (max operand position - min
    operand position); 0 for an empty circuit.
    """
    positions = {int(w): int(p) for w, p in layout.items()}
    missing = [w for w in range(circuit.wire_count) if w not in positions]
    if missing:
        raise ValueError(f"layout missing wires {missing}")
    if len(set(positions.values())) != circuit.wire_count:
        raise ValueError("layout positions must be distinct")
    if any(p < 0 for p in positions.values()):
        raise ValueError("layout positions must be non-negative")
    pos = [positions[w] for w in range(circuit.wire_count)]
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
