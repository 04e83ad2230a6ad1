"""Bit-exact textual netlist format.

Layout (newline-terminated, no trailing whitespace, decimal wire ids):

    qadd 1
    qubits N
    ancilla i j ...
    # role W LABEL          (zero or more, sorted by wire id)
    x q | cx c t | ccx c1 c2 t | fo s t1 ... tk | tg c1 ... ck t

Export is canonical, so equal circuits produce byte-identical documents
and ``parse_netlist(export_netlist(c)) == c``.  Other ``#`` lines and
blank lines are ignored on input.
"""

from __future__ import annotations

from .circuit import WIRE_CAP, Circuit, Gate, GateKind

MAGIC = "qadd 1"

_OPCODES = {kind.value: kind for kind in GateKind}


class NetlistError(ValueError):
    """Parse failure with 1-based line/column position."""

    def __init__(self, line: int, column: int, reason: str) -> None:
        super().__init__(f"line {line}, col {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


def export_netlist(circuit: Circuit) -> str:
    lines = [MAGIC, f"qubits {circuit.wire_count}"]
    anc = " ".join(str(w) for w in sorted(circuit.ancilla))
    lines.append(f"ancilla {anc}".rstrip())
    if circuit.role_map:
        for w in sorted(circuit.role_map):
            lines.append(f"# role {w} {circuit.role_map[w]}")
    for kind, controls, targets in circuit.gates:
        ids = " ".join(str(w) for w in controls + targets)
        lines.append(f"{kind.value} {ids}")
    return "\n".join(lines) + "\n"


def _gate_from_tokens(kind: GateKind, ids: list[int]) -> Gate:
    if kind is GateKind.FANOUT:
        return Gate(kind, (ids[0],), tuple(ids[1:]))
    if kind is GateKind.GEN_TOFFOLI:
        return Gate(kind, tuple(ids[:-1]), (ids[-1],))
    n_controls = {GateKind.NOT: 0, GateKind.CNOT: 1, GateKind.TOFFOLI: 2}[kind]
    if len(ids) != n_controls + 1:
        raise ValueError(f"{kind.value} takes {n_controls + 1} wire ids, got {len(ids)}")
    return Gate(kind, tuple(ids[:n_controls]), (ids[n_controls],))


def _int_tokens(tokens: list[str], lineno: int, line: str) -> list[int]:
    out = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise NetlistError(lineno, line.index(tok) + 1, f"expected wire id, got {tok!r}")
        out.append(int(tok))
    return out


def parse_netlist(text: str) -> Circuit:
    lines = text.split("\n")
    if not lines or lines[0].strip() != MAGIC:
        raise NetlistError(1, 1, f"missing format line {MAGIC!r}")

    wire_count: int | None = None
    ancilla: list[int] = []
    roles: dict[int, str] = {}
    circuit: Circuit | None = None
    seen_ancilla = False

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "#":
            if len(tokens) >= 2 and tokens[1] == "role":
                if circuit is not None:
                    raise NetlistError(lineno, 1, "role line after gates")
                if len(tokens) != 4:
                    raise NetlistError(lineno, 1, "role line must be '# role WIRE LABEL'")
                (wire,) = _int_tokens(tokens[2:3], lineno, raw)
                if wire in roles:
                    raise NetlistError(lineno, 1, f"duplicate role for wire {wire}")
                roles[wire] = tokens[3]
            continue  # other comments are ignored

        if head == "qubits":
            if wire_count is not None:
                raise NetlistError(lineno, 1, "duplicate qubits line")
            ids = _int_tokens(tokens[1:], lineno, raw)
            if len(ids) != 1 or ids[0] < 1:
                raise NetlistError(lineno, 1, "qubits line needs one positive count")
            if ids[0] > WIRE_CAP:
                raise NetlistError(lineno, 1, f"{ids[0]} qubits exceed the cap of {WIRE_CAP}")
            wire_count = ids[0]
            continue

        if wire_count is None:
            raise NetlistError(lineno, 1, "qubits line must precede everything else")

        if head == "ancilla":
            if seen_ancilla:
                raise NetlistError(lineno, 1, "duplicate ancilla line")
            if circuit is not None:
                raise NetlistError(lineno, 1, "ancilla line after gates")
            seen_ancilla = True
            ancilla = _int_tokens(tokens[1:], lineno, raw)
            bad = [w for w in ancilla if w >= wire_count]
            if bad:
                raise NetlistError(lineno, 1, f"ancilla wire {bad[0]} out of range")
            if len(set(ancilla)) != len(ancilla):
                raise NetlistError(lineno, 1, "duplicate ancilla wire id")
            continue

        if head not in _OPCODES:
            raise NetlistError(lineno, 1, f"unknown opcode {head!r}")
        if circuit is None:
            try:
                circuit = Circuit(wire_count, ancilla, roles or None)
            except ValueError as err:
                raise NetlistError(lineno, 1, str(err)) from err
        ids = _int_tokens(tokens[1:], lineno, raw)
        if not ids:
            raise NetlistError(lineno, 1, f"{head} needs wire ids")
        try:
            circuit.append(_gate_from_tokens(_OPCODES[head], ids))
        except ValueError as err:
            raise NetlistError(lineno, 1, str(err)) from err

    if wire_count is None:
        raise NetlistError(len(lines), 1, "missing qubits line")
    if circuit is None:
        try:
            circuit = Circuit(wire_count, ancilla, roles or None)
        except ValueError as err:
            raise NetlistError(len(lines), 1, str(err)) from err
    return circuit
