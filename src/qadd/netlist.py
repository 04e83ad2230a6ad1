"""Bit-exact textual netlist format.

Layout (newline-terminated, no trailing whitespace, decimal wire ids):

    qadd 1
    qubits N
    ancilla i j ...
    # role W LABEL          (zero or more, sorted by wire id)
    x q | cx c t | ccx c1 c2 t | fo s t1 ... tk | tg c1 ... ck t

Export is canonical, so equal circuits produce byte-identical documents
and ``parse_netlist(export_netlist(c)) == c``.  On input, blank lines are
ignored, and so is a comment: a line whose first token is a lone ``#``
and whose second is not ``role``, wherever it stands.  A ``#`` glued to
its text is no comment: ``#comment`` is refused as ``unknown opcode
'#comment'``, and before the ``qubits`` line as a line that precedes it.

The parser is the trust boundary for netlist text, and every error is a
``NetlistError`` at the line that caused it.  The ``qubits`` line comes
first; ``ancilla`` and ``# role`` lines follow it and precede the gates.
A role line is checked where it stands: its wire must be in range, and
its wire and its label must not repeat.  A label is one token with no
whitespace, the rule ``Circuit`` enforces.  A gate line is validated in
one pass on that line: ASCII-digit ids, the opcode's shape, pairwise
distinct operands and every id below the wire count.  Each check is made
once, there: the gates are built unchecked and the parts are adopted by
``Circuit`` as they are, with no second pass over the gates, and the parse
runs with the garbage collector paused.  Each distinct gate line is checked
once: a line whose exact text came before reuses the ``Gate`` built from
it, so repeats share one immutable ``Gate``, and a bad line raises at its
first occurrence.  Export writes CNOT, Toffoli and NOT lines with one
f-string each and the variadic kinds with one ``join``.
"""

from __future__ import annotations

from itertools import islice

from .circuit import (
    _CNOT,
    _NOT,
    _SHAPES,
    _TOFFOLI,
    WIRE_CAP,
    Circuit,
    Gate,
    _collector_paused,
    _new,
    _read_labels,
)

MAGIC = "qadd 1"

# Opcode -> (kind, cut, count), from the one gate-shape table: a gate line's
# ids split into controls ``ids[:cut]`` and targets ``ids[cut:]``.
_SPECS = {kind.value: (kind, *shape) for kind, shape in _SHAPES.items()}


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
    for w, label in sorted(circuit.role_map.items()):
        lines.append(f"# role {w} {label}")
    append = lines.append
    join = " ".join
    for kind, controls, targets in circuit.gates:
        if kind is _CNOT:
            append(f"cx {controls[0]} {targets[0]}")
        elif kind is _TOFFOLI:
            c1, c2 = controls
            append(f"ccx {c1} {c2} {targets[0]}")
        elif kind is _NOT:
            append(f"x {targets[0]}")
        else:
            append(join((kind._value_, *map(str, controls + targets))))
    return "\n".join(lines) + "\n"


def _column(line: str, index: int) -> int:
    """1-based column of token ``index`` of ``line.split()``: each token is
    found from the end of the one before it, past only whitespace."""
    tokens = line.split()
    pos = 0
    for tok in tokens[:index]:
        pos = line.index(tok, pos) + len(tok)
    return line.index(tokens[index], pos) + 1


def _int_tokens(tokens: list[str], lineno: int, line: str, first: int) -> list[int]:
    """Convert wire-id tokens, raising ``NetlistError`` at the first bad one:
    not all ASCII digits, or too long for ``int``.  ``tokens[0]`` is token
    ``first`` of ``line.split()``, which locates a bad token's column (no
    earlier token equals the first bad one, or it would have been bad)."""
    out = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            column = _column(line, first + tokens.index(tok))
            raise NetlistError(lineno, column, f"expected wire id, got {tok!r}")
        try:
            out.append(int(tok))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            column = _column(line, first + tokens.index(tok))
            raise NetlistError(lineno, column, f"wire id of {len(tok)} digits is too long") from None
    return out


@_collector_paused
def parse_netlist(text: str) -> Circuit:
    lines = text.split("\n")
    if lines[0].strip() != MAGIC:
        raise NetlistError(1, 1, f"missing format line {MAGIC!r}")

    wire_count: int | None = None
    ancilla: list[int] | None = None
    roles: dict[int, str] = {}
    labels: set[str] = set()
    gates: list[Gate] = []
    # A gate line's Gate depends only on its text and the wire count, which
    # is fixed before any gate line is accepted, so each distinct valid gate
    # line is checked once and its repeats share that Gate.
    seen: dict[str, Gate] = {}
    specs = _SPECS
    add_gate = gates.append

    for lineno, raw in enumerate(islice(lines, 1, None), start=2):
        if raw in seen:
            add_gate(seen[raw])
            continue
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "#" and tokens[1:2] != ["role"]:
            continue  # other comments are ignored

        if head == "qubits":
            if wire_count is not None:
                raise NetlistError(lineno, 1, "duplicate qubits line")
            ids = _int_tokens(tokens[1:], lineno, raw, 1)
            if len(ids) != 1 or ids[0] < 1:
                raise NetlistError(lineno, 1, "qubits line needs one positive count")
            if ids[0] > WIRE_CAP:
                raise NetlistError(lineno, 1, f"{ids[0]} qubits exceed the cap of {WIRE_CAP}")
            wire_count = ids[0]
            continue

        if wire_count is None:
            raise NetlistError(lineno, 1, "qubits line must precede everything else")

        spec = specs.get(head)
        if spec is not None:
            del tokens[0]
            digits = "".join(tokens)
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(digits)
                ids = tuple(map(int, tokens))
            except ValueError:  # a bad token, or one longer than int() reads
                _int_tokens(tokens, lineno, raw, 1)  # raises at that token
                raise NetlistError(lineno, 1, f"{head} needs wire ids") from None
            kind, cut, count = spec
            n = len(ids)
            if count is None:
                if n < 2:
                    raise NetlistError(lineno, 1, f"{head} takes at least 2 wire ids, got {n}")
            elif n != count:
                raise NetlistError(lineno, 1, f"{head} takes {count} wire ids, got {n}")
            if len(set(ids)) != n:
                raise NetlistError(lineno, 1, f"{head}: duplicate operand wire in {ids}")
            if max(ids) >= wire_count:
                w = next(w for w in ids if w >= wire_count)
                raise NetlistError(
                    lineno, 1, f"gate operand {w} out of range for {wire_count} wires"
                )
            gate = seen[raw] = _new(Gate, (kind, ids[:cut], ids[cut:]))
            add_gate(gate)
            continue

        if head == "#":  # a role line
            if gates:
                raise NetlistError(lineno, 1, "role line after gates")
            if len(tokens) != 4:
                raise NetlistError(lineno, 1, "role line must be '# role WIRE LABEL'")
            (wire,) = _int_tokens(tokens[2:3], lineno, raw, 2)
            label = tokens[3]
            if wire in roles:
                raise NetlistError(lineno, 1, f"duplicate role for wire {wire}")
            if wire >= wire_count:
                raise NetlistError(lineno, 1, f"role wire {wire} out of range")
            if label in labels:
                raise NetlistError(lineno, 1, f"duplicate role label {label!r}")
            roles[wire] = label
            labels.add(label)
            continue

        if head == "ancilla":
            if ancilla is not None:
                raise NetlistError(lineno, 1, "duplicate ancilla line")
            if gates:
                raise NetlistError(lineno, 1, "ancilla line after gates")
            ancilla = _int_tokens(tokens[1:], lineno, raw, 1)
            bad = [w for w in ancilla if w >= wire_count]
            if bad:
                raise NetlistError(lineno, 1, f"ancilla wire {bad[0]} out of range")
            if len(set(ancilla)) != len(ancilla):
                raise NetlistError(lineno, 1, "duplicate ancilla wire id")
            continue

        raise NetlistError(lineno, 1, f"unknown opcode {head!r}")

    if wire_count is None:
        raise NetlistError(len(lines), 1, "missing qubits line")
    # Every check the public Circuit constructor makes has been made above,
    # line by line: the qubits line against the cap, and every other line
    # against this wire count.  So the parts are adopted as they are.
    return Circuit._adopt(wire_count, ancilla or (), _read_labels(roles), gates)
