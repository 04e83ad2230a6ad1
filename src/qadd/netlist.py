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
runs with the garbage collector paused.

The header is read line by line up to the first gate line.  From there on
a line can only be a gate, a blank line or a comment, or an error, and
which it is depends on its text alone.  So the body's distinct lines are
collected in C (``dict.fromkeys``) and each is checked once, in order of
first occurrence, which makes a bad line raise at its first occurrence;
its line number is looked up only then.  The gates are then laid out in
C from that table, so repeats share one immutable ``Gate`` and a repeated
line costs no Python bytecode.

Each direction has one name table, chosen by the same rule: it lists
every wire only when the document has at least one line per wire, so it
never outweighs those lines, and a wide circuit with few lines stays
small.  Export writes every wire id from it, so each id's decimal text is
made once per call, not once per occurrence; below the rule it is a dict
that names each id on first use, so an export costs O(ids written), not
O(wire count).  The parse reads a distinct gate line's ids through the
inverse table, from each wire's decimal text to its id, which exists when
the body has at least as many distinct lines as there are wires.  Through
the table, a ``cx``, ``ccx`` or ``x`` line, the three shapes export writes
with one f-string each, takes a direct branch: its ids are looked up and
tested pairwise distinct, and its gate is built.  Every other line, every
miss (a token the table lacks, such as a bad token, ``007`` or an id out
of range, a duplicate operand or another arity) and every line below the
rule takes the one checked path, so an error is named in one place only.
Every distinct gate line of the benchmark's adders takes the branch: in
process, ripple n = 4093 parsed in 27.6 ms instead of 38.4 and combined
(4096, 12) in 52.2 ms instead of 69.3.  Role lines are written straight
from the circuit's registers, one string per wire, in wire order.  CNOT,
Toffoli and NOT lines are one f-string each and the variadic kinds one
``join``.
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


class _Names(dict):
    """Wire id -> its decimal text, made on first use: the name table of an
    export that writes fewer lines than the circuit has wires."""

    def __missing__(self, wire: int) -> str:
        name = self[wire] = str(wire)
        return name


def export_netlist(circuit: Circuit) -> str:
    wire_count = circuit.wire_count
    gates = circuit.gates
    registers, named = circuit._roles
    role_count = len(named) + sum(map(len, registers.values()))  # one label per wire
    ancilla = sorted(circuit.ancilla)
    # A list index is faster than a dict lookup (a dict alone made the
    # adders' round trip about 20 % slower), but a list of every wire's name
    # is built only when the export writes at least one line per wire: each
    # line is a string no smaller than a name, so the list never outweighs
    # the lines the export holds anyway.  A wide circuit with fewer lines
    # names just the wires it writes.
    if wire_count <= len(gates) + role_count:
        names = list(map(str, range(wire_count)))
    else:
        names = _Names()
    anc = " ".join(["ancilla", *map(names.__getitem__, ancilla)])
    lines = [MAGIC, f"qubits {wire_count}", anc]
    # The registers hold each label's wire, so the role lines are written
    # from them, keyed by wire, with no label map built and sorted first.
    roles = {w: f"# role {names[w]} {p}{i}" for p, reg in registers.items() for i, w in reg.items()}
    roles.update({w: f"# role {names[w]} {label}" for label, w in named.items()})
    lines += map(roles.__getitem__, sorted(roles))
    append = lines.append
    join = " ".join
    for kind, controls, targets in gates:
        if kind is _CNOT:
            append(f"cx {names[controls[0]]} {names[targets[0]]}")
        elif kind is _TOFFOLI:
            c1, c2 = controls
            append(f"ccx {names[c1]} {names[c2]} {names[targets[0]]}")
        elif kind is _NOT:
            append(f"x {names[targets[0]]}")
        else:
            append(join((kind._value_, *map(names.__getitem__, controls + targets))))
    append("")  # the final newline, without copying the joined text again
    return "\n".join(lines)


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


def _misplaced(head: str, ancilla: list[int] | None) -> str:
    """Why a line out of place is refused, given the ancilla ids read so far."""
    if head == "qubits":
        return "duplicate qubits line"
    if head == "#":
        return "role line after gates"
    if head != "ancilla":
        return f"unknown opcode {head!r}"
    return "ancilla line after gates" if ancilla is None else "duplicate ancilla line"


@_collector_paused
def parse_netlist(text: str) -> Circuit:
    lines = text.split("\n")
    if lines[0].strip() != MAGIC:
        raise NetlistError(1, 1, f"missing format line {MAGIC!r}")

    wire_count: int | None = None
    ancilla: list[int] | None = None
    roles: dict[int, str] = {}
    labels: set[str] = set()
    start = len(lines)  # index of the first gate line: the body starts there

    for lineno, raw in enumerate(islice(lines, 1, None), start=2):
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "#":
            if len(tokens) < 2 or tokens[1] != "role":
                continue  # other comments are ignored
            if wire_count is None:
                raise NetlistError(lineno, 1, "qubits line must precede everything else")
            if len(tokens) != 4:
                raise NetlistError(lineno, 1, "role line must be '# role WIRE LABEL'")
            _, _, tok, label = tokens
            try:
                if not (tok.isascii() and tok.isdigit()):
                    raise ValueError(tok)
                wire = int(tok)
            except ValueError:  # a bad token, or one longer than int() reads
                (wire,) = _int_tokens(tokens[2:3], lineno, raw, 2)  # raises at it
            if wire in roles:
                raise NetlistError(lineno, 1, f"duplicate role for wire {wire}")
            if wire >= wire_count:
                raise NetlistError(lineno, 1, f"role wire {wire} out of range")
            if label in labels:
                raise NetlistError(lineno, 1, f"duplicate role label {label!r}")
            roles[wire] = label
            labels.add(label)
            continue

        if head == "qubits" and wire_count is None:
            ids = _int_tokens(tokens[1:], lineno, raw, 1)
            if len(ids) != 1 or ids[0] < 1:
                raise NetlistError(lineno, 1, "qubits line needs one positive count")
            if ids[0] > WIRE_CAP:
                raise NetlistError(lineno, 1, f"{ids[0]} qubits exceed the cap of {WIRE_CAP}")
            wire_count = ids[0]
            continue

        if wire_count is None:
            raise NetlistError(lineno, 1, "qubits line must precede everything else")

        if head in _SPECS:
            start = lineno - 1
            break

        if head == "ancilla" and ancilla is None:
            ancilla = _int_tokens(tokens[1:], lineno, raw, 1)
            bad = [w for w in ancilla if w >= wire_count]
            if bad:
                raise NetlistError(lineno, 1, f"ancilla wire {bad[0]} out of range")
            if len(set(ancilla)) != len(ancilla):
                raise NetlistError(lineno, 1, "duplicate ancilla wire id")
            continue

        raise NetlistError(lineno, 1, _misplaced(head, ancilla))

    if wire_count is None:
        raise NetlistError(len(lines), 1, "missing qubits line")

    # The body: from the first gate line on, a line is a gate, a blank line
    # or a comment, or an error, and which depends only on its text, as the
    # wire count and the header are fixed.  So each distinct line is checked
    # once, in order of first occurrence, which makes the first bad line the
    # one that raises; its line number is looked up only then.
    body = dict.fromkeys(islice(lines, start, None))
    # Each wire's decimal text -> its id, the inverse of the export's name
    # list and built by the same kind of rule: only when the body has at
    # least as many distinct lines as there are wires, so the table never
    # outweighs the lines held above.  Its hits share one int per wire.
    if len(body) >= wire_count:
        table = dict(zip(map(str, range(wire_count)), range(wire_count)))
    else:
        table = {}
    wire_of = table.__getitem__
    specs = _SPECS
    for raw in body:
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        # The three shapes export writes with one f-string each, read through
        # the table: a hit is a valid gate, as the table holds only ids below
        # the wire count.  Any miss (a token the table lacks, a duplicate
        # operand, another arity or opcode) takes the checked path below,
        # which alone names an error.
        if table:
            n = len(tokens)
            try:
                if head == "cx" and n == 3:
                    c, t = wire_of(tokens[1]), wire_of(tokens[2])
                    if c != t:
                        body[raw] = _new(Gate, (_CNOT, (c,), (t,)))
                        continue
                elif head == "ccx" and n == 4:
                    c1, c2, t = wire_of(tokens[1]), wire_of(tokens[2]), wire_of(tokens[3])
                    if c1 != c2 and c1 != t and c2 != t:
                        body[raw] = _new(Gate, (_TOFFOLI, (c1, c2), (t,)))
                        continue
                elif head == "x" and n == 2:
                    body[raw] = _new(Gate, (_NOT, (), (wire_of(tokens[1]),)))
                    continue
            except KeyError:
                pass
        spec = specs.get(head)
        if spec is not None:
            del tokens[0]
            try:
                ids = tuple(map(wire_of, tokens)) if table else ()
            except KeyError:  # not a wire's name: a bad token, "007" or out of range
                ids = ()
            if not ids:  # each token as text, as without a table
                digits = "".join(tokens)
                try:
                    if not (digits.isascii() and digits.isdigit()):
                        raise ValueError(digits)
                    ids = tuple(map(int, tokens))
                except ValueError:  # a bad token, or one longer than int() reads
                    lineno = lines.index(raw, start) + 1
                    _int_tokens(tokens, lineno, raw, 1)  # raises at that token
                    raise NetlistError(lineno, 1, f"{head} needs wire ids") from None
            kind, cut, count = spec
            n = len(ids)
            if count is None and n < 2:
                reason = f"{head} takes at least 2 wire ids, got {n}"
            elif count is not None and n != count:
                reason = f"{head} takes {count} wire ids, got {n}"
            elif len(set(ids)) != n:
                reason = f"{head}: duplicate operand wire in {ids}"
            elif max(ids) >= wire_count:
                w = next(w for w in ids if w >= wire_count)
                reason = f"gate operand {w} out of range for {wire_count} wires"
            else:
                body[raw] = _new(Gate, (kind, ids[:cut], ids[cut:]))
                continue
        elif head == "#" and (len(tokens) < 2 or tokens[1] != "role"):
            continue  # a comment
        else:
            reason = _misplaced(head, ancilla)
        raise NetlistError(lines.index(raw, start) + 1, 1, reason)

    del table, wire_of  # freed before the gates are laid out, which lowers the peak
    gates = list(filter(None, map(body.__getitem__, islice(lines, start, None))))
    # Every check the public Circuit constructor makes has been made above,
    # line by line: the qubits line against the cap, and every other line
    # against this wire count.  So the parts are adopted as they are.
    return Circuit._adopt(wire_count, ancilla or (), _read_labels(roles), gates)
