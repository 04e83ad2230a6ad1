import pathlib
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadd import (
    BlockParams,
    Circuit,
    Gate,
    GateKind,
    NetlistError,
    WIRE_CAP,
    build_circuit,
    ccx,
    cx,
    export_netlist,
    fo,
    parse_netlist,
    synth_carry,
    synth_combined,
    synth_fanout_tree,
    synth_init,
    synth_ripple,
    synth_sum,
    tg,
    x,
)
from peak_memory import child_peak_mb
from qadd.netlist import MAGIC
from test_properties import circuits

DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "circuit",
    [
        synth_ripple(5),
        synth_combined(BlockParams(8, 2)),
        synth_fanout_tree(0, range(1, 11), 3),
        synth_init(4),
        synth_sum(4),
        synth_sum(3, with_carry_in=False),
        synth_carry(16, 2),
        Circuit(6, ancilla={5}, gates=[x(0), cx(0, 1), ccx(0, 1, 2), fo(0, [1, 2, 3]), tg([0, 1, 2], 4)]),
    ],
    ids=["ripple", "combined", "fanout", "init", "sum", "sum-plain", "carry", "mixed"],
)
def test_round_trip(circuit):
    text = export_netlist(circuit)
    assert parse_netlist(text) == circuit


def test_round_trip_preserves_stats():
    c = synth_ripple(5)
    st = parse_netlist(export_netlist(c)).stats()
    assert (st.depth, st.size) == (22, 29)


def test_export_is_canonical():
    text = export_netlist(synth_ripple(3))
    assert text.endswith("\n") and not text.endswith("\n\n")
    for line in text.splitlines():
        assert line == line.rstrip()
    assert export_netlist(synth_ripple(3)) == text


def test_export_empty_circuit():
    text = export_netlist(build_circuit(2))
    assert text == "qadd 1\nqubits 2\nancilla\n"


def test_export_single_cnot():
    assert export_netlist(build_circuit(2).append(cx(0, 1))).splitlines()[-1] == "cx 0 1"


def test_golden_ripple_n3():
    golden = (DATA / "ripple_n3.qn").read_text()
    assert export_netlist(synth_ripple(3)) == golden
    gate_lines = [l for l in golden.splitlines() if not l.startswith(("qadd", "qubits", "ancilla", "#"))]
    assert len(gate_lines) == 15


def test_golden_combined_n8_d2():
    golden = (DATA / "combined_n8_d2.qn").read_text()
    circuit = synth_combined(BlockParams(8, 2))
    assert export_netlist(circuit) == golden
    assert parse_netlist(golden) == circuit
    gate_lines = [l for l in golden.splitlines() if not l.startswith(("qadd", "qubits", "ancilla", "#"))]
    assert len(gate_lines) == 129


@pytest.mark.parametrize(
    "name,build",
    [
        ("init_w3", lambda: synth_init(3)),
        ("sum_w3", lambda: synth_sum(3)),
        ("sum_w3_nocarry", lambda: synth_sum(3, with_carry_in=False)),
        ("carry_n8_l1", lambda: synth_carry(8, 1)),
        ("fanout_t7_f2", lambda: synth_fanout_tree(0, range(1, 8), 2)),
    ],
)
def test_golden_block_circuits(name, build):
    # role lines are part of the bytes, so this pins every role label
    golden = (DATA / f"{name}.qn").read_text()
    circuit = build()
    assert export_netlist(circuit) == golden
    assert parse_netlist(golden) == circuit


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_and_parser_read_one_shape_table(kind):
    # For every id count, the ids split as controls then targets the way
    # ``Gate`` accepts exactly when the parser accepts the gate line.
    for n in range(5):
        ids = tuple(range(n))
        accepted = []
        for cut in range(n + 1):
            try:
                accepted.append(Gate(kind, ids[:cut], ids[cut:]))
            except ValueError:
                pass
        try:
            parsed = parse_netlist(f"qadd 1\nqubits 5\n{kind.value} {' '.join(map(str, ids))}\n")
        except NetlistError:
            assert accepted == []
        else:
            assert parsed.gates == accepted


def _expect_error(text, lineno=None, fragment=""):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    if lineno is not None:
        assert err.value.line == lineno
    assert fragment in str(err.value)
    return err.value


def test_parse_errors():
    _expect_error("nope\n", 1, "format line")
    _expect_error("qadd 1\nqubits 2\nccx 0 0 1\n", 3, "duplicate")
    _expect_error("qadd 1\nqubits 2\ncx 0 5\n", 3, "out of range")
    _expect_error("qadd 1\nqubits 2\nzz 0 1\n", 3, "unknown opcode")
    _expect_error("qadd 1\nqubits 2\ncx 0 q\n", 3, "expected wire id")
    _expect_error("qadd 1\nqubits 0\n", 2, "positive")
    _expect_error("qadd 1\ncx 0 1\n", 2, "qubits line must precede")
    _expect_error("qadd 1\nqubits 2\ncx 0\n", 3)
    _expect_error("qadd 1\nqubits 2\nancilla 7\n", 3, "out of range")
    _expect_error("qadd 1\nqubits 2\ncx 0 1\nancilla 0\n", 4, "after gates")
    _expect_error("qadd 1\n", None, "missing qubits")


def test_parse_without_gates():
    c = parse_netlist("qadd 1\nqubits 3\nancilla 2\n")
    assert c.wire_count == 3 and c.ancilla == {2}
    # the ancilla line may be omitted entirely
    assert parse_netlist("qadd 1\nqubits 3\n").ancilla == frozenset()


def test_parse_ignores_blank_lines_and_comments():
    c = parse_netlist("qadd 1\nqubits 2\n\n# just a note\ncx 0 1\n")
    assert len(c.gates) == 1


def test_variadic_opcodes():
    c = parse_netlist("qadd 1\nqubits 5\nfo 0 1 2 3\ntg 0 1 2 4\n")
    assert c.gates[0] == fo(0, [1, 2, 3])
    assert c.gates[1] == tg([0, 1, 2], 4)


def test_role_lines_round_trip():
    c = parse_netlist("qadd 1\nqubits 2\n# role 0 B0\n# role 1 A0\ncx 1 0\n")
    assert c.role_map == {0: "B0", 1: "A0"}
    assert parse_netlist(export_netlist(c)) == c


@pytest.mark.parametrize("wire", ["²", "١", "１"])
def test_parse_rejects_non_ascii_digit_wire_ids(wire):
    _expect_error(f"qadd 1\nqubits 2\ncx 0 {wire}\n", 3, "expected wire id")


def test_parse_rejects_duplicate_ancilla_ids():
    _expect_error("qadd 1\nqubits 3\nancilla 1 1\n", 3, "duplicate ancilla")


def test_wire_cap():
    assert Circuit(WIRE_CAP).wire_count == WIRE_CAP
    with pytest.raises(ValueError, match="cap"):
        Circuit(WIRE_CAP + 1)
    assert parse_netlist(f"qadd 1\nqubits {WIRE_CAP}\n").wire_count == WIRE_CAP
    _expect_error("qadd 1\nqubits 20000000\nancilla 1\ncx 0 1\n", 2, "cap")
    _expect_error(f"qadd 1\nqubits {WIRE_CAP + 1}\n", 2, "cap")


# --- role labels and role lines -------------------------------------------


# Before labels were checked, the first of these, on a circuit without
# gates, exported to a netlist that re-parsed with one "cx 0 1" gate and the
# label "Z"; "a b" and "" exported to netlists that did not parse.
@pytest.mark.parametrize("label", ["Z\ncx 0 1", "a b", "", "B0\t", "\r", "Z\x0b"])
def test_circuit_rejects_labels_that_are_not_one_token(label):
    with pytest.raises(ValueError, match="label"):
        Circuit(2, role_map={0: label})


def test_role_errors_point_at_the_role_line():
    _expect_error("qadd 1\nqubits 2\n# role 5 B0\n", 3, "role wire 5 out of range")
    _expect_error("qadd 1\nqubits 2\n# role 5 B0\ncx 0 1\n", 3, "out of range")
    _expect_error("qadd 1\nqubits 2\n# role 0 B0\n# role 1 B0\n", 4, "duplicate role label")
    _expect_error("qadd 1\nqubits 2\n# role 0 B0\n# role 1 B0\ncx 0 1\n", 4, "duplicate")
    _expect_error("qadd 1\nqubits 2\n# role 0 B0\n# role 0 A0\n", 4, "duplicate role for wire")
    _expect_error("qadd 1\nqubits 2\ncx 0 1\n# role 0 B0\n", 4, "role line after gates")
    _expect_error("qadd 1\nqubits 2\n# role 0\n", 3, "role line must be")
    _expect_error("qadd 1\nqubits 2\n# role x B0\n", 3, "expected wire id")


def test_role_line_before_qubits_is_rejected():
    _expect_error("qadd 1\n# role 0 B0\nqubits 2\n", 2, "qubits line must precede")
    # other comments may still come first
    assert parse_netlist("qadd 1\n# a note\nqubits 2\n").wire_count == 2


def test_role_lines_may_come_before_or_after_the_ancilla_line():
    a = parse_netlist("qadd 1\nqubits 3\n# role 0 B0\nancilla 2\ncx 0 1\n")
    b = parse_netlist("qadd 1\nqubits 3\nancilla 2\n# role 0 B0\ncx 0 1\n")
    assert a == b and a.role_map == {0: "B0"} and a.ancilla == {2}


# --- gate-line checks ---------------------------------------------------------


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("x", "x needs wire ids"),
        ("x 0 1", "x takes 1 wire ids, got 2"),
        ("cx 0", "cx takes 2 wire ids, got 1"),
        ("ccx 0 1", "ccx takes 3 wire ids, got 2"),
        ("fo 0", "fo takes at least 2 wire ids, got 1"),
        ("tg 0", "tg takes at least 2 wire ids, got 1"),
        ("fo 0 1 1", "duplicate"),
        ("tg 0 1 0", "duplicate"),
        ("tg 0 1 9", "gate operand 9 out of range for 4 wires"),
        ("fo 0 4 1", "gate operand 4 out of range"),
        ("ccx 0 0 9", "duplicate"),  # duplicates are reported before range
        ("cx 0 -1", "expected wire id, got '-1'"),
        ("cx +0 1", "expected wire id"),
        ("cx 1_0 1", "expected wire id"),
    ],
)
def test_gate_line_errors(line, fragment):
    _expect_error(f"qadd 1\nqubits 4\n\n{line}\nx 0\n", 4, fragment)


def test_bad_token_column():
    err = _expect_error("qadd 1\nqubits 4\n  cx\t0  q1\n", 3, "expected wire id, got 'q1'")
    assert err.column == 9


@pytest.mark.parametrize(
    "body,lineno,column",
    [
        ("qubits 4\ncx 0 c\n", 3, 6),  # 'c' also occurs in the opcode
        ("qubits 4\nancilla 1 a\n", 3, 11),  # 'a' also occurs in 'ancilla'
        ("qubits 4\n# role r B0\n", 3, 8),  # 'r' also occurs in 'role'
        ("qubits q\n", 2, 8),  # 'q' also occurs in 'qubits'
        ("qubits 4\n\tfo  1 0 1x\n", 3, 10),
        ("qubits 4\nx 0\ncx 1 " + "1" * 5000 + "\n", 4, 6),  # too long for int
    ],
)
def test_bad_token_column_is_its_own(body, lineno, column):
    err = _expect_error("qadd 1\n" + body, lineno, "")
    assert err.column == column


def test_leading_zeros_tabs_and_carriage_returns():
    c = parse_netlist("qadd 1\r\nqubits\t004\r\nancilla 03\r\n\tccx 000 1\t2 \r\n")
    assert c == Circuit(4, {3}, gates=[ccx(0, 1, 2)])


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("qubits {}\n", 2),
        ("qubits 4\nancilla {}\n", 3),
        ("qubits 4\n# role {} B0\n", 3),
        ("qubits 4\ncx 0 {}\n", 3),
        ("qubits 4\nx {}\n", 3),
    ],
)
def test_wire_ids_too_long_for_int(body, lineno):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default); this used to escape as a bare ValueError.
    _expect_error("qadd 1\n" + body.format("0" * 5000 + "1"), lineno, "too long")


# --- repeated gate lines --------------------------------------------------------


def test_repeated_gate_lines_share_one_gate():
    text = "qadd 1\nqubits 4\ncx 0 1\nccx 0 1 2\ncx 0 1\nx 3\nccx 0 1 2\ncx 0 1\n"
    parsed = parse_netlist(text)
    assert parsed == reference_parse_netlist(text)
    assert parsed.gates[0] is parsed.gates[2] is parsed.gates[5]
    assert parsed.gates[1] is parsed.gates[4]
    assert parsed.gates[0] is not parsed.gates[1]


def test_repeated_bad_gate_line_raises_at_its_first_occurrence():
    err = _expect_error("qadd 1\nqubits 4\nx 0\ncx 0 q\nx 0\ncx 0 q\n", 4, "expected wire id")
    assert err.column == 6
    _expect_error("qadd 1\nqubits 4\ncx 0 9\ncx 0 9\n", 3, "gate operand 9 out of range")


def test_spellings_of_one_gate_give_equal_gates():
    parsed = parse_netlist("qadd 1\nqubits 3\ncx 1 2\ncx 01 2\ncx  1 2\n")
    assert parsed.gates == [cx(1, 2)] * 3


@pytest.mark.parametrize(
    "header,bad,column,message",
    [
        ("", "cx 0 9", 1, "gate operand 9 out of range for 4 wires"),
        ("", "cx 2 2", 1, "cx: duplicate operand wire in (2, 2)"),
        ("", "ccx 0 1", 1, "ccx takes 3 wire ids, got 2"),
        ("", "tg 3", 1, "tg takes at least 2 wire ids, got 1"),
        ("", "cx 0 q", 6, "expected wire id, got 'q'"),
        ("", "# role 0 B0", 1, "role line after gates"),
        ("# role 0 B0\n", "# role 0 B0", 1, "role line after gates"),
        ("", "ancilla 1", 1, "ancilla line after gates"),
        ("ancilla 1\n", "ancilla 1", 1, "duplicate ancilla line"),
        ("ancilla 2\n", "ancilla 1", 1, "duplicate ancilla line"),
        ("ancilla\n", "ancilla 1", 1, "duplicate ancilla line"),
        ("", "qubits 3", 1, "duplicate qubits line"),
        ("", "qubits 4", 1, "duplicate qubits line"),
        ("", "zz 0 1", 1, "unknown opcode 'zz'"),
        ("", "#cx 0 1", 1, "unknown opcode '#cx'"),
    ],
)
def test_repeated_body_errors_raise_at_their_first_occurrence(header, bad, column, message):
    # The bad line stands twice behind a repeated valid gate line, and any
    # header line with its text comes before the first gate line.
    head = f"qadd 1\nqubits 4\n{header}"
    text = f"{head}cx 0 1\n\ncx 0 1\n{bad}\ncx 0 1\n{bad}\n"
    err = _expect_error(text, head.count("\n") + 4)
    assert (err.column, err.reason) == (column, message)


def test_a_body_of_blank_lines_and_comments_has_no_gates():
    for body in ["\n\n# a note\n#\n\n# a note\n \t\n", "\r\n# a note\n\r\n# a note\n"]:
        assert parse_netlist(f"qadd 1\nqubits 3\n{body}").gates == []
    text = "qadd 1\nqubits 3\nx 0\n# a note\n\ncx 0 1\n# a note\n\nx 0\n#\n"
    assert parse_netlist(text).gates == [x(0), cx(0, 1), x(0)]


# --- the reference export -----------------------------------------------------
#
# The export as it was before the name table, calling ``str`` on every id it
# writes: the bytes the name table must reproduce.


def reference_export_netlist(circuit):
    lines = [MAGIC, f"qubits {circuit.wire_count}"]
    anc = " ".join(str(w) for w in sorted(circuit.ancilla))
    lines.append(f"ancilla {anc}".rstrip())
    for w, label in sorted(circuit.role_map.items()):
        lines.append(f"# role {w} {label}")
    for kind, controls, targets in circuit.gates:
        if kind is GateKind.CNOT:
            lines.append(f"cx {controls[0]} {targets[0]}")
        elif kind is GateKind.TOFFOLI:
            c1, c2 = controls
            lines.append(f"ccx {c1} {c2} {targets[0]}")
        elif kind is GateKind.NOT:
            lines.append(f"x {targets[0]}")
        else:
            lines.append(" ".join((kind.value, *map(str, controls + targets))))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_export_matches_reference(circuit):
    assert export_netlist(circuit) == reference_export_netlist(circuit)


@pytest.mark.parametrize(
    "build",
    [
        lambda: synth_ripple(4089),
        lambda: synth_combined(BlockParams(4096, 12)),
        lambda: synth_fanout_tree(0, range(1, 4097), 3),
        lambda: Circuit(WIRE_CAP, gates=[cx(0, WIRE_CAP - 1)]),
    ],
    ids=["ripple-4089", "combined-4096-12", "fanout-4096-3", "wide-sparse"],
)
def test_export_matches_reference_on_large_circuits(build):
    circuit = build()
    text, want = export_netlist(circuit), reference_export_netlist(circuit)
    if text != want:
        # Name the first differing line: pytest's diff of two texts of about
        # 1 MB ran for more than five minutes.
        pairs = enumerate(zip_longest(text.split("\n"), want.split("\n")), 1)
        line, got, expected = next((i, a, b) for i, (a, b) in pairs if a != b)
        pytest.fail(f"line {line}: export {got!r}, reference {expected!r}")


def test_wide_sparse_export_stays_small():
    # One gate on 2^22 wires: the export names only the ids it writes, so
    # it never lists every wire's name (that took 304 MB).
    code = (
        "from qadd import WIRE_CAP, Circuit, cx, export_netlist\n"
        "text = export_netlist(Circuit(WIRE_CAP, gates=[cx(0, WIRE_CAP - 1)]))\n"
        "assert text == 'qadd 1\\nqubits 4194304\\nancilla\\ncx 0 4194303\\n', repr(text)\n"
    )
    peak_mb = child_peak_mb(code, timeout=20)
    assert peak_mb < 64, f"{peak_mb:.0f} MB peak RSS"


def test_wide_sparse_parse_stays_small():
    # One gate line on 2^22 wires: the parse reads its ids without a table
    # of every wire's name, which would take hundreds of MB.
    code = (
        "from qadd import WIRE_CAP, Circuit, cx, parse_netlist\n"
        "c = parse_netlist('qadd 1\\nqubits 4194304\\nancilla\\ncx 0 4194303\\n')\n"
        "assert c == Circuit(WIRE_CAP, gates=[cx(0, WIRE_CAP - 1)]), c\n"
    )
    peak_mb = child_peak_mb(code, timeout=20)
    assert peak_mb < 64, f"{peak_mb:.0f} MB peak RSS"


# --- the reference parser -----------------------------------------------------
#
# The parser as it was before gate lines were validated in one pass, kept as
# the reference for the differential properties below.  It built each gate
# through ``Gate(...)`` and ``Circuit.append``.  Its role-line handling
# reported errors at the first gate line instead, so role lines are left out
# of the differential.

_REF_OPCODES = {kind.value: kind for kind in GateKind}


def _ref_gate_from_tokens(kind, ids):
    if kind is GateKind.FANOUT:
        return Gate(kind, (ids[0],), tuple(ids[1:]))
    if kind is GateKind.GEN_TOFFOLI:
        return Gate(kind, tuple(ids[:-1]), (ids[-1],))
    n_controls = {GateKind.NOT: 0, GateKind.CNOT: 1, GateKind.TOFFOLI: 2}[kind]
    if len(ids) != n_controls + 1:
        raise ValueError(f"{kind.value} takes {n_controls + 1} wire ids, got {len(ids)}")
    return Gate(kind, tuple(ids[:n_controls]), (ids[n_controls],))


def _ref_int_tokens(tokens, lineno, line):
    out = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise NetlistError(lineno, line.index(tok) + 1, f"expected wire id, got {tok!r}")
        out.append(int(tok))
    return out


def reference_parse_netlist(text):
    lines = text.split("\n")
    if not lines or lines[0].strip() != MAGIC:
        raise NetlistError(1, 1, f"missing format line {MAGIC!r}")

    wire_count = None
    ancilla = []
    roles = {}
    circuit = None
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
                (wire,) = _ref_int_tokens(tokens[2:3], lineno, raw)
                if wire in roles:
                    raise NetlistError(lineno, 1, f"duplicate role for wire {wire}")
                roles[wire] = tokens[3]
            continue  # other comments are ignored

        if head == "qubits":
            if wire_count is not None:
                raise NetlistError(lineno, 1, "duplicate qubits line")
            ids = _ref_int_tokens(tokens[1:], lineno, raw)
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
            ancilla = _ref_int_tokens(tokens[1:], lineno, raw)
            bad = [w for w in ancilla if w >= wire_count]
            if bad:
                raise NetlistError(lineno, 1, f"ancilla wire {bad[0]} out of range")
            if len(set(ancilla)) != len(ancilla):
                raise NetlistError(lineno, 1, "duplicate ancilla wire id")
            continue

        if head not in _REF_OPCODES:
            raise NetlistError(lineno, 1, f"unknown opcode {head!r}")
        if circuit is None:
            try:
                circuit = Circuit(wire_count, ancilla, roles or None)
            except ValueError as err:
                raise NetlistError(lineno, 1, str(err)) from err
        ids = _ref_int_tokens(tokens[1:], lineno, raw)
        if not ids:
            raise NetlistError(lineno, 1, f"{head} needs wire ids")
        try:
            circuit.append(_ref_gate_from_tokens(_REF_OPCODES[head], ids))
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


def _outcome(parse, text):
    """The re-exported bytes of the parsed circuit, or the error's line."""
    try:
        return export_netlist(parse(text))
    except NetlistError as err:
        return ("NetlistError", err.line)


def test_reference_agrees_on_the_golden_file_and_the_error_cases():
    texts = [(DATA / "ripple_n3.qn").read_text(), export_netlist(synth_combined(BlockParams(8, 2)))]
    texts += [
        "nope\n",
        "qadd 1\nqubits 2\nccx 0 0 1\n",
        "qadd 1\nqubits 2\ncx 0 5\n",
        "qadd 1\nqubits 2\nzz 0 1\n",
        "qadd 1\nqubits 2\ncx 0 q\n",
        "qadd 1\nqubits 0\n",
        "qadd 1\ncx 0 1\n",
        "qadd 1\nqubits 2\ncx 0\n",
        "qadd 1\nqubits 2\nfo 0\n",
        "qadd 1\nqubits 2\ntg 1\n",
        "qadd 1\nqubits 2\nancilla 7\n",
        "qadd 1\nqubits 2\ncx 0 1\nancilla 0\n",
        "qadd 1\n",
    ]
    for text in texts:
        assert _outcome(parse_netlist, text) == _outcome(reference_parse_netlist, text)


# --- differential and fuzz properties ------------------------------------------

NUMBERS = [str(i) for i in range(10)] + ["007", "00", "12", "4194304", "4194305"]
JUNK = ["q", "-1", "+1", "1_0", "²", "١", "１", "0x1", "1.0", "qadd", "1", "#", "##", "role?"]
OPCODES = ["x", "cx", "ccx", "fo", "tg"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\r", "\x0b", " "]


@st.composite
def token_lines(draw):
    shapes = ["gate", "gate", "gate", "qubits", "ancilla", "comment", "blank", "soup"]
    shape = draw(st.sampled_from(shapes))
    if shape == "gate":
        tokens = [draw(st.sampled_from(OPCODES))] + draw(
            st.lists(st.sampled_from(NUMBERS[:10]), max_size=5)
        )
    elif shape == "qubits":
        tokens = ["qubits", draw(st.sampled_from(NUMBERS))]
    elif shape == "ancilla":
        tokens = ["ancilla"] + draw(st.lists(st.sampled_from(NUMBERS), max_size=3))
    elif shape == "comment":
        tokens = ["#", draw(st.sampled_from(["note", "rolex", "#", "cx 0 1"]))]
    elif shape == "blank":
        tokens = []
    else:
        vocabulary = OPCODES + NUMBERS + JUNK + ["qubits", "ancilla"]
        tokens = draw(st.lists(st.sampled_from(vocabulary), max_size=5))
    n_seps = len(tokens) + 1
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=n_seps, max_size=n_seps))
    lead = seps[0] if draw(st.booleans()) else ""
    trail = draw(st.sampled_from(["", "", " ", "\r", "\t"]))
    return lead + "".join(tok + sep for tok, sep in zip(tokens, seps[1:])).rstrip(" ") + trail


@st.composite
def token_soup(draw):
    bad_first = st.sampled_from([" qadd 1\r", "qadd 2", "qadd  1"])
    first = MAGIC if draw(st.integers(0, 7)) else draw(bad_first)
    lines = draw(st.lists(token_lines(), max_size=12))
    if draw(st.integers(0, 4)) < 4:
        lines.insert(0, f"qubits {draw(st.integers(1, 12))}")
    return "\n".join([first, *lines]) + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


@settings(max_examples=200, deadline=None)
@given(token_soup())
def test_parser_matches_reference_on_token_soup(text):
    assert _outcome(parse_netlist, text) == _outcome(reference_parse_netlist, text)


@st.composite
def mutated_netlists(draw):
    drawn = draw(circuits())
    # role lines are not part of the differential
    circuit = Circuit(drawn.wire_count, drawn.ancilla, None, drawn.gates)
    lines = [line.split(" ") for line in export_netlist(circuit).split("\n")]
    # Any line but the format line, which the token soup fuzzes; drawn from
    # both ends, so gate lines are hit as often as the header.
    rows = st.integers(1, len(lines) - 1)
    row = draw(st.one_of(rows, rows.map(lambda i: len(lines) - i)))
    tokens = lines[row]
    col = draw(st.integers(0, len(tokens)))
    new = draw(st.sampled_from(OPCODES + NUMBERS + JUNK + ["", "qubits", "ancilla", "\t", "\r"]))
    action = draw(st.sampled_from(["replace", "insert", "delete"]))
    if action == "insert":
        tokens.insert(col, new)
    elif col < len(tokens):
        if action == "replace":
            tokens[col] = new
        else:
            del tokens[col]
    return "\n".join(" ".join(tokens) for tokens in lines)


@settings(max_examples=200, deadline=None)
@given(mutated_netlists())
def test_parser_matches_reference_on_mutated_exports(text):
    assert _outcome(parse_netlist, text) == _outcome(reference_parse_netlist, text)


@st.composite
def mutated_netlists_with_repeats(draw):
    """A mutated export with some of its lines, mutated ones included,
    copied to random places, so a line checked once recurs later."""
    lines = draw(mutated_netlists()).split("\n")
    for _ in range(draw(st.integers(1, 8))):
        line = lines[draw(st.integers(1, len(lines) - 1))]
        lines.insert(draw(st.integers(1, len(lines))), line)
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(mutated_netlists_with_repeats())
def test_parser_matches_reference_on_mutated_exports_with_repeated_lines(text):
    assert _outcome(parse_netlist, text) == _outcome(reference_parse_netlist, text)


NETLIST_ALPHABET = st.sampled_from(
    list("0123456789 \t\r\n#") + OPCODES + ["qubits", "ancilla", "role", "²", "١", "\x0b", "é"]
)


@st.composite
def any_text(draw):
    body = draw(st.one_of(st.text(), st.lists(NETLIST_ALPHABET, max_size=60).map("".join)))
    header = f"{MAGIC}\nqubits 6\n"
    prefix = draw(st.sampled_from(["", f"{MAGIC}\n", header, f"{header}x 0\n"]))
    return prefix + body


@settings(max_examples=200, deadline=None)
@given(any_text())
def test_parse_returns_a_round_tripping_circuit_or_raises_netlist_error(text):
    try:
        circuit = parse_netlist(text)
    except NetlistError:
        return
    assert parse_netlist(export_netlist(circuit)) == circuit


# --- the wire-name table ------------------------------------------------------
#
# A body with at least as many distinct lines as wires reads its ids through a
# table of the wires' names; a token the table lacks, and every token of a
# smaller body, is read as text.  Both must give the same outcome.


def _exact_outcome(text):
    try:
        return export_netlist(parse_netlist(text))
    except NetlistError as err:
        return (err.line, err.column, err.reason)


def _with_and_without_the_name_table(bad, wires=8):
    """``bad`` as the first gate line, followed by a distinct line per wire
    or by one line only."""
    head = f"qadd 1\nqubits {wires}\n{bad}\n"
    padded = head + "".join(f"x {w}\n" for w in range(wires))
    short = head + "x 0\n"
    assert len(set(padded.split("\n")[2:])) >= wires > len(set(short.split("\n")[2:]))
    return padded, short


@pytest.mark.parametrize(
    "bad",
    [
        "cx 0 q",
        "cx 0 \u0661",  # ARABIC-INDIC DIGIT ONE
        f"cx 0 {WIRE_CAP + 1}",
        "cx 0 8",
        "cx 3 3",
        "x",
        "cx 007 1",  # accepted as wire 7
    ],
    ids=["non-digit", "non-ascii-digit", "over-cap", "out-of-range", "duplicate", "bare-x", "007"],
)
def test_bad_gate_lines_read_alike_with_and_without_the_name_table(bad):
    texts = _with_and_without_the_name_table(bad)
    if bad == "cx 007 1":
        assert [parse_netlist(text).gates[0] for text in texts] == [cx(7, 1)] * 2
    else:
        with_table, without = map(_exact_outcome, texts)
        assert with_table == without and without[0] == 3
    for text in texts:
        assert _outcome(parse_netlist, text) == _outcome(reference_parse_netlist, text)


def test_an_id_too_long_for_int_reads_alike_with_and_without_the_name_table():
    # the reference parser lets int()'s ValueError escape here
    texts = _with_and_without_the_name_table("cx 0 " + "1" * 5000)
    with_table, without = map(_exact_outcome, texts)
    assert with_table == without == (3, 6, "wire id of 5000 digits is too long")
