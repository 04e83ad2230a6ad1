import pathlib

import pytest

from qadd import (
    BlockParams,
    Circuit,
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
