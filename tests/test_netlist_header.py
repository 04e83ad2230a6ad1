"""Header-line errors of ``parse_netlist``: lines before the ``qubits`` line,
a repeated ``ancilla`` line and header lines after the gates.  Each row is
the text, then the line, column and reason of the ``NetlistError``."""

import pytest

from qadd import NetlistError, parse_netlist

FIRST = "qubits line must precede everything else"

TABLE = [
    ("qadd 1\nancilla 0\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\nancilla\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\n# role 0 B0\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\n# role\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\n# role 0\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\nx 0\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\ncx 0 1\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\nccx 0 1 2\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\nfo 0 1\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\ntg 0 1\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\nbogus 1\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\n#role 0 B0\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\n  ancilla 0\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\nancilla x\nqubits 3\n", 2, 1, FIRST),
    ("qadd 1\n\n# a plain comment\n\nancilla 0\nqubits 3\n", 5, 1, FIRST),
    ("qadd 1\n#\nx 0\nqubits 3\n", 3, 1, FIRST),
    ("qadd 1\nqubits 3\nancilla 0\nancilla 1\n", 4, 1, "duplicate ancilla line"),
    ("qadd 1\nqubits 3\nancilla\nancilla\n", 4, 1, "duplicate ancilla line"),
    ("qadd 1\nqubits 3\nancilla 0\n# role 0 B0\nancilla 0\n", 5, 1, "duplicate ancilla line"),
    ("qadd 1\nqubits 3\nancilla 0\ncx 1 2\nancilla 1\n", 5, 1, "duplicate ancilla line"),
    ("qadd 1\nqubits 3\nancilla 0\nancilla 9\n", 4, 1, "duplicate ancilla line"),
    ("qadd 1\nqubits 3\ncx 0 1\nancilla 2\n", 4, 1, "ancilla line after gates"),
    ("qadd 1\nqubits 3\ncx 0 1\nancilla\n", 4, 1, "ancilla line after gates"),
    ("qadd 1\nqubits 3\ncx 0 1\n# role 0 B0\n", 4, 1, "role line after gates"),
    ("qadd 1\nqubits 3\ncx 0 1\n# role\n", 4, 1, "role line after gates"),
    ("qadd 1\nqubits 3\ncx 0 1\nqubits 3\n", 4, 1, "duplicate qubits line"),
    ("qadd 1\nqubits 3\ncx 0 1\nqubits\n", 4, 1, "duplicate qubits line"),
    ("qadd 1\nqubits 3\nqubits 4\n", 3, 1, "duplicate qubits line"),
    ("qadd 1\nqubits 3\ncx 0 1\n# a comment\nancilla 2\n", 5, 1, "ancilla line after gates"),
    ("qadd 1\nqubits 3\ncx 0 1\ncx 0 1\nancilla 2\n", 5, 1, "ancilla line after gates"),
    ("qadd 1\nqubits 3\nx 0\n\n  ancilla 1\n", 5, 1, "ancilla line after gates"),
    ("qadd 1\n# only a comment\n", 3, 1, "missing qubits line"),
    ("qadd 1\n", 2, 1, "missing qubits line"),
]


@pytest.mark.parametrize("text,line,column,reason", TABLE)
def test_header_line_errors(text, line, column, reason):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert (err.value.line, err.value.column, err.value.reason) == (line, column, reason)
    assert str(err.value) == f"line {line}, col {column}: {reason}"


def test_an_empty_ancilla_line_declares_no_ancilla():
    assert parse_netlist("qadd 1\nqubits 2\nancilla\ncx 0 1\n").ancilla == frozenset()
    assert parse_netlist("qadd 1\nqubits 2\ncx 0 1\n").ancilla == frozenset()
