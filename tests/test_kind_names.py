"""One name per gate kind.

``circuit.py`` names each ``GateKind`` member once, as a module constant
(``_NOT``, ``_CNOT``, ``_TOFFOLI``, ``_FANOUT``, ``_GEN_TOFFOLI``), and every
reader compares a gate's kind against those.  ``GateKind.CNOT`` resolves the
member through ``EnumType.__getattr__`` on each read, which made the
simulation kernel, the one loop that still read kinds that way, several
times slower per gate than the stats, span and export loops.  So no function
body in the package may read an attribute of ``GateKind``; module-level
code, where the constants are defined, may.
"""

import ast
from pathlib import Path

import pytest

import qadd
from qadd import circuit

SOURCES = sorted(Path(qadd.__file__).resolve().parent.glob("*.py"))


def _kind_reads(tree: ast.AST) -> list[tuple[str, int, str]]:
    """(function, line, attribute) of every ``GateKind.<attr>`` read inside a
    function body of ``tree``."""
    reads = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = func.body if isinstance(func.body, list) else [func.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "GateKind"
                ):
                    name = getattr(func, "name", "<lambda>")
                    reads.append((name, node.lineno, node.attr))
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_reads_a_gate_kind_member(path):
    tree = ast.parse(path.read_text(), str(path))
    assert _kind_reads(tree) == [], f"{path.name} reads GateKind members per call"


def test_the_scan_finds_a_member_read_in_a_function():
    tree = ast.parse("def f(k):\n    return k is GateKind.CNOT\nX = GateKind.NOT\n")
    assert _kind_reads(tree) == [("f", 2, "CNOT")]


def test_the_simulator_does_not_import_the_enum():
    tree = ast.parse((Path(circuit.__file__).parent / "sim.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "GateKind" not in imported


def test_each_kind_has_one_constant():
    constants = [circuit._NOT, circuit._CNOT, circuit._TOFFOLI, circuit._FANOUT, circuit._GEN_TOFFOLI]
    assert constants == list(qadd.GateKind)
    assert set(circuit._SHAPES) == set(constants)
    assert circuit.TOFFOLI_KINDS == {circuit._TOFFOLI, circuit._GEN_TOFFOLI}
