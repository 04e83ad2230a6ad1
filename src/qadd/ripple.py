"""Ripple-carry in-place adder with no ancilla wires.

The circuit maps ``|b>|a> |z>``  to  ``|s> |a> |z ^ s_n>`` where
``s = a + b`` as an (n+1)-bit integer, keeping every carry in the wire
that initially stores the corresponding ``a`` bit.  For n >= 3 the exact
counts are: depth 5n-3, size 7n-6, 5n-5 CNOTs, 2n-1 Toffolis (see
``ripple_closed_forms``), and under the interleaved line layout no gate
spans more than 3 adjacent positions.
"""

from __future__ import annotations

from .circuit import (
    Circuit, Gate, _ccx, _check_size, _check_wire_count, _check_wires, _collector_paused, _cx,
    _register_labels,
)


def maj_fragment(c: int, b: int, a: int) -> list[Gate]:
    """Majority computation: |c>|b>|a> -> |c^a>|b^a>|MAJ(a,b,c)>.

    Two CNOTs followed by one Toffoli; MAJ(a,b,c) = ab ^ bc ^ ca.
    """
    _check_wires((c, b, a))
    return [_cx(a, c), _cx(a, b), _ccx(c, b, a)]


def _check_registers(b: list[int], a: list[int], least: int, *extra: int) -> None:
    if len(b) < least or len(a) != len(b):
        raise ValueError(f"need two registers of equal width >= {least}")
    _check_wires(b, a, extra)


def _first_half(b: list[int], a: list[int], carry_out: int) -> list[Gate]:
    """Steps 1-3 of the ripple adder on wires the caller has checked."""
    n = len(b)
    aa = list(a) + [carry_out]  # aa[n] holds the carry-out wire
    # step 1: fold a into b (bit 0 excluded; its carry-in is 0)
    gates = [_cx(aa[i], b[i]) for i in range(1, n)]
    # step 2: downward CNOT chain prepares a_i ^ a_{i-1}
    gates += [_cx(aa[i], aa[i + 1]) for i in range(n - 1, 0, -1)]
    # step 3: upward Toffoli chain turns those into a_i ^ c_i
    gates += [_ccx(b[i], aa[i], aa[i + 1]) for i in range(n)]
    return gates


def ripple_add_gates(b: list[int], a: list[int], z: int) -> list[Gate]:
    """Gate list for the six-step ripple adder on explicit wires.

    ``b[i]``/``a[i]`` are the input registers (bit i), ``z`` receives the
    high carry.  For n in {1, 2} some steps have empty ranges; the circuit
    is still a correct adder there.
    """
    _check_registers(b, a, 1, z)
    return _ripple_add(b, a, z)


def _ripple_add(b: list[int], a: list[int], z: int) -> list[Gate]:
    n = len(b)
    aa = list(a) + [z]  # aa[n] holds z
    gates = _first_half(b, a, z)
    # step 4: fold carries into b while unwinding the carry chain
    for i in range(n - 1, 0, -1):
        gates.append(_cx(aa[i], b[i]))
        gates.append(_ccx(b[i - 1], aa[i - 1], aa[i]))
    # step 5: undo the step-2 chain
    gates += [_cx(aa[i], aa[i + 1]) for i in range(1, n - 1)]
    # step 6: b_i ^ a_i ^ c_i = s_i
    gates += [_cx(aa[i], b[i]) for i in range(n)]
    return gates


def adder_first_half_gates(b: list[int], a: list[int], carry_out: int) -> list[Gate]:
    """Steps 1-3 only: computes the block carry-out without the sum.

    Starting from (b, a) with ``carry_out`` expected to hold 0, leaves
    b_0, a_0 unchanged, b_i <- b_i ^ a_i, a_i <- a_i ^ c_i for i >= 1, and
    XORs the full carry c_n into ``carry_out``.  Contains exactly n
    Toffoli gates.
    """
    _check_registers(b, a, 1, carry_out)
    return _first_half(b, a, carry_out)


def ripple_closed_forms(n: int) -> dict[str, int]:
    """Exact statistics of ``synth_ripple(n)`` for n >= 3, keyed as in
    ``CircuitStats.to_json_dict``."""
    _check_size("n", n, 3)
    return {
        "depth": 5 * n - 3,
        "size": 7 * n - 6,
        "count_cnot": 5 * n - 5,
        "count_toffoli": 2 * n - 1,
        "ancilla_count": 0,
    }


def ripple_wires(n: int) -> tuple[list[int], list[int], int]:
    """Canonical interleaved wire ids: B_i = 2i, A_i = 2i+1, Z = 2n."""
    return [2 * i for i in range(n)], [2 * i + 1 for i in range(n)], 2 * n


def ripple_roles(n: int) -> dict[int, str]:
    b, a, z = ripple_wires(n)
    roles = _register_labels("B", b)
    roles.update(_register_labels("A", a))
    roles[z] = "Z"
    return roles


@_collector_paused
def synth_ripple(n: int) -> Circuit:
    """Ripple adder over 2n+1 wires (no ancilla)."""
    _check_size("n", n, 1)
    wire_count = _check_wire_count(2 * n + 1)
    b, a, z = ripple_wires(n)
    return Circuit._adopt(wire_count, (), ripple_roles(n), _ripple_add(b, a, z))


def interleaved_layout(circuit: Circuit) -> dict[int, int]:
    """Line layout B_0 A_0 B_1 A_1 ... Z from the circuit's role map.

    Only defined for circuits whose wires are exactly the B_i/A_i registers
    plus Z (the ripple adder).  Each label's position is its wire in
    ``ripple_roles``, the numbering ``synth_ripple`` uses: position(B_i)=2i,
    position(A_i)=2i+1, position(Z)=2n.
    """
    by_role = circuit.wires_by_role()
    if not by_role or "Z" not in by_role:
        raise ValueError("circuit has no B/A/Z role map")
    n = (circuit.wire_count - 1) // 2
    if circuit.wire_count != 2 * n + 1:
        raise ValueError("interleaved layout needs 2n+1 wires")
    labels = ripple_roles(n)
    try:
        return {by_role[labels[pos]]: pos for pos in range(2 * n + 1)}
    except KeyError as exc:
        raise ValueError(f"circuit has no role label {exc.args[0]}") from None
