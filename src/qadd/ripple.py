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
    Circuit, Gate, _ccx, _ccxs, _check_size, _check_wire_count, _check_wires, _collector_paused,
    _cx, _cxs,
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


def _families(b: list[int], a: list[int], tops: list[int]) -> tuple[list[Gate], ...]:
    """The adder's three gate families over the bits of b and a, on wires the
    caller has checked: the fold cx(a_i, b_i), the chain cx(a_i, a'_i) and the
    Toffolis ccx(b_i, a_i, a'_i).  The bit's next wire a'_i is a_{i+1}, except
    on the top bit of each of the len(tops) blocks of equal width that the
    registers split into, where it is that block's entry in ``tops`` (the
    carry-out or a carry slot).  With no tops, the top bit has no next wire,
    and the chain and the Toffolis stop below it.

    Each gate is built once, so the steps that repeat a gate repeat one
    object, and each wire's one-wire operand tuple is built once, from one
    ``zip`` pass per register, so the fold, the chain and the Toffoli targets
    share them."""
    bt, at = list(zip(b)), list(zip(a))
    nt = at[1:]
    if tops:
        k = len(b) // len(tops)
        nt.append(None)
        nt[k - 1 :: k] = zip(tops)
    return _cxs(at, bt), _cxs(at, nt), _ccxs(zip(b, a), nt)


def _steps_1_to_3(fold: list[Gate], chain: list[Gate], tof: list[Gate]) -> list[Gate]:
    # this and the block helpers only reorder what they are handed: one block's
    # gates, or per-position columns of gates over many blocks; step 1: fold a into b (bit 0 excluded; its carry-in is 0); step 2: the
    # downward chain from the top bit to bit 1 prepares a_i ^ a_{i-1}; step 3:
    # the upward Toffolis turn those into a_i ^ c_i
    return fold[1:] + chain[:0:-1] + tof


def _unwind(fold: list[Gate], tof: list[Gate]) -> list[Gate]:
    """fold[i] then tof[i-1] for i from len(fold)-1 down to 1: the carries
    fold into b while the carry chain unwinds."""
    gates = fold[1:] * 2
    gates[::2] = tof[: len(fold) - 1]
    gates[1::2] = fold[1:]
    return gates[::-1]


def ripple_add_gates(b: list[int], a: list[int], z: int) -> list[Gate]:
    """Gate list for the six-step ripple adder on explicit wires.

    ``b[i]``/``a[i]`` are the input registers (bit i), ``z`` receives the
    high carry.  For n in {1, 2} some steps have empty ranges; the circuit
    is still a correct adder there.  Each of the 3n - 1 distinct gates is
    built once, so an equal gate at several positions may be one object.
    """
    _check_registers(b, a, 1, z)
    return _ripple_add(b, a, z)


def _ripple_add(b: list[int], a: list[int], z: int) -> list[Gate]:
    fold, chain, tof = _families(b, a, [z])
    # step 4: unwind; step 5: undo the step-2 chain; step 6: b_i ^ a_i ^ c_i = s_i
    return _steps_1_to_3(fold, chain, tof) + _unwind(fold, tof) + chain[1:-1] + fold


def adder_first_half_gates(b: list[int], a: list[int], carry_out: int) -> list[Gate]:
    """Steps 1-3 only: computes the block carry-out without the sum.

    Starting from (b, a) with ``carry_out`` expected to hold 0, leaves
    b_0, a_0 unchanged, b_i <- b_i ^ a_i, a_i <- a_i ^ c_i for i >= 1, and
    XORs the full carry c_n into ``carry_out``.  Contains exactly n
    Toffoli gates.  An equal gate at several positions may be one object.
    """
    _check_registers(b, a, 1, carry_out)
    return _steps_1_to_3(*_families(b, a, [carry_out]))


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
    return list(range(0, 2 * n, 2)), list(range(1, 2 * n, 2)), 2 * n


def ripple_roles(b: list[int], a: list[int], z: int) -> tuple[dict, dict]:
    """The roles of ``synth_ripple``, from its wires: registers B and A, and Z."""
    return {"B": dict(enumerate(b)), "A": dict(enumerate(a))}, {"Z": z}


@_collector_paused
def synth_ripple(n: int) -> Circuit:
    """Ripple adder over 2n+1 wires (no ancilla)."""
    _check_size("n", n, 1)
    wire_count = _check_wire_count(2 * n + 1)
    b, a, z = ripple_wires(n)
    return Circuit._adopt(wire_count, (), ripple_roles(b, a, z), _ripple_add(b, a, z))


def interleaved_layout(circuit: Circuit) -> dict[int, int]:
    """Line layout B_0 A_0 B_1 A_1 ... Z from the circuit's registers.

    Only defined for circuits whose wires are exactly the B_i/A_i registers
    plus Z (the ripple adder).  Each role's position is its wire in
    ``ripple_wires``, the numbering ``synth_ripple`` uses: position(B_i)=2i,
    position(A_i)=2i+1, position(Z)=2n.
    """
    if "Z" not in circuit._roles[1]:
        raise ValueError("circuit has no B/A/Z role map")
    n = (circuit.wire_count - 1) // 2
    if circuit.wire_count != 2 * n + 1:
        raise ValueError("interleaved layout needs 2n+1 wires")
    b, a = (circuit._roles[0].get(prefix, {}) for prefix in "BA")
    # the wires in position order; Z, which fills the list first, stays at 2n
    order = [circuit._roles[1]["Z"]] * (2 * n + 1)
    try:
        order[0 : 2 * n : 2] = map(b.__getitem__, range(n))
        order[1 : 2 * n : 2] = map(a.__getitem__, range(n))
    except KeyError:  # name the first index missing in position order, B_i before A_i
        pos = next(pos for pos in range(2 * n) if pos >> 1 not in (a if pos & 1 else b))
        raise ValueError(f"circuit has no role label {'BA'[pos & 1]}{pos >> 1}") from None
    return dict(zip(order, range(2 * n + 1)))
