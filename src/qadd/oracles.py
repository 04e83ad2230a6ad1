"""Reference semantics for each synthesized operation.

Oracles are written from the defining recurrences (carry = majority,
propagate = XOR chain, generate = AND), never from the gate-level
constructions they are used to check.  Each oracle is written once, in
packed form: it maps bit columns (one int per wire, bit c = case c) to the
expected output columns, reading wire positions from the circuit's role
map, so it is independent of wire-id conventions.  Each factory returns a
pair ``(per_case, packed)``; the per-case form, which maps one full-width
bit state to the expected output state, is derived from the packed one as
a one-case run.

Oracles model the data wires only and pass ancilla columns through as they
came in.  That every ancilla starts and ends at 0 is checked by ``sim``
alone, which never compares an oracle's ancilla columns.
"""

from __future__ import annotations

from typing import Iterable

from .circuit import Circuit, _operands, _register_wires
from .fanout import _fanout_request
from .sim import Oracle as PerCase, PackedOracle as Packed


def _pair(packed: Packed) -> tuple[PerCase, Packed]:
    """The factories' ``(per_case, packed)`` pair: one state is one case."""
    return (lambda state: packed(list(state), 1)), packed


def adder_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """In-place addition: B <- bits of a+b, Z <- z ^ s_n, A unchanged."""
    by_role = circuit.wires_by_role()
    (b, a), z = _operands(by_role), by_role["Z"]
    n = len(b)

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        carry = 0
        for i in range(n):
            ai, bi = cols[a[i]], cols[b[i]]
            out[b[i]] = ai ^ bi ^ carry
            carry = (ai & bi) | (carry & (ai ^ bi))
        out[z] = cols[z] ^ carry
        return out

    return _pair(packed)


def first_half_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """Adder steps 1-3: b_i <- b_i^a_i, a_i <- a_i^c_i (i>=1), Z <- z ^ c_n."""
    by_role = circuit.wires_by_role()
    (b, a), z = _operands(by_role), by_role["Z"]
    n = len(b)

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        carry = 0
        for i in range(n):
            ai, bi = cols[a[i]], cols[b[i]]
            if i >= 1:
                out[b[i]] = bi ^ ai
                out[a[i]] = ai ^ carry
            carry = (ai & bi) | (carry & (ai ^ bi))
        out[z] = cols[z] ^ carry
        return out

    return _pair(packed)


def init_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """Block p/g map: B_i <- a_i^b_i, A_i <- a_i^c_i^prefix_i, G <- c_w, P <- prefix_w."""
    by_role = circuit.wires_by_role()
    b, a = _operands(by_role)
    g, p = by_role["G"], by_role["P"]
    w = len(b)

    def packed(cols: list[int], n_cases: int) -> list[int]:
        ones = (1 << n_cases) - 1
        out = list(cols)
        carry = 0
        prefix = ones
        for i in range(w):
            ai, bi = cols[a[i]], cols[b[i]]
            out[b[i]] = ai ^ bi
            if i >= 1:
                out[a[i]] = ai ^ carry ^ prefix
            carry = (ai & bi) | (carry & (ai ^ bi))
            prefix &= ai ^ bi
        out[g] = cols[g] ^ carry
        out[p] = cols[p] ^ prefix
        return out

    return _pair(packed)


def sum_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """Block sum: B_j <- a_j ^ b_j ^ d_j with d_0 the carry-in wire (or 0)."""
    by_role = circuit.wires_by_role()
    b, a = _operands(by_role)
    carry_wire = by_role.get("C")
    w = len(b)

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        d = cols[carry_wire] if carry_wire is not None else 0
        for j in range(w):
            aj, bj = cols[a[j]], cols[b[j]]
            out[b[j]] = aj ^ bj ^ d
            d = (aj & bj) | (d & (aj ^ bj))
        return out

    return _pair(packed)


def carry_fold_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """Prefix generate fold: out g_j = g_j ^ (prefix_{j-1} & p_j)."""
    by_role = circuit.wires_by_role()
    g = _register_wires(by_role, "G")
    m = len(g)
    p = [None, *_register_wires(by_role, "P", 1)]
    if len(p) < m:
        raise KeyError(f"P{len(p)}")

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        prefix = cols[g[0]]
        for j in range(1, m):
            prefix = cols[g[j]] ^ (prefix & cols[p[j]])
            out[g[j]] = prefix
        return out

    return _pair(packed)


def fanout_oracle(
    circuit: Circuit, source: int, targets: Iterable[int]
) -> tuple[PerCase, Packed]:
    """Length-t fan-out: every target XORed with the source bit.

    ``source`` and ``targets`` follow the request rule of
    ``synth_fanout_tree`` and must be wires of ``circuit``; any other
    request raises ``ValueError`` here, not when the oracle is called."""
    targets = _fanout_request(source, targets)
    top = max(source, *targets)
    if top >= circuit.wire_count:
        raise ValueError(f"wire {top} out of range for {circuit.wire_count} wires")

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        src = cols[source]
        for t in targets:
            out[t] = cols[t] ^ src
        return out

    return _pair(packed)
