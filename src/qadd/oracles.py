"""Reference semantics for each synthesized operation.

Oracles are written from the defining recurrences (carry = majority,
propagate = XOR chain, generate = AND), never from the gate-level
constructions they are used to check, and ``tests/test_oracles.py`` checks
every one against an integer model.  The carry recurrence has one home,
``_carries``: the adder, first-half, INIT and SUM oracles read their
carries from it and state only their outputs.  Each oracle is written once,
in packed form: it maps bit columns (one int per wire, bit c = case c) to
the expected output columns, reading wire positions from the circuit's
registers and named roles, so it is independent of wire-id conventions.
Each factory returns a pair ``(per_case, packed)``; the per-case form is
derived from the packed one as a one-case run.

The column contract, which ``sim.run_packed`` keeps too: a column is used
only through ``^``, ``&`` and ``|`` (an int may stand on either side), the
column list only through ``len``, ``list(...)`` and indexing, and the mask
``(1 << n_cases) - 1`` is built from the case count alone.  No column is
tested for truth or compared, so any type with those operators runs.

Oracles model the data wires only and pass ancilla columns through as they
came in.  That every ancilla starts and ends at 0 is checked by ``sim``
alone, which never compares an oracle's ancilla columns.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from .circuit import Circuit, _operands, _register, _shown
from .fanout import _fanout_request
from .sim import Oracle as PerCase, PackedOracle as Packed


def _pair(packed: Packed) -> tuple[PerCase, Packed]:
    """The factories' ``(per_case, packed)`` pair: one state is one case."""
    return (lambda state: packed(list(state), 1)), packed


def _carries(cols: list[int], b: list[int], a: list[int], carry: int) -> Iterator[int]:
    """c_0 = ``carry``, then c_{i+1} = MAJ(a_i, b_i, c_i), each made when read:
    zipped after the registers, c_i comes beside column i and c_n by ``next``."""
    yield carry
    for b_wire, a_wire in zip(b, a):
        ai, bi = cols[a_wire], cols[b_wire]
        carry = (ai & bi) | (carry & (ai ^ bi))
        yield carry


def adder_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """In-place addition: B <- bits of a+b, Z <- z ^ s_n, A unchanged."""
    (b, a), z = _operands(circuit), circuit._roles[1]["Z"]

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        carries = _carries(cols, b, a, 0)
        for bi, ai, c in zip(b, a, carries):
            out[bi] = cols[ai] ^ cols[bi] ^ c
        out[z] = cols[z] ^ next(carries)
        return out

    return _pair(packed)


def first_half_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """Adder steps 1-3: b_i <- b_i^a_i, a_i <- a_i^c_i (i>=1), Z <- z ^ c_n."""
    (b, a), z = _operands(circuit), circuit._roles[1]["Z"]

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        carries = _carries(cols, b, a, 0)
        for bi, ai, c in islice(zip(b, a, carries), 1, None):
            out[bi] = cols[bi] ^ cols[ai]
            out[ai] = cols[ai] ^ c
        out[z] = cols[z] ^ next(carries)
        return out

    return _pair(packed)


def init_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """Block p/g map: B_i <- a_i^b_i, A_i <- a_i^c_i^prefix_i, G <- c_w, P <- prefix_w."""
    (b, a), g, p = _operands(circuit), circuit._roles[1]["G"], circuit._roles[1]["P"]

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        carries = _carries(cols, b, a, 0)
        prefix = (1 << n_cases) - 1
        for i, (bi, ai, c) in enumerate(zip(b, a, carries)):
            out[bi] = cols[ai] ^ cols[bi]
            if i >= 1:
                out[ai] = cols[ai] ^ c ^ prefix
            prefix &= out[bi]
        out[g] = cols[g] ^ next(carries)
        out[p] = cols[p] ^ prefix
        return out

    return _pair(packed)


def sum_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """Block sum: B_j <- a_j ^ b_j ^ d_j with d_0 the carry-in wire (or 0)."""
    b, a = _operands(circuit)
    carry_wire = circuit._roles[1].get("C")

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        d = cols[carry_wire] if carry_wire is not None else 0
        for bj, aj, dj in zip(b, a, _carries(cols, b, a, d)):
            out[bj] = cols[aj] ^ cols[bj] ^ dj
        return out

    return _pair(packed)


def carry_fold_oracle(circuit: Circuit) -> tuple[PerCase, Packed]:
    """Prefix generate fold: out g_j = g_j ^ (prefix_{j-1} & p_j)."""
    g = _register(circuit, "G")
    m = len(g)
    p = [None, *_register(circuit, "P", 1)]
    if not g:
        raise KeyError("G0")
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
        raise ValueError(f"wire {_shown(top)} out of range for {circuit.wire_count} wires")

    def packed(cols: list[int], n_cases: int) -> list[int]:
        out = list(cols)
        src = cols[source]
        for t in targets:
            out[t] = cols[t] ^ src
        return out

    return _pair(packed)
