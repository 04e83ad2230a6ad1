"""Block carry-lookahead adder: INIT/SUM block gates, carry tree, combined circuit.

The combined adder splits the n-bit operands into n/k blocks of width
k = 2**floor(log2(d)) for a requested depth parameter d >= 2.  Each block
computes its propagate/generate pair (INIT; block 0 only its generate, as
no carry reads its propagate), a parallel-prefix tree turns block
generates into block-boundary carries (the carry tree), block sums
are formed with those carries (SUM), and the carries are then uncomputed
through the bitwise complement of the sum, which generates the same
carries as the original operands.  The top block's carry slot is the Z
wire itself, which is how Z ends up holding z ^ s_n while every declared
ancilla returns to 0.

The frame of a block is the first 2k-2 gates of its carry computation
(``ripple._first_half``): the fold b_i ^= a_i for i >= 1 and the chain
a_{i+1} ^= a_i, whose top CNOT writes the carry slot.  SUM works inside the
same frame, so the circuit opens it once, in the init section, and closes
it once: in the sum section on the top block, at the end of the unwind
section on every other block.  The uncompute-init section, the block sums
and the complement all run inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit, Gate, _ccx, _check_size, _check_wire_count, _check_wires, _collector_paused, _cx, _x,
    _register_labels,
)
from .ripple import _check_registers, _first_half, ripple_roles, ripple_wires


@dataclass(frozen=True)
class BlockParams:
    """Operand width n (a power of two) and depth parameter d >= 2.

    Derived: block width k = 2**floor(log2(d)), tree level l = floor(log2(d))+1,
    block count n/k, which must follow ``_block_count``.
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        _check_size("d", self.d, 2)
        _block_count(self.n, self.l)

    @property
    def k(self) -> int:
        return 1 << (self.d.bit_length() - 1)

    @property
    def l(self) -> int:
        return self.d.bit_length()

    @property
    def blocks(self) -> int:
        return self.n // self.k


def prefix_and_ladder_gates(conjuncts: list[int], scratch: list[int], target: int) -> list[Gate]:
    """XOR the AND of all conjuncts into ``target`` using dirty scratch wires.

    ``scratch[j-1]`` may hold any value; it ends XOR-shifted by exactly the
    prefix AND of conjuncts[0..j-1].  Structure: a descending Toffoli sweep
    pre-pollutes each scratch wire with its neighbour's dirt, a CNOT seeds
    the first prefix, and an ascending sweep deposits clean prefixes while
    cancelling the pollution.  Uses 2w-2 Toffoli gates and one CNOT for
    w = len(conjuncts) >= 2 conjuncts.
    """
    w = len(conjuncts)
    if w < 2 or len(scratch) != w - 1:
        raise ValueError("need w >= 2 conjuncts and w-1 scratch wires")
    _check_wires(conjuncts, scratch, (target,))
    return _ladder(conjuncts, scratch, target)


def _ladder(conjuncts: list[int], scratch: list[int], target: int) -> list[Gate]:
    w = len(conjuncts)
    gates: list[Gate] = [_ccx(conjuncts[w - 1], scratch[w - 2], target)]
    for j in range(w - 1, 1, -1):
        gates.append(_ccx(conjuncts[j - 1], scratch[j - 2], scratch[j - 1]))
    gates.append(_cx(conjuncts[0], scratch[0]))
    for j in range(2, w):
        gates.append(_ccx(conjuncts[j - 1], scratch[j - 2], scratch[j - 1]))
    gates.append(_ccx(conjuncts[w - 1], scratch[w - 2], target))
    return gates


def init_gates(b: list[int], a: list[int], g: int, p: int) -> list[Gate]:
    """Block propagate/generate computation over w = len(b) >= 2 bits.

    With g and p supplied as zeroed wires, leaves b_i holding the per-bit
    propagate a_i ^ b_i, a_0 unchanged, a_i (i >= 1) holding
    a_i ^ c_i ^ prefix-propagate(i), and XORs the block generate into g and
    the block propagate into p.  3w-2 Toffoli gates: w from the adder first
    half, 2w-2 from the prefix-AND ladder.
    """
    _check_registers(b, a, 2, g, p)
    return _init(b, a, g, p)


def _init(b: list[int], a: list[int], g: int, p: int) -> list[Gate]:
    gates = _first_half(b, a, g)
    gates.append(_cx(a[0], b[0]))
    gates += _ladder(b, a[1:], p)
    return gates


def sum_gates(b: list[int], a: list[int], carry: int | None = None) -> list[Gate]:
    """In-place block sum: b_j <- a_j ^ b_j ^ d_j with optional carry-in.

    ``d_0`` is the carry wire's value (0 when ``carry`` is None, the
    simplified form used on the lowest block) and d_{j+1} = MAJ(a_j, b_j, d_j).
    The carry wire and the a register are unchanged.  2w-2 Toffoli gates
    for width w >= 1.
    """
    _check_registers(b, a, 1, *(() if carry is None else (carry,)))
    return _sum(b, a, carry)


def _sum(b: list[int], a: list[int], carry: int | None) -> list[Gate]:
    w = len(b)
    gates: list[Gate] = []
    gates += [_cx(a[i], b[i]) for i in range(w)]
    gates += [_cx(a[i], a[i + 1]) for i in range(w - 2, -1, -1)]
    # the carry CNOTs onto a0 bracket the Toffolis; at w = 1 there are none,
    # and the pair would cancel
    carry_into_a0 = carry is not None and w > 1
    if carry_into_a0:
        gates.append(_cx(carry, a[0]))
    gates += [_ccx(b[i], a[i], a[i + 1]) for i in range(w - 1)]
    for i in range(w - 1, 0, -1):
        gates.append(_cx(a[i], b[i]))
        gates.append(_ccx(b[i - 1], a[i - 1], a[i]))
    if carry_into_a0:
        gates.append(_cx(carry, a[0]))
    if carry is not None:
        gates.append(_cx(carry, b[0]))
    gates += [_cx(a[i], a[i + 1]) for i in range(w - 1)]
    gates += [_cx(a[i], b[i]) for i in range(1, w)]
    return gates


def carry_gates(
    g_wires: list[int], p_wires: list[int | None], first_scratch: int
) -> tuple[list[Gate], list[int]]:
    """Parallel-prefix carry tree over m block generate/propagate wires.

    ``g_wires[j]`` holds the generate of block interval [j, j+1) and ends
    holding the prefix generate over [0, j+1); ``p_wires[i]`` (valid for
    1 <= i <= m-1, index 0 unused) holds block propagates and is left
    unchanged.  m must be a power of two >= 4.

    Structure: an upward combine (with higher-level propagate products on
    fresh scratch wires), a downward carry distribution, then an in-pass
    uncompute of the scratch products.  The scratch wires are
    ``first_scratch``, ``first_scratch + 1``, ... in the order the level
    products are computed, ``carry_tree_scratch_count(m, 1)`` of them, and
    all of them return to 0.  Returns the gates and that scratch list, the
    one that was checked.
    """
    m = _block_count(len(g_wires), 1)
    if len(p_wires) != m:
        raise ValueError("need m propagate slots (index 0 unused)")
    # a first_scratch that is not an int cannot offset a range: check it alone
    scratch = [first_scratch]
    if type(first_scratch) is int:
        scratch = list(range(first_scratch, first_scratch + carry_tree_scratch_count(m, 1)))
    _check_wires(g_wires, p_wires[1:], scratch)
    return _carry(g_wires, p_wires, scratch), scratch


def _carry(g_wires: list[int], p_wires: list[int | None], scratch: list[int]) -> list[Gate]:
    m = len(g_wires)
    levels = m.bit_length() - 1
    p_lvl: list[dict[int, int]] = [{i: p_wires[i] for i in range(1, m)}]
    gates: list[Gate] = []
    compute_order: list[Gate] = []

    # upward combine: level t merges pairs of level t-1 intervals; the k-th
    # level product computed goes to scratch[k]
    for t in range(1, levels + 1):
        blocks_t = m >> t
        prev = p_lvl[t - 1]
        if t < levels:
            cur: dict[int, int] = {}
            for i in range(1, blocks_t):
                w = scratch[len(compute_order)]
                gate = _ccx(prev[2 * i], prev[2 * i + 1], w)
                gates.append(gate)
                compute_order.append(gate)
                cur[i] = w
            p_lvl.append(cur)
        step = 1 << t
        half = step >> 1
        for i in range(blocks_t):
            gates.append(
                _ccx(g_wires[i * step + half - 1], prev[2 * i + 1], g_wires[(i + 1) * step - 1])
            )

    # downward distribution: finalize prefixes at odd multiples of 2**s
    for s in range(levels - 2, -1, -1):
        step = 1 << s
        q = 3
        while q * step <= m:
            gates.append(
                _ccx(g_wires[(q - 1) * step - 1], p_lvl[s][q - 1], g_wires[q * step - 1])
            )
            q += 2

    # uncompute the scratch propagate products
    gates += reversed(compute_order)
    return gates


@_collector_paused
def synth_init(w: int) -> Circuit:
    """Standalone block p/g circuit: wires B_i=2i, A_i=2i+1, G=2w, P=2w+1.

    G and P are expected to be 0 on input but hold outputs afterwards, so
    they are not declared in the circuit's (restored) ancilla set.
    """
    _check_size("w", w, 2)
    wire_count = _check_wire_count(2 * w + 2)
    b, a, _ = ripple_wires(w)
    g, p = 2 * w, 2 * w + 1
    roles = _register_labels("B", b)
    roles.update(_register_labels("A", a))
    roles[g] = "G"
    roles[p] = "P"
    return Circuit._adopt(wire_count, (), roles, _init(b, a, g, p))


@_collector_paused
def synth_sum(w: int, with_carry_in: bool = True) -> Circuit:
    """Standalone block sum circuit.

    With a carry-in the wires are C=0, B_i=1+2i, A_i=2+2i; the simplified
    form drops the carry wire (B_i=2i, A_i=2i+1).  No ancilla.
    """
    _check_size("w", w, 1)
    if type(with_carry_in) is not bool:
        raise ValueError(f"with_carry_in must be a bool, got {with_carry_in!r}")
    offset = int(with_carry_in)  # the carry wire, when there is one, is wire 0
    wire_count = _check_wire_count(2 * w + offset)
    b = [offset + 2 * i for i in range(w)]
    a = [offset + 2 * i + 1 for i in range(w)]
    roles = {0: "C"} if with_carry_in else {}
    roles.update(_register_labels("B", b))
    roles.update(_register_labels("A", a))
    carry = 0 if with_carry_in else None
    return Circuit._adopt(wire_count, (), roles, _sum(b, a, carry))


def _block_count(n: int, l: int) -> int:
    """The one rule for the carry tree's block count m, which it returns: n / 2**(l-1)
    blocks, a power of two >= 4 with nothing left over.  n and l follow the size
    rule, and the block width 2**(l-1) is never built, however large l is."""
    _check_size("n", n, 0)
    _check_size("l", l, 1)
    m = n >> (l - 1)
    if m < 4 or n & (n - 1):
        raise ValueError(f"block count must be a power of two >= 4, got {n} / 2**{l - 1}")
    return m


def carry_tree_scratch_count(n: int, l: int) -> int:
    """Scratch wires of the carry tree over n / 2**(l-1) blocks:
    sum_{t=l}^{log2(n)-1} (n/2**t - 1).

    The tree uses exactly this many (checked for every power-of-two block
    count from 4 to 4096), and this is the one place the count is stated:
    ``carry_gates``, ``synth_carry`` and ``combined_wire_plan`` size their
    scratch lists by it, and ``_carry`` builds on the list it is handed.
    """
    _check_size("n", n, 1)
    _check_size("l", l, 1)
    return sum((n >> t) - 1 for t in range(l, n.bit_length() - 1))


@_collector_paused
def synth_carry(n: int, l: int) -> Circuit:
    """Standalone carry tree for m = n / 2**(l-1) blocks.

    Wire order follows the operation's signature: propagate wires
    P1..P{m-1} first (ids 0..m-2), then generate wires G0..G{m-1}
    (ids m-1..2m-2), then scratch ancillae.
    """
    m = _block_count(n, l)
    wire_count = _check_wire_count(2 * m - 1 + carry_tree_scratch_count(m, 1))
    p_wires = list(range(m - 1))
    g_wires = list(range(m - 1, 2 * m - 1))
    scratch = list(range(2 * m - 1, wire_count))
    gates = _carry(g_wires, [None, *p_wires], scratch)
    roles = _register_labels("P", p_wires, 1)
    roles.update(_register_labels("G", g_wires))
    roles.update(_register_labels("S", scratch))
    return Circuit._adopt(wire_count, scratch, roles, gates)


def combined_step_gates(params: BlockParams) -> list[tuple[str, list[Gate]]]:
    """The seven sections of the combined adder as named gate lists.

    Wire ids: B_i=2i, A_i=2i+1, Z=2n, per-block generate slots G_j (the top
    block's slot is Z itself), propagate slots P1..P{m-1} (the carry into
    block i reads only G0 and P1..P{i-1}, so block 0 has no propagate),
    then the carry tree's scratch wires.

    Each block's fold-and-chain frame (its first 2k-2 init gates) is
    opened in "init" and left open by "uncompute-init" and "sum"; "sum"
    closes it on the top block, and "unwind", which reverses "init",
    closes it on the others.
    """
    n, k, m = params.n, params.k, params.blocks
    plan = combined_wire_plan(params)
    b, a, _ = ripple_wires(n)
    g_slots = plan["g_slots"] + [plan["z"]]
    p_slots = plan["p_slots"]
    regs = [(b[j * k : (j + 1) * k], a[j * k : (j + 1) * k]) for j in range(m)]

    blocks = [_first_half(*regs[0], g_slots[0])]
    blocks += [_init(*regs[j], g_slots[j], p_slots[j - 1]) for j in range(1, m)]
    step1 = [gate for block in blocks for gate in block]

    carry = _carry(g_slots, [None, *p_slots], plan["scratch"])

    # step 3: undo step 1 behind each block's frame (its first 2k-2 gates)
    # except on the carry slots, which keep their value
    frame = 2 * k - 2
    carry_slots = set(g_slots)
    tails = [
        [g for g in block[frame:] if carry_slots.isdisjoint(g.operands)] for block in blocks
    ]
    step3 = [g for tail in reversed(tails) for g in reversed(tail)]

    # step 4: _sum opens with cx(a0, b0) and the frame's 2k-3 gates
    # off the carry slot, which step 3 left in place, so they are skipped.
    # It closes by undoing those 2k-3 gates; blocks below the top skip that
    # too and stay in the frame for step 6, as the complement's X gates on
    # b commute with it
    step4: list[Gate] = []
    for j in range(m):
        s = _sum(*regs[j], g_slots[j - 1] if j else None)
        end = len(s) if j == m - 1 else len(s) - (frame - 1)
        step4 += s[:1] + s[frame:end]

    step5 = [_x(b[i]) for i in range(n - k)]

    # step 6: reverse of steps 1-3 on the block lists below the top block;
    # the complemented sum regenerates the same carries, which zeroes the
    # slots.  P{m-1} and the scratch are 0 while the carry tree runs
    # backwards, so the tree gates with a known-zero control are left out
    step6 = [g for tail in tails[:-1] for g in tail]
    zero = {p_slots[-1], *plan["scratch"]}
    for gate in reversed(carry):
        if zero.isdisjoint(gate.controls):
            step6.append(gate)
            zero.difference_update(gate.targets)
    step6 += [g for block in reversed(blocks[:-1]) for g in reversed(block)]

    step7 = list(step5)
    return [
        ("init", step1),
        ("carry", carry),
        ("uncompute-init", step3),
        ("sum", step4),
        ("complement", step5),
        ("unwind", step6),
        ("uncomplement", step7),
    ]


def combined_wire_plan(params: BlockParams) -> dict[str, object]:
    """Wire bookkeeping shared by synthesis and tests, checked for the cap first."""
    n, m = params.n, params.blocks
    scratch_count = carry_tree_scratch_count(m, 1)
    wire_count = _check_wire_count(2 * n + 2 * m - 1 + scratch_count)
    g_slots = [2 * n + 1 + j for j in range(m - 1)]
    p_slots = [2 * n + m + j for j in range(m - 1)]
    scratch = [2 * n + 2 * m - 1 + i for i in range(scratch_count)]
    return {
        "z": 2 * n,
        "g_slots": g_slots,
        "p_slots": p_slots,
        "scratch": scratch,
        "wire_count": wire_count,
    }


@_collector_paused
def synth_combined(params: BlockParams) -> Circuit:
    """Full combined adder for ADD_n; same in/out contract as the ripple adder.

    Ancillae: m-1 generate slots G0..G{m-2}, m-1 propagate slots
    P1..P{m-1}, and the carry tree's scratch wires, 3n/k - log2(n/k) - 3
    in total, all restored to 0.
    """
    n, m = params.n, params.blocks
    plan = combined_wire_plan(params)
    roles = ripple_roles(n)  # the data wires are laid out as in the ripple adder
    roles.update(_register_labels("G", plan["g_slots"]))
    roles.update(_register_labels("P", plan["p_slots"], 1))
    roles.update(_register_labels("S", plan["scratch"]))
    ancilla = plan["g_slots"] + plan["p_slots"] + plan["scratch"]
    gates = [gate for _, section in combined_step_gates(params) for gate in section]
    return Circuit._adopt(plan["wire_count"], ancilla, roles, gates)
