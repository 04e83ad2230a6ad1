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

The frame of a block is the first 2k-2 gates of its carry computation,
steps 1-3 of the ripple adder (``adder_first_half_gates``): the fold
b_i ^= a_i for i >= 1 and the chain a_{i+1} ^= a_i, whose top CNOT writes
the carry slot.  Behind it, the one gate on the slot is the top Toffoli,
at frame + k - 1 (the others write b, a and P).  SUM works inside the
frame, so the circuit opens it once, in the init section, and closes it
once: in the sum section on the top block, at the end of the unwind
section on every other block.  The uncompute-init section, the block sums
and the complement all run inside it.

Each section is built once over all blocks: the block helpers only reorder
what they are handed, so they also order per-position columns over a range
of blocks, which ``zip(*columns)`` reads block by block in C, and the carry
tree is one Toffoli family per level, which the unwind runs backwards less
its last gate.  So the Python work grows with k + log2(m): no section walks
its gates one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain as _chain  # the adder's CNOT family is a local named ``chain``

from .circuit import (
    Circuit, Gate, _ccx, _ccxs, _check_size, _check_wire_count, _check_wires, _collector_paused, _cx,
    _cxs, _shown, _xs,
)
from .ripple import _check_registers, _families, _steps_1_to_3, _unwind, ripple_roles, ripple_wires


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
    w = len(conjuncts) >= 2 conjuncts.  An equal gate at several positions
    may be one object.
    """
    w = len(conjuncts)
    if w < 2 or len(scratch) != w - 1:
        raise ValueError("need w >= 2 conjuncts and w-1 scratch wires")
    _check_wires(conjuncts, scratch, (target,))
    sweep = list(map(_ccx, conjuncts[1:], scratch, scratch[1:]))
    return _ladder(_ccx(conjuncts[-1], scratch[-1], target), _cx(conjuncts[0], scratch[0]), sweep)


def _ladder(top: Gate, seed: Gate, sweep: list[Gate]) -> list[Gate]:
    """The ladder from its top Toffoli ccx(conjuncts[-1], scratch[-1], target),
    its seed cx(conjuncts[0], scratch[0]) and its ascending Toffoli sweep
    ccx(conjuncts[j], scratch[j-1], scratch[j]) for 0 < j < w-1."""
    return [top, *sweep[::-1], seed, *sweep, top]


def init_gates(b: list[int], a: list[int], g: int, p: int) -> list[Gate]:
    """Block propagate/generate computation over w = len(b) >= 2 bits.

    With g and p supplied as zeroed wires, leaves b_i holding the per-bit
    propagate a_i ^ b_i, a_0 unchanged, a_i (i >= 1) holding
    a_i ^ c_i ^ prefix-propagate(i), and XORs the block generate into g and
    the block propagate into p.  3w-2 Toffoli gates: w from the adder first
    half, 2w-2 from the prefix-AND ladder, whose ascending sweep is the first
    half's Toffolis again.  An equal gate at several positions may be one
    object.
    """
    _check_registers(b, a, 2, g, p)
    return _init(b, a, g, p)


def _init(b: list[int], a: list[int], g: int, p: int) -> list[Gate]:
    return _init_body(*_families(b, a, [g]), _ccx(b[-1], a[-1], p), _cx(b[0], a[1]))


def _init_body(
    fold: list[Gate], chain: list[Gate], tof: list[Gate], top: Gate, seed: Gate
) -> list[Gate]:
    """INIT from the block's families (``_families``, with the generate slot as
    the top bit's next wire) and its ladder's top ccx(b_top, a_top, p) and
    seed cx(b_0, a_1)."""
    # cx(a0, b0) is fold[0]; the ladder's ascending sweep is the first half's
    # ccx(b_i, a_i, a_{i+1}), 0 < i < w-1
    return _steps_1_to_3(fold, chain, tof) + fold[:1] + _ladder(top, seed, tof[1:-1])


def sum_gates(b: list[int], a: list[int], carry: int | None = None) -> list[Gate]:
    """In-place block sum: b_j <- a_j ^ b_j ^ d_j with optional carry-in.

    ``d_0`` is the carry wire's value (0 when ``carry`` is None, the
    simplified form used on the lowest block) and d_{j+1} = MAJ(a_j, b_j, d_j).
    The carry wire and the a register are unchanged.  2w-2 Toffoli gates
    for width w >= 1.  An equal gate at several positions may be one object.
    """
    _check_registers(b, a, 1, *(() if carry is None else (carry,)))
    return _sum(b, a, carry)


def _sum(b: list[int], a: list[int], carry: int | None) -> list[Gate]:
    # the carry CNOTs onto a0 bracket the Toffolis; at w = 1 there are none,
    # and the pair would cancel
    bracket = [_cx(carry, a[0])] if carry is not None and len(b) > 1 else []
    carry_in = [] if carry is None else [_cx(carry, b[0])]
    return _sum_body(*_families(b, a, []), bracket, carry_in)


def _sum_body(
    fold: list[Gate], chain: list[Gate], tof: list[Gate], bracket: list[Gate], carry_in: list[Gate]
) -> list[Gate]:
    """SUM from the block's families, of which it reads the chain and the
    Toffolis below the top bit, its carry bracket [cx(carry, a_0)] and its
    carry-in [cx(carry, b_0)], each [] where the block has none."""
    w = len(fold)
    chain, tof = chain[: w - 1], tof[: w - 1]
    unwind = _unwind(fold, tof)
    return fold + chain[::-1] + bracket + tof + unwind + bracket + carry_in + chain + fold[1:]


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
    up, down, undo = _carry(g_wires, p_wires, scratch)
    return list(_chain(*up, down, undo)), scratch


def _carry(
    g_wires: list[int], p_wires: list[int | None], scratch: list[int]
) -> tuple[list[list[Gate]], list[Gate], list[Gate]]:
    """The carry tree's level families: the upward ones in order, each level's
    propagate product (the top level has none; the products are ``up[:-1:2]``)
    then its combine; the downward distribution; and the product uncompute.
    The tree is the three in that order.  Each family's last gate is its level's
    product over, or combine into, the top interval."""
    m = len(g_wires)
    levels = m.bit_length() - 1
    # p_lvl[t][i]: the propagate wire of level-t interval i >= 1 (index 0 unused)
    p_lvl = [p_wires]
    up: list[list[Gate]] = []
    products: list[Gate] = []

    # upward combine: level t merges pairs of level t-1 intervals, each level
    # one Toffoli family; the k-th level product computed goes to scratch[k]
    for t in range(1, levels + 1):
        prev, step = p_lvl[t - 1], 1 << t
        if t < levels:
            cur = scratch[len(products) : len(products) + (m >> t) - 1]
            up.append(_ccxs(zip(prev[2::2], prev[3::2]), zip(cur)))
            products += up[-1]
            p_lvl.append([None, *cur])
        tops = zip(g_wires[step // 2 - 1 :: step], prev[1::2])
        up.append(_ccxs(tops, zip(g_wires[step - 1 :: step])))

    # downward distribution: finalize prefixes at odd multiples of 2**s
    down: list[Gate] = []
    for s in range(levels - 2, -1, -1):
        step = 2 << s
        lows = zip(g_wires[step - 1 :: step], p_lvl[s][2::2])
        down += _ccxs(lows, zip(g_wires[step + step // 2 - 1 :: step]))

    # uncompute the scratch propagate products
    return up, down, products[::-1]


def _tree_backwards(up: list[list[Gate]], down: list[Gate]) -> list[Gate]:
    """The carry tree from ``_carry``'s families run backwards without the top
    interval's gates, each level family's last (m a power of two): the
    products recomputed, the distribution reversed, then the upward families
    reversed.  The combined adder's unwind runs it (``combined_step_gates``)."""
    short = [family[:-1] for family in up]
    return [*_chain(*short[:-1:2]), *down[::-1], *reversed([*_chain(*short)])]


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
    roles = {"B": dict(enumerate(b)), "A": dict(enumerate(a))}, {"G": g, "P": p}
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
    b = list(range(offset, offset + 2 * w, 2))
    a = list(range(offset + 1, offset + 2 * w, 2))
    roles = {"B": dict(enumerate(b)), "A": dict(enumerate(a))}, {"C": 0} if with_carry_in else {}
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
        raise ValueError(
            f"block count must be a power of two >= 4, got {_shown(n)} / 2**{_shown(l - 1)}"
        )
    return m


def carry_tree_scratch_count(n: int, l: int) -> int:
    """Scratch wires of the carry tree over n / 2**(l-1) blocks:
    sum_{t=l}^{log2(n)-1} (n/2**t - 1).

    The tree uses exactly this many (checked for every power-of-two block
    count from 4 to 4096), and this is the one place the count is stated:
    ``carry_gates``, ``synth_carry`` and ``combined_wire_plan`` size their
    scratch lists by it, and ``_carry`` builds on the list it is handed.

    The sum is computed in closed form, so an over-cap request is refused
    in time linear in the bits of n, not quadratic.  With m = n >> (l-1)
    and s = t - l + 1, the terms are (m >> s) - 1 for 1 <= s < B, where B
    is the bit length of m; the shifts sum to m - popcount(m) (Legendre),
    which gives m - popcount(m) - B + 1, and 0 for m = 0, an empty sum.
    """
    _check_size("n", n, 1)
    _check_size("l", l, 1)
    m = n >> (l - 1)
    return m and m - m.bit_count() - m.bit_length() + 1


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
    up, down, undo = _carry(g_wires, [None, *p_wires], scratch)
    registers = {"P": dict(enumerate(p_wires, 1)), "G": dict(enumerate(g_wires))}
    registers["S"] = dict(enumerate(scratch))
    return Circuit._adopt(wire_count, scratch, (registers, {}), list(_chain(*up, down, undo)))


@_collector_paused
def combined_step_gates(params: BlockParams) -> list[tuple[str, list[Gate]]]:
    """The seven sections of the combined adder as named gate lists.

    Wire ids: B_i=2i, A_i=2i+1, Z=2n, per-block generate slots G_j (the top
    block's slot is Z itself), propagate slots P1..P{m-1} (the carry into
    block i reads only G0 and P1..P{i-1}, so block 0 has no propagate),
    then the carry tree's scratch wires.

    Each block's fold-and-chain frame (its first 2k-2 init gates) is
    opened in "init" and left open by "uncompute-init" and "sum"; "sum"
    closes it on the top block, and "unwind", which reverses "init",
    closes it on the others.  Both undo each block behind its frame but
    for its top Toffoli, at frame + k - 1, which writes the carry slot.
    Block 0, the middle blocks and the top block are three column groups.

    "unwind" runs the carry tree backwards without the top interval's
    gates, the last of each level family: each level's propagate product
    over it, in its recompute and its uncompute, and each level's combine
    into Z.  The top block is not unwound, so P{m-1} is 0 there, as is
    every scratch wire before the tree runs, and each of those gates has a
    control at 0; and Z, the top block's carry slot, must keep s_n, where
    the other slots are cleared.
    """
    plan = combined_wire_plan(params)
    n, k, m = params.n, params.k, params.blocks
    b, a, _ = ripple_wires(n)
    g_slots = plan["g_slots"] + [plan["z"]]
    p_slots = plan["p_slots"]
    # each family is built once over all n bits, with the carry slots as the
    # block tops' next wires; a column is a family's gates at one bit position
    # of each block in a group
    fold, chain, tof = _families(b, a, g_slots)
    frame = 2 * k - 2
    inits, tails, sums = [], [], []  # per column group, each block by block
    for lo, hi in (0, 1), (1, m - 1), (m - 1, m):
        bits = [slice(i, hi * k, k) for i in range(lo * k, lo * k + k)]
        cols = [[family[cut] for cut in bits] for family in (fold, chain, tof)]
        init = _steps_1_to_3(*cols)
        bracket, carry_in = [], []  # block 0 has no carry-in
        if lo:
            top = _ccxs(zip(b[bits[-1]], a[bits[-1]]), zip(p_slots[lo - 1 : hi - 1]))
            init = _init_body(*cols, top, _cxs(zip(b[bits[0]]), zip(a[bits[1]])))
            carries = list(zip(g_slots[lo - 1 : hi - 1]))
            bracket = [_cxs(carries, zip(a[bits[0]]))]
            carry_in = [_cxs(carries, zip(b[bits[0]]))]
        inits.append(list(_chain.from_iterable(zip(*init))))

        # step 3: undo step 1 behind each block's frame (its first 2k-2
        # gates) except its top Toffoli, the one gate there on the carry slot
        tail = init[frame : frame + k - 1] + init[frame + k :]
        tails.append(list(_chain.from_iterable(zip(*tail))))

        # step 4: _sum opens with cx(a0, b0) and the frame's 2k-3 gates
        # off the carry slot, which step 3 left in place, so they are skipped.
        # It closes by undoing those 2k-3 gates; blocks below the top skip
        # that too and stay in the frame for step 6, as the complement's X
        # gates on b commute with it
        s = _sum_body(*cols, bracket, carry_in)
        end = len(s) if hi == m else len(s) - (frame - 1)
        sums.append(list(_chain.from_iterable(zip(*s[:1], *s[frame:end]))))

    up, down, undo = _carry(g_slots, [None, *p_slots], plan["scratch"])
    step5 = _xs(zip(b[: n - k]))

    # step 6: reverse of steps 1-3 on every group but the top block's; the
    # complemented sum regenerates the same carries, which zeroes the slots.
    # The tree runs backwards between them, without the top interval's gates
    step6 = [*_chain(*tails[:-1]), *_tree_backwards(up, down), *reversed([*_chain(*inits[:-1])])]

    step7 = list(step5)
    return [
        ("init", list(_chain(*inits))),
        ("carry", list(_chain(*up, down, undo))),
        ("uncompute-init", list(_chain(*tails))[::-1]),
        ("sum", list(_chain(*sums))),
        ("complement", step5),
        ("unwind", step6),
        ("uncomplement", step7),
    ]


def combined_wire_plan(params: BlockParams) -> dict[str, object]:
    """Wire bookkeeping shared by synthesis and tests, checked for the cap first."""
    if not isinstance(params, BlockParams):
        raise TypeError(f"expected a BlockParams, got {type(params).__name__}")
    n, m = params.n, params.blocks
    scratch_count = carry_tree_scratch_count(m, 1)
    wire_count = _check_wire_count(2 * n + 2 * m - 1 + scratch_count)
    g_slots = list(range(2 * n + 1, 2 * n + m))
    p_slots = list(range(2 * n + m, 2 * n + 2 * m - 1))
    scratch = list(range(2 * n + 2 * m - 1, wire_count))
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

    Ancillae, for m = n/k blocks: m-1 generate slots G0..G{m-2}, m-1
    propagate slots P1..P{m-1}, and the carry tree's scratch wires,
    3n/k - log2(n/k) - 3 in total, all restored to 0.
    """
    plan = combined_wire_plan(params)
    registers, named = ripple_roles(*ripple_wires(params.n))  # the data wires as in the ripple adder
    g, p, s = plan["g_slots"], plan["p_slots"], plan["scratch"]
    registers.update(G=dict(enumerate(g)), P=dict(enumerate(p, 1)), S=dict(enumerate(s)))
    ancilla = g + p + s
    gates = list(_chain.from_iterable(section for _, section in combined_step_gates(params)))
    return Circuit._adopt(plan["wire_count"], ancilla, (registers, named), gates)
