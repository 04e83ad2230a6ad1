"""Block carry-lookahead adder: INIT/SUM block gates, carry tree, combined circuit.

The combined adder splits the n-bit operands into n/k blocks of width
k = 2**floor(log2(d)) for a requested depth parameter d >= 2.  Each block
computes its propagate/generate pair (INIT), a parallel-prefix tree turns
block generates into block-boundary carries (the carry tree), block sums
are formed with those carries (SUM), and the carries are then uncomputed
through the bitwise complement of the sum, which generates the same
carries as the original operands.  The top block's carry slot is the Z
wire itself, which is how Z ends up holding z ^ s_n while every declared
ancilla returns to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, _ccx, _check_wires, _cx, _x
from .ripple import _first_half, ripple_roles, ripple_wires


@dataclass(frozen=True)
class BlockParams:
    """Operand width n (a power of two) and depth parameter d >= 2.

    Derived: block width k = 2**floor(log2(d)), tree level l = floor(log2(d))+1,
    block count n/k.  Requires n divisible by k and n/k >= 4.
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.n % self.k:
            raise ValueError(f"n={self.n} not divisible by block width {self.k}")
        if self.n // self.k < 4:
            raise ValueError(
                f"need at least 4 blocks, got {self.n // self.k} (n={self.n}, d={self.d})"
            )

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
    w = len(b)
    if w < 2 or len(a) != w:
        raise ValueError("block width must be >= 2 with equal registers")
    _check_wires(b, a, (g, p))
    gates = _first_half(b, a, g)
    gates.append(_cx(a[0], b[0]))
    gates += prefix_and_ladder_gates(conjuncts=b, scratch=a[1:], target=p)
    return gates


def sum_gates(b: list[int], a: list[int], carry: int | None = None) -> list[Gate]:
    """In-place block sum: b_j <- a_j ^ b_j ^ d_j with optional carry-in.

    ``d_0`` is the carry wire's value (0 when ``carry`` is None, the
    simplified form used on the lowest block) and d_{j+1} = MAJ(a_j, b_j, d_j).
    The carry wire and the a register are unchanged.  2w-2 Toffoli gates
    for width w >= 1.
    """
    w = len(b)
    if w < 1 or len(a) != w:
        raise ValueError("block width must be >= 1 with equal registers")
    _check_wires(b, a, () if carry is None else (carry,))
    gates: list[Gate] = []
    gates += [_cx(a[i], b[i]) for i in range(w)]
    gates += [_cx(a[i], a[i + 1]) for i in range(w - 2, -1, -1)]
    if carry is not None:
        gates.append(_cx(carry, a[0]))
    gates += [_ccx(b[i], a[i], a[i + 1]) for i in range(w - 1)]
    for i in range(w - 1, 0, -1):
        gates.append(_cx(a[i], b[i]))
        gates.append(_ccx(b[i - 1], a[i - 1], a[i]))
    if carry is not None:
        gates.append(_cx(carry, a[0]))
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
    uncompute of the scratch products.  Scratch wires are allocated
    consecutively from ``first_scratch``; the count is
    sum over t=1..log2(m)-1 of (m/2**t - 1) and all of them return to 0.
    """
    m = len(g_wires)
    if m < 4 or m & (m - 1):
        raise ValueError(f"block count must be a power of two >= 4, got {m}")
    if len(p_wires) != m:
        raise ValueError("need m propagate slots (index 0 unused)")
    levels = m.bit_length() - 1
    scratch_count = sum((m >> t) - 1 for t in range(1, levels))
    _check_wires(g_wires, p_wires[1:], range(first_scratch, first_scratch + scratch_count))
    p_lvl: list[dict[int, int]] = [{i: p_wires[i] for i in range(1, m)}]
    scratch: list[int] = []
    gates: list[Gate] = []
    compute_order: list[Gate] = []

    # upward combine: level t merges pairs of level t-1 intervals
    for t in range(1, levels + 1):
        blocks_t = m >> t
        prev = p_lvl[t - 1]
        if t < levels:
            cur: dict[int, int] = {}
            for i in range(1, blocks_t):
                w = first_scratch + len(scratch)
                scratch.append(w)
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
    return gates, scratch


def synth_init(w: int) -> Circuit:
    """Standalone block p/g circuit: wires B_i=2i, A_i=2i+1, G=2w, P=2w+1.

    G and P are expected to be 0 on input but hold outputs afterwards, so
    they are not declared in the circuit's (restored) ancilla set.
    """
    if w < 2:
        raise ValueError("block width must be >= 2")
    b, a, _ = ripple_wires(w)
    g, p = 2 * w, 2 * w + 1
    roles = {b[i]: f"B{i}" for i in range(w)}
    roles.update({a[i]: f"A{i}" for i in range(w)})
    roles[g] = "G"
    roles[p] = "P"
    circuit = Circuit(2 * w + 2, ancilla=(), role_map=roles)
    circuit.extend(init_gates(b, a, g, p))
    return circuit


def synth_sum(w: int, with_carry_in: bool = True) -> Circuit:
    """Standalone block sum circuit.

    With a carry-in the wires are C=0, B_i=1+2i, A_i=2+2i; the simplified
    form drops the carry wire (B_i=2i, A_i=2i+1).  No ancilla.
    """
    if w < 1:
        raise ValueError("block width must be >= 1")
    if with_carry_in:
        carry: int | None = 0
        b = [1 + 2 * i for i in range(w)]
        a = [2 + 2 * i for i in range(w)]
        wire_count = 2 * w + 1
        roles = {0: "C"}
    else:
        carry = None
        b, a, _ = ripple_wires(w)
        wire_count = 2 * w
        roles = {}
    roles.update({b[i]: f"B{i}" for i in range(w)})
    roles.update({a[i]: f"A{i}" for i in range(w)})
    circuit = Circuit(wire_count, ancilla=(), role_map=roles)
    circuit.extend(sum_gates(b, a, carry))
    return circuit


def carry_tree_scratch_count(n: int, l: int) -> int:
    """Scratch-wire bound for the carry tree: sum_{t=l}^{log2(n)-1} (n/2**t - 1)."""
    return sum((n >> t) - 1 for t in range(l, n.bit_length() - 1))


def synth_carry(n: int, l: int) -> Circuit:
    """Standalone carry tree for m = n / 2**(l-1) blocks.

    Wire order follows the operation's signature: propagate wires
    P1..P{m-1} first (ids 0..m-2), then generate wires G0..G{m-1}
    (ids m-1..2m-2), then scratch ancillae.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    if l < 1:
        raise ValueError("l must be >= 1")
    m = n >> (l - 1)
    if m < 4:
        raise ValueError(f"need n/2**(l-1) >= 4, got {m}")
    p_wires: list[int | None] = [None] + [i - 1 for i in range(1, m)]
    g_wires = [m - 1 + j for j in range(m)]
    gates, scratch = carry_gates(g_wires, p_wires, first_scratch=2 * m - 1)
    roles = {i - 1: f"P{i}" for i in range(1, m)}
    roles.update({g_wires[j]: f"G{j}" for j in range(m)})
    roles.update({w: f"S{i}" for i, w in enumerate(scratch)})
    circuit = Circuit(2 * m - 1 + len(scratch), ancilla=scratch, role_map=roles)
    circuit.extend(gates)
    return circuit


def combined_step_gates(params: BlockParams) -> list[tuple[str, list[Gate]]]:
    """The seven sections of the combined adder as named gate lists.

    Wire ids: B_i=2i, A_i=2i+1, Z=2n, per-block generate slots G_j (the top
    block's slot is Z itself), per-block propagate slots P_j, then the
    carry tree's scratch wires.
    """
    n, k, m = params.n, params.k, params.blocks
    plan = combined_wire_plan(params)
    b, a, _ = ripple_wires(n)
    g_slots = plan["g_slots"] + [plan["z"]]
    p_slots = plan["p_slots"]

    def bb(j: int) -> list[int]:
        return b[j * k : (j + 1) * k]

    def ba(j: int) -> list[int]:
        return a[j * k : (j + 1) * k]

    step1: list[Gate] = []
    for j in range(m):
        step1 += init_gates(bb(j), ba(j), g_slots[j], p_slots[j])

    carry, _ = carry_gates(
        g_slots, [None] + p_slots[1:], first_scratch=2 * n + 2 * m
    )

    # step 3: undo step 1 except on the carry slots, which keep their value
    carry_slots = set(g_slots)
    step3 = [g for g in reversed(step1) if carry_slots.isdisjoint(g.operands)]

    step4 = sum_gates(bb(0), ba(0), None)
    for j in range(m - 1):
        step4 += sum_gates(bb(j + 1), ba(j + 1), g_slots[j])

    step5 = [_x(b[i]) for i in range(n - k)]

    # step 6: reverse of steps 1-3 except on the top block's registers; the
    # complemented sum regenerates the same carries, which zeroes the slots
    top = set(bb(m - 1) + ba(m - 1))
    first_half = step1 + carry + step3
    step6 = [g for g in reversed(first_half) if top.isdisjoint(g.operands)]

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
    """Wire bookkeeping shared by synthesis and tests."""
    n, m = params.n, params.blocks
    scratch_count = carry_tree_scratch_count(n, params.l)
    g_slots = [2 * n + 1 + j for j in range(m - 1)]
    p_slots = [2 * n + m + j for j in range(m)]
    scratch = [2 * n + 2 * m + i for i in range(scratch_count)]
    return {
        "z": 2 * n,
        "g_slots": g_slots,
        "p_slots": p_slots,
        "scratch": scratch,
        "wire_count": 2 * n + 2 * m + scratch_count,
    }


def synth_combined(params: BlockParams) -> Circuit:
    """Full combined adder for ADD_n; same in/out contract as the ripple adder.

    Ancillae: m-1 generate slots, m propagate slots, and the carry tree's
    scratch wires, 3n/k - log2(n/k) - 2 in total, all restored to 0.
    """
    n, m = params.n, params.blocks
    plan = combined_wire_plan(params)
    roles = ripple_roles(n)  # the data wires are laid out as in the ripple adder
    roles.update({w: f"G{j}" for j, w in enumerate(plan["g_slots"])})
    roles.update({w: f"P{j}" for j, w in enumerate(plan["p_slots"])})
    roles.update({w: f"S{i}" for i, w in enumerate(plan["scratch"])})
    ancilla = plan["g_slots"] + plan["p_slots"] + plan["scratch"]
    circuit = Circuit(plan["wire_count"], ancilla=ancilla, role_map=roles)
    for _, gates in combined_step_gates(params):
        circuit.extend(gates)
    return circuit
