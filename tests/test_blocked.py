import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qadd
from qadd import (
    BlockParams,
    Circuit,
    build_circuit,
    carry_gates,
    compute_stats,
    run,
    synth_carry,
    synth_combined,
    synth_init,
    synth_sum,
    verify_exhaustive,
    verify_random,
)
from qadd.blocked import (
    carry_tree_scratch_count,
    combined_step_gates,
    combined_wire_plan,
    prefix_and_ladder_gates,
)
from qadd.oracles import adder_oracle, carry_fold_oracle, init_oracle, sum_oracle
from qadd.sim import _random_columns, run_packed


def test_block_params():
    p = BlockParams(16, 4)
    assert (p.k, p.l, p.blocks) == (4, 3, 4)
    assert BlockParams(8, 3).k == 2  # k is the power of two below d
    with pytest.raises(ValueError):
        BlockParams(12, 2)  # not a power of two
    with pytest.raises(ValueError):
        BlockParams(16, 1)
    with pytest.raises(ValueError):
        BlockParams(8, 4)  # only 2 blocks


def test_prefix_and_ladder_exhaustive():
    # w = 5: target gets the AND of the conjuncts, each scratch wire is
    # shifted by exactly the prefix AND before it, conjuncts untouched
    w = 5
    conj = list(range(w))
    scratch = list(range(w, 2 * w - 1))
    target = 2 * w - 1
    c = Circuit(2 * w, gates=prefix_and_ladder_gates(conj, scratch, target))
    for case in range(1 << (2 * w)):
        state = [(case >> i) & 1 for i in range(2 * w)]
        out = run(c, state)
        assert out[:w] == state[:w]
        prefix = 1
        for j in range(1, w):
            prefix &= state[j - 1]
            assert out[scratch[j - 1]] == state[scratch[j - 1]] ^ prefix
        assert out[target] == state[target] ^ (prefix & state[w - 1])


def test_prefix_and_ladder_trivial_cases():
    w = 4
    c = Circuit(2 * w, gates=prefix_and_ladder_gates(list(range(w)), list(range(w, 2 * w - 1)), 2 * w - 1))
    all_ones = run(c, [1] * w + [0] * w)
    assert all_ones[2 * w - 1] == 1  # AND of ones flips the target
    one_zero = run(c, [1, 0, 1, 1] + [0] * w)
    assert one_zero[2 * w - 1] == 0


def test_prefix_and_ladder_validation():
    with pytest.raises(ValueError):
        prefix_and_ladder_gates([0], [], 1)
    with pytest.raises(ValueError):
        prefix_and_ladder_gates([0, 1], [2, 3], 4)


def test_init_rejects_width_one():
    with pytest.raises(ValueError):
        synth_init(1)


@pytest.mark.parametrize("w", [2, 3, 5])
def test_init_oracle_equality(w):
    c = synth_init(w)
    _, packed = init_oracle(c)
    assert verify_exhaustive(c, packed_oracle=packed, free_wires=range(2 * w)).ok


def test_init_zero_operands():
    c = synth_init(5)
    out = run(c, [0] * c.wire_count)
    assert out == [0] * c.wire_count  # no generate, no propagate


def test_init_structure():
    # w Toffolis from the adder first half, 2w-2 from the ladder, 2 CNOT
    # bridges beyond the first-half CNOTs
    w = 5
    st = compute_stats(synth_init(w))
    assert st.count_toffoli == 3 * w - 2
    assert st.size == 5 * w - 2
    assert st.ancilla_count == 0


@pytest.mark.parametrize("w,carry", [(1, True), (1, False), (3, True), (5, False), (5, True)])
def test_sum_oracle_equality(w, carry):
    c = synth_sum(w, with_carry_in=carry)
    _, packed = sum_oracle(c)
    assert verify_exhaustive(c, packed_oracle=packed).ok


def test_sum_without_carry_is_truncated_addition():
    w = 4
    c = synth_sum(w, with_carry_in=False)
    by_role = c.wires_by_role()
    state = [0] * c.wire_count
    a, b = 11, 13
    for i in range(w):
        state[by_role[f"A{i}"]] = (a >> i) & 1
        state[by_role[f"B{i}"]] = (b >> i) & 1
    out = run(c, state)
    got = sum(out[by_role[f"B{i}"]] << i for i in range(w))
    assert got == (a + b) % (1 << w)  # high carry dropped


def test_sum_toffoli_count():
    for w in (1, 2, 3, 6):
        st = compute_stats(synth_sum(w))
        assert st.count_toffoli == 2 * w - 2


def test_carry_validation():
    with pytest.raises(ValueError):
        synth_carry(12, 1)
    with pytest.raises(ValueError):
        synth_carry(8, 3)  # would leave 2 blocks
    with pytest.raises(ValueError):
        synth_carry(8, 0)


def test_carry_spec_example():
    # m = 4 blocks with g = (1,0,0,0), p = (-,1,1,0) folds to carries (1,1,1,0)
    c = synth_carry(8, 2)
    by_role = c.wires_by_role()
    state = [0] * c.wire_count
    state[by_role["G0"]] = 1
    state[by_role["P1"]] = 1
    state[by_role["P2"]] = 1
    out = run(c, state)
    assert [out[by_role[f"G{j}"]] for j in range(4)] == [1, 1, 1, 0]


def test_carry_all_generates_zero():
    c = synth_carry(8, 2)
    by_role = c.wires_by_role()
    state = [0] * c.wire_count
    for i in range(1, 4):
        state[by_role[f"P{i}"]] = 1
    out = run(c, state)
    assert all(out[by_role[f"G{j}"]] == 0 for j in range(4))


@pytest.mark.parametrize("n,l", [(8, 1), (8, 2), (16, 2), (32, 3)])
def test_carry_oracle_equality_and_bounds(n, l):
    c = synth_carry(n, l)
    _, packed = carry_fold_oracle(c)
    report = verify_exhaustive(c, packed_oracle=packed)
    assert report.ok
    st = compute_stats(c)
    assert st.ancilla_count <= carry_tree_scratch_count(n, l)
    # p wires are never targets
    by_role = c.wires_by_role()
    m = n >> (l - 1)
    p_wires = {by_role[f"P{i}"] for i in range(1, m)}
    for gate in c.gates:
        assert not p_wires & set(gate.targets)


def test_carry_toffoli_depth_scales_with_two_tree_passes():
    # measured Toffoli depth of the tree is 2*log2(m) + 1
    for n, l in ((8, 1), (16, 1), (32, 1), (64, 1)):
        m = n >> (l - 1)
        st = compute_stats(synth_carry(n, l))
        assert st.toffoli_depth == 2 * int(math.log2(m)) + 1


def test_combined_exhaustive_n8():
    for d in (2, 3):
        c = synth_combined(BlockParams(8, d))
        _, packed = adder_oracle(c)
        report = verify_exhaustive(c, packed_oracle=packed)
        assert report.ok and report.total_cases == 1 << 17


@pytest.mark.parametrize("n,d", [(16, 4), (32, 8), (64, 6)])
def test_combined_random(n, d):
    c = synth_combined(BlockParams(n, d))
    _, packed = adder_oracle(c)
    assert verify_random(c, packed_oracle=packed, trials=300, seed=1).ok


def test_combined_exact_resource_profile():
    # ancilla = 3m - log2(m) - 3, Toffoli count = 14n - 4m - 14k - 9 log2(m) + 7
    # and Toffoli depth = 14k + 4 log2(n/k) - 11 (-13 at m = 4), the measured
    # constants behind the committed <= bounds; size, CNOT and NOT counts and
    # depth are pinned with the blocks' fold-and-chain frame opened once
    for n, d in ((8, 2), (16, 4), (32, 8), (64, 4), (128, 32), (4096, 2), (4096, 12)):
        p = BlockParams(n, d)
        st = compute_stats(synth_combined(p))
        m, k = p.blocks, p.k
        logm = int(math.log2(m))
        assert st.ancilla_count == 3 * m - logm - 3
        assert st.count_toffoli == 14 * n - 4 * m - 14 * k - 9 * logm + 7
        assert st.toffoli_depth == 14 * k + 4 * logm - (13 if m == 4 else 11)
        assert st.size == 21 * n + 5 * m - 16 * k - 9 * logm - 9
        assert st.count_cnot == 5 * n + 9 * m - 16
        assert st.count_not == 2 * n - 2 * k
        assert st.depth == 17 * k + 4 * logm - (3 if m == 4 else 1)
        assert st.count_toffoli <= 14 * n
        assert st.count_gen_toffoli == 0 and st.count_fanout == 0


def test_combined_carry_slots_zero_after_unwind():
    # prefix through step 6 must leave every generate slot at 0: the
    # complemented sum regenerates exactly the carries being uncomputed.
    # This runs only at m = 4, and seeded inputs cannot judge the unwind:
    # at (1024, 8), deleting any one of its 468 tree gates left every slot
    # at 0 on 200 trials in 424 of the 468 cases: a tree gate acts only
    # where the block propagates it reads are 1, which uniform operands make
    # rare (2**-k per block).  test_shared_gates.py holds the unwind's tree
    # to its gate-by-gate reference at every m
    params = BlockParams(16, 4)
    plan = combined_wire_plan(params)
    sections = combined_step_gates(params)
    assert [name for name, _ in sections] == [
        "init", "carry", "uncompute-init", "sum", "complement", "unwind", "uncomplement",
    ]
    prefix_gates = [g for name, gates in sections[:6] for g in gates]
    c = Circuit(plan["wire_count"], gates=prefix_gates)
    free = list(range(2 * params.n + 1))
    cols = _random_columns(c, free, 200, seed=13)
    out = run_packed(c, cols, 200)
    for w in plan["g_slots"] + plan["p_slots"] + plan["scratch"]:
        assert out[w] == 0


def test_combined_wire_roles_cover_all_wires():
    c = synth_combined(BlockParams(8, 2))
    assert len(c.role_map) == c.wire_count
    assert len(c.ancilla) == c.wire_count - (2 * 8 + 1)


@pytest.mark.parametrize(
    "g_wires,p_wires,message",
    [
        ([0, 1, 2], [None, 3, 4], "block count must be a power of two >= 4, got 3"),
        ([0, 1, 2, 3, 4, 5], [None, 6, 7, 8, 9, 10], "block count must be a power of two >= 4, got 6"),
        ([0, 1, 2, 3], [None, 4, 5], "need m propagate slots"),
    ],
    ids=["three-blocks", "six-blocks", "short-propagates"],
)
def test_carry_gates_rejects_a_bad_block_count_or_short_propagates(g_wires, p_wires, message):
    with pytest.raises(ValueError, match=message):
        carry_gates(g_wires, p_wires, 20)


@pytest.mark.parametrize("m", [1 << j for j in range(2, 13)])
def test_carry_tree_uses_exactly_its_scratch_count(m):
    g_wires = list(range(m))
    p_wires = [None, *range(m, 2 * m - 1)]
    gates, scratch = carry_gates(g_wires, p_wires, 2 * m - 1)
    assert scratch == list(range(2 * m - 1, 2 * m - 1 + carry_tree_scratch_count(m, 1)))
    used = {w for gate in gates for w in gate.operands} - set(g_wires) - set(p_wires)
    assert used == set(scratch)


def test_scratch_count_closed_form_equals_its_sum():
    for n in range(1, 4097):
        for l in range(1, 14):
            expected = sum((n >> t) - 1 for t in range(l, n.bit_length() - 1))
            assert carry_tree_scratch_count(n, l) == expected, (n, l)


def test_an_over_cap_carry_tree_is_refused_in_linear_time():
    # The count was a sum over every bit of n, quadratic in n's bit length:
    # 1.5-2.0 s at 2**160000, so about 70 s at 2**(10**6).
    code = (
        "import qadd\n"
        "from qadd.blocked import combined_step_gates\n"
        "calls = [\n"
        "    lambda: qadd.synth_combined(qadd.BlockParams(2**(10**6), 2)),\n"
        "    lambda: combined_step_gates(qadd.BlockParams(2**(10**6), 2)),\n"
        "    lambda: qadd.synth_carry(2**(10**6), 1),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as err:\n"
        "        assert f'cap {qadd.WIRE_CAP}' in str(err), err\n"
        "    else:\n"
        "        raise SystemExit('not refused')\n"
    )
    src = str(Path(qadd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=20, env=env
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("build", [combined_wire_plan, combined_step_gates, synth_combined])
@pytest.mark.parametrize("params", [(8, 2), [8, 2], None, "BlockParams(8, 2)"])
def test_combined_entry_points_refuse_params_that_are_not_block_params(build, params):
    with pytest.raises(TypeError, match=f"expected a BlockParams, got {type(params).__name__}"):
        build(params)
