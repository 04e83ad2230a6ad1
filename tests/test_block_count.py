"""The carry tree's one block-count rule, read by ``synth_carry``,
``BlockParams`` and ``carry_gates``: n / 2**(l-1) blocks, a power of two
>= 4 with nothing left over."""

import pytest

from qadd import BlockParams, carry_gates, export_netlist, synth_carry


def _accepted(call):
    try:
        call()
    except ValueError:
        return False
    return True


def _power_of_two(n):
    return n > 0 and not n & (n - 1)


# Every (n, l) with n <= 4096 that makes at least 4 blocks: 1 + 2 + ... + 11.
VALID = [(1 << j, l) for j in range(2, 13) for l in range(1, j)]


def test_the_carry_tree_depends_only_on_its_block_count():
    assert len(VALID) == 66
    by_blocks = {}
    for n, l in VALID:
        m = n >> (l - 1)
        if m not in by_blocks:
            by_blocks[m] = export_netlist(synth_carry(m, 1))
        assert export_netlist(synth_carry(n, l)) == by_blocks[m], (n, l)


def test_synth_carry_accepts_exactly_the_block_rule():
    for n in range(1, 301):
        for l in range(1, 11):
            want = _power_of_two(n) and n >> (l - 1) >= 4
            assert _accepted(lambda: synth_carry(n, l)) == want, (n, l)


def test_block_params_accepts_exactly_the_block_rule():
    for n in range(1, 301):
        for d in range(2, 41):
            want = _power_of_two(n) and n >> (d.bit_length() - 1) >= 4
            assert _accepted(lambda: BlockParams(n, d)) == want, (n, d)


def test_carry_gates_accepts_exactly_the_block_rule():
    for m in range(1, 71):
        g_wires = list(range(m))
        p_wires = [None, *range(m, 2 * m - 1)]
        want = _power_of_two(m) and m >= 4
        assert _accepted(lambda: carry_gates(g_wires, p_wires, 2 * m)) == want, m


def test_a_huge_tree_level_is_refused_without_building_the_block_width():
    # 2**(l-1) at this l would not fit in memory.
    with pytest.raises(ValueError, match="power of two"):
        synth_carry(16, 10**18)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: BlockParams(8, 4), "got 8 / 2**2"),
        (lambda: BlockParams(36, 8), "got 36 / 2**3"),
        (lambda: BlockParams(12, 2), "got 12 / 2**1"),
        (lambda: synth_carry(36, 4), "got 36 / 2**3"),
        (lambda: synth_carry(16, 4), "got 16 / 2**3"),
        (lambda: carry_gates([0, 1, 2], [None, 3, 4], 5), "got 3 / 2**0"),
    ],
    ids=["two-blocks", "remainder", "six-blocks", "carry-remainder", "carry-two", "three-g-wires"],
)
def test_every_bad_block_count_gets_the_one_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"block count must be a power of two >= 4, {message}"
