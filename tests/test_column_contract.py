"""The column contract of ``run_packed`` and the packed oracles: a column is
used only through ``^``, ``&`` and ``|``, so a type that has nothing else runs
every gate kind and every oracle and gives the plain-int result."""

import pytest

from qadd import (
    BlockParams,
    Circuit,
    adder_first_half_gates,
    ccx,
    cx,
    fo,
    run_packed,
    splitmix64,
    synth_carry,
    synth_combined,
    synth_fanout_tree,
    synth_init,
    synth_ripple,
    synth_sum,
    tg,
    x,
)
from qadd.oracles import (
    adder_oracle,
    carry_fold_oracle,
    fanout_oracle,
    first_half_oracle,
    init_oracle,
    sum_oracle,
)
from qadd.ripple import ripple_wires

N_CASES = 64


class Column:
    """An int column with ``^``, ``&`` and ``|`` and nothing else: a truth
    test or a comparison raises."""

    __slots__ = ("value",)
    __hash__ = None

    def __init__(self, value):
        self.value = value

    def __xor__(self, other):
        return Column(self.value ^ _plain(other))

    def __and__(self, other):
        return Column(self.value & _plain(other))

    def __or__(self, other):
        return Column(self.value | _plain(other))

    __rxor__, __rand__, __ror__ = __xor__, __and__, __or__

    def __bool__(self):
        raise AssertionError("a column was tested for truth")

    def __eq__(self, other):
        raise AssertionError("a column was compared")

    __ne__ = __eq__


def _plain(v):
    return v.value if isinstance(v, Column) else v


def _unwrapped(cols):
    assert all(isinstance(c, Column) for c in cols), "an output column is not a Column"
    return [c.value for c in cols]


def _columns(wire_count, seed):
    gen = splitmix64(seed)
    return [next(gen) & ((1 << N_CASES) - 1) for _ in range(wire_count)]


def _first_half(n):
    c = synth_ripple(n)
    b, a, z = ripple_wires(n)
    return Circuit(c.wire_count, role_map=c.role_map, gates=adder_first_half_gates(b, a, z))


CASES = {
    "adder": (lambda: synth_ripple(5), adder_oracle),
    "first_half": (lambda: _first_half(5), first_half_oracle),
    "init": (lambda: synth_init(4), init_oracle),
    "sum": (lambda: synth_sum(4, with_carry_in=True), sum_oracle),
    "sum-no-carry-in": (lambda: synth_sum(4, with_carry_in=False), sum_oracle),
    "carry_fold": (lambda: synth_carry(16, 1), carry_fold_oracle),
    "fanout": (
        lambda: synth_fanout_tree(0, range(1, 12), 3),
        lambda c: fanout_oracle(c, 0, range(1, 12)),
    ),
}


def test_the_column_refuses_a_truth_test_and_a_comparison():
    col = Column(5)
    with pytest.raises(AssertionError):
        bool(col)
    with pytest.raises(AssertionError):
        col == 5
    with pytest.raises(AssertionError):
        col in [Column(5)]
    assert _plain(3 ^ col & 6 | Column(8)) == 3 ^ (5 & 6) | 8


@pytest.mark.parametrize("name", CASES)
def test_each_oracle_keeps_the_column_contract(name):
    build, factory = CASES[name]
    c = build()
    _, packed = factory(c)
    cols = _columns(c.wire_count, 26)
    assert _unwrapped(packed(list(map(Column, cols)), N_CASES)) == packed(cols, N_CASES)


@pytest.mark.parametrize(
    "circuit",
    [
        Circuit(6, gates=[x(0), cx(0, 1), ccx(0, 1, 2), fo(2, [3, 4, 5]), tg([0, 3, 4], 5)]),
        synth_combined(BlockParams(16, 2)),
        *(CASES[name][0]() for name in CASES),
    ],
    ids=["every-kind", "combined", *CASES],
)
def test_run_packed_keeps_the_column_contract(circuit):
    cols = _columns(circuit.wire_count, 2026)
    wrapped = run_packed(circuit, list(map(Column, cols)), N_CASES)
    assert _unwrapped(wrapped) == run_packed(circuit, cols, N_CASES)
