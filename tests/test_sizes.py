"""One size rule, and each request checked once.

A size parameter (a width, a count, a bound, ``trials``, an estimator's
``t``, ``m``, ``n``, ``e`` or ``f``) is an ``int``, not a bool, and at least
its least value; anything else raises ``ValueError``.  ``True`` used to build
a one-bit adder and ``2.0`` or ``None`` to fail with ``TypeError``, and the
estimator accepted ``tt_cost(16.0, 2)`` and ``fanout_adder_cost(16, 8.5, 2)``.  The seed of ``verify_random`` is any int, and
``with_carry_in`` of ``synth_sum`` a bool.

A public builder checks the wires it is given once.  The package's own
synthesizers build on wires they derived themselves and check none: the
combined adder used to re-check every block's wires, 3m times a build.
"""

import re

import pytest

from qadd import (
    BlockParams,
    adder_first_half_gates,
    carry_gates,
    carry_tree_scratch_count,
    init_gates,
    maj_fragment,
    prefix_and_ladder_gates,
    ripple_add_gates,
    ripple_closed_forms,
    sum_gates,
    synth_carry,
    synth_combined,
    synth_fanout_tree,
    synth_init,
    synth_ripple,
    synth_sum,
    verify_random,
)
from qadd.estimator import fanout_adder_cost, gcla_cost, shor_dlog_estimate, tt_cost
from qadd import blocked, fanout, ripple
from qadd.circuit import _check_wires
from qadd.fanout import fanout_tree_gates
from qadd.oracles import adder_oracle
from qadd.sim import run_packed

BAD_SIZES = [True, 2.0, 2.5, "2", None]

RIPPLE_2 = synth_ripple(2)
RIPPLE_2_ORACLE = adder_oracle(RIPPLE_2)[1]

# Each entry passes its argument as one size parameter, with the other
# arguments chosen so that the call is valid with the given int in its place.
CALLS = {
    "synth_ripple": (lambda v: synth_ripple(v), 2),
    "ripple_closed_forms": (lambda v: ripple_closed_forms(v), 3),
    "synth_init": (lambda v: synth_init(v), 2),
    "synth_sum": (lambda v: synth_sum(v), 2),
    "synth_carry-n": (lambda v: synth_carry(v, 1), 8),
    "synth_carry-l": (lambda v: synth_carry(16, v), 2),
    "BlockParams-n": (lambda v: BlockParams(v, 2), 8),
    "BlockParams-d": (lambda v: BlockParams(64, v), 2),
    "carry_tree_scratch_count-n": (lambda v: carry_tree_scratch_count(v, 1), 2),
    "carry_tree_scratch_count-l": (lambda v: carry_tree_scratch_count(16, v), 2),
    "fanout_tree_gates-f": (lambda v: fanout_tree_gates(0, [1, 2, 3], v), 2),
    "synth_fanout_tree-f": (lambda v: synth_fanout_tree(0, [1, 2, 3], v), 2),
    "verify_random-trials": (
        lambda v: verify_random(RIPPLE_2, packed_oracle=RIPPLE_2_ORACLE, trials=v),
        2,
    ),
    "verify_random-seed": (
        lambda v: verify_random(RIPPLE_2, packed_oracle=RIPPLE_2_ORACLE, trials=8, seed=v),
        2,
    ),
    "run_packed-n_cases": (lambda v: run_packed(RIPPLE_2, [0] * RIPPLE_2.wire_count, v), 2),
    "tt_cost-t": (lambda v: tt_cost(v, 2), 2),
    "tt_cost-f": (lambda v: tt_cost(16, v), 2),
    "gcla_cost-m": (lambda v: gcla_cost(v, 2), 2),
    "gcla_cost-f": (lambda v: gcla_cost(16, v), 2),
    "fanout_adder_cost-n": (lambda v: fanout_adder_cost(v, 8, 2), 2),
    "fanout_adder_cost-e": (lambda v: fanout_adder_cost(2, v, 2), 2),
    "fanout_adder_cost-f": (lambda v: fanout_adder_cost(16, 8, v), 2),
    "shor_dlog_estimate-n": (lambda v: shor_dlog_estimate(v), 4),
    "shor_dlog_estimate-fanout-n": (lambda v: shor_dlog_estimate(v, "fanout", e=8, f=2), 4),
}


@pytest.mark.parametrize("bad", BAD_SIZES, ids=repr)
@pytest.mark.parametrize("call", [c for c, _ in CALLS.values()], ids=CALLS.keys())
def test_every_size_parameter_rejects_a_value_that_is_not_an_int(call, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        call(bad)


@pytest.mark.parametrize("call,good", CALLS.values(), ids=CALLS.keys())
def test_every_size_parameter_accepts_an_int(call, good):
    call(good)


def test_sizes_below_the_least_value_name_it():
    with pytest.raises(ValueError, match=r"need an int n >= 1, got 0$"):
        synth_ripple(0)
    with pytest.raises(ValueError, match=r"need an int d >= 2, got 1$"):
        BlockParams(16, 1)
    with pytest.raises(ValueError, match=r"need an int trials >= 1, got 0$"):
        verify_random(RIPPLE_2, packed_oracle=RIPPLE_2_ORACLE, trials=0)
    # e is checked as a size before it is compared with log*(n).
    with pytest.raises(ValueError, match=r"need an int e >= 1, got 0$"):
        fanout_adder_cost(16, 0, 2)
    with pytest.raises(ValueError, match=r"need an int n >= 4, got 3$"):
        shor_dlog_estimate(3)


@pytest.mark.parametrize("n_cases", [0, -1])
def test_run_packed_needs_at_least_one_case(n_cases):
    # -1 used to fail with a bare "negative shift count".
    with pytest.raises(ValueError, match=rf"need an int n_cases >= 1, got {n_cases}$"):
        run_packed(RIPPLE_2, [0] * RIPPLE_2.wire_count, n_cases)


@pytest.mark.parametrize("bad", [2, *(b for b in BAD_SIZES if b is not True)], ids=repr)
def test_synth_sum_with_carry_in_must_be_a_bool(bad):
    # 2 and 2.0 used to build an 8-wire circuit whose wire 1 nothing reads.
    message = f"with_carry_in must be a bool, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        synth_sum(3, bad)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 80) + 5])
def test_verify_random_takes_any_int_seed(seed):
    # The stream masks it to 64 bits; tests/test_sim.py checks the columns.
    report = verify_random(RIPPLE_2, packed_oracle=RIPPLE_2_ORACLE, trials=8, seed=seed)
    assert report.ok and report.seed == seed


# --- each request is checked once -------------------------------------------


@pytest.fixture
def wire_checks(monkeypatch):
    """Every ``_check_wires`` call made by the synthesis modules."""
    calls = []

    def counting(*registers):
        calls.append(registers)
        return _check_wires(*registers)

    for module in (ripple, blocked, fanout):
        monkeypatch.setattr(module, "_check_wires", counting)
    return calls


@pytest.mark.parametrize("n,d", [(8, 2), (256, 4), (4096, 12)])
def test_synth_combined_checks_no_wire_it_derived(wire_checks, n, d):
    synth_combined(BlockParams(n, d))
    assert wire_checks == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: synth_ripple(5),
        lambda: synth_init(4),
        lambda: synth_sum(4),
        lambda: synth_sum(4, with_carry_in=False),
        lambda: synth_carry(64, 2),
    ],
    ids=["ripple", "init", "sum", "sum-no-carry", "carry"],
)
def test_standalone_synthesizers_check_no_wire(wire_checks, build):
    build()
    assert wire_checks == []


BUILDERS = {
    "maj_fragment": lambda: maj_fragment(0, 1, 2),
    "ripple_add_gates": lambda: ripple_add_gates([0, 2, 4], [1, 3, 5], 6),
    "adder_first_half_gates": lambda: adder_first_half_gates([0, 2], [1, 3], 4),
    "prefix_and_ladder_gates": lambda: prefix_and_ladder_gates([0, 1, 2], [3, 4], 5),
    "init_gates": lambda: init_gates([0, 2, 4], [1, 3, 5], 6, 7),
    "sum_gates": lambda: sum_gates([1, 3], [2, 4], 0),
    "sum_gates-no-carry": lambda: sum_gates([0, 2], [1, 3]),
    "carry_gates": lambda: carry_gates([0, 1, 2, 3, 4, 5, 6, 7], [None, *range(8, 15)], 15),
    "fanout_tree_gates": lambda: fanout_tree_gates(0, range(1, 10), 3),
    "synth_fanout_tree": lambda: synth_fanout_tree(0, range(1, 10), 3),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_each_public_builder_checks_its_wires_once(wire_checks, build):
    build()
    assert len(wire_checks) == 1
