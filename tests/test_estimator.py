import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from qadd import (
    COMBINED_ANCILLA_FACTOR,
    WIRE_CAP,
    BlockParams,
    ConstantPack,
    CostEstimate,
    combined_adder_bounds,
    fanout_adder_cost,
    gcla_cost,
    log_star,
    log_star_star,
    shor_dlog_estimate,
    splitmix64,
    tt_cost,
)
from qadd.blocked import combined_closed_forms, combined_wire_plan


def _log_star_reference(x):
    # brute-force minimal j whose j-fold log2 composition is <= 1
    j = 0
    while True:
        v = x
        for _ in range(j):
            v = math.log(v, 2)
        if v <= 1:
            return j
        j += 1


def test_log_star_examples():
    assert log_star(1) == 0
    assert log_star(16) == 3
    assert log_star(65536) == 4
    assert log_star(0.5) == 0
    with pytest.raises(ValueError):
        log_star(0)


def test_log_star_star_examples():
    assert log_star_star(1) == 0
    assert log_star_star(16) == 3
    with pytest.raises(ValueError):
        log_star_star(-1)


@pytest.mark.parametrize("fn", [log_star, log_star_star])
@pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
def test_log_star_rejects_non_finite(fn, x):
    # log2(inf) is inf, and nan is neither <= 0 nor > 1
    with pytest.raises(ValueError, match="positive finite"):
        fn(x)


def test_cost_estimate_rejects_non_finite():
    with pytest.raises(ValueError, match="depth must be finite"):
        CostEstimate("x", qubits_total=1, ancilla=0, depth=math.inf, size=1)
    with pytest.raises(ValueError, match="size must be finite"):
        CostEstimate("x", qubits_total=1, ancilla=0, depth=1, size=math.nan)


def test_log_star_matches_reference_on_grid_and_random_points():
    for k in range(65):
        x = 1 << k
        assert log_star(x) == _log_star_reference(x)
        assert log_star_star(x) <= log_star(x)
    gen = splitmix64(1)
    for _ in range(1000):
        x = 1 + (next(gen) / 2 ** 64) * (2 ** 64 - 1)
        assert log_star(x) == _log_star_reference(x)


def test_tt_cost_examples():
    e = tt_cost(2, 2)
    assert (e.depth, e.size, e.ancilla) == (2, 2, 2)
    # f = t collapses the log ratio to 1
    e = tt_cost(256, 256)
    assert e.depth == 1 + log_star(256)


def test_tt_cost_monotone_in_t():
    prev = None
    t = 4
    while t <= 1 << 20:
        e = tt_cost(t, 4)
        if prev is not None:
            assert e.depth >= prev.depth
            assert e.size >= prev.size
            assert e.ancilla >= prev.ancilla
        prev = e
        t *= 2
    with pytest.raises(ValueError):
        tt_cost(1, 2)


def test_gcla_cost():
    e = gcla_cost(2, 2)
    assert e.ancilla == 2 * log_star_star(2)
    # f = m**(1/4): the log ratio term is exactly 4
    e = gcla_cost(1 << 20, 1 << 5)
    assert e.depth == 4 + log_star((1 << 20) * log_star_star(1 << 20))
    # ancilla/m grows exactly as log**(m)
    ratios = [gcla_cost(1 << k, 4).ancilla / (1 << k) for k in range(2, 40)]
    assert ratios == sorted(ratios)
    assert all(r == log_star_star(1 << k) for r, k in zip(ratios, range(2, 40)))


def test_fanout_adder_cost():
    n = 1 << 16
    e = fanout_adder_cost(n, log_star(n), 16)
    assert e.ancilla == n * log_star_star(n) / log_star(n)
    assert fanout_adder_cost(n, n, 16).ancilla == log_star_star(n)
    with pytest.raises(ValueError):
        fanout_adder_cost(n, log_star(n) - 1, 16)  # e below log*(n)
    # sublinear ancilla at the tested points
    for k in range(8, 33):
        n = 1 << k
        est = fanout_adder_cost(n, log_star(n), 16)
        assert est.ancilla / n < 1


def test_shor_dlog_estimates():
    for n in (64, 256, 1024):
        assert shor_dlog_estimate(n, "ripple").qubits_total == 4 * n
    e = shor_dlog_estimate(256, "combined", d=16)
    assert e.qubits_total == 1024 + 3 * 256 / 16
    # qubit ordering: ripple <= combined <= the 5n baseline it improves on
    ripple = shor_dlog_estimate(256, "ripple")
    combined = shor_dlog_estimate(256, "combined", d=16)
    assert ripple.qubits_total <= combined.qubits_total <= 5 * 256
    fanout = shor_dlog_estimate(256, "fanout", e=8, f=4)
    assert fanout.qubits_total == 4 * 256 + 256 * log_star_star(256) / 8
    with pytest.raises(ValueError):
        shor_dlog_estimate(2, "ripple")
    with pytest.raises(ValueError):
        shor_dlog_estimate(256, "combined")  # missing d
    with pytest.raises(ValueError):
        shor_dlog_estimate(256, "fanout", e=1, f=4)  # e below log*(n)


@pytest.mark.parametrize(
    "adder,kwargs,unread",
    [
        ("ripple", {"d": 3}, "d"),
        ("ripple", {"f": 4}, "f"),
        ("combined", {"d": 2, "e": 8}, "e"),
        ("fanout", {"d": 3, "e": 8, "f": 4}, "d"),
    ],
)
def test_shor_dlog_rejects_a_parameter_the_adder_does_not_read(adder, kwargs, unread):
    with pytest.raises(ValueError, match=f"{adder} adder does not take {unread}"):
        shor_dlog_estimate(16, adder, **kwargs)


def test_combined_adder_bounds_formulas():
    e = combined_adder_bounds(64, 8)
    assert e.ancilla == 3 * 64 / 8
    assert e.size == 14 * 64
    assert e.depth == 14 * 8 + 4 * math.log2(8)
    with pytest.raises(ValueError):
        combined_adder_bounds(64, 32)  # fewer than 4 blocks


def test_combined_adder_bounds_hold_at_every_shape_the_wire_cap_admits():
    # the committed bounds against the exact forms, with nothing built: every
    # power-of-two n from 8 to 2**20 with every block width k, n/k >= 4, at
    # both ends of each k's range of d
    shapes = [
        (1 << j, d)
        for j in range(3, 21)
        for i in range(1, j - 1)
        for d in (1 << i, (2 << i) - 1)
    ]
    assert len(shapes) == 342
    for n, d in shapes:
        forms = combined_closed_forms(BlockParams(n, d))
        assert 2 * n + 1 + forms["ancilla_count"] <= WIRE_CAP, (n, d)
        bounds = combined_adder_bounds(n, d)
        assert forms["ancilla_count"] <= bounds.ancilla, (n, d)
        assert forms["count_toffoli"] <= bounds.size, (n, d)
        assert forms["toffoli_depth"] <= bounds.depth, (n, d)
    # and 2**20 is the widest: at 2**21 the 2n + 1 data wires alone pass the cap
    with pytest.raises(ValueError, match="to the cap"):
        combined_wire_plan(BlockParams(2**21, 2))


def test_constant_pack():
    with pytest.raises(ValueError):
        ConstantPack(c_depth=0)
    scaled = tt_cost(16, 4, ConstantPack(c_depth=2.0))
    assert scaled.depth == 2 * tt_cost(16, 4).depth
    anc = tt_cost(16, 4, ConstantPack(c_anc=3.0))
    assert anc.ancilla == 3 * tt_cost(16, 4).ancilla


@pytest.mark.parametrize("name", ["c_depth", "c_size", "c_anc", "c_logstar"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constant_pack_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"constant {name} must be positive and finite"):
        ConstantPack(**{name: value})


def test_estimates_are_deterministic():
    a = shor_dlog_estimate(512, "combined", d=9)
    b = shor_dlog_estimate(512, "combined", d=9)
    assert a == b
    assert a.to_json() == b.to_json()


def test_estimate_json_roundtrip():
    payload = json.loads(fanout_adder_cost(1 << 12, 5, 8).to_json())
    assert payload["formula_id"] == "adder-fanout"
    assert set(payload) == {
        "formula_id", "qubits_total", "ancilla", "depth", "size", "params", "constants",
    }
    assert payload["constants"] == {"c_depth": 1.0, "c_size": 1.0, "c_anc": 1.0, "c_logstar": 1.0}


def test_negative_values_rejected():
    from qadd import CostEstimate

    with pytest.raises(ValueError):
        CostEstimate("bad", qubits_total=-1, ancilla=0, depth=0, size=0)


def _log_star_float(x):
    """The original float-only loop, kept to pin results on every input
    it handles."""
    j = 0
    v = float(x)
    while v > 1.0:
        v = math.log2(v)
        j += 1
    return j


def test_log_star_int_path_matches_float_loop():
    xs = list(range(1, 70_000))
    xs += [(1 << k) + d for k in range(17, 1001) for d in (-1, 0, 1)]
    for x in xs:
        assert log_star(x) == _log_star_float(x), x
        assert log_star_star(x) == log_star_star(float(x)), x


def test_log_star_is_exact_just_above_a_tower():
    # the float loop rounds log2 of these down onto the tower below
    above_16 = math.nextafter(16.0, math.inf)
    above_65536 = 65536.00000000001
    assert log_star(above_16) == 4
    assert log_star(above_65536) == 5
    for x in (above_16, above_65536):
        assert log_star_star(x) == log_star_star(math.ceil(x)), x


def test_log_star_is_exact_on_huge_ints():
    assert log_star(2**2000) == 5
    assert log_star_star(2**2000) == 4
    assert log_star(2**65536) == 5
    assert log_star(2**65536 + 1) == 6


def reference_shor_dlog_estimate(n, adder="ripple", d=None, e=None, f=None, consts=ConstantPack()):
    """``shor_dlog_estimate`` as it was when it restated each adder's
    formula, kept as the reference for the one that reads them."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if adder == "ripple":
        ancilla = 0.0
        adder_depth = 5 * n - 3
    elif adder == "combined":
        if d is None:
            raise ValueError("combined adder needs d")
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        k = 1 << (d.bit_length() - 1)
        if n % k or n // k < 4:
            raise ValueError(f"invalid combined parameters (n={n}, d={d})")
        ancilla = consts.c_anc * COMBINED_ANCILLA_FACTOR * n / k
        adder_depth = 14 * k + 4 * math.log2(n // k)
    elif adder == "fanout":
        if e is None or f is None:
            raise ValueError("fanout adder needs e and f")
        if f < 2:
            raise ValueError("need f >= 2")
        if e < log_star(n):
            raise ValueError(f"depth parameter e={e} below log*(n)={log_star(n)}")
        ancilla = consts.c_anc * n * log_star_star(n) / e
        adder_depth = e
    else:
        raise ValueError(f"unknown adder {adder!r}")
    params: dict = {"n": n, "adder": adder}
    if d is not None:
        params["d"] = d
    if e is not None:
        params["e"] = e
    if f is not None:
        params["f"] = f
    return CostEstimate(
        formula_id=f"shor-dlog+{adder}",
        qubits_total=4 * n + ancilla,
        ancilla=ancilla,
        depth=consts.c_depth * n * n * adder_depth,
        size=consts.c_size * n ** 3,
        params=params,
        constants=consts,
    )


def _json_or_error(estimate, *args, **kwargs):
    try:
        return estimate(*args, **kwargs).to_json()
    except ValueError:
        return ValueError


# n = 4..299 and every power of two up to 2048 with its neighbours and
# three times it, so every d and e below meets accepted and rejected n.
_GRID_NS = sorted(
    set(range(4, 300))
    | {v for j in range(3, 12) for v in ((1 << j) - 1, 1 << j, (1 << j) + 1, 3 << j)}
)


@pytest.mark.parametrize(
    "consts",
    [ConstantPack(), ConstantPack(2.5, 0.5, 3.0, 1.5), ConstantPack(0.1, 7, 0.3, 2)],
    ids=["default", "scaled", "mixed"],
)
def test_shor_dlog_estimate_matches_reference(consts):
    requests = [("ripple", {})]
    requests += [("combined", {"d": d}) for d in range(2, 40)]
    requests += [("fanout", {"e": e, "f": f}) for e in range(1, 7) for f in (1, 2, 4)]
    rejected = 0
    for n in _GRID_NS:
        for adder, kwargs in requests:
            want = _json_or_error(reference_shor_dlog_estimate, n, adder, consts=consts, **kwargs)
            got = _json_or_error(shor_dlog_estimate, n, adder, consts=consts, **kwargs)
            if adder == "combined" and n & (n - 1):
                # No combined adder is synthesized for n off a power of two.
                assert got is ValueError, (n, kwargs)
                rejected += want is not ValueError
            else:
                assert got == want, (n, adder, kwargs)
    assert rejected  # the grid does reach n the old code accepted


def test_shor_dlog_rejects_combined_n_off_a_power_of_two():
    assert reference_shor_dlog_estimate(12, "combined", d=2).depth % 1  # fractional
    with pytest.raises(ValueError, match="power of two"):
        shor_dlog_estimate(12, "combined", d=2)


def test_shor_dlog_adder_depths_read_the_adder_formulas():
    consts = ConstantPack(c_depth=3.0, c_anc=2.0)
    n = 256
    for adder, kwargs, bound in [
        ("combined", {"d": 16}, combined_adder_bounds(n, 16)),
        ("fanout", {"e": 8, "f": 4}, fanout_adder_cost(n, 8, 4)),
    ]:
        scaled = shor_dlog_estimate(n, adder, consts=consts, **kwargs)
        assert scaled.depth == 3.0 * n * n * bound.depth
        assert scaled.ancilla == 2.0 * bound.ancilla


@pytest.mark.parametrize("n,d", [(12, 2), (8, 1), (64, 32), (2048, 1024), (4, 2)])
def test_combined_adder_bounds_validates_like_block_params(n, d):
    with pytest.raises(ValueError) as bounds_err:
        combined_adder_bounds(n, d)
    with pytest.raises(ValueError) as params_err:
        BlockParams(n, d)
    assert str(bounds_err.value) == str(params_err.value)



# Values that are not an int or a float.  At one time True was accepted and
# written as ``true``, Fraction and Decimal were accepted until ``to_json``
# raised TypeError, and the rest raised TypeError from ``<``.
NOT_NUMBERS = [True, False, Fraction(1, 2), Decimal("0.5"), "1", None, 1 + 0j]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("name", ["c_depth", "c_size", "c_anc", "c_logstar"])
def test_constant_pack_holds_only_ints_and_floats(name, value):
    with pytest.raises(ValueError, match=f"constant {name} must be positive and finite"):
        ConstantPack(**{name: value})


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("name", ["qubits_total", "ancilla", "depth", "size"])
def test_cost_estimate_holds_only_ints_and_floats(name, value):
    numbers = dict(qubits_total=1, ancilla=0, depth=1, size=1)
    numbers[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
        CostEstimate("x", **numbers)


def test_constant_pack_payload_keeps_its_field_order():
    pack = ConstantPack(c_depth=2, c_size=0.5, c_anc=3.0, c_logstar=7)
    assert list(pack.as_dict().items()) == [
        ("c_depth", 2), ("c_size", 0.5), ("c_anc", 3.0), ("c_logstar", 7),
    ]


@pytest.mark.parametrize(
    "adder,kwargs,message",
    [
        ("bogus", {}, "unknown adder 'bogus'"),
        ("combined", {}, "combined adder needs d"),
        ("fanout", {"e": 3}, "fanout adder needs e and f"),
        ("fanout", {"f": 2}, "fanout adder needs e and f"),
    ],
)
def test_shor_dlog_rejects_an_unknown_adder_or_a_missing_parameter(adder, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        shor_dlog_estimate(16, adder, **kwargs)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"a": math.nan}, "param a is not an int, a finite float or a str"),
        ({"a": math.inf}, "param a is not an int, a finite float or a str"),
        ({"a": -math.inf}, "param a is not an int, a finite float or a str"),
        ({"a": True}, "param a is not an int, a finite float or a str"),
        ({"a": None}, "param a is not an int, a finite float or a str"),
        ({"a": [1]}, "param a is not an int, a finite float or a str"),
        ({1: 2}, "params must be a dict with str keys"),
        (None, "params must be a dict with str keys"),
        ([("a", 1)], "params must be a dict with str keys"),
    ],
    ids=repr,
)
def test_cost_estimate_params_are_checked_where_the_estimate_is_built(params, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        CostEstimate("x", 1, 0, 1, 1, params=params)


def test_cost_estimate_params_hold_ints_finite_floats_and_strs():
    payload = CostEstimate("x", 1, 0, 1, 1, params={"n": 16, "r": 0.5, "adder": "ripple"})
    assert json.loads(payload.to_json())["params"] == {"n": 16, "r": 0.5, "adder": "ripple"}


@pytest.mark.parametrize(
    "call",
    [
        lambda: shor_dlog_estimate(16, consts=None),
        lambda: shor_dlog_estimate(16, "combined", d=2, consts=None),
        lambda: shor_dlog_estimate(16, "fanout", e=4, f=2, consts={}),
        lambda: tt_cost(16, 4, consts=3),
        lambda: gcla_cost(16, 2, consts=None),
        lambda: fanout_adder_cost(16, 4, 2, consts=None),
        lambda: combined_adder_bounds(16, 2, consts="default"),
        lambda: CostEstimate("x", 1, 0, 1, 1, constants=None).to_json(),
        lambda: CostEstimate("x", 1, 0, 1, 1, constants={"c_depth": 1.0}),
    ],
)
def test_a_constant_pack_is_required_before_any_constant_is_read(call):
    with pytest.raises(ValueError, match="^need a ConstantPack, got "):
        call()
