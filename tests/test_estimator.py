import json
import math

import pytest

from qadd import (
    COMBINED_ANCILLA_FACTOR,
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


def test_combined_adder_bounds_formulas():
    e = combined_adder_bounds(64, 8)
    assert e.ancilla == 3 * 64 / 8
    assert e.size == 14 * 64
    assert e.depth == 14 * 8 + 4 * math.log2(8)
    with pytest.raises(ValueError):
        combined_adder_bounds(64, 32)  # fewer than 4 blocks


def test_constant_pack():
    with pytest.raises(ValueError):
        ConstantPack(c_depth=0)
    scaled = tt_cost(16, 4, ConstantPack(c_depth=2.0))
    assert scaled.depth == 2 * tt_cost(16, 4).depth
    anc = tt_cost(16, 4, ConstantPack(c_anc=3.0))
    assert anc.ancilla == 3 * tt_cost(16, 4).ancilla


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

