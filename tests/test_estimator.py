import json
import math

import pytest

from qadd import (
    ConstantPack,
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
