"""Exhaustive checks run in chunks of ``_EXHAUSTIVE_CHUNK_CASES`` cases.

Whatever the chunk size, ``verify_exhaustive`` must give the report of one
``_check_columns`` call over the whole truth table, field for field and in
``to_json()`` bytes: failures and ancilla violations in case order, each
list capped at ``MAX_RECORDED_FAILURES``.  Every chunk's oracle result is
checked, also after both lists are full.
"""

import pytest

from qadd import (
    BlockParams,
    Circuit,
    ccx,
    synth_combined,
    synth_fanout_tree,
    synth_ripple,
    verify_exhaustive,
    x,
)
from qadd import sim
from qadd.oracles import adder_oracle, fanout_oracle
from qadd.sim import (
    MAX_RECORDED_FAILURES,
    _check_columns,
    _enumeration_columns,
    _packed_from_per_case,
)
from test_mutation import _without


def _one_chunk(circuit, free, packed):
    cols = _enumeration_columns(circuit, free)
    return _check_columns(circuit, [(cols, 1 << len(free))], packed, None)


def _assert_chunked_matches_one_chunk(circuit, free, per_case, packed):
    """``verify_exhaustive`` with either oracle form against the reference."""
    want = _one_chunk(circuit, free, packed)
    got = verify_exhaustive(circuit, packed_oracle=packed, free_wires=free)
    assert got == want and got.to_json() == want.to_json()
    if per_case is not None:
        got = verify_exhaustive(circuit, oracle=per_case, free_wires=free)
        want = _one_chunk(circuit, free, _packed_from_per_case(circuit, per_case))
        assert got == want and got.to_json() == want.to_json()
    return got


def _ripple_4():
    c = synth_ripple(4)
    return c, [w for w in range(c.wire_count) if w not in c.ancilla]


def _combined_8_2():
    # Nine of its 17 data wires keep both oracle forms fast on every
    # deletion: B0-B2 and A0-A2 fill the low chunk wires, and B7, A7 and Z
    # pick the chunk.
    c = synth_combined(BlockParams(8, 2))
    roles = {label: w for w, label in c.role_map.items()}
    labels = ["B0", "A0", "B1", "A1", "B2", "A2", "B7", "A7", "Z"]
    return c, sorted(roles[label] for label in labels)


@pytest.mark.parametrize("build", [_ripple_4, _combined_8_2], ids=["ripple-4", "combined-8-2"])
def test_eight_case_chunks_match_one_chunk_on_every_single_gate_deletion(monkeypatch, build):
    monkeypatch.setattr(sim, "_EXHAUSTIVE_CHUNK_CASES", 8)
    good, free = build()
    assert len(free) > 3  # more than one chunk
    reports = []
    for index in range(len(good)):
        circuit = _without(good, index)
        per_case, packed = adder_oracle(circuit)
        reports.append(_assert_chunked_matches_one_chunk(circuit, free, per_case, packed))
    assert any(not r.ok for r in reports)
    # some report fills a list, so the room left runs out within a run
    assert any(
        MAX_RECORDED_FAILURES in (len(r.failures), len(r.ancilla_violations)) for r in reports
    )
    if good.ancilla:
        assert any(r.ancilla_violations for r in reports)


def test_a_run_narrower_than_one_chunk_is_one_chunk(monkeypatch):
    monkeypatch.setattr(sim, "_EXHAUSTIVE_CHUNK_CASES", 8)
    good = synth_ripple(1)  # three data wires: exactly one 8-case chunk
    for circuit in (good, _without(good, 0)):
        per_case, packed = adder_oracle(circuit)
        _assert_chunked_matches_one_chunk(circuit, [0, 1, 2], per_case, packed)
        _assert_chunked_matches_one_chunk(circuit, [1], per_case, packed)
        _assert_chunked_matches_one_chunk(circuit, [], per_case, packed)


def _tree_20():
    return synth_fanout_tree(0, range(1, 21), 2)


@pytest.mark.parametrize("index", range(len(_tree_20())))
def test_default_chunks_match_one_chunk_on_a_broken_fanout_tree(index):
    # 21 free wires: 32 chunks of 2**16 cases
    circuit = _without(_tree_20(), index)
    _, packed = fanout_oracle(circuit, 0, range(1, 21))
    free = list(range(21))
    report = _assert_chunked_matches_one_chunk(circuit, free, None, packed)
    assert report.total_cases == 1 << 21 and not report.ok


def test_default_chunks_match_one_chunk_when_only_the_last_chunks_fail():
    # A Toffoli on free wires 19 and 20, bits 3 and 4 of the chunk index,
    # ahead of the tree breaks only chunks 24 .. 31: the first 24 pass.
    good = _tree_20()
    circuit = Circuit(good.wire_count, gates=[ccx(19, 20, 1), *good.gates])
    _, packed = fanout_oracle(circuit, 0, range(1, 21))
    report = _assert_chunked_matches_one_chunk(circuit, list(range(21)), None, packed)
    assert len(report.failures) == MAX_RECORDED_FAILURES and not report.ancilla_violations
    first = 24 << 16
    assert [inp for inp, _, _ in report.failures] == [
        tuple(case >> w & 1 for w in range(21)) for case in range(first, first + MAX_RECORDED_FAILURES)
    ]


def test_an_oracle_bad_only_in_the_last_chunk_is_refused():
    # A NOT on an added ancilla makes every case a violation, so both report
    # lists are full after the first chunk; the last chunk's oracle result
    # must still be checked.
    broken = _without(_tree_20(), 0)
    circuit = Circuit(22, {21}, gates=[*broken.gates, x(21)])
    _, packed = fanout_oracle(circuit, 0, range(1, 21))
    calls = []

    def bad_in_last_chunk(cols, n_cases):
        calls.append(n_cases)
        out = packed(cols, n_cases)
        if all(cols[w] for w in range(16, 21)):
            out[1] = 1 << n_cases
        return out

    reference = _one_chunk(circuit, list(range(21)), packed)
    assert len(reference.failures) == len(reference.ancilla_violations) == MAX_RECORDED_FAILURES
    with pytest.raises(ValueError, match="oracle entry for wire 1"):
        verify_exhaustive(circuit, packed_oracle=bad_in_last_chunk)
    assert calls == [1 << 16] * 32
