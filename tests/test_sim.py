import hashlib
import json
import random
import struct
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadd import (
    BlockParams,
    Circuit,
    GateKind,
    apply_gate,
    build_circuit,
    ccx,
    cx,
    fo,
    run,
    run_packed,
    splitmix64,
    synth_combined,
    synth_ripple,
    tg,
    verify_exhaustive,
    verify_random,
    x,
)
from qadd import sim
from qadd.blocked import combined_step_gates
from qadd.oracles import adder_oracle
from qadd.sim import (
    _CHUNK_BITS,
    _TRANSPOSE_BITS,
    RANDOM_INPUT_BIT_CAP,
    _case_bits,
    _check_columns,
    _column_bytes,
    _enumeration_columns,
    _packed_from_per_case,
    _random_columns,
    _splitmix64_block,
    _transpose_bytes8,
)


def test_apply_gate_fanout():
    # source y=1 flips every target
    state = [0, 1, 0, 1]  # wires: x0, src, x1, x2
    out = apply_gate(state, fo(1, [0, 2, 3]))
    assert out == [1, 1, 1, 0]
    assert state == [0, 1, 0, 1]  # input untouched


def test_apply_gate_gen_toffoli():
    assert apply_gate([1, 1, 1, 0], tg([0, 1, 2], 3)) == [1, 1, 1, 1]
    assert apply_gate([1, 0, 1, 0], tg([0, 1, 2], 3)) == [1, 0, 1, 0]


def test_apply_gate_toffoli_needs_both_controls():
    assert apply_gate([1, 0, 1], ccx(0, 1, 2)) == [1, 0, 1]
    assert apply_gate([1, 1, 1], ccx(0, 1, 2)) == [1, 1, 0]


def test_apply_gate_range_check():
    with pytest.raises(ValueError):
        apply_gate([0, 1], ccx(0, 1, 2))


def test_apply_gate_rejects_a_non_gate():
    with pytest.raises(TypeError):
        apply_gate([0, 1], (GateKind.CNOT, (0,), (1,)))


def test_apply_gate_chain_matches_run():
    c = synth_combined(BlockParams(8, 2))
    state = [0] * c.wire_count
    for i in range(8):
        state[c.wires_by_role()[f"A{i}"]] = (201 >> i) & 1
        state[c.wires_by_role()[f"B{i}"]] = (93 >> i) & 1
    folded = state
    for gate in c.gates:
        folded = apply_gate(folded, gate)
    assert folded == run(c, state)


def test_run_empty_is_identity():
    state = [1, 0, 1]
    assert run(build_circuit(3), state) == state


def test_run_ripple_n2():
    # a = 11b, b = 01b, z = 0: sum 100b
    c = synth_ripple(2)
    state = [0] * 5
    state[1], state[3] = 1, 1  # A0, A1
    state[0] = 1  # B0
    out = run(c, state)
    assert (out[0], out[2]) == (0, 0)  # B holds low sum bits
    assert out[4] == 1  # Z picked up s_2
    assert (out[1], out[3]) == (1, 1)  # A restored


def test_run_rejects_nonzero_ancilla():
    c = Circuit(3, ancilla={2}, gates=[cx(0, 1)])
    with pytest.raises(ValueError):
        run(c, [0, 0, 1])


@pytest.mark.parametrize("value", [2, -1, 5])
def test_run_and_apply_gate_reject_a_non_bit(value):
    state = [0, 1, value, 0, value]
    with pytest.raises(ValueError, match=f"wire 2 holds {value}"):
        run(synth_ripple(2), state)
    with pytest.raises(ValueError, match=f"wire 1 holds {value}"):
        apply_gate([1, value], cx(0, 1))


def test_run_accepts_bools():
    assert run(synth_ripple(1), [True, True, False]) == [0, 1, 1]


def test_run_length_mismatch():
    with pytest.raises(ValueError):
        run(build_circuit(3), [0, 0])


def test_run_then_inverse_is_identity_on_random_circuit():
    # seeded random circuit over 16 wires mixing all five gate kinds
    gen = splitmix64(123)
    c = build_circuit(16)
    for _ in range(200):
        w = next(gen)
        a, b, t = w % 16, (w >> 8) % 16, (w >> 16) % 16
        pick = (w >> 24) % 5
        if pick == 0 and a != t:
            c.append(cx(a, t))
        elif pick == 1 and len({a, b, t}) == 3:
            c.append(ccx(a, b, t))
        elif pick == 2:
            c.append(fo(a, [q for q in range(16) if q != a][: 1 + b % 6]))
        elif pick == 3 and a != t:
            c.append(tg([a], t))
        else:
            c.append(x(t))
    both = Circuit(16, gates=c.gates + c.inverse().gates)
    cols = _random_columns(both, list(range(16)), 500, seed=6)
    assert run_packed(both, cols, 500) == cols


def test_run_is_bijection():
    # seeded scramble over 12 wires: outputs must form a permutation
    width = 12
    gen = splitmix64(77)
    c = build_circuit(width)
    for _ in range(150):
        w = next(gen)
        a, b, t = w % width, (w >> 8) % width, (w >> 16) % width
        if len({a, b, t}) == 3:
            c.append(ccx(a, b, t))
        elif a != t:
            c.append(cx(a, t))
    cols = _enumeration_columns(c, list(range(width)))
    out = run_packed(c, cols, 1 << width)
    images = set()
    for case in range(1 << width):
        images.add(tuple((out[w] >> case) & 1 for w in range(width)))
    assert len(images) == 1 << width


def test_splitmix64_reference_vectors():
    gen = splitmix64(0)
    assert [next(gen) for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_enumeration_columns_cover_all_cases():
    c = build_circuit(3)
    cols = _enumeration_columns(c, [0, 1, 2])
    for case in range(8):
        bits = tuple((cols[w] >> case) & 1 for w in range(3))
        assert bits == (case & 1, (case >> 1) & 1, (case >> 2) & 1)


def test_verify_exhaustive_cap():
    c = build_circuit(25)
    with pytest.raises(ValueError):
        verify_exhaustive(c, oracle=lambda s: s)


def test_verify_rejects_ancilla_in_free_set():
    c = Circuit(2, ancilla={1})
    with pytest.raises(ValueError):
        verify_exhaustive(c, oracle=lambda s: s, free_wires=[1])


def test_verify_needs_an_oracle():
    with pytest.raises(ValueError):
        verify_exhaustive(build_circuit(2))


@pytest.mark.parametrize("both", [False, True], ids=["no-oracle", "both-oracles"])
@pytest.mark.parametrize("verify", [verify_exhaustive, verify_random])
def test_verify_settles_the_oracle_before_building_inputs(monkeypatch, verify, both):
    # The oracle pair used to be checked only after every input column was
    # built: 9 s and 160 MB for a cap-sized seeded request with no oracle.
    def refuse(*args, **kwargs):
        raise AssertionError("inputs were built for a request without one oracle")

    monkeypatch.setattr(sim, "_random_columns", refuse)
    monkeypatch.setattr(sim, "_enumeration_columns", refuse)
    c = synth_ripple(3)
    oracles = {"oracle": lambda s: s, "packed_oracle": adder_oracle(c)[1]} if both else {}
    with pytest.raises(ValueError, match="exactly one of oracle= and packed_oracle="):
        verify(c, **oracles)


@pytest.mark.parametrize("verify", [verify_exhaustive, verify_random])
def test_verify_rejects_both_oracles(verify):
    # The per-case oracle here is wrong on every case; it used to be
    # ignored whenever a packed oracle came with it.
    c = synth_ripple(3)
    _, packed = adder_oracle(c)
    with pytest.raises(ValueError, match="oracle= and packed_oracle="):
        verify(c, oracle=lambda s: [1] * len(s), packed_oracle=packed)


def test_verify_detects_mutation():
    c = synth_ripple(3)
    broken = Circuit(c.wire_count, role_map=c.role_map)
    dropped = False
    for g in c.gates:
        if not dropped and len(g.controls) == 2:
            dropped = True  # remove the first Toffoli
            continue
        broken.append(g)
    _, packed = adder_oracle(broken)
    report = verify_exhaustive(broken, packed_oracle=packed)
    assert not report.ok and len(report.failures) >= 1
    inp, exp, act = report.failures[0]
    assert len(inp) == len(exp) == len(act) == c.wire_count
    assert exp != act


def test_verify_detects_ancilla_violation():
    c = Circuit(2, ancilla={1}, gates=[cx(0, 1)])
    report = verify_exhaustive(c, oracle=lambda s: list(s))
    assert report.ancilla_violations  # the case with wire 0 set leaks into the ancilla


def test_verify_random_determinism():
    c = synth_ripple(16)
    _, packed = adder_oracle(c)
    r1 = verify_random(c, packed_oracle=packed, trials=200, seed=42)
    r2 = verify_random(c, packed_oracle=packed, trials=200, seed=42)
    assert r1.to_json() == r2.to_json()
    r3 = verify_random(c, packed_oracle=packed, trials=200, seed=43)
    assert r3.ok and r3.seed == 43


def test_verify_per_case_and_packed_agree():
    c = synth_ripple(4)
    per, packed = adder_oracle(c)
    r1 = verify_exhaustive(c, oracle=per)
    r2 = verify_exhaustive(c, packed_oracle=packed)
    assert r1.ok and r2.ok and r1.total_cases == r2.total_cases == 1 << 9


def test_report_json_shape():
    c = synth_ripple(2)
    _, packed = adder_oracle(c)
    report = verify_exhaustive(c, packed_oracle=packed)
    payload = json.loads(report.to_json())
    assert payload == {
        "total_cases": 32,
        "failures": [],
        "ancilla_violations": [],
        "seed": None,
    }


def test_random_columns_are_seed_stable():
    c = build_circuit(4)
    a = _random_columns(c, [0, 1, 2, 3], 64, seed=9)
    b = _random_columns(c, [0, 1, 2, 3], 64, seed=9)
    assert a == b and any(a)


def _random_columns_reference(circuit, free, trials, seed):
    """The original one-bit-at-a-time generator, kept as the reference."""
    cols = [0] * circuit.wire_count
    gen = splitmix64(seed)
    word = 0
    have = 0
    for trial in range(trials):
        bit_pos = 1 << trial
        for w in free:
            if have == 0:
                word = next(gen)
                have = 64
            if word & 1:
                cols[w] |= bit_pos
            word >>= 1
            have -= 1
    return cols


@pytest.mark.parametrize("width", [1, 63, 64, 65, 2049])
def test_random_columns_match_reference_at_edge_shapes(width):
    step = max(64, _CHUNK_BITS // width // 64 * 64)
    c = Circuit(width)
    free = list(range(width))
    seed = 2**64 + width
    # Seeded columns are prefix-stable, so one long reference run covers
    # every shorter trial count.
    ref = _random_columns_reference(c, free, step + 1, seed)
    for trials in (1, 7, 8, 63, 64, 65, step - 1, step, step + 1):
        mask = (1 << trials) - 1
        assert _random_columns(c, free, trials, seed) == [col & mask for col in ref]


def test_random_columns_match_reference_on_free_subset_with_ancilla():
    c = Circuit(40, ancilla={3, 10, 11, 30})
    free = [0, 2, 5, 7, 12, 20, 39]
    for trials in (1, 9, 64, 300):
        got = _random_columns(c, free, trials, seed=17)
        assert got == _random_columns_reference(c, free, trials, 17)
        assert all(got[w] == 0 for w in range(40) if w not in free)
    assert _random_columns(c, [], 5, seed=17) == [0] * 40


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 300),
    trials=st.integers(1, 400),
    seed=st.integers(-(2**65), 2**70),
)
def test_random_columns_match_reference_property(data, width, trials, seed):
    free = sorted(data.draw(st.sets(st.integers(0, width - 1), min_size=1)))
    c = Circuit(width)
    assert _random_columns(c, free, trials, seed) == _random_columns_reference(
        c, free, trials, seed
    )


def _random_columns_strided_reference(circuit, free, trials, seed):
    """The strided-string generator that the transpose replaced, kept as a
    linear-time reference: it renders each chunk of about ``_CHUNK_BITS``
    stream bits as one binary string and parses one strided slice per wire."""
    cols = [0] * circuit.wire_count
    width = len(free)
    if width == 0:
        return cols
    # A multiple of 64 trials keeps every chunk word- and byte-aligned.
    step = max(64, _CHUNK_BITS // width // 64 * 64)
    bufs = [bytearray() for _ in free]
    for first in range(0, trials, step):
        n = min(step, trials - first)
        n_words = -(-n * width // 64)
        words = _splitmix64_block(seed, first * width // 64, n_words)
        length = 64 * n_words
        bits = format(int.from_bytes(words, "little"), f"0{length}b")
        top = length - 1 - (n - 1) * width
        n_bytes = (n + 7) // 8
        for j, buf in enumerate(bufs):
            buf += int(bits[top - j : length - j : width], 2).to_bytes(n_bytes, "little")
    for w, buf in zip(free, bufs):
        cols[w] = int.from_bytes(buf, "little")
        buf.clear()  # free each buffer as its column replaces it
    return cols


def _all_free_columns(width, trials, seed):
    c = Circuit(width)
    free = list(range(width))
    return _random_columns(c, free, trials, seed), _random_columns_strided_reference(
        c, free, trials, seed
    )


def test_random_columns_are_pinned_at_the_workload_shapes():
    # sha256 of every column's bytes, and of a failing report's JSON, as the
    # strided-string generator made them.  A passing report holds no inputs,
    # so these pins are what shows a changed bit assignment.
    def column_digest(circuit, trials):
        free = [w for w in range(circuit.wire_count) if w not in circuit.ancilla]
        cols = _random_columns(circuit, free, trials, 1)
        return hashlib.sha256(b"".join(_column_bytes(c, trials) for c in cols)).hexdigest()

    assert column_digest(synth_ripple(1024), 8000) == (
        "d10ebc71e0177119b7ce10b1ccc8ce237e54d7e50bffea12670a3d561365f8f8"
    )
    assert column_digest(synth_combined(BlockParams(4096, 12)), 1000) == (
        "32adc814022c196295b3abb0d5dbebdfcde0d1c1994b1566f7225c81026c944b"
    )
    good = synth_ripple(64)
    half = len(good.gates) // 2
    broken = Circuit(
        good.wire_count, good.ancilla, good.role_map, good.gates[:half] + good.gates[half + 1 :]
    )
    report = verify_random(broken, packed_oracle=adder_oracle(broken)[1], trials=500, seed=3)
    assert report.failures
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "4fc0750a84f363a7bfd9aaec041bfbbef6386bbef71a2665f9922af71b0c76ef"
    )


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 2049, 8193])
def test_random_columns_match_strided_reference_at_byte_edges(width):
    for trials in (1, 7, 8, 9, 64, 65, 131):
        got, want = _all_free_columns(width, trials, seed=width)
        assert got == want


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 2049])
def test_random_columns_match_strided_reference_across_transpose_chunks(monkeypatch, width):
    monkeypatch.setattr(sim, "_TRANSPOSE_BITS", 1 << 10)
    step = max(64, (1 << 10) // width // 64 * 64)
    for trials in (step - 1, step, step + 1, 2 * step + 3):
        got, want = _all_free_columns(width, trials, seed=2**64 - width)
        assert got == want


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    wire_count=st.integers(1, 300),
    trials=st.integers(1, 700),
    seed=st.integers(-(2**65), 2**70),
    transpose_bits=st.sampled_from([1 << 10, 1 << 12, _TRANSPOSE_BITS]),
)
def test_random_columns_match_strided_reference_property(
    data, wire_count, trials, seed, transpose_bits
):
    ancilla = data.draw(st.sets(st.integers(0, wire_count - 1), max_size=wire_count - 1))
    data_wires = [w for w in range(wire_count) if w not in ancilla]
    free = sorted(data.draw(st.sets(st.sampled_from(data_wires), min_size=1)))
    c = Circuit(wire_count, ancilla=ancilla)
    with mock.patch.object(sim, "_TRANSPOSE_BITS", transpose_bits):
        got = _random_columns(c, free, trials, seed)
    assert got == _random_columns_strided_reference(c, free, trials, seed)
    assert all(got[w] == 0 for w in range(wire_count) if w not in free)


def _transpose8_reference(lane):
    """Bit b of byte r goes to bit r of byte b, one bit at a time."""
    out = bytearray(8)
    for r in range(8):
        for b in range(8):
            if lane[r] >> b & 1:
                out[b] |= 1 << r
    return bytes(out)


@pytest.mark.parametrize("count", [1, 2, 3, 100, 4097])
def test_transpose_bytes8_matches_per_bit_reference(count):
    rng = random.Random(count)
    lanes = b"\xff" * 8 + b"\x01\x02\x04\x08\x10\x20\x40\x80" + rng.randbytes(8 * count)
    want = b"".join(_transpose8_reference(lanes[i : i + 8]) for i in range(0, len(lanes), 8))
    got = _transpose_bytes8(lanes)
    assert got == want
    assert _transpose_bytes8(got) == lanes


@pytest.mark.parametrize(
    "seed,start,count",
    [(0, 0, 1), (0, 5, 40), (7, 1, 3), (2**64, 3, 17), (2**64 + 9, 100, 65), (-3, 2, 8)],
)
def test_splitmix64_block_matches_stream(seed, start, count):
    expected = struct.pack(f"<{count}Q", *islice(splitmix64(seed), start, start + count))
    assert _splitmix64_block(seed, start, count) == expected


def test_verify_random_caps_input_bits():
    c = Circuit(64)
    trials = RANDOM_INPUT_BIT_CAP // 64 + 1
    with pytest.raises(ValueError, match="cap"):
        verify_random(c, packed_oracle=lambda cols, n: cols, trials=trials)
    report = verify_random(c, packed_oracle=lambda cols, n: cols, trials=64, seed=1)
    assert report.ok


def _expected_columns_reference(circuit, in_cols, n_cases, oracle):
    """The original per-case oracle loop, which ORs one bit per case into
    growing ints; kept as the reference."""
    wc = circuit.wire_count
    data_wires = [w for w in range(wc) if w not in circuit.ancilla]
    exp_cols = [0] * wc
    in_bufs = [_column_bytes(c, n_cases) for c in in_cols]
    for case in range(n_cases):
        bit_pos = 1 << case
        expected = oracle(_case_bits(in_bufs, case, wc))
        for w in data_wires:
            if expected[w]:
                exp_cols[w] |= bit_pos
    return exp_cols


def _combined_without_first_complement_gate():
    """Combined n = 8, d = 2 minus one NOT of its complement section: the sum
    comes out wrong on every input, and some inputs leave an ancilla set."""
    good = synth_combined(BlockParams(8, 2))
    sections = combined_step_gates(BlockParams(8, 2))
    names = [name for name, _ in sections]
    index = sum(len(gates) for _, gates in sections[: names.index("complement")])
    gates = good.gates[:index] + good.gates[index + 1 :]
    return Circuit(good.wire_count, good.ancilla, good.role_map, gates)


@pytest.mark.parametrize("n_cases", [1, 7, 8, 9, 63, 64, 65, 1000])
@pytest.mark.parametrize("broken", [False, True], ids=["good", "broken"])
def test_per_case_oracle_matches_reference_loop(n_cases, broken):
    if broken:
        circuit = _combined_without_first_complement_gate()
    else:
        circuit = synth_combined(BlockParams(8, 2))
    assert circuit.ancilla
    per_case, _ = adder_oracle(circuit)
    free = [w for w in range(circuit.wire_count) if w not in circuit.ancilla]
    in_cols = _random_columns(circuit, free, n_cases, seed=n_cases)
    reference = _expected_columns_reference(circuit, in_cols, n_cases, per_case)
    got = _check_columns(
        circuit, in_cols, n_cases, _packed_from_per_case(circuit, per_case), seed=n_cases
    )
    want = _check_columns(circuit, in_cols, n_cases, lambda cols, n: reference, seed=n_cases)
    assert got == want and got.to_json() == want.to_json()
    assert got.ok is not broken
    if broken and n_cases >= 64:
        assert got.ancilla_violations


def _ancilla_all_ones(circuit):
    """adder_oracle's packed half with every ancilla column set to all ones."""
    _, packed = adder_oracle(circuit)

    def wrapped(cols, n_cases):
        out = packed(cols, n_cases)
        for w in circuit.ancilla:
            out[w] = (1 << n_cases) - 1
        return out

    return wrapped


def test_check_ignores_the_oracles_ancilla_columns():
    circuit = synth_combined(BlockParams(8, 2))
    assert verify_exhaustive(circuit, packed_oracle=_ancilla_all_ones(circuit)).ok
    broken = _combined_without_first_complement_gate()
    report = verify_random(broken, packed_oracle=_ancilla_all_ones(broken), trials=64, seed=3)
    assert report.failures and report.ancilla_violations
    for _, expected, _ in report.failures:
        assert all(expected[w] == 0 for w in broken.ancilla)
