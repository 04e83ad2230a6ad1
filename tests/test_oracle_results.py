"""What the oracles read and what ``verify_*`` accepts back from them.

Role registers are read by index as digit strings, so a label of any length
is read.  A caller's oracle result is checked before any failure is decoded:
exactly one entry per wire, each data-wire entry a non-negative int column
(packed) or a 0/1 bit (per case); ancilla entries are never read."""

from enum import IntEnum

import pytest

from qadd import BlockParams, Circuit, synth_carry, synth_combined, synth_ripple, x
from qadd import verify_exhaustive, verify_random
from qadd.oracles import adder_oracle, carry_fold_oracle, first_half_oracle
from qadd.oracles import init_oracle, sum_oracle

OPERAND_FACTORIES = [adder_oracle, first_half_oracle, init_oracle, sum_oracle]

RIPPLE_2 = synth_ripple(2)


def _with_label(circuit, label):
    """``circuit`` with one more wire, labelled ``label``."""
    roles = {**circuit.role_map, circuit.wire_count: label}
    return Circuit(circuit.wire_count + 1, circuit.ancilla, roles, circuit.gates)


@pytest.mark.parametrize(
    "label",
    ["B" + "9" * 5000, "B7", "B007", "B" + "0" * 5000 + "3"],
    ids=["5000-nines", "B7", "B007", "5000-zeros-then-3"],
)
@pytest.mark.parametrize("factory", OPERAND_FACTORIES, ids=lambda f: f.__name__)
def test_a_register_label_past_the_gap_names_the_gap(factory, label):
    with pytest.raises(KeyError, match="B2"):
        factory(_with_label(RIPPLE_2, label))


@pytest.mark.parametrize(
    "label",
    ["B01", "B001", "B00", "B" + "0" * 5000, "Bx9", "B-3"],
    ids=["B01", "B001", "B00", "5000-zeros", "Bx9", "B-3"],
)
def test_a_label_at_or_below_the_gap_is_passed_through(label):
    circuit = _with_label(RIPPLE_2, label)
    _, packed = adder_oracle(circuit)
    assert verify_exhaustive(circuit, packed_oracle=packed).ok


def test_a_long_generate_label_names_the_gap():
    with pytest.raises(KeyError, match="G4"):
        carry_fold_oracle(_with_label(synth_carry(4, 1), "G" + "9" * 5000))


_, ADDER = adder_oracle(RIPPLE_2)
BAD_PACKED = {
    "two-columns": (lambda cols, n: ADDER(cols, n)[:2], "returned 2 entries for 5 wires"),
    "six-columns": (lambda cols, n: ADDER(cols, n) + [0], "returned 6 entries for 5 wires"),
    "negative": (lambda cols, n: [-1] * 5, "wire 0 is an int out of range"),
    "too-wide": (lambda cols, n: [1 << n] + ADDER(cols, n)[1:], "wire 0 is an int out of range"),
    "float": (lambda cols, n: ADDER(cols, n)[:4] + [0.0], "wire 4 is 0.0"),
}


@pytest.mark.parametrize("verify", [verify_exhaustive, verify_random], ids=["exhaustive", "random"])
@pytest.mark.parametrize("oracle,message", BAD_PACKED.values(), ids=BAD_PACKED.keys())
def test_a_bad_packed_result_is_refused(verify, oracle, message):
    with pytest.raises(ValueError, match=message):
        verify(RIPPLE_2, packed_oracle=oracle)


PER_CASE, _ = adder_oracle(RIPPLE_2)
BAD_PER_CASE = {
    "short": (lambda s: s[:2], "returned 2 entries for 5 wires"),
    "long": (lambda s: list(s) + [0], "returned 6 entries for 5 wires"),
    "halves": (lambda s: [0.5] * 5, "wire 0 is 0.5, not a bit"),
    "string": (lambda s: "11111", "wire 0 is '1', not a bit"),
    "two": (lambda s: PER_CASE(s)[:3] + [2, 0], "wire 3 is an int out of range, not a bit"),
    "minus-one": (lambda s: PER_CASE(s)[:2] + [-1, 0, 0], "wire 2 is an int out of range"),
    "none": (lambda s: [None] * 5, "wire 0 is None, not a bit"),
    "float-one": (lambda s: [1.0] * 5, "wire 0 is 1.0, not a bit"),
}


@pytest.mark.parametrize("verify", [verify_exhaustive, verify_random], ids=["exhaustive", "random"])
@pytest.mark.parametrize("oracle,message", BAD_PER_CASE.values(), ids=BAD_PER_CASE.keys())
def test_a_bad_per_case_result_is_refused(verify, oracle, message):
    with pytest.raises(ValueError, match=message):
        verify(RIPPLE_2, oracle=oracle)


class Bit(IntEnum):
    ZERO = 0
    ONE = 1


class Column(int):
    """An int subclass, as a caller's packed oracle might return."""


class InRangeLiar(int):
    """An int that claims to be at least 0 and to fit in any width."""

    def __lt__(self, other):
        return False

    def __rshift__(self, other):
        return 0


def test_bool_bits_are_read_as_bits():
    report = verify_random(RIPPLE_2, oracle=lambda s: [bool(v) for v in PER_CASE(s)], trials=100)
    assert report.ok


def test_int_subclass_entries_are_read_on_both_paths():
    assert verify_exhaustive(RIPPLE_2, oracle=lambda s: [Bit(v) for v in PER_CASE(s)]).ok
    assert verify_exhaustive(
        RIPPLE_2, packed_oracle=lambda cols, n: [Column(c) for c in ADDER(cols, n)]
    ).ok


def test_int_subclass_entries_out_of_range_are_refused_on_both_paths():
    with pytest.raises(ValueError, match="wire 3 is an int out of range, not a bit"):
        verify_exhaustive(RIPPLE_2, oracle=lambda s: [Bit(0)] * 3 + [Column(2), Bit(0)])
    with pytest.raises(ValueError, match="wire 0 is an int out of range"):
        verify_exhaustive(RIPPLE_2, packed_oracle=lambda cols, n: [Column(-1)] * 5)
    # the range is checked on the entry's value, not through its methods
    with pytest.raises(ValueError, match="wire 0 is an int out of range"):
        verify_exhaustive(RIPPLE_2, packed_oracle=lambda cols, n: [InRangeLiar(-1)] * 5)
    with pytest.raises(ValueError, match="wire 0 is an int out of range, not a bit"):
        verify_exhaustive(RIPPLE_2, oracle=lambda s: [InRangeLiar(-1)] * 5)


def test_ancilla_entries_are_never_read():
    # Without its first gate, combined (8, 2) fails: the failures are
    # decoded with 0 as each ancilla's expected bit, whatever the oracle
    # put there.
    good = synth_combined(BlockParams(8, 2))
    broken = Circuit(good.wire_count, good.ancilla, good.role_map, good.gates[1:])
    for circuit, entries in [(good, [None]), (broken, [None, -1])]:
        per_case, packed = adder_oracle(circuit)
        want = verify_random(circuit, packed_oracle=packed, trials=300, seed=4)
        assert want.ok is (circuit is good)
        for entry in entries:

            def per_case_entry(state):
                out = per_case(state)
                for w in circuit.ancilla:
                    out[w] = entry
                return out

            def packed_entry(cols, n_cases):
                out = packed(cols, n_cases)
                for w in circuit.ancilla:
                    out[w] = entry
                return out

            for oracles in ({"oracle": per_case_entry}, {"packed_oracle": packed_entry}):
                got = verify_random(circuit, trials=300, seed=4, **oracles)
                assert got == want and got.to_json() == want.to_json()


def test_the_per_case_path_keeps_every_expected_bit():
    # One wrong bit at a known case, in and past the first byte of cases.
    bad_cases = {3, 777}

    def oracle(state):
        out = PER_CASE(state)
        oracle.calls += 1
        if oracle.calls - 1 in bad_cases:
            out[1] ^= 1
        return out

    oracle.calls = 0
    report = verify_random(RIPPLE_2, oracle=oracle, trials=1000, seed=9)
    assert oracle.calls == 1000
    assert len(report.failures) == 2
    for inp, expected, actual in report.failures:
        assert expected[1] != actual[1]


@pytest.mark.parametrize(
    "wire_count,ancilla",
    [(1, []), (2, [1]), (1, [0]), (3, [0, 2]), (4, [])],
    ids=["one-data-wire", "one-data-one-ancilla", "all-ancilla", "middle-data-wire", "no-ancilla"],
)
def test_per_case_results_over_few_data_wires(wire_count, ancilla):
    data = [w for w in range(wire_count) if w not in ancilla]
    circuit = Circuit(wire_count, ancilla, gates=[x(w) for w in data])

    def flip(state):
        return [1 - v if w in data else None for w, v in enumerate(state)]

    assert verify_exhaustive(circuit, oracle=flip).ok
    if data:
        assert len(verify_exhaustive(circuit, oracle=lambda s: list(s)).failures) == 2 ** len(data)
        with pytest.raises(ValueError, match=f"wire {data[0]} is 0.5, not a bit"):
            verify_exhaustive(circuit, oracle=lambda s: [0.5] * wire_count)
