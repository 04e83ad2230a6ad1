"""A chunk's verdict is decided by exact int equality.

``_check_columns`` first tests each data wire's out column against the
oracle's with ``int.__eq__``, and builds the XOR diff only when some column
differs.  The oracle entries may be any ``int`` subclass, so the verdict
must not rest on an entry's own ``__eq__`` or ``__ne__``: a broken circuit
is rejected whatever they return.  ``reference_check_columns`` is the XOR
diff over every data wire that ``_check_columns`` ran before the equality
test, kept as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadd import (
    Circuit,
    GateKind,
    VerifyReport,
    ccx,
    cx,
    run_packed,
    synth_ripple,
    verify_exhaustive,
    verify_random,
    x,
)
from qadd.oracles import adder_oracle
from qadd.sim import (
    MAX_RECORDED_FAILURES,
    _case_bits,
    _check_columns,
    _check_result,
    _column_bytes,
    _iter_set_bits,
)

MAX_WIRES = 7


def reference_check_columns(circuit, in_cols, n_cases, packed_oracle, seed, room):
    """``_check_columns`` as one XOR diff over every data wire."""
    wc = circuit.wire_count
    out_cols = run_packed(circuit, in_cols, n_cases)
    data_wires = [w for w in range(wc) if w not in circuit.ancilla]
    exp_cols = packed_oracle(list(in_cols), n_cases)
    _check_result(exp_cols, data_wires, wc, n_cases)
    diff = 0
    for w in data_wires:
        diff |= exp_cols[w] ^ out_cols[w]
    viol = 0
    for w in circuit.ancilla:
        viol |= out_cols[w]
    in_bufs = [_column_bytes(c, n_cases) for c in in_cols]
    out_bufs = [_column_bytes(c, n_cases) for c in out_cols]
    exp_bufs = [_column_bytes(c, n_cases) for c in exp_cols]
    failures = []
    for case in _iter_set_bits(diff, room[0]):
        exp = _case_bits(exp_bufs, case, wc)
        for w in circuit.ancilla:
            exp[w] = 0
        failures.append(
            (tuple(_case_bits(in_bufs, case, wc)), tuple(exp), tuple(_case_bits(out_bufs, case, wc)))
        )
    violations = [tuple(_case_bits(in_bufs, case, wc)) for case in _iter_set_bits(viol, room[1])]
    return VerifyReport(n_cases, tuple(failures), tuple(violations), seed)


class _Liar(int):
    """An int that claims to equal, and never to differ from, anything."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = int.__hash__


def _lying(packed):
    def wrapped(cols, n_cases):
        return [_Liar(c) for c in packed(cols, n_cases)]

    return wrapped


def _as_bools(packed):
    def wrapped(cols, n_cases):
        assert n_cases == 1
        return [bool(c) for c in packed(cols, n_cases)]

    return wrapped


def _ripple_3_without_first_toffoli():
    c = synth_ripple(3)
    index = next(i for i, g in enumerate(c.gates) if g.kind is GateKind.TOFFOLI)
    return Circuit(c.wire_count, c.ancilla, c.role_map, c.gates[:index] + c.gates[index + 1 :])


def _exhaustive(circuit, packed):
    return verify_exhaustive(circuit, packed_oracle=packed)


def _seeded(circuit, packed):
    return verify_random(circuit, packed_oracle=packed, trials=500, seed=11)


@pytest.mark.parametrize("verify", [_exhaustive, _seeded], ids=["exhaustive", "random"])
@pytest.mark.parametrize("broken", [False, True], ids=["good", "broken"])
def test_a_lying_eq_gets_the_plain_int_report_on_ripple_3(verify, broken):
    circuit = _ripple_3_without_first_toffoli() if broken else synth_ripple(3)
    _, packed = adder_oracle(circuit)
    want = verify(circuit, packed)
    assert want.ok is not broken
    got = verify(circuit, _lying(packed))
    assert got == want and got.to_json() == want.to_json()


def _one_case_verifies(circuit, packed):
    return [
        verify_exhaustive(circuit, packed_oracle=packed, free_wires=[]),
        verify_random(circuit, packed_oracle=packed, trials=1, seed=11),
    ]


@pytest.mark.parametrize("broken", [False, True], ids=["good", "broken"])
def test_bool_entries_at_one_case_get_the_plain_int_report(broken):
    # Broken: a NOT on sum bit 0 fails every case, and a NOT on an added
    # ancilla leaves it set on every case.
    good = synth_ripple(3)
    wc = good.wire_count
    circuit = good
    if broken:
        circuit = Circuit(wc + 1, {wc}, good.role_map, [*good.gates, x(0), x(wc)])
    _, packed = adder_oracle(circuit)
    wants = _one_case_verifies(circuit, packed)
    for got, want in zip(_one_case_verifies(circuit, _as_bools(packed)), wants):
        assert got.total_cases == 1
        assert got == want and got.to_json() == want.to_json()
    assert all(r.ok is not broken for r in wants)
    if broken:
        assert all(r.failures and r.ancilla_violations for r in wants)


@st.composite
def _check_requests(draw):
    """A random circuit on free inputs, its own outputs as the oracle with
    some data bits flipped and any ancilla columns, and a case count."""
    wc = draw(st.integers(2, MAX_WIRES))
    ancilla = draw(st.sets(st.integers(0, wc - 1), max_size=wc - 1))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["not", "cnot", "toffoli"]))
        wires = draw(st.permutations(range(wc)))
        if kind == "not":
            gates.append(x(wires[0]))
        elif kind == "cnot":
            gates.append(cx(wires[0], wires[1]))
        elif wc >= 3:
            gates.append(ccx(wires[0], wires[1], wires[2]))
    circuit = Circuit(wc, ancilla, gates=gates)
    n_cases = draw(st.integers(1, 200))
    full = (1 << n_cases) - 1
    in_cols = [0 if w in ancilla else draw(st.integers(0, full)) for w in range(wc)]
    # flips of a data wire's column, or an ancilla's whole column
    noise = [draw(st.just(0) | st.integers(0, full)) for _ in range(wc)]

    def packed(cols, n):
        out = run_packed(circuit, cols, n)
        return [noise[w] if w in ancilla else out[w] ^ noise[w] for w in range(wc)]

    return circuit, in_cols, n_cases, packed


@settings(max_examples=150, deadline=None)
@given(_check_requests(), st.integers(0, 1 << 32) | st.none())
def test_check_columns_matches_the_xor_diff_reference(request, seed):
    circuit, in_cols, n_cases, packed = request
    rooms = [(r, MAX_RECORDED_FAILURES - r) for r in range(MAX_RECORDED_FAILURES + 1)]
    for room in rooms + [(MAX_RECORDED_FAILURES, MAX_RECORDED_FAILURES)]:
        got = _check_columns(circuit, in_cols, n_cases, packed, seed, room)
        want = reference_check_columns(circuit, in_cols, n_cases, packed, seed, room)
        assert got == want and got.to_json() == want.to_json()
