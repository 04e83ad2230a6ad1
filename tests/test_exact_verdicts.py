"""A chunk's verdict is decided by exact int equality.

``_check_result`` hands ``_check_columns`` the oracle's data-wire columns
as exact ints, so one list comparison decides a chunk, and the XOR diff is
built only when some column differs.  The oracle entries may be any
``int`` subclass, so the verdict must not rest on any method of an entry,
such as its own ``__eq__``, ``__ne__`` or ``__xor__``: a broken circuit is
rejected whatever they return.  ``reference_check_columns`` is the one-pass
XOR diff over every data wire of a whole request, kept as the reference.
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


def reference_check_columns(circuit, in_cols, n_cases, packed_oracle, seed):
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
    for case in _iter_set_bits(diff, MAX_RECORDED_FAILURES):
        exp = _case_bits(exp_bufs, case, wc)
        for w in circuit.ancilla:
            exp[w] = 0
        failures.append(
            (tuple(_case_bits(in_bufs, case, wc)), tuple(exp), tuple(_case_bits(out_bufs, case, wc)))
        )
    violated = _iter_set_bits(viol, MAX_RECORDED_FAILURES)
    violations = [tuple(_case_bits(in_bufs, case, wc)) for case in violated]
    return VerifyReport(n_cases, tuple(failures), tuple(violations), seed)


class _EqLiar(int):
    """An int that claims to equal, and never to differ from, anything."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = int.__hash__


class _XorLiar(int):
    """An int whose XOR with anything is 0."""

    def __xor__(self, other):
        return 0

    __rxor__ = __xor__


def _lying(packed, liar):
    def wrapped(cols, n_cases):
        return [liar(c) for c in packed(cols, n_cases)]

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


@pytest.mark.parametrize("liar", [_EqLiar, _XorLiar], ids=["eq", "xor"])
@pytest.mark.parametrize("verify", [_exhaustive, _seeded], ids=["exhaustive", "random"])
@pytest.mark.parametrize("broken", [False, True], ids=["good", "broken"])
def test_a_lying_eq_gets_the_plain_int_report_on_ripple_3(verify, broken, liar):
    circuit = _ripple_3_without_first_toffoli() if broken else synth_ripple(3)
    _, packed = adder_oracle(circuit)
    want = verify(circuit, packed)
    assert want.ok is not broken
    got = verify(circuit, _lying(packed, liar))
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
@given(_check_requests(), st.integers(0, 1 << 32) | st.none(), st.data())
def test_check_columns_matches_the_xor_diff_reference(request, seed, data):
    # Up to three cut points split the request's cases into chunks, so the
    # failure and violation caps fill across chunks.
    circuit, in_cols, n_cases, packed = request
    cuts = sorted(data.draw(st.sets(st.integers(0, n_cases - 1), max_size=3)) - {0})
    bounds = list(zip([0, *cuts], [*cuts, n_cases]))
    chunks = [([c >> lo & (1 << hi - lo) - 1 for c in in_cols], hi - lo) for lo, hi in bounds]
    whole = packed(in_cols, n_cases)
    calls = iter(zip(bounds, chunks))

    def chunk_oracle(cols, n):
        # the whole request's oracle columns, read at the next chunk's cases
        (lo, hi), (chunk_cols, chunk_cases) = next(calls)
        assert (cols, n) == (chunk_cols, chunk_cases)
        return [c >> lo & (1 << hi - lo) - 1 for c in whole]

    got = _check_columns(circuit, chunks, chunk_oracle, seed)
    want = reference_check_columns(circuit, in_cols, n_cases, packed, seed)
    assert got == want and got.to_json() == want.to_json()
