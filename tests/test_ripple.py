import pytest

from qadd import (
    Circuit,
    build_circuit,
    compute_stats,
    max_window_span,
    ripple_closed_forms,
    run,
    synth_ripple,
    verify_exhaustive,
)
from qadd.oracles import adder_oracle, first_half_oracle
from qadd.ripple import adder_first_half_gates, interleaved_layout, maj_fragment, ripple_add_gates


def _maj(a, b, c):
    return (a & b) ^ (b & c) ^ (c & a)


def test_maj_fragment_truth_table():
    for bits in range(8):
        c, b, a = bits & 1, (bits >> 1) & 1, (bits >> 2) & 1
        circuit = build_circuit(3).extend(maj_fragment(0, 1, 2))
        out = run(circuit, [c, b, a])
        assert out == [c ^ a, b ^ a, _maj(a, b, c)], (a, b, c)


def test_maj_fragment_examples():
    circuit = build_circuit(3).extend(maj_fragment(0, 1, 2))
    assert run(circuit, [0, 1, 1]) == [1, 0, 1]
    assert run(circuit, [0, 0, 0]) == [0, 0, 0]


def test_maj_fragment_rejects_duplicates():
    with pytest.raises(ValueError):
        maj_fragment(0, 0, 1)


def test_synth_ripple_rejects_zero_width():
    with pytest.raises(ValueError):
        synth_ripple(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_ripple_exhaustive(n):
    c = synth_ripple(n)
    _, packed = adder_oracle(c)
    assert verify_exhaustive(c, packed_oracle=packed).ok


def test_ripple_example_values():
    c = synth_ripple(8)
    by_role = c.wires_by_role()
    state = [0] * c.wire_count
    for i in range(8):
        state[by_role[f"A{i}"]] = (170 >> i) & 1
        state[by_role[f"B{i}"]] = (85 >> i) & 1
    out = run(c, state)
    assert sum(out[by_role[f"B{i}"]] << i for i in range(8)) == 255
    assert out[by_role["Z"]] == 0


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 33, 100])
def test_ripple_exact_counts(n):
    st = compute_stats(synth_ripple(n))
    assert st.depth == 5 * n - 3
    assert st.size == 7 * n - 6
    assert st.count_cnot == 5 * n - 5
    assert st.count_toffoli == 2 * n - 1
    assert st.ancilla_count == 0


def test_ripple_span_under_interleaved_layout():
    for n in (1, 2, 3, 8, 64):
        c = synth_ripple(n)
        assert max_window_span(c, interleaved_layout(c)) <= 3


@pytest.mark.parametrize("n", range(1, 7))
def test_state_after_first_half(n):
    # the first 3n-2 gates are exactly steps 1-3; the wire contents there
    # must be b_0, a_0, (b_i^a_i, a_i^c_i)..., z^s_n
    c = synth_ripple(n)
    prefix = Circuit(c.wire_count, role_map=c.role_map, gates=c.gates[: 3 * n - 2])
    _, packed = first_half_oracle(prefix)
    assert verify_exhaustive(prefix, packed_oracle=packed).ok


def test_adder_first_half_carry_out():
    # exhaustive w=4: the carry wire receives c_4 from the majority recurrence
    w = 4
    gates = adder_first_half_gates([2 * i for i in range(w)], [2 * i + 1 for i in range(w)], 2 * w)
    c = Circuit(2 * w + 1, gates=gates)
    for case in range(1 << (2 * w)):
        state = [(case >> i) & 1 for i in range(2 * w)] + [0]
        out = run(c, state)
        carry = 0
        for i in range(w):
            carry = _maj(state[2 * i + 1], state[2 * i], carry)
        assert out[2 * w] == carry


def test_adder_first_half_all_zero_inputs():
    w = 5
    gates = adder_first_half_gates([2 * i for i in range(w)], [2 * i + 1 for i in range(w)], 2 * w)
    c = Circuit(2 * w + 1, gates=gates)
    assert run(c, [0] * (2 * w + 1)) == [0] * (2 * w + 1)


def test_first_half_toffoli_count():
    w = 5
    gates = adder_first_half_gates([2 * i for i in range(w)], [2 * i + 1 for i in range(w)], 2 * w)
    assert sum(1 for g in gates if len(g.controls) == 2) == w


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 33, 100, 1024])
def test_ripple_closed_forms_match_stats(n):
    observed = compute_stats(synth_ripple(n)).to_json_dict()
    forms = ripple_closed_forms(n)
    assert forms == {key: observed[key] for key in forms}


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_ripple_closed_forms_need_n_at_least_3(n):
    with pytest.raises(ValueError, match="n >= 3"):
        ripple_closed_forms(n)


@pytest.mark.parametrize(
    "b,a,extra",
    [([], [], 0), ([0, 1], [2], 3), ([0, 1], [2, 0], 4), ([0], [1], 1), ([-1], [1], 2)],
)
def test_ripple_gate_lists_check_their_wires(b, a, extra):
    for build in (ripple_add_gates, adder_first_half_gates):
        with pytest.raises(ValueError):
            build(b, a, extra)


def test_ripple_add_gates_start_with_the_first_half():
    b, a, z = [2 * i for i in range(6)], [2 * i + 1 for i in range(6)], 12
    assert ripple_add_gates(b, a, z)[: 3 * 6 - 2] == adder_first_half_gates(b, a, z)
