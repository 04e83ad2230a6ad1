"""Mutation adequacy: the exhaustive oracle check must notice every
single-gate deletion that changes what a circuit computes.

A deleted gate that changes nothing is one with a control wire reading 0
on every input at that point of the circuit; such a gate is dead, and its
deletion must pass.  Every other deletion must make ``verify_exhaustive``
fail.  This measures the oracle's power instead of assuming it.

The synthesizers are also checked for waste: the combined adder has no
dead gate, no synthesizer declares an ancilla that no gate reads, and no
synthesized gate cancels against its neighbour.
"""

import pytest

from qadd import (
    BlockParams,
    Circuit,
    run_packed,
    synth_carry,
    synth_combined,
    synth_fanout_tree,
    synth_init,
    synth_ripple,
    synth_sum,
    verify_exhaustive,
)
from qadd.oracles import adder_oracle
from qadd.sim import _enumeration_columns
from test_gate import _valid_depths


def _without(circuit, index):
    gates = circuit.gates[:index] + circuit.gates[index + 1 :]
    return Circuit(circuit.wire_count, circuit.ancilla, circuit.role_map, gates)


def _dead_gates(circuit):
    """Indices of gates with a control that reads 0 on every exhaustive
    input, found by running each gate's prefix with ``run_packed``."""
    free = [w for w in range(circuit.wire_count) if w not in circuit.ancilla]
    cols = _enumeration_columns(circuit, free)
    n_cases = 1 << len(free)
    dead = set()
    for i, (_, controls, _) in enumerate(circuit.gates):
        prefix = Circuit(circuit.wire_count, gates=circuit.gates[:i])
        state = run_packed(prefix, cols, n_cases)
        if any(state[c] == 0 for c in controls):
            dead.add(i)
    return dead


@pytest.mark.parametrize(
    "circuit",
    [synth_ripple(n) for n in range(1, 7)]
    + [synth_combined(BlockParams(8, d)) for d in (2, 3)],
    ids=[f"ripple-{n}" for n in range(1, 7)] + [f"combined-8-{d}" for d in (2, 3)],
)
def test_every_live_single_gate_deletion_is_caught(circuit):
    dead = _dead_gates(circuit)
    for i in range(len(circuit.gates)):
        broken = _without(circuit, i)
        _, packed = adder_oracle(broken)
        report = verify_exhaustive(broken, packed_oracle=packed)
        assert report.ok == (i in dead), f"deleting gate {i} {circuit.gates[i]}"


@pytest.mark.parametrize("d", [2, 3])
def test_combined_has_no_dead_gate(d):
    assert _dead_gates(synth_combined(BlockParams(8, d))) == set()


def _every_synthesized_circuit():
    yield from (synth_ripple(n) for n in range(1, 65))
    for e in range(3, 11):
        n = 1 << e
        # synth_combined depends on d only through the block width k, so
        # one d per k covers every valid (n, d)
        for k in sorted({BlockParams(n, d).k for d in _valid_depths(n)}):
            yield synth_combined(BlockParams(n, k))
    yield from (synth_init(w) for w in range(2, 9))
    for w in range(1, 9):
        yield from (synth_sum(w), synth_sum(w, with_carry_in=False))
    for n in (4, 8, 16, 32, 64, 128):
        yield from (synth_carry(n, l) for l in range(1, n.bit_length()) if n >> (l - 1) >= 4)
    for f in (1, 2, 3, 16):
        yield from (synth_fanout_tree(0, range(1, t + 1), f) for t in (1, 2, 3, 17, 256))


def test_every_declared_ancilla_is_read():
    for circuit in _every_synthesized_circuit():
        read = set()
        for _, controls, _ in circuit.gates:
            read.update(controls)
        assert circuit.ancilla <= read, sorted(circuit.ancilla - read)


def _cancelling_pairs(circuit):
    """(i, j) for each gate j whose latest predecessor on every one of its
    wires is the one gate i, equal to it: every kind is its own inverse,
    so the two cancel and both could be deleted."""
    last: dict[int, int] = {}
    pairs = []
    for j, gate in enumerate(circuit.gates):
        preds = {last.get(w) for w in gate.operands}
        if len(preds) == 1:
            (i,) = preds
            if i is not None and circuit.gates[i] == gate:
                pairs.append((i, j))
        for w in gate.operands:
            last[w] = j
    return pairs


def test_no_gate_cancels_its_neighbour():
    for circuit in _every_synthesized_circuit():
        pairs = _cancelling_pairs(circuit)
        assert not pairs, (circuit.wire_count, len(pairs), circuit.gates[pairs[0][1]])
