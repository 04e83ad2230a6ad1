"""Mutation adequacy: the exhaustive oracle check must notice every
single-gate deletion that changes what a circuit computes.

A deleted gate that changes nothing is one with a control wire reading 0
on every input at that point of the circuit; such a gate is dead, and its
deletion must pass.  Every other deletion must make ``verify_exhaustive``
fail.  This measures the oracle's power instead of assuming it.
"""

import pytest

from qadd import BlockParams, Circuit, run_packed, synth_combined, synth_ripple, verify_exhaustive
from qadd.oracles import adder_oracle
from qadd.sim import _enumeration_columns


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
