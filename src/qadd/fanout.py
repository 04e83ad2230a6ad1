"""Broadcast of one source bit into t targets using bounded-length fan-out gates.

A fan-out gate of length t XORs its source into t targets in one layer.
When only gates of length <= f are available, the same operation is
synthesized as U^-1 . CNOT(source -> root) . U where U is an f-ary
fan-out tree over the targets rooted at targets[0].  Over GF(2), U maps
the root's unit vector to the all-ones vector, so conjugating the single
injection by U adds the source bit to every target while each target's
initial value cancels.  No ancilla wires are needed.
"""

from __future__ import annotations

from typing import Iterable

from .circuit import (
    Circuit, Gate, _check_size, _check_wire_count, _check_wires, _collector_paused, _cx, _fo,
)


def _fanout_request(source: int, targets: Iterable[int]) -> tuple[int, ...]:
    """The one rule for a fan-out request, read by the tree's builder, its
    synthesizer and ``oracles.fanout_oracle``: the source and the targets
    under the one wire-id rule, and at least one target.  Returns the
    targets as a tuple; range checks are the caller's."""
    wires = _check_wires((source,), targets)
    if len(wires) < 2:
        raise ValueError("need at least one target")
    return tuple(wires[1:])


def fanout_tree_gates(source: int, targets: Iterable[int], f: int) -> list[Gate]:
    """Gate list of ``synth_fanout_tree`` on explicit wires."""
    targets = _fanout_request(source, targets)
    _check_size("f", f, 1)
    return _fanout_tree(source, targets, f)


def _fanout_tree(source: int, targets: tuple[int, ...], f: int) -> list[Gate]:
    """The tree on a request ``_fanout_request`` and ``_check_size`` passed."""
    t = len(targets)
    if f == 1:
        # degenerate case: a CNOT chain of depth t
        return [_cx(source, w) for w in targets]
    if t <= f:
        return [_fo(source, targets)]
    up: list[Gate] = []
    covered = 1  # targets[0] is the tree root
    while covered < t:
        snapshot = covered
        for idx in range(snapshot):
            if covered >= t:
                break
            take = min(f, t - covered)
            up.append(_fo(targets[idx], targets[covered : covered + take]))
            covered += take
    down = list(reversed(up))
    return down + [_cx(source, targets[0])] + up


@_collector_paused
def synth_fanout_tree(source: int, targets: Iterable[int], f: int) -> Circuit:
    """Circuit equivalent to one length-t fan-out from ``source``.

    Every emitted gate has fan-out length <= f.  For f >= 2 the depth is
    at most 2*ceil(log_f(t)) + 1 and the size at most
    2*ceil((t-1)/(f-1)) + 1; f = 1 falls back to a depth-t CNOT chain.
    The circuit is its own inverse.
    """
    targets = _fanout_request(source, targets)
    _check_size("f", f, 1)
    wire_count = _check_wire_count(max(source, *targets) + 1)
    return Circuit._adopt(wire_count, (), ({}, {}), _fanout_tree(source, targets, f))
