"""The acceptance sweep's outputs, pinned.

The sweep synthesizes ripple adders at n = 3, 11, ..., 1019 and reads their
stats and their span under ``interleaved_layout``, then the stats of the
combined adders at n in {256, 1024, 4096} x d in {2, 4, 12} and of the fan-out
trees at t = 4096 with f in {2, 4, 16}.  Its records are hashed in that order,
as ``qaddbench``'s ``synth-sweep`` pass hashes them, so a change to synthesis,
counting, the layout or the JSON record that alters any of them fails here.
"""

import dataclasses
import hashlib
import json

import pytest

from qadd import (
    BlockParams, compute_stats, max_window_span, synth_combined, synth_fanout_tree, synth_ripple,
)
from qadd.ripple import interleaved_layout

#: sha256 of the records below, computed at commit ee06f60, before the wire
#: lists, registers and layout were built by C-level iteration.
SWEEP_SHA256 = "2cf684be54e18c30e0a624b9c90fe3813e5cc8b567b6b0e48d7e46b1f8865d8d"


def test_sweep_records_match_the_pinned_digest():
    digest = hashlib.sha256()
    for n in range(3, 1020, 8):
        circuit = synth_ripple(n)
        span = max_window_span(circuit, interleaved_layout(circuit))
        record = [compute_stats(circuit).to_json_dict(), span]
        digest.update(json.dumps(record, sort_keys=True).encode())
    for n in (256, 1024, 4096):
        for d in (2, 4, 12):
            stats = compute_stats(synth_combined(BlockParams(n, d)))
            digest.update(json.dumps(stats.to_json_dict(), sort_keys=True).encode())
    for f in (2, 4, 16):
        stats = compute_stats(synth_fanout_tree(0, range(1, 4097), f))
        digest.update(json.dumps(stats.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == SWEEP_SHA256


@pytest.mark.parametrize(
    "build",
    [
        lambda: synth_ripple(11),
        lambda: synth_combined(BlockParams(64, 4)),
        lambda: synth_fanout_tree(0, range(1, 65), 4),
    ],
    ids=["ripple", "combined", "fanout"],
)
def test_stats_json_dict_is_asdict_in_field_order(build):
    stats = compute_stats(build())
    record = stats.to_json_dict()
    assert list(record.items()) == list(dataclasses.asdict(stats).items())
    # a fresh dict on each call, so a caller may change it
    assert record is not stats.to_json_dict()
