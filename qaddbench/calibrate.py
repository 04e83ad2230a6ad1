"""Calibrated time: wall time divided by the machine's speed next to it.

A shared machine runs the same code up to twice as slow for seconds to
minutes at a time, one CPU independently of the other.  The benchmark
therefore times its work in segments and, at every cut between segments,
times a fixed piece of pure-Python reference work that no qadd change can
touch.  A segment's calibrated time is its wall time scaled by the ratio of
the reference's nominal time to its measured time around the segment.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

# The reference work is fixed pure-Python work that no qadd change can speed
# up or slow down: an arithmetic loop, plus, for workloads whose work is
# building small objects, a round of building and indexing small objects.
# Tried on the same passes, the loop alone tracked the big-integer kernel and
# the seeded-input generation best, and the loop plus objects tracked
# synthesis best; a walk over a large object list or big-integer operations
# tracked every workload worse.  The nominal times are about those of the
# reference work on the machine the baseline was taken on (Intel Xeon vCPU,
# Python 3.11); they only set the scale of the calibrated times.
REF_LOOP_ITERATIONS = 20_000
REF_NODES = 3_000
REF_REPEATS = 5
REF_NOMINAL_S = 0.0018
REF_OBJECTS_NOMINAL_S = 0.0023
# A pass is timed in segments of at least this length, each bracketed by a
# reference sample.
SEGMENT_S = 0.5


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: tuple) -> None:
        self.a, self.b, self.c = a, b, c


def _reference_work(build_objects: bool) -> None:
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i
    if build_objects:
        index: dict[int, list] = {}
        for node in [_Node(i, i & 7, (i, i + 1)) for i in range(REF_NODES)]:
            index.setdefault(node.b, []).append(node.c)


def reference_s(build_objects: bool = False) -> float:
    """Median time of a few rounds of the reference work: the current speed.

    The collector is off meanwhile, so the time does not depend on how many
    objects the workload holds.
    """
    samples = []
    gc.disable()
    try:
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            _reference_work(build_objects)
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(samples)


ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))


def pin_to_quietest_cpu() -> dict[int, float]:
    """Pin this process to the allowed CPU that runs the reference work fastest.

    On a shared machine each CPU sees its own load from neighbours, which
    comes and goes within seconds, so a run re-pins before every pass.  Child
    processes inherit the pinning.  Returns the reference time per CPU.
    """
    speeds = {}
    for cpu in sorted(ALLOWED_CPUS):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = reference_s()
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
    return speeds


class CalibratedClock:
    """Times work in segments, each scaled by the machine's speed around it.

    A segment ends at the first operation boundary (``tick``) at least
    ``SEGMENT_S`` after it began, or at a forced tick.  A reference sample is
    taken at every cut and is not timed.  A segment's calibrated time is its
    wall time times the reference's nominal time over the mean of the two
    samples that bracket it.  ``stop`` returns the raw and the calibrated
    seconds.
    """

    def __init__(self, build_objects: bool = False) -> None:
        self.build_objects = build_objects
        self.nominal_s = REF_NOMINAL_S + (REF_OBJECTS_NOMINAL_S if build_objects else 0.0)

    def start(self) -> None:
        self.segments: list[float] = []
        self.refs = [reference_s(self.build_objects)]
        self._inner: list[tuple[float, float]] = []  # (raw, calibrated) per segment
        self._inner_now = (0.0, 0.0)
        self._since = time.perf_counter()

    def add_calibrated(self, raw: float, calibrated: float) -> None:
        """Count ``raw`` seconds of the open segment, already calibrated, as given.

        A CLI child calibrates its own run; only the rest of the segment
        (process start and exit) is scaled by the bracketing samples.
        """
        self._inner_now = (self._inner_now[0] + raw, self._inner_now[1] + calibrated)

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._since >= SEGMENT_S:
            self.segments.append(now - self._since)
            self._inner.append(self._inner_now)
            self._inner_now = (0.0, 0.0)
            self.refs.append(reference_s(self.build_objects))
            self._since = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        self.tick(force=True)
        calibrated = sum(
            max(seg - inner_raw, 0.0) * 2 * self.nominal_s / (before + after) + inner_cal
            for seg, (inner_raw, inner_cal), before, after
            in zip(self.segments, self._inner, self.refs, self.refs[1:])
        )
        return sum(self.segments), calibrated
