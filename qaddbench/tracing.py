"""In-memory span tracer for the benchmark's traced runs.

A span records (id, name, start, end, parent id, run id).  Times come from
``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, so spans written
by a traced CLI child process share the parent's time base.  Spans stay in
memory and are written out once, when the run ends.

``install`` wraps the public functions of every qadd layer in place, in each
qadd module that binds them, and returns a function that puts the originals
back.  Passes that are not traced therefore run the unmodified code.  A span
is named after the layer metric it feeds (``ripple.synth``, ``sim.run_packed``
and so on); counters are updated at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    """Collects spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent, run]
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(counts, args, kwargs, result)`` after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def adopt(self, spans: list[list], counts: dict) -> None:
        """Attach spans and counts written by a traced child process.

        The child's root spans become children of the innermost open span.
        """
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for sid, name, start, end, child_parent, run in spans:
            new_parent = parent if child_parent is None else base + child_parent
            self.spans.append([base + sid, name, start, end, new_parent, run])
        self.counts.update(counts)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    covered: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        out[name] += (end - start) - covered[sid]
    return dict(out)


def _count_synth(counts, args, kwargs, circuit) -> None:
    counts["synth.gates"] += len(circuit)


def _count_stats(counts, args, kwargs, stats) -> None:
    counts["stats.gates"] += stats.size


def _count_verify(counts, args, kwargs, report) -> None:
    counts["sim.cases"] += report.total_cases
    counts["verify.failures"] += len(report.failures) + len(report.ancilla_violations)


def _count_run_packed(counts, args, kwargs, columns) -> None:
    circuit = args[0] if args else kwargs["circuit"]
    n_cases = args[2] if len(args) > 2 else kwargs["n_cases"]
    counts["sim.gate_cases"] += len(circuit.gates) * n_cases


def _count_parse(counts, args, kwargs, circuit) -> None:
    text = args[0] if args else kwargs["text"]
    counts["netlist.bytes"] += len(text.encode())


# (module, attribute, span name, counter) for each traced public function.
LAYER_FUNCTIONS = (
    ("qadd.ripple", "synth_ripple", "ripple.synth", _count_synth),
    ("qadd.ripple", "interleaved_layout", "circuit.span", None),
    ("qadd.blocked", "synth_combined", "blocked.synth", _count_synth),
    ("qadd.blocked", "synth_init", "blocked.synth", _count_synth),
    ("qadd.fanout", "synth_fanout_tree", "fanout.synth", _count_synth),
    ("qadd.circuit", "compute_stats", "circuit.stats", _count_stats),
    ("qadd.circuit", "max_window_span", "circuit.span", None),
    ("qadd.estimator", "combined_adder_bounds", "estimator.check", None),
    ("qadd.sim", "verify_exhaustive", "sim.verify", _count_verify),
    ("qadd.sim", "verify_random", "sim.verify", _count_verify),
    ("qadd.sim", "run_packed", "sim.run_packed", _count_run_packed),
    ("qadd.netlist", "export_netlist", "netlist.export", None),
    ("qadd.netlist", "parse_netlist", "netlist.parse", _count_parse),
    # The CLI's report-JSON builder.
    ("qadd.cli", "_json_text", "cli.json", None),
)

# Oracle factories return (per_case, packed); the packed closure is traced.
ORACLE_FACTORIES = (
    "adder_oracle",
    "first_half_oracle",
    "init_oracle",
    "sum_oracle",
    "carry_fold_oracle",
    "fanout_oracle",
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function in the loaded qadd modules; return the undo."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "qadd" or name.startswith("qadd."))
    ]
    undo: list[tuple[object, str, object]] = []

    def replace(original: object, wrapped: object) -> None:
        for module in modules:
            names = [k for k, v in vars(module).items() if v is original]
            for name in names:
                undo.append((module, name, original))
                setattr(module, name, wrapped)

    for module_name, attr, span_name, count in LAYER_FUNCTIONS:
        module = sys.modules.get(module_name)
        if module is None or not hasattr(module, attr):
            continue  # layer not loaded in this process (the CLI in-process)
        original = getattr(module, attr)
        replace(original, tracer.wrap(span_name, original, count))

    oracles = sys.modules.get("qadd.oracles")
    for attr in ORACLE_FACTORIES:
        if oracles is None or not hasattr(oracles, attr):
            continue
        replace(getattr(oracles, attr), _traced_factory(tracer, getattr(oracles, attr)))

    circuit_cls = sys.modules["qadd.circuit"].Circuit
    undo.append((circuit_cls, "__eq__", circuit_cls.__eq__))
    circuit_cls.__eq__ = tracer.wrap("netlist.compare", circuit_cls.__eq__)

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def _traced_factory(tracer: Tracer, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def traced(*args, **kwargs):
        per_case, packed = factory(*args, **kwargs)
        return per_case, tracer.wrap("oracles.packed", packed)

    return traced
