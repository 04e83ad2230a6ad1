"""The four benchmark workloads and the correctness checks they apply.

Each workload is a closed loop: one operation at a time, the next one starting
when the previous one has finished.  ``setup(seed)`` builds the inputs (it is
timed into ``setup_s``); ``run_pass(state, launcher, tick)`` does one pass of
work and returns a ``PassResult``.  It calls ``tick()`` after each operation:
the points where the benchmark's clock may take a reference sample.  Every output is checked, and a sha256 over the
outputs that must stay fixed (``CircuitStats`` JSON, ``VerifyReport`` or CLI
JSON bytes, netlist bytes) lets two runs with the same seed be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import qadd
from qadd import oracles

RIPPLE_SWEEP_MAX = 1024
COMBINED_SWEEP = [(n, d) for n in (256, 1024, 4096) for d in (2, 4, 12)]
FANOUT_SWEEP_T = 4096
FANOUT_SWEEP_F = (2, 4, 16)

CLI_VERIFY = (
    ("ripple", ["--n", "1024"], 8000),
    ("combined", ["--n", "4096", "--d", "12"], 1000),
)

EXHAUSTIVE_RIPPLE_N = range(1, 12)
# d = 2..7 at n = 8, keeping the values BlockParams accepts (>= 4 blocks).
EXHAUSTIVE_COMBINED_D = (2, 3)
EXHAUSTIVE_INIT_W = range(2, 9)
EXHAUSTIVE_FANOUT_T = range(1, 24)
EXHAUSTIVE_FANOUT_F = (1, 2, 3, 4, 8, 16)

NETLIST_COMBINED = (4096, 12)


@dataclass
class PassResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    gates: int = 0
    gate_cases: int = 0
    digest: str = ""
    child_rss_kb: int = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --- correctness checks ----------------------------------------------------


def ripple_failures(n: int, stats, span: int) -> list[str]:
    """Mismatches against the exact ripple closed forms (n >= 3)."""
    expected = {
        "depth": 5 * n - 3,
        "size": 7 * n - 6,
        "count_cnot": 5 * n - 5,
        "count_toffoli": 2 * n - 1,
        "ancilla_count": 0,
    }
    observed = stats.to_json_dict()
    out = [f"{k}={observed[k]} != {v}" for k, v in expected.items() if observed[k] != v]
    if span > 3:
        out.append(f"span={span} > 3")
    return out


def combined_failures(n: int, d: int, stats) -> list[str]:
    """Violations of the committed combined-adder bounds."""
    bounds = qadd.combined_adder_bounds(n, d)
    out = []
    if stats.ancilla_count > bounds.ancilla:
        out.append(f"ancilla {stats.ancilla_count} > {bounds.ancilla}")
    if stats.count_toffoli > bounds.size:
        out.append(f"toffoli {stats.count_toffoli} > {bounds.size}")
    if stats.toffoli_depth > bounds.depth:
        out.append(f"toffoli_depth {stats.toffoli_depth} > {bounds.depth}")
    return out


def _ceil_log(t: int, f: int) -> int:
    levels, reach = 0, 1
    while reach < t:
        reach *= f
        levels += 1
    return levels


def fanout_failures(t: int, f: int, stats) -> list[str]:
    """Violations of the bounded fan-out tree's depth/size/ancilla bounds."""
    out = []
    if stats.depth > 2 * _ceil_log(t, f) + 1:
        out.append(f"depth {stats.depth}")
    if stats.size > 2 * -(-(t - 1) // (f - 1)) + 1:
        out.append(f"size {stats.size}")
    if stats.ancilla_count or stats.max_fanout_length > f:
        out.append("ancilla or fan-out length")
    return out


def report_failures(report, total_cases: int) -> list[str]:
    out = []
    if not report.ok:
        out.append(f"{len(report.failures)} failures, "
                   f"{len(report.ancilla_violations)} ancilla violations")
    if report.total_cases != total_cases:
        out.append(f"total_cases {report.total_cases} != {total_cases}")
    return out


def cli_payload_failures(code: int, payload: bytes, trials: int, seed: int) -> list[str]:
    """Checks on one ``qadd verify --json`` invocation."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        data = json.loads(payload)
    except ValueError:
        return ["payload is not JSON"]
    out = []
    if data.get("total_cases") != trials:
        out.append(f"total_cases {data.get('total_cases')} != {trials}")
    if data.get("failures") or data.get("ancilla_violations"):
        out.append("failing cases reported")
    if data.get("seed") != seed:
        out.append(f"seed {data.get('seed')} != {seed}")
    return out


def negative_control_failures() -> list[str]:
    """The checks must reject a ripple n = 8 adder with one gate deleted."""
    out = []
    good = qadd.synth_ripple(8)
    for index in range(len(good)):
        broken = qadd.Circuit(good.wire_count, good.ancilla, good.role_map,
                              good.gates[:index] + good.gates[index + 1:])
        _, packed = oracles.adder_oracle(broken)
        report = qadd.verify_exhaustive(broken, packed_oracle=packed)
        if not report_failures(report, 1 << 17):
            out.append(f"verify accepted ripple n=8 without gate {index}")
        if not ripple_failures(8, qadd.compute_stats(broken), 0):
            out.append(f"closed forms accepted ripple n=8 without gate {index}")
    if not cli_payload_failures(0, b'{"total_cases": 7, "failures": [], '
                                   b'"ancilla_violations": [], "seed": 1}', 8, 1):
        out.append("CLI check accepted a wrong total_cases")
    return out


# --- workloads ---------------------------------------------------------------


def _no_tick() -> None:
    pass


def synth_setup(seed: int) -> dict:
    start = 3 + seed % 8
    return {"ripple_ns": list(range(start, RIPPLE_SWEEP_MAX + 1, 8))}


def synth_pass(state: dict, launcher, tick=_no_tick) -> PassResult:
    """Synthesize, count and check the acceptance sweep's circuits."""
    res = PassResult()
    digest = hashlib.sha256()
    for n in state["ripple_ns"]:
        circuit = qadd.synth_ripple(n)
        stats = qadd.compute_stats(circuit)
        span = qadd.max_window_span(circuit, qadd.interleaved_layout(circuit))
        bad = ripple_failures(n, stats, span)
        res.record(not bad, f"ripple n={n}: {bad}")
        res.gates += len(circuit)
        digest.update(json.dumps([stats.to_json_dict(), span], sort_keys=True).encode())
        tick()
    for n, d in COMBINED_SWEEP:
        circuit = qadd.synth_combined(qadd.BlockParams(n, d))
        stats = qadd.compute_stats(circuit)
        bad = combined_failures(n, d, stats)
        res.record(not bad, f"combined n={n} d={d}: {bad}")
        res.gates += len(circuit)
        digest.update(json.dumps(stats.to_json_dict(), sort_keys=True).encode())
        tick()
    targets = list(range(1, FANOUT_SWEEP_T + 1))
    for f in FANOUT_SWEEP_F:
        circuit = qadd.synth_fanout_tree(0, targets, f)
        stats = qadd.compute_stats(circuit)
        bad = fanout_failures(FANOUT_SWEEP_T, f, stats)
        res.record(not bad, f"fanout t={FANOUT_SWEEP_T} f={f}: {bad}")
        res.gates += len(circuit)
        digest.update(json.dumps(stats.to_json_dict(), sort_keys=True).encode())
        tick()
    # Synthesized-and-counted gates each count as one case.
    res.gate_cases = res.gates
    res.digest = digest.hexdigest()
    return res


def verify_random_setup(seed: int) -> dict:
    # The gate counts are needed for the throughput metrics; the CLI children
    # synthesize their own circuits.
    gates = {
        "ripple": len(qadd.synth_ripple(1024)),
        "combined": len(qadd.synth_combined(qadd.BlockParams(4096, 12))),
    }
    return {"seed": seed, "gates": gates}


def verify_random_pass(state: dict, launcher, tick=_no_tick) -> PassResult:
    """Run ``qadd verify --json`` on the two large adders, one after the other."""
    res = PassResult()
    digest = hashlib.sha256()
    seed = state["seed"]
    for kind, size_flags, trials in CLI_VERIFY:
        argv = ["verify", "--kind", kind, *size_flags, "--trials", str(trials),
                "--seed", str(seed), "--json"]
        code, payload, rss_kb = launcher(argv)
        bad = cli_payload_failures(code, payload, trials, seed)
        res.record(not bad, f"qadd {' '.join(argv)}: {bad}")
        res.gates += state["gates"][kind]
        res.gate_cases += state["gates"][kind] * trials
        res.child_rss_kb = max(res.child_rss_kb, rss_kb)
        digest.update(payload)
        tick()
    res.digest = digest.hexdigest()
    return res


def _exhaustive_cases() -> list[tuple]:
    cases = [("ripple", n) for n in EXHAUSTIVE_RIPPLE_N]
    cases += [("combined", d) for d in EXHAUSTIVE_COMBINED_D]
    cases += [("init", w) for w in EXHAUSTIVE_INIT_W]
    cases += [("fanout", t, f) for t in EXHAUSTIVE_FANOUT_T for f in EXHAUSTIVE_FANOUT_F]
    return cases


def verify_exhaustive_setup(seed: int) -> dict:
    cases = _exhaustive_cases()
    random.Random(seed).shuffle(cases)
    return {"cases": cases}


def _exhaustive_target(case: tuple):
    """(circuit, packed oracle, free wires, case count) for one case."""
    kind = case[0]
    if kind == "ripple":
        circuit = qadd.synth_ripple(case[1])
        return circuit, oracles.adder_oracle(circuit)[1], None, 1 << (2 * case[1] + 1)
    if kind == "combined":
        circuit = qadd.synth_combined(qadd.BlockParams(8, case[1]))
        return circuit, oracles.adder_oracle(circuit)[1], None, 1 << 17
    if kind == "init":
        w = case[1]
        circuit = qadd.synth_init(w)
        return circuit, oracles.init_oracle(circuit)[1], range(2 * w), 1 << (2 * w)
    t, f = case[1], case[2]
    targets = list(range(1, t + 1))
    circuit = qadd.synth_fanout_tree(0, targets, f)
    return circuit, oracles.fanout_oracle(circuit, 0, targets)[1], None, 1 << (t + 1)


def verify_exhaustive_pass(state: dict, launcher, tick=_no_tick) -> PassResult:
    """Enumerate every input of the small adders, block gates and trees."""
    res = PassResult()
    digest = hashlib.sha256()
    for case in state["cases"]:
        circuit, packed, free, total = _exhaustive_target(case)
        report = qadd.verify_exhaustive(circuit, packed_oracle=packed, free_wires=free)
        bad = report_failures(report, total)
        res.record(not bad, f"{case}: {bad}")
        res.gates += len(circuit)
        res.gate_cases += len(circuit) * report.total_cases
        digest.update(report.to_json().encode())
        tick()
    res.digest = digest.hexdigest()
    return res


def netlist_setup(seed: int) -> dict:
    return {"circuits": [
        qadd.synth_ripple(4096 - seed % 8),
        qadd.synth_combined(qadd.BlockParams(*NETLIST_COMBINED)),
    ]}


def netlist_pass(state: dict, launcher, tick=_no_tick) -> PassResult:
    """Export, parse, compare and re-export each circuit."""
    res = PassResult()
    digest = hashlib.sha256()
    for circuit in state["circuits"]:
        text = qadd.export_netlist(circuit)
        tick()
        parsed = qadd.parse_netlist(text)
        tick()
        same = parsed == circuit
        stable = qadd.export_netlist(parsed) == text
        res.record(same and stable, f"{circuit!r}: equal={same} bytes-stable={stable}")
        res.gates += len(circuit)
        digest.update(text.encode())
        tick()
    res.gate_cases = res.gates
    res.digest = digest.hexdigest()
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    run_pass: Callable[[dict, Callable, Callable], PassResult]
    in_process: bool  # False: the work runs in CLI child processes
    # True: the work is mostly building small objects (synthesis), so the
    # calibrated clock's reference work builds small objects too.
    builds_objects: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-sweep", synth_setup, synth_pass, True, builds_objects=True),
        Workload("verify-random", verify_random_setup, verify_random_pass, False),
        Workload("verify-exhaustive", verify_exhaustive_setup, verify_exhaustive_pass, True),
        Workload("netlist-roundtrip", netlist_setup, netlist_pass, True),
    )
}
