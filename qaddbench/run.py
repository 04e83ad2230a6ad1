"""qadd benchmark: one workload (or all of them) for a fixed time.

    python3 qaddbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  ``--workload all`` runs the four workloads one after the
other, each in its own process.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates traced and untraced passes
and reports per-layer self times, counts and the tracing overhead.  End-to-end
times are calibrated against the machine's speed (see ``calibrate.py``).  Results
(environment, samples, digests, spans) go to ``qaddbench/out/``.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import CalibratedClock, pin_to_quietest_cpu
from tracing import Tracer, install, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_ROUNDS = 7
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "gates_per_s": "1/s",
    "gate_cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "ripple.synth_s": "s",
    "blocked.synth_s": "s",
    "fanout.synth_s": "s",
    "circuit.build_ns_per_gate": "ns",
    "circuit.stats_s": "s",
    "circuit.stats_ns_per_gate": "ns",
    "circuit.span_s": "s",
    "estimator.check_s": "s",
    "sim.verify_self_s": "s",
    "sim.run_packed_s": "s",
    "sim.kernel_gate_cases_per_s": "1/s",
    "oracles.packed_s": "s",
    "netlist.export_s": "s",
    "netlist.parse_s": "s",
    "netlist.compare_s": "s",
    "netlist.parse_mb_per_s": "MB/s",
    "cli.import_s": "s",
    "cli.json_s": "s",
    "synth.gates": "count",
    "sim.cases": "count",
    "sim.gate_cases": "count",
    "netlist.bytes": "count",
    "verify.failures": "count",
    "trace.overhead_s": "s",
    "trace.passes": "count",
}

WORKLOAD_NAMES = ("synth-sweep", "verify-random", "verify-exhaustive", "netlist-roundtrip")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int, cpu_loop_s: dict[int, float]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(cpu_loop_s),
        "cpu_model": cpu,
        "commit": git_commit(),
        "seed": seed,
        "reference_loop_s_per_cpu": cpu_loop_s,
        "pinned_cpu": min(cpu_loop_s, key=cpu_loop_s.get),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_probe() -> float:
    """Seconds from starting a fresh interpreter to ``import qadd`` done."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qadd"], env=child_env(),
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


class CliLauncher:
    """Runs the qadd CLI through ``cli_child.py`` and reaps it with wait4.

    The child calibrates its own run and hands it to the pass's clock; in a
    traced pass it also hands back its spans.
    """

    def __init__(self, clock: CalibratedClock, tracer: Tracer | None = None) -> None:
        self.clock = clock
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> tuple[int, bytes, int]:
        result_path = OUT / f"child-result-{os.getpid()}.json"
        run_id = "-" if self.tracer is None else self.tracer.run_id
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(result_path), run_id, *argv]
        if self.tracer is not None:
            sid = self.tracer.begin("cli.process")
        with open(OUT / f"child-stderr-{os.getpid()}.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    cwd=ROOT, env=child_env())
            try:
                payload = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if self.tracer is not None:
            self.tracer.end(sid)
        if proc.returncode == 0:
            child = json.loads(result_path.read_text())
            self.clock.add_calibrated(child["raw_s"], child["calibrated_s"])
            if self.tracer is not None:
                self.tracer.adopt(child["spans"], child["counts"])
        result_path.unlink(missing_ok=True)
        return proc.returncode, payload, usage.ru_maxrss


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer values for one traced pass."""
    selfs = self_times(spans)

    def t(name: str) -> float:
        return selfs.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    synth = t("ripple.synth") + t("blocked.synth") + t("fanout.synth")
    return {
        "ripple.synth_s": t("ripple.synth"),
        "blocked.synth_s": t("blocked.synth"),
        "fanout.synth_s": t("fanout.synth"),
        "circuit.build_ns_per_gate": 1e9 * ratio(synth, counts.get("synth.gates", 0)),
        "circuit.stats_s": t("circuit.stats"),
        "circuit.stats_ns_per_gate": 1e9 * ratio(t("circuit.stats"), counts.get("stats.gates", 0)),
        "circuit.span_s": t("circuit.span"),
        "estimator.check_s": t("estimator.check"),
        "sim.verify_self_s": t("sim.verify"),
        "sim.run_packed_s": t("sim.run_packed"),
        "sim.kernel_gate_cases_per_s": ratio(counts.get("sim.gate_cases", 0), t("sim.run_packed")),
        "oracles.packed_s": t("oracles.packed"),
        "netlist.export_s": t("netlist.export"),
        "netlist.parse_s": t("netlist.parse"),
        "netlist.compare_s": t("netlist.compare"),
        "netlist.parse_mb_per_s": ratio(counts.get("netlist.bytes", 0) / 1e6, t("netlist.parse")),
        "cli.import_s": t("cli.import"),
        "cli.json_s": t("cli.json"),
        "synth.gates": counts.get("synth.gates", 0),
        "sim.cases": counts.get("sim.cases", 0),
        "sim.gate_cases": counts.get("sim.gate_cases", 0),
        "netlist.bytes": counts.get("netlist.bytes", 0),
        "verify.failures": counts.get("verify.failures", 0),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads  # imports qadd, so only once main() has checked for it

    workload = workloads.WORKLOADS[name]
    env = environment(seed, pin_to_quietest_cpu())
    clock = CalibratedClock(workload.builds_objects)

    setups, raw_setups = [], []
    for _ in range(SETUP_ROUNDS):
        pin_to_quietest_cpu()
        clock.start()
        probe = import_probe()
        clock.tick(force=True)
        state = workload.setup(seed)
        raw, calibrated = clock.stop()
        raw_setups.append(raw)
        setups.append(calibrated)

    failures: list[str] = []
    attempted = 0
    digests = set()
    passes: list[dict] = []
    tracer = Tracer()

    def one_pass(index: int, traced: bool) -> dict:
        nonlocal attempted
        gc.collect()
        pin_to_quietest_cpu()
        began = time.perf_counter()
        tracer.run_id = f"{name}/seed{seed}/pass{index}"
        mark, before = len(tracer.spans), dict(tracer.counts)
        restore = install(tracer) if traced else None
        launcher = CliLauncher(clock, tracer if traced else None)
        try:
            if traced:
                sid = tracer.begin("pass")
            clock.start()
            result = workload.run_pass(state, launcher, clock.tick)
            raw, wall = clock.stop()
            if traced:
                tracer.end(sid)
        finally:
            if restore is not None:
                restore()
        attempted += result.attempted
        failures.extend(result.failures)
        digests.add(result.digest)
        record = {"wall_s": wall, "raw_wall_s": raw, "elapsed_s": time.perf_counter() - began,
                  "segments": len(clock.segments), "traced": traced, "gates": result.gates,
                  "gate_cases": result.gate_cases, "child_rss_kb": result.child_rss_kb}
        if traced:
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            record["layers"] = layer_metrics(tracer.spans[mark:], counts)
        return record

    warmup = one_pass(0, False) if workload.in_process else None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        passes.append(one_pass(len(passes) + 1, traced))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break

    # Problems with the benchmark's own checks make the run incorrect without
    # counting as failed operations.
    problems = [f"negative control: {p}" for p in workloads.negative_control_failures()]
    if len(digests) != 1:
        problems.append(f"outputs differ between passes: {sorted(digests)}")

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    wall = statistics.median(p["wall_s"] for p in untraced)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(p["child_rss_kb"] for p in passes)
    end_to_end = {
        "wall_s": wall,
        "gates_per_s": untraced[0]["gates"] / wall,
        "gate_cases_per_s": untraced[0]["gate_cases"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    per_layer = {}
    if trace:
        for key in PER_LAYER_UNITS:
            values = [p["layers"][key] for p in traced_passes if key in p["layers"]]
            if values:
                median = statistics.median_low if PER_LAYER_UNITS[key] == "count" else statistics.median
                per_layer[key] = median(values)
        # Passes alternate traced, untraced: pair each traced pass with the
        # next one, so a drift in machine speed cancels within a pair.
        per_layer["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for t, u in zip(passes[0::2], passes[1::2])
        )
        per_layer["trace.passes"] = len(traced_passes)
        for key in ("synth.gates", "sim.cases", "sim.gate_cases", "netlist.bytes"):
            if len({p["layers"][key] for p in traced_passes}) != 1:
                problems.append(f"count {key} differs between traced passes")
        tracer.dump(str(OUT / f"spans-{name}-seed{seed}.json"))

    return {
        "workload": name,
        "trace": int(trace),
        "environment": env,
        "samples": {
            "passes": len(untraced),
            "traced_passes": len(traced_passes),
            "warmup_passes": 0 if warmup is None else 1,
            "setup_rounds": len(setups),
        },
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_segments": [p["segments"] for p in passes],
        "setup_s_samples": setups,
        "setup_raw_s_samples": raw_setups,
        "raw_medians": {
            "wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
            "setup_s": statistics.median(raw_setups),
        },
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "problems": problems,
        "error_rate": len(failures) / attempted,
        "digest": sorted(digests)[0] if len(digests) == 1 else None,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def print_report(result: dict) -> None:
    env = result["environment"]
    samples = result["samples"]
    print(f"workload {result['workload']}  trace {result['trace']}  seed {env['seed']}")
    print(f"  environment: python {env['python']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}, commit {env['commit']}")
    loops = ", ".join(f"cpu{c} {t:.4f} s" for c, t in env["reference_loop_s_per_cpu"].items())
    print(f"  reference loop: {loops}; pinned to cpu{env['pinned_cpu']}")
    print(f"  samples: {samples['passes']} untraced passes, {samples['traced_passes']} traced, "
          f"{samples['warmup_passes']} warm-up, {samples['setup_rounds']} set-up rounds")
    for key, value in result["end_to_end"].items():
        print(f"  {key} {value:.6g} {END_TO_END_UNITS[key]}")
    raw = result["raw_medians"]
    print(f"  uncalibrated medians: wall {raw['wall_s']:.6g} s, setup {raw['setup_s']:.6g} s")
    print(f"  error_rate {result['error_rate']:.6g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for failure in result["failures"]:
        print(f"    failure: {failure}")
    for problem in result["problems"]:
        print(f"    check problem: {problem}")
    print(f"  digest sha256:{result['digest']}")
    for key, value in result["per_layer"].items():
        print(f"  {key} {value:.6g} {PER_LAYER_UNITS[key]}")


def result_line(result: dict) -> dict:
    if result["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in result["end_to_end"].items()}
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        line = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for key, metric in line["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        results[name] = json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())
    (OUT / f"all-seed{seed}-trace{trace}.json").write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "qadd" / "__init__.py").is_file():
        print(f"error: no qadd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qadd

    if Path(qadd.__file__).resolve().parent != SRC / "qadd":
        print(f"error: imported qadd from {qadd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print_report(result)
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
