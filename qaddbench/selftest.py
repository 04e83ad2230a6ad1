"""Tests of the benchmark's own checks, tracer and digests.

    python3 qaddbench/selftest.py

Kept out of the package's pytest suite: they exercise the benchmark, and the
last one starts the benchmark in a directory without the package.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import qadd  # noqa: E402
from qadd import oracles  # noqa: E402
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class NegativeControl(unittest.TestCase):
    def test_ripple_with_one_gate_deleted_fails(self):
        good = qadd.synth_ripple(8)
        broken = qadd.Circuit(good.wire_count, good.ancilla, good.role_map, good.gates[1:])
        _, packed = oracles.adder_oracle(broken)
        report = qadd.verify_exhaustive(broken, packed_oracle=packed)
        self.assertTrue(workloads.report_failures(report, 1 << 17))
        self.assertTrue(workloads.ripple_failures(8, qadd.compute_stats(broken), 3))

    def test_every_single_gate_deletion_is_caught(self):
        self.assertEqual(workloads.negative_control_failures(), [])

    def test_correct_outputs_pass(self):
        circuit = qadd.synth_ripple(8)
        _, packed = oracles.adder_oracle(circuit)
        report = qadd.verify_exhaustive(circuit, packed_oracle=packed)
        self.assertEqual(workloads.report_failures(report, 1 << 17), [])
        self.assertEqual(workloads.ripple_failures(8, qadd.compute_stats(circuit), 3), [])

    def test_bound_checks_reject_wrong_stats(self):
        ripple9 = qadd.compute_stats(qadd.synth_ripple(9))
        self.assertTrue(workloads.ripple_failures(8, ripple9, 3))
        self.assertTrue(workloads.ripple_failures(9, ripple9, 4))
        combined = qadd.compute_stats(qadd.synth_combined(qadd.BlockParams(64, 4)))
        self.assertEqual(workloads.combined_failures(64, 4, combined), [])
        self.assertTrue(workloads.combined_failures(32, 4, combined))
        tree = qadd.compute_stats(qadd.synth_fanout_tree(0, range(1, 65), 4))
        self.assertEqual(workloads.fanout_failures(64, 4, tree), [])
        self.assertTrue(workloads.fanout_failures(64, 2, tree))

    def test_cli_payload_check(self):
        good = b'{"ancilla_violations": [], "failures": [], "seed": 5, "total_cases": 8}'
        self.assertEqual(workloads.cli_payload_failures(0, good, 8, 5), [])
        self.assertTrue(workloads.cli_payload_failures(0, good, 9, 5))
        self.assertTrue(workloads.cli_payload_failures(0, good, 8, 6))
        self.assertTrue(workloads.cli_payload_failures(1, good, 8, 5))
        self.assertTrue(workloads.cli_payload_failures(0, b"not json", 8, 5))


class Tracer(unittest.TestCase):
    def test_self_times_subtract_children(self):
        spans = [
            [0, "pass", 0.0, 10.0, None, "r"],
            [1, "sim.verify", 1.0, 9.0, 0, "r"],
            [2, "sim.run_packed", 2.0, 3.0, 1, "r"],
            [3, "oracles.packed", 4.0, 6.0, 1, "r"],
        ]
        self.assertEqual(
            tracing.self_times(spans),
            {"pass": 2.0, "sim.verify": 5.0, "sim.run_packed": 1.0, "oracles.packed": 2.0},
        )

    def test_install_wraps_and_restores(self):
        original = qadd.synth_ripple
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            self.assertIsNot(qadd.synth_ripple, original)
            circuit = qadd.synth_ripple(4)
            self.assertEqual(circuit, original(4))
        finally:
            restore()
        self.assertIs(qadd.synth_ripple, original)
        self.assertIs(qadd.ripple.synth_ripple, original)
        names = [span[1] for span in tracer.spans]
        self.assertEqual(names, ["ripple.synth", "netlist.compare"])
        self.assertEqual(tracer.counts["synth.gates"], 7 * 4 - 6)

    def test_adopted_child_roots_hang_under_open_span(self):
        tracer = tracing.Tracer()
        sid = tracer.begin("cli.process")
        tracer.adopt([[0, "cli.main", 1.0, 2.0, None, "r"],
                      [1, "cli.json", 1.5, 1.6, 0, "r"]], {"sim.cases": 3})
        tracer.end(sid)
        self.assertEqual([s[4] for s in tracer.spans], [None, 0, 1])
        self.assertEqual(tracer.counts["sim.cases"], 3)


class Clock(unittest.TestCase):
    def test_segments_scale_by_the_bracketing_references(self):
        references = iter([0.002, 0.004, 0.002])
        clock = calibrate.CalibratedClock()
        with mock.patch.object(calibrate, "reference_s", lambda _objects: next(references)):
            clock.start()
            clock.tick(force=True)
            raw, calibrated = clock.stop()
        first, second = clock.segments
        self.assertEqual(raw, first + second)
        self.assertAlmostEqual(calibrated, (first + second) * 2 * calibrate.REF_NOMINAL_S / 0.006)

    def test_tick_cuts_only_after_a_segment_length(self):
        clock = calibrate.CalibratedClock()
        with mock.patch.object(calibrate, "reference_s", lambda _objects: calibrate.REF_NOMINAL_S):
            clock.start()
            clock.tick()
            self.assertEqual(clock.segments, [])
            raw, calibrated = clock.stop()
        self.assertEqual(len(clock.segments), 1)
        self.assertAlmostEqual(calibrated, raw)


class Digests(unittest.TestCase):
    def test_same_seed_same_digest(self):
        first = workloads.netlist_pass(workloads.netlist_setup(3), None)
        second = workloads.netlist_pass(workloads.netlist_setup(3), None)
        other = workloads.netlist_pass(workloads.netlist_setup(4), None)
        self.assertEqual(first.failures, [])
        self.assertEqual(first.digest, second.digest)
        self.assertNotEqual(first.digest, other.digest)


class Contract(unittest.TestCase):
    def test_fails_without_the_package(self):
        scratch = BENCH_DIR / "out" / "no-package"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(BENCH_DIR, scratch / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", scratch)
        try:
            command = json.loads((scratch / "BENCHMARK.json").read_text())["command"]
            proc = subprocess.run(
                [sys.executable, *command[1:], "--workload", "synth-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(scratch)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
