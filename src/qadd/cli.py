"""Batch command-line front end: synth | verify | stats | estimate.

Exit codes: 0 success, 1 verification (or closed-form) failure, 2 invalid
flags.  All output is deterministic; identical invocations with identical
seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blocked import BlockParams, synth_combined
from .circuit import WIRE_CAP, Circuit, _check_size, compute_stats
from .estimator import fanout_adder_cost, shor_dlog_estimate
from .fanout import synth_fanout_tree
from .netlist import NetlistError, export_netlist, parse_netlist
from .oracles import adder_oracle, fanout_oracle
from .ripple import ripple_closed_forms, synth_ripple
from .sim import (
    VerifyReport,
    _check_exhaustive_request,
    _check_random_request,
    verify_exhaustive,
    verify_random,
)

#: Default policy: exhaustive when at most this many free wires, else trials.
EXHAUSTIVE_DEFAULT_LIMIT = 20

#: The flags each ``--kind`` requires; it refuses every other kind flag.
_KIND_FLAGS = {"ripple": ("n",), "combined": ("n", "d"), "fanout-tree": ("t", "f")}

#: Every kind flag, in the order the refused ones are reported.
_ALL_KIND_FLAGS = tuple(dict.fromkeys(f for flags in _KIND_FLAGS.values() for f in flags))


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qadd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kind_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", choices=list(_KIND_FLAGS))
        p.add_argument("--n", type=int, help="operand width")
        p.add_argument("--d", type=int, help="depth parameter of the combined adder")
        p.add_argument("--t", type=int, help="fan-out target count")
        p.add_argument("--f", type=int, help="fan-out length bound")

    p_synth = sub.add_parser("synth", help="write a netlist for a synthesized circuit")
    add_kind_flags(p_synth)
    p_synth.add_argument("-o", "--output", metavar="FILE")

    p_verify = sub.add_parser("verify", help="check a synthesized circuit against its oracle")
    add_kind_flags(p_verify)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--exhaustive", action="store_true")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("-o", "--output", metavar="FILE")

    p_stats = sub.add_parser("stats", help="print circuit statistics")
    p_stats.add_argument("netlist", nargs="?", metavar="FILE")
    add_kind_flags(p_stats)
    p_stats.add_argument("--json", action="store_true")
    p_stats.add_argument("-o", "--output", metavar="FILE")

    p_est = sub.add_parser("estimate", help="evaluate a closed-form cost estimate")
    p_est.add_argument("--target", choices=["adder-fanout", "shor-dlog"], required=True)
    p_est.add_argument("--n", type=int)
    p_est.add_argument("--e", type=int, help="adder depth parameter")
    p_est.add_argument("--f", type=int, help="fan-out length bound")
    p_est.add_argument("--d", type=int, help="combined-adder depth parameter")
    p_est.add_argument("--adder", choices=["ripple", "combined", "fanout"])
    p_est.add_argument("--json", action="store_true")
    p_est.add_argument("-o", "--output", metavar="FILE")

    return parser


def _data_wires(args: argparse.Namespace) -> int:
    """Check the kind flags against ``_KIND_FLAGS`` and return the requested
    circuit's data-wire count (2n+1 for the adders, t+1 for a fan-out tree),
    rejecting one above ``WIRE_CAP`` before anything is built."""
    if args.kind is None:
        raise UsageError("--kind is required")
    required = _KIND_FLAGS[args.kind]
    for name in required:
        if getattr(args, name) is None:
            raise UsageError(f"--kind {args.kind} requires --{name}")
    for name in _ALL_KIND_FLAGS:
        if name not in required and getattr(args, name) is not None:
            raise UsageError(f"--kind {args.kind} does not take --{name}")
    wires = args.t + 1 if args.kind == "fanout-tree" else 2 * args.n + 1
    if wires > WIRE_CAP:
        raise ValueError(f"--kind {args.kind} needs {wires} wires, above the cap of {WIRE_CAP}")
    return wires


def _build(args: argparse.Namespace) -> Circuit:
    """Synthesize the requested circuit."""
    _data_wires(args)
    if args.kind == "ripple":
        return synth_ripple(args.n)
    if args.kind == "combined":
        return synth_combined(BlockParams(args.n, args.d))
    return synth_fanout_tree(0, list(range(1, args.t + 1)), args.f)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_synth(args: argparse.Namespace) -> int:
    _emit(export_netlist(_build(args)), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # Every data wire is free, so the input size is known before synthesis.
    free = _data_wires(args)
    exhaustive = args.exhaustive or free <= EXHAUSTIVE_DEFAULT_LIMIT
    if exhaustive:
        # --trials is unused here but follows the same rule as in random mode.
        _check_size("trials", args.trials, 1)
        _check_exhaustive_request(free)
    else:
        _check_random_request(args.trials, free, args.seed)
    circuit = _build(args)
    if args.kind == "fanout-tree":
        _, packed = fanout_oracle(circuit, 0, list(range(1, args.t + 1)))
    else:
        _, packed = adder_oracle(circuit)
    if exhaustive:
        report: VerifyReport = verify_exhaustive(circuit, packed_oracle=packed)
        mode = "exhaustive"
    else:
        report = verify_random(
            circuit, packed_oracle=packed, trials=args.trials, seed=args.seed
        )
        mode = "random"
    if args.json:
        _emit(_json_text(report.to_json_dict()), args.output)
    else:
        seed = report.seed if report.seed is not None else "-"
        _emit(
            f"verify {args.kind} [{mode}]: cases {report.total_cases}  "
            f"failures {len(report.failures)}  "
            f"ancilla-violations {len(report.ancilla_violations)}  seed {seed}\n",
            args.output,
        )
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.netlist is not None:
        for name in ("kind", *_ALL_KIND_FLAGS):
            if getattr(args, name) is not None:
                raise UsageError(f"pass either a netlist file or --{name}, not both")
        with open(args.netlist) as handle:
            circuit: Circuit = parse_netlist(handle.read())
        ripple_n = None
    else:
        circuit = _build(args)
        ripple_n = args.n if args.kind == "ripple" else None
    stats = compute_stats(circuit)
    if args.json:
        _emit(_json_text(stats.to_json_dict()), args.output)
    else:
        lines = [f"{key} {value}" for key, value in stats.to_json_dict().items()]
        _emit("\n".join(lines) + "\n", args.output)
    if ripple_n is not None and ripple_n >= 3:
        observed = stats.to_json_dict()
        for key, expected in ripple_closed_forms(ripple_n).items():
            if observed[key] != expected:
                sys.stderr.write(
                    f"closed-form mismatch: {key} = {observed[key]}, expected {expected}\n"
                )
                return 1
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.n is None:
        raise UsageError("estimate requires --n")
    if args.target == "adder-fanout":
        if args.e is None or args.f is None:
            raise UsageError("--target adder-fanout requires --e and --f")
        if args.adder is not None or args.d is not None:
            raise UsageError("--target adder-fanout does not take --adder/--d")
        estimate = fanout_adder_cost(args.n, args.e, args.f)
    else:
        adder = args.adder or "ripple"
        estimate = shor_dlog_estimate(args.n, adder=adder, d=args.d, e=args.e, f=args.f)
    if args.json:
        _emit(_json_text(estimate.to_json_dict()), args.output)
    else:
        payload = estimate.to_json_dict()
        lines = [f"formula {payload['formula_id']}"]
        lines += [
            f"{key} {payload[key]}" for key in ("qubits_total", "ancilla", "depth", "size")
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_estimate(args)
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        parser.print_usage(sys.stderr)
        return 2
    except (ValueError, OverflowError, NetlistError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
