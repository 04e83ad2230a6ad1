"""The public API of ``qadd`` as literals: its names, the signature of each
public function and class constructor, ``GateKind`` and the published caps
and constants.  These are fixed points; a change to one edits this file."""

import inspect
import types

import qadd
from qadd import GateKind

NAMES = [
    "BlockParams",
    "COMBINED_ANCILLA_FACTOR",
    "COMBINED_DEPTH_CONSTANT",
    "COMBINED_SIZE_FACTOR",
    "Circuit",
    "CircuitStats",
    "ConstantPack",
    "CostEstimate",
    "EXHAUSTIVE_WIRE_CAP",
    "Gate",
    "GateKind",
    "NetlistError",
    "RANDOM_INPUT_BIT_CAP",
    "TOFFOLI_KINDS",
    "VerifyReport",
    "WIRE_CAP",
    "adder_first_half_gates",
    "apply_gate",
    "build_circuit",
    "carry_gates",
    "carry_tree_scratch_count",
    "ccx",
    "combined_adder_bounds",
    "combined_step_gates",
    "compute_stats",
    "cx",
    "export_netlist",
    "fanout_adder_cost",
    "fo",
    "gcla_cost",
    "init_gates",
    "interleaved_layout",
    "log_star",
    "log_star_star",
    "maj_fragment",
    "max_window_span",
    "parse_netlist",
    "prefix_and_ladder_gates",
    "ripple_add_gates",
    "ripple_closed_forms",
    "run",
    "run_packed",
    "shor_dlog_estimate",
    "splitmix64",
    "sum_gates",
    "synth_carry",
    "synth_combined",
    "synth_fanout_tree",
    "synth_init",
    "synth_ripple",
    "synth_sum",
    "tg",
    "tt_cost",
    "verify_exhaustive",
    "verify_random",
    "x",
]

PACK = "ConstantPack(c_depth=1.0, c_size=1.0, c_anc=1.0, c_logstar=1.0)"

# Parameter names, kinds (``/``, ``*``) and defaults, annotations left out.
SIGNATURES = {
    "BlockParams": "(n, d)",
    "Circuit": "(wire_count, ancilla=(), role_map=None, gates=())",
    "CircuitStats": (
        "(depth, toffoli_depth, size, count_not, count_cnot, count_toffoli,"
        " count_fanout, count_gen_toffoli, ancilla_count, max_fanout_length)"
    ),
    "ConstantPack": "(c_depth=1.0, c_size=1.0, c_anc=1.0, c_logstar=1.0)",
    "CostEstimate": (
        "(formula_id, qubits_total, ancilla, depth, size, params=<factory>,"
        f" constants={PACK})"
    ),
    "Gate": "(kind, controls, targets)",
    "NetlistError": "(line, column, reason)",
    "VerifyReport": "(total_cases, failures=<factory>, ancilla_violations=<factory>, seed=None)",
    "adder_first_half_gates": "(b, a, carry_out)",
    "apply_gate": "(state, gate)",
    "build_circuit": "(wire_count, ancilla=())",
    "carry_gates": "(g_wires, p_wires, first_scratch)",
    "carry_tree_scratch_count": "(n, l)",
    "ccx": "(c1, c2, target)",
    "combined_adder_bounds": f"(n, d, consts={PACK})",
    "combined_step_gates": "(params)",
    "compute_stats": "(circuit)",
    "cx": "(control, target)",
    "export_netlist": "(circuit)",
    "fanout_adder_cost": f"(n, e, f, consts={PACK})",
    "fo": "(source, targets)",
    "gcla_cost": f"(m, f, consts={PACK})",
    "init_gates": "(b, a, g, p)",
    "interleaved_layout": "(circuit)",
    "log_star": "(x)",
    "log_star_star": "(x)",
    "maj_fragment": "(c, b, a)",
    "max_window_span": "(circuit, layout)",
    "parse_netlist": "(text)",
    "prefix_and_ladder_gates": "(conjuncts, scratch, target)",
    "ripple_add_gates": "(b, a, z)",
    "ripple_closed_forms": "(n)",
    "run": "(circuit, state)",
    "run_packed": "(circuit, columns, n_cases)",
    "shor_dlog_estimate": f"(n, adder='ripple', d=None, e=None, f=None, consts={PACK})",
    "splitmix64": "(seed)",
    "sum_gates": "(b, a, carry=None)",
    "synth_carry": "(n, l)",
    "synth_combined": "(params)",
    "synth_fanout_tree": "(source, targets, f)",
    "synth_init": "(w)",
    "synth_ripple": "(n)",
    "synth_sum": "(w, with_carry_in=True)",
    "tg": "(controls, target)",
    "tt_cost": f"(t, f, consts={PACK})",
    "verify_exhaustive": "(circuit, oracle=None, free_wires=None, packed_oracle=None)",
    "verify_random": (
        "(circuit, oracle=None, trials=1000, seed=0, free_wires=None, packed_oracle=None)"
    ),
    "x": "(target)",
}


def _public():
    return {
        name: value
        for name, value in vars(qadd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def _shown(obj) -> str:
    empty = inspect.Parameter.empty
    sig = inspect.signature(obj)
    params = [p.replace(annotation=empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=empty))


def test_public_names():
    assert sorted(_public()) == NAMES


def test_signatures():
    callables = {
        name: _shown(value)
        for name, value in _public().items()
        if callable(value) and name != "GateKind"
    }
    assert callables == SIGNATURES


def test_gate_kinds():
    assert [(kind.name, kind.value) for kind in GateKind] == [
        ("NOT", "x"),
        ("CNOT", "cx"),
        ("TOFFOLI", "ccx"),
        ("FANOUT", "fo"),
        ("GEN_TOFFOLI", "tg"),
    ]
    assert qadd.TOFFOLI_KINDS == frozenset({GateKind.TOFFOLI, GateKind.GEN_TOFFOLI})


def test_constants():
    assert (qadd.WIRE_CAP, qadd.EXHAUSTIVE_WIRE_CAP, qadd.RANDOM_INPUT_BIT_CAP) == (
        2**22,
        24,
        2**30,
    )
    assert (
        qadd.COMBINED_ANCILLA_FACTOR,
        qadd.COMBINED_DEPTH_CONSTANT,
        qadd.COMBINED_SIZE_FACTOR,
    ) == (3, 0, 14)
