"""qadd: reversible-logic synthesis, simulation, and resource estimation
for quantum addition circuits."""

from .circuit import (
    Circuit,
    CircuitStats,
    Gate,
    GateKind,
    TOFFOLI_KINDS,
    WIRE_CAP,
    build_circuit,
    ccx,
    compute_stats,
    cx,
    fo,
    max_window_span,
    tg,
    x,
)
from .sim import (
    EXHAUSTIVE_WIRE_CAP,
    RANDOM_INPUT_BIT_CAP,
    VerifyReport,
    apply_gate,
    run,
    run_packed,
    splitmix64,
    verify_exhaustive,
    verify_random,
)
from .ripple import (
    adder_first_half_gates,
    interleaved_layout,
    maj_fragment,
    ripple_add_gates,
    synth_ripple,
)
from .blocked import (
    BlockParams,
    carry_gates,
    carry_tree_scratch_count,
    combined_step_gates,
    init_gates,
    prefix_and_ladder_gates,
    sum_gates,
    synth_carry,
    synth_combined,
    synth_init,
    synth_sum,
)
from .fanout import synth_fanout_tree
from .estimator import (
    COMBINED_ANCILLA_FACTOR,
    COMBINED_DEPTH_CONSTANT,
    COMBINED_SIZE_FACTOR,
    ConstantPack,
    CostEstimate,
    combined_adder_bounds,
    fanout_adder_cost,
    gcla_cost,
    log_star,
    log_star_star,
    shor_dlog_estimate,
    tt_cost,
)
from .netlist import NetlistError, export_netlist, parse_netlist

__version__ = "0.1.0"
