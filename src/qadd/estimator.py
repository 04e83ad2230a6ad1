"""Closed-form resource estimates with explicit constants.

Asymptotic cost statements are reified as concrete formulas whose
multiplicative constants live in a ``ConstantPack`` (all defaulting to 1).
The estimates claim formula shape and monotonicity, never that the
constants are tight.  Only ``combined_adder_bounds`` and the ripple closed
forms that ``shor_dlog_estimate`` reads are checked against synthesized
circuits.  No synthesizer emits ``tg``, so ``tt_cost``, ``gcla_cost`` and
``fanout_adder_cost`` have no circuit behind them.  Every size
parameter (``t``, ``m``, ``n``, ``d``, ``e``, ``f``) follows the package's
one size rule: an ``int``, not a bool, at least its least value.  An
estimate too large for a float raises ``ValueError``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .blocked import BlockParams
from .circuit import _check_size, _shown
from .ripple import ripple_closed_forms

#: Committed additive constant for the combined adder's Toffoli-depth bound
#: 14k + 4*log2(n/k) + C.  Every synthesized configuration measures exactly
#: 14k + 4*log2(n/k) - 11 (-13 with n/k = 4 blocks), so the bound holds
#: with C = 0.
COMBINED_DEPTH_CONSTANT = 0

#: Committed multiplicative bounds for the combined adder (Toffoli-only
#: accounting): at most 14n Toffoli gates and at most 3n/k ancilla wires.
COMBINED_SIZE_FACTOR = 14
COMBINED_ANCILLA_FACTOR = 3


def _check_positive(name: str, x: float) -> None:
    # inf and nan would loop forever or compare as neither <= 0 nor > 1
    if not 0 < x < math.inf:
        raise ValueError(f"{name} needs a positive finite input, got {_shown(x)}")


def _float_range(formula):
    """``formula`` with an estimate too large for a float refused as
    ``ValueError``, like every other rule of an estimate, where Python's
    int-to-float conversion raises ``OverflowError``."""

    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            return formula(*args, **kwargs)
        except OverflowError:
            raise ValueError(f"{formula.__name__}: an estimate exceeds the float range") from None

    return checked


def log_star(x: float) -> int:
    """Iterated base-2 logarithm: least j with log2 applied j times <= 1.

    Exact for every positive real, without floats: log2 applied j times to
    x is <= 1 iff x is at most the tower 2**2**...**2 of j twos, an int, so
    iff ``ceil(x)`` is; and an int x >= 1 is <= 2**t iff
    ``(x - 1).bit_length() <= t``.
    """
    _check_positive("log_star", x)
    x = math.ceil(x)
    j = 0
    while x > 1:
        x = (x - 1).bit_length()
        j += 1
    return j


def log_star_star(x: float) -> int:
    """Least j with log_star applied j times <= 1."""
    _check_positive("log_star_star", x)
    j = 0
    v = x
    while v > 1:
        v = log_star(v)
        j += 1
    return j


@dataclass(frozen=True)
class ConstantPack:
    """Named multiplicative constants, positive and finite, default 1."""

    c_depth: float = 1.0
    c_size: float = 1.0
    c_anc: float = 1.0
    c_logstar: float = 1.0

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            # an int or a float, not a bool: the numbers json writes as
            # such; nan compares False both ways, so it fails this test too
            if type(value) not in (int, float) or not 0 < value < math.inf:
                raise ValueError(f"constant {name} must be positive and finite, got {value}")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


DEFAULT_CONSTANTS = ConstantPack()


def _check_pack(consts: ConstantPack) -> None:
    # read before any constant, so a wrong pack fails as ValueError, not AttributeError
    if not isinstance(consts, ConstantPack):
        raise ValueError(f"need a ConstantPack, got {consts!r}")


def _num(v: float) -> float | int:
    """Canonicalize integral floats to ints for stable output."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


@dataclass(frozen=True)
class CostEstimate:
    """Structured closed-form resource record.

    ``formula_id`` names the expression that produced the numbers; the
    input parameters and the constant pack are echoed so the estimate is
    reproducible bit for bit.  The four numbers, ``params`` (``str`` keys;
    ints, finite floats or strs) and ``constants`` (a ``ConstantPack``) are
    checked here, so ``to_json`` always writes RFC 8259 JSON.
    """

    formula_id: str
    qubits_total: float
    ancilla: float
    depth: float
    size: float
    params: dict = field(default_factory=dict)
    constants: ConstantPack = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        _check_pack(self.constants)
        for name in ("qubits_total", "ancilla", "depth", "size"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        # no nan or inf, and no key that json would coerce to a str
        if not isinstance(self.params, dict) or not {str}.issuperset(map(type, self.params)):
            raise ValueError(f"params must be a dict with str keys, got {self.params!r}")
        for key, value in self.params.items():
            if type(value) not in (int, str) and not (type(value) is float and math.isfinite(value)):
                raise ValueError(f"param {key} is not an int, a finite float or a str: {value!r}")

    def to_json_dict(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "qubits_total": _num(self.qubits_total),
            "ancilla": _num(self.ancilla),
            "depth": _num(self.depth),
            "size": _num(self.size),
            "params": {k: _num(v) for k, v in self.params.items()},
            "constants": self.constants.as_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


@_float_range
def tt_cost(t: int, f: int, consts: ConstantPack = DEFAULT_CONSTANTS) -> CostEstimate:
    """Generalized-Toffoli gate built from fan-outs of length at most f.

    depth = c_depth * (log2(t)/log2(f) + c_logstar * log*(t)),
    size = c_size * t, ancilla = c_anc * t.  (The internal stages behind
    this composite are a depth O(log t/log f + 1), size O(t log t)
    reduction of a t-wide OR to O(log t) bits, iterated log*-many times.)
    No circuit backs this formula: no synthesizer emits ``tg``.
    """
    _check_pack(consts)
    _check_size("t", t, 2)
    _check_size("f", f, 2)
    depth = consts.c_depth * (math.log2(t) / math.log2(f) + consts.c_logstar * log_star(t))
    size = consts.c_size * t
    ancilla = consts.c_anc * t
    return CostEstimate(
        formula_id="tt-gate",
        qubits_total=(t + 1) + ancilla,
        ancilla=ancilla,
        depth=depth,
        size=size,
        params={"t": t, "f": f},
        constants=consts,
    )


@_float_range
def gcla_cost(m: int, f: int, consts: ConstantPack = DEFAULT_CONSTANTS) -> CostEstimate:
    """Constant-depth-style generalized carry-lookahead adder on m-bit inputs.

    ancilla = size = c * m * log**(m);
    depth = c_depth * (log2(m)/log2(f) + c_logstar * log*(m * log**(m))).
    No circuit backs this formula: no synthesizer builds this adder.
    """
    _check_pack(consts)
    _check_size("m", m, 2)
    _check_size("f", f, 2)
    mll = m * log_star_star(m)
    depth = consts.c_depth * (
        math.log2(m) / math.log2(f) + consts.c_logstar * log_star(mll)
    )
    ancilla = consts.c_anc * mll
    return CostEstimate(
        formula_id="gcla",
        qubits_total=(2 * m + 1) + ancilla,
        ancilla=ancilla,
        depth=depth,
        size=consts.c_size * mll,
        params={"m": m, "f": f},
        constants=consts,
    )


@_float_range
def fanout_adder_cost(
    n: int, e: int, f: int, consts: ConstantPack = DEFAULT_CONSTANTS
) -> CostEstimate:
    """Adder of depth e built with fan-outs of length at most f.

    Requires e >= log*(n).  ancilla = c_anc * n * log**(n) / e,
    depth = c_depth * e, size = c_size * n.  No circuit backs this formula:
    no synthesizer builds this adder.
    """
    _check_pack(consts)
    _check_size("n", n, 2)
    _check_size("e", e, 1)
    _check_size("f", f, 2)
    if e < log_star(n):
        raise ValueError(f"depth parameter e={e} below log*(n)={log_star(n)}")
    ancilla = consts.c_anc * n * log_star_star(n) / e
    return CostEstimate(
        formula_id="adder-fanout",
        qubits_total=(2 * n + 1) + ancilla,
        ancilla=ancilla,
        depth=consts.c_depth * e,
        size=consts.c_size * n,
        params={"n": n, "e": e, "f": f},
        constants=consts,
    )


@_float_range
def combined_adder_bounds(
    n: int, d: int, consts: ConstantPack = DEFAULT_CONSTANTS
) -> CostEstimate:
    """Committed upper bounds for the synthesized combined adder.

    Toffoli-only accounting: ``depth`` bounds the Toffoli-weighted depth
    (14k + 4*log2(n/k) + COMBINED_DEPTH_CONSTANT), ``size`` the Toffoli
    count (14n), ``ancilla`` the ancilla wires (3n/k).  These dominate the
    measured statistics of every synthesized configuration.
    """
    _check_pack(consts)
    k = BlockParams(n, d).k
    ancilla = consts.c_anc * COMBINED_ANCILLA_FACTOR * n / k
    depth = (
        consts.c_depth * (14 * k + 4 * math.log2(n // k)) + COMBINED_DEPTH_CONSTANT
    )
    return CostEstimate(
        formula_id="combined-adder-bounds",
        qubits_total=(2 * n + 1) + ancilla,
        ancilla=ancilla,
        depth=depth,
        size=consts.c_size * COMBINED_SIZE_FACTOR * n,
        params={"n": n, "d": d, "k": k},
        constants=consts,
    )


@_float_range
def shor_dlog_estimate(
    n: int,
    adder: str = "ripple",
    d: int | None = None,
    e: int | None = None,
    f: int | None = None,
    consts: ConstantPack = DEFAULT_CONSTANTS,
) -> CostEstimate:
    """Discrete-logarithm circuit budget over GF(p) with n-bit p.

    The dominant cost is n**2 applications of an n-bit adder inside the
    extended-Euclidean division; the register budget is 4n qubits plus
    whatever ancilla the chosen adder needs.  Each adder's depth is read
    from its own formula with the default constants, and its ancilla from
    the same formula with ``consts``:

    - ripple: ``ripple_closed_forms`` (no ancilla, depth 5n-3);
    - combined(d): ``combined_adder_bounds``, so n must be a power of two
      that a synthesized combined adder exists for;
    - fanout(e, f): ``fanout_adder_cost``.

    A parameter the chosen adder does not read (``d`` except for combined,
    ``e`` and ``f`` except for fanout) raises ``ValueError``.

    qubits = 4n + ancilla, depth = c_depth * n**2 * adder_depth,
    size = c_size * n**3.  The 4n registers, the n**2 adder calls and the
    size n**3, which ignores the adder's size, are assumed: no circuit
    backs them.  Nor does one back the fanout adder's depth c_depth * e.

    The two adder depths are different metrics, so the budgets do not
    compare: ripple's 5n-3 is the full depth, combined's 14k + 4*log2(n/k)
    bounds only the Toffoli depth.  At n = 16, d = 2 they give 19712 and
    10240; the combined adder's measured full depth of 45 would give 11520.
    """
    _check_pack(consts)
    _check_size("n", n, 4)
    reads = {"ripple": (), "combined": ("d",), "fanout": ("e", "f")}.get(adder)
    if reads is None:
        raise ValueError(f"unknown adder {adder!r}")
    given = {"d": d, "e": e, "f": f}
    for name, value in given.items():
        if value is not None and name not in reads:
            raise ValueError(f"the {adder} adder does not take {name}")
    args = [given[name] for name in reads]
    if any(value is None for value in args):
        raise ValueError(f"{adder} adder needs {' and '.join(reads)}")
    params = {"n": n, "adder": adder, **dict(zip(reads, args))}
    if adder == "ripple":
        forms = ripple_closed_forms(n)
        ancilla = consts.c_anc * forms["ancilla_count"]
        adder_depth = forms["depth"]
    else:
        formula = combined_adder_bounds if adder == "combined" else fanout_adder_cost
        ancilla = formula(n, *args, consts).ancilla
        adder_depth = formula(n, *args).depth
    return CostEstimate(
        formula_id=f"shor-dlog+{adder}",
        qubits_total=4 * n + ancilla,
        ancilla=ancilla,
        depth=consts.c_depth * n * n * adder_depth,
        size=consts.c_size * n ** 3,
        params=params,
        constants=consts,
    )
