"""Closed-form resource estimates with explicit constants.

Asymptotic cost statements are reified as concrete formulas whose
multiplicative constants live in a ``ConstantPack`` (all defaulting to 1).
The estimates claim formula shape, monotonicity, and dominance over the
synthesized circuits, never that the constants are tight.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .blocked import BlockParams
from .ripple import ripple_closed_forms

#: Committed additive constant for the combined adder's Toffoli-depth bound
#: 14k + 4*log2(n/k) + C.  Every synthesized configuration measures exactly
#: 14k + 4*log2(n/k) - 10, so the bound holds with C = 0.
COMBINED_DEPTH_CONSTANT = 0

#: Committed multiplicative bounds for the combined adder (Toffoli-only
#: accounting): at most 14n Toffoli gates and at most 3n/k ancilla wires.
COMBINED_SIZE_FACTOR = 14
COMBINED_ANCILLA_FACTOR = 3


def log_star(x: float) -> int:
    """Iterated base-2 logarithm: least j with log2 applied j times <= 1.

    Ints of any size are handled exactly, without floats: log2 applied j
    times to x is <= 1 iff x is at most the tower 2**2**...**2 of j twos,
    and an int x >= 1 is <= 2**t iff ``(x - 1).bit_length() <= t``.  So for
    an int x >= 2, ``log_star(x) == 1 + log_star((x - 1).bit_length())``.
    """
    if x <= 0:
        raise ValueError(f"log_star needs positive input, got {x}")
    j = 0
    if isinstance(x, int):
        while x > 1:
            x = (x - 1).bit_length()
            j += 1
        return j
    v = float(x)
    while v > 1.0:
        v = math.log2(v)
        j += 1
    return j


def log_star_star(x: float) -> int:
    """Least j with log_star applied j times <= 1."""
    if x <= 0:
        raise ValueError(f"log_star_star needs positive input, got {x}")
    j = 0
    v = x
    while v > 1:
        v = log_star(v)
        j += 1
    return j


@dataclass(frozen=True)
class ConstantPack:
    """Named multiplicative constants, strictly positive, default 1."""

    c_depth: float = 1.0
    c_size: float = 1.0
    c_anc: float = 1.0
    c_logstar: float = 1.0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value <= 0:
                raise ValueError(f"constant {name} must be positive, got {value}")

    def as_dict(self) -> dict[str, float]:
        return {
            "c_depth": self.c_depth,
            "c_size": self.c_size,
            "c_anc": self.c_anc,
            "c_logstar": self.c_logstar,
        }


DEFAULT_CONSTANTS = ConstantPack()


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
    reproducible bit for bit.
    """

    formula_id: str
    qubits_total: float
    ancilla: float
    depth: float
    size: float
    params: dict = field(default_factory=dict)
    constants: ConstantPack = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        for name in ("qubits_total", "ancilla", "depth", "size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "qubits_total": _num(self.qubits_total),
            "ancilla": _num(self.ancilla),
            "depth": _num(self.depth),
            "size": _num(self.size),
            "params": {k: _num(v) if isinstance(v, float) else v for k, v in self.params.items()},
            "constants": self.constants.as_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def tt_cost(t: int, f: int, consts: ConstantPack = DEFAULT_CONSTANTS) -> CostEstimate:
    """Generalized-Toffoli gate built from fan-outs of length at most f.

    depth = c_depth * (log2(t)/log2(f) + c_logstar * log*(t)),
    size = c_size * t, ancilla = c_anc * t.  (The internal stages behind
    this composite are a depth O(log t/log f + 1), size O(t log t)
    reduction of a t-wide OR to O(log t) bits, iterated log*-many times.)
    """
    if t < 2 or f < 2:
        raise ValueError("need t >= 2 and f >= 2")
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


def gcla_cost(m: int, f: int, consts: ConstantPack = DEFAULT_CONSTANTS) -> CostEstimate:
    """Constant-depth-style generalized carry-lookahead adder on m-bit inputs.

    ancilla = size = c * m * log**(m);
    depth = c_depth * (log2(m)/log2(f) + c_logstar * log*(m * log**(m))).
    """
    if m < 2 or f < 2:
        raise ValueError("need m >= 2 and f >= 2")
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


def fanout_adder_cost(
    n: int, e: int, f: int, consts: ConstantPack = DEFAULT_CONSTANTS
) -> CostEstimate:
    """Adder of depth e built with fan-outs of length at most f.

    Requires e >= log*(n).  ancilla = c_anc * n * log**(n) / e,
    depth = c_depth * e, size = c_size * n.
    """
    if n < 2 or f < 2:
        raise ValueError("need n >= 2 and f >= 2")
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


def combined_adder_bounds(
    n: int, d: int, consts: ConstantPack = DEFAULT_CONSTANTS
) -> CostEstimate:
    """Committed upper bounds for the synthesized combined adder.

    Toffoli-only accounting: ``depth`` bounds the Toffoli-weighted depth
    (14k + 4*log2(n/k) + COMBINED_DEPTH_CONSTANT), ``size`` the Toffoli
    count (14n), ``ancilla`` the ancilla wires (3n/k).  These dominate the
    measured statistics of every synthesized configuration.
    """
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

    qubits = 4n + ancilla, depth = c_depth * n**2 * adder_depth,
    size = c_size * n**3.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if adder == "ripple":
        forms = ripple_closed_forms(n)
        ancilla = consts.c_anc * forms["ancilla_count"]
        adder_depth = forms["depth"]
    elif adder == "combined":
        if d is None:
            raise ValueError("combined adder needs d")
        ancilla = combined_adder_bounds(n, d, consts).ancilla
        adder_depth = combined_adder_bounds(n, d).depth
    elif adder == "fanout":
        if e is None or f is None:
            raise ValueError("fanout adder needs e and f")
        ancilla = fanout_adder_cost(n, e, f, consts).ancilla
        adder_depth = fanout_adder_cost(n, e, f).depth
    else:
        raise ValueError(f"unknown adder {adder!r}")
    params = {"n": n, "adder": adder}
    params.update((k, v) for k, v in (("d", d), ("e", e), ("f", f)) if v is not None)
    return CostEstimate(
        formula_id=f"shor-dlog+{adder}",
        qubits_total=4 * n + ancilla,
        ancilla=ancilla,
        depth=consts.c_depth * n * n * adder_depth,
        size=consts.c_size * n ** 3,
        params=params,
        constants=consts,
    )
