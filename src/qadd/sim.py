"""Classical bit-vector semantics and verification harnesses.

Every supported gate permutes computational basis states, so a circuit is
fully characterized by its action on classical bit assignments.
``run_packed`` is the one gate interpreter: it packs independent cases into
Python integers, one column per wire with bit ``c`` holding that wire's
value in case ``c``, and simulates them all in one pass over the gates.  A
single state (one 0/1 int per wire) is a one-case packed run whose columns
are its bits; ``run`` and ``apply_gate`` are just that, and a per-case
oracle is made packed before it is checked.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .circuit import Circuit, Gate, GateKind

#: One classical bit per wire.
BitState = list[int]

#: Per-case oracle: full-width input bits -> full-width expected bits.
Oracle = Callable[[BitState], BitState]

#: Packed oracle: (input columns, case count) -> expected columns.
PackedOracle = Callable[[list[int], int], list[int]]

#: Hard cap on exhaustive enumeration (2**24 cases).
EXHAUSTIVE_WIRE_CAP = 24

#: Hard cap on seeded inputs: ``trials * len(free wires)`` bits (2**30 bits,
#: 128 MiB of input columns).
RANDOM_INPUT_BIT_CAP = 1 << 30

#: At most this many failing cases are recorded in a report.
MAX_RECORDED_FAILURES = 32

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Stream bits transposed per chunk by ``_random_columns``.
_CHUNK_BITS = 1 << 19


def splitmix64(seed: int) -> Iterator[int]:
    """Infinite stream of 64-bit words from the splitmix64 generator.

    Fixed algorithm so that identical seeds yield identical trial
    sequences across implementations.
    """
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def apply_gate(state: Sequence[int], gate: Gate) -> BitState:
    """Apply one gate to a bit state; returns a new state."""
    return run_packed(Circuit(len(state), gates=(gate,)), state, 1)


def run(circuit: Circuit, state: Sequence[int]) -> BitState:
    """Run a circuit on one bit state, as a one-case packed run.

    Rejects inputs whose ancilla wires are nonzero rather than silently
    accepting them.
    """
    if len(state) != circuit.wire_count:
        raise ValueError(
            f"state has {len(state)} wires, circuit has {circuit.wire_count}"
        )
    bad = [w for w in circuit.ancilla if state[w]]
    if bad:
        raise ValueError(f"ancilla wires {sorted(bad)} must be 0 on input")
    return run_packed(circuit, state, 1)


def run_packed(circuit: Circuit, columns: Sequence[int], n_cases: int) -> list[int]:
    """Run a circuit on ``n_cases`` packed cases (one int column per wire)."""
    if len(columns) != circuit.wire_count:
        raise ValueError("column count must equal wire count")
    mask = (1 << n_cases) - 1
    cols = list(columns)
    for kind, controls, targets in circuit.gates:
        if kind is GateKind.CNOT:
            cols[targets[0]] ^= cols[controls[0]]
        elif kind is GateKind.TOFFOLI:
            c1, c2 = controls
            cols[targets[0]] ^= cols[c1] & cols[c2]
        elif kind is GateKind.NOT:
            cols[targets[0]] ^= mask
        elif kind is GateKind.FANOUT:
            src = cols[controls[0]]
            for t in targets:
                cols[t] ^= src
        else:
            acc = mask
            for c in controls:
                acc &= cols[c]
            cols[targets[0]] ^= acc
    return cols


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run.

    ``failures`` holds (input, expected, actual) full-width bit vectors and
    ``ancilla_violations`` the inputs whose run left an ancilla wire
    nonzero; both are capped at ``MAX_RECORDED_FAILURES`` entries (the
    earliest case indices are kept).  Verification passed iff both lists
    are empty.
    """

    total_cases: int
    failures: tuple = field(default_factory=tuple)
    ancilla_violations: tuple = field(default_factory=tuple)
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures and not self.ancilla_violations

    def to_json_dict(self) -> dict:
        return {
            "total_cases": self.total_cases,
            "failures": [
                {"input": list(i), "expected": list(e), "actual": list(a)}
                for (i, e, a) in self.failures
            ],
            "ancilla_violations": [list(v) for v in self.ancilla_violations],
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _enumeration_columns(circuit: Circuit, free: Sequence[int]) -> list[int]:
    """Truth-table columns: bit c of free wire i's column is (c >> i) & 1."""
    total = 1 << len(free)
    cols = [0] * circuit.wire_count
    for i, w in enumerate(free):
        half = 1 << i
        pattern = ((1 << half) - 1) << half
        length = half << 1
        while length < total:
            pattern |= pattern << length
            length <<= 1
        cols[w] = pattern
    return cols


def _splitmix64_block(seed: int, start: int, count: int) -> bytes:
    """Words ``start .. start+count-1`` of ``splitmix64(seed)``, packed as
    8-byte little-endian words.

    All words are mixed at once: word ``k`` sits in its own 128-bit lane of
    one int, every shift is masked back to the low 64 bits of each lane and
    every product of two 64-bit values fits in 128 bits, so no lane ever
    carries into the next.
    """
    ramp = array("Q", bytes(16 * count))
    ramp[::2] = array("Q", range(start + 1, start + count + 1))
    if sys.byteorder == "big":
        ramp.byteswap()
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    lanes = _MASK64 * ones
    z = int.from_bytes(ramp, "little") * _GAMMA + (seed & _MASK64) * ones
    z &= lanes
    z = ((z ^ ((z >> 30) & lanes)) * 0xBF58476D1CE4E5B9) & lanes
    z = ((z ^ ((z >> 27) & lanes)) * 0x94D049BB133111EB) & lanes
    z ^= (z >> 31) & lanes
    # Keep the low 8 bytes of each 16-byte lane; no value is read, so the
    # native item order of the array does not matter here.
    packed = array("Q")
    packed.frombytes(z.to_bytes(16 * count, "little"))
    return packed[::2].tobytes()


def _random_columns(
    circuit: Circuit, free: Sequence[int], trials: int, seed: int
) -> list[int]:
    """Seeded input columns: bit ``trial*len(free) + j`` of the splitmix64
    bit stream (words flattened LSB-first) drives free wire ``free[j]`` in
    that trial.

    Trials are transposed in chunks of about ``_CHUNK_BITS`` stream bits
    (at least 64 trials): each chunk's words are rendered as one binary
    string, and each wire's column piece is one strided slice of it
    (MSB-first, so trial order comes out right).  Time is linear in
    ``trials``.  Each column is built up as bytes and swapped for its int
    at the end, so apart from the columns the extra memory is one chunk.
    """
    cols = [0] * circuit.wire_count
    width = len(free)
    if width == 0:
        return cols
    # A multiple of 64 trials keeps every chunk word- and byte-aligned.
    step = max(64, _CHUNK_BITS // width // 64 * 64)
    bufs = [bytearray() for _ in free]
    for first in range(0, trials, step):
        n = min(step, trials - first)
        n_words = -(-n * width // 64)
        words = _splitmix64_block(seed, first * width // 64, n_words)
        length = 64 * n_words
        bits = format(int.from_bytes(words, "little"), f"0{length}b")
        top = length - 1 - (n - 1) * width
        n_bytes = (n + 7) // 8
        for j, buf in enumerate(bufs):
            buf += int(bits[top - j : length - j : width], 2).to_bytes(n_bytes, "little")
    for w, buf in zip(free, bufs):
        cols[w] = int.from_bytes(buf, "little")
        buf.clear()  # free each buffer as its column replaces it
    return cols


def _column_bytes(col: int, n_cases: int) -> bytes:
    return col.to_bytes((n_cases + 7) // 8, "little")


def _case_bits(bufs: list[bytes], case: int, width: int) -> list[int]:
    byte, shift = case >> 3, case & 7
    return [(bufs[w][byte] >> shift) & 1 for w in range(width)]


def _iter_set_bits(mask: int, limit: int) -> list[int]:
    out = []
    while mask and len(out) < limit:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _packed_from_per_case(circuit: Circuit, oracle: Oracle) -> PackedOracle:
    """Packed form of a per-case oracle: it calls ``oracle`` once per case
    and keeps its data-wire bits (ancilla columns come out 0)."""
    wc = circuit.wire_count
    data_wires = [w for w in range(wc) if w not in circuit.ancilla]

    def packed(in_cols: list[int], n_cases: int) -> list[int]:
        # Set each expected bit in a per-wire byte buffer and convert once,
        # which keeps this linear in the case count.
        in_bufs = [_column_bytes(c, n_cases) for c in in_cols]
        exp_bufs = [bytearray((n_cases + 7) // 8) for _ in range(wc)]
        for case in range(n_cases):
            byte, bit = case >> 3, 1 << (case & 7)
            expected = oracle(_case_bits(in_bufs, case, wc))
            for w in data_wires:
                if expected[w]:
                    exp_bufs[w][byte] |= bit
        return [int.from_bytes(buf, "little") for buf in exp_bufs]

    return packed


def _check_columns(
    circuit: Circuit,
    in_cols: list[int],
    n_cases: int,
    oracle: Oracle | None,
    packed_oracle: PackedOracle | None,
    seed: int | None,
) -> VerifyReport:
    if packed_oracle is None:
        if oracle is None:
            raise ValueError("need an oracle or a packed oracle")
        packed_oracle = _packed_from_per_case(circuit, oracle)
    wc = circuit.wire_count
    out_cols = run_packed(circuit, in_cols, n_cases)
    data_wires = [w for w in range(wc) if w not in circuit.ancilla]
    exp_cols = packed_oracle(list(in_cols), n_cases)

    diff = 0
    for w in data_wires:
        diff |= exp_cols[w] ^ out_cols[w]
    viol = 0
    for w in circuit.ancilla:
        viol |= out_cols[w]

    failures: list[tuple] = []
    violations: list[tuple] = []
    if diff or viol:
        in_bufs = [_column_bytes(c, n_cases) for c in in_cols]
        out_bufs = [_column_bytes(c, n_cases) for c in out_cols]
        exp_bufs = [_column_bytes(c, n_cases) for c in exp_cols]
        for case in _iter_set_bits(diff, MAX_RECORDED_FAILURES):
            inp = _case_bits(in_bufs, case, wc)
            exp = _case_bits(exp_bufs, case, wc)
            for w in circuit.ancilla:
                exp[w] = 0
            failures.append((tuple(inp), tuple(exp), tuple(_case_bits(out_bufs, case, wc))))
        for case in _iter_set_bits(viol, MAX_RECORDED_FAILURES):
            violations.append(tuple(_case_bits(in_bufs, case, wc)))
    return VerifyReport(
        total_cases=n_cases,
        failures=tuple(failures),
        ancilla_violations=tuple(violations),
        seed=seed,
    )


def _check_random_request(trials: int, width: int) -> None:
    """Reject a seeded run of ``trials`` over ``width`` free wires before
    anything is allocated for it."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials * width > RANDOM_INPUT_BIT_CAP:
        raise ValueError(
            f"{trials} trials x {width} free wires exceed the seeded input "
            f"cap of {RANDOM_INPUT_BIT_CAP} bits"
        )


def _resolve_free(circuit: Circuit, free_wires: Iterable[int] | None) -> list[int]:
    if free_wires is None:
        return [w for w in range(circuit.wire_count) if w not in circuit.ancilla]
    free = sorted(int(w) for w in free_wires)
    for w in free:
        if not 0 <= w < circuit.wire_count:
            raise ValueError(f"free wire {w} out of range")
        if w in circuit.ancilla:
            raise ValueError(f"ancilla wire {w} cannot be enumerated")
    if len(set(free)) != len(free):
        raise ValueError("free wires must be distinct")
    return free


def verify_exhaustive(
    circuit: Circuit,
    oracle: Oracle | None = None,
    free_wires: Iterable[int] | None = None,
    packed_oracle: PackedOracle | None = None,
) -> VerifyReport:
    """Check a circuit against an oracle on every assignment of the free wires.

    Free wires default to all non-ancilla wires; ancilla wires are fixed to
    0 and checked to end at 0.  Non-free data wires are also fixed to 0.
    Capped at ``EXHAUSTIVE_WIRE_CAP`` free wires.
    """
    free = _resolve_free(circuit, free_wires)
    if len(free) > EXHAUSTIVE_WIRE_CAP:
        raise ValueError(
            f"{len(free)} free wires exceed the exhaustive cap of {EXHAUSTIVE_WIRE_CAP}"
        )
    cols = _enumeration_columns(circuit, free)
    return _check_columns(circuit, cols, 1 << len(free), oracle, packed_oracle, None)


def verify_random(
    circuit: Circuit,
    oracle: Oracle | None = None,
    trials: int = 1000,
    seed: int = 0,
    free_wires: Iterable[int] | None = None,
    packed_oracle: PackedOracle | None = None,
) -> VerifyReport:
    """Check a circuit against an oracle on seeded random inputs.

    Inputs are drawn from the splitmix64 stream over ``seed`` (see
    ``_random_columns`` for the exact bit assignment), so identical seeds
    give identical trial sequences and byte-identical reports.  Generating
    them takes time linear in ``trials``, and the extra memory beyond the
    input columns is bounded by one chunk of about 2**19 stream bits (at
    least 64 trials).  ``trials * len(free wires)`` is capped at
    ``RANDOM_INPUT_BIT_CAP``; larger requests raise ``ValueError``.
    """
    free = _resolve_free(circuit, free_wires)
    _check_random_request(trials, len(free))
    cols = _random_columns(circuit, free, trials, seed)
    return _check_columns(circuit, cols, trials, oracle, packed_oracle, seed)
