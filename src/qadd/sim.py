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

from .circuit import Circuit, Gate, GateKind, _check_size, _check_wires

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

#: Stream bits drawn per ``_splitmix64_block`` call by ``_random_columns``,
#: which keeps the block's 128-bit-lane temporaries to 128 KiB each.
_CHUNK_BITS = 1 << 19

#: Stream bits transposed per chunk by ``_random_columns`` (2 MiB).
_TRANSPOSE_BITS = 1 << 24

#: Delta-swap rounds of an 8 x 8 bit transpose: (distance, mask of one lane).
_TRANSPOSE8_ROUNDS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0xF0F0F0F0))

#: 8-byte lanes per pass of ``_transpose_bytes8`` (32 KiB).
_TRANSPOSE8_LANES = 1 << 12


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
    return run(Circuit(len(state), gates=(gate,)), state)


def run(circuit: Circuit, state: Sequence[int]) -> BitState:
    """Run a circuit on one bit state, as a one-case packed run.

    Rejects an entry that is not 0 or 1 (bools count) and inputs whose
    ancilla wires are nonzero rather than silently accepting them.
    """
    if len(state) != circuit.wire_count:
        raise ValueError(
            f"state has {len(state)} wires, circuit has {circuit.wire_count}"
        )
    for w, v in enumerate(state):
        if not isinstance(v, int) or v not in (0, 1):
            raise ValueError(f"wire {w} holds {v!r}, not a bit")
    bad = [w for w in circuit.ancilla if state[w]]
    if bad:
        raise ValueError(f"ancilla wires {sorted(bad)} must be 0 on input")
    return run_packed(circuit, state, 1)


def run_packed(circuit: Circuit, columns: Sequence[int], n_cases: int) -> list[int]:
    """Run a circuit on ``n_cases`` packed cases (one int column per wire);
    ``n_cases`` follows the size rule, an ``int`` of at least 1."""
    _check_size("n_cases", n_cases, 1)
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


def _transpose_bytes8(lanes: bytes) -> bytearray:
    """Transpose the 8 x 8 bit matrix in every 8-byte lane of ``lanes``
    (not empty): bit ``b`` of byte ``r`` becomes bit ``r`` of byte ``b``.

    Up to ``_TRANSPOSE8_LANES`` lanes go at once, by the lane trick of
    ``_splitmix64_block``: each round is one delta swap over one int
    (Warren, *Hacker's Delight*, 2nd ed., section 7-3), and no masked bit
    moves out of its 64-bit lane.  Passes of that size keep the masks and
    temporaries small, whatever the length of ``lanes``.
    """
    size = 8 * min(len(lanes) // 8, _TRANSPOSE8_LANES)
    rounds = [
        (shift, int.from_bytes(mask.to_bytes(8, "little") * (size // 8), "little"))
        for shift, mask in _TRANSPOSE8_ROUNDS
    ]
    out = bytearray(len(lanes))
    view = memoryview(lanes)
    for start in range(0, len(lanes), size):
        piece = view[start : start + size]
        z = int.from_bytes(piece, "little")
        for shift, mask in rounds:
            t = (z ^ (z >> shift)) & mask
            z ^= t ^ (t << shift)
        out[start : start + size] = z.to_bytes(len(piece), "little")
    return out


def _random_columns(
    circuit: Circuit, free: Sequence[int], trials: int, seed: int
) -> list[int]:
    """Seeded input columns: bit ``trial*len(free) + j`` of the splitmix64
    bit stream (words flattened LSB-first) drives free wire ``free[j]`` in
    that trial.

    Trials are transposed in chunks of about ``_TRANSPOSE_BITS`` stream
    bits (at least 64 trials), each drawn in blocks of ``_CHUNK_BITS``.  In
    a chunk, trials ``8g .. 8g+7`` are the 8 rows of group ``g``, and byte
    ``q`` of every row of every group is one strided byte slice of the
    chunk shifted by the row's offset.  Those bytes are laid out as one
    8 x 8 bit matrix per (byte, group) lane, ``_transpose_bytes8``
    transposes thousands of lanes per big-int operation, and each wire's
    column piece is one strided slice of the result.
    So the Python-level work is linear in the wires per chunk, with no
    loop over trials, and the time is linear in ``trials``.

    Each column is written in place into a byte buffer of its final size
    and swapped for its int at the end.  Apart from the columns, the extra
    memory is about three chunk-sized buffers while a chunk is
    transposed (2 MiB each, or 64 trials' worth above 2**18 wires), and
    one column while the buffers are swapped for ints.
    """
    cols = [0] * circuit.wire_count
    width = len(free)
    if width == 0:
        return cols
    # A multiple of 64 trials keeps every chunk word- and byte-aligned.
    step = max(64, _TRANSPOSE_BITS // width // 64 * 64)
    block = _CHUNK_BITS // 64
    row_bytes = (width + 7) // 8
    bufs = [bytearray((trials + 7) // 8) for _ in free]
    for first in range(0, trials, step):
        n = min(step, trials - first)
        start, n_words = first * width // 64, -(-n * width // 64)
        words = b"".join(
            _splitmix64_block(seed, start + k, min(block, n_words - k))
            for k in range(0, n_words, block)
        )
        groups = (n + 7) // 8
        # Stream bits past the last group's span are never read.
        chunk = int.from_bytes(memoryview(words)[: groups * width], "little")
        del words
        # Row r of group g starts at bit r*width of the group's span of
        # ``width`` bytes, so byte q of it is byte g*width + q of the chunk
        # shifted down by r*width.  A row's last byte also holds bits of the
        # next row; they land only in the bytes of wires past the last.
        # Each chunk-sized buffer is dropped once read, so at most three
        # are alive at a time.
        matrix = bytearray(8 * row_bytes * groups)
        for r in range(8):
            row = chunk.to_bytes(groups * width, "little")
            matrix[r::8] = b"".join([row[q::width] for q in range(row_bytes)])
            del row
            chunk >>= width
        del chunk
        out = _transpose_bytes8(matrix)
        del matrix
        at = first // 8
        for j, buf in enumerate(bufs):
            q, b = divmod(j, 8)
            buf[at : at + groups] = out[8 * q * groups + b : 8 * (q + 1) * groups : 8]
    # The rows of the last group past the last trial read stream bits beyond
    # it, which land in the last byte of each column.
    last = (1 << (trials - 1) % 8 + 1) - 1
    for i, w in enumerate(free):
        bufs[i][-1] &= last
        cols[w] = int.from_bytes(bufs[i], "little")
        # Drop each buffer whole as its column replaces it: ``clear`` would
        # keep a stub allocation that stops freed neighbours from merging,
        # and the next column's int, a little larger, would not fit in them.
        bufs[i] = None
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


def _check_result(
    result: Sequence[int], data_wires: list[int], wire_count: int, bits: int
) -> list[int]:
    """The rule for what a caller's oracle returns, checked before any of it
    is decoded: exactly ``wire_count`` entries, and each data-wire entry an
    ``int`` (bools and other subclasses count) from 0 to 2**bits - 1, one
    column of ``bits`` cases, so each entry of a per-case result is a bit.
    Ancilla entries are never read.  Returns the data-wire entries in order."""
    if len(result) != wire_count:
        raise ValueError(f"oracle returned {len(result)} entries for {wire_count} wires")
    values = [result[w] for w in data_wires]
    for w, v in zip(data_wires, values):
        if not isinstance(v, int) or v < 0 or v >> bits:
            got = "an int out of range" if isinstance(v, int) else repr(v)
            kind = "a bit" if bits == 1 else f"an int from 0 to 2**{bits} - 1"
            raise ValueError(f"oracle entry for wire {w} is {got}, not {kind}")
    return values


def _packed_from_per_case(circuit: Circuit, oracle: Oracle) -> PackedOracle:
    """Packed form of a per-case oracle: it calls ``oracle`` once per case,
    checks each result by ``_check_result`` and keeps its data-wire bits
    (ancilla columns come out 0)."""
    wc = circuit.wire_count
    data_wires = [w for w in range(wc) if w not in circuit.ancilla]

    def packed(in_cols: list[int], n_cases: int) -> list[int]:
        # Set each expected bit in a per-wire byte buffer and convert once,
        # which keeps this linear in the case count.
        in_bufs = [_column_bytes(c, n_cases) for c in in_cols]
        exp_bufs = [bytearray((n_cases + 7) // 8) for _ in range(wc)]
        for case in range(n_cases):
            byte, bit = case >> 3, 1 << (case & 7)
            expected = _check_result(oracle(_case_bits(in_bufs, case, wc)), data_wires, wc, 1)
            for w, v in zip(data_wires, expected):
                if v:
                    exp_bufs[w][byte] |= bit
        return [int.from_bytes(buf, "little") for buf in exp_bufs]

    return packed


def _one_oracle(
    circuit: Circuit, oracle: Oracle | None, packed_oracle: PackedOracle | None
) -> PackedOracle:
    """The packed oracle of a request that passes exactly one of the two."""
    if (oracle is None) == (packed_oracle is None):
        raise ValueError("pass exactly one of oracle= and packed_oracle=")
    return packed_oracle if oracle is None else _packed_from_per_case(circuit, oracle)


def _check_columns(
    circuit: Circuit,
    in_cols: list[int],
    n_cases: int,
    packed_oracle: PackedOracle,
    seed: int | None,
) -> VerifyReport:
    """Run ``circuit`` on packed input columns and diff its data wires with
    the oracle's.  The ancilla rule lives here only: every ancilla output
    must be 0, the oracle's ancilla columns are never read, and a failure
    records 0 as each ancilla's expected bit."""
    wc = circuit.wire_count
    out_cols = run_packed(circuit, in_cols, n_cases)
    data_wires = [w for w in range(wc) if w not in circuit.ancilla]
    exp_cols = packed_oracle(list(in_cols), n_cases)
    _check_result(exp_cols, data_wires, wc, n_cases)

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


def _check_exhaustive_request(width: int) -> None:
    """Reject an exhaustive run over ``width`` free wires above the cap."""
    if width > EXHAUSTIVE_WIRE_CAP:
        raise ValueError(
            f"{width} free wires exceed the exhaustive cap of {EXHAUSTIVE_WIRE_CAP}"
        )


def _check_random_request(trials: int, width: int, seed: int) -> None:
    """Reject a seeded run of ``trials`` over ``width`` free wires, or a seed
    that is not an int, before anything is allocated for it."""
    _check_size("trials", trials, 1)
    if type(seed) is not int:
        raise ValueError(f"seed {seed!r} is not an int")
    if trials * width > RANDOM_INPUT_BIT_CAP:
        raise ValueError(
            f"{trials} trials x {width} free wires exceed the seeded input "
            f"cap of {RANDOM_INPUT_BIT_CAP} bits"
        )


def _resolve_free(circuit: Circuit, free_wires: Iterable[int] | None) -> list[int]:
    if free_wires is None:
        return [w for w in range(circuit.wire_count) if w not in circuit.ancilla]
    free = sorted(_check_wires(free_wires))
    for w in free:
        if w >= circuit.wire_count:
            raise ValueError(f"free wire {w} out of range")
        if w in circuit.ancilla:
            raise ValueError(f"ancilla wire {w} cannot be enumerated")
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
    Capped at ``EXHAUSTIVE_WIRE_CAP`` free wires.  Pass exactly one of
    ``oracle=`` and ``packed_oracle=``.  The free wires, the cap and the
    oracle pair are all checked, in that order, before any input column is
    built.

    ``packed_oracle=`` is the fast path: one call computes every case's
    expected columns.  A per-case ``oracle=`` costs one Python call and one
    ``_case_bits`` read, one byte from every input column, per case: on
    ripple n = 256, 64 000 seeded trials took about 10-11 s that way and
    0.4 s with the packed oracle (CPython 3.11 on one core of a 2-vCPU Xeon).
    This holds for ``verify_random`` too.
    """
    free = _resolve_free(circuit, free_wires)
    _check_exhaustive_request(len(free))
    packed_oracle = _one_oracle(circuit, oracle, packed_oracle)
    cols = _enumeration_columns(circuit, free)
    return _check_columns(circuit, cols, 1 << len(free), packed_oracle, None)


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
    input columns is about three chunks of 2**24 stream bits (at least 64
    trials each) plus one column.  ``trials * len(free wires)`` is capped
    at ``RANDOM_INPUT_BIT_CAP``; larger requests raise ``ValueError``.  At
    the cap, generating the inputs took 6.2-7.3 s and peaked at 158-189 MB
    RSS for 128 MiB of columns (7, 64 and 2049 free wires, CPython 3.11 on
    one core of a 2-vCPU Xeon).  Pass exactly one of ``oracle=`` and
    ``packed_oracle=``.  The free wires, ``trials``, ``seed``, the cap and
    the oracle pair are all checked, in that order, before any input is
    generated.  ``packed_oracle=`` is the fast path; ``verify_exhaustive``
    states what a per-case ``oracle=`` costs.
    """
    free = _resolve_free(circuit, free_wires)
    _check_random_request(trials, len(free), seed)
    packed_oracle = _one_oracle(circuit, oracle, packed_oracle)
    cols = _random_columns(circuit, free, trials, seed)
    return _check_columns(circuit, cols, trials, packed_oracle, seed)
