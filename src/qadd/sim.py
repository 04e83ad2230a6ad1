"""Classical bit-vector semantics and verification harnesses.

Every supported gate permutes computational basis states, so a circuit is
fully characterized by its action on classical bit assignments.
``run_packed`` is the one gate interpreter: it packs independent cases into
Python integers, one column per wire with bit ``c`` holding that wire's
value in case ``c``, and simulates them all in one pass over the gates.  A
single state (one 0/1 int per wire) is a one-case packed run whose columns
are its bits; ``run`` and ``apply_gate`` are just that, and a per-case
oracle is made packed before it is checked.

``_check_columns`` is the one check loop of a request: it runs, checks
and diffs each chunk of cases it is handed and builds the one report.
``verify_random`` hands it all its trials as one chunk, and
``verify_exhaustive`` its cases in chunks of 2**16, so a packed oracle is
called once per chunk, not once per request, and each gate, oracle step
and diff works on 8 KiB columns that stay in the CPU cache.  On the
benchmark's exhaustive workload (ripple n <= 11, combined n = 8, init
blocks and fan-out trees up to the 24-wire cap) that took a pass from
about 2.5 to 0.55 s and its peak RSS from 175 to 22 MB, against one chunk
of up to 2 MiB per column.
Deciding each chunk by one equality test per column, and building a diff
only for a chunk that fails, then took the pass from 0.58 to 0.41 s
(medians of six alternating in-process rounds, CPython 3.11 on a 2-vCPU
Xeon).
"""

from __future__ import annotations

import json
import operator
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .circuit import (
    Circuit, Gate, _CNOT, _FANOUT, _NOT, _TOFFOLI, _check_size, _check_wires, _shown,
)

#: One classical bit per wire.
BitState = list[int]

#: Per-case oracle: full-width input bits -> full-width expected bits.
Oracle = Callable[[BitState], BitState]

#: Packed oracle: (input columns, case count) -> expected columns.
PackedOracle = Callable[[list[int], int], list[int]]

#: Hard cap on exhaustive enumeration (2**24 cases).
EXHAUSTIVE_WIRE_CAP = 24

#: Cases per chunk of an exhaustive run, a power of two (8 KiB per column),
#: so each gate, oracle step and diff works on columns that stay in the CPU
#: cache.
_EXHAUSTIVE_CHUNK_CASES = 1 << 16

#: Hard cap on seeded inputs: ``trials * max(len(free wires), 1)`` bits
#: (2**30 bits, 128 MiB of input columns).
RANDOM_INPUT_BIT_CAP = 1 << 30

#: At most this many failing cases are recorded in a report.
MAX_RECORDED_FAILURES = 32

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Stream bits mixed at once by ``_splitmix64_block``, which keeps its
#: 128-bit-lane temporaries to 128 KiB each.
_CHUNK_BITS = 1 << 19

#: Stream bits transposed per chunk by ``_random_columns`` (2 MiB).
_TRANSPOSE_BITS = 1 << 24

#: Translate tables, per sub-byte offset s, that shift each byte of a
#: string down by s and up by 8 - s, dropping the bits that leave it.
_BYTE_SHIFTS = [
    (bytes(b >> s for b in range(256)), bytes(b << 8 - s & 0xFF for b in range(256)))
    for s in range(8)
]


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
    ``n_cases`` follows the size rule, an ``int`` of at least 1.

    The kernel keeps the column contract of ``qadd.oracles``: it uses a
    column only through ``^``, ``&`` and ``|``, the column list only
    through ``len``, ``list(...)`` and indexing, and builds the mask
    ``(1 << n_cases) - 1`` from the count alone, so it never tests a
    column for truth or compares one."""
    _check_size("n_cases", n_cases, 1)
    if len(columns) != circuit.wire_count:
        raise ValueError("column count must equal wire count")
    mask = (1 << n_cases) - 1
    cols = list(columns)
    for kind, controls, targets in circuit.gates:
        if kind is _CNOT:
            cols[targets[0]] ^= cols[controls[0]]
        elif kind is _TOFFOLI:
            c1, c2 = controls
            cols[targets[0]] ^= cols[c1] & cols[c2]
        elif kind is _NOT:
            cols[targets[0]] ^= mask
        elif kind is _FANOUT:
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


def _splitmix64_block(seed: int, start: int, count: int) -> bytearray:
    """Words ``start .. start+count-1`` of ``splitmix64(seed)``, packed as
    8-byte little-endian words into a new buffer.

    Words are mixed ``_CHUNK_BITS // 64`` at a time, word ``k`` of a
    sub-block in its own 128-bit lane of one int: every shift is masked
    back to the low 64 bits of each lane and every product of two 64-bit
    values fits in 128 bits, so no lane carries into the next.  The masks
    and first states are built once per call; each later sub-block's states
    are the last ones plus ``block * _GAMMA`` per lane.
    """
    block = min(count, _CHUNK_BITS // 64)
    if block == 0:
        return bytearray()
    ramp = b"".join([k.to_bytes(16, "little") for k in range(start + 1, start + block + 1)])
    ones = int.from_bytes((b"\x01" + bytes(15)) * block, "little")
    lanes = _MASK64 * ones
    state = (int.from_bytes(ramp, "little") * _GAMMA + (seed & _MASK64) * ones) & lanes
    advance = (block * _GAMMA & _MASK64) * ones
    out = bytearray(8 * count)
    for k in range(0, count, block):
        m = min(block, count - k)
        z = state if m == block else state & (1 << 128 * m) - 1
        z = ((z ^ ((z >> 30) & lanes)) * 0xBF58476D1CE4E5B9) & lanes
        z = ((z ^ ((z >> 27) & lanes)) * 0x94D049BB133111EB) & lanes
        z ^= (z >> 31) & lanes
        # Keep the low 8 bytes of each 16-byte lane; no value is read, so
        # the native item order of the array does not matter here.
        packed = array("Q")
        packed.frombytes(z.to_bytes(16 * m, "little"))
        out[8 * k : 8 * (k + m)] = packed[::2]
        state = (state + advance) & lanes
    return out


def _transpose_planes8(rows: list[int], size: int) -> list[bytearray]:
    """Transpose the 8 x 8 bit matrix of every byte lane of eight ``size``-byte
    rows, in place in ``rows``: bit ``b`` of byte ``L`` of row ``r`` becomes
    bit ``r`` of byte ``L`` of plane ``b``.

    Three block swaps between rows ``r`` and ``r + d``, for d = 4, 2, 1
    (Warren, *Hacker's Delight*, 2nd ed., section 7-3), each over whole
    rows at once; the byte masks keep every bit in its lane.  The planes
    are bytearrays because a bytearray slice assigned into a bytearray is
    copied once, where a bytes slice is first copied into a new bytearray.
    """
    for d, byte in ((4, b"\x0f"), (2, b"\x33"), (1, b"\x55")):
        mask = int.from_bytes(byte * size, "little")
        for r in range(8):
            if not r & d:
                t = (rows[r] >> d ^ rows[r + d]) & mask
                rows[r + d] ^= t
                rows[r] ^= t << d
    return [bytearray(row.to_bytes(size, "little")) for row in rows]


def _random_columns(
    circuit: Circuit, free: Sequence[int], trials: int, seed: int
) -> list[int]:
    """Seeded input columns: bit ``trial*len(free) + j`` of the splitmix64
    bit stream (words flattened LSB-first) drives free wire ``free[j]`` in
    that trial.

    Trials are transposed in chunks of about ``_TRANSPOSE_BITS`` stream
    bits (at least 64 trials), each drawn by one ``_splitmix64_block``
    call.  In a chunk, trials ``8g .. 8g+7`` are the 8 rows of group ``g``;
    a row's bytes in every group are strided byte slices of the stream,
    shifted by the row's sub-byte offset through translate tables and
    joined into one int per row, so the chunk is never one int.  Byte
    ``q*groups + g`` of row ``r`` holds wires ``8q .. 8q+7`` of trial
    ``8g + r``; ``_transpose_planes8`` transposes every such byte lane
    across the eight rows at once, and wire ``8q + b``'s column piece is
    then the contiguous slice ``q*groups .. (q+1)*groups`` of plane ``b``.
    So the Python-level work is linear in the wires per chunk, with no
    loop over trials, and the time is linear in ``trials``.

    Each column is written in place into a byte buffer of its final size
    and swapped for its int at the end.  Apart from the columns, the extra
    memory is about two chunks (2 MiB each, or 64 trials' worth above
    2**18 wires): the stream and the rows while a chunk is cut, then the
    rows and their planes, with byte masks and temporaries of an eighth
    of a chunk each.  The swap costs more than one column: at the cap, RSS
    went from 144.5 MB before it to a peak of 189.5 MB with 7 free wires
    (18.3 MB columns, about 2.5 columns more) and from 150.1 to 157.4 MB
    with 64 (2 MB columns); with 2049 free wires the peak, 153.5 MB, stayed
    that of the chunks (VmRSS and VmHWM of ``/proc/self/status``, CPython
    3.11, glibc).
    """
    cols = [0] * circuit.wire_count
    width = len(free)
    if width == 0:
        return cols
    # A multiple of 64 trials keeps every chunk word- and byte-aligned.
    step = max(64, _TRANSPOSE_BITS // width // 64 * 64)
    row_bytes = (width + 7) // 8
    bufs = [bytearray((trials + 7) // 8) for _ in free]
    for first in range(0, trials, step):
        n = min(step, trials - first)
        groups = (n + 7) // 8
        span = groups * width
        stream = _splitmix64_block(seed, first * width // 64, -(-n * width // 64))
        # Rows read up to one byte past the last group's span; from the
        # span on, every byte is zero and lands only in wires past the last.
        del stream[span:]
        stream += bytes(span + 1 - len(stream))
        # Row r of group g starts at bit s of byte g*width + o, for o, s =
        # divmod(r*width, 8), so its byte q is byte o + q shifted down by s
        # or-ed with byte o + q + 1 shifted up by 8 - s.  Joined, the strided
        # lanes at o .. o + row_bytes hold the low bytes from offset 0 and
        # the high ones from offset ``groups``.  A row's last byte also
        # holds bits of the next row, which land only in wires past the last.
        size = row_bytes * groups
        rows = []
        for r in range(8):
            o, s = divmod(r * width, 8)
            lanes = b"".join([stream[o + q : o + q + span : width] for q in range(row_bytes + 1)])
            down, up = _BYTE_SHIFTS[s]
            lo = int.from_bytes(lanes[:size].translate(down), "little")
            hi = int.from_bytes(lanes[groups:].translate(up), "little")
            rows.append(lo | hi)
        del stream, lanes
        planes = _transpose_planes8(rows, size)
        del rows
        at = first // 8
        for j, buf in enumerate(bufs):
            q, b = divmod(j, 8)
            buf[at : at + groups] = planes[b][q * groups : (q + 1) * groups]
        del planes  # before the next chunk's stream, or the final peak grows
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
    Ancilla entries are never read.  Returns the data-wire entries in order
    as exact ints: ``operator.index`` copies a subclass's value without
    calling any of its methods, so none of them can decide a verdict."""
    if len(result) != wire_count:
        raise ValueError(f"oracle returned {len(result)} entries for {wire_count} wires")
    values = [result[w] for w in data_wires]
    if {*map(type, values)} - {int}:
        values = [operator.index(v) if isinstance(v, int) else v for v in values]
    elif bits == 1 and {*values} <= {0, 1}:
        return values  # exact bits, decided in C; the loop below names a bad entry
    for w, v in zip(data_wires, values):
        if type(v) is not int or v < 0 or v >> bits:
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
    chunks: Iterable[tuple[list[int], int]],
    packed_oracle: PackedOracle,
    seed: int | None,
) -> VerifyReport:
    """The one check loop of a request: run ``circuit`` on each chunk of
    packed input columns, ``(in_cols, n_cases)``, and diff its data wires
    with the oracle's.  The report counts the cases of every chunk, and its
    failures and ancilla violations are those of the earliest cases, in
    order, up to ``MAX_RECORDED_FAILURES`` each.  The ancilla rule lives
    here only: every ancilla output must be 0, the oracle's ancilla entries
    are never read, and a failure records 0 as each ancilla's expected bit.

    ``_check_result`` hands back the oracle's data-wire columns as exact
    ints, so one list comparison decides a chunk, and the XOR diff that
    locates its failing cases is built only when some column differs.  On
    a passing chunk of 2**16 cases that saves an 8 KiB XOR per wire."""
    wc = circuit.wire_count
    data_wires = [w for w in range(wc) if w not in circuit.ancilla]
    total = 0
    failures: list[tuple] = []
    violations: list[tuple] = []
    for in_cols, n_cases in chunks:
        total += n_cases
        out_cols = run_packed(circuit, in_cols, n_cases)
        expected = _check_result(packed_oracle(list(in_cols), n_cases), data_wires, wc, n_cases)
        diff = 0
        if [out_cols[w] for w in data_wires] != expected:
            for w, v in zip(data_wires, expected):
                diff |= v ^ out_cols[w]
        viol = 0
        for w in circuit.ancilla:
            viol |= out_cols[w]
        failed = _iter_set_bits(diff, MAX_RECORDED_FAILURES - len(failures))
        violated = _iter_set_bits(viol, MAX_RECORDED_FAILURES - len(violations))
        if failed or violated:
            exp_cols = [0] * wc
            for w, v in zip(data_wires, expected):
                exp_cols[w] = v
            bufs = [
                [_column_bytes(c, n_cases) for c in cols] for cols in (in_cols, exp_cols, out_cols)
            ]
            failures += [tuple(tuple(_case_bits(b, case, wc)) for b in bufs) for case in failed]
            violations += [tuple(_case_bits(bufs[0], case, wc)) for case in violated]
            del exp_cols, bufs
        # This chunk's columns, and a failing chunk's buffers above, are
        # freed before the next chunk's run builds its own.
        del out_cols, expected
    return VerifyReport(total, tuple(failures), tuple(violations), seed)


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
    # the kernel's mask, and every column a NOT touches, is trials bits long,
    # also in a run with no free wire
    columns = max(width, 1)
    if trials * columns > RANDOM_INPUT_BIT_CAP:
        raise ValueError(
            f"{_shown(trials)} trials x {columns} columns exceed the seeded input "
            f"cap of {RANDOM_INPUT_BIT_CAP} bits"
        )


def _resolve_free(circuit: Circuit, free_wires: Iterable[int] | None) -> list[int]:
    if free_wires is None:
        return [w for w in range(circuit.wire_count) if w not in circuit.ancilla]
    free = sorted(_check_wires(free_wires))
    for w in free:
        if w >= circuit.wire_count:
            raise ValueError(f"free wire {_shown(w)} out of range")
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

    Case ``c`` sets free wire ``i`` to bit ``i`` of ``c``.  The cases run in
    chunks of ``_EXHAUSTIVE_CHUNK_CASES`` (2**16, 8 KiB per column), all
    through one ``_check_columns`` loop: the low 16 free wires take one
    truth table that every chunk shares, and each higher free wire is
    constant in a chunk.  The report is the one a single pass over all
    cases would give, and every chunk's oracle result is checked, also once
    the report is full.  At the cap of 2**24 cases, the fan-out tree t = 23, f = 2 is
    checked in 32 ms in process (44 ms when every chunk built its diff),
    and ``qadd verify --kind fanout-tree --t 23 --f 2 --exhaustive`` took
    0.16 s (0.20 s) and peaked at 18 MB RSS, most of it start-up and
    compiling the package; one chunk of 2 MiB columns took 0.29 s and 170
    MB.  Each chunk walks every gate, so a circuit of many gates with few
    free wires pays the per-gate cost once per chunk: combined n = 1024
    with 22 free wires took 2.5 s and 35 MB, against 2.0 s and 1.2 GB in
    one chunk.

    ``packed_oracle=`` is the fast path: one call per chunk computes every
    case's expected columns.  A per-case ``oracle=`` costs one Python call
    and one ``_case_bits`` read, one byte from every input column, per
    case: on ripple n = 256, 64 000 seeded trials took about 10-11 s that
    way and 0.4 s with the packed oracle.  This holds for ``verify_random``
    too.  (Timings: CPython 3.11 on one core of a 2-vCPU Xeon.)
    """
    free = _resolve_free(circuit, free_wires)
    _check_exhaustive_request(len(free))
    packed_oracle = _one_oracle(circuit, oracle, packed_oracle)
    bits = _EXHAUSTIVE_CHUNK_CASES.bit_length() - 1
    low, high = free[:bits], free[bits:]
    n_cases = 1 << len(low)
    low_cols = _enumeration_columns(circuit, low)
    ones = (1 << n_cases) - 1

    def chunks() -> Iterator[tuple[list[int], int]]:
        # Chunk j holds cases j * n_cases .. (j + 1) * n_cases - 1, so bit i
        # of j is the value of high[i] in all of them.
        for j in range(1 << len(high)):
            cols = list(low_cols)
            for i, w in enumerate(high):
                cols[w] = ones if j >> i & 1 else 0
            yield cols, n_cases

    return _check_columns(circuit, chunks(), packed_oracle, None)


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
    input columns is about two chunks of 2**24 stream bits (at least 64
    trials each), and up to about 2.5 columns while the columns become ints
    (45 MB over 18.3 MB columns at the cap with 7 free wires; see
    ``_random_columns``).  ``trials * len(free wires)``, counting at
    least one wire, is capped at ``RANDOM_INPUT_BIT_CAP``; larger requests
    raise ``ValueError``.  At the cap, generating the inputs took 2.2-3.2 s
    (median 2.3 s) and peaked at 153-190 MB RSS for 128 MiB of columns (7,
    64 and 2049 free wires, CPython 3.11 on a 2-vCPU Xeon).  Pass exactly one of ``oracle=`` and
    ``packed_oracle=``.  The free wires, ``trials``, ``seed``, the cap and
    the oracle pair are all checked, in that order, before any input is
    generated.  ``packed_oracle=`` is the fast path; ``verify_exhaustive``
    states what a per-case ``oracle=`` costs.
    """
    free = _resolve_free(circuit, free_wires)
    _check_random_request(trials, len(free), seed)
    packed_oracle = _one_oracle(circuit, oracle, packed_oracle)
    cols = _random_columns(circuit, free, trials, seed)
    return _check_columns(circuit, [(cols, trials)], packed_oracle, seed)
