"""Roles are registers, not labels.

A circuit holds each role register as ``{index: wire}`` under its prefix and
every other role label whole.  A label is read once, by
``circuit._read_labels``, where a circuit is built from labels
(``Circuit(..., role_map=...)`` and ``parse_netlist``), and ``role_map``
writes the labels back.  The oracle factories and ``interleaved_layout``
read the registers, so they are checked against ``reference_register``,
``reference_operands`` and ``reference_layout``: the label reading they
used, which inverted the role map, formatted each index to look it up, and
compared every label of the register as a digit string for the gap rule.
The synthesizers hand over the registers they built and read no label, and
one digest pins the netlists they write.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadd import (
    BlockParams,
    Circuit,
    compute_stats,
    export_netlist,
    interleaved_layout,
    parse_netlist,
    synth_carry,
    synth_combined,
    synth_fanout_tree,
    synth_init,
    synth_ripple,
    synth_sum,
)
from qadd import blocked, circuit, fanout, netlist, oracles, ripple
from qadd.oracles import (
    adder_oracle,
    carry_fold_oracle,
    fanout_oracle,
    first_half_oracle,
    init_oracle,
    sum_oracle,
)
from test_gate import _valid_depths

PREFIXES = ["", "A", "B", "C", "G", "P", "S", "Z", "BB", "B1x"]
INDEX_FORMS = ["canonical", "zero-padded", "8-digit", "5000-digit", "missing"]


def reference_register(by_role, prefix, start=0):
    """Wires labelled ``{prefix}{start}``, ``{prefix}{start + 1}``, ... up to
    the first gap; a label of the register past the gap (``prefix``, then
    ASCII digits of a larger value) raises ``KeyError`` naming the missing
    label.  Indices are compared as digit strings."""
    out = []
    i = start
    while f"{prefix}{i}" in by_role:
        out.append(by_role[f"{prefix}{i}"])
        i += 1
    gap = str(i)
    for label in by_role:
        digits = label[len(prefix) :].lstrip("0")
        if label.startswith(prefix) and digits.isascii() and digits.isdigit():
            if (len(digits), digits) > (len(gap), gap):
                raise KeyError(f"{prefix}{i}")
    return out


def reference_operands(by_role):
    b, a = reference_register(by_role, "B"), reference_register(by_role, "A")
    if len(b) != len(a):
        raise KeyError(f"A{len(a)}" if len(a) < len(b) else f"B{len(b)}")
    return b, a


def reference_roles(circuit, factory):
    """The labels of the wires ``factory`` reads, by the label reading it used,
    written canonically: a role map that no reader can read two ways."""
    by_role = circuit.wires_by_role()
    if factory is carry_fold_oracle:
        g = reference_register(by_role, "G")
        p = reference_register(by_role, "P", 1)
        if not g:
            raise KeyError("G0")
        if len(p) + 1 < len(g):
            raise KeyError(f"P{len(p) + 1}")
        return {**{w: f"G{j}" for j, w in enumerate(g)}, **{w: f"P{i}" for i, w in enumerate(p, 1)}}
    b, a = reference_operands(by_role)
    roles = {**{w: f"B{i}" for i, w in enumerate(b)}, **{w: f"A{i}" for i, w in enumerate(a)}}
    names = {adder_oracle: "Z", first_half_oracle: "Z", init_oracle: "GP", sum_oracle: ""}
    for name in names[factory]:
        roles[by_role[name]] = name
    if factory is sum_oracle and "C" in by_role:
        roles[by_role["C"]] = "C"
    return roles


def reference_layout(circuit):
    """``interleaved_layout`` as it read labels: B_i at 2i, A_i at 2i+1, Z at 2n."""
    by_role = circuit.wires_by_role()
    if not by_role or "Z" not in by_role:
        raise ValueError("circuit has no B/A/Z role map")
    n = (circuit.wire_count - 1) // 2
    if circuit.wire_count != 2 * n + 1:
        raise ValueError("interleaved layout needs 2n+1 wires")
    labels = [f"{prefix}{i}" for i in range(n) for prefix in "BA"] + ["Z"]
    try:
        return {by_role[labels[pos]]: pos for pos in range(2 * n + 1)}
    except KeyError as exc:
        raise ValueError(f"circuit has no role label {exc.args[0]}") from None


def outcome(call, *args):
    """A call's result, or the type and text of what it raised."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return type(exc), str(exc)


@st.composite
def indexed_label(draw, prefix):
    form = draw(st.sampled_from(INDEX_FORMS))
    i = draw(st.integers(0, 9))
    if form == "canonical":
        return f"{prefix}{i}"
    if form == "zero-padded":
        return f"{prefix}{'0' * draw(st.integers(1, 3))}{i}"
    if form == "8-digit":
        return f"{prefix}{draw(st.integers(10**7, 10**8 - 1))}"
    if form == "5000-digit":
        return prefix + draw(st.sampled_from(["9" * 5000, "0" * 4999 + str(i), "1" + "0" * 4999]))
    return prefix


@st.composite
def role_maps(draw):
    """A wire count and a role map: registers from index 0 with holes, plus
    labels of every index form, on shuffled wires."""
    labels = set()
    for prefix in draw(st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=6, unique=True)):
        holes = draw(st.sets(st.integers(0, 5), max_size=2))
        labels.update(f"{prefix}{i}" for i in range(draw(st.integers(0, 5))) if i not in holes)
        labels.update(draw(st.lists(indexed_label(prefix), max_size=2)))
    labels = sorted(labels - {""})
    wires = draw(st.permutations(range(len(labels) + draw(st.integers(0, 2)))))
    return max(len(wires), 1), dict(zip(wires, labels))


FACTORIES = [adder_oracle, first_half_oracle, init_oracle, sum_oracle, carry_fold_oracle]


@settings(max_examples=300, deadline=None)
@given(role_maps(), st.randoms(use_true_random=False))
def test_registers_agree_with_the_label_reading(drawn, rnd):
    wire_count, roles = drawn
    c = Circuit(wire_count, role_map=roles)
    assert c.role_map == roles
    parsed = parse_netlist(export_netlist(c))
    assert parsed == c and parsed.role_map == roles
    assert c.inverse() == c and c.inverse().role_map == roles

    by_role = {label: w for w, label in roles.items()}
    for prefix in PREFIXES:
        for start in (0, 1):
            assert outcome(circuit._register, c, prefix, start) == outcome(
                reference_register, by_role, prefix, start
            )
    assert outcome(circuit._operands, c) == outcome(reference_operands, by_role)
    assert outcome(interleaved_layout, c) == outcome(reference_layout, c)

    cols = [rnd.getrandbits(16) for _ in range(wire_count)]
    for factory in FACTORIES:
        got = outcome(factory, c)
        want = outcome(reference_roles, c, factory)
        if want[0] != "ok":
            assert got == want, factory.__name__
            continue
        assert got[0] == "ok", (factory.__name__, got)
        _, packed = factory(Circuit(wire_count, role_map=want[1]))
        assert outcome(got[1][1], cols, 16) == outcome(packed, cols, 16), factory.__name__


def _synthesized():
    """Circuits of every synthesizer, each with the oracle factories that read it."""
    for n in (1, 2, 3, 17, 64):
        yield synth_ripple(n), (adder_oracle, first_half_oracle)
    for n in (8, 16, 64):
        for d in _valid_depths(n):
            yield synth_combined(BlockParams(n, d)), (adder_oracle,)
    for w in (2, 3, 8):
        yield synth_init(w), (init_oracle,)
    for w in (1, 2, 8):
        yield synth_sum(w), (sum_oracle,)
        yield synth_sum(w, with_carry_in=False), (sum_oracle,)
    for n, l in ((4, 1), (16, 1), (16, 2), (64, 3)):
        yield synth_carry(n, l), (carry_fold_oracle,)
    for t, f in ((1, 2), (7, 2), (40, 3)):
        tree = synth_fanout_tree(0, range(1, t + 1), f)
        yield tree, (lambda c, t=t: fanout_oracle(c, 0, range(1, t + 1)),)


def test_no_synthesizer_or_register_reader_reads_a_label(monkeypatch):
    def refuse(role_map):
        raise AssertionError("a role label was read")

    for module in (circuit, netlist, ripple, blocked, fanout, oracles):
        if hasattr(module, "_read_labels"):
            monkeypatch.setattr(module, "_read_labels", refuse)
    for c, factories in _synthesized():
        for factory in factories:
            factory(c)
        inv = c.inverse()
        assert inv.inverse() == c and (inv == c) == (inv.gates == c.gates)
        compute_stats(c)
        export_netlist(c)
    for n in (1, 2, 3, 64):
        assert interleaved_layout(synth_ripple(n)) == {w: w for w in range(2 * n + 1)}
    with pytest.raises(AssertionError, match="a role label was read"):
        Circuit(1, role_map={0: "Z"})


# sha256 of the concatenated ``export_netlist`` texts of the grid below,
# computed before circuits held registers: the netlists did not change.
GRID_SHA256 = "85abcfee65e0e427baef83e5c26d27aa211f5f2f32604d348f6361bb4403524d"


def _grid():
    for n in [*range(1, 65), 1023, 4095]:
        yield synth_ripple(n)
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        for d in _valid_depths(n):
            yield synth_combined(BlockParams(n, d))
    for w in range(2, 17):
        yield synth_init(w)
    for w in range(1, 17):
        yield synth_sum(w)
        yield synth_sum(w, with_carry_in=False)
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        for l in range(1, n.bit_length()):
            if n >> (l - 1) >= 4:
                yield synth_carry(n, l)


def test_the_synthesized_netlists_are_unchanged():
    digest = hashlib.sha256()
    last = text = None
    for c in _grid():
        # Depths with the same block width build equal circuits, and export
        # is canonical, so a circuit equal to the one before reuses its text.
        if c != last:
            last, text = c, export_netlist(c)
        digest.update(text.encode())
    assert digest.hexdigest() == GRID_SHA256
