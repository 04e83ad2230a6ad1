"""The fan-out request rule: one check for the tree's builder, its synthesizer
and its oracle, made before any gate exists."""

import hashlib
from itertools import repeat

import pytest

from peak_memory import child_peak_mb
from qadd import WIRE_CAP, Circuit, export_netlist, synth_fanout_tree
from qadd.fanout import fanout_tree_gates
from qadd.oracles import fanout_oracle


def test_trees_are_pinned_across_sizes_and_bounds():
    # One sha256 over the netlists and gate lists below pins every tree's
    # gates and their order.
    digest = hashlib.sha256()
    for t in (*range(1, 41), 4096):
        for f in (1, 2, 3, 4, 5, 6, 16):
            digest.update(export_netlist(synth_fanout_tree(0, range(1, t + 1), f)).encode())
            digest.update(repr(fanout_tree_gates(7, range(100, 100 + t), f)).encode())
    assert digest.hexdigest() == (
        "d9e2081fe47bf2fa802c18e9721c211309157d913c6e5717e1e55d7ac46b4eaa"
    )


@pytest.fixture
def no_gates(monkeypatch):
    """Make building any gate of the tree raise."""

    def building(*args):
        raise AssertionError("built a gate before the request was checked")

    monkeypatch.setattr("qadd.fanout._fo", building)
    monkeypatch.setattr("qadd.fanout._cx", building)


@pytest.mark.parametrize(
    "call",
    [
        lambda: synth_fanout_tree(0, range(1, WIRE_CAP + 1), 2),
        lambda: synth_fanout_tree(10**18, [0], 2),
    ],
)
def test_over_cap_tree_is_refused_before_any_gate(no_gates, call):
    with pytest.raises(ValueError, match=f"cap {WIRE_CAP}"):
        call()


def test_a_request_longer_than_sys_maxsize_is_refused_at_the_cap(no_gates):
    # the synthesizer reads at most WIRE_CAP targets, and a WIRE_CAP-target
    # request is over the cap already
    with pytest.raises(ValueError, match=f"cap {WIRE_CAP}"):
        synth_fanout_tree(0, range(1, 2**63 + 1), 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fanout_tree_gates(0, range(1, 2**63 + 1), 2),
        lambda: fanout_oracle(Circuit(3), 0, range(1, 2**63 + 1)),
    ],
    ids=["gates", "oracle"],
)
def test_a_request_longer_than_sys_maxsize_raises_value_error(no_gates, call):
    with pytest.raises(ValueError, match=f"cap {WIRE_CAP}"):
        call()


def test_the_synthesizer_reads_no_target_past_the_cap(no_gates):
    def targets():
        yield from repeat(1, WIRE_CAP)
        raise AssertionError("read target WIRE_CAP + 1")

    with pytest.raises(ValueError, match=f"cap {WIRE_CAP}"):
        synth_fanout_tree(0, targets(), 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: synth_fanout_tree(0, [1, 1], 0), "pairwise distinct"),
        (lambda: synth_fanout_tree(0, [], 0), "need at least one target"),
        (lambda: synth_fanout_tree(WIRE_CAP, [1], 0), "need an int f >= 1"),
    ],
)
def test_tree_checks_its_targets_then_f_then_its_wire_count(no_gates, call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("targets", [[], iter([]), ()], ids=["list", "iterator", "tuple"])
def test_fanout_oracle_refuses_an_empty_target_list_as_the_builder_does(targets):
    c = synth_fanout_tree(0, [1, 2], 2)
    with pytest.raises(ValueError, match="^need at least one target$"):
        fanout_oracle(c, 0, targets)


def test_over_cap_fanout_refusal_stays_small():
    # A WIRE_CAP-target request needs WIRE_CAP + 1 wires.  The read bound
    # lists at most WIRE_CAP + 1 ids and refuses them from their count, so
    # no set of the ids and no tree is built (that took 401 MB).
    code = (
        "import qadd\n"
        "try:\n"
        "    qadd.synth_fanout_tree(0, range(1, qadd.WIRE_CAP + 1), 2)\n"
        "except ValueError as err:\n"
        "    assert f'cap {qadd.WIRE_CAP}' in str(err), err\n"
        "else:\n"
        "    raise SystemExit('not refused')\n"
    )
    peak_mb = child_peak_mb(code)
    assert peak_mb < 256, f"{peak_mb:.0f} MB peak RSS"
