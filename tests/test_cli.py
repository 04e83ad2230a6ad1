import json
from pathlib import Path

import pytest

import qadd.cli as cli
from qadd import WIRE_CAP, parse_netlist, ripple_closed_forms, synth_ripple, verify_exhaustive
from qadd.blocked import combined_closed_forms
from qadd.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,code",
    [
        (["stats", "--kind", "ripple", "--n", "3"], 0),
        (["verify", "--kind", "ripple", "--n", "3", "--trials", "0"], 2),
    ],
    ids=["ok", "refused"],
)
def test_main_exits_with_the_dispatch_code(monkeypatch, argv, code):
    # main is what the console script runs: dispatch on sys.argv, then exit
    monkeypatch.setattr(cli.sys, "argv", ["qadd", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == code


def test_help_states_the_exit_codes_the_readme_gives():
    # qadd --help prints the module docstring; dispatch exits 2 on every
    # refused request, not only on invalid flags
    readme = " ".join((ROOT / "README.md").read_text().split())
    codes = readme[readme.index("Exit codes: 0 success") :].split(". ")[0]
    assert codes.endswith("a `NetlistError`, or a file that cannot be opened")
    assert codes in " ".join(cli.build_parser().description.split())


def test_synth_to_file_then_stats(tmp_path, capsys):
    path = tmp_path / "add5.qn"
    code, out, _ = run_cli(capsys, "synth", "--kind", "ripple", "--n", "5", "-o", str(path))
    assert code == 0 and out == ""
    circuit = parse_netlist(path.read_text())
    assert circuit.wire_count == 11

    code, out, _ = run_cli(capsys, "stats", str(path), "--json")
    assert code == 0
    stats = json.loads(out)
    assert stats["depth"] == 22 and stats["size"] == 29


def test_synth_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "synth", "--kind", "fanout-tree", "--t", "8", "--f", "2")
    assert code == 0
    assert out.startswith("qadd 1\n")
    assert parse_netlist(out).wire_count == 9


def test_stats_asserts_ripple_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "stats", "--kind", "ripple", "--n", "5")
    assert code == 0
    assert "depth 22" in out and "size 29" in out


def test_verify_exhaustive_combined(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "combined", "--n", "8", "--d", "2", "--exhaustive"
    )
    assert code == 0
    assert "failures 0" in out and "131072" in out


def test_verify_random_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "ripple", "--n", "32", "--trials", "50",
        "--seed", "42", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_cases"] == 50 and payload["seed"] == 42
    assert payload["failures"] == [] and payload["ancilla_violations"] == []


def test_verify_defaults_to_exhaustive_when_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "ripple", "--n", "4")
    assert code == 0 and "[exhaustive]" in out and "cases 512" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    import qadd.cli as cli

    def wrong_oracle(circuit):
        def packed(cols, n_cases):
            out = list(cols)
            out[0] ^= (1 << n_cases) - 1  # flip one output wire everywhere
            return out

        return None, packed

    monkeypatch.setattr(cli, "adder_oracle", wrong_oracle)
    code, out, _ = run_cli(capsys, "verify", "--kind", "ripple", "--n", "3")
    assert code == 1
    assert "failures 0" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--kind", "ripple"),  # missing --n
        ("synth", "--kind", "ripple", "--n", "5", "--d", "2"),  # stray flag
        ("synth", "--kind", "combined", "--n", "16"),  # missing --d
        ("synth", "--kind", "fanout-tree", "--t", "4"),  # missing --f
        ("synth", "--n", "4"),  # missing --kind
        ("estimate", "--target", "shor-dlog"),  # missing --n
        ("estimate", "--target", "adder-fanout", "--n", "64", "--e", "5"),  # missing --f
        ("estimate", "--target", "adder-fanout", "--n", "64", "--e", "5", "--f", "4", "--adder", "ripple"),
        ("verify", "--kind", "combined", "--n", "12", "--d", "2"),  # invalid n
        ("nonsense",),
        ("synth", "--kind", "ripple", "--n", "x"),
        # estimates too large for a float, or with an infinite depth
        ("estimate", "--target", "adder-fanout", "--n", "9" * 400, "--e", "5", "--f", "2"),
        ("estimate", "--target", "adder-fanout", "--n", "64", "--e", "9" * 400, "--f", "2"),
        ("estimate", "--target", "shor-dlog", "--n", "9" * 400),
        ("estimate", "--target", "shor-dlog", "--n", "4" + "0" * 102),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err


def test_stats_rejects_both_file_and_kind(tmp_path, capsys):
    path = tmp_path / "c.qn"
    run_cli(capsys, "synth", "--kind", "ripple", "--n", "3", "-o", str(path))
    code, _, err = run_cli(capsys, "stats", str(path), "--kind", "ripple", "--n", "3")
    assert code == 2 and "not both" in err
    # the other kind flags are refused too, not ignored
    for flags in (["--n", "99", "--d", "7"], ["--n", "3"], ["--d", "2"], ["--t", "4"], ["--f", "2"]):
        code, _, err = run_cli(capsys, "stats", str(path), *flags)
        assert code == 2 and "not both" in err and flags[0] in err


def test_estimate_shor_ripple(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--target", "shor-dlog", "--n", "256", "--adder", "ripple", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["qubits_total"] == 1024
    assert payload["formula_id"] == "shor-dlog+ripple"


def test_estimate_adder_fanout(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--target", "adder-fanout", "--n", "65536", "--e", "4",
        "--f", "16", "--json",
    )
    assert code == 0
    assert json.loads(out)["ancilla"] == 49152


def test_byte_identical_reruns(capsys):
    argv = ("verify", "--kind", "combined", "--n", "16", "--d", "4", "--seed", "42", "--json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    argv = ("estimate", "--target", "shor-dlog", "--n", "64", "--adder", "combined", "--d", "6", "--json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_verify_rejects_trials_above_input_cap(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--kind", "ripple", "--n", "16", "--trials", str(10**12)
    )
    assert code == 2
    assert "cap" in err and not out


def _forbid_synthesis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("synthesis ran for an oversized request")

    for name in ("synth_ripple", "synth_combined", "synth_fanout_tree"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("command", ["synth", "verify", "stats"])
@pytest.mark.parametrize(
    "flags",
    [
        ("--kind", "ripple", "--n", str(WIRE_CAP // 2)),  # 2n+1 wires
        ("--kind", "combined", "--n", str(1 << 40), "--d", "4"),
        ("--kind", "fanout-tree", "--t", str(WIRE_CAP), "--f", "2"),  # t+1 wires
        ("--kind", "fanout-tree", "--t", str(10**18), "--f", "2"),
    ],
)
def test_oversized_kind_is_rejected_before_synthesis(capsys, monkeypatch, command, flags):
    _forbid_synthesis(monkeypatch)
    code, out, err = run_cli(capsys, command, *flags)
    assert code == 2
    assert "cap" in err and not out


@pytest.mark.parametrize(
    "flags",
    [
        ("--kind", "ripple", "--n", "100000", "--trials", str(10**12)),
        ("--kind", "combined", "--n", "4096", "--d", "12", "--trials", str(10**6)),
        ("--kind", "fanout-tree", "--t", "4096", "--f", "4", "--trials", str(10**6)),
        ("--kind", "ripple", "--n", "16", "--trials", "0"),
        ("--kind", "ripple", "--n", "12", "--exhaustive"),  # 25 free wires
        ("--kind", "ripple", "--n", "3", "--trials", "0"),  # exhaustive by default
        ("--kind", "ripple", "--n", "3", "--trials", "-7", "--exhaustive"),
    ],
)
def test_verify_checks_input_size_before_synthesis(capsys, monkeypatch, flags):
    _forbid_synthesis(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == 2
    assert err and not out


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--kind", "ripple", "--n", "3"),
        ("synth", "--kind", "fanout-tree", "--t", "5", "--f", "2"),
        ("stats", "--kind", "combined", "--n", "8", "--d", "2"),
        ("stats", "--kind", "fanout-tree", "--t", "5", "--f", "2"),
    ],
)
def test_synth_and_stats_build_no_oracle(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle was built outside verify")

    for name in ("adder_oracle", "fanout_oracle"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


def test_verify_exhaustive_cap_message_matches_sim(capsys):
    with pytest.raises(ValueError) as err:
        verify_exhaustive(synth_ripple(12))  # 25 free wires
    code, out, stderr = run_cli(capsys, "verify", "--kind", "ripple", "--n", "12", "--exhaustive")
    assert code == 2 and not out
    assert stderr == f"error: {err.value}\n"


def test_largest_allowed_kind_passes_the_wire_check():
    args = cli.build_parser().parse_args(["synth", "--kind", "ripple", "--n", str(WIRE_CAP // 2 - 1)])
    assert cli._data_wires(args) == WIRE_CAP - 1


def test_stats_rejects_oversized_netlist(tmp_path, capsys):
    path = tmp_path / "huge.qn"
    path.write_text("qadd 1\nqubits 20000000\nancilla\ncx 0 1\n")
    code, out, err = run_cli(capsys, "stats", str(path))
    assert code == 2
    assert "line 2" in err and "cap" in err and not out


def test_stats_checks_ripple_closed_forms_at_1024(capsys):
    code, out, err = run_cli(capsys, "stats", "--kind", "ripple", "--n", "1024", "--json")
    assert code == 0 and not err
    assert json.loads(out)["size"] == 7 * 1024 - 6


def test_estimate_combined_n_off_a_power_of_two_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "estimate", "--target", "shor-dlog", "--n", "12", "--adder", "combined", "--d", "2"
    )
    assert code == 2 and not out
    assert "power of two" in err


@pytest.mark.parametrize(
    "flags,unread",
    [
        (("--adder", "ripple", "--d", "3"), "d"),
        (("--f", "4"), "f"),  # the default adder is ripple
        (("--adder", "combined", "--d", "2", "--e", "8"), "e"),
        (("--adder", "fanout", "--e", "8", "--f", "4", "--d", "3"), "d"),
    ],
)
def test_estimate_rejects_a_flag_the_adder_does_not_read(capsys, flags, unread):
    code, out, err = run_cli(capsys, "estimate", "--target", "shor-dlog", "--n", "16", *flags, "--json")
    assert code == 2 and not out
    assert f"does not take {unread}" in err


# A valid value for each kind flag a kind requires.
KIND_FLAGS = {
    "ripple": {"n": "3"},
    "combined": {"n": "8", "d": "2"},
    "fanout-tree": {"t": "5", "f": "2"},
}


def _kind_argv(kind, flags):
    return ["--kind", kind, *(arg for name, value in flags.items() for arg in (f"--{name}", value))]


# The builder and oracle factory each kind's record calls, by their names in cli.
KIND_NAMES = {
    "ripple": ("synth_ripple", "adder_oracle"),
    "combined": ("synth_combined", "adder_oracle"),
    "fanout-tree": ("synth_fanout_tree", "fanout_oracle"),
}

# The closed forms each adder kind's record calls for stats, by their names in cli.
CLOSED_FORMS = {"ripple": "ripple_closed_forms", "combined": "combined_closed_forms"}


@pytest.mark.parametrize("command", ["synth", "verify", "stats"])
@pytest.mark.parametrize("kind", list(cli._KINDS))
def test_each_kind_looks_up_its_functions_when_it_runs(capsys, monkeypatch, command, kind):
    # A name rebound on cli after import (here, or by the benchmark's tracer
    # in its CLI child) must be the one called: a record that kept the
    # function objects it saw at import would skip every recorder below.
    builder, oracle = KIND_NAMES[kind]
    names = [builder]
    if command == "verify":
        names.append(oracle)
    if command == "stats" and kind in CLOSED_FORMS:
        names.append(CLOSED_FORMS[kind])
    calls = []

    def recorder(name):
        original = getattr(cli, name)

        def record(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return record

    for name in names:
        monkeypatch.setattr(cli, name, recorder(name))
    code, out, _ = run_cli(capsys, command, *_kind_argv(kind, KIND_FLAGS[kind]))
    assert code == 0 and out
    assert calls == names


@pytest.mark.parametrize("command", ["synth", "verify", "stats"])
@pytest.mark.parametrize(
    "kind,flag,required",
    [(kind, flag, flag in flags) for kind, flags in KIND_FLAGS.items() for flag in "ndtf"],
)
def test_each_kind_requires_its_flags_and_refuses_the_others(
    capsys, monkeypatch, command, kind, flag, required
):
    _forbid_synthesis(monkeypatch)
    flags = dict(KIND_FLAGS[kind])
    if required:
        del flags[flag]
        message = f"error: --kind {kind} requires --{flag}\n"
    else:
        flags[flag] = "2"
        message = f"error: --kind {kind} does not take --{flag}\n"
    code, out, err = run_cli(capsys, command, *_kind_argv(kind, flags))
    assert code == 2 and not out
    assert err.startswith(message)


def test_verify_fanout_tree_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "fanout-tree", "--t", "7", "--f", "2")
    assert code == 0
    assert out == (
        "verify fanout-tree [exhaustive]: cases 256  failures 0  ancilla-violations 0  seed -\n"
    )


def test_verify_fanout_tree_random_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "fanout-tree", "--t", "1024", "--f", "16", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["total_cases"], payload["seed"]) == (1000, 42)
    assert payload["failures"] == [] and payload["ancilla_violations"] == []


def test_verify_fanout_tree_failure_exits_one(capsys, monkeypatch):
    def wrong_oracle(circuit, source, targets):
        def packed(cols, n_cases):
            return list(cols)  # models no fan-out at all

        return None, packed

    monkeypatch.setattr(cli, "fanout_oracle", wrong_oracle)
    code, out, _ = run_cli(capsys, "verify", "--kind", "fanout-tree", "--t", "7", "--f", "2")
    assert code == 1
    assert "failures 0" not in out


def test_estimate_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--target", "adder-fanout", "--n", "65536", "--e", "4", "--f", "16"
    )
    assert code == 0
    assert out == (
        "formula adder-fanout\nqubits_total 180225\nancilla 49152\ndepth 4\nsize 65536\n"
    )
    code, out, _ = run_cli(capsys, "estimate", "--target", "shor-dlog", "--n", "16")
    assert code == 0
    assert out == "formula shor-dlog+ripple\nqubits_total 64\nancilla 0\ndepth 19712\nsize 4096\n"


def test_stats_reports_a_ripple_closed_form_mismatch(capsys, monkeypatch):
    def off_by_one(n):
        forms = ripple_closed_forms(n)
        forms["size"] += 1
        return forms

    monkeypatch.setattr(cli, "ripple_closed_forms", off_by_one)
    code, out, err = run_cli(capsys, "stats", "--kind", "ripple", "--n", "5")
    assert code == 1
    assert "size 29" in out
    assert err == "closed-form mismatch: size = 29, expected 30\n"


def test_stats_reports_a_combined_closed_form_mismatch(capsys, monkeypatch):
    code, expected_out, _ = run_cli(capsys, "stats", "--kind", "combined", "--n", "8", "--d", "2")
    assert code == 0

    def off_by_one(params):
        forms = combined_closed_forms(params)
        forms["size"] += 1
        return forms

    monkeypatch.setattr(cli, "combined_closed_forms", off_by_one)
    code, out, err = run_cli(capsys, "stats", "--kind", "combined", "--n", "8", "--d", "2")
    assert code == 1
    assert out == expected_out and "size 129" in out
    assert err == "closed-form mismatch: size = 129, expected 130\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kind", "ripple", "--n", "3"],
        ["verify", "--kind", "ripple", "--n", "11", "--trials", "50", "--seed", "7"],
        ["stats", "--kind", "combined", "--n", "8", "--d", "2"],
        ["stats", "--kind", "fanout-tree", "--t", "9", "--f", "3"],
        ["estimate", "--target", "adder-fanout", "--n", "64", "--e", "4", "--f", "4"],
        ["estimate", "--target", "shor-dlog", "--n", "16", "--adder", "combined", "--d", "2"],
    ],
    ids=["verify-exhaustive", "verify-random", "stats-combined", "stats-fanout",
         "estimate-adder-fanout", "estimate-shor-dlog"],
)
def test_output_file_holds_exactly_the_stdout_bytes(tmp_path, capsys, argv, json_flag):
    code, out, err = run_cli(capsys, *argv, *json_flag)
    assert code == 0 and out
    path = tmp_path / "out"
    assert run_cli(capsys, *argv, *json_flag, "-o", str(path)) == (code, "", err)
    assert path.read_bytes() == out.encode()
    if json_flag:
        json.loads(out)
    else:
        assert not out.lstrip().startswith("{")


def test_output_file_of_a_failing_check_holds_the_stdout_bytes(tmp_path, capsys, monkeypatch):
    def off_by_one(n):
        forms = ripple_closed_forms(n)
        forms["size"] += 1
        return forms

    monkeypatch.setattr(cli, "ripple_closed_forms", off_by_one)
    for json_flag in ([], ["--json"]):
        argv = ["stats", "--kind", "ripple", "--n", "5", *json_flag]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err == "closed-form mismatch: size = 29, expected 30\n"
        path = tmp_path / f"out{len(json_flag)}"
        assert run_cli(capsys, *argv, "-o", str(path)) == (1, "", err)
        assert path.read_bytes() == out.encode()
