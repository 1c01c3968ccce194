from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crisscross
import crisscross.cli
import crisscross.experiments
from crisscross.cli import main
from crisscross.params import Config, ConfigError, parse_config

GOOD = {
    "lambda": [1.0, 1.0],
    "mu": [2.0, 2.0, 1.0],
    "h": [1.0, 1.0, 1.0],
    "gamma": 1.0,
    "ell0": 1.2,
    "c": 3.0,
    "r_list": [3, 5],
    "seed": 7,
    "replications": 2,
    "horizon": 0.3,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOOD), encoding="utf-8")
    return str(path)


def test_simulate_writes_csv(config_path, capsys):
    assert main(["simulate", "--config", config_path, "--r", "5", "--horizon-scaled", "0.1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("epoch,Q1")
    assert len(lines) > 2


def test_simulate_scaled_views(config_path, capsys):
    for scale, marker in (("fluid", "T1"), ("diffusion", "X1")):
        assert main(["simulate", "--config", config_path, "--r", "5", "--scale", scale]) == 0
        header = capsys.readouterr().out.split("\n", 1)[0]
        assert marker in header


def test_bcp_reports_three_quantities(config_path, capsys):
    assert main(["bcp", "--config", config_path, "--dt", "0.05", "--paths", "50"]) == 0
    out = capsys.readouterr().out
    for name in ("j_star", "workload1_marginal", "workload2_marginal"):
        assert name in out


def test_thresholds_lists_each_r(config_path, capsys):
    assert main(["thresholds", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# constants theta3=")
    rows = out.strip().split("\n")
    assert rows[-2].startswith("3,") and rows[-1].startswith("5,")


def test_converge_emits_reference_line_and_runs(config_path, capsys):
    argv = ["converge", "--config", config_path, "--policies", "threshold,priority2", "--bcp-dt", "0.05", "--bcp-paths", "100"]
    with pytest.warns(UserWarning, match="below the guaranteed floor"):
        assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("# j_star mean=")
    assert len(lines) == 2 + 2 * 2  # header lines + (2 r values) x (2 policies)


def test_ld_check_table(config_path, capsys):
    assert main(["ld-check", "--config", config_path, "--t-grid", "5,10", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,empirical,bound,within"
    assert len(out.strip().splitlines()) == 3


def test_diagnostics_reports_all_keys(config_path, capsys):
    assert main(["diagnostics", "--config", config_path, "--r", "5", "--horizon-scaled", "0.3"]) == 0
    out = capsys.readouterr().out
    for key in ("collapse_sup1", "collapse_sup3", "idle_mass_Y", "product_sup", "kappa"):
        assert key in out


def test_out_flag_writes_the_same_bytes(config_path, tmp_path, capsys):
    target = tmp_path / "run.csv"
    args = ["simulate", "--config", config_path, "--r", "3", "--horizon-scaled", "0.2"]
    assert main(args + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out


@pytest.mark.parametrize(
    "command,args,target",
    [("simulate", ["--r", "5", "--horizon-scaled", "0.1"], "missing/run.csv"), ("thresholds", [], ".")],
    ids=["missing-directory", "a-directory"],
)
def test_an_out_path_that_cannot_take_a_file_exits_2_before_the_run(config_path, tmp_path, capsys, monkeypatch, command, args, target):
    calls = []
    monkeypatch.setitem(crisscross.cli._COMMANDS, command, lambda *a: calls.append(a))
    assert main([command, "--config", config_path, *args, "--out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "arguments"
    assert calls == []


def test_a_failed_run_leaves_an_existing_out_file_as_it_was(config_path, tmp_path, capsys):
    target = tmp_path / "run.csv"
    target.write_text("kept\n", encoding="utf-8")
    assert main(["bcp", "--config", config_path, "--paths", "0", "--out", str(target)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "arguments"
    assert target.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses every write")
def test_an_out_file_that_refuses_the_write_exits_2(config_path, capsys):
    assert main(["thresholds", "--config", config_path, "--out", "/dev/full"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "arguments"


def test_seed_override_changes_the_run(config_path, capsys):
    args = ["simulate", "--config", config_path, "--r", "3", "--horizon-scaled", "0.2"]
    assert main(args) == 0
    base = capsys.readouterr().out
    assert main(args + ["--seed", "8"]) == 0
    assert capsys.readouterr().out != base
    assert main(args + ["--seed", "7"]) == 0  # matches the config seed
    assert capsys.readouterr().out == base


@pytest.mark.parametrize("command,args", [("thresholds", []), ("ld-check", ["--samples", "10"])])
def test_negative_seed_override_exits_2(config_path, capsys, command, args):
    """--seed obeys the rule a config seed obeys, and the error names the flag."""
    assert main([command, "--config", config_path, "--seed", "-1", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "arguments"
    assert "--seed" in payload["detail"]


@pytest.mark.parametrize("command", ["simulate", "diagnostics"])
def test_negative_rep_exits_2_naming_it(config_path, capsys, command):
    assert main([command, "--config", config_path, "--r", "5", "--horizon-scaled", "0.1", "--rep", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "arguments"
    assert "rep" in payload["detail"]


def test_missing_config_file_exits_2(capsys):
    assert main(["thresholds", "--config", "/no/such/file.json"]) == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert "file.json" in payload["detail"]


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(GOOD, extra_knob=1)), encoding="utf-8")
    assert main(["thresholds", "--config", str(path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert "unknown config keys" in payload["detail"]


@pytest.mark.parametrize(
    "key,value",
    [
        ("ell0", None),
        ("c", [3]),
        ("r_list", [None]),
        ("horizon", None),
        ("r_list", ["a"]),
        ("horizon", "x"),
        ("ell0", "abc"),
        ("seed", -1),
    ],
)
def test_malformed_numeric_field_is_a_config_error(tmp_path, capsys, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(GOOD, **{key: value})), encoding="utf-8")
    assert main(["thresholds", "--config", str(path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "config"
    assert repr(key) in payload["detail"]


def test_unreadable_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(GOOD)[:-1] + ', "seed": 1' + "0" * 5000 + "}", encoding="utf-8")
    assert main(["thresholds", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    path.write_bytes(b'{"gamma": "\xff"}')
    assert main(["thresholds", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_invalid_limits_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(GOOD, mu=[2.0, 2.0, 1.5])), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--r", "5"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_unknown_policy_exits_2(config_path, capsys):
    assert main(["converge", "--config", config_path, "--policies", "fifo"]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert "fifo" in payload["detail"]


@pytest.mark.parametrize(
    "overrides,args",
    [
        ({}, ["--bcp-paths", "0"]),
        ({}, ["--bcp-dt", "0"]),
        ({"r_list": [3, 5, 1]}, []),
        ({}, ["--policies", "threshold,fifo"]),
        ({"b": [1e300, 0.0, 0.0]}, []),
        ({"r_list": [5, 5.0]}, []),
        ({}, ["--policies", "threshold,threshold"]),
    ],
    ids=["no-paths", "zero-dt", "unusable-r", "unknown-policy", "event-limit", "repeated-r", "repeated-policy"],
)
def test_converge_rejects_bad_input_before_simulating(tmp_path, capsys, monkeypatch, overrides, args):
    calls = []
    for name in ("simulate", "_chain_cost"):
        real = getattr(crisscross.experiments, name)
        monkeypatch.setattr(crisscross.experiments, name, lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(GOOD, **overrides)), encoding="utf-8")
    argv = ["converge", "--config", str(path), "--bcp-dt", "0.05", "--bcp-paths", "100", *args]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "arguments"
    assert calls == []


@pytest.mark.parametrize(
    "overrides,args",
    [({"b": [1e300, 0.0, 0.0]}, []), ({}, ["--bcp-dt", "0"])],
    ids=["event-limit", "zero-dt"],
)
def test_a_rejected_converge_writes_one_json_line_on_stderr(tmp_path, overrides, args):
    """In a fresh interpreter, where Python prints warnings on stderr: the
    ell0 floor warning (both configs sit below the floor) must not precede
    the error line."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(GOOD, **overrides)), encoding="utf-8")
    argv = ["converge", "--config", str(path), "--bcp-dt", "0.05", "--bcp-paths", "100", *args]
    assert _rejected_in_a_fresh_interpreter(argv)["error"] == "arguments"


@pytest.mark.parametrize(
    "args",
    [
        ["diagnostics", "--r", "abc"],
        ["ld-check", "--t-grid", "-1,5"],
        ["converge", "--bcp-paths", "x"],
        ["converge", "--no-such-flag"],
        [],
    ],
    ids=["not-a-float", "looks-like-an-option", "not-an-int", "unknown-flag", "no-command"],
)
def test_an_argument_the_parser_rejects_exits_2_with_one_json_line(config_path, args):
    """In a fresh interpreter: argparse's own errors, in the main parser and
    in the subcommand parsers, give the same JSON line as every other
    rejected argument, not argparse's usage text."""
    argv = [*args, "--config", config_path] if args else []
    assert _rejected_in_a_fresh_interpreter(argv)["error"] == "arguments"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["converge", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: crisscross converge")


def _rejected_in_a_fresh_interpreter(argv):
    """Run the CLI in a new process; it must exit 2 with nothing on stdout
    and one JSON line on stderr, which is returned parsed."""
    src = str(Path(crisscross.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "crisscross.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    return json.loads(lines[0])


@pytest.mark.parametrize(
    "command,args",
    [("bcp", ["--dt", "1e-15", "--paths", "1"]), ("ld-check", ["--samples", str(10**16)])],
)
def test_a_size_too_large_to_allocate_exits_2(config_path, capsys, command, args):
    """Each request is over 70 PiB, past the address space: the BCP pass
    refuses it by its buffer limit, and numpy refuses the ld-check draws
    before touching memory."""
    assert main([command, "--config", config_path, *args]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "arguments"


def test_a_path_count_past_the_buffer_limit_exits_2_with_one_json_line(config_path):
    """In a fresh interpreter: the per-path integrals of 1e14 paths exceed the
    buffer limit, which the pass names before allocating anything."""
    payload = _rejected_in_a_fresh_interpreter(["bcp", "--config", config_path, "--dt", "0.5", "--paths", str(10**14)])
    assert payload["error"] == "arguments"
    assert "over the limit of 2 GiB" in payload["detail"]


@pytest.mark.parametrize("d", ["nan", "inf", "-1"])
def test_diagnostics_rejects_a_guard_level_that_is_not_finite_and_nonnegative(config_path, capsys, d):
    argv = ["diagnostics", "--config", config_path, "--r", "5", "--horizon-scaled", "0.3", "--d", d]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "arguments"
    assert "idleness guard level" in payload["detail"]


@pytest.mark.parametrize(
    "t_grid,message,rate",
    [
        ("nan", "window length", []),
        ("inf", "window length", []),
        ("5,-inf", "window length", []),
        ("-1", "window length", []),
        ("", "at least one window length", []),
        (",", "at least one window length", []),
        ("5,abc", "--t-grid '5,abc'", []),
        ("1e300", "t = 1e+300 at rate = 1.0", []),
        ("10", "t = 10.0 at rate = 1e+300", ["--rate", "1e300"]),
        ("0", "rate = inf must be finite", ["--rate", "inf"]),
    ],
    ids=[
        "nan-window length",
        "inf-window length",
        "5,-inf-window length",
        "-1-window length",
        "-at least one window length",
        ",-at least one window length",
        "not-a-number",
        "huge-t",
        "huge-rate",
        "infinite-rate",
    ],
)
def test_ld_check_rejects_an_unusable_window_grid(config_path, capsys, t_grid, message, rate):
    assert main(["ld-check", "--config", config_path, "--t-grid", t_grid, "--samples", "10", *rate]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "arguments"
    assert message in payload["detail"]


def test_unusable_r_exits_2(config_path, capsys):
    assert main(["simulate", "--config", config_path, "--r", "1"]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "arguments"


def test_overflowing_drift_offset_exits_2(tmp_path, capsys):
    """b1 mu1 overflows to an infinite arrival rate, which the simulator
    cannot sample."""
    path = tmp_path / "huge_b.json"
    path.write_text(json.dumps(dict(GOOD, b=[1e308, 0.0, 0.0])), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--r", "5"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "arguments"


@pytest.mark.parametrize("command,args", [("simulate", ["--horizon-scaled", "0.01"]), ("diagnostics", [])])
def test_a_run_past_the_event_limit_exits_2(tmp_path, capsys, command, args):
    """b1 = 1e300 makes the arrival rate about 4e299: finite, but no run
    could finish. The event estimate refuses it before the first event."""
    path = tmp_path / "huge_rate.json"
    path.write_text(json.dumps(dict(GOOD, b=[1e300, 0.0, 0.0])), encoding="utf-8")
    assert main([command, "--config", str(path), "--r", "5", *args]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "arguments"
    assert "events" in payload["detail"]


@pytest.mark.parametrize("dt,horizon", [("1", "0.4"), ("0.1", "inf"), ("inf", "1")])
def test_bcp_grid_without_a_finite_step_count_exits_2(config_path, capsys, dt, horizon):
    assert main(["bcp", "--config", config_path, "--dt", dt, "--horizon", horizon, "--paths", "10"]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "arguments"


@pytest.mark.parametrize(
    "argv",
    [["bcp", "--dt", "5e-324"], ["bcp", "--horizon", "1e308", "--dt", "1e-3"], ["converge", "--bcp-dt", "5e-324"]],
    ids=["bcp-dt", "bcp-horizon", "converge-bcp-dt"],
)
def test_a_grid_whose_step_count_overflows_exits_2_naming_dt_and_the_horizon(config_path, capsys, argv):
    """horizon / dt is infinite, so no step count exists: one JSON line, not
    an OverflowError traceback."""
    assert main([*argv, "--config", config_path]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "arguments"
    assert "dt=" in payload["detail"] and "horizon" in payload["detail"]


def test_a_refused_step_count_is_written_in_three_digits(config_path, capsys):
    assert main(["bcp", "--config", config_path, "--dt", "1e-300"]) == 2
    detail = json.loads(capsys.readouterr().err.strip())["detail"]
    assert detail.startswith("1.5e+301 steps x 10000 paths need "), detail


# Hypothesis rarely draws floats near the ends of the range on its own.
_EDGES = st.sampled_from([5e-324, 1e-300, 1e300, 1e308, -1e308, sys.float_info.max, 2**1024])
_NUMBERS = _EDGES | st.floats() | st.integers()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)
_KEYS = sorted(set(GOOD) | {"b", "unknown"})


@st.composite
def _configs(draw):
    """GOOD with one or two keys set to arbitrary JSON, and maybe one removed."""
    raw = dict(GOOD)
    for key in draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=2, unique=True)):
        raw[key] = draw(_NUMBERS | st.lists(_NUMBERS, min_size=1, max_size=3) | _JSON)
    for key in draw(st.sets(st.sampled_from(_KEYS), max_size=1)):
        raw.pop(key, None)
    return raw


# Each command's size is bounded whatever the config: the simulator's by
# event_budget, the BCP pass's by its buffer limit.
_PROPERTY_COMMANDS = (
    ["thresholds"],
    ["simulate", "--r", "2", "--horizon-scaled", "0.01"],
    ["diagnostics", "--r", "2", "--horizon-scaled", "0.01"],
    ["bcp", "--dt", "0.5", "--paths", "4"],
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw=_configs())
@example(raw=dict(GOOD, ell0=1e308))  # a finite ell0 whose threshold size overflows
def test_any_config_parses_or_is_a_config_error_and_main_never_raises(tmp_path_factory, raw):
    try:
        assert isinstance(parse_config(raw), Config)
    except ConfigError:
        pass
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = ["--config", str(path), "--out", str(path.with_suffix(".out"))]
    for command in _PROPERTY_COMMANDS:
        assert main([*command, *out]) in (0, 2), command
