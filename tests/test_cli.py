from __future__ import annotations

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert (
        main(
            [
                "converge",
                "--config",
                config_path,
                "--policies",
                "threshold,priority2",
                "--bcp-dt",
                "0.05",
                "--bcp-paths",
                "100",
            ]
        )
        == 0
    )
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


def test_seed_override_changes_the_run(config_path, capsys):
    args = ["simulate", "--config", config_path, "--r", "3", "--horizon-scaled", "0.2"]
    assert main(args) == 0
    base = capsys.readouterr().out
    assert main(args + ["--seed", "8"]) == 0
    assert capsys.readouterr().out != base
    assert main(args + ["--seed", "7"]) == 0  # matches the config seed
    assert capsys.readouterr().out == base


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


@pytest.mark.parametrize("dt,horizon", [("1", "0.4"), ("0.1", "inf"), ("inf", "1")])
def test_bcp_grid_without_a_finite_step_count_exits_2(config_path, capsys, dt, horizon):
    assert main(["bcp", "--config", config_path, "--dt", dt, "--horizon", horizon, "--paths", "10"]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "arguments"


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
    assert main(["thresholds", "--config", str(path), "--out", str(path.with_suffix(".out"))]) in (0, 2)
