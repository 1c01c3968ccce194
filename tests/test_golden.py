"""Golden outputs: the six subcommands of acceptance criterion 10, and the
raw and fluid views of `simulate`, must reproduce stored bytes exactly, not
only agree with a second run. The raw view prints the busy times T1-T3 and
idleness I1-I2 unscaled.

The files under tests/golden/ were captured with numpy 2.4.6 (PCG64 streams,
float formatting via %.17g). A refactor that keeps the random streams must
keep these bytes; one that changes the stream layout must say so and
re-capture them. Another numpy version or BLAS build may round the last
digit of a matrix product differently, which shows up here first.
"""
from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from crisscross.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONFIG = {
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

COMMANDS = {
    "simulate": ["simulate", "--r", "5", "--horizon-scaled", "0.2", "--scale", "diffusion"],
    "simulate-raw": ["simulate", "--r", "5", "--horizon-scaled", "0.2", "--scale", "raw"],
    "simulate-fluid": ["simulate", "--r", "5", "--horizon-scaled", "0.2", "--scale", "fluid"],
    "bcp": ["bcp", "--dt", "0.05", "--paths", "200"],
    "converge": ["converge", "--policies", "threshold,priority1", "--bcp-dt", "0.05", "--bcp-paths", "200"],
    "thresholds": ["thresholds"],
    "ld-check": ["ld-check", "--t-grid", "5,10", "--samples", "2000"],
    "diagnostics": ["diagnostics", "--r", "5", "--horizon-scaled", "0.3"],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_output_matches_the_golden_file(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    out = tmp_path / f"{name}.out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(COMMANDS[name] + ["--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
