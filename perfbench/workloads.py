"""The benchmark's workloads: the config each one generates, the CLI command
it runs, how much work one command does, and the checks on its output.

Every workload uses the symmetric example network. Sizes come in two sets:
"full" for measurement and "smoke" for the benchmark's own quick self-test.
Reference values in reference.json are recorded for the full sizes only, so
the checks against them are skipped at smoke size. Statistical checks pool
every distinct seed of a run, which keeps their false-alarm rate low.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent

SYMMETRIC = {
    "lambda": [1.0, 1.0],
    "mu": [2.0, 2.0, 1.0],
    "h": [1.0, 1.0, 1.0],
    "gamma": 1.0,
    "b": [0.0, 0.0, 0.0],
    "ell0": 1.2,
    "c": 3.0,
}
POLICIES = ("threshold", "priority1", "priority2")
SWEEP_R = (5.0, 10.0, 20.0, 40.0)

# Fixed standard error that the j_star time-to-precision figure is scaled to.
JSTAR_TARGET_SE = 0.01
# Closed-form discounted marginal means of the reflected workloads at b = 0:
# sigma_i / (sqrt(2) gamma^(3/2)) with sigma = (1, sqrt(2)).
MARGINAL_TARGETS = (1.0 / math.sqrt(2.0), 1.0)
# A pooled estimate must sit within this many combined standard errors of
# its recorded reference value.
REF_K = 5.0
# The diffusion identity netput workload + idleness = workload holds to this.
IDENTITY_TOL = 1e-9
# Header of a diffusion-scaled trajectory written as CSV.
CSV_HEADER = "time,Q1,Q2,Q3,T1,T2,T3,I1,I2,W1,W2,X1,X2,X3,server1_activity,server2_activity"

SIZES = {
    "full": {
        # --bcp-paths keeps the j_star part of converge near 6% of its time.
        "sweep": {"r_list": list(SWEEP_R), "reps": 2, "horizon": 15.0, "bcp_dt": 1e-3, "bcp_paths": 50},
        "reference": {"dt": 1e-3, "horizon": 15.0, "paths": 500},
    },
    "smoke": {
        "sweep": {"r_list": [5.0, 10.0], "reps": 2, "horizon": 1.0, "bcp_dt": 1e-2, "bcp_paths": 20},
        "reference": {"dt": 1e-2, "horizon": 15.0, "paths": 40},
    },
}


def program_seed(seed: int, second: bool, index: int) -> int:
    """Seed handed to the program for the index-th distinct command of a run.

    The second family shares no seeds with the first, so a claim tuned on
    the first can be re-checked on fresh streams.
    """
    digest = hashlib.sha256(f"crisscross-bench:{int(second)}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _cell(r: float, policy: str) -> str:
    return f"r{r:g}.{policy}"


def _pooled(estimates: list[list]) -> tuple[int, float, float]:
    """Paths, mean and per-path variance pooled over [mean, stderr, n] estimates."""
    n = sum(e[2] for e in estimates)
    mean = sum(e[0] * e[2] for e in estimates) / n
    var = sum(e[1] ** 2 * e[2] * e[2] for e in estimates) / n
    return n, mean, var


class _Workload:
    def result_s(self, size: dict, commands: list[dict]) -> float:
        """CPU seconds of one command, averaged over the timed commands."""
        return sum(c["cpu_s"] for c in commands) / len(commands)

    def check_pooled(self, size: dict, summaries: list[dict], ref: dict | None) -> list[dict]:
        """Checks on estimates pooled over the run's distinct seeds; ref is
        None at smoke size."""
        return []


class Sweep(_Workload):
    """`crisscross converge` over r x policies with common random numbers."""

    name = "sweep"
    work_unit = "simulated replications (reps_per_s)"
    result = "CPU time of one converge command"

    def config(self, size: dict) -> dict:
        return dict(SYMMETRIC, r_list=size["r_list"], replications=size["reps"], horizon=size["horizon"])

    def argv(self, size: dict, config_path: str, out_path: str, seed: int) -> list[str]:
        return [
            "converge", "--config", config_path, "--seed", str(seed), "--out", out_path,
            "--policies", ",".join(POLICIES),
            "--bcp-dt", repr(size["bcp_dt"]), "--bcp-paths", str(size["bcp_paths"]),
        ]

    def parse(self, out_path: Path) -> dict:
        lines = out_path.read_text(encoding="utf-8").splitlines()
        head = dict(kv.split("=", 1) for kv in lines[0][len("# j_star "):].split())
        cells = {}
        for line in lines[2:]:
            r, policy, mean, stderr, n_reps = line.split(",")[:5]
            cells[_cell(float(r), policy)] = [float(mean), float(stderr), int(n_reps)]
        return {
            "jstar": [float(head["mean"]), float(head["stderr"]), int(head["n_paths"])],
            "cells": cells,
        }

    def work(self, summary: dict) -> float:
        return float(sum(n for _, _, n in summary["cells"].values()))

    def check_command(self, size: dict, summary: dict) -> list[dict]:
        want = {_cell(r, p) for r in size["r_list"] for p in POLICIES}
        cells = summary["cells"]
        return [
            check("sweep.cells_present", set(cells) == want, f"{sorted(cells)}"),
            check("sweep.reps", all(n == size["reps"] for _, _, n in cells.values())),
            check("sweep.means_finite", all(_finite(m, s) for m, s, _ in cells.values())),
            check("sweep.jstar_finite", _finite(*summary["jstar"][:2])),
        ]

    def check_pooled(self, size: dict, summaries: list[dict], ref: dict | None) -> list[dict]:
        if ref is None:
            return []
        checks = []
        for key, cell_ref in ref["sweep_cells"].items():
            n, mean, _ = _pooled([s["cells"][key] for s in summaries])
            tol = REF_K * math.sqrt(cell_ref["sd"] ** 2 / n + cell_ref["stderr"] ** 2)
            checks.append(check(f"sweep.cell_vs_reference.{key}", abs(mean - cell_ref["mean"]) <= tol,
                                f"mean {mean:.5g} ref {cell_ref['mean']:.5g} tol {tol:.3g} n {n}"))
        checks.append(_jstar_vs_reference([s["jstar"] for s in summaries], ref["jstar"], "sweep"))
        return checks


class Reference(_Workload):
    """`crisscross bcp`: j_star and the two discounted workload marginals."""

    name = "reference"
    work_unit = "path-steps (path_steps_per_s)"
    result = f"jstar_s_at_se: CPU time of one bcp command x (j_star stderr / {JSTAR_TARGET_SE:g})^2"

    def config(self, size: dict) -> dict:
        return dict(SYMMETRIC)

    def argv(self, size: dict, config_path: str, out_path: str, seed: int) -> list[str]:
        return [
            "bcp", "--config", config_path, "--seed", str(seed), "--out", out_path,
            "--dt", repr(size["dt"]), "--horizon", repr(size["horizon"]), "--paths", str(size["paths"]),
        ]

    def parse(self, out_path: Path) -> dict:
        rows = {}
        for line in out_path.read_text(encoding="utf-8").splitlines()[1:]:
            name, mean, stderr, n_paths, dt, horizon, _ = line.split(",")
            rows[name] = [float(mean), float(stderr), int(n_paths), float(dt), float(horizon)]
        return rows

    def work(self, summary: dict) -> float:
        _, _, n_paths, dt, horizon = summary["j_star"]
        return float(n_paths * round(horizon / dt))

    def check_command(self, size: dict, summary: dict) -> list[dict]:
        return [
            check("reference.rows", set(summary) == {"j_star", "workload1_marginal", "workload2_marginal"}),
            check("reference.n_paths", all(v[2] == size["paths"] for v in summary.values())),
            check("reference.finite", all(_finite(v[0], v[1]) for v in summary.values())),
        ]

    def check_pooled(self, size: dict, summaries: list[dict], ref: dict | None) -> list[dict]:
        checks = []
        for i, target in enumerate(MARGINAL_TARGETS):
            n, mean, var = _pooled([s[f"workload{i + 1}_marginal"][:3] for s in summaries])
            tol = max(0.02 * target, 4.0 * math.sqrt(var / n))
            checks.append(check(f"reference.marginal{i + 1}_closed_form", abs(mean - target) <= tol,
                                f"mean {mean:.5g} target {target:.5g} tol {tol:.3g} n {n}"))
        if ref is not None:
            checks.append(_jstar_vs_reference([s["j_star"][:3] for s in summaries], ref["jstar"], "reference"))
        return checks

    def result_s(self, size: dict, commands: list[dict]) -> float:
        """Time to the target stderr, time x (stderr / target)^2, with the
        per-path variance pooled over the run's distinct seeds."""
        distinct = {c["seed_index"]: c["summary"]["j_star"][:3] for c in commands}
        _, _, var = _pooled(list(distinct.values()))
        return super().result_s(size, commands) * var / size["paths"] / JSTAR_TARGET_SE**2


def _jstar_vs_reference(estimates: list[list], jref: dict, prefix: str) -> dict:
    """Pooled j_star over distinct seeds against the recorded value at the
    same dt and horizon."""
    n, mean, var = _pooled(estimates)
    tol = REF_K * math.sqrt(var / n + jref["stderr"] ** 2)
    return check(f"{prefix}.jstar_vs_reference", abs(mean - jref["mean"]) <= tol,
                 f"mean {mean:.5g} ref {jref['mean']:.5g} tol {tol:.3g} n {n}")


WORKLOADS = {w.name: w for w in (Sweep(), Reference())}
