"""Recompute perfbench/reference.json, the values the benchmark's statistical
checks compare against.

For every (r, policy) cell of the sweep workload it records the mean cost,
its standard error and the per-replication standard deviation over many
replications; for j_star at the workloads' dt and horizon, the mean and
standard error over many paths. Both use a seed that program_seed never
produces (it yields 31-bit values), so the checks see independent streams.

Run from the repository root (about five minutes on a 2-core Xeon VM):

    python3 perfbench/record_reference.py
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from crisscross import NetworkLimits, estimate_cost, estimate_j_star, make_r_network  # noqa: E402

from workloads import POLICIES, SIZES, SYMMETRIC  # noqa: E402

RECORD_SEED = 2**40 + 17
REPS = 200
PATHS = 20_000


def main() -> int:
    size = SIZES["full"]
    limits = NetworkLimits(
        lam=tuple(SYMMETRIC["lambda"]), mu=tuple(SYMMETRIC["mu"]), h=tuple(SYMMETRIC["h"]),
        gamma=SYMMETRIC["gamma"], b=tuple(SYMMETRIC["b"]),
    )
    t0 = time.perf_counter()
    cells = {}
    for r in size["sweep"]["r_list"]:
        net = make_r_network(limits, r, SYMMETRIC["ell0"], SYMMETRIC["c"])
        for policy in POLICIES:
            run = estimate_cost(net, policy, limits.gamma, limits.h, size["sweep"]["horizon"], REPS, RECORD_SEED)
            cells[f"r{r:g}.{policy}"] = {
                "mean": run.mean, "stderr": run.stderr, "sd": run.stderr * math.sqrt(REPS), "n_reps": REPS,
            }
            print(f"r={r:g} {policy}: {run.mean:.5f} +- {run.stderr:.5f}", file=sys.stderr)
    ref = size["reference"]
    if ref["dt"] != size["sweep"]["bcp_dt"] or ref["horizon"] != 15.0 / limits.gamma:
        raise SystemExit("the sweep's j_star and the reference workload must share dt and horizon")
    js = estimate_j_star(
        limits, dt=ref["dt"], horizon=ref["horizon"], n_paths=PATHS,
        seed=np.random.SeedSequence(entropy=(RECORD_SEED, 2)),
    )
    print(f"j_star: {js.mean:.5f} +- {js.stderr:.5f} ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    out = {
        "seed": RECORD_SEED,
        "sweep_cells": cells,
        "jstar": {"mean": js.mean, "stderr": js.stderr, "n_paths": js.n_paths, "dt": js.dt, "horizon": js.horizon},
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
