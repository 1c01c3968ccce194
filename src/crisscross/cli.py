"""Command-line front end.

Every subcommand reads the same JSON config (model limits plus run shape),
takes an optional --seed override, and writes deterministic text to --out or
stdout. Config and argument problems, a size too large to allocate and an
--out path that cannot take the file among them, print a single JSON line
on stderr and exit with status 2; success exits 0. The output is written
only after the run succeeds, so a failed run leaves --out as it was.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys

import numpy as np

from .bcp import CostEstimate, estimate_j_star
from .experiments import DiagnosticsReport, DiscountedCostRun, LdCheckRow, convergence_sweep, ld_check, reference_seed, replicate, run_diagnostics
from .params import Config, ConfigError, RNetwork, ThresholdConstants, compute_threshold_constants, is_seed, load_config, make_r_network
from .policies import POLICY_NAMES
from .simulate import SCALES, ScaledTrajectory, Trajectory, diffusion_scale, write_scaled_csv

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return "%.17g" % x


def _names(record_type, *skip: str) -> list[str]:
    """Field names of a dataclass record in declaration order, the columns
    or keys of its report."""
    return [f.name for f in dataclasses.fields(record_type) if f.name not in skip]


def _cells(record, names: list[str]) -> list[str]:
    return [_fmt(getattr(record, name)) for name in names]


def _pairs(record, names: list[str]) -> str:
    """A record's fields as space-separated name=value pairs."""
    return " ".join(f"{name}={cell}" for name, cell in zip(names, _cells(record, names)))


def _replication(cfg: Config, args) -> tuple[RNetwork, Trajectory]:
    """The network of --r and its replication --rep under --policy."""
    net = make_r_network(cfg.limits, args.r, cfg.ell0, cfg.c)
    horizon_scaled = cfg.horizon if args.horizon_scaled is None else args.horizon_scaled
    return net, replicate(net, args.policy, horizon_scaled, cfg.seed, args.rep)


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as ValueError, not printed, so
    that main reports them as its one JSON line; the subcommand parsers are
    of this class too. --help still prints and exits 0."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crisscross",
        description="Simulate and analyse the two-server crisscross network under logarithmic-threshold control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The arguments of every subcommand, and those of one replication.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    replication = argparse.ArgumentParser(add_help=False)
    replication.add_argument("--r", type=float, required=True, help="scaling parameter of the network to simulate")
    replication.add_argument("--policy", choices=POLICY_NAMES, default="threshold")
    replication.add_argument("--horizon-scaled", type=float, default=None, help="scaled horizon (default: config horizon)")
    replication.add_argument("--rep", type=int, default=0, help="replication index (selects the random substream)")

    p = sub.add_parser("simulate", parents=[common, replication], help="run one trajectory and write it as CSV")
    p.add_argument("--scale", choices=SCALES, default="raw")

    p = sub.add_parser("bcp", parents=[common], help="estimate the Brownian reference cost and workload marginals")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--horizon", type=float, default=None, help="time horizon (default: 15 / gamma)")
    p.add_argument("--no-bridge", action="store_true", help="reflect off raw grid minima instead of bridge minima")

    p = sub.add_parser("converge", parents=[common], help="sweep the r-family and compare with the Brownian reference")
    p.add_argument("--policies", default="threshold", help="comma-separated policy names")
    p.add_argument("--bcp-dt", type=float, default=1e-3)
    p.add_argument("--bcp-paths", type=int, default=100_000)

    sub.add_parser("thresholds", parents=[common], help="print the threshold constants and per-r threshold pairs")

    p = sub.add_parser("ld-check", parents=[common], help="compare empirical Poisson tails with the exponential bound")
    p.add_argument("--rate", type=float, default=None, help="Poisson rate (default: first arrival rate)")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--t-grid", default="10,25,50", help="comma-separated window lengths")
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("diagnostics", parents=[common, replication], help="state-space-collapse diagnostics for one trajectory")
    p.add_argument("--t-end", type=float, default=1.0, help="window end, scaled time (clipped to the record's end)")
    p.add_argument("--d", type=float, default=None, help="idleness guard level (default: theoretical constant)")

    return parser


def _cmd_simulate(cfg: Config, args, fh) -> None:
    net, traj = _replication(cfg, args)
    write_scaled_csv(ScaledTrajectory(traj, net, args.scale), fh)


def _cmd_bcp(cfg: Config, args, fh) -> None:
    ref = estimate_j_star(
        cfg.limits,
        dt=args.dt,
        horizon=args.horizon,
        n_paths=args.paths,
        seed=reference_seed(cfg.seed),
        bridge_minima=not args.no_bridge,
    )
    m1, m2 = ref.marginals
    cols = _names(CostEstimate, "marginals")
    fh.write(",".join(["quantity", *cols]) + "\n")
    for name, est in (("j_star", ref), ("workload1_marginal", m1), ("workload2_marginal", m2)):
        fh.write(",".join([name, *_cells(est, cols)]) + "\n")


def _cmd_converge(cfg: Config, args, fh) -> None:
    policies = tuple(name.strip() for name in args.policies.split(",") if name.strip())
    result = convergence_sweep(cfg, policies, args.bcp_dt, args.bcp_paths)
    fh.write(f"# j_star {_pairs(result.j_star, _names(CostEstimate, 'truncation_bound', 'marginals'))}\n")
    cols = _names(DiscountedCostRun, "horizon_scaled", "truncation_bound")
    fh.write(",".join([*cols, "gap"]) + "\n")
    for run in result.runs:
        fh.write(",".join([*_cells(run, cols), _fmt(result.gap(run))]) + "\n")


def _cmd_thresholds(cfg: Config, args, fh) -> None:
    constants = compute_threshold_constants(cfg.limits)
    fh.write(f"# constants {_pairs(constants, _names(ThresholdConstants))}\n")
    fh.write("r,threshold_low,threshold_high\n")
    for r in cfg.r_list:
        net = make_r_network(cfg.limits, r, cfg.ell0, cfg.c)
        fh.write("%s,%d,%d\n" % (_fmt(r), net.threshold_low, net.threshold_high))


def _cmd_ld_check(cfg: Config, args, fh) -> None:
    rate = cfg.limits.lam[0] if args.rate is None else args.rate
    try:
        t_grid = tuple(float(s) for s in args.t_grid.split(",") if s.strip())
    except ValueError:
        raise ValueError(f"--t-grid {args.t_grid!r} must be comma-separated numbers") from None
    rows = ld_check(rate, args.eps, t_grid, args.samples, cfg.seed)
    cols = _names(LdCheckRow)
    fh.write(",".join(cols) + "\n")
    for row in rows:
        fh.write(",".join(_cells(row, cols)) + "\n")


def _cmd_diagnostics(cfg: Config, args, fh) -> None:
    constants = compute_threshold_constants(cfg.limits)
    net, traj = _replication(cfg, args)
    report = run_diagnostics(diffusion_scale(traj, net), net, constants, d=args.d, t_end=args.t_end)
    fh.write("key,value\n")
    for key in _names(DiagnosticsReport):
        fh.write(f"{key},{_fmt(getattr(report, key))}\n")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bcp": _cmd_bcp,
    "converge": _cmd_converge,
    "thresholds": _cmd_thresholds,
    "ld-check": _cmd_ld_check,
    "diagnostics": _cmd_diagnostics,
}


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot take a file before the run starts:
    a directory, or a file in a directory that does not exist."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path!r}: directory {parent!r} does not exist")


def _reject(kind: str, detail: str) -> int:
    """Report a refused run as one JSON line on stderr; its exit status is 2."""
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            if not is_seed(args.seed):
                raise ValueError(f"--seed must be a non-negative integer, got {args.seed!r}")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            _check_out(args.out)
        buf = io.StringIO()
        _COMMANDS[args.command](cfg, args, buf)
    except (ConfigError, ValueError, MemoryError) as exc:
        return _reject("config" if isinstance(exc, ConfigError) else "arguments", str(exc))
    text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            out.write(text)
    except OSError as exc:
        return _reject("arguments", f"--out: {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
