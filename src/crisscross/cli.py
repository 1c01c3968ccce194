"""Command-line front end.

Every subcommand reads the same JSON config (model limits plus run shape),
takes an optional --seed override, and writes deterministic text to --out or
stdout. Config problems print a single JSON line on stderr and exit with
status 2; success exits 0.
"""
from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from .bcp import estimate_j_star
from .experiments import (
    _BCP_TAG,
    SweepConfig,
    convergence_sweep,
    ld_check,
    replication_seed,
    run_diagnostics,
)
from .params import Config, ConfigError, compute_threshold_constants, load_config, make_r_network
from .policies import POLICY_NAMES
from .simulate import SCALES, ScaledTrajectory, diffusion_scale, simulate, write_scaled_csv

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return "%.17g" % x


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisscross",
        description="Simulate and analyse the two-server crisscross network under logarithmic-threshold control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory and write it as CSV")
    _add_common(p)
    p.add_argument("--r", type=float, required=True, help="scaling parameter of the network to simulate")
    p.add_argument("--policy", choices=POLICY_NAMES, default="threshold")
    p.add_argument("--horizon-scaled", type=float, default=None, help="scaled horizon (default: config horizon)")
    p.add_argument("--scale", choices=SCALES, default="raw")
    p.add_argument("--rep", type=int, default=0, help="replication index (selects the random substream)")

    p = sub.add_parser("bcp", help="estimate the Brownian reference cost and workload marginals")
    _add_common(p)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--horizon", type=float, default=None, help="time horizon (default: 15 / gamma)")
    p.add_argument("--no-bridge", action="store_true", help="reflect off raw grid minima instead of bridge minima")

    p = sub.add_parser("converge", help="sweep the r-family and compare with the Brownian reference")
    _add_common(p)
    p.add_argument("--policies", default="threshold", help="comma-separated policy names")
    p.add_argument("--bcp-dt", type=float, default=1e-3)
    p.add_argument("--bcp-paths", type=int, default=100_000)

    p = sub.add_parser("thresholds", help="print the threshold constants and per-r threshold pairs")
    _add_common(p)

    p = sub.add_parser("ld-check", help="compare empirical Poisson tails with the exponential bound")
    _add_common(p)
    p.add_argument("--rate", type=float, default=None, help="Poisson rate (default: first arrival rate)")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--t-grid", default="10,25,50", help="comma-separated window lengths")
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("diagnostics", help="state-space-collapse diagnostics for one trajectory")
    _add_common(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, default="threshold")
    p.add_argument("--horizon-scaled", type=float, default=None)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--d", type=float, default=None, help="idleness guard level (default: theoretical constant)")
    p.add_argument("--rep", type=int, default=0)

    return parser


def _cmd_simulate(cfg: Config, seed: int, args, fh) -> None:
    net = make_r_network(cfg.limits, args.r, cfg.ell0, cfg.c)
    horizon_scaled = cfg.horizon if args.horizon_scaled is None else args.horizon_scaled
    traj = simulate(net, args.policy, net.r * net.r * horizon_scaled, replication_seed(seed, net.r, args.rep))
    write_scaled_csv(ScaledTrajectory(traj, net, args.scale), fh)


def _cmd_bcp(cfg: Config, seed: int, args, fh) -> None:
    ref = estimate_j_star(
        cfg.limits,
        dt=args.dt,
        horizon=args.horizon,
        n_paths=args.paths,
        seed=np.random.SeedSequence(entropy=(seed, _BCP_TAG)),
        bridge_minima=not args.no_bridge,
    )
    m1, m2 = ref.marginals
    fh.write("quantity,mean,stderr,n_paths,dt,horizon,truncation_bound\n")
    for name, est in (("j_star", ref), ("workload1_marginal", m1), ("workload2_marginal", m2)):
        fh.write(
            "%s,%s,%s,%d,%s,%s,%s\n"
            % (name, _fmt(est.mean), _fmt(est.stderr), est.n_paths, _fmt(est.dt), _fmt(est.horizon), _fmt(est.truncation_bound))
        )


def _cmd_converge(cfg: Config, seed: int, args, fh) -> None:
    policies = tuple(name.strip() for name in args.policies.split(",") if name.strip())
    for name in policies:
        if name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {name!r}; choose from {', '.join(POLICY_NAMES)}")
    sweep = SweepConfig(
        ell0=cfg.ell0,
        c=cfg.c,
        horizon_scaled=cfg.horizon,
        n_reps=cfg.replications,
        seed=seed,
        bcp_dt=args.bcp_dt,
        bcp_paths=args.bcp_paths,
    )
    result = convergence_sweep(cfg.limits, policies, cfg.r_list, sweep)
    j = result.j_star
    fh.write(
        "# j_star mean=%s stderr=%s n_paths=%d dt=%s horizon=%s\n"
        % (_fmt(j.mean), _fmt(j.stderr), j.n_paths, _fmt(j.dt), _fmt(j.horizon))
    )
    fh.write("r,policy,mean,stderr,n_reps,threshold_low,threshold_high,gap\n")
    for run in result.runs:
        fh.write(
            "%s,%s,%s,%s,%d,%d,%d,%s\n"
            % (
                _fmt(run.r),
                run.policy,
                _fmt(run.mean),
                _fmt(run.stderr),
                run.n_reps,
                run.threshold_low,
                run.threshold_high,
                _fmt(result.gap(run)),
            )
        )


def _cmd_thresholds(cfg: Config, seed: int, args, fh) -> None:
    constants = compute_threshold_constants(cfg.limits)
    fh.write(
        "# constants theta3=%s rho2=%s c=%s K=%s d=%s theta=%s gamma4=%s ell_bar=%s kappa=%s\n"
        % tuple(
            _fmt(v)
            for v in (
                constants.theta3,
                constants.rho2,
                constants.c,
                constants.K,
                constants.d,
                constants.theta,
                constants.gamma4,
                constants.ell_bar,
                constants.kappa,
            )
        )
    )
    fh.write("r,threshold_low,threshold_high\n")
    for r in cfg.r_list:
        net = make_r_network(cfg.limits, r, cfg.ell0, cfg.c)
        fh.write("%s,%d,%d\n" % (_fmt(r), net.threshold_low, net.threshold_high))


def _cmd_ld_check(cfg: Config, seed: int, args, fh) -> None:
    rate = cfg.limits.lam[0] if args.rate is None else args.rate
    t_grid = tuple(float(s) for s in args.t_grid.split(",") if s.strip())
    rows = ld_check(rate, args.eps, t_grid, args.samples, seed)
    fh.write("t,empirical,bound,within\n")
    for row in rows:
        fh.write("%s,%s,%s,%s\n" % (_fmt(row.t), _fmt(row.empirical), _fmt(row.bound), _fmt(row.within)))


def _cmd_diagnostics(cfg: Config, seed: int, args, fh) -> None:
    constants = compute_threshold_constants(cfg.limits)
    net = make_r_network(cfg.limits, args.r, cfg.ell0, cfg.c)
    horizon_scaled = cfg.horizon if args.horizon_scaled is None else args.horizon_scaled
    traj = simulate(net, args.policy, net.r * net.r * horizon_scaled, replication_seed(seed, net.r, args.rep))
    report = run_diagnostics(diffusion_scale(traj, net), net, constants, d=args.d, t_end=args.t_end)
    fh.write("key,value\n")
    for key in (
        "r",
        "t_end",
        "collapse_sup1",
        "collapse_sup3",
        "event_E_hit",
        "idle_mass_Y",
        "product_sup",
        "collapse_level",
        "idle_level",
        "kappa",
    ):
        fh.write("%s,%s\n" % (key, _fmt(getattr(report, key))))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bcp": _cmd_bcp,
    "converge": _cmd_converge,
    "thresholds": _cmd_thresholds,
    "ld-check": _cmd_ld_check,
    "diagnostics": _cmd_diagnostics,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = cfg.seed if args.seed is None else args.seed
        buf = io.StringIO()
        _COMMANDS[args.command](cfg, seed, args, buf)
    except (ConfigError, ValueError) as exc:
        kind = "config" if isinstance(exc, ConfigError) else "arguments"
        sys.stderr.write(json.dumps({"error": kind, "detail": str(exc)}) + "\n")
        return 2
    text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            out.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
