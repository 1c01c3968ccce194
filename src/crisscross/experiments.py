"""Cost experiments: discounted path costs, replicated estimates, the
convergence sweep against the Brownian reference value, state-space-collapse
diagnostics, and the Poisson tail check backing the threshold sizing.
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bcp import CostEstimate, estimate_j_star
from .params import NetworkLimits, RNetwork, ThresholdConstants, compute_threshold_constants, kappa_bound, make_r_network, varsigma2
from .policies import PolicyFn, make_policy
from .simulate import ScaledTrajectory, diffusion_scale, simulate

__all__ = [
    "PathCost",
    "DiscountedCostRun",
    "SweepConfig",
    "SweepResult",
    "DiagnosticsReport",
    "LdCheckRow",
    "discounted_cost",
    "estimate_cost",
    "convergence_sweep",
    "run_diagnostics",
    "collapse_bound",
    "ld_check",
    "fluid_allocation_gap",
    "replication_seed",
]

_SIM_TAG = 1
_BCP_TAG = 2
_LD_TAG = 3


class PathCost(NamedTuple):
    value: float
    tail: float  # discounted value of holding the final state forever (truncation proxy)


def discounted_cost(scaled: ScaledTrajectory, h: Sequence[float], gamma: float) -> PathCost:
    """Exact discounted integral of the holding cost along a scaled path.

    The queue vector is piecewise constant between epochs, so the integral is
    a finite sum of exponential weights; no quadrature error. The tail term
    reports what the final state would contribute if held beyond the horizon.
    """
    if not (gamma > 0.0):
        raise ValueError(f"discount rate gamma = {gamma!r} must be > 0")
    hq = scaled.queues @ np.asarray(h, dtype=float)
    t = scaled.times
    if t.shape[0] == 1:
        return PathCost(0.0, float(hq[0] / gamma))
    decay = np.exp(-gamma * t)
    value = float(hq[:-1] @ (decay[:-1] - decay[1:]) / gamma)
    tail = float(decay[-1] * hq[-1] / gamma)
    return PathCost(value, tail)


def _float_key(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def replication_seed(seed: int, r: float, rep: int) -> np.random.SeedSequence:
    """Deterministic per-replication seed; it ignores the policy, so every
    policy sees the same streams (common random numbers)."""
    # The trailing 0 was a per-policy salt; it stays so the streams do not change.
    return np.random.SeedSequence(entropy=(seed, _SIM_TAG, _float_key(r), rep, 0))


@dataclass(frozen=True)
class DiscountedCostRun:
    """Replicated discounted-cost estimate for one (network, policy) pair."""

    r: float
    policy: str
    mean: float
    stderr: float | None
    n_reps: int
    horizon_scaled: float
    truncation_bound: float
    threshold_low: int
    threshold_high: int


def _policy_name(policy: str | PolicyFn) -> str:
    if isinstance(policy, str):
        return policy
    return getattr(policy, "__name__", "custom")


def estimate_cost(
    net: RNetwork,
    policy: str | PolicyFn,
    gamma: float,
    h: Sequence[float],
    horizon_scaled: float,
    n_reps: int,
    seed: int,
) -> DiscountedCostRun:
    """Replicate the simulator and integrate the discounted cost per run.

    Replication k uses substreams derived from (seed, r, k) alone, so
    different policies see identical arrival streams (common random
    numbers). The unscaled simulation horizon is r^2 * horizon_scaled.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps = {n_reps!r} must be >= 1")
    if not (horizon_scaled > 0.0):
        raise ValueError(f"horizon_scaled = {horizon_scaled!r} must be > 0")
    name = _policy_name(policy)
    policy_fn = make_policy(policy, net) if isinstance(policy, str) else policy
    horizon = net.r * net.r * horizon_scaled

    values = np.empty(n_reps)
    tails = np.empty(n_reps)
    for rep in range(n_reps):
        traj = simulate(net, policy_fn, horizon, replication_seed(seed, net.r, rep))
        cost = discounted_cost(diffusion_scale(traj, net), h, gamma)
        values[rep] = cost.value
        tails[rep] = cost.tail
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else None
    return DiscountedCostRun(
        r=net.r,
        policy=name,
        mean=mean,
        stderr=stderr,
        n_reps=n_reps,
        horizon_scaled=horizon_scaled,
        truncation_bound=float(tails.mean()),
        threshold_low=net.threshold_low,
        threshold_high=net.threshold_high,
    )


@dataclass(frozen=True)
class SweepConfig:
    """Shape of a convergence sweep (thresholds, replication count, reference run)."""

    ell0: float = 1.2
    c: float = 3.0
    horizon_scaled: float = 15.0
    n_reps: int = 200
    seed: int = 0
    bcp_dt: float = 1e-3
    bcp_paths: int = 100_000


@dataclass(frozen=True)
class SweepResult:
    runs: tuple[DiscountedCostRun, ...]
    j_star: CostEstimate

    def gap(self, run: DiscountedCostRun) -> float:
        """Relative distance of a run's estimate from the Brownian reference."""
        return (run.mean - self.j_star.mean) / self.j_star.mean


def convergence_sweep(
    limits: NetworkLimits,
    policies: Sequence[str | PolicyFn],
    r_list: Sequence[float],
    config: SweepConfig = SweepConfig(),
) -> SweepResult:
    """Estimate the scaled discounted cost across the r-family and policies,
    next to the Brownian reference value.

    Needs at least two r values (a single point cannot show a trend). Warns
    when the requested log-coefficient sits below the guaranteed regime.
    """
    if len(r_list) < 2:
        raise ValueError("r_list must contain at least two values to show a trend")
    if not policies:
        raise ValueError("need at least one policy")
    try:
        constants = compute_threshold_constants(limits)
    except ValueError:
        constants = None
        warnings.warn("threshold constants unavailable for these limits; skipping the ell0 floor check")
    if constants is not None and config.ell0 < constants.ell_bar:
        warnings.warn(
            f"ell0 = {config.ell0} below the guaranteed floor {constants.ell_bar:.3g}; "
            "cost bounds are not covered by the theory at this size"
        )

    runs = []
    for r in r_list:
        net = make_r_network(limits, r, config.ell0, config.c)
        for policy in policies:
            runs.append(
                estimate_cost(
                    net,
                    policy,
                    gamma=limits.gamma,
                    h=limits.h,
                    horizon_scaled=config.horizon_scaled,
                    n_reps=config.n_reps,
                    seed=config.seed,
                )
            )
    j_star = estimate_j_star(
        limits,
        dt=config.bcp_dt,
        n_paths=config.bcp_paths,
        seed=np.random.SeedSequence(entropy=(config.seed, _BCP_TAG)),
    )
    return SweepResult(runs=tuple(runs), j_star=j_star)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Pathwise state-space-collapse diagnostics over a time window.

    collapse_sup1: largest scaled buffer-1 content while the downstream stock
    was at or above the (scaled) low threshold line.
    collapse_sup3: largest scaled downstream content on the other side.
    event_E_hit: whether either sup exceeded the collapse level
    kappa * (threshold_high - threshold_low + 1) / r.
    idle_mass_Y: server-2 idleness accumulated while scaled buffer 2 sat at or
    above the guarded level d * ell0 * log(r) / r.
    product_sup: largest product of scaled buffer-1 and buffer-3 contents.
    """

    r: float
    t_end: float
    collapse_sup1: float
    collapse_sup3: float
    event_E_hit: bool
    idle_mass_Y: float
    product_sup: float
    collapse_level: float
    idle_level: float
    kappa: float


def run_diagnostics(
    scaled: ScaledTrajectory,
    net: RNetwork,
    constants: ThresholdConstants,
    d: float | None = None,
    t_end: float = 1.0,
) -> DiagnosticsReport:
    """Evaluate the collapse diagnostics on one diffusion-scaled trajectory."""
    if scaled.kind != "diffusion":
        raise ValueError("diagnostics need a diffusion-scaled trajectory")
    if not (t_end > 0.0):
        raise ValueError(f"t_end = {t_end!r} must be > 0")
    if d is None:
        d = constants.d
    r = scaled.r
    times = scaled.times
    in_window = times[:-1] < t_end if times.shape[0] > 1 else np.zeros(0, dtype=bool)

    q1 = scaled.queues[:, 0]
    q3 = scaled.queues[:, 2]
    ratio = net.mu[1] / net.mu[0]
    low_line = net.threshold_low / r
    above = (q3 - ratio * q1) >= low_line

    # Row k describes [t_k, t_{k+1}); the window covers rows with t_k < t_end.
    rows = np.flatnonzero(in_window) if in_window.size else np.array([0])
    sel_above = above[rows]
    sup1 = float(q1[rows][sel_above].max()) if sel_above.any() else 0.0
    sup3 = float(q3[rows][~sel_above].max()) if (~sel_above).any() else 0.0
    product_sup = float((q1[rows] * q3[rows]).max())

    kappa = kappa_bound(net.mu, net.c, constants.theta3)
    collapse_level = kappa * (net.threshold_high - net.threshold_low + 1) / r
    idle_level = d * net.ell0 * math.log(r) / r

    idle_mass = 0.0
    if times.shape[0] > 1:
        d_idle = np.diff(scaled.idle[:, 1])
        span = np.diff(times)
        # Prorate the interval straddling t_end; idleness accrues linearly.
        frac = np.clip((t_end - times[:-1]) / span, 0.0, 1.0)
        hot = scaled.queues[:-1, 1] >= idle_level
        idle_mass = float((d_idle * frac * hot)[in_window].sum())

    return DiagnosticsReport(
        r=r,
        t_end=t_end,
        collapse_sup1=sup1,
        collapse_sup3=sup3,
        event_E_hit=bool(max(sup1, sup3) > collapse_level),
        idle_mass_Y=idle_mass,
        product_sup=product_sup,
        collapse_level=collapse_level,
        idle_level=idle_level,
        kappa=kappa,
    )


def collapse_bound(
    net: RNetwork,
    constants: ThresholdConstants,
    t: float,
    theta1: float = 1.0,
    theta2: float = 1.0,
) -> tuple[float, bool]:
    """Theoretical ceiling on the collapse-event probability, and whether it
    says anything (bounds >= 1 are vacuous at desk scale).

    The leading constants are existential; they are reported with unit
    placeholders, so only the explicit polynomial and power-law parts carry
    information.
    """
    r = net.r
    value = theta1 * (1.0 + r**4 * t * t) * (
        math.exp(-theta2 * r * r * t) + r ** (-constants.theta3 * (net.c - 1.0) * net.ell0)
    )
    return value, value < 1.0


@dataclass(frozen=True)
class LdCheckRow:
    t: float
    empirical: float
    bound: float
    within: bool


def ld_check(
    rate: float,
    eps: float,
    t_grid: Sequence[float],
    n_samples: int,
    seed: int,
) -> list[LdCheckRow]:
    """Empirical two-sided Poisson tail frequencies against the Chernoff bound.

    For each window length t, estimates P(|N(t)/t - rate| >= eps) from
    n_samples Poisson draws and compares with 2 exp(-t * varsigma2(rate, eps)).
    """
    if not (rate > 0.0):
        raise ValueError(f"rate = {rate!r} must be > 0")
    if not (0.0 < eps < rate):
        raise ValueError(f"need 0 < eps < rate, got eps = {eps!r}, rate = {rate!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples = {n_samples!r} must be >= 1")
    decay = varsigma2(rate, eps)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, _LD_TAG))))
    rows = []
    for t in t_grid:
        if t < 0.0:
            raise ValueError(f"window length t = {t!r} must be >= 0")
        counts = gen.poisson(rate * t, n_samples)
        hits = (counts >= (rate + eps) * t) | (counts <= (rate - eps) * t)
        empirical = float(hits.mean())
        bound = 2.0 * math.exp(-t * decay)
        rows.append(LdCheckRow(t=float(t), empirical=empirical, bound=bound, within=empirical <= bound))
    return rows


def fluid_allocation_gap(scaled: ScaledTrajectory, limits: NetworkLimits, t_end: float) -> float:
    """Largest deviation of fluid-scaled allocations from the critical-load
    allocation profile (rho1 t, rho2 t, t) over [0, t_end]."""
    if scaled.kind != "fluid":
        raise ValueError("allocation gap needs a fluid-scaled trajectory")
    if not (0.0 < t_end <= scaled.times[-1] + 1e-12):
        raise ValueError(f"t_end = {t_end!r} outside the trajectory span")
    rho1, rho2 = limits.rho
    targets = (rho1, rho2, 1.0)
    times = scaled.times
    pts = times[times <= t_end]
    if pts.size == 0 or pts[-1] < t_end:
        pts = np.append(pts, t_end)
    worst = 0.0
    for j, slope in enumerate(targets):
        vals = np.interp(pts, times, scaled.alloc[:, j])
        worst = max(worst, float(np.abs(vals - slope * pts).max()))
    return worst
