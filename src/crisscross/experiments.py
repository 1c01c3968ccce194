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

from .bcp import _ROULETTE_P, CostEstimate, _discount_weights, _mc_summary, _roulette_cut, estimate_j_star
from .params import Config, NetworkLimits, RNetwork, ThresholdConstants, compute_threshold_constants, is_seed, kappa_bound, make_r_network, varsigma2
from .policies import BUFFER1, BUFFER2, BUFFER3, _require_policy
from .simulate import ScaledTrajectory, Trajectory, _child, _clock_rate, _walk, event_budget, simulate

__all__ = [
    "PathCost",
    "DiscountedCostRun",
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
    "reference_seed",
    "replicate",
]

_SIM_TAG = 1
_BCP_TAG = 2
_LD_TAG = 3

# The largest mean numpy's Poisson sampler accepts (its POISSON_LAM_MAX).
_POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


class PathCost(NamedTuple):
    value: float
    tail: float  # discounted value of holding the final state forever (truncation proxy)


def discounted_cost(scaled: ScaledTrajectory, h: Sequence[float], gamma: float) -> PathCost:
    """Exact discounted integral of the holding cost along a scaled path.

    The queue vector is piecewise constant between epochs, so the integral is
    a finite sum of exponential weights; no quadrature error. The tail term
    reports what the final state would contribute if held beyond the horizon.
    The weights are bcp._discount_weights on the epochs, added up pairwise
    and not by BLAS, so no bit depends on the BLAS thread count.
    """
    h1, h2, h3 = _cost_rates(gamma, h)
    hq = h1 * scaled.queues[:, 0] + h2 * scaled.queues[:, 1] + h3 * scaled.queues[:, 2]
    value = float(np.add.reduce(hq[:-1] * _discount_weights(gamma, scaled.times)))
    tail = float(np.exp(-gamma * scaled.times[-1]) * hq[-1] / gamma)
    return PathCost(value, tail)


def _cost_rates(gamma: float, h: Sequence[float]) -> tuple[float, float, float]:
    """The holding costs h as three floats, once the discount rate gamma is
    finite and > 0 and h is three finite numbers >= 0; ValueError names the
    one that is not."""
    if not (0.0 < gamma < math.inf):
        raise ValueError(f"discount rate gamma = {gamma!r} must be finite and > 0")
    try:
        costs = tuple(float(x) for x in h)
    except (TypeError, ValueError):
        costs = ()
    if len(costs) != 3 or not all(0.0 <= x < math.inf for x in costs):
        raise ValueError(f"holding costs h = {h!r} must be three finite numbers >= 0")
    return costs


def _float_key(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def replication_seed(seed: int, r: float, rep: int) -> np.random.SeedSequence:
    """Deterministic per-replication seed; it ignores the policy, so every
    policy sees the same streams (common random numbers)."""
    # The trailing 0 was a per-policy salt; it stays so the streams do not change.
    return np.random.SeedSequence(entropy=(seed, _SIM_TAG, _float_key(r), rep, 0))


def reference_seed(seed: int) -> np.random.SeedSequence:
    """Seed of the Brownian reference run, a family apart from every
    replication's, so the reference never shifts a replication."""
    return np.random.SeedSequence(entropy=(seed, _BCP_TAG))


def replicate(net: RNetwork, policy: str, horizon_scaled: float, seed: int, rep: int) -> Trajectory:
    """Replication rep of net under policy: the simulator run over the
    unscaled horizon r^2 * horizon_scaled on the streams of replication_seed.
    It walks the jump chain whose cost estimate_cost integrates for rep.
    A rep that is not a non-negative int raises ValueError."""
    if not is_seed(rep):
        raise ValueError(f"rep = {rep!r} must be a non-negative integer")
    return simulate(net, policy, net.r * net.r * horizon_scaled, replication_seed(seed, net.r, rep))


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


def estimate_cost(
    net: RNetwork,
    policy: str,
    gamma: float,
    h: Sequence[float],
    horizon_scaled: float,
    n_reps: int,
    seed: int,
) -> DiscountedCostRun:
    """Discounted diffusion-scaled cost of policy on net over horizon_scaled,
    averaged over n_reps replications of the uniformized jump chain.

    Replication k's cost has, in expectation over its roulette draw, the
    mean, given its jump chain, of what discounted_cost integrates along
    replicate(net, policy, horizon_scaled, seed, k), which walks the same
    chain; see _chain_cost. Past gamma t = 5 the replication goes on with
    probability 1/8, and what its steps there add to its value and to its
    tail counts 8 times, so mean and truncation_bound stay unbiased. Its
    chain uniforms and its roulette draw come from replication_seed(seed,
    r, k) alone, so different policies see the same draws (common random
    numbers). A run that event_budget refuses is refused before anything is
    allocated.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps = {n_reps!r} must be >= 1")
    if not (horizon_scaled > 0.0):
        raise ValueError(f"horizon_scaled = {horizon_scaled!r} must be > 0")
    h = _cost_rates(gamma, h)
    _require_policy(policy, net)
    weights = _chain_weights(net, gamma, horizon_scaled)

    values = np.empty(n_reps)
    tails = np.empty(n_reps)
    for rep in range(n_reps):
        values[rep], tails[rep] = _chain_cost(net, policy, weights, h, replication_seed(seed, net.r, rep))
    mean, stderr = _mc_summary(values)
    return DiscountedCostRun(
        r=net.r,
        policy=policy,
        mean=mean,
        stderr=stderr,
        n_reps=n_reps,
        horizon_scaled=horizon_scaled,
        truncation_bound=float(tails.mean()),
        threshold_low=net.threshold_low,
        threshold_high=net.threshold_high,
    )


def _poisson_window(mean: float) -> tuple[int, np.ndarray]:
    """(lo, p) with p[i] = P(Pois(mean) = lo + i) on the window
    mean +- (12 sqrt(mean) + 20), which holds all but < 1e-15 of the mass;
    p is normalized over the window. Neighbour ratios mean/k are multiplied
    out as a cumulative sum of logs, so no factorial is formed."""
    spread = 12.0 * math.sqrt(mean) + 20.0
    lo = max(0, math.floor(mean - spread))
    hi = math.ceil(mean + spread)
    log_p = np.zeros(hi - lo)
    np.cumsum(np.log(mean / np.arange(lo + 1, hi)), out=log_p[1:])
    p = np.exp(log_p - log_p.max())
    return lo, p / p.sum()


@dataclass(frozen=True)
class _ChainWeights:
    """Holding-time weights of the uniformized chain, shared by every
    replication of one (network, discount, horizon).

    The chain jumps at the epochs T_k of a Poisson clock of rate L
    (_clock_rate), so its k-th state Q_k is held over [T_k, T_k+1). With
    g = gamma/r^2 and U = r^2 H, integrating the clock out gives, given the
    chain, E int_0^U e^(-gu) h.Q(u) du = sum_k c_k h.Q_k with
    c_k = rho^k/(L+g) P(Pois((L+g)U) >= k+1), rho = L/(L+g), and the state
    at U is Q_k with probability P(Pois(LU) = k). Past
    K = ceil(m + 12 sqrt(m) + 20), m = (L+g)U, both fall below 1e-15, so
    the chain stops after K steps. The end weights are kept on their
    Poisson window alone (_poisson_window), which holds all but < 1e-15 of
    that law and 1.7-6.7% of the K steps at r = 160-40: 8.1-8.5 bytes of
    weights per step.

    Russian roulette cuts the steps from k1 = min(K, ceil(5 L r^2/gamma))
    on (bcp._roulette_cut on the chain's unscaled time: mean step 1/L,
    discount rate g): the chain's clock reaches gamma t = 5, in the mean,
    at step k1, and the weights past it hold about e^-5 of the mass.
    """

    value: np.ndarray     # (K,) c_k
    cut: int              # k1, the first step the roulette may cut
    end_lo: int           # first step of the end window
    end: np.ndarray       # P(Pois(LU) = k) for k = end_lo, end_lo + 1, ...
    value_scale: float    # r^-3: diffusion amplitude 1/r, time 1/r^2
    end_scale: float      # e^(-gamma H)/(r gamma): the final state held forever


def _chain_weights(net: RNetwork, gamma: float, horizon_scaled: float) -> _ChainWeights:
    """The weights of _ChainWeights; event_budget refuses an over-long run
    first, before any weight is formed."""
    horizon = net.r * net.r * horizon_scaled
    event_budget(net, horizon)
    rate = _clock_rate(net)
    g = gamma / (net.r * net.r)
    surv_lo, pmf = _poisson_window((rate + g) * horizon)
    n_steps = surv_lo + pmf.shape[0]
    value = np.arange(n_steps, dtype=float)
    value *= -math.log1p(g / rate)
    np.exp(value, out=value)
    value *= 1.0 / (rate + g)
    value[surv_lo:] *= np.append(np.cumsum(pmf[::-1])[::-1][1:], 0.0)  # P(Pois >= k+1); 1 below the window
    end_lo, end = _poisson_window(rate * horizon)
    return _ChainWeights(
        value=value,
        cut=_roulette_cut(n_steps, 1.0 / rate, g),
        end_lo=end_lo,
        end=end,
        value_scale=net.r**-3,
        end_scale=math.exp(-gamma * horizon_scaled) / (net.r * gamma),
    )


def _carried_sum(carry: float, terms: np.ndarray) -> float:
    """carry + terms[0] + terms[1] + ..., added left to right, so a sum
    carried across blocks has the bits of one sum over all of them."""
    terms[0] += carry
    return float(np.cumsum(terms)[-1])


def _chain_cost(net: RNetwork, policy: str, weights: _ChainWeights, h: tuple[float, float, float], seed: np.random.SeedSequence) -> PathCost:
    """One replication's discounted cost on the uniformized jump chain
    (simulate._walk), with the holding times integrated out (_ChainWeights).

    The walk runs in full up to step k1 (_ChainWeights.cut). Past it, it
    goes on with probability _ROULETTE_P (Russian roulette, as in
    bcp.estimate_j_star), and its value and end sums over [k1, K) count
    1/_ROULETTE_P times; a stopped replication walks k1 steps and reads no
    later uniform. So the cost keeps its expectation over the draw. The
    draw is the first double of the seed's child 1 (simulate._child; the
    clock of simulate is child 0), so the chain's uniforms are the seed's
    own and every policy meets the same draw. When k1 = K nothing is drawn
    or cut.

    The early and the late sums are each carried left to right across the
    walk's blocks, split at k1 inside the block that straddles it, so each
    has the bits of one sum over its steps. The end sums add only each
    block's overlap with the end window: the terms outside it are +0.0,
    which leave a carried sum of non-negative terms as it is.
    """
    h1, h2, h3 = h
    n_steps, cut = weights.value.shape[0], weights.cut
    stretches = ((0, cut), (cut, n_steps))
    if cut < n_steps:
        if np.random.Generator(np.random.PCG64(_child(seed, 1))).random() >= _ROULETTE_P:
            n_steps = cut
    value, end = [0.0, 0.0], [0.0, 0.0]
    end_lo = weights.end_lo
    end_hi = end_lo + weights.end.shape[0]
    for start, path in _walk(net, policy, seed, n_steps):
        hq = h1 * path[BUFFER1][:-1] + h2 * path[BUFFER2][:-1] + h3 * path[BUFFER3][:-1]
        stop = start + hq.shape[0]
        for i, (lo, hi) in enumerate(stretches):
            lo, hi = max(start, lo), min(stop, hi)
            if lo < hi:
                value[i] = _carried_sum(value[i], weights.value[lo:hi] * hq[lo - start : hi - start])
            lo, hi = max(lo, end_lo), min(hi, end_hi)
            if lo < hi:
                end[i] = _carried_sum(end[i], weights.end[lo - end_lo : hi - end_lo] * hq[lo - start : hi - start])
    return PathCost(
        (value[0] + value[1] / _ROULETTE_P) * weights.value_scale,
        (end[0] + end[1] / _ROULETTE_P) * weights.end_scale,
    )


@dataclass(frozen=True)
class SweepResult:
    runs: tuple[DiscountedCostRun, ...]
    j_star: CostEstimate

    def gap(self, run: DiscountedCostRun) -> float:
        """Relative distance of a run's estimate from the Brownian reference."""
        return (run.mean - self.j_star.mean) / self.j_star.mean


def convergence_sweep(config: Config, policies: Sequence[str], bcp_dt: float, bcp_paths: int) -> SweepResult:
    """Estimate the scaled discounted cost across config.r_list and the
    named policies, next to the Brownian reference value on a bcp_dt grid
    over bcp_paths paths.

    Needs at least two r values (a single point cannot show a trend), and
    no r value or policy twice (a repeat would only print its row again).
    Warns when the requested log-coefficient sits below the guaranteed
    regime.
    Every input is checked before the first replication is simulated, and
    before any warning, so a rejected input reports only its error.
    """
    limits = config.limits
    if len(set(config.r_list)) < len(config.r_list):
        raise ValueError(f"r_list repeats a value: {list(config.r_list)}")
    if len(config.r_list) < 2:
        raise ValueError("r_list must contain at least two values to show a trend")
    if not policies:
        raise ValueError("need at least one policy")
    if len(set(policies)) < len(policies):
        raise ValueError(f"policies repeat a name: {list(policies)}")
    nets = [make_r_network(limits, r, config.ell0, config.c) for r in config.r_list]
    for net in nets:
        event_budget(net, net.r * net.r * config.horizon)
    for policy in policies:
        _require_policy(policy, nets[0])
    # The reference draws from its own seed family, so running it first
    # changes no replication. It also checks its grid and path count.
    j_star = estimate_j_star(limits, dt=bcp_dt, n_paths=bcp_paths, seed=reference_seed(config.seed))
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
    runs = tuple(
        estimate_cost(net, policy, limits.gamma, limits.h, config.horizon, config.replications, config.seed)
        for net in nets
        for policy in policies
    )
    return SweepResult(runs=runs, j_star=j_star)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Pathwise state-space-collapse diagnostics over [0, t_end], t_end
    clipped to the record's last time.

    collapse_sup1: largest scaled buffer-1 content in states outside the
    threshold rule's safe regime, q3 - ratio*q1 >= low (RNetwork.levels).
    collapse_sup3: largest scaled downstream content in the safe regime.
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
    if not (0.0 <= d < math.inf):
        raise ValueError(f"idleness guard level d = {d!r} must be finite and >= 0")
    r = scaled.r
    times = scaled.times
    t_end = min(t_end, float(times[-1]))
    in_window = times[:-1] < t_end

    q1 = scaled.queues[:, 0]
    q3 = scaled.queues[:, 2]
    ratio, low, _, _ = net.levels
    above = scaled.traj.queues[:, 2] - ratio * scaled.traj.queues[:, 0] >= low

    # Row k describes [t_k, t_{k+1}); the window covers rows with t_k < t_end.
    rows = np.flatnonzero(in_window) if in_window.size else np.array([0])
    sel_above = above[rows]
    sup1 = float(q1[rows][sel_above].max()) if sel_above.any() else 0.0
    sup3 = float(q3[rows][~sel_above].max()) if (~sel_above).any() else 0.0
    product_sup = float((q1[rows] * q3[rows]).max())

    kappa = kappa_bound(net.mu, net.c, constants.theta3)
    collapse_level = kappa * (net.threshold_high - net.threshold_low + 1) / r
    idle_level = d * net.ell0 * math.log(r) / r

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


def collapse_bound(net: RNetwork, constants: ThresholdConstants, t: float) -> tuple[float, bool]:
    """Theoretical ceiling on the collapse-event probability, and whether it
    says anything (bounds >= 1 are vacuous at desk scale).

    The leading constants are existential; they are set to 1, so only the
    explicit polynomial and power-law parts carry information.
    """
    r = net.r
    value = (1.0 + r**4 * t * t) * (math.exp(-r * r * t) + r ** (-constants.theta3 * (net.c - 1.0) * net.ell0))
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
    if not (0.0 < rate < math.inf):
        raise ValueError(f"rate = {rate!r} must be finite and > 0")
    if not (0.0 < eps < rate):
        raise ValueError(f"need 0 < eps < rate, got eps = {eps!r}, rate = {rate!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples = {n_samples!r} must be >= 1")
    if len(t_grid) == 0:
        raise ValueError("t_grid must hold at least one window length")
    for t in t_grid:
        if not (0.0 <= t < math.inf):
            raise ValueError(f"window length t = {t!r} must be finite and >= 0")
        if rate * t > _POISSON_MEAN_MAX:
            raise ValueError(
                f"window length t = {t!r} at rate = {rate!r} needs a Poisson mean of {rate * t:.3g}, "
                f"above the sampler's limit of {_POISSON_MEAN_MAX:.3g}"
            )
    decay = varsigma2(rate, eps)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, _LD_TAG))))
    rows = []
    for t in t_grid:
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
