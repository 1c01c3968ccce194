"""Brownian comparison model: the limiting free process, its reflected
workloads, the cheapest queue configuration along them, and Monte Carlo
estimation of the limiting discounted cost.

The two projected workload netputs are correlated Brownian motions; their
one-sided reflections are simulated on a regular grid. By default each
step's within-interval minimum is drawn from the exact Brownian-bridge
minimum law, which removes the O(sqrt(dt)) downward bias of reflecting the
sampled skeleton only; plain running-minimum reflection remains available.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .params import NetworkLimits, validate_limits
from .workload import WorkloadMatrix, effective_cost_coefficients

__all__ = [
    "LimitBm",
    "RbmPath",
    "CostEstimate",
    "AdmissibilityReport",
    "simulate_rbm",
    "optimal_queue_path",
    "estimate_j_star",
    "admissibility_audit",
]

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]

# Paths simulated per batch. The batch layout fixes the order of the random
# draws, so changing it changes every estimate.
_BATCH_SIZE = 128


@dataclass(frozen=True)
class LimitBm:
    """Drift and covariance of the limiting three-dimensional free process."""

    drift: np.ndarray
    cov: np.ndarray

    @classmethod
    def from_limits(cls, limits: NetworkLimits) -> "LimitBm":
        report = validate_limits(limits)
        if not report.ok:
            raise ValueError(str(report))
        lam1, lam2 = limits.lam
        mu1, mu2, mu3 = limits.mu
        b1, b2, b3 = limits.b
        drift = np.array([mu1 * b1, mu2 * b2, mu3 * b3 - mu2 * b2])
        cov = np.array(
            [
                [2.0 * lam1, 0.0, 0.0],
                [0.0, 2.0 * lam2, -lam2],
                [0.0, -lam2, 2.0 * lam2],
            ]
        )
        return cls(drift=drift, cov=cov)

    @property
    def chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.cov)


def _workload_projection(limits: NetworkLimits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift, covariance, and Cholesky factor of the two workload netputs."""
    bm = LimitBm.from_limits(limits)
    proj = WorkloadMatrix(limits.mu).array
    drift = proj @ bm.drift
    cov = proj @ bm.cov @ proj.T
    return drift, cov, np.linalg.cholesky(cov)


@dataclass
class RbmPath:
    """One simulated path of the reflected workload pair.

    workload[k] = netput workload + pushing[k] >= 0 with pushing nondecreasing
    from 0 (the minimal amount of idleness needed to keep workloads
    nonnegative). netput holds the free three-dimensional path when the
    simulation kept it.
    """

    times: np.ndarray            # (n+1,)
    workload: np.ndarray         # (n+1, 2)
    pushing: np.ndarray          # (n+1, 2)
    netput: np.ndarray | None    # (n+1, 3)
    dt: float


def _as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _reflect_grid(x: np.ndarray, step_var: np.ndarray, gen, bridge: bool) -> np.ndarray:
    """Pushing processes for free paths x of shape (k, n+1, m).

    With bridge=True the within-step minima are drawn from the exact bridge
    minimum law per coordinate: m = (a + b - sqrt((b-a)^2 - 2 v ln U))/2
    given step endpoints a, b and step variance v.
    """
    if bridge:
        a = x[:, :-1, :]
        b = x[:, 1:, :]
        u = gen.random(size=a.shape)
        disc = (b - a) ** 2 - 2.0 * step_var * np.log(u)
        minima = 0.5 * (a + b - np.sqrt(disc))
        low = np.minimum.accumulate(np.minimum(minima, 0.0), axis=1)
        pushing = np.concatenate([np.zeros_like(x[:, :1, :]), -low], axis=1)
    else:
        low = np.minimum.accumulate(np.minimum(x, 0.0), axis=1)
        pushing = -low
    return pushing


def simulate_rbm(
    limits: NetworkLimits,
    dt: float,
    horizon: float,
    seed: SeedLike,
    bridge_minima: bool = True,
) -> RbmPath:
    """Simulate one reflected-workload path on a regular grid.

    Keeps the free three-dimensional path so the queue reconstruction and
    admissibility audits can run on the result.
    """
    if not (dt > 0.0) or not (horizon > 0.0):
        raise ValueError(f"need dt > 0 and horizon > 0, got dt={dt!r}, horizon={horizon!r}")
    n = int(round(horizon / dt))
    if n < 1:
        raise ValueError(f"horizon {horizon!r} shorter than one step dt={dt!r}")
    gen = _as_generator(seed)
    bm = LimitBm.from_limits(limits)
    chol = bm.chol
    z = gen.standard_normal(size=(n, 3))
    incr = (z @ chol.T) * math.sqrt(dt) + bm.drift * dt
    x = np.zeros((n + 1, 3))
    np.cumsum(incr, axis=0, out=x[1:])

    proj = WorkloadMatrix(limits.mu).array
    free_w = x @ proj.T                       # (n+1, 2)
    _, pcov, _ = _workload_projection(limits)
    step_var = np.diag(pcov) * dt
    pushing = _reflect_grid(free_w[None, :, :], step_var, gen, bridge_minima)[0]
    times = np.arange(n + 1) * dt
    return RbmPath(times=times, workload=free_w + pushing, pushing=pushing, netput=x, dt=dt)


def optimal_queue_path(path: RbmPath, limits: NetworkLimits) -> np.ndarray:
    """Cheapest queue configuration carrying the path's workloads, per step."""
    mu1, mu2, mu3 = limits.mu
    w1 = path.workload[:, 0]
    w2 = path.workload[:, 1]
    heavy3 = mu3 * w2 >= mu2 * w1
    q = np.empty((w1.shape[0], 3))
    q[:, 0] = np.where(heavy3, 0.0, (mu1 / mu2) * (mu2 * w1 - mu3 * w2))
    q[:, 1] = np.where(heavy3, mu2 * w1, mu3 * w2)
    q[:, 2] = np.where(heavy3, mu3 * w2 - mu2 * w1, 0.0)
    return q


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo mean with its standard error (None for a single path).

    estimate_j_star fills marginals with the discounted integrals of the two
    reflected workload coordinates, estimated on the same paths.
    """

    mean: float
    stderr: float | None
    n_paths: int
    dt: float
    horizon: float
    truncation_bound: float
    marginals: tuple["CostEstimate", "CostEstimate"] | None = None


def _tail_bound(gamma: float, horizon: float, coeff: np.ndarray, sigma: np.ndarray, drift: np.ndarray) -> float:
    """Upper bound on the discounted cost ignored beyond the horizon.

    Uses E W(t) <= sigma sqrt(2t/pi) + |drift| t for each reflected
    coordinate and integral_T^inf e^{-g t} sqrt(t) dt <=
    e^{-g T} (sqrt(T)/g + sqrt(pi)/(2 g^(3/2))).
    """
    T, g = horizon, gamma
    root_part = math.sqrt(T) / g + math.sqrt(math.pi) / (2.0 * g ** 1.5)
    lin_part = T / g + 1.0 / (g * g)
    total = 0.0
    for a, s, d in zip(coeff, sigma, drift):
        total += a * (s * math.sqrt(2.0 / math.pi) * root_part + abs(d) * lin_part)
    return math.exp(-g * T) * total


def _discount_weights(gamma: float, n_steps: int, dt: float) -> np.ndarray:
    t = np.arange(n_steps + 1) * dt
    return (np.exp(-gamma * t[:-1]) - np.exp(-gamma * t[1:])) / gamma


def _mc_summary(samples: np.ndarray) -> tuple[float, float | None]:
    mean = float(samples.mean())
    if samples.size < 2:
        return mean, None
    return mean, float(samples.std(ddof=1) / math.sqrt(samples.size))


def estimate_j_star(
    limits: NetworkLimits,
    dt: float = 1e-3,
    horizon: float | None = None,
    n_paths: int = 100_000,
    seed: SeedLike = 0,
    bridge_minima: bool = True,
) -> CostEstimate:
    """Monte Carlo estimate of the limiting optimal discounted holding cost.

    Integrates the minimal holding cost of the reflected workload pair with
    exact per-step exponential weights (integrand held at the left grid
    point). horizon defaults to 15/gamma.

    The same paths also give the discounted integral of each reflected
    workload coordinate, returned in the result's marginals. These have
    closed forms when the drift offsets vanish (the reflected coordinates
    are then driftless Brownian motions), which makes them the calibration
    target for the grid scheme.
    """
    gamma = limits.gamma
    if horizon is None:
        horizon = 15.0 / gamma
    if not (dt > 0.0) or not (horizon > 0.0) or n_paths < 1:
        raise ValueError("need dt > 0, horizon > 0, n_paths >= 1")
    n = int(round(horizon / dt))
    gen = _as_generator(seed)
    heavy3, heavy1 = effective_cost_coefficients(limits.mu, limits.h)
    mu1, mu2, mu3 = limits.mu
    pdrift, pcov, pchol = _workload_projection(limits)
    step_var = np.diag(pcov) * dt
    sqdt = math.sqrt(dt)
    wts = _discount_weights(gamma, n, dt)

    # Per-path discounted integrals: the cost, then each workload coordinate.
    samples = [np.empty(n_paths) for _ in range(3)]
    for start in range(0, n_paths, _BATCH_SIZE):
        k = min(_BATCH_SIZE, n_paths - start)
        z = gen.standard_normal(size=(k, n, 2))
        incr = (z @ pchol.T) * sqdt + pdrift * dt
        x = np.concatenate([np.zeros((k, 1, 2)), np.cumsum(incr, axis=1)], axis=1)
        w = x + _reflect_grid(x, step_var, gen, bridge_minima)
        w1 = w[:, :-1, 0]
        w2 = w[:, :-1, 1]
        cost = np.where(
            mu3 * w2 >= mu2 * w1,
            heavy3[0] * w1 + heavy3[1] * w2,
            heavy1[0] * w1 + heavy1[1] * w2,
        )
        rows = slice(start, start + k)
        samples[0][rows] = cost @ wts
        samples[1][rows] = w1 @ wts
        samples[2][rows] = w2 @ wts

    sigma = np.sqrt(np.diag(pcov))
    coeffs = (
        np.array([max(heavy3[0], heavy1[0]), max(heavy3[1], heavy1[1])]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
    )
    cost_est, *marginals = (
        CostEstimate(
            *_mc_summary(values),
            n_paths=n_paths,
            dt=dt,
            horizon=horizon,
            truncation_bound=_tail_bound(gamma, horizon, coeff, sigma, pdrift),
        )
        for values, coeff in zip(samples, coeffs)
    )
    return replace(cost_est, marginals=tuple(marginals))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Residuals from reconstructing the limit control behind a reflected path."""

    ok: bool
    queue_residual: float        # reconstructed queues vs cheapest configuration
    queue_floor: float           # most negative reconstructed queue component
    idle_residual: float         # server idleness vs pushing processes
    pushing_start: float         # |pushing at t=0|
    pushing_monotone: float      # most negative pushing increment
    workload_residual: float     # workload vs netput workload + pushing
    workload_floor: float        # most negative workload value


def admissibility_audit(path: RbmPath, limits: NetworkLimits, atol: float = 1e-9) -> AdmissibilityReport:
    """Rebuild the allocation-shift processes behind a path and check they
    form an admissible control whose queues match the cheapest configuration.
    """
    if path.netput is None:
        raise ValueError("path must carry its free process (netput) for the audit")
    mu1, mu2, mu3 = limits.mu
    x1, x2, x3 = path.netput[:, 0], path.netput[:, 1], path.netput[:, 2]
    v1, v2 = path.pushing[:, 0], path.pushing[:, 1]
    w = path.workload
    heavy3 = mu3 * w[:, 1] >= mu2 * w[:, 0]

    y1 = np.where(heavy3, -x1 / mu1, -x3 / mu2 + v1 - (mu3 / mu2) * v2)
    y2 = np.where(heavy3, x1 / mu1 + v1, x3 / mu2 + (mu3 / mu2) * v2)
    y3 = v2

    q = np.stack([x1 + mu1 * y1, x2 + mu2 * y2, x3 - mu2 * y2 + mu3 * y3], axis=1)
    q_star = optimal_queue_path(path, limits)

    proj = WorkloadMatrix(limits.mu).array
    w_free = path.netput @ proj.T

    report = AdmissibilityReport(
        ok=False,
        queue_residual=float(np.abs(q - q_star).max()),
        queue_floor=float(q.min()),
        idle_residual=float(np.abs((y1 + y2) - v1).max()),
        pushing_start=float(np.abs(path.pushing[0]).max()),
        pushing_monotone=float(np.diff(path.pushing, axis=0).min()) if len(path.pushing) > 1 else 0.0,
        workload_residual=float(np.abs(w - (w_free + path.pushing)).max()),
        workload_floor=float(w.min()),
    )
    ok = (
        report.queue_residual <= atol
        and report.queue_floor >= -atol
        and report.idle_residual <= atol
        and report.pushing_start <= atol
        and report.pushing_monotone >= -atol
        and report.workload_residual <= atol
        and report.workload_floor >= -atol
    )
    return replace(report, ok=ok)
