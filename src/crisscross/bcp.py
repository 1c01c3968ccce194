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

import numpy as np

from .params import NetworkLimits, _require_valid, is_seed
from .simulate import SeedLike
from .workload import WorkloadMatrix, cheapest_queues, effective_cost_coefficients

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

# Bytes of one (paths, 2, steps) work tile. Tiles hold whole paths, at
# least one, so no running sum or minimum crosses a tile; the budget only
# sets how many paths share a tile, never a result bit.
_TILE_BYTES = 1 << 18

# Largest buffers estimate_j_star allocates: a tile of n-step paths holds
# 6 n + 2 floats per path (normals, uniforms and workloads) and 24 more for
# the carries of the late stretch and their compaction; each path keeps 4
# discounted integrals, and their summaries take at most 8 floats per path
# more (the centred controls and cost, and lstsq's copies of them). 2 GiB
# admit one path of 44 million steps.
_MAX_BUFFER_BYTES = 2 << 30

# Russian roulette past gamma t = _ROULETTE_AFTER: the discount weights
# there hold e^-5 (0.7%) of the mass but, at the default horizon 15/gamma,
# two-thirds of a path's steps. So a path runs its late stretch with
# probability _ROULETTE_P, and that stretch's integrals are weighted by
# 1/_ROULETTE_P (Glasserman 2003, sec. 4): each path keeps its expectation
# and the paths stay i.i.d. experiments._chain_cost cuts the chain's
# replications the same way.
_ROULETTE_AFTER = 5.0
_ROULETTE_P = 0.125

# Float tolerance of every residual in admissibility_audit.
_AUDIT_ATOL = 1e-9


@dataclass(frozen=True)
class LimitBm:
    """Drift and covariance of the limiting three-dimensional free process."""

    drift: np.ndarray
    cov: np.ndarray

    @classmethod
    def from_limits(cls, limits: NetworkLimits) -> "LimitBm":
        _require_valid(limits)
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


def _workload_projection(bm: LimitBm, proj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift, covariance, and Cholesky factor of the two workload netputs."""
    drift = proj @ bm.drift
    cov = proj @ bm.cov @ proj.T
    return drift, cov, np.linalg.cholesky(cov)


@dataclass
class RbmPath:
    """One simulated path of the reflected workload pair.

    workload[k] = netput workload + pushing[k] >= 0 with pushing nondecreasing
    from 0 (the minimal amount of idleness needed to keep workloads
    nonnegative). netput holds the free three-dimensional path; simulate_rbm
    always keeps it, and admissibility_audit refuses a path without it.
    """

    times: np.ndarray            # (n+1,)
    workload: np.ndarray         # (n+1, 2)
    pushing: np.ndarray          # (n+1, 2)
    netput: np.ndarray | None    # (n+1, 3)
    dt: float


def _grid_steps(dt: float, horizon: float) -> int:
    """Number of grid steps of length dt covering [0, horizon]; at least one."""
    if not (0.0 < dt < math.inf) or not (0.0 < horizon < math.inf):
        raise ValueError(f"need finite dt > 0 and horizon > 0, got dt={dt!r}, horizon={horizon!r}")
    ratio = horizon / dt
    if not math.isfinite(ratio):
        raise ValueError(f"horizon {horizon!r} over dt={dt!r} overflows the step count")
    n = int(round(ratio))
    if n < 1:
        raise ValueError(f"horizon {horizon!r} shorter than one step dt={dt!r}")
    return n


def _roulette_cut(n_steps: int, dt: float, gamma: float) -> int:
    """The step at which Russian roulette cuts a run of n_steps steps of
    length dt, discounted at rate gamma: the first one at or past
    gamma t = _ROULETTE_AFTER, or n_steps if none is."""
    return min(n_steps, math.ceil(_ROULETTE_AFTER / (gamma * dt)))


def _running_low(
    x: np.ndarray, u: np.ndarray | None, two_var: np.ndarray, out: np.ndarray, floor: np.ndarray | float
) -> None:
    """Minus the pushing of free paths x (g, m, k+1), given the low floor
    (<= 0, broadcast against out) that they carry in, into out.

    Time runs along the last axis. out (g, m, k) receives the running
    minimum of the step minima and floor, so the pushing is -floor at the
    start and -out after it; a path from 0 carries in floor 0. Each step's
    minimum is the smaller endpoint, or, given uniforms u of out's shape, a
    draw from the exact bridge minimum law per coordinate:
    m = (a + b - sqrt((b-a)^2 - 2 v ln U))/2 given step endpoints a, b and
    step variance v; two_var holds 2 v and broadcasts against out. Every
    stage runs in place, and u is used up as scratch. fmin is minimum but
    for NaN, and no step minimum is NaN.
    """
    a = x[..., :-1]
    b = x[..., 1:]
    if u is None:
        np.minimum(a, b, out=out)
    else:
        np.subtract(b, a, out=out)
        np.square(out, out=out)
        np.log(u, out=u)
        u *= two_var
        out -= u
        np.sqrt(out, out=out)
        np.add(a, b, out=u)
        np.subtract(u, out, out=out)
        out *= 0.5
    np.minimum(out, floor, out=out)
    np.fmin.accumulate(out, axis=-1, out=out)


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
    n = _grid_steps(dt, horizon)
    gen = np.random.Generator(np.random.PCG64(seed))
    bm = LimitBm.from_limits(limits)
    chol = bm.chol
    z = gen.standard_normal(size=(n, 3))
    incr = (z @ chol.T) * math.sqrt(dt) + bm.drift * dt
    x = np.zeros((n + 1, 3))
    np.cumsum(incr, axis=0, out=x[1:])

    proj = WorkloadMatrix(limits.mu).array
    free_w = x @ proj.T                       # (n+1, 2)
    _, pcov, _ = _workload_projection(bm, proj)
    step_var = np.diag(pcov) * dt
    u = gen.random(size=(n, 2)).T[None] if bridge_minima else None
    pushing = np.zeros((n + 1, 2))
    _running_low(free_w.T[None], u, 2.0 * step_var[:, None], pushing.T[None, :, 1:], 0.0)
    np.negative(pushing[1:], out=pushing[1:])
    times = np.arange(n + 1) * dt
    return RbmPath(times=times, workload=free_w + pushing, pushing=pushing, netput=x, dt=dt)


def optimal_queue_path(path: RbmPath, limits: NetworkLimits) -> np.ndarray:
    """Cheapest queue configuration carrying the path's workloads, per step."""
    return cheapest_queues(path.workload, limits.mu)


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


def _discount_weights(gamma: float, t: np.ndarray) -> np.ndarray:
    """The weights (e^(-gamma t_k) - e^(-gamma t_k+1)) / gamma of a state held
    over [t_k, t_k+1), for each of the n steps of the n + 1 times t: its
    discounted integral is the state times its weight, with no quadrature
    error. discounted_cost and estimate_j_star both read these weights."""
    decay = np.exp(-gamma * t)
    return (decay[:-1] - decay[1:]) / gamma


def _erf(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erf, x), float, count=x.size)


def _reflected_mean(drift: float, sigma: float, t: np.ndarray) -> np.ndarray:
    """E W(t) of a Brownian motion with drift and sd sigma, reflected at 0 from 0.

    W(t) has the law of the running maximum over [0, t] (Harrison 1985,
    ch. 1): E W(t) = sigma sqrt(t) phi(a) + drift t Phi(a)
    + (sigma^2 / (2 drift)) erf(a / sqrt 2) with a = drift sqrt(t) / sigma.
    2 Phi(a) - 1 is written as erf so that a tiny |drift| does not cancel.
    """
    root_t = np.sqrt(t)
    if drift == 0.0:
        return sigma * math.sqrt(2.0 / math.pi) * root_t
    a = (drift / sigma) * root_t
    e = _erf(a / math.sqrt(2.0))
    phi = np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return sigma * root_t * phi + drift * t * (0.5 + 0.5 * e) + sigma * sigma / (2.0 * drift) * e


def _folded_mean(drift: float, sigma: float, t: np.ndarray) -> np.ndarray:
    """E |X(t)| of a Brownian motion X with drift and sd sigma, from 0.

    X(t) is normal with mean drift t and sd sigma sqrt(t), so its folded
    mean is sigma sqrt(t) sqrt(2/pi) e^(-a^2/2) + drift t erf(a / sqrt 2)
    with a = drift sqrt(t) / sigma.
    """
    root_t = np.sqrt(t)
    if drift == 0.0:
        return sigma * math.sqrt(2.0 / math.pi) * root_t
    a = (drift / sigma) * root_t
    return sigma * math.sqrt(2.0 / math.pi) * root_t * np.exp(-0.5 * a * a) + drift * t * _erf(a / math.sqrt(2.0))


def _mc_summary(samples: np.ndarray) -> tuple[float, float | None]:
    mean = float(samples.mean())
    if samples.size < 2:
        return mean, None
    return mean, float(samples.std(ddof=1) / math.sqrt(samples.size))


def _control_variate_summary(cost: np.ndarray, controls: np.ndarray, means: np.ndarray) -> tuple[float, float | None]:
    """Mean and stderr of cost with the rows of controls, whose exact means
    are known, as control variates (Glasserman 2003, sec. 4.1).

    beta is the least squares fit of the centred cost on the centred
    controls, from the same samples; the estimate is
    mean(cost) - beta . (mean(controls) - means), and its stderr is the
    residual sd, on n - 1 - len(controls) degrees of freedom, over sqrt(n).
    With no residual degree of freedom it is the plain summary.
    """
    n = cost.size
    dof = n - 1 - controls.shape[0]
    if dof < 1:
        return _mc_summary(cost)
    control_bar = controls.mean(axis=1)
    x = (controls - control_bar[:, None]).T
    y = cost - cost.mean()
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    y -= x @ beta
    mean = float(cost.mean() - beta @ (control_bar - means))
    np.square(y, out=y)
    return mean, float(math.sqrt(np.add.reduce(y) / dof) / math.sqrt(n))


def _tile_paths(n_steps: int) -> int:
    """Paths per work tile on an n_steps grid: as many as _TILE_BYTES holds, at least one."""
    return max(1, _TILE_BYTES // (16 * n_steps))


def _buffer_need(n_steps: int, n_paths: int) -> int:
    """Bytes of the buffers that estimate_j_star allocates for n_paths paths
    of n_steps steps, by the count at _MAX_BUFFER_BYTES."""
    return 8 * (min(_tile_paths(n_steps), n_paths) * (6 * n_steps + 26) + 12 * n_paths)


def _draw(gen: np.random.Generator, z: np.ndarray, u: np.ndarray | None) -> None:
    """One path's stretch of the stream: its normals z (2, k), row by row,
    then, if given, its uniforms u (2, k), row by row."""
    for row in z:
        gen.standard_normal(out=row)
    if u is not None:
        for row in u:
            gen.random(out=row)


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
    point). horizon defaults to 15/gamma. A run whose tile buffers,
    per-path integrals and summaries would exceed _MAX_BUFFER_BYTES is
    refused before anything is allocated.

    Each path runs in full up to grid step n1 = min(n, ceil(5/(gamma dt))).
    Past it, the path goes on with probability 1/8, and its integrals over
    the steps [n1, n) are weighted by 8 (Russian roulette, _ROULETTE_AFTER
    and _ROULETTE_P). Every per-path value keeps its expectation, and the
    paths stay i.i.d., so the stderr and the controls' exact means below
    hold as they are. At horizons up to 5/gamma no path is cut.

    The same paths also give the discounted integral of each reflected
    workload coordinate, returned in the result's marginals as plain means.
    These have closed forms when the drift offsets vanish (the reflected
    coordinates are then driftless Brownian motions), which makes them the
    calibration target for the grid scheme.

    The minimal cost is convex and piecewise linear in the workload w:
    heavy1 . w + (l . w)+ with l = heavy3 - heavy1, whose kink is the
    switching line mu3 w2 = mu2 w1 (l . w = (g1/mu2)(mu3 w2 - mu2 w1) with
    g1 > 0 for valid limits). Each path's cost integral is formed that way,
    from its two workload integrals and the integral of (l . w)+.

    With bridge minima each reflected workload coordinate (not their joint
    law) is exact in law at the grid points, so the marginals' means on the
    grid are known exactly (_reflected_mean). So is the mean of the
    discounted integral of |l . X| over the free workload netput X, which is
    normal at each grid point (_folded_mean). The cost is reported with
    these three integrals as control variates: the two marginals take out
    its linear part, the free kink most of the rest. Without bridge minima,
    or below five paths, the cost is the plain mean.
    """
    gamma = limits.gamma
    if horizon is None:
        horizon = 15.0 / gamma
    if not is_seed(n_paths) or n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths!r}")
    n = _grid_steps(dt, horizon)
    need = _buffer_need(n, n_paths)
    if need > _MAX_BUFFER_BYTES:
        raise ValueError(
            f"{n:.3g} steps x {n_paths} paths need {need / 2**30:.3g} GiB of tile buffers, per-path "
            f"integrals and their summaries, over the limit of {_MAX_BUFFER_BYTES / 2**30:g} GiB"
        )
    n1 = _roulette_cut(n, dt, gamma)
    gen = np.random.Generator(np.random.PCG64(seed))
    heavy3, heavy1 = effective_cost_coefficients(limits.mu, limits.h)
    ell = np.subtract(heavy3, heavy1)
    bm = LimitBm.from_limits(limits)
    pdrift, pcov, pchol = _workload_projection(bm, WorkloadMatrix(limits.mu).array)
    step_var = np.diag(pcov) * dt
    corr = math.sqrt(dt) * pchol
    grid = np.arange(n + 1) * dt
    wts = _discount_weights(gamma, grid)
    drift_dt = (pdrift * dt)[:, None]
    two_var = (2.0 * step_var)[:, None]

    def integrals(
        x: np.ndarray, z: np.ndarray, u: np.ndarray | None, floor: np.ndarray, wts: np.ndarray, out: np.ndarray
    ) -> None:
        """The discounted integrals of a stretch of k steps of g paths, into
        out: the cost, each workload coordinate and, given uniforms, the
        free kink |l . X|, one column per path.

        x (g, 2, k+1) holds each path's free workload netput at the
        stretch's start in column 0, z (g, 2, k) and u (g, 2, k) its
        normals and uniforms, and floor (g, 2, 1) its running low carried
        in. Every stage runs in place, using z and u up as scratch. The
        integrands are held at the k left points with weights wts. On
        return x's last column still holds the free value at the stretch's
        end, and floor the running low there, for the next stretch.
        """
        # The increments corr z + drift dt (corr is lower triangular),
        # summed in place into the free paths from their start values.
        free = x[:, :, 1:]
        np.multiply(z[:, 0], corr[0, 0], out=free[:, 0])
        np.multiply(z[:, 0], corr[1, 0], out=free[:, 1])
        z[:, 1] *= corr[1, 1]
        free[:, 1] += z[:, 1]
        free += drift_dt
        np.cumsum(x, axis=2, out=x)
        left = x[:, :, :-1]
        c, s = z[:, 0], z[:, 1]
        # Each discount sum weights a row in place and adds it up on its
        # own, pairwise, so a path's bits depend neither on the paths that
        # share its tile nor on BLAS (whose dot splits long rows by thread).
        if u is not None:
            # |l . X| of the free netput at the left points, before reflection.
            np.multiply(left[:, 0], ell[0], out=c)
            np.multiply(left[:, 1], ell[1], out=s)
            c += s
            np.absolute(c, out=c)
            c *= wts
            np.add.reduce(c, axis=-1, out=out[3])
        _running_low(x, u, two_var, z, floor)
        left[..., :1] -= floor
        floor[...] = z[..., -1:]
        left[..., 1:] -= z[..., :-1]
        # The cost beyond heavy1's linear form: (l . w)+.
        np.multiply(left[:, 0], ell[0], out=c)
        np.multiply(left[:, 1], ell[1], out=s)
        c += s
        np.maximum(c, 0.0, out=c)
        c *= wts
        left *= wts
        m = np.add.reduce(left, axis=-1, out=out[1:3].T)
        out[0] = heavy1[0] * m[:, 0] + heavy1[1] * m[:, 1] + np.add.reduce(c, axis=-1)

    # Per-path discounted integrals, one column per path: the cost, each
    # workload coordinate and, with bridge minima, which alone use it, the
    # free kink |l . X|.
    samples = np.empty((4 if bridge_minima else 3, n_paths))
    # Each path draws its own stretch of the stream: its early normals
    # (steps [0, n1)), row 0 then row 1, then, with bridge minima, its early
    # uniforms the same way; then, if n1 < n, one roulette uniform, and only
    # if that is below _ROULETTE_P, its late normals and late uniforms. So a
    # path depends only on the seed, the grid and its index. Tiles of whole
    # paths run every stage in place on planar (tile, 2, n) buffers, so the
    # sums and running minima scan contiguous rows: x holds the free paths
    # and then the workloads, z the normals and then scratch, u the
    # uniforms and then scratch. A tile's continuing paths draw their late
    # stretch into columns n1: of the front rows, in order, and run it
    # there once the tile's early stretch is done, carrying each path's
    # free value and running low at n1 over into those rows.
    tile = min(_tile_paths(n), n_paths)
    z = np.empty((tile, 2, n))
    u = np.empty((tile, 2, n)) if bridge_minima else None
    x = np.empty((tile, 2, n + 1))
    x[:, :, 0] = 0.0
    floor = np.empty((tile, 2, 1))
    late_sums = np.empty((samples.shape[0], tile))
    early, late = np.s_[..., :n1], np.s_[..., n1:]
    for start in range(0, n_paths, tile):
        g = min(tile, n_paths - start)
        going_on = []
        for i in range(g):
            _draw(gen, z[i][early], None if u is None else u[i][early])
            if n1 < n and gen.random() < _ROULETTE_P:
                k = len(going_on)
                _draw(gen, z[k][late], None if u is None else u[k][late])
                going_on.append(i)
        floor[:g] = 0.0
        integrals(
            x[:g, :, : n1 + 1], z[:g][early], None if u is None else u[:g][early], floor[:g], wts[:n1],
            samples[:, start : start + g],
        )
        m = len(going_on)
        if m:
            rows = np.array(going_on)
            x[:m, :, n1] = x[rows, :, n1]
            floor[:m] = floor[rows]
            integrals(
                x[:m, :, n1:], z[:m][late], None if u is None else u[:m][late], floor[:m], wts[n1:],
                late_sums[:, :m],
            )
            samples[:, start + rows] += late_sums[:, :m] / _ROULETTE_P

    sigma = np.sqrt(np.diag(pcov))
    summaries = [_mc_summary(values) for values in samples[:3]]
    if bridge_minima:
        # Bridge minima make each coordinate of W (not their joint law)
        # exact in law at the grid points, so the workload integrals' grid
        # means control the cost; the free kink's is exact either way.
        t = grid[:-1]
        means = [np.add.reduce(wts * _reflected_mean(d, sd, t)) for d, sd in zip(pdrift, sigma)]
        means.append(np.add.reduce(wts * _folded_mean(float(ell @ pdrift), math.sqrt(ell @ pcov @ ell), t)))
        summaries[0] = _control_variate_summary(samples[0], samples[1:], np.array(means))
    coeffs = (
        np.array([max(heavy3[0], heavy1[0]), max(heavy3[1], heavy1[1])]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
    )
    cost_est, *marginals = (
        CostEstimate(
            *summary,
            n_paths=n_paths,
            dt=dt,
            horizon=horizon,
            truncation_bound=_tail_bound(gamma, horizon, coeff, sigma, pdrift),
        )
        for summary, coeff in zip(summaries, coeffs)
    )
    return replace(cost_est, marginals=tuple(marginals))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Residuals from reconstructing the limit control behind a reflected path."""

    queue_residual: float        # reconstructed queues vs cheapest configuration
    queue_floor: float           # most negative reconstructed queue component
    idle_residual: float         # server idleness vs pushing processes
    pushing_start: float         # |pushing at t=0|
    pushing_monotone: float      # most negative pushing increment
    workload_residual: float     # workload vs netput workload + pushing
    workload_floor: float        # most negative workload value

    @property
    def ok(self) -> bool:
        """Every residual within _AUDIT_ATOL."""
        upper = (self.queue_residual, self.idle_residual, self.pushing_start, self.workload_residual)
        lower = (self.queue_floor, self.pushing_monotone, self.workload_floor)
        return all(x <= _AUDIT_ATOL for x in upper) and all(x >= -_AUDIT_ATOL for x in lower)


def admissibility_audit(path: RbmPath, limits: NetworkLimits) -> AdmissibilityReport:
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

    return AdmissibilityReport(
        queue_residual=float(np.abs(q - q_star).max()),
        queue_floor=float(q.min()),
        idle_residual=float(np.abs((y1 + y2) - v1).max()),
        pushing_start=float(np.abs(path.pushing[0]).max()),
        pushing_monotone=float(np.diff(path.pushing, axis=0).min()) if len(path.pushing) > 1 else 0.0,
        workload_residual=float(np.abs(w - (w_free + path.pushing)).max()),
        workload_floor=float(w.min()),
    )
