"""Workload geometry: the cheapest queue split for a given workload pair,
an independent exact-arithmetic LP oracle for it, and the one-dimensional
reflection (regulator) maps used on sampled paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "WorkloadMatrix",
    "LpSolution",
    "SamplePath",
    "effective_cost",
    "effective_cost_coefficients",
    "cheapest_queues",
    "lp_oracle",
    "skorohod_reflect",
    "skorohod_regulator",
]

BUFFER3_HEAVY = "buffer-3-heavy"
BUFFER1_HEAVY = "buffer-1-heavy"


@dataclass(frozen=True)
class WorkloadMatrix:
    """Maps queue lengths to the two servers' workloads (expected clearing times)."""

    mu: tuple[float, float, float]

    @property
    def array(self) -> np.ndarray:
        mu1, mu2, mu3 = self.mu
        return np.array([[1.0 / mu1, 1.0 / mu2, 0.0], [0.0, 1.0 / mu3, 1.0 / mu3]])

    def apply(self, q: np.ndarray) -> np.ndarray:
        """Workload of queue vector(s) q; q has shape (3,) or (n, 3)."""
        return np.asarray(q) @ self.array.T


@dataclass(frozen=True)
class LpSolution:
    z: tuple[float, float, float]
    value: float
    region: str


def effective_cost_coefficients(
    mu: tuple[float, float, float], h: tuple[float, float, float]
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Linear coefficients of the minimal holding cost on each side of the
    workload cone: value = a*w1 + b*w2 with (a, b) depending on whether the
    downstream buffer or buffer 1 carries the slack.
    """
    mu1, mu2, mu3 = mu
    h1, h2, h3 = h
    heavy3 = (h2 * mu2 - h3 * mu2, h3 * mu3)
    heavy1 = (h1 * mu1, mu3 * (h2 * mu2 - h1 * mu1) / mu2)
    return heavy3, heavy1


def cheapest_queues(w: np.ndarray, mu: tuple[float, float, float]) -> np.ndarray:
    """Cheapest queue configuration carrying workload w; w has shape (2,) or
    (n, 2), the result (3,) or (n, 3).

    The feasible set is z >= 0 with z1/mu1 + z2/mu2 = w1 and
    (z2 + z3)/mu3 = w2. With a = mu2 w1 and b = mu3 w2 the minimizer is
    z = ((mu1/mu2)(a - b)+, min(a, b), (b - a)+): exactly one of z1, z3 is
    positive away from the boundary a = b, and on it both vanish.
    """
    w = np.asarray(w, dtype=float)
    mu1, mu2, mu3 = mu
    a = mu2 * w[..., 0]
    b = mu3 * w[..., 1]
    return np.stack([(mu1 / mu2) * np.maximum(a - b, 0.0), np.minimum(a, b), np.maximum(b - a, 0.0)], axis=-1)


def effective_cost(
    w: tuple[float, float],
    mu: tuple[float, float, float],
    h: tuple[float, float, float],
) -> LpSolution:
    """Cheapest queue configuration carrying workload w (cheapest_queues),
    its holding cost and its side of the boundary mu3 w2 = mu2 w1."""
    w1, w2 = float(w[0]), float(w[1])
    if w1 < 0.0 or w2 < 0.0:
        raise ValueError(f"workloads must be nonnegative, got {w!r}")
    _, mu2, mu3 = mu
    heavy3, heavy1 = effective_cost_coefficients(mu, h)
    if mu3 * w2 >= mu2 * w1:
        a, bb = heavy3
        region = BUFFER3_HEAVY
    else:
        a, bb = heavy1
        region = BUFFER1_HEAVY
    z = tuple(float(zi) for zi in cheapest_queues((w1, w2), mu))
    return LpSolution(z=z, value=a * w1 + bb * w2, region=region)


def lp_oracle(
    w: tuple[float, float],
    mu: tuple[float, float, float],
    h: tuple[float, float, float],
) -> LpSolution:
    """Independent check of effective_cost by vertex enumeration.

    Works in exact rational arithmetic (floats are rationals), enumerating the
    basic feasible points of the two equality constraints and keeping the
    cheapest. Ties are broken toward the downstream-heavy vertex so the
    boundary agrees with the closed form.
    """
    w1, w2 = Fraction(float(w[0])), Fraction(float(w[1]))
    if w1 < 0 or w2 < 0:
        raise ValueError(f"workloads must be nonnegative, got {w!r}")
    fmu = [Fraction(float(m)) for m in mu]
    fh = [Fraction(float(c)) for c in h]
    mu1, mu2, mu3 = fmu

    # Basic points: one of z1, z2, z3 pinned to zero.
    candidates = [
        (Fraction(0), mu2 * w1, mu3 * w2 - mu2 * w1),           # z1 = 0
        (mu1 * w1, Fraction(0), mu3 * w2),                      # z2 = 0
        (mu1 * w1 - mu1 * mu3 * w2 / mu2, mu3 * w2, Fraction(0)),  # z3 = 0
    ]
    best: tuple[Fraction, ...] | None = None
    best_cost: Fraction | None = None
    for z in candidates:
        if any(zi < 0 for zi in z):
            continue
        cost = sum(c * zi for c, zi in zip(fh, z))
        if best_cost is None or cost < best_cost:
            best, best_cost = z, cost
    assert best is not None and best_cost is not None  # z2-pinned point is always feasible
    region = BUFFER3_HEAVY if mu3 * w2 >= mu2 * w1 else BUFFER1_HEAVY
    return LpSolution(
        z=tuple(float(zi) for zi in best),
        value=float(best_cost),
        region=region,
    )


@dataclass(frozen=True)
class SamplePath:
    """A path sampled on a strictly increasing time grid starting at 0."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("time grid must be strictly increasing")


def skorohod_regulator(path: SamplePath) -> SamplePath:
    """Minimal nondecreasing process keeping path + regulator nonnegative."""
    if path.values[0] != 0.0:
        raise ValueError(f"reflection requires the path to start at 0, got {path.values[0]!r}")
    running_min = np.minimum.accumulate(path.values)
    return SamplePath(path.times, -np.minimum(running_min, 0.0))


def skorohod_reflect(path: SamplePath) -> SamplePath:
    """One-sided reflection of a path starting at 0: path minus its running minimum."""
    reg = skorohod_regulator(path)
    return SamplePath(path.times, path.values + reg.values)
