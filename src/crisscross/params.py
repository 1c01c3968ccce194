"""Model parameters for the two-server crisscross network.

Holds the limiting rate/cost data, the family of scaled networks indexed by
r, the logarithmic control thresholds, and the large-deviations constants
that size them. Everything downstream (simulator, policies, Brownian
comparison) consumes these types.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

HEAVY_TRAFFIC_TOL = 1e-12

__all__ = [
    "NetworkLimits",
    "RNetwork",
    "ThresholdConstants",
    "ValidationReport",
    "ConfigError",
    "Config",
    "validate_limits",
    "make_r_network",
    "poisson_rate_function",
    "varsigma2",
    "compute_threshold_constants",
    "kappa_bound",
    "parse_config",
    "load_config",
    "is_seed",
]


@dataclass(frozen=True)
class NetworkLimits:
    """Limiting parameters: arrival rates, service rates, holding costs, discount.

    lam = (lam1, lam2) are the two exogenous arrival rates, mu = (mu1, mu2, mu3)
    the service rates of the three buffers, h the per-buffer holding costs,
    gamma the discount rate, and b = (b1, b2, b3) the second-order drift
    offsets of the scaled family around the critical load point.
    """

    lam: tuple[float, float]
    mu: tuple[float, float, float]
    h: tuple[float, float, float]
    gamma: float
    b: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def rho(self) -> tuple[float, float]:
        """Limiting load fractions of server 1's two buffers."""
        return (self.lam[0] / self.mu[0], self.lam[1] / self.mu[1])


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "invalid: " + "; ".join(self.violations)


def validate_limits(limits: NetworkLimits) -> ValidationReport:
    """Check positivity, critical load, and the cost-ordering assumptions.

    Returns a report naming every violated assumption with its magnitude;
    report.ok is True exactly when the limits are usable by the rest of the
    package.
    """
    v: list[str] = []
    lam, mu, h = limits.lam, limits.mu, limits.h
    if len(lam) != 2 or len(mu) != 3 or len(h) != 3:
        return ValidationReport(("shape: need 2 arrival rates, 3 service rates, 3 holding costs",))
    for name, vals in (("arrival rate", lam), ("service rate", mu), ("holding cost", h)):
        for i, x in enumerate(vals, start=1):
            if not (x > 0.0) or not math.isfinite(x):
                v.append(f"positivity: {name} {i} = {x!r} must be finite and > 0")
    if not (limits.gamma > 0.0) or not math.isfinite(limits.gamma):
        v.append(f"positivity: discount rate = {limits.gamma!r} must be finite and > 0")
    for x in limits.b:
        if not math.isfinite(x):
            v.append(f"drift offset {x!r} must be finite")
    if v:
        return ValidationReport(tuple(v))

    load = lam[0] / mu[0] + lam[1] / mu[1]
    if abs(load - 1.0) > HEAVY_TRAFFIC_TOL:
        v.append(f"critical load: lam1/mu1 + lam2/mu2 = {load!r}, off by {load - 1.0:.3e}")
    feed = lam[1] / mu[2]
    if abs(feed - 1.0) > HEAVY_TRAFFIC_TOL:
        v.append(f"critical load: lam2/mu3 = {feed!r}, off by {feed - 1.0:.3e}")

    # Cost ordering that makes buffer 1 the cheap place to park server-1 work
    # (the regime all control logic in this package assumes).
    g1 = h[0] * mu[0] - h[1] * mu[1] + h[2] * mu[1]
    g2 = h[1] * mu[1] - h[2] * mu[1]
    g3 = h[1] * mu[1] - h[0] * mu[0]
    if not (g1 > 0.0):
        v.append(f"cost ordering: h1*mu1 - h2*mu2 + h3*mu2 = {g1!r} must be > 0")
    if g2 < 0.0:
        v.append(f"cost ordering: h2*mu2 - h3*mu2 = {g2!r} must be >= 0")
    if g3 < 0.0:
        v.append(f"cost ordering: h2*mu2 - h1*mu1 = {g3!r} must be >= 0")
    return ValidationReport(tuple(v))


def _require_valid(limits: NetworkLimits) -> None:
    report = validate_limits(limits)
    if not report.ok:
        raise ValueError(str(report))


class _ThresholdLevels(NamedTuple):
    """The levels of the threshold rule on one network."""

    ratio: float     # mu2^r/mu1^r
    low: int         # threshold_low
    near_full: int   # threshold_high - 1
    overgrow: float  # (mu1^r/mu2^r)(threshold_high - threshold_low + 2)


@dataclass(frozen=True)
class RNetwork:
    """One member of the scaled family: perturbed rates plus control thresholds.

    threshold_low and threshold_high are the integer safety-stock levels
    floor(ell0 * log r) and floor(c * ell0 * log r) used by the threshold
    policy (natural log).
    """

    r: float
    lam: tuple[float, float]
    mu: tuple[float, float, float]
    b: tuple[float, float, float]
    ell0: float
    c: float
    threshold_low: int
    threshold_high: int

    @property
    def levels(self) -> _ThresholdLevels:
        """The threshold rule's levels, read by _server1, _threshold_gates,
        make_r_network's usability floor and run_diagnostics."""
        mu1, mu2 = self.mu[0], self.mu[1]
        low, high = self.threshold_low, self.threshold_high
        return _ThresholdLevels(mu2 / mu1, low, high - 1, (mu1 / mu2) * (high - low + 2))


def make_r_network(limits: NetworkLimits, r: float, ell0: float, c: float) -> RNetwork:
    """Build the r-th network with drift offsets realized exactly.

    Rates: lam_i^r = lam_i + b_i mu_i / r for the two arrival streams with
    mu_1^r, mu_2^r frozen at their limits, and mu_3^r = lam_2^r r / (r + b_3),
    so that r(lam_i^r/mu_i^r - lam_i/mu_i) = b_i (i = 1, 2) and
    r(lam_2^r/mu_3^r - 1) = b_3 hold identically. With b = 0 the rates equal
    their limits.

    Rejects r below the usability floor of the threshold policy, where its
    levels (RNetwork.levels) give near_full - low < 1 or overgrow < 1; above
    it the reflections of buffers 1 and 2 never bind in simulate._chain_step.
    """
    _require_valid(limits)
    if not (r >= 1.0) or not math.isfinite(r):
        raise ValueError(f"scaling index r = {r!r} must be finite and >= 1")
    if not (ell0 > 0.0) or not (c > 1.0):
        raise ValueError(f"threshold shape (ell0={ell0!r}, c={c!r}) needs ell0 > 0 and c > 1")
    b1, b2, b3 = limits.b
    if r + b3 <= 0.0:
        raise ValueError(f"r = {r!r} too small for drift offset b3 = {b3!r}")
    lam1 = limits.lam[0] + b1 * limits.mu[0] / r
    lam2 = limits.lam[1] + b2 * limits.mu[1] / r
    mu3 = lam2 * r / (r + b3)
    if not all(0.0 < rate < math.inf for rate in (lam1, lam2, mu3)):
        raise ValueError(f"r = {r!r}: perturbed rates ({lam1!r}, {lam2!r}, {mu3!r}) must be finite and > 0")
    logr = math.log(r)
    if not math.isfinite(c * ell0 * logr):
        raise ValueError(f"threshold size c * ell0 * log(r) is not finite (ell0={ell0!r}, c={c!r}, r={r!r})")
    low = math.floor(ell0 * logr)
    high = math.floor(c * ell0 * logr)
    net = RNetwork(
        r=float(r),
        lam=(lam1, lam2),
        mu=(limits.mu[0], limits.mu[1], mu3),
        b=(b1, b2, b3),
        ell0=float(ell0),
        c=float(c),
        threshold_low=low,
        threshold_high=high,
    )
    levels = net.levels
    if levels.near_full - levels.low < 1 or levels.overgrow < 1.0:
        raise ValueError(
            f"r = {r!r} below the usability floor: thresholds (low={low}, high={high}) "
            "leave no room between the safety levels"
        )
    return net


def poisson_rate_function(rate: float, x: float) -> float:
    """Cramer rate function of a unit-time Poisson(rate) count, evaluated at x."""
    if not (rate > 0.0):
        raise ValueError(f"rate = {rate!r} must be > 0")
    if not (x > 0.0):
        raise ValueError(f"argument x = {x!r} must be > 0")
    return x * math.log(x / rate) - x + rate


def varsigma2(rate: float, eps: float) -> float:
    """Two-sided exponential decay rate for a Poisson frequency leaving [rate-eps, rate+eps]."""
    if not (eps > 0.0):
        raise ValueError(f"eps = {eps!r} must be > 0")
    if rate - eps <= 0.0:
        raise ValueError(f"need rate - eps > 0, got rate = {rate!r}, eps = {eps!r}")
    return min(poisson_rate_function(rate, rate + eps), poisson_rate_function(rate, rate - eps))


@dataclass(frozen=True)
class ThresholdConstants:
    """Large-deviations constants that size the logarithmic thresholds.

    theta3: decay exponent of the state-space-collapse failure probability.
    rho2: decay exponent for a service stream running slow/fast by a fixed margin.
    c: theoretical threshold spread (ratio of high to low safety level).
    K: crude bound on scaled excursion sizes entering the hitting estimates.
    d: coefficient of the buffer-2 level in the idleness indicator.
    theta: drain fraction used in the hitting-time argument.
    gamma4: decay exponent paired with the spread in the lower-threshold bound.
    ell_bar: smallest log-coefficient for which the cost bounds are guaranteed.
    kappa: multiplier in the collapse-event comparison (sized for this c).
    """

    theta3: float
    rho2: float
    c: float
    K: float
    d: float
    theta: float
    gamma4: float
    ell_bar: float
    kappa: float


def kappa_bound(mu: tuple[float, ...], c: float, theta3: float) -> float:
    """Collapse-event multiplier for a given threshold spread c (strictly above the floor).

    Only the two server-1 service rates enter; mu may be the limiting or the
    r-network rate vector (they agree in the first two coordinates).
    """
    mu1, mu2 = mu[0], mu[1]
    if not (c > 1.0):
        raise ValueError(f"spread c = {c!r} must exceed 1")
    floor_val = max(2.0 * mu1 / mu2, 4.0, c / (c - 1.0), 2.0 * mu2 * c / (mu1 * (c - 1.0)), theta3)
    return 1.01 * floor_val


def compute_threshold_constants(limits: NetworkLimits) -> ThresholdConstants:
    """Evaluate the theoretical constants from the limiting rates.

    These can be enormous for innocuous-looking rates; experiments treat them
    as the guaranteed regime and accept smaller user-supplied (ell0, c) with a
    warning. Requires mu2 > mu3 and arrival/service rates of server 1 above
    one half (the fixed half-width used in the collapse exponent).
    """
    _require_valid(limits)
    lam1, lam2 = limits.lam
    mu1, mu2, mu3 = limits.mu
    if not (mu2 > mu3):
        raise ValueError(f"need mu2 > mu3, got mu2 = {mu2!r}, mu3 = {mu3!r}")
    theta3 = (mu1 / (mu2 * lam1)) * min(varsigma2(lam1, 0.5), varsigma2(mu1, 0.5))
    rho2 = min(varsigma2(mu3, min(mu3 / 2.0, 1.0)), varsigma2(mu2, min(mu2 / 2.0, 1.0)))
    c = 1.0 + 4.0 / theta3 + 4.0 * (mu2 - mu3) / varsigma2(lam2, lam2 / 2.0)
    K = 2.0 * max(4.0, 16.0 * lam2, 32.0 * mu2, 16.0 * mu3)
    d = c * K / ((mu2 - mu3) / 2.0)
    theta = 0.5 * min(0.25, 1.0 / (32.0 * d))
    gamma4 = (2.0 * d / K) * theta * rho2
    ell_bar = max(4.0 / gamma4, 4.0 / (theta3 * (c - 1.0))) + 1.0
    kappa = kappa_bound(limits.mu, c, theta3)
    return ThresholdConstants(
        theta3=theta3, rho2=rho2, c=c, K=K, d=d,
        theta=theta, gamma4=gamma4, ell_bar=ell_bar, kappa=kappa,
    )


class ConfigError(ValueError):
    """Raised for unknown keys, malformed values, or invalid limits in a config file."""


_CONFIG_KEYS = ("lambda", "mu", "h", "gamma", "b", "ell0", "c", "r_list", "seed", "replications", "horizon")
_REQUIRED_KEYS = ("lambda", "mu", "h", "gamma")


@dataclass(frozen=True)
class Config:
    """Parsed experiment configuration (model limits plus run shape)."""

    limits: NetworkLimits
    ell0: float = 1.2
    c: float = 3.0
    r_list: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0)
    seed: int = 0
    replications: int = 200
    horizon: float = 15.0


def _as_number(value, key: str) -> float:
    """The one reader for numeric config fields: a finite JSON number."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer too large for a float
            pass
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r} must be a finite number, got {value!r}")
    return number


def _as_floats(raw, key: str, n: int) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ConfigError(f"key {key!r} must be a list of {n} numbers, got {raw!r}")
    return tuple(_as_number(x, key) for x in raw)


def is_seed(value) -> bool:
    """The one seed rule, for a config seed and the CLI override alike: a
    non-negative integer (a bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def parse_config(raw: dict) -> Config:
    """Validate a decoded config mapping. Unknown keys are errors, not warnings."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    lam = _as_floats(raw["lambda"], "lambda", 2)
    mu = _as_floats(raw["mu"], "mu", 3)
    h = _as_floats(raw["h"], "h", 3)
    b = _as_floats(raw.get("b", (0.0, 0.0, 0.0)), "b", 3)
    limits = NetworkLimits(lam=lam, mu=mu, h=h, gamma=_as_number(raw["gamma"], "gamma"), b=b)
    report = validate_limits(limits)
    if not report.ok:
        raise ConfigError(str(report))

    kwargs = {}
    for key in ("ell0", "c"):
        if key in raw:
            kwargs[key] = _as_number(raw[key], key)
    if "r_list" in raw:
        rl = raw["r_list"]
        if not isinstance(rl, (list, tuple)) or not rl:
            raise ConfigError(f"key 'r_list' must be a non-empty list, got {rl!r}")
        kwargs["r_list"] = tuple(_as_number(x, "r_list") for x in rl)
    if "seed" in raw:
        seed = raw["seed"]
        if not is_seed(seed):
            raise ConfigError(f"key 'seed' must be a non-negative integer, got {seed!r}")
        kwargs["seed"] = seed
    if "replications" in raw:
        reps = raw["replications"]
        if not is_seed(reps) or reps < 1:
            raise ConfigError(f"key 'replications' must be a positive integer, got {reps!r}")
        kwargs["replications"] = reps
    if "horizon" in raw:
        horizon = _as_number(raw["horizon"], "horizon")
        if not (horizon > 0.0):
            raise ConfigError(f"key 'horizon' must be > 0, got {horizon!r}")
        kwargs["horizon"] = horizon
    return Config(limits=limits, **kwargs)


def load_config(path: str) -> Config:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    return parse_config(raw)
