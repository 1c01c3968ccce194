from __future__ import annotations

import math

import pytest

from crisscross.params import (
    ConfigError,
    NetworkLimits,
    compute_threshold_constants,
    kappa_bound,
    make_r_network,
    parse_config,
    poisson_rate_function,
    validate_limits,
    varsigma2,
)

EXAMPLE = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)
ASYMMETRIC = NetworkLimits(lam=(0.8, 1.8), mu=(2.0, 3.0, 1.8), h=(1.2, 1.0, 0.6), gamma=1.0)
# mu2 = 5 mu1: overgrow = (mu1/mu2)(high - low + 2) can fall below 1 with room between the levels.
STEEP = NetworkLimits(lam=(0.5, 2.5), mu=(1.0, 5.0, 2.5), h=(1.0, 1.0, 0.9), gamma=1.0)

# Frozen reference values, computed once with 50-digit decimal arithmetic from
# x log(x / rate) - x + rate and the constant formulas below.
RATE_FN_CASES = [
    (1.0, 1.5, 0.10819766216224658),
    (1.0, 0.5, 0.15342640972002736),
    (2.0, 2.5, 0.05785887828552439),
    (2.0, 1.5, 0.0684768913223286),
]
EXAMPLE_CONSTANTS = {
    "theta3": 0.05785887828552439,
    "rho2": 0.10819766216224658,
    "c": 107.10310429244655,
    "K": 128.0,
    "d": 27418.394698866316,
    "theta": 5.69872896338678e-07,
    "gamma4": 2.641544486382973e-05,
    "ell_bar": 151427.56202156714,
    "kappa": 4.04,
}


def test_example_parameters_are_admissible():
    assert validate_limits(EXAMPLE).ok
    assert validate_limits(ASYMMETRIC).ok


def test_detects_server1_load_imbalance():
    report = validate_limits(NetworkLimits(lam=(1.1, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0))
    assert not report.ok
    assert any("load" in v or "critical" in v for v in report.violations)


def test_detects_downstream_load_imbalance():
    report = validate_limits(NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.5), h=(1.0, 1.0, 1.0), gamma=1.0))
    assert not report.ok


def test_detects_cost_ordering_violations():
    # h2 mu2 < h1 mu1 breaks the ordering that makes buffer 2 the cheap one.
    report = validate_limits(NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.5, 1.0, 1.0), gamma=1.0))
    assert not report.ok
    # h3 > h2 breaks the incentive to push work downstream.
    report = validate_limits(NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.2), gamma=1.0))
    assert not report.ok


def test_rejects_nonpositive_and_nonfinite_rates():
    assert not validate_limits(NetworkLimits(lam=(0.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)).ok
    assert not validate_limits(NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=0.0)).ok
    assert not validate_limits(
        NetworkLimits(lam=(1.0, 1.0), mu=(math.inf, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)
    ).ok


def test_validation_collects_every_violation():
    report = validate_limits(NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.5), h=(9.0, 1.0, 2.0), gamma=1.0))
    assert len(report.violations) >= 3


@pytest.mark.parametrize("rate,x,expected", RATE_FN_CASES)
def test_rate_function_matches_decimal_reference(rate, x, expected):
    assert math.isclose(poisson_rate_function(rate, x), expected, rel_tol=1e-12)


def test_rate_function_vanishes_at_the_mean():
    for rate in (0.3, 1.0, 7.5):
        assert poisson_rate_function(rate, rate) == pytest.approx(0.0, abs=1e-15)


def test_rate_function_domain_errors():
    with pytest.raises(ValueError):
        poisson_rate_function(0.0, 1.0)
    with pytest.raises(ValueError):
        poisson_rate_function(1.0, 0.0)
    with pytest.raises(ValueError):
        poisson_rate_function(1.0, -2.0)


def test_two_sided_decay_is_the_smaller_tail():
    assert math.isclose(varsigma2(1.0, 0.5), 0.10819766216224658, rel_tol=1e-12)
    assert math.isclose(varsigma2(2.0, 0.5), 0.05785887828552439, rel_tol=1e-12)
    # The upper tail decays faster only for the lower one to win; check both orders.
    assert varsigma2(1.0, 0.5) == pytest.approx(poisson_rate_function(1.0, 1.5))
    assert varsigma2(2.0, 0.5) == pytest.approx(poisson_rate_function(2.0, 2.5))


def test_two_sided_decay_domain_errors():
    with pytest.raises(ValueError):
        varsigma2(1.0, 0.0)
    with pytest.raises(ValueError):
        varsigma2(1.0, 1.0)
    with pytest.raises(ValueError):
        varsigma2(0.4, 0.5)


def test_threshold_sizes_at_r20():
    net = make_r_network(EXAMPLE, 20.0, 1.2, 3.0)
    assert net.threshold_low == 3
    assert net.threshold_high == 10


def test_unusable_scaling_rejected():
    with pytest.raises(ValueError):
        make_r_network(EXAMPLE, 1.0, 1.2, 3.0)


@pytest.mark.parametrize("limits", [EXAMPLE, ASYMMETRIC, STEEP], ids=["symmetric", "asymmetric", "steep"])
def test_the_usability_floor_is_the_test_of_the_levels(limits):
    """make_r_network refuses r exactly where the thresholds low =
    floor(ell0 log r) and high = floor(c ell0 log r) give
    high - low - 1 < 1 or (mu1/mu2)(high - low + 2) < 1, with its message;
    above that floor the network's levels are the rule's four levels.
    STEEP at r = 5 (low = 1, high = 3) meets only the second test."""
    mu1, mu2 = limits.mu[0], limits.mu[1]
    for r in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 15.0, 40.0):
        low, high = math.floor(math.log(r)), math.floor(2.0 * math.log(r))
        if high - low - 1 < 1 or (mu1 / mu2) * (high - low + 2) < 1.0:
            message = f"r = {r!r} below the usability floor: thresholds \\(low={low}, high={high}\\) leave no room"
            with pytest.raises(ValueError, match=message):
                make_r_network(limits, r, 1.0, 2.0)
        else:
            levels = make_r_network(limits, r, 1.0, 2.0).levels
            assert levels == (mu2 / mu1, low, high - 1, (mu1 / mu2) * (high - low + 2))


def test_threshold_shape_arguments_checked():
    with pytest.raises(ValueError):
        make_r_network(EXAMPLE, 20.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        make_r_network(EXAMPLE, 20.0, 1.2, 1.0)
    with pytest.raises(ValueError):
        make_r_network(EXAMPLE, math.nan, 1.2, 3.0)


def test_rates_reduce_to_limits_without_offsets():
    net = make_r_network(EXAMPLE, 25.0, 1.2, 3.0)
    assert net.lam == EXAMPLE.lam
    assert net.mu == EXAMPLE.mu


def test_drift_offsets_realized_exactly():
    lim = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0, b=(1.0, 0.0, 0.0))
    net = make_r_network(lim, 10.0, 1.2, 3.0)
    assert net.r * (net.lam[0] / net.mu[0] - lim.lam[0] / lim.mu[0]) == pytest.approx(1.0, abs=1e-12)
    assert net.lam[1] == lim.lam[1]
    assert net.mu[2] == lim.mu[2]


@pytest.mark.parametrize("b", [(0.5, -0.25, 0.75), (-1.0, 1.0, -0.5), (0.0, 0.0, 2.0)])
@pytest.mark.parametrize("r", [8.0, 31.0, 200.0])
def test_drift_offsets_recoverable_from_rates(b, r):
    lim = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0, b=b)
    net = make_r_network(lim, r, 1.2, 3.0)
    got = (
        r * (net.lam[0] / net.mu[0] - lim.lam[0] / lim.mu[0]),
        r * (net.lam[1] / net.mu[1] - lim.lam[1] / lim.mu[1]),
        r * (net.lam[1] / net.mu[2] - 1.0),
    )
    for want, have in zip(b, got):
        assert have == pytest.approx(want, abs=1e-10)


def test_constants_match_decimal_reference():
    constants = compute_threshold_constants(EXAMPLE)
    for name, expected in EXAMPLE_CONSTANTS.items():
        assert math.isclose(getattr(constants, name), expected, rel_tol=1e-12), name


def test_constants_are_ordered_sensibly():
    constants = compute_threshold_constants(ASYMMETRIC)
    assert constants.c > 1.0
    assert constants.d > constants.K
    assert 0.0 < constants.theta <= 0.125
    assert constants.ell_bar > 1.0
    assert constants.kappa >= 4.0


def test_constants_need_server1_rates_above_the_half_width():
    slow = NetworkLimits(lam=(0.4, 1.2), mu=(1.0, 2.0, 1.2), h=(2.5, 1.5, 1.0), gamma=1.0)
    assert validate_limits(slow).ok
    with pytest.raises(ValueError):
        compute_threshold_constants(slow)


def test_kappa_floor_scales_with_spread():
    theta3 = EXAMPLE_CONSTANTS["theta3"]
    tight = kappa_bound((2.0, 2.0, 1.0), 1.05, theta3)
    wide = kappa_bound((2.0, 2.0, 1.0), 50.0, theta3)
    assert tight > wide
    with pytest.raises(ValueError):
        kappa_bound((2.0, 2.0, 1.0), 1.0, theta3)


BASE_RAW = {
    "lambda": [1.0, 1.0],
    "mu": [2.0, 2.0, 1.0],
    "h": [1.0, 1.0, 1.0],
    "gamma": 1.0,
}


def test_config_defaults():
    cfg = parse_config(dict(BASE_RAW))
    assert cfg.ell0 == 1.2
    assert cfg.c == 3.0
    assert cfg.r_list == (5.0, 10.0, 20.0, 40.0)
    assert cfg.seed == 0
    assert cfg.replications == 200
    assert cfg.horizon == 15.0


def test_config_rejects_unknown_keys():
    raw = dict(BASE_RAW, threshold=3)
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(raw)


def test_config_requires_model_keys():
    raw = dict(BASE_RAW)
    del raw["gamma"]
    with pytest.raises(ConfigError, match="missing"):
        parse_config(raw)


def test_config_rejects_invalid_limits():
    raw = dict(BASE_RAW, mu=[2.0, 2.0, 1.5])
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_config_type_checks():
    with pytest.raises(ConfigError):
        parse_config(dict(BASE_RAW, seed=1.5))
    with pytest.raises(ConfigError):
        parse_config(dict(BASE_RAW, seed=True))
    with pytest.raises(ConfigError):
        parse_config(dict(BASE_RAW, replications=0))
    with pytest.raises(ConfigError):
        parse_config(dict(BASE_RAW, r_list=[]))
    with pytest.raises(ConfigError):
        parse_config(dict(BASE_RAW, horizon=-1.0))
    with pytest.raises(ConfigError):
        parse_config(dict(BASE_RAW, mu=[2.0, 2.0]))
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])
