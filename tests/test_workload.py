from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crisscross.params import NetworkLimits, validate_limits
from crisscross.workload import (
    BUFFER1_HEAVY,
    BUFFER3_HEAVY,
    SamplePath,
    WorkloadMatrix,
    cheapest_queues,
    effective_cost,
    effective_cost_coefficients,
    lp_oracle,
    skorohod_reflect,
    skorohod_regulator,
)

MU = (2.0, 2.0, 1.0)
H = (1.0, 1.0, 1.0)
MU_ASYM = (2.0, 3.0, 1.8)
H_ASYM = (1.2, 1.0, 0.6)


def test_workload_matrix_entries():
    m = WorkloadMatrix(MU).array
    np.testing.assert_allclose(m, [[0.5, 0.5, 0.0], [0.0, 1.0, 1.0]])


def test_workload_of_a_queue_vector():
    w = WorkloadMatrix(MU).apply(np.array([2.0, 4.0, 1.0]))
    np.testing.assert_allclose(w, [3.0, 5.0])
    batch = WorkloadMatrix(MU).apply(np.array([[2.0, 4.0, 1.0], [0.0, 0.0, 0.0]]))
    assert batch.shape == (2, 2)
    np.testing.assert_allclose(batch[1], [0.0, 0.0])


def test_cost_coefficients_for_the_symmetric_example():
    heavy3, heavy1 = effective_cost_coefficients(MU, H)
    assert heavy3 == pytest.approx((0.0, 1.0))
    assert heavy1 == pytest.approx((2.0, 0.0))


@pytest.mark.parametrize(
    "w,z,value,region",
    [
        ((1.0, 3.0), (0.0, 2.0, 1.0), 3.0, BUFFER3_HEAVY),
        ((1.0, 1.0), (1.0, 1.0, 0.0), 2.0, BUFFER1_HEAVY),
        ((1.0, 0.0), (2.0, 0.0, 0.0), 2.0, BUFFER1_HEAVY),
        ((0.0, 0.0), (0.0, 0.0, 0.0), 0.0, BUFFER3_HEAVY),
    ],
)
def test_effective_cost_worked_examples(w, z, value, region):
    sol = effective_cost(w, MU, H)
    assert sol.z == pytest.approx(z, abs=1e-15)
    assert sol.value == pytest.approx(value, abs=1e-15)
    assert sol.region == region


def test_effective_cost_rejects_negative_workload():
    with pytest.raises(ValueError):
        effective_cost((-0.1, 1.0), MU, H)


def test_cheapest_queues_on_rows_matches_the_single_workload_form_and_the_oracle():
    w = _random_workloads(200, 41)
    for mu, h in ((MU, H), (MU_ASYM, H_ASYM)):
        z = cheapest_queues(w, mu)
        assert z.shape == (200, 3)
        for k in range(w.shape[0]):
            assert np.array_equal(z[k], cheapest_queues(w[k], mu))
            np.testing.assert_allclose(z[k], lp_oracle(tuple(w[k]), mu, h).z, rtol=1e-12, atol=1e-12)


def _random_workloads(n, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    return np.exp(gen.normal(size=(n, 2)))


@pytest.mark.parametrize("mu,h", [(MU, H), (MU_ASYM, H_ASYM)])
def test_closed_form_agrees_with_vertex_enumeration(mu, h):
    for w in _random_workloads(300, seed=7):
        fast = effective_cost(tuple(w), mu, h)
        slow = lp_oracle(tuple(w), mu, h)
        assert fast.value == pytest.approx(slow.value, rel=1e-9, abs=1e-12)
        assert fast.z == pytest.approx(slow.z, rel=1e-9, abs=1e-9)
        assert fast.region == slow.region


@pytest.mark.parametrize("mu,h", [(MU, H), (MU_ASYM, H_ASYM)])
def test_solution_is_feasible_and_complementary(mu, h):
    m = WorkloadMatrix(mu)
    for w in _random_workloads(200, seed=11):
        sol = effective_cost(tuple(w), mu, h)
        z = np.array(sol.z)
        assert np.all(z >= -1e-12)
        np.testing.assert_allclose(m.apply(z), w, rtol=1e-9, atol=1e-12)
        # Buffers 1 and 3 are never both occupied at the optimum.
        assert sol.z[0] * sol.z[2] == pytest.approx(0.0, abs=1e-12)


def test_value_is_monotone_in_each_workload():
    for w in _random_workloads(100, seed=3):
        base = effective_cost(tuple(w), MU, H).value
        assert effective_cost((w[0] + 0.1, w[1]), MU, H).value >= base - 1e-12
        assert effective_cost((w[0], w[1] + 0.1), MU, H).value >= base - 1e-12


@pytest.mark.parametrize("mu,h", [(MU, H), (MU_ASYM, H_ASYM)])
def test_value_is_continuous_across_the_region_boundary(mu, h):
    # Fix w1 and walk w2 across mu2 w1 / mu3 from both sides.
    w1 = 1.37
    w2_star = mu[1] * w1 / mu[2]
    on = effective_cost((w1, w2_star), mu, h)
    assert on.region == BUFFER3_HEAVY
    for eps in (1e-7, 1e-9, 1e-11):
        below = effective_cost((w1, w2_star - eps), mu, h)
        above = effective_cost((w1, w2_star + eps), mu, h)
        assert abs(below.value - on.value) < 10.0 * eps + 1e-12
        assert abs(above.value - on.value) < 10.0 * eps + 1e-12


def test_oracle_prefers_downstream_vertex_on_ties():
    sol = lp_oracle((1.0, 2.0), MU, H)
    assert sol.region == BUFFER3_HEAVY
    assert sol.z == pytest.approx((0.0, 2.0, 0.0), abs=1e-15)


def test_sample_path_validation():
    with pytest.raises(ValueError):
        SamplePath(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        SamplePath(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        SamplePath(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        SamplePath(np.array([]), np.array([]))


def test_reflection_worked_example():
    path = SamplePath(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0, 0.5]))
    reg = skorohod_regulator(path)
    out = skorohod_reflect(path)
    np.testing.assert_allclose(reg.values, [0.0, 0.0, 1.0, 1.0])
    np.testing.assert_allclose(out.values, [0.0, 1.0, 0.0, 1.5])


def test_reflection_requires_start_at_zero():
    with pytest.raises(ValueError):
        skorohod_regulator(SamplePath(np.array([0.0, 1.0]), np.array([0.5, 1.0])))


def test_reflected_path_is_nonnegative():
    gen = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        values = np.concatenate([[0.0], gen.normal(size=400).cumsum()])
        path = SamplePath(np.arange(401.0), values)
        assert skorohod_reflect(path).values.min() >= 0.0


def test_regulator_is_minimal_among_admissible_competitors():
    """Any nondecreasing process keeping the path nonnegative dominates the regulator."""
    gen = np.random.Generator(np.random.PCG64(17))
    values = np.concatenate([[0.0], gen.normal(size=300).cumsum()])
    path = SamplePath(np.arange(301.0), values)
    reg = skorohod_regulator(path).values
    for _ in range(50):
        extra = np.abs(gen.normal(size=301)) * 0.5
        extra[0] = 0.0
        competitor = np.maximum.accumulate(np.maximum(-values + extra, 0.0))
        competitor[0] = 0.0
        assert np.all(values + competitor >= -1e-12)  # competitor is admissible
        assert np.all(competitor >= reg - 1e-12)  # and never below the regulator


def test_reflection_is_lipschitz_with_constant_two():
    gen = np.random.Generator(np.random.PCG64(23))
    times = np.arange(201.0)
    x = np.concatenate([[0.0], gen.normal(size=200).cumsum()])
    y = x + np.concatenate([[0.0], 0.1 * gen.normal(size=200)])
    rx = skorohod_reflect(SamplePath(times, x)).values
    ry = skorohod_reflect(SamplePath(times, y)).values
    assert np.abs(rx - ry).max() <= 2.0 * np.abs(x - y).max() + 1e-12


def test_reflection_is_idempotent():
    gen = np.random.Generator(np.random.PCG64(29))
    values = np.concatenate([[0.0], gen.normal(size=150).cumsum()])
    path = SamplePath(np.arange(151.0), values)
    once = skorohod_reflect(path)
    twice = skorohod_reflect(once)
    np.testing.assert_allclose(twice.values, once.values)


_RATES = st.floats(0.1, 10.0)
_WORKLOADS = st.just(0.0) | st.floats(1e-200, 1e6)


@st.composite
def _valid_limits(draw):
    """Limits that pass validate_limits: critical load through lam, and the
    cost ordering h2 mu2 >= h1 mu1, h2 >= h3 and g1 = h1 mu1 - (h2 - h3) mu2 > 0
    through h2 and h3 (up to rounding at the edges, which the test skips)."""
    mu1, mu2 = draw(_RATES), draw(_RATES)
    mu3 = mu2 * draw(st.floats(0.05, 0.95))
    h1 = draw(_RATES)
    h2 = h1 * mu1 / mu2 + draw(st.floats(0.0, 10.0))
    h3 = h2 - (h1 * mu1 / mu2) * draw(st.floats(0.0, 0.99))
    return NetworkLimits(lam=(mu1 * (1.0 - mu3 / mu2), mu3), mu=(mu1, mu2, mu3), h=(h1, h2, h3), gamma=1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(limits=_valid_limits(), w1=_WORKLOADS, w2=_WORKLOADS)
def test_the_cost_is_heavy1_plus_the_kink_on_the_switching_line(limits, w1, w2):
    """heavy1 . w + (l . w)+ with l = heavy3 - heavy1 is the cheapest queue
    configuration's cost: l . w = (g1/mu2)(mu3 w2 - mu2 w1) with g1 > 0, so
    the kink sits on the switching line. estimate_j_star forms its cost this
    way."""
    assume(validate_limits(limits).ok)
    heavy3, heavy1 = effective_cost_coefficients(limits.mu, limits.h)
    ell = np.subtract(heavy3, heavy1)
    kinked = heavy1[0] * w1 + heavy1[1] * w2 + max(ell[0] * w1 + ell[1] * w2, 0.0)
    assert kinked == pytest.approx(effective_cost((w1, w2), limits.mu, limits.h).value, rel=1e-12, abs=0.0)
    assert kinked == pytest.approx(lp_oracle((w1, w2), limits.mu, limits.h).value, rel=1e-12, abs=0.0)
