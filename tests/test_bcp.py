from __future__ import annotations

import math

import numpy as np
import pytest

from crisscross.bcp import (
    LimitBm,
    admissibility_audit,
    estimate_j_star,
    optimal_queue_path,
    simulate_rbm,
)
from crisscross.params import NetworkLimits
from crisscross.workload import SamplePath, WorkloadMatrix, effective_cost, skorohod_reflect

LIMITS = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)
DRIFTED = NetworkLimits(
    lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0, b=(0.5, -0.25, 0.75)
)


def test_limit_process_moments():
    bm = LimitBm.from_limits(LIMITS)
    np.testing.assert_allclose(bm.drift, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(
        bm.cov, [[2.0, 0.0, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
    )
    drifted = LimitBm.from_limits(DRIFTED)
    np.testing.assert_allclose(drifted.drift, [1.0, -0.5, 1.25])


def test_limit_process_rejects_invalid_limits():
    bad = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.5), h=(1.0, 1.0, 1.0), gamma=1.0)
    with pytest.raises(ValueError):
        LimitBm.from_limits(bad)


def test_free_increments_have_the_projected_covariance():
    """Empirical covariance of the workload netput increments, against the
    projected matrix [[1, 1/2], [1/2, 2]] for the symmetric example."""
    path = simulate_rbm(LIMITS, dt=0.01, horizon=1000.0, seed=101, bridge_minima=False)
    proj = WorkloadMatrix(LIMITS.mu).array
    incr = np.diff(path.netput @ proj.T, axis=0)
    emp = np.cov(incr.T) / 0.01
    np.testing.assert_allclose(emp, [[1.0, 0.5], [0.5, 2.0]], atol=0.08)


def test_grid_reflection_matches_the_reflection_map():
    """Without bridge minima the pushing process must be exactly the
    one-sided regulator of each free workload coordinate."""
    path = simulate_rbm(LIMITS, dt=0.05, horizon=50.0, seed=7, bridge_minima=False)
    proj = WorkloadMatrix(LIMITS.mu).array
    free = path.netput @ proj.T
    for j in (0, 1):
        reflected = skorohod_reflect(SamplePath(path.times, free[:, j]))
        np.testing.assert_allclose(path.workload[:, j], reflected.values, atol=1e-12)


def test_pushing_grows_only_at_the_boundary():
    path = simulate_rbm(LIMITS, dt=0.05, horizon=80.0, seed=19, bridge_minima=False)
    for j in (0, 1):
        dv = np.diff(path.pushing[:, j])
        pushed = dv > 0.0
        assert pushed.any()
        assert np.abs(path.workload[1:, j][pushed]).max() < 1e-12


def test_bridge_minima_only_add_pushing():
    raw = simulate_rbm(LIMITS, dt=0.05, horizon=50.0, seed=3, bridge_minima=False)
    bridged = simulate_rbm(LIMITS, dt=0.05, horizon=50.0, seed=3, bridge_minima=True)
    # Same driving noise, so the free paths agree and the bridge can only push more.
    np.testing.assert_allclose(raw.netput, bridged.netput)
    assert np.all(bridged.pushing >= raw.pushing - 1e-12)
    assert np.all(bridged.workload >= -1e-12)


def test_single_step_and_degenerate_grids():
    path = simulate_rbm(LIMITS, dt=0.5, horizon=0.5, seed=1)
    assert path.times.shape == (2,)
    with pytest.raises(ValueError):
        simulate_rbm(LIMITS, dt=0.0, horizon=1.0, seed=1)
    with pytest.raises(ValueError):
        simulate_rbm(LIMITS, dt=1.0, horizon=0.2, seed=1)


def test_cheapest_queue_configuration_prices_the_workload():
    path = simulate_rbm(LIMITS, dt=0.02, horizon=40.0, seed=23)
    q = optimal_queue_path(path, LIMITS)
    assert q.min() >= 0.0
    # Buffers 1 and 3 never hold work at the same time.
    assert np.abs(q[:, 0] * q[:, 2]).max() == 0.0
    np.testing.assert_allclose(WorkloadMatrix(LIMITS.mu).apply(q), path.workload, atol=1e-12)
    h = np.array(LIMITS.h)
    for k in range(0, q.shape[0], 97):
        sol = effective_cost(tuple(path.workload[k]), LIMITS.mu, LIMITS.h)
        assert float(q[k] @ h) == pytest.approx(sol.value, abs=1e-10)


@pytest.mark.parametrize("bridge", [False, True])
def test_reconstructed_control_is_admissible(bridge):
    path = simulate_rbm(LIMITS, dt=0.02, horizon=60.0, seed=31, bridge_minima=bridge)
    report = admissibility_audit(path, LIMITS)
    assert report.ok, report


def test_audit_needs_the_free_process():
    path = simulate_rbm(LIMITS, dt=0.1, horizon=5.0, seed=2)
    path.netput = None
    with pytest.raises(ValueError):
        admissibility_audit(path, LIMITS)


def test_cost_estimate_is_reproducible():
    a = estimate_j_star(LIMITS, dt=0.02, n_paths=500, seed=77)
    b = estimate_j_star(LIMITS, dt=0.02, n_paths=500, seed=77)
    assert a.mean == b.mean
    assert a.stderr == b.stderr
    c = estimate_j_star(LIMITS, dt=0.02, n_paths=500, seed=78)
    assert c.mean != a.mean


def test_single_path_estimate_has_no_stderr():
    est = estimate_j_star(LIMITS, dt=0.05, n_paths=1, seed=5)
    assert est.stderr is None
    assert est.n_paths == 1


def test_truncation_bound_decays_with_the_horizon():
    short = estimate_j_star(LIMITS, dt=0.05, horizon=5.0, n_paths=8, seed=1)
    long = estimate_j_star(LIMITS, dt=0.05, horizon=20.0, n_paths=8, seed=1)
    assert 0.0 < long.truncation_bound < short.truncation_bound


def test_discounted_workload_marginals_near_their_targets():
    """The discounted integrals of the two reflected coordinates have known
    values 1/sqrt(2) and 1 for the symmetric example; a modest run should
    land within 5% of both."""
    m1, m2 = estimate_j_star(LIMITS, dt=0.01, n_paths=4000, seed=11).marginals
    assert m1.mean == pytest.approx(1.0 / math.sqrt(2.0), rel=0.05)
    assert m2.mean == pytest.approx(1.0, rel=0.05)
    assert m1.stderr is not None and m1.stderr < 0.02


def test_grid_refinement_moves_the_estimate_within_noise():
    coarse, _ = estimate_j_star(LIMITS, dt=0.02, n_paths=3000, seed=41).marginals
    fine, _ = estimate_j_star(LIMITS, dt=0.01, n_paths=3000, seed=42).marginals
    spread = 3.0 * math.hypot(coarse.stderr, fine.stderr)
    assert abs(coarse.mean - fine.mean) <= spread


def test_reference_cost_dominates_its_largest_ingredient():
    est = estimate_j_star(LIMITS, dt=0.02, n_paths=2000, seed=13)
    # max(2 W1, W2) integrates to at least the larger marginal target.
    assert est.mean > 1.35
    assert est.mean < 2.0
