from __future__ import annotations

import math

import numpy as np
import pytest

from crisscross.experiments import (
    SweepConfig,
    collapse_bound,
    convergence_sweep,
    discounted_cost,
    estimate_cost,
    fluid_allocation_gap,
    ld_check,
    replication_seed,
    run_diagnostics,
)
from crisscross.params import NetworkLimits, RNetwork, compute_threshold_constants, kappa_bound, make_r_network
from crisscross.simulate import ScaledTrajectory, Trajectory, diffusion_scale, fluid_scale, simulate

LIMITS = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)


_UNIT_NET = RNetwork(
    r=1.0, lam=LIMITS.lam, mu=LIMITS.mu, b=(0.0, 0.0, 0.0), ell0=1.2, c=3.0, threshold_low=0, threshold_high=2
)


def _constant_queue_path(times, queues):
    """Raw view of a hand-made record at r = 1."""
    times = np.asarray(times, dtype=float)
    traj = Trajectory(
        r=1.0,
        horizon=float(times[-1]),
        epochs=times,
        queues=np.asarray(queues, dtype=np.int64),
        activity=np.zeros((times.shape[0], 2), dtype=np.int8),
    )
    return ScaledTrajectory(traj, _UNIT_NET, "raw")


def test_discounted_cost_of_a_unit_pulse():
    # Unit holding cost on [0, 1), empty afterwards.
    path = _constant_queue_path([0.0, 1.0, 2.0], [[1.0, 0, 0], [0, 0, 0], [0, 0, 0]])
    cost = discounted_cost(path, (1.0, 1.0, 1.0), 1.0)
    assert cost.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert cost.tail == 0.0


def test_discounted_cost_telescopes_for_a_constant_queue():
    times = np.linspace(0.0, 3.0, 61)
    queues = np.tile([1.0, 0.0, 0.0], (61, 1))
    cost = discounted_cost(_constant_queue_path(times, queues), (1.0, 0.0, 0.0), 2.0)
    assert cost.value == pytest.approx((1.0 - math.exp(-6.0)) / 2.0, rel=1e-12)
    assert cost.tail == pytest.approx(math.exp(-6.0) / 2.0, rel=1e-12)


def test_discounted_cost_of_a_single_epoch_is_all_tail():
    path = _constant_queue_path([0.0], [[2.0, 0.0, 0.0]])
    cost = discounted_cost(path, (1.0, 1.0, 1.0), 1.0)
    assert cost.value == 0.0
    assert cost.tail == 2.0


def test_discounted_cost_requires_a_positive_rate():
    path = _constant_queue_path([0.0], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        discounted_cost(path, (1.0, 1.0, 1.0), 0.0)


def test_replication_streams_are_stable_and_distinct():
    a = replication_seed(0, 5.0, 3)
    b = replication_seed(0, 5.0, 3)
    c = replication_seed(0, 5.0, 4)
    gen = lambda ss: np.random.Generator(np.random.PCG64(ss)).random()
    assert gen(a) == gen(b)
    assert gen(a) != gen(c)


def test_estimate_cost_shapes_and_determinism():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    run = estimate_cost(net, "threshold", 1.0, LIMITS.h, 0.5, 4, seed=0)
    again = estimate_cost(net, "threshold", 1.0, LIMITS.h, 0.5, 4, seed=0)
    assert run.mean == again.mean
    assert run.stderr == again.stderr
    assert run.n_reps == 4
    assert run.policy == "threshold"
    assert run.truncation_bound > 0.0
    assert (run.threshold_low, run.threshold_high) == (net.threshold_low, net.threshold_high)


def test_estimate_cost_single_replication_has_no_stderr():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    run = estimate_cost(net, "priority1", 1.0, LIMITS.h, 0.3, 1, seed=2)
    assert run.stderr is None


def test_estimate_cost_argument_checks():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    with pytest.raises(ValueError):
        estimate_cost(net, "threshold", 1.0, LIMITS.h, 0.5, 0, seed=0)
    with pytest.raises(ValueError):
        estimate_cost(net, "threshold", 1.0, LIMITS.h, 0.0, 2, seed=0)


def _tiny_sweep_config():
    return SweepConfig(
        ell0=1.2,
        c=3.0,
        horizon_scaled=0.3,
        n_reps=2,
        seed=0,
        bcp_dt=0.05,
        bcp_paths=200,
    )


def test_sweep_needs_a_trend():
    with pytest.raises(ValueError):
        convergence_sweep(LIMITS, ["threshold"], [5.0], _tiny_sweep_config())
    with pytest.raises(ValueError):
        convergence_sweep(LIMITS, [], [5.0, 10.0], _tiny_sweep_config())


def test_sweep_warns_below_the_guaranteed_log_coefficient():
    with pytest.warns(UserWarning, match="floor"):
        result = convergence_sweep(LIMITS, ["threshold"], [3.0, 5.0], _tiny_sweep_config())
    assert len(result.runs) == 2
    assert result.j_star.mean > 0.0


def test_sweep_is_deterministic_and_gap_uses_the_reference():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = convergence_sweep(LIMITS, ["threshold", "priority1"], [3.0, 5.0], _tiny_sweep_config())
        b = convergence_sweep(LIMITS, ["threshold", "priority1"], [3.0, 5.0], _tiny_sweep_config())
    assert [run.mean for run in a.runs] == [run.mean for run in b.runs]
    assert a.j_star.mean == b.j_star.mean
    run = a.runs[0]
    assert a.gap(run) == (run.mean - a.j_star.mean) / a.j_star.mean


def test_poisson_tails_sit_under_the_exponential_bound():
    rows = ld_check(1.0, 0.5, (0.0, 10.0, 25.0), 20_000, seed=0)
    assert all(row.within for row in rows)
    assert rows[0].bound == 2.0
    assert rows[1].empirical > 0.0  # the event is rare but not invisible at t=10
    assert rows[2].empirical < rows[1].empirical


def test_poisson_tail_check_is_reproducible():
    a = ld_check(1.0, 0.5, (10.0,), 5000, seed=3)
    b = ld_check(1.0, 0.5, (10.0,), 5000, seed=3)
    assert a[0].empirical == b[0].empirical


def test_poisson_tail_domain_errors():
    with pytest.raises(ValueError):
        ld_check(1.0, 0.0, (1.0,), 10, seed=0)
    with pytest.raises(ValueError):
        ld_check(1.0, 1.0, (1.0,), 10, seed=0)
    with pytest.raises(ValueError):
        ld_check(0.0, 0.5, (1.0,), 10, seed=0)
    with pytest.raises(ValueError):
        ld_check(1.0, 0.5, (1.0,), 0, seed=0)
    with pytest.raises(ValueError):
        ld_check(1.0, 0.5, (-1.0,), 10, seed=0)


def test_fluid_allocations_approach_the_critical_profile():
    horizon_scaled = 3.0
    gaps = {}
    for r in (8.0, 16.0):
        net = make_r_network(LIMITS, r, 1.2, 3.0)
        traj = simulate(net, "threshold", r * r * horizon_scaled, 17)
        gaps[r] = fluid_allocation_gap(fluid_scale(traj, net), LIMITS, t_end=horizon_scaled)
    assert gaps[16.0] < gaps[8.0]


def test_fluid_allocation_gap_argument_checks():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 25.0, 0)
    with pytest.raises(ValueError):
        fluid_allocation_gap(diffusion_scale(traj, net), LIMITS, t_end=0.5)
    with pytest.raises(ValueError):
        fluid_allocation_gap(fluid_scale(traj, net), LIMITS, t_end=99.0)


@pytest.fixture(scope="module")
def constants():
    return compute_threshold_constants(LIMITS)


def test_diagnostics_on_an_empty_system(constants):
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 0.0, 0)
    report = run_diagnostics(diffusion_scale(traj, net), net, constants, t_end=1.0)
    assert report.collapse_sup1 == 0.0
    assert report.collapse_sup3 == 0.0
    assert report.idle_mass_Y == 0.0
    assert report.product_sup == 0.0
    assert not report.event_E_hit


def test_diagnostics_levels_and_kappa(constants):
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 300.0, 21)
    report = run_diagnostics(diffusion_scale(traj, net), net, constants, t_end=1.0)
    assert report.kappa == kappa_bound(net.mu, net.c, constants.theta3)
    assert report.collapse_level == pytest.approx(
        report.kappa * (net.threshold_high - net.threshold_low + 1) / net.r
    )
    assert report.idle_level > 0.0
    assert report.product_sup >= 0.0
    assert report.r == net.r


def test_diagnostics_argument_checks(constants):
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 50.0, 0)
    with pytest.raises(ValueError):
        run_diagnostics(fluid_scale(traj, net), net, constants, t_end=1.0)
    with pytest.raises(ValueError):
        run_diagnostics(diffusion_scale(traj, net), net, constants, t_end=0.0)


def test_diagnostics_idle_mass_counts_guarded_idleness(constants):
    """With the guard level forced to zero, the accumulated mass equals all
    of server 2's idleness over the window."""
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 250.0, 33)
    scaled = diffusion_scale(traj, net)
    report = run_diagnostics(scaled, net, constants, d=0.0, t_end=1.0)
    idle_at_end = np.interp(1.0, scaled.times, scaled.idle[:, 1])
    assert report.idle_mass_Y == pytest.approx(idle_at_end, abs=1e-9)


def test_collapse_bound_is_conservative_at_desk_scale(constants):
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    value, informative = collapse_bound(net, constants, t=1.0)
    assert value > 0.0
    assert not informative
    wide = make_r_network(LIMITS, 10.0, 1.2, 30.0)
    value_wide, _ = collapse_bound(wide, constants, t=1.0)
    assert value_wide < value
