from __future__ import annotations

import io

import numpy as np
import pytest

from crisscross.params import NetworkLimits, RNetwork, make_r_network
from crisscross.policies import BUFFER1, BUFFER2, BUFFER3
from crisscross.simulate import (
    ScaledTrajectory,
    check_conservation,
    diffusion_scale,
    fluid_scale,
    simulate,
    write_scaled_csv,
)
from crisscross.workload import WorkloadMatrix

LIMITS = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)
DRIFTED = NetworkLimits(
    lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0, b=(0.5, -0.25, 0.75)
)
ASYMMETRIC = NetworkLimits(lam=(0.8, 1.8), mu=(2.0, 3.0, 1.8), h=(1.2, 1.0, 0.6), gamma=1.0)


def _idle_server1(q1: int, q2: int, q3: int) -> tuple[int, int]:
    return (0, BUFFER3 if q3 > 0 else 0)


def test_zero_horizon_gives_the_empty_initial_state():
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 0.0, 0)
    assert len(traj) == 1
    assert traj.epochs[0] == 0.0
    assert tuple(traj.queues[0]) == (0, 0, 0)
    assert traj.counts.sum() == 0


def test_trajectory_ends_with_a_terminal_row_at_the_horizon():
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 500.0, 3)
    assert traj.epochs[-1] == 500.0
    assert np.array_equal(traj.queues[-1], traj.queues[-2])
    assert np.array_equal(traj.counts[-1], traj.counts[-2])
    assert np.all(traj.alloc[-1] >= traj.alloc[-2])


def test_same_seed_reproduces_the_path_exactly():
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    a = simulate(net, "threshold", 300.0, 42)
    b = simulate(net, "threshold", 300.0, 42)
    assert np.array_equal(a.epochs, b.epochs)
    assert np.array_equal(a.queues, b.queues)
    assert np.array_equal(a.alloc, b.alloc)
    c = simulate(net, "threshold", 300.0, 43)
    assert not np.array_equal(a.epochs, c.epochs)


def test_arrival_rates_obey_the_law_of_large_numbers():
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    horizon = 4000.0
    traj = simulate(net, "priority2", horizon, 11)
    a1, a2 = traj.counts[-1, 0], traj.counts[-1, 1]
    assert a1 / horizon == pytest.approx(net.lam[0], abs=0.06)
    assert a2 / horizon == pytest.approx(net.lam[1], abs=0.06)
    # Server 1 is critically loaded, so its busy fraction approaches one.
    busy = (traj.alloc[-1, 0] + traj.alloc[-1, 1]) / horizon
    assert busy > 0.9


def test_forced_idleness_at_server_one():
    """With server 1 switched off, buffers 1 and 2 hold every arrival."""
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, _idle_server1, 800.0, 5)
    assert traj.alloc[-1, 0] == 0.0
    assert traj.alloc[-1, 1] == 0.0
    assert traj.counts[-1, 2] == 0 and traj.counts[-1, 3] == 0
    np.testing.assert_array_equal(traj.queues[:, 0], traj.counts[:, 0])
    np.testing.assert_array_equal(traj.queues[:, 1], traj.counts[:, 1])
    np.testing.assert_array_equal(traj.queues[:, 2], 0)
    assert check_conservation(traj).ok


@pytest.mark.parametrize("policy", ["threshold", "priority1", "priority2"])
def test_conservation_holds_on_simulated_paths(policy):
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    traj = simulate(net, policy, 600.0, 9)
    report = check_conservation(traj)
    assert report.ok, report.violations


def test_conservation_flags_a_corrupted_flow_balance():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 200.0, 1)
    traj.queues[len(traj) // 2, 0] += 1
    report = check_conservation(traj)
    assert not report.ok
    assert any("flow" in v or "balance" in v for v in report.violations)


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("policy", ["threshold", "priority1", "priority2"])
def test_derived_counts_and_busy_times_match_row_by_row_bookkeeping(limits, policy):
    """Counting processes and busy times re-accumulated event by event in
    plain Python, as a simulator would keep them, equal the derived columns
    bit for bit."""
    net = make_r_network(limits, 8.0, 1.2, 3.0)
    traj = simulate(net, policy, 400.0, 17)
    events = {(1, 0, 0): 0, (0, 1, 0): 1, (-1, 0, 0): 2, (0, -1, 1): 3, (0, 0, -1): 4}
    counts = [0] * 5
    busy = [0.0] * 3
    count_rows = [tuple(counts)]
    busy_rows = [tuple(busy)]
    q = traj.queues.tolist()
    t = traj.epochs.tolist()
    act = traj.activity.tolist()
    for k in range(1, len(traj)):
        move = (q[k][0] - q[k - 1][0], q[k][1] - q[k - 1][1], q[k][2] - q[k - 1][2])
        if move in events:
            counts[events[move]] += 1
        else:
            assert k == len(traj) - 1 and move == (0, 0, 0)
        dt = t[k] - t[k - 1]
        if act[k - 1][0] == BUFFER1:
            busy[0] += dt
        elif act[k - 1][0] == BUFFER2:
            busy[1] += dt
        if act[k - 1][1] == BUFFER3:
            busy[2] += dt
        count_rows.append(tuple(counts))
        busy_rows.append(tuple(busy))
    assert np.array_equal(traj.counts, np.array(count_rows, dtype=np.int64))
    assert traj.alloc.tobytes() == np.array(busy_rows).tobytes()


@pytest.mark.parametrize(
    "move,violation",
    [(1, "flow:"), (-1, "non-terminal row does not record exactly one event")],
    ids=["double-arrival", "cancelled-service"],
)
def test_conservation_flags_a_shifted_buffer1_queue(move, violation):
    """Shifting buffer 1 up by one from an arrival-1 row on makes that row a
    double arrival, which breaks the flow identities; from a service-1 row
    on it cancels the service, which they cannot see."""
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 200.0, 1)
    rows = np.flatnonzero(np.diff(traj.queues[:, 0]) == move) + 1
    k = int(rows[rows >= len(traj) // 2][0])
    traj.queues[k:, 0] += 1
    report = check_conservation(traj)
    assert any(v.startswith(violation) for v in report.violations), report.violations


def test_conservation_flags_tampered_idleness():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 200.0, 1)
    traj.idle[-1, 0] += 0.5
    assert not check_conservation(traj).ok


def test_conservation_flags_decreasing_counters():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 200.0, 1)
    traj.counts[len(traj) // 2, 3] -= 1
    assert not check_conservation(traj).ok


def test_fluid_scaling_at_r_equal_one_is_the_identity():
    net = RNetwork(
        r=1.0,
        lam=LIMITS.lam,
        mu=LIMITS.mu,
        b=(0.0, 0.0, 0.0),
        ell0=1.2,
        c=3.0,
        threshold_low=0,
        threshold_high=2,
    )
    traj = simulate(net, "priority1", 150.0, 8)
    scaled = fluid_scale(traj, net)
    np.testing.assert_array_equal(scaled.times, traj.epochs)
    np.testing.assert_array_equal(scaled.queues, traj.queues)
    np.testing.assert_array_equal(scaled.alloc, traj.alloc)
    assert scaled.workload is not None


def test_fluid_scaling_divides_amplitudes_by_r_squared():
    net = make_r_network(LIMITS, 4.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 320.0, 2)
    scaled = fluid_scale(traj, net)
    np.testing.assert_allclose(scaled.times, traj.epochs / 16.0)
    np.testing.assert_allclose(scaled.queues, traj.queues / 16.0)
    np.testing.assert_allclose(scaled.workload, WorkloadMatrix(net.mu).apply(traj.queues / 16.0))
    assert scaled.netput is None


def test_diffusion_scaling_rejects_a_mismatched_network():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    other = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 50.0, 0)
    with pytest.raises(ValueError):
        diffusion_scale(traj, other)
    with pytest.raises(ValueError):
        ScaledTrajectory(traj, net, "Fluid")


def test_diffusion_workload_is_the_scaled_clearing_time():
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 1500.0, 21)
    scaled = diffusion_scale(traj, net)
    expected = WorkloadMatrix(net.mu).apply(traj.queues / net.r)
    np.testing.assert_allclose(scaled.workload, expected, atol=1e-12)


def test_diffusion_netput_plus_reflection_reproduces_queues():
    """The centered free process and the allocation deficits rebuild the
    queues and workloads; this pins the drift centering (here with nonzero
    second-order offsets) to the recorded allocations."""
    lim = DRIFTED
    net = make_r_network(lim, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 1500.0, 13)
    scaled = diffusion_scale(traj, net)
    r = net.r
    e = traj.epochs
    t1, t2, t3 = traj.alloc[:, 0], traj.alloc[:, 1], traj.alloc[:, 2]
    rho1 = lim.lam[0] / lim.mu[0]
    rho2 = lim.lam[1] / lim.mu[1]
    y1 = (rho1 * e - t1) / r
    y2 = (rho2 * e - t2) / r
    y3 = (e - t3) / r

    q_rebuilt = np.stack(
        [
            scaled.netput[:, 0] + net.mu[0] * y1,
            scaled.netput[:, 1] + net.mu[1] * y2,
            scaled.netput[:, 2] - net.mu[1] * y2 + net.mu[2] * y3,
        ],
        axis=1,
    )
    np.testing.assert_allclose(q_rebuilt, scaled.queues, atol=1e-9)

    m = WorkloadMatrix(net.mu).array
    w_rebuilt = scaled.netput @ m.T + scaled.idle
    np.testing.assert_allclose(w_rebuilt, scaled.workload, atol=1e-9)


def test_diffusion_identities_hold_without_drift_offsets_too():
    net = make_r_network(LIMITS, 20.0, 1.2, 3.0)
    traj = simulate(net, "priority1", 2000.0, 4)
    scaled = diffusion_scale(traj, net)
    m = WorkloadMatrix(net.mu).array
    np.testing.assert_allclose(scaled.netput @ m.T + scaled.idle, scaled.workload, atol=1e-9)


def test_csv_round_trip_shape():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 60.0, 2)
    buf = io.StringIO()
    write_scaled_csv(ScaledTrajectory(traj, net, "raw"), buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "epoch,Q1,Q2,Q3,T1,T2,T3,I1,I2,server1_activity,server2_activity"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[-2:] == ["idle", "idle"]


def test_scaled_csv_includes_workload_and_netput_columns():
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 60.0, 2)
    buf = io.StringIO()
    write_scaled_csv(diffusion_scale(traj, net), buf)
    header = buf.getvalue().split("\n", 1)[0]
    for col in ("W1", "W2", "X1", "X3", "server2_activity"):
        assert col in header

    buf = io.StringIO()
    write_scaled_csv(fluid_scale(traj, net), buf)
    header = buf.getvalue().split("\n", 1)[0]
    assert "W1" in header and "X1" not in header
