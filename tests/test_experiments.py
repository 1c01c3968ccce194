from __future__ import annotations

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crisscross import experiments
from crisscross.experiments import (
    _chain_cost,
    _chain_weights,
    _poisson_window,
    collapse_bound,
    convergence_sweep,
    discounted_cost,
    estimate_cost,
    fluid_allocation_gap,
    ld_check,
    replicate,
    replication_seed,
    run_diagnostics,
)
from crisscross.params import Config, NetworkLimits, RNetwork, compute_threshold_constants, kappa_bound, make_r_network
from crisscross.policies import _PRIORITY_ORDER, BUFFER1, BUFFER2, BUFFER3, IDLE, POLICY_NAMES, _server1, make_policy
from crisscross.simulate import (
    _CHAIN_BLOCK,
    ScaledTrajectory,
    Trajectory,
    _chain_step,
    _clock_rate,
    _reflect,
    _walk,
    diffusion_scale,
    fluid_scale,
    simulate,
)

# The module, not the function the package exports under its name.
simulate_module = importlib.import_module("crisscross.simulate")

LIMITS = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)
ASYMMETRIC_DRIFTED = NetworkLimits(
    lam=(0.8, 1.8), mu=(2.0, 3.0, 1.8), h=(1.2, 1.0, 0.6), gamma=1.0, b=(0.5, -0.25, 0.75)
)


_UNIT_NET = RNetwork(
    r=1.0, lam=LIMITS.lam, mu=LIMITS.mu, b=(0.0, 0.0, 0.0), ell0=1.2, c=3.0, threshold_low=0, threshold_high=2
)


def _constant_queue_path(times, queues, net=_UNIT_NET, kind="raw"):
    """A view of a hand-made record on net (by default the raw view at r = 1)."""
    times = np.asarray(times, dtype=float)
    traj = Trajectory(
        r=net.r,
        horizon=float(times[-1]),
        epochs=times,
        queues=np.asarray(queues, dtype=np.int64),
        activity=np.zeros((times.shape[0], 2), dtype=np.int8),
    )
    return ScaledTrajectory(traj, net, kind)


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


# Holding costs that are not three finite numbers >= 0.
_BAD_H = [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -1.0), (1.0, 1.0), (1.0, 1.0, 1.0, 1.0), None]


def test_discounted_cost_argument_checks():
    path = _constant_queue_path([0.0], [[0.0, 0.0, 0.0]])
    for gamma in (0.0, math.inf):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            discounted_cost(path, (1.0, 1.0, 1.0), gamma)
    for h in _BAD_H:
        with pytest.raises(ValueError, match="holding costs h = .* must be three finite numbers >= 0"):
            discounted_cost(path, h, 1.0)


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
    for gamma in (0.0, math.inf):
        with pytest.raises(ValueError, match="discount rate gamma = .* must be finite and > 0"):
            estimate_cost(net, "threshold", gamma, LIMITS.h, 0.5, 2, seed=0)
    for h in _BAD_H:
        with pytest.raises(ValueError, match="holding costs h = .* must be three finite numbers >= 0"):
            estimate_cost(net, "threshold", 1.0, h, 0.5, 2, seed=0)
    for n_reps in (2.5, True, math.nan):
        with pytest.raises(ValueError, match="n_reps"):
            estimate_cost(net, "threshold", 1.0, LIMITS.h, 0.5, n_reps, seed=0)


def test_a_policy_is_a_name():
    """A callable or an unknown name is refused as an unknown policy, and a
    replication index that is not a non-negative int is refused by name."""
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    for policy in (make_policy("threshold", net), "lifo"):
        with pytest.raises(ValueError, match="unknown policy"):
            simulate(net, policy, 10.0, 0)
        with pytest.raises(ValueError, match="unknown policy"):
            estimate_cost(net, policy, 1.0, LIMITS.h, 0.5, 2, seed=0)
    for rep in (-1, 1.5, True):
        with pytest.raises(ValueError, match="rep"):
            replicate(net, "threshold", 0.5, 0, rep)


def _poisson_outside(mean, lo, hi):
    """Upper bound on P(Pois(mean) < lo) + P(Pois(mean) >= hi), from
    log-gamma rather than the cumulative sums of the chain weights: past an
    edge the pmf falls at least geometrically, by the neighbour ratio at
    the edge."""
    pmf = lambda k: math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))
    below = pmf(lo - 1) / (1.0 - (lo - 1) / mean) if lo > 0 else 0.0
    return below + pmf(hi) / (1.0 - mean / (hi + 1))


@pytest.mark.parametrize("r", [5.0, 40.0, 160.0])
def test_chain_weights_integrate_the_holding_times_exactly(r):
    """Summed against k^0 and k^1 the holding-time weights must give the
    discounted integrals of 1 and of the expected arrival count lam1 u,
    and the end-state weights a distribution; the truncation drops < 1e-15
    of either Poisson law."""
    net = make_r_network(LIMITS, r, 1.2, 3.0)
    weights = _chain_weights(net, LIMITS.gamma, 15.0)
    c, end = weights.value, weights.end
    n = c.size
    g, u, rate, lam1 = LIMITS.gamma / r**2, r * r * 15.0, _clock_rate(net), net.lam[0]
    assert c.sum() == pytest.approx((1.0 - math.exp(-g * u)) / g, rel=1e-9, abs=0.0)
    first_moment = c @ np.arange(n) * lam1 / rate
    assert first_moment == pytest.approx(lam1 * (1.0 - math.exp(-g * u) * (1.0 + g * u)) / g**2, rel=1e-9, abs=0.0)
    assert end.sum() == pytest.approx(1.0, rel=1e-9, abs=0.0)
    assert 0 <= weights.end_lo and weights.end_lo + end.size <= n
    surv_lo, pmf = _poisson_window((rate + g) * u)
    assert surv_lo + pmf.size == n
    assert _poisson_outside((rate + g) * u, surv_lo, n) < 1e-15
    end_lo, end_pmf = _poisson_window(rate * u)
    assert _poisson_outside(rate * u, end_lo, end_lo + end_pmf.size) < 1e-15


def _mean_and_stderr(samples):
    return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)


def _oracle_server1(net, policy):
    """Test-only scalar rule of server 1, (q1, q2, q3) -> buffer code
    (0 = idle), read off net's rates and thresholds directly; it shares no
    code with policies._server1."""
    if policy == "threshold":
        mu1, mu2 = net.mu[0], net.mu[1]
        low, high = net.threshold_low, net.threshold_high
        ratio, overgrow = mu2 / mu1, (mu1 / mu2) * (high - low + 2)

        def rule(q1, q2, q3):
            if q1 + q2 == 0:
                return IDLE
            if q3 - ratio * q1 < low:
                serve_first = q3 >= high - 1 or q2 == 0
            else:
                serve_first = q1 >= overgrow or q2 == 0
            return BUFFER1 if serve_first else BUFFER2

        return rule
    first, second = {"priority1": (BUFFER1, BUFFER2), "priority2": (BUFFER2, BUFFER1)}[policy]

    def rule(q1, q2, q3):
        queued = (None, q1, q2)
        return first if queued[first] > 0 else second if queued[second] > 0 else IDLE

    return rule


def _stepwise_chain(net, policy, x, q0=(0, 0, 0)):
    """Test-only oracle of the chain: one Python loop over every step of
    the uniforms x, scaled to [0, L), from the queues q0, deciding server 1
    by _oracle_server1 at each. It shares no code with _chain_step, and
    returns the state before each step and after the last, (n + 1, 3), and
    server 1's decision at each step, (n,)."""
    lam1, lam2 = net.lam
    mu1, mu2, _ = net.mu
    rule = _oracle_server1(net, policy)
    q1, q2, q3 = q0
    states = [(q1, q2, q3)]
    decisions = []
    for u in x.tolist():
        a1 = rule(q1, q2, q3)
        decisions.append(a1)
        if u < lam1:
            q1 += 1
        elif u < lam1 + lam2:
            q2 += 1
        elif u < lam1 + lam2 + max(mu1, mu2):
            if a1 == BUFFER1 and u < lam1 + lam2 + mu1:
                q1 -= 1
            elif a1 == BUFFER2 and u < lam1 + lam2 + mu2:
                q2, q3 = q2 - 1, q3 + 1
        elif q3 > 0:
            q3 -= 1
        states.append((q1, q2, q3))
    return np.array(states, dtype=np.int64), np.array(decisions, dtype=np.int8)


def _padded_end(weights):
    """The end-state weights over all K steps: the window's pmf, zeros outside."""
    end = np.zeros(weights.value.size)
    end[weights.end_lo : weights.end_lo + weights.end.size] = weights.end
    return end


def _roulette_step(net, gamma, n):
    """Test-only cut of the chain: k1 = min(n, ceil(5 L r^2/gamma)), the step
    at which the chain's clock reaches gamma t = 5 in the mean, written as
    5 over the discount per step (gamma/r^2)(1/L), as the library forms it."""
    return min(n, math.ceil(5.0 / (gamma / net.r**2 * (1.0 / _clock_rate(net)))))


def _second_child_double(seed):
    """The first double of the stream of seed's second child, spawn key
    + (1,), built without spawning."""
    child = np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, 1))
    return np.random.Generator(np.random.PCG64(child)).random()


def _stepwise_chain_cost(net, policy, weights, h, gamma, seed):
    """Test-only oracle of _chain_cost: the stepwise chain on the same
    uniforms, and one dot product per weight vector and stretch. The chain
    runs in full up to step k1 (_roulette_step); past it, only if the first
    double of the seed's second child is below 1/8, and then its dot
    products over the late steps count 8 times. Returns the cost and
    whether the replication went on past k1."""
    n = weights.value.size
    k1 = _roulette_step(net, gamma, n)
    going_on = k1 == n or _second_child_double(seed) < 1 / 8
    x = np.random.Generator(np.random.PCG64(seed)).random(n if going_on else k1) * _clock_rate(net)
    q = _stepwise_chain(net, policy, x)[0][:-1]
    hq = h[0] * q[:, 0] + h[1] * q[:, 1] + h[2] * q[:, 2]
    value, end = weights.value[: hq.size], _padded_end(weights)[: hq.size]
    return (
        (value[:k1] @ hq[:k1] + 8.0 * (value[k1:] @ hq[k1:])) * weights.value_scale,
        (end[:k1] @ hq[:k1] + 8.0 * (end[k1:] @ hq[k1:])) * weights.end_scale,
        going_on,
    )


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_chain_cost_matches_its_stepwise_oracle(limits, policy):
    """At H = 15 the roulette cuts the chain; replications 0-3 stop at k1
    and replication 4 goes on."""
    net = make_r_network(limits, 10.0, 1.2, 3.0)
    weights = _chain_weights(net, limits.gamma, 15.0)
    assert weights.cut == _roulette_step(net, limits.gamma, weights.value.size) < weights.value.size
    went_on = []
    for rep in range(5):
        seed = replication_seed(5, net.r, rep)
        value, end = _chain_cost(net, policy, weights, limits.h, seed)
        want_value, want_end, going_on = _stepwise_chain_cost(net, policy, weights, limits.h, limits.gamma, seed)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert end == pytest.approx(want_end, rel=1e-12)
        went_on.append(going_on)
    assert went_on == [False] * 4 + [True]


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_replication_walks_the_chain_of_its_cost(limits, policy, monkeypatch):
    """replicate's rows are the stepwise oracle's states on the uniforms
    that _chain_cost reads, with the fictitious steps dropped and the run
    cut at the horizon; its epochs sum Exp(L) holding times drawn from the
    key's first child. The longest run takes two blocks of the walk and
    two chunks of the clock, or 20-29 of each in blocks of 1000 steps."""
    net = make_r_network(limits, 10.0, 1.2, 3.0)
    rate = _clock_rate(net)
    for rep, horizon_scaled in enumerate((0.5, 2.0, 40.0)):
        n = _chain_weights(net, limits.gamma, horizon_scaled).value.size
        seed = replication_seed(5, net.r, rep)
        x = np.random.Generator(np.random.PCG64(seed)).random(n) * rate
        states, _ = _stepwise_chain(net, policy, x)
        at = np.cumsum(np.random.Generator(np.random.PCG64(seed.spawn(1)[0])).exponential(1.0 / rate, n))
        cut = int(np.searchsorted(at, net.r * net.r * horizon_scaled, side="right"))  # steps by the horizon
        assert cut < n
        walk = states[: cut + 1]
        moved = np.flatnonzero((np.diff(walk, axis=0) != 0).any(axis=1))
        for block in (_CHAIN_BLOCK, 1000):
            monkeypatch.setattr(simulate_module, "_CHAIN_BLOCK", block)
            traj = replicate(net, policy, horizon_scaled, 5, rep)
            assert traj.queues.tolist() == [walk[0].tolist(), *walk[moved + 1].tolist(), walk[-1].tolist()], block
            assert traj.epochs.tolist() == [0.0, *at[moved].tolist(), net.r * net.r * horizon_scaled], block


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("r, horizon_scaled", [(5.0, 0.2), (40.0, 15.0)])
def test_simulate_walks_exactly_the_steps_its_clock_puts_by_the_horizon(policy, r, horizon_scaled, monkeypatch):
    """A run walks the chain's steps whose epochs, the cumulative Exp(L)
    holding times of the key's first child, are by the horizon, and no
    further step: a short run of a few dozen steps, and one of about
    120,000 over several blocks."""
    walked = []
    real_step = simulate_module._chain_step

    def counting_step(net, policy, q, x):
        walked[-1] += x.size
        return real_step(net, policy, q, x)

    monkeypatch.setattr(simulate_module, "_chain_step", counting_step)
    net = make_r_network(LIMITS, r, 1.2, 3.0)
    rate, horizon = _clock_rate(net), r * r * horizon_scaled
    for rep in range(4):
        seed = replication_seed(2, r, rep)
        at = np.cumsum(np.random.Generator(np.random.PCG64(seed.spawn(1)[0])).exponential(1.0 / rate, int(2 * rate * horizon) + 100))
        assert at[-1] > horizon
        walked.append(0)
        replicate(net, policy, horizon_scaled, 2, rep)
        assert walked[-1] == np.searchsorted(at, horizon, side="right"), rep


def _assert_chain_cost_is_the_mean_of_its_path_cost(limits, policy, horizon_scaled):
    net = make_r_network(limits, 5.0, 1.2, 3.0)
    n_reps = 600
    weights = _chain_weights(net, limits.gamma, horizon_scaled)
    diffs = np.array(
        [
            _chain_cost(net, policy, weights, limits.h, replication_seed(11, net.r, k)).value
            - discounted_cost(diffusion_scale(replicate(net, policy, horizon_scaled, 11, k), net), limits.h, limits.gamma).value
            for k in range(n_reps)
        ]
    )
    mean, stderr = _mean_and_stderr(diffs)
    assert abs(mean) <= 4.0 * stderr, (mean, stderr)
    return weights


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_chain_cost_is_the_mean_of_its_path_cost(limits, policy):
    """Replication k's chain cost is the mean, given its chain, of the path
    cost of replicate's run k, which walks that chain with drawn holding
    times; so the per-replication differences have mean 0."""
    weights = _assert_chain_cost_is_the_mean_of_its_path_cost(limits, policy, 2.0)
    assert weights.cut == weights.value.size


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_cut_chain_cost_is_the_mean_of_its_path_cost(limits, policy):
    """Past the cut, at H = 15, replication k's chain cost has that mean in
    expectation over its roulette draw too, against a path cost that
    nothing cuts."""
    weights = _assert_chain_cost_is_the_mean_of_its_path_cost(limits, policy, 15.0)
    assert weights.cut < weights.value.size


def test_chain_weights_give_the_arrival_1_count_its_closed_form_mean():
    """The arrival-1 count before each step, read from a replication's
    uniforms as cumsum(x < lam1), summed against the holding-time weights,
    is the discounted integral of a Poisson count, with mean
    lam1 int_0^U e^(-gu) u du / r^3."""
    r, horizon_scaled = 5.0, 15.0
    net = make_r_network(LIMITS, r, 1.2, 3.0)
    weights = _chain_weights(net, LIMITS.gamma, horizon_scaled)
    n, rate = weights.value.size, _clock_rate(net)
    c = weights.value * weights.value_scale
    samples = np.empty(400)
    for k in range(samples.size):
        x = np.random.Generator(np.random.PCG64(replication_seed(13, r, k))).random(n) * rate
        samples[k] = c[1:] @ np.cumsum(x < net.lam[0])[:-1]  # no arrival before step 0
    g, u = LIMITS.gamma / r**2, r * r * horizon_scaled
    exact = net.lam[0] * (1.0 - math.exp(-g * u) * (1.0 + g * u)) / g**2 / r**3
    mean, stderr = _mean_and_stderr(samples)
    assert abs(mean - exact) <= 4.0 * stderr, (mean, stderr, exact)


def _left_to_right(terms):
    """One left-to-right sum of terms; 0.0 when there are none."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def _weighted_terms(net, policy, weights, h, seed, n_steps):
    """The cost of each of the walk's first n_steps steps, times its value
    weight and times its end weight."""
    states = np.concatenate([path[:-1] for _, path in _walk(net, policy, seed, n_steps)])
    hq = h[0] * states[:, 0] + h[1] * states[:, 1] + h[2] * states[:, 2]
    return weights.value[:n_steps] * hq, _padded_end(weights)[:n_steps] * hq


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_chain_cost_is_two_left_to_right_sums_split_at_the_cut(policy):
    """_chain_cost carries its early and late sums across the walk's
    blocks, split at k1 inside the first block here, so its bits are those
    of one left-to-right sum of weight times cost over [0, k1) and one over
    [k1, K), here more than two blocks of steps; the end sums too, though
    they add only the end window's steps. Replication 0 goes on past k1
    and replication 1 stops there."""
    net = make_r_network(ASYMMETRIC_DRIFTED, 20.0, 1.2, 3.0)
    weights = _chain_weights(net, ASYMMETRIC_DRIFTED.gamma, 15.0)
    n, k1 = weights.value.size, weights.cut
    assert n > 2 * _CHAIN_BLOCK and 0 < k1 < _CHAIN_BLOCK
    for rep, going_on in ((0, True), (1, False)):
        seed = replication_seed(3, 20.0, rep)
        assert (_second_child_double(seed) < 1 / 8) == going_on
        value, end = _weighted_terms(net, policy, weights, ASYMMETRIC_DRIFTED.h, seed, n if going_on else k1)
        want = (
            (_left_to_right(value[:k1]) + _left_to_right(value[k1:]) / 0.125) * weights.value_scale,
            (_left_to_right(end[:k1]) + _left_to_right(end[k1:]) / 0.125) * weights.end_scale,
        )
        got = _chain_cost(net, policy, weights, ASYMMETRIC_DRIFTED.h, seed)
        assert [x.hex() for x in got] == [x.hex() for x in want], rep


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("r, horizon_scaled", [(5.0, 0.3), (5.0, 2.0), (40.0, 4.0)])
def test_a_chain_the_cut_does_not_reach_is_the_uncut_sum(limits, policy, r, horizon_scaled):
    """When the chain's K steps end by k1, as at these horizons below
    5/gamma, nothing is drawn or cut: the cost has the bits of one
    left-to-right sum over all K steps per weight vector, the uncut cost."""
    net = make_r_network(limits, r, 1.2, 3.0)
    weights = _chain_weights(net, limits.gamma, horizon_scaled)
    n = weights.value.size
    assert weights.cut == n == _roulette_step(net, limits.gamma, n)
    for rep in range(3):
        seed = replication_seed(9, r, rep)
        value, end = _weighted_terms(net, policy, weights, limits.h, seed, n)
        want = (_left_to_right(value) * weights.value_scale, _left_to_right(end) * weights.end_scale)
        got = _chain_cost(net, policy, weights, limits.h, seed)
        assert [x.hex() for x in got] == [x.hex() for x in want], rep


def _walked_steps(monkeypatch):
    """Record, per call of _chain_cost's walk, how many uniforms it read:
    _walk draws one per step it yields."""
    walked = []
    real_walk = experiments._walk

    def counting_walk(*args, **kwargs):
        walked.append(0)
        for start, path in real_walk(*args, **kwargs):
            walked[-1] += path.shape[0] - 1
            yield start, path

    monkeypatch.setattr(experiments, "_walk", counting_walk)
    return walked


def test_a_stopped_replication_reads_exactly_k1_chain_uniforms(monkeypatch):
    """A replication the roulette stops walks k1 steps, so it reads k1
    uniforms of its stream and no later one; one that goes on reads K."""
    walked = _walked_steps(monkeypatch)
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    weights = _chain_weights(net, LIMITS.gamma, 15.0)
    for rep in range(5):
        _chain_cost(net, "threshold", weights, LIMITS.h, replication_seed(5, net.r, rep))
    assert walked == [weights.cut] * 4 + [weights.value.size]


def test_the_roulette_draw_is_the_keys_second_child(monkeypatch):
    """The draw that decides whether a replication goes on past k1 is the
    first double of the key's second child (spawn key + (1,)): a stream
    apart from the chain's uniforms and from simulate's clock, the first
    child, and the same for every policy of a cell."""
    walked = _walked_steps(monkeypatch)
    net = make_r_network(LIMITS, 40.0, 1.2, 3.0)
    weights = _chain_weights(net, LIMITS.gamma, 15.0)
    seeds = [replication_seed(0, net.r, rep) for rep in range(24)]
    draws = [_second_child_double(seed) for seed in seeds]
    want = [d < 1 / 8 for d in draws]
    assert 0 < sum(want) < len(want)
    for policy in POLICY_NAMES:
        walked.clear()
        for seed in seeds:
            _chain_cost(net, policy, weights, LIMITS.h, seed)
        assert [steps == weights.value.size for steps in walked] == want, policy
    for seed, draw in zip(seeds, draws):
        assert draw != np.random.Generator(np.random.PCG64(seed.spawn(1)[0])).random()
        assert draw != np.random.Generator(np.random.PCG64(seed)).random()


def _assert_chain_step_walks_its_oracle(limits, r, policy, monkeypatch):
    """The walk's paths, in blocks of several sizes and in one block of all
    steps, each at the start it names, are the stepwise oracle's states on
    the replication's uniforms, and _server1 on those states gives the
    oracle's decision at each step."""
    net = make_r_network(limits, r, 1.2, 3.0)
    n = _chain_weights(net, limits.gamma, 15.0).value.size
    seed = replication_seed(7, r, 0)
    x = np.random.Generator(np.random.PCG64(seed)).random(n) * _clock_rate(net)
    states, decisions = _stepwise_chain(net, policy, x)
    assert np.array_equal(_server1(policy, net, states[:-1]), decisions)
    for block in (_CHAIN_BLOCK, 1000, 4097, n):
        monkeypatch.setattr(simulate_module, "_CHAIN_BLOCK", block)
        walked = 0
        for start, path in _walk(net, policy, seed, n):
            assert start == walked, block
            assert np.array_equal(path, states[start : start + path.shape[0]]), (block, start)
            walked += path.shape[0] - 1
        assert walked == n, block


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("r", [5.0, 20.0, 40.0])
@pytest.mark.parametrize("policy", list(_PRIORITY_ORDER))
def test_priority_cascade_has_the_bits_of_the_called_rule(limits, r, policy, monkeypatch):
    """A priority name takes the cascaded reflections; the oracle decides
    by its own rule at every step."""
    _assert_chain_step_walks_its_oracle(limits, r, policy, monkeypatch)


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("r", [5.0, 20.0, 40.0])
def test_threshold_kernel_has_the_bits_of_the_called_rule(limits, r, monkeypatch):
    """The name "threshold" takes the inlined rule; the oracle decides by
    its own rule at every step."""
    _assert_chain_step_walks_its_oracle(limits, r, "threshold", monkeypatch)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    limits=st.sampled_from([LIMITS, ASYMMETRIC_DRIFTED]),
    r=st.floats(min_value=5.0, max_value=200.0),
    ell0=st.floats(min_value=0.5, max_value=3.0),
    c=st.floats(min_value=1.0, max_value=5.0, exclude_min=True),
    data=st.data(),
)
def test_threshold_kernel_gates_match_the_closure_on_edge_states(limits, r, ell0, c, data):
    """One block from start queues up to 3 threshold_high, so that both
    modes and the q1 = 0 and q2 = 0 edges are met: the inlined rule moves
    the queues exactly as the stepwise oracle, deciding by its own rule at
    every step from the same start, does, and _server1 on the oracle's
    states gives its decisions."""
    try:
        net = make_r_network(limits, r, ell0, c)
    except ValueError:  # below the usability floor
        assume(False)
    top = 3 * net.threshold_high
    q0 = data.draw(st.tuples(*[st.integers(0, top)] * 3), label="q")
    u = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=64), label="u")
    x = np.array(u) * _clock_rate(net)
    path = _chain_step(net, "threshold", q0, x)
    states, decisions = _stepwise_chain(net, "threshold", x, q0)
    assert (path.shape, path.dtype) == ((len(u) + 1, 3), np.int64), (q0, u)
    assert path.tolist() == states.tolist(), (q0, u)
    assert _server1("threshold", net, states[:-1]).tolist() == decisions.tolist(), (q0, u)


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_server1_matches_the_stepwise_oracle_rule_on_edge_states(limits, policy):
    """On every state with each queue up to 3 threshold_high + 1, which holds
    both threshold modes, their edges and the q1 = 0 and q2 = 0 faces,
    _server1 decides as the oracle's scalar rule does."""
    for r in (5.0, 40.0):
        net = make_r_network(limits, r, 1.2, 3.0)
        side = np.arange(3 * net.threshold_high + 2)
        q = np.stack(np.meshgrid(side, side, side, indexing="ij"), axis=-1).reshape(-1, 3)
        rule = _oracle_server1(net, policy)
        want = [rule(q1, q2, q3) for q1, q2, q3 in q.tolist()]
        assert _server1(policy, net, q).tolist() == want, r


@settings(max_examples=300, deadline=None)
@given(
    q0=st.integers(min_value=0, max_value=5),
    inc=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=60)
    | st.integers(min_value=1, max_value=20).map(lambda n: [-1] * n),
)
def test_reflect_is_lindleys_recursion(q0, inc):
    inc = np.array(inc)
    path = np.empty(inc.size + 1, dtype=np.int64)
    _reflect(q0, inc == 1, inc == -1, path)
    want = [q0]
    for step in inc:
        want.append(max(want[-1] + step, 0))
    assert path.tolist() == want


def test_estimate_cost_refuses_a_run_past_the_event_limit_before_allocating():
    """r = 300 over 15 needs ~6.8M steps; the Poisson windows of its weights
    alone would take over 1 MB, the refusal about 2 kB."""
    net = make_r_network(LIMITS, 300.0, 1.2, 3.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than the limit"):
            estimate_cost(net, "threshold", 1.0, LIMITS.h, 15.0, 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_estimate_cost_holds_its_weights_and_one_block_of_the_walk():
    """One replication at r = 160 (~1.9M steps) holds the cell's weights,
    ~8.1 bytes per step, and buffers of one block of the walk, whatever r
    is; a replication buffered whole would take several times the
    weights."""
    net = make_r_network(LIMITS, 160.0, 1.2, 3.0)
    n_steps = _chain_weights(net, LIMITS.gamma, 15.0).value.size
    tracemalloc.start()
    try:
        estimate_cost(net, "priority1", LIMITS.gamma, LIMITS.h, 15.0, 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n_steps + (8 << 20), (peak, n_steps)


def _tiny_sweep(policies, r_list):
    cfg = Config(limits=LIMITS, ell0=1.2, c=3.0, r_list=r_list, seed=0, replications=2, horizon=0.3)
    return convergence_sweep(cfg, policies, bcp_dt=0.05, bcp_paths=200)


def test_sweep_needs_a_trend():
    with pytest.raises(ValueError):
        _tiny_sweep(["threshold"], (5.0,))
    with pytest.raises(ValueError):
        _tiny_sweep([], (5.0, 10.0))


def test_sweep_warns_below_the_guaranteed_log_coefficient():
    with pytest.warns(UserWarning, match="floor"):
        result = _tiny_sweep(["threshold"], (3.0, 5.0))
    assert len(result.runs) == 2
    assert result.j_star.mean > 0.0


def test_sweep_is_deterministic_and_gap_uses_the_reference():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = _tiny_sweep(["threshold", "priority1"], (3.0, 5.0))
        b = _tiny_sweep(["threshold", "priority1"], (3.0, 5.0))
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
    for n_samples in (0, 2.5, True, math.nan):
        with pytest.raises(ValueError, match="n_samples"):
            ld_check(1.0, 0.5, (1.0,), n_samples, seed=0)
    with pytest.raises(ValueError):
        ld_check(1.0, 0.5, (-1.0,), 10, seed=0)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="window length"):
            ld_check(1.0, 0.5, (1.0, t), 10, seed=0)
    with pytest.raises(ValueError, match="at least one window length"):
        ld_check(1.0, 0.5, (), 10, seed=0)


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


@pytest.mark.parametrize(
    "limits, state",
    [(LIMITS, (2, 1, 3)), (ASYMMETRIC_DRIFTED, (4, 1, 7))],
    ids=["symmetric", "asymmetric-drifted"],
)
def test_diagnostics_split_states_on_the_rules_regime_line(limits, state):
    """A state on the line q3 - ratio*q1 = low lies outside the rule's safe
    regime, so its q1 counts in collapse_sup1 and its q3 not in
    collapse_sup3. At r = 5 the same test on scaled floats, here
    q3/r - ratio*q1/r >= low/r, misses it by one rounding."""
    net = make_r_network(limits, 5.0, 1.2, 3.0)
    q1, _, q3 = state
    assert q3 - (net.mu[1] / net.mu[0]) * q1 == net.threshold_low
    scaled = _constant_queue_path([0.0, 25.0], [state, state], net, "diffusion")
    report = run_diagnostics(scaled, net, compute_threshold_constants(limits), t_end=1.0)
    assert report.collapse_sup1 == q1 / 5.0
    assert report.collapse_sup3 == 0.0


def test_diagnostics_window_ends_with_the_record(constants):
    """A t_end past the record is clipped to the record's last time, which
    the report gives as its t_end; every other field is that window's."""
    net = make_r_network(LIMITS, 5.0, 1.2, 3.0)
    scaled = diffusion_scale(simulate(net, "threshold", 25.0, 3), net)
    end = float(scaled.times[-1])
    assert end == 1.0
    report = run_diagnostics(scaled, net, constants, t_end=1e9)
    assert report.t_end == end
    assert report == run_diagnostics(scaled, net, constants, t_end=end)


def test_diagnostics_argument_checks(constants):
    net = make_r_network(LIMITS, 10.0, 1.2, 3.0)
    traj = simulate(net, "threshold", 50.0, 0)
    with pytest.raises(ValueError):
        run_diagnostics(fluid_scale(traj, net), net, constants, t_end=1.0)
    with pytest.raises(ValueError):
        run_diagnostics(diffusion_scale(traj, net), net, constants, t_end=0.0)
    for d in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="idleness guard level"):
            run_diagnostics(diffusion_scale(traj, net), net, constants, d=d, t_end=1.0)


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
