from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crisscross import bcp
from crisscross.bcp import (
    LimitBm,
    admissibility_audit,
    estimate_j_star,
    optimal_queue_path,
    simulate_rbm,
)
from crisscross.params import NetworkLimits
from crisscross.workload import (
    SamplePath,
    WorkloadMatrix,
    effective_cost,
    effective_cost_coefficients,
    skorohod_reflect,
)

LIMITS = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)
DRIFTED = NetworkLimits(
    lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0, b=(0.5, -0.25, 0.75)
)
ASYMMETRIC_DRIFTED = NetworkLimits(
    lam=(0.8, 1.8), mu=(2.0, 3.0, 1.8), h=(1.2, 1.0, 0.6), gamma=1.0, b=(0.5, -0.25, 0.75)
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
    with pytest.raises(ValueError):
        estimate_j_star(LIMITS, dt=1.0, horizon=0.4, n_paths=10)


def test_a_grid_past_the_buffer_limit_is_refused():
    """One path of 150 million steps would need 6.7 GiB of tile buffers;
    the pass refuses it before allocating."""
    with pytest.raises(ValueError, match="GiB of tile buffers"):
        estimate_j_star(LIMITS, dt=1e-7, n_paths=200)


def test_a_path_count_past_the_buffer_limit_is_refused():
    """1e14 paths of 30 steps keep only 776 KiB of tile buffers, but their
    per-path integrals and summaries would need 8.5 PiB; the pass refuses
    them before allocating, naming the limit."""
    with pytest.raises(ValueError, match="over the limit of 2 GiB"):
        estimate_j_star(LIMITS, dt=0.5, n_paths=10**14)


def test_a_path_count_is_an_int_of_at_least_one():
    for n_paths in (0, -1, 2.5, True, math.nan):
        with pytest.raises(ValueError, match=f"need n_paths >= 1, got {n_paths!r}"):
            estimate_j_star(LIMITS, dt=0.5, horizon=1.0, n_paths=n_paths)


def _traced_peak(**kwargs):
    tracemalloc.start()
    try:
        estimate_j_star(LIMITS, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_j_star_peaks_within_its_stated_need():
    """The pass allocates no buffer that its refusal check does not count:
    its traced peak stays within the stated need plus 1 MiB for the
    per-step constants."""
    need = bcp._buffer_need(bcp._grid_steps(0.005, 15.0), 256)
    peak = _traced_peak(dt=0.005, horizon=15.0, n_paths=256)
    assert peak <= need + (1 << 20), (peak, need)


def test_the_stated_need_counts_the_summaries_of_many_paths():
    """At 50,000 paths of 300 steps the per-path terms dominate: the four
    integrals, and the summaries' centred copies of them. The traced peak
    stays within the stated need plus 1 MiB."""
    need = bcp._buffer_need(bcp._grid_steps(0.05, 15.0), 50_000)
    peak = _traced_peak(dt=0.05, horizon=15.0, n_paths=50_000)
    assert peak <= need + (1 << 20), (peak, need)


def test_the_traced_peak_does_not_grow_with_the_path_count():
    """2048 paths of 3000 steps peak at most 32 bytes per extra path (the
    four per-path integrals) plus 256 KiB above 16 paths: no buffer scales
    with the run."""
    small = _traced_peak(dt=0.005, horizon=15.0, n_paths=16)
    large = _traced_peak(dt=0.005, horizon=15.0, n_paths=2048)
    assert large - small <= 32 * (2048 - 16) + (256 << 10), (small, large)


def test_an_int_seed_and_its_seed_sequence_name_one_stream():
    a = estimate_j_star(LIMITS, dt=0.1, horizon=3.0, n_paths=20, seed=5)
    assert a == estimate_j_star(LIMITS, dt=0.1, horizon=3.0, n_paths=20, seed=np.random.SeedSequence(5))


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


def _vectorized_j_star_samples(limits, dt, horizon, n_paths, seed, bridge_minima, roulette=True):
    """The whole-array form of estimate_j_star's pass, kept as its oracle:
    per-path discounted integrals of the cost, of each workload coordinate
    and of the free kink |l . X|, as rows of a (4, n_paths) array, and the
    indices of the paths that ran past the cut.

    The same draws in the same order. The cut sits at step
    n1 = min(n, ceil(5/(gamma dt))). Each path draws its early normals
    (steps [0, n1)), row 0 then row 1, then, with bridge minima, its early
    uniforms the same way. If n1 < n it then draws one uniform, and only if
    that is below 1/8 its late normals and late uniforms; its integrals
    over [n1, n) then count 8 times, and a path that stops has none. With
    roulette=False every path draws its whole (2, n) normals and then its
    (2, n) uniforms, one call each, and runs to n: the layout without a cut.

    Every stage runs on full (k, 2, n) arrays of up to 256 paths, which only
    bounds the memory, since no path's values depend on another's; a
    stopped path's late steps run on filler draws and are dropped. Each
    discount sum is numpy's sum over one path's row, early and late apart.
    The cost is heavy1 . w + (l . w)+ with l = heavy3 - heavy1, its
    integral formed from the workload integrals."""
    chunk = 256
    n = bcp._grid_steps(dt, horizon)
    n1 = min(n, math.ceil(5.0 / (limits.gamma * dt))) if roulette else n
    gen = np.random.Generator(np.random.PCG64(seed))
    heavy3, heavy1 = effective_cost_coefficients(limits.mu, limits.h)
    ell = np.subtract(heavy3, heavy1)
    pdrift, pcov, pchol = bcp._workload_projection(LimitBm.from_limits(limits), WorkloadMatrix(limits.mu).array)
    two_var = 2.0 * np.diag(pcov) * dt
    corr = math.sqrt(dt) * pchol
    wts = bcp._discount_weights(limits.gamma, np.arange(n + 1) * dt)
    samples = np.empty((4, n_paths))
    going_on = []
    for start in range(0, n_paths, chunk):
        k = min(chunk, n_paths - start)
        z = np.zeros((k, 2, n))
        u = np.full((k, 2, n), 0.5)
        late = np.zeros(k, dtype=bool)
        for j in range(k):
            if not roulette:
                z[j] = gen.standard_normal(size=(2, n))
                if bridge_minima:
                    u[j] = gen.random(size=(2, n))
                continue
            z[j, 0, :n1] = gen.standard_normal(n1)
            z[j, 1, :n1] = gen.standard_normal(n1)
            if bridge_minima:
                u[j, 0, :n1] = gen.random(n1)
                u[j, 1, :n1] = gen.random(n1)
            if n1 < n and gen.random() < 1.0 / 8.0:
                late[j] = True
                z[j, 0, n1:] = gen.standard_normal(n - n1)
                z[j, 1, n1:] = gen.standard_normal(n - n1)
                if bridge_minima:
                    u[j, 0, n1:] = gen.random(n - n1)
                    u[j, 1, n1:] = gen.random(n - n1)
        incr = np.stack([corr[0, 0] * z[:, 0], corr[1, 0] * z[:, 0] + corr[1, 1] * z[:, 1]], axis=1)
        incr += (pdrift * dt)[:, None]
        x = np.concatenate([np.zeros((k, 2, 1)), np.cumsum(incr, axis=2)], axis=2)
        a = x[:, :, :-1]
        b = x[:, :, 1:]
        kink = np.abs(ell[0] * a[:, 0] + ell[1] * a[:, 1])
        if bridge_minima:
            disc = (b - a) ** 2 - two_var[:, None] * np.log(u)
            minima = 0.5 * (a + b - np.sqrt(disc))
        else:
            minima = np.minimum(a, b)
        low = np.minimum.accumulate(np.minimum(minima, 0.0), axis=2)
        w = x - np.concatenate([np.zeros((k, 2, 1)), low], axis=2)
        w1 = w[:, 0, :-1]
        w2 = w[:, 1, :-1]
        cost = np.maximum(ell[0] * w1 + ell[1] * w2, 0.0)
        parts = []
        for steps in (slice(0, n1), slice(n1, n)):
            part = np.empty((4, k))
            part[1] = np.sum(w1[:, steps] * wts[steps], axis=1)
            part[2] = np.sum(w2[:, steps] * wts[steps], axis=1)
            part[0] = heavy1[0] * part[1] + heavy1[1] * part[2] + np.sum(cost[:, steps] * wts[steps], axis=1)
            part[3] = np.sum(kink[:, steps] * wts[steps], axis=1)
            parts.append(part)
        early, tail = parts
        early[:, late] += tail[:, late] * 8.0
        samples[:, start : start + k] = early
        going_on.extend(start + np.flatnonzero(late))
    return samples, np.array(going_on, dtype=int)


def _hex(x):
    return None if x is None else x.hex()


def _summary_hex(est):
    return [(_hex(e.mean), _hex(e.stderr)) for e in (est, *est.marginals)]


def _oracle_summary_hex(samples, limits, dt, horizon, bridge):
    """The oracle samples' summaries: the marginals are plain means; with
    bridge minima the cost goes through the library's one combiner."""
    want = [bcp._mc_summary(s) for s in samples[:3]]
    if bridge:
        want[0] = bcp._control_variate_summary(samples[0], samples[1:], _grid_means(limits, dt, horizon))
    return [tuple(_hex(v) for v in s) for s in want]


# Grids of 100 and 3000 steps, both cut by the roulette at gamma t = 5: a
# tile of the first holds up to 128 paths in one tile and 300 in two, and
# the second's tile size divides neither 127 nor 128.
_ORACLE_GRIDS = ((0.1, 10.0), (0.005, 15.0))


def test_oracle_grids_cover_partial_tiles():
    """The seed-17 runs of the bit test send several paths of one tile on
    past the cut, on both grids, so the late stretch runs on compacted
    front rows that are not the paths' own."""
    big, small = (bcp._tile_paths(bcp._grid_steps(dt, horizon)) for dt, horizon in _ORACLE_GRIDS)
    assert 128 < big < 300
    assert 1 < small and 127 % small and 128 % small
    for (dt, horizon), tile in zip(_ORACLE_GRIDS, (big, small)):
        assert bcp._grid_steps(dt, horizon) > math.ceil(5.0 / (LIMITS.gamma * dt))
        _, going_on = _vectorized_j_star_samples(LIMITS, dt, horizon, 300, 17, True)
        tiles = going_on // tile
        front_row = np.arange(going_on.size) - np.searchsorted(tiles, tiles)
        assert np.bincount(tiles).max() >= 2 and np.any(going_on % tile != front_row)


def _grid_means(limits, dt, horizon):
    """Exact means on the grid of the two discounted workload integrals and
    of the discounted free kink, computed as estimate_j_star computes them."""
    n = bcp._grid_steps(dt, horizon)
    pdrift, pcov, _ = bcp._workload_projection(LimitBm.from_limits(limits), WorkloadMatrix(limits.mu).array)
    heavy3, heavy1 = effective_cost_coefficients(limits.mu, limits.h)
    ell = np.subtract(heavy3, heavy1)
    wts = bcp._discount_weights(limits.gamma, np.arange(n + 1) * dt)
    t = np.arange(n) * dt
    means = [np.add.reduce(wts * bcp._reflected_mean(d, s, t)) for d, s in zip(pdrift, np.sqrt(np.diag(pcov)))]
    means.append(np.add.reduce(wts * bcp._folded_mean(float(ell @ pdrift), math.sqrt(ell @ pcov @ ell), t)))
    return np.array(means)


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "grid-minima"])
@pytest.mark.parametrize("grid", _ORACLE_GRIDS, ids=["one-tile", "partial-tiles"])
@pytest.mark.parametrize("n_paths", [1, 127, 128, 300])
def test_tiled_pass_is_bit_identical_to_the_vectorized_oracle(limits, bridge, grid, n_paths):
    dt, horizon = grid
    est = estimate_j_star(limits, dt=dt, horizon=horizon, n_paths=n_paths, seed=17, bridge_minima=bridge)
    samples, _ = _vectorized_j_star_samples(limits, dt, horizon, n_paths, 17, bridge)
    assert _summary_hex(est) == _oracle_summary_hex(samples, limits, dt, horizon, bridge)


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "grid-minima"])
def test_the_tile_budget_never_changes_a_bit(limits, bridge, monkeypatch):
    """One path per tile, 54 per tile and all 130 in one tile give the same
    mean, stderr and marginals, to the bit."""
    runs = []
    for budget in (1, bcp._TILE_BYTES, 1 << 30):
        monkeypatch.setattr(bcp, "_TILE_BYTES", budget)
        runs.append(_summary_hex(estimate_j_star(limits, dt=0.05, n_paths=130, seed=23, bridge_minima=bridge)))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
def test_the_first_k_paths_of_a_run_are_the_paths_of_a_k_path_run(limits):
    """A path's values depend only on the seed, the grid and its index: the
    estimate over k paths is the oracle's summary of the first k of 300."""
    dt, horizon = _ORACLE_GRIDS[1]
    samples, _ = _vectorized_j_star_samples(limits, dt, horizon, 300, 31, True)
    for k in (1, 2, 127, 300):
        est = estimate_j_star(limits, dt=dt, horizon=horizon, n_paths=k, seed=31)
        assert _summary_hex(est) == _oracle_summary_hex(samples[:, :k], limits, dt, horizon, True), k


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
@pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "grid-minima"])
@pytest.mark.parametrize("dt,horizon", [(0.1, 5.0), (0.05, 3.0)], ids=["at-5", "below-5"])
def test_a_horizon_up_to_5_over_gamma_runs_the_uncut_stream(limits, bridge, dt, horizon):
    """Up to gamma t = 5 no path is cut and no roulette uniform is drawn:
    the pass is the oracle without roulette, each path drawing its whole
    (2, n) normals and uniforms in one call each, bit for bit."""
    est = estimate_j_star(limits, dt=dt, horizon=horizon, n_paths=130, seed=19, bridge_minima=bridge)
    samples, _ = _vectorized_j_star_samples(limits, dt, horizon, 130, 19, bridge, roulette=False)
    assert _summary_hex(est) == _oracle_summary_hex(samples, limits, dt, horizon, bridge)


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
def test_the_cut_paths_keep_the_marginals_at_their_exact_grid_means(limits):
    """With the late stretch run by one path in eight and weighted by 8,
    each plain marginal over 40,000 paths of 300 steps sits within 4
    stderrs of its exact grid mean. Without the weight the marginals would
    read ~1.7% low, about 6 stderrs."""
    dt, horizon = 0.05, 15.0
    est = estimate_j_star(limits, dt=dt, horizon=horizon, n_paths=40_000, seed=37)
    for marginal, mean in zip(est.marginals, _grid_means(limits, dt, horizon)[:2]):
        assert abs(marginal.mean - mean) <= 4.0 * marginal.stderr, (marginal.mean, mean, marginal.stderr)


def test_the_estimate_does_not_depend_on_the_blas_thread_count():
    """The exact grid means of the controls, the residual sum of squares and
    discounted_cost's value are pairwise sums, not BLAS dots, which OpenBLAS
    splits across threads on rows over 10,000 floats: a 15,000-step pass,
    the combiner over 100,000 samples, and the discounted cost of a
    118,618-row replication give the same bits with 1 and 2 BLAS threads."""
    src = str(Path(bcp.__file__).resolve().parent.parent)
    code = (
        "import numpy as np\n"
        "from crisscross.bcp import _control_variate_summary, estimate_j_star\n"
        "from crisscross.params import NetworkLimits\n"
        "e = estimate_j_star(NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0),"
        " dt=1e-3, n_paths=12, seed=4)\n"
        "print(*(v.hex() for c in (e, *e.marginals) for v in (c.mean, c.stderr)))\n"
        "gen = np.random.default_rng(1)\n"
        "controls = gen.exponential(size=(3, 100_000))\n"
        "cost = 2.0 * controls[0] - 0.5 * controls[1] + 0.3 * controls[2] + 0.3 * gen.standard_normal(100_000)\n"
        "print(*(v.hex() for v in _control_variate_summary(cost, controls, np.ones(3))))\n"
        "from crisscross import discounted_cost, diffusion_scale, make_r_network, replicate\n"
        "limits = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)\n"
        "net = make_r_network(limits, 40, 1.2, 3)\n"
        "path = diffusion_scale(replicate(net, 'priority1', 15.0, 3, 1), net)\n"
        "print(path.times.shape[0], discounted_cost(path, limits.h, limits.gamma).value.hex())\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("bridge,n_paths", [(True, 2), (True, 3), (True, 4), (False, 4)])
def test_cost_is_the_plain_mean_without_bridge_minima_or_below_four_paths(bridge, n_paths):
    """Three controls leave no residual degree of freedom up to four paths,
    so the bound now sits at five paths; the name keeps its old ids."""
    est = estimate_j_star(ASYMMETRIC_DRIFTED, dt=0.1, horizon=10.0, n_paths=n_paths, seed=5, bridge_minima=bridge)
    samples, _ = _vectorized_j_star_samples(ASYMMETRIC_DRIFTED, 0.1, 10.0, n_paths, 5, bridge)
    assert (_hex(est.mean), _hex(est.stderr)) == tuple(_hex(v) for v in bcp._mc_summary(samples[0]))


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
def test_control_variates_cut_the_cost_stderr_without_moving_the_mean(limits):
    """On the same 4000 paths the controlled cost sits within 3 plain
    stderrs of the plain mean with at most a third of its stderr, and each
    plain marginal sits within 3 stderrs of its exact grid mean."""
    dt, horizon = 0.01, 15.0
    est = estimate_j_star(limits, dt=dt, horizon=horizon, n_paths=4000, seed=29)
    samples, _ = _vectorized_j_star_samples(limits, dt, horizon, 4000, 29, True)
    plain_mean, plain_se = bcp._mc_summary(samples[0])
    assert abs(est.mean - plain_mean) <= 3.0 * plain_se, (est.mean, plain_mean, plain_se)
    assert est.stderr <= plain_se / 3.0, (est.stderr, plain_se)
    for marginal, mean in zip(est.marginals, _grid_means(limits, dt, horizon)[:2]):
        assert abs(marginal.mean - mean) <= 3.0 * marginal.stderr, (marginal.mean, mean, marginal.stderr)


@pytest.mark.parametrize("limits", [LIMITS, ASYMMETRIC_DRIFTED], ids=["symmetric", "asymmetric-drifted"])
def test_the_free_kink_control_cuts_the_two_control_stderr(limits):
    """On the same 4000 paths the three-control cost has at most 0.8 of the
    stderr of the cost with the two workload controls alone, and sits within
    3 of those stderrs of it; the kink integral's plain mean sits within 3
    stderrs of its exact grid mean."""
    dt, horizon = 0.01, 15.0
    est = estimate_j_star(limits, dt=dt, horizon=horizon, n_paths=4000, seed=29)
    samples, _ = _vectorized_j_star_samples(limits, dt, horizon, 4000, 29, True)
    means = _grid_means(limits, dt, horizon)
    two_mean, two_se = bcp._control_variate_summary(samples[0], samples[1:3], means[:2])
    assert est.stderr <= 0.8 * two_se, (est.stderr, two_se)
    assert abs(est.mean - two_mean) <= 3.0 * two_se, (est.mean, two_mean, two_se)
    kink_mean, kink_se = bcp._mc_summary(samples[3])
    assert abs(kink_mean - means[2]) <= 3.0 * kink_se, (kink_mean, means[2], kink_se)


def test_control_variate_summary_is_the_regression_prediction_at_the_control_means():
    """Fitting cost ~ 1 + controls with an intercept column gives the same
    estimate, read off at the known means, and the same residual variance
    on n - 3 degrees of freedom."""
    gen = np.random.Generator(np.random.PCG64(3))
    controls = gen.exponential(size=(2, 50))
    cost = 1.0 + 2.0 * controls[0] - 0.5 * controls[1] + 0.3 * gen.standard_normal(50)
    means = np.array([1.1, 0.9])
    design = np.column_stack([np.ones(50), controls.T])
    coef, rss, *_ = np.linalg.lstsq(design, cost, rcond=None)
    mean, stderr = bcp._control_variate_summary(cost, controls, means)
    assert mean == pytest.approx(coef @ [1.0, *means], rel=1e-12)
    assert stderr == pytest.approx(math.sqrt(rss[0] / 47) / math.sqrt(50), rel=1e-10)


def _running_max_mean_by_quadrature(drift, var, t):
    """E sup_{s<=t} (drift s + sqrt(var) B_s) as the integral over x > 0 of
    P(sup > x) = Phibar((x - drift t)/(sigma sqrt t))
    + exp(2 drift x / var) Phi((-x - drift t)/(sigma sqrt t)),
    by 20-point Gauss-Legendre panels. The sup lies below
    max(drift, 0) t + sup sqrt(var) B, so the tail past 12 sd is below 1e-30."""
    sigma = math.sqrt(var)
    sd = sigma * math.sqrt(t)
    scale = sd if drift >= 0.0 else min(sd, var / (2.0 * -drift))
    upper = max(drift, 0.0) * t + 12.0 * sd
    panels = math.ceil(upper / (scale / 4.0))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, upper, panels + 1)
    half = 0.5 * np.diff(edges)
    x = ((edges[:-1] + half)[:, None] + half[:, None] * nodes).ravel()
    erfc = np.vectorize(math.erfc)
    tail = 0.5 * erfc((x - drift * t) / (sd * math.sqrt(2.0)))
    tail += np.exp(2.0 * drift * x / var) * 0.5 * erfc((x + drift * t) / (sd * math.sqrt(2.0)))
    return float((tail.reshape(panels, 20) @ weights) @ half)


@pytest.mark.parametrize(
    "drift,var,t",
    [
        (0.0, 1.0, 1.0),
        (0.0, 2.0, 0.37),
        (1e-8, 1.0, 2.0),
        (-1e-8, 2.0, 5.0),
        (0.5, 1.0, 3.0),
        (-0.5, 1.0, 3.0),
        (1.25, 0.8, 0.5),
        (-1.0, 2.0, 10.0),
        (-0.25, 4.0, 0.01),
        (2.0, 0.5, 4.0),
    ],
)
def test_reflected_mean_matches_quadrature_of_the_running_maximum_tail(drift, var, t):
    got = bcp._reflected_mean(drift, math.sqrt(var), np.array([t]))[0]
    assert got == pytest.approx(_running_max_mean_by_quadrature(drift, var, t), abs=1e-7)


@pytest.mark.parametrize("drift,var", [(-1.0, 2.0), (-0.3, 0.5), (-2.5, 1.0)])
def test_reflected_mean_tends_to_the_stationary_mean(drift, var):
    """With negative drift E W(t) rises to the exponential stationary mean
    var / (2 |drift|)."""
    t = np.array([0.0, 1.0, 4000.0])
    got = bcp._reflected_mean(drift, math.sqrt(var), t)
    assert got[0] == 0.0
    assert got[1] < got[2]
    assert got[2] == pytest.approx(var / (2.0 * -drift), rel=1e-12)


def _folded_mean_by_quadrature(drift, var, t):
    """E |X| for X normal with mean drift t and variance var t, as the
    integral over x > 0 of x (phi((x - drift t)/sd) + phi((x + drift t)/sd))/sd,
    by 20-point Gauss-Legendre panels of a quarter sd up to |drift| t + 12 sd,
    past which the density is below 1e-30."""
    sd = math.sqrt(var * t)
    upper = abs(drift) * t + 12.0 * sd
    panels = math.ceil(upper / (sd / 4.0))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, upper, panels + 1)
    half = 0.5 * np.diff(edges)
    x = ((edges[:-1] + half)[:, None] + half[:, None] * nodes).ravel()
    density = np.exp(-0.5 * ((x - drift * t) / sd) ** 2) + np.exp(-0.5 * ((x + drift * t) / sd) ** 2)
    integrand = x * density / (sd * math.sqrt(2.0 * math.pi))
    return float((integrand.reshape(panels, 20) @ weights) @ half)


@pytest.mark.parametrize(
    "drift,var,t",
    [
        (0.0, 1.0, 1.0),
        (0.0, 2.5, 0.37),
        (1e-8, 1.0, 2.0),
        (-1e-8, 2.0, 5.0),
        (0.5, 1.0, 3.0),
        (-0.5, 1.0, 3.0),
        (1.25, 0.8, 0.5),
        (-2.0, 0.5, 10.0),
        (-0.25, 4.0, 0.01),
    ],
)
def test_folded_mean_matches_quadrature_of_the_folded_normal_density(drift, var, t):
    got = bcp._folded_mean(drift, math.sqrt(var), np.array([t]))[0]
    assert got == pytest.approx(_folded_mean_by_quadrature(drift, var, t), abs=1e-7)


@pytest.mark.parametrize("drift", [0.0, 1e-8, -0.75])
def test_folded_mean_starts_at_zero_and_is_even_in_the_drift(drift):
    t = np.array([0.0, 0.5, 7.0])
    got = bcp._folded_mean(drift, 1.3, t)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, bcp._folded_mean(-drift, 1.3, t), rtol=1e-14)
