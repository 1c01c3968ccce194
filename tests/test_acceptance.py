"""Acceptance checks for the whole package, one test per criterion.

`pytest -v` prints one PASSED/FAILED line per criterion; each body also
prints its measured numbers (visible with -s, and in the failure report
otherwise). The Monte Carlo sweep backing the convergence and baseline
criteria is session scoped and computed once.
"""
from __future__ import annotations

import itertools
import json
import math
import time
import warnings
import zlib

import numpy as np
import pytest

from crisscross.bcp import estimate_j_star
from crisscross.cli import main
from crisscross.experiments import (
    SweepConfig,
    convergence_sweep,
    ld_check,
    replication_seed,
    run_diagnostics,
)
from crisscross.params import NetworkLimits, compute_threshold_constants, make_r_network
from crisscross.policies import indicator_form_audit
from crisscross.simulate import check_conservation, diffusion_scale, simulate
from crisscross.workload import (
    SamplePath,
    WorkloadMatrix,
    effective_cost,
    lp_oracle,
    skorohod_reflect,
    skorohod_regulator,
)

LIMITS = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)
ASYMMETRIC = NetworkLimits(lam=(0.8, 1.8), mu=(2.0, 3.0, 1.8), h=(1.2, 1.0, 0.6), gamma=1.0)

R_LIST = (5.0, 10.0, 20.0, 40.0)
POLICIES = ("threshold", "priority1", "priority2")


@pytest.fixture(scope="session")
def sweep():
    """Discounted-cost sweep shared by the convergence and baseline criteria."""
    cfg = SweepConfig(
        ell0=1.2,
        c=3.0,
        horizon_scaled=15.0,
        n_reps=200,
        seed=0,
        bcp_dt=1e-3,
        bcp_paths=100_000,
    )
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = convergence_sweep(LIMITS, POLICIES, R_LIST, cfg)
    print("\n[setup] cost sweep: %.0fs" % (time.perf_counter() - t0))
    return result


def test_criterion_01_closed_form_cost_matches_the_vertex_oracle():
    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.PCG64(1))
    pairs = np.exp(gen.normal(size=(1000, 2)))
    worst_value = worst_z = 0.0
    for mu, h in ((LIMITS.mu, LIMITS.h), (ASYMMETRIC.mu, ASYMMETRIC.h)):
        for w in pairs:
            fast = effective_cost(tuple(w), mu, h)
            slow = lp_oracle(tuple(w), mu, h)
            worst_value = max(worst_value, abs(fast.value - slow.value))
            worst_z = max(worst_z, max(abs(a - b) for a, b in zip(fast.z, slow.z)))
            assert fast.region == slow.region
    assert worst_value <= 1e-9, f"value mismatch {worst_value:.3e}"
    assert worst_z <= 1e-9, f"vertex mismatch {worst_z:.3e}"

    # Monotone in each workload coordinate.
    for w in pairs[:200]:
        base = effective_cost(tuple(w), LIMITS.mu, LIMITS.h).value
        assert effective_cost((w[0] + 0.05, w[1]), LIMITS.mu, LIMITS.h).value >= base - 1e-12
        assert effective_cost((w[0], w[1] + 0.05), LIMITS.mu, LIMITS.h).value >= base - 1e-12

    # Continuous across the region boundary.
    mu1, mu2, mu3 = LIMITS.mu
    for w1 in np.linspace(0.05, 4.0, 50):
        w2_star = mu2 * w1 / mu3
        lo = effective_cost((w1, w2_star - 1e-10), LIMITS.mu, LIMITS.h).value
        hi = effective_cost((w1, w2_star + 1e-10), LIMITS.mu, LIMITS.h).value
        assert abs(hi - lo) <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    print(f"[PASS] criterion 1: oracle agreement <= {worst_value:.1e} on 2000 pairs, {elapsed * 1e3:.0f}ms")


def test_criterion_02_reflection_map_properties():
    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.PCG64(2))
    times = np.arange(1000.0)

    worst_floor = 0.0
    for _ in range(100):
        x = np.concatenate([[0.0], gen.normal(size=999).cumsum()])
        path = SamplePath(times, x)
        reflected = skorohod_reflect(path)
        worst_floor = min(worst_floor, float(reflected.values.min()))
        twice = skorohod_reflect(reflected)
        assert np.array_equal(twice.values, reflected.values)
    assert worst_floor >= 0.0, f"reflection dipped to {worst_floor:.3e}"

    # Minimality: 1000 admissible competitors never undercut the regulator.
    checked = 0
    for _ in range(10):
        x = np.concatenate([[0.0], gen.normal(size=999).cumsum()])
        reg = skorohod_regulator(SamplePath(times, x)).values
        for _ in range(100):
            extra = np.abs(gen.normal(size=1000)) * 0.3
            extra[0] = 0.0
            comp = np.maximum.accumulate(np.maximum(-x + extra, 0.0))
            comp[0] = 0.0
            assert np.all(x + comp >= -1e-12)
            assert np.all(comp >= reg - 1e-12)
            checked += 1
    assert checked == 1000

    # Lipschitz with constant 2 in the uniform norm.
    worst_ratio = 0.0
    for _ in range(100):
        x = np.concatenate([[0.0], gen.normal(size=999).cumsum()])
        y = x + np.concatenate([[0.0], 0.2 * gen.normal(size=999)])
        rx = skorohod_reflect(SamplePath(times, x)).values
        ry = skorohod_reflect(SamplePath(times, y)).values
        gap = np.abs(x - y).max()
        if gap > 0:
            worst_ratio = max(worst_ratio, np.abs(rx - ry).max() / gap)
    assert worst_ratio <= 2.0 + 1e-12, f"Lipschitz ratio {worst_ratio:.4f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    print(f"[PASS] criterion 2: floor {worst_floor:.1e}, Lipschitz ratio {worst_ratio:.3f}, {elapsed:.2f}s")


def test_criterion_03_reflected_workload_marginals():
    t0 = time.perf_counter()
    m1, m2 = estimate_j_star(LIMITS, dt=1e-3, n_paths=100_000, seed=3).marginals
    elapsed = time.perf_counter() - t0
    target1 = 1.0 / math.sqrt(2.0)
    rel1 = abs(m1.mean - target1) / target1
    rel2 = abs(m2.mean - 1.0)
    assert rel1 <= 0.02, f"first marginal {m1.mean:.5f} off target {target1:.5f} by {rel1:.2%}"
    assert rel2 <= 0.02, f"second marginal {m2.mean:.5f} off target 1 by {rel2:.2%}"
    print(
        f"[PASS] criterion 3: marginals {m1.mean:.5f}/{m2.mean:.5f} "
        f"(targets {target1:.5f}/1.0, errors {rel1:.2%}/{rel2:.2%}), {elapsed:.0f}s"
    )


def test_criterion_04_conservation_across_policies_and_scales():
    t0 = time.perf_counter()
    reps = 17
    runs = 0
    worst_identity = 0.0
    for policy, r in itertools.product(POLICIES, (5.0, 20.0)):
        net = make_r_network(LIMITS, r, 1.2, 3.0)
        m = WorkloadMatrix(net.mu).array
        for rep in range(reps):
            # Streams salted per policy: the shared entropy with the policy's
            # CRC-32 in place of its trailing 0.
            shared = replication_seed(4, r, rep).entropy
            seed = np.random.SeedSequence(entropy=(*shared[:-1], zlib.crc32(policy.encode())))
            traj = simulate(net, policy, r * r * 2.0, seed)
            report = check_conservation(traj)
            assert report.ok, f"{policy} r={r} rep={rep}: {report.first}"
            scaled = diffusion_scale(traj, net)
            resid = np.abs(scaled.netput @ m.T + scaled.idle - scaled.workload).max()
            worst_identity = max(worst_identity, float(resid))
            runs += 1
    assert runs >= 100
    assert worst_identity <= 1e-9, f"scaled identity residual {worst_identity:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    print(f"[PASS] criterion 4: {runs} replications conserved, identity residual {worst_identity:.1e}, {elapsed:.1f}s")


def test_criterion_05_threshold_rule_equals_its_indicator_form():
    t0 = time.perf_counter()
    nets = (
        make_r_network(LIMITS, 20.0, 1.2, 3.0),
        make_r_network(LIMITS, 60.0, 1.5, 2.2),
        make_r_network(ASYMMETRIC, 30.0, 1.3, 2.6),
    )
    states = 0
    for net in nets:
        for q in itertools.product(range(31), repeat=3):
            assert indicator_form_audit(q, net)
            states += 1
    elapsed = time.perf_counter() - t0
    assert states == 3 * 31**3
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    print(f"[PASS] criterion 5: {states} states audited on 3 networks, {elapsed:.1f}s")


def test_criterion_06_threshold_cost_converges_to_the_reference(sweep):
    js = sweep.j_star
    runs = {run.r: run for run in sweep.runs if run.policy == "threshold"}
    gaps = {r: sweep.gap(runs[r]) for r in R_LIST}
    detail = ", ".join("r=%g: %+.3f" % (r, gaps[r]) for r in R_LIST)

    for a, b in zip(R_LIST, R_LIST[1:]):
        allowance = 2.0 * math.hypot(runs[a].stderr, runs[b].stderr) / js.mean
        assert gaps[b] <= gaps[a] + allowance, (
            f"gap grew from r={a} ({gaps[a]:+.4f}) to r={b} ({gaps[b]:+.4f}), allowance {allowance:.4f}"
        )
    final = gaps[R_LIST[-1]]
    assert abs(final) < 0.15, f"largest-r gap {final:+.4f} not within 15% (reference {js.mean:.4f})"
    print(f"[PASS] criterion 6: gaps {detail}; reference {js.mean:.4f} +- {js.stderr:.4f}")


def test_criterion_07_priority_baselines_are_not_cheaper(sweep):
    js = sweep.j_star
    threshold = next(r for r in sweep.runs if r.policy == "threshold" and r.r == R_LIST[-1])
    lines = []
    for name in ("priority1", "priority2"):
        run = next(r for r in sweep.runs if r.policy == name and r.r == R_LIST[-1])
        assert run.mean >= js.mean - 2.0 * run.stderr, (
            f"{name} at r={run.r} beat the reference: {run.mean:.4f} vs {js.mean:.4f}"
        )
        spread = 2.0 * math.hypot(run.stderr, threshold.stderr)
        assert run.mean >= threshold.mean - spread, (
            f"{name} at r={run.r} beat the threshold rule: {run.mean:.4f} vs {threshold.mean:.4f}"
        )
        lines.append(f"{name} {run.mean:.4f}")
    print(f"[PASS] criterion 7: r=40 baselines {', '.join(lines)} vs threshold {threshold.mean:.4f}")


def test_criterion_08_collapse_diagnostics_shrink_with_r():
    t0 = time.perf_counter()
    constants = compute_threshold_constants(LIMITS)
    reps = 500
    stats: dict[float, dict[str, tuple[float, float]]] = {}
    for r in (10.0, 40.0):
        net = make_r_network(LIMITS, r, 1.2, 3.0)
        samples = {"collapse_sup1": [], "collapse_sup3": [], "product_sup": [], "idle_mass_Y": []}
        for rep in range(reps):
            traj = simulate(net, "threshold", r * r * 1.0, replication_seed(8, r, rep))
            report = run_diagnostics(diffusion_scale(traj, net), net, constants, t_end=1.0)
            for key in samples:
                samples[key].append(getattr(report, key))
        stats[r] = {
            key: (float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(reps)))
            for key, v in samples.items()
        }
    parts = []
    for key in ("collapse_sup1", "collapse_sup3", "product_sup", "idle_mass_Y"):
        coarse_mean, coarse_se = stats[10.0][key]
        fine_mean, fine_se = stats[40.0][key]
        allowance = 2.0 * math.hypot(coarse_se, fine_se)
        assert fine_mean <= coarse_mean + allowance, (
            f"{key} grew from {coarse_mean:.4f} (r=10) to {fine_mean:.4f} (r=40), allowance {allowance:.4f}"
        )
        parts.append(f"{key} {coarse_mean:.3f}->{fine_mean:.3f}")
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion 8: {'; '.join(parts)} over {reps} replications, {elapsed:.0f}s")


def test_criterion_09_poisson_tails_sit_under_the_exponential_bound():
    t0 = time.perf_counter()
    rows = ld_check(1.0, 0.5, (10.0, 25.0, 50.0), 1_000_000, seed=9)
    for row in rows:
        assert row.within, f"t={row.t}: empirical {row.empirical:.3e} above bound {row.bound:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    detail = ", ".join(f"t={row.t:g}: {row.empirical:.1e}<={row.bound:.1e}" for row in rows)
    print(f"[PASS] criterion 9: {detail}, {elapsed:.1f}s")


def test_criterion_10_cli_output_is_byte_deterministic(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "lambda": [1.0, 1.0],
                "mu": [2.0, 2.0, 1.0],
                "h": [1.0, 1.0, 1.0],
                "gamma": 1.0,
                "ell0": 1.2,
                "c": 3.0,
                "r_list": [3, 5],
                "seed": 7,
                "replications": 2,
                "horizon": 0.3,
            }
        ),
        encoding="utf-8",
    )
    commands = {
        "simulate": ["simulate", "--r", "5", "--horizon-scaled", "0.2", "--scale", "diffusion"],
        "bcp": ["bcp", "--dt", "0.05", "--paths", "200"],
        "converge": ["converge", "--policies", "threshold,priority1", "--bcp-dt", "0.05", "--bcp-paths", "200"],
        "thresholds": ["thresholds"],
        "ld-check": ["ld-check", "--t-grid", "5,10", "--samples", "2000"],
        "diagnostics": ["diagnostics", "--r", "5", "--horizon-scaled", "0.3"],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, args in commands.items():
            first = tmp_path / f"{name}-1.out"
            second = tmp_path / f"{name}-2.out"
            assert main(args + ["--config", str(config), "--out", str(first)]) == 0
            assert main(args + ["--config", str(config), "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), f"{name} output changed between runs"
            assert first.stat().st_size > 0
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion 10: {len(commands)} subcommands byte-stable, {elapsed:.1f}s")
