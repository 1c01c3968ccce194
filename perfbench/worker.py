"""One benchmark process. run.py starts a fresh one for every job, with BLAS
threads pinned to 1, and reads back the JSON it writes.

    python3 perfbench/worker.py JOB.json

Modes (the job's "mode" field):
  setup   time set-up (import, config, networks, constants, policies), exit;
  timed   set up, then run the workload's CLI command repeatedly for the
          job's seconds with no tracing;
  traced  set up, then run the command in pairs, once untraced and once
          traced, on the same seed; audit the first traced command's
          results and measure the policies and peak memory.

Tracing wraps the package's public functions where its modules look them
up, so every call that crosses into a layer becomes a span. Nothing inside
the package is changed, and the wrappers are removed between commands.
"""
from __future__ import annotations

import importlib
import io
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import (
    CSV_HEADER, IDENTITY_TOL, MARGINAL_TARGETS, POLICIES, WORKLOADS, check, file_digest, load_reference, program_seed,
)

LAYERS = ("params", "workload", "policies", "simulate", "bcp", "experiments", "cli")
POLICY_STATES = 20_000
# peak_rss_mb is ru_maxrss after this many commands: the warm-up, its repeat
# and two more seeds. The heap keeps growing over the first few commands.
PEAK_RSS_COMMANDS = 4


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, run, work, label]."""

    def __init__(self, package):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.capture = False
        self.last: dict[str, tuple] = {}
        self._patches = [(owner, attr, fn, self.wrap(fn, name)) for owner, attr, fn, name in _public_calls(package)]

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.run, 0.0, ""]
            self.spans.append(span)
            self.stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                span[1] = t0
                self.stack.pop()
            span[5], span[6] = _work(name, args, result)
            if self.capture:
                self.last[name] = (args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)


def _public_calls(package):
    """(owner, attribute, function, span name) for every module global bound
    to a public function, plus WorkloadMatrix.apply, the one public method
    the per-replication path calls."""
    public = {}
    for attr in package.__all__:
        obj = getattr(package, attr)
        if callable(obj) and not isinstance(obj, type):
            public[id(obj)] = (obj, f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}")
    calls = []
    for mod in [package] + [importlib.import_module(f"crisscross.{layer}") for layer in LAYERS]:
        for attr, value in vars(mod).items():
            if id(value) in public:
                calls.append((mod, attr, *public[id(value)]))
    matrix = package.WorkloadMatrix
    calls.append((matrix, "apply", matrix.apply, "workload.apply"))
    return calls


def _work(name, args, result):
    """(work units, label) of one call, for per-row, per-event and per-cell figures."""
    if name == "simulate.simulate":
        return float(result.counts[-1].sum()), ""
    if name == "simulate.diffusion_scale":
        return float(result.times.shape[0]), ""
    if name in ("simulate.write_scaled_csv", "experiments.discounted_cost"):
        return float(args[0].times.shape[0]), ""
    if name == "simulate.check_conservation":
        return float(len(args[0])), ""
    if name == "workload.apply":
        return float(result.shape[0] if result.ndim == 2 else 1), ""
    if name == "bcp.estimate_j_star":
        return float(result.n_paths * round(result.horizon / result.dt)), ""
    if name == "bcp.estimate_discounted_marginals":
        return float(result[0].n_paths * round(result[0].horizon / result[0].dt)), ""
    if name == "experiments.estimate_cost":
        return float(result.n_reps), f"r{result.r:g}.{result.policy}"
    return 0.0, ""


def set_up(job):
    """Everything a workload needs before its first call, timed from the
    moment run.py started this process."""
    import crisscross
    from crisscross.cli import main
    from crisscross.params import compute_threshold_constants, load_config, make_r_network
    from crisscross.policies import POLICY_NAMES, make_policy

    cfg = load_config(job["config"])
    nets = {r: make_r_network(cfg.limits, r, cfg.ell0, cfg.c) for r in cfg.r_list}
    constants = compute_threshold_constants(cfg.limits)
    for net in nets.values():
        for name in POLICY_NAMES:
            make_policy(name, net)
    setup_s = (time.monotonic_ns() - job["spawn_ns"]) / 1e9
    src = Path(job["src"]).resolve()
    if src not in Path(crisscross.__file__).resolve().parents:
        raise RuntimeError(f"crisscross imported from {crisscross.__file__}, not from {src}")
    return crisscross, main, cfg, constants, setup_s


def _cpu_s():
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_command(main, W, size, job, seed_index):
    """Run one CLI command, timed from argument parsing through the written
    output file. The output is checked and then deleted, so that no
    writeback of it is pending while the next command runs."""
    out = Path(job["out_dir"]) / f"{W.name}.out"
    argv = W.argv(size, job["config"], str(out), program_seed(job["seed"], job["second"], seed_index))
    c0, t0 = _cpu_s(), time.perf_counter()
    rc = main(argv)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    cmd = {"seed_index": seed_index, "rc": rc, "wall_s": wall, "cpu_s": cpu,
           "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if rc == 0:
        cmd["summary"] = W.parse(out)
        cmd["digest"] = file_digest(out)
        cmd["out_bytes"] = out.stat().st_size
        cmd["work"] = W.work(cmd["summary"])
    out.unlink(missing_ok=True)
    return cmd


def command_checks(W, size, job, commands):
    checks = []
    for cmd in commands:
        checks.append(check(f"{W.name}.exit_0", cmd["rc"] == 0, f"rc {cmd['rc']}"))
        if cmd["rc"] == 0:
            checks += W.check_command(size, cmd["summary"])
    by_seed = {}
    for cmd in commands:
        if cmd["rc"] == 0:
            by_seed.setdefault(cmd["seed_index"], []).append(cmd["digest"])
    for idx, digests in by_seed.items():
        if len(digests) > 1:
            checks.append(check(f"{W.name}.same_seed_same_bytes", len(set(digests)) == 1, f"seed index {idx}"))
    if all(cmd["rc"] == 0 for cmd in commands):
        distinct = {cmd["seed_index"]: cmd["summary"] for cmd in commands}
        checks += W.check_pooled(size, list(distinct.values()), load_reference() if job["size"] == "full" else None)
    return checks


def _without_summaries(commands):
    return [{k: v for k, v in c.items() if k != "summary"} for c in commands]


def timed(job, W, size):
    _, main, _, _, setup_s = set_up(job)

    commands = []
    start = time.perf_counter()
    # The first command warms up and is not timed. The second repeats its
    # seed, for the determinism check.
    while len(commands) < PEAK_RSS_COMMANDS or time.perf_counter() - start < job["seconds"]:
        commands.append(run_command(main, W, size, job, max(len(commands) - 1, 0)))
    ok = [c for c in commands[1:] if c["rc"] == 0]
    # Peak RSS as of a fixed number of commands, so that it does not depend
    # on how many commands the run fits in.
    metrics = {"peak_rss_mb": commands[PEAK_RSS_COMMANDS - 1]["maxrss_mb"]}
    if ok:
        # Totals over the whole run, in CPU seconds: see README.md.
        metrics["work_per_s"] = sum(c["work"] for c in ok) / sum(c["cpu_s"] for c in ok)
        metrics["result_s"] = W.result_s(size, ok)
    checks = command_checks(W, size, job, commands)
    return {"setup_s": setup_s, "commands": _without_summaries(commands), "checks": checks, "metrics": metrics}


def traced(job, W, size):
    crisscross, main, cfg, constants, setup_s = set_up(job)

    tracer = Tracer(crisscross)
    traced_main = tracer.wrap(main, "cli.main")
    metrics = {"params.make_r_network_us": _make_r_network_us(crisscross, cfg)}
    plain, with_trace, checks = [], [], []
    spent, k = 0.0, 0
    # At least two pairs, so that each order (untraced first, traced first) runs.
    while k < 2 or spent < job["seconds"]:
        t0 = time.perf_counter()
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.run, tracer.capture = k, k == 0
                tracer.install()
                try:
                    with_trace.append(run_command(traced_main, W, size, job, k))
                finally:
                    tracer.uninstall()
            else:
                plain.append(run_command(main, W, size, job, k))
        spent += time.perf_counter() - t0
        if k == 0 and with_trace[0]["rc"] == 0:
            checks += _audit(tracer, crisscross, cfg, constants, W, metrics)
        k += 1
    checks += command_checks(W, size, job, plain + with_trace)

    metrics.update(_span_metrics(tracer.spans, len(with_trace)))
    metrics["cli.out_bytes"] = statistics.mean(c.get("out_bytes", 0) for c in with_trace)
    metrics["trace.overhead_frac"] = (
        sum(c["cpu_s"] for c in with_trace) / sum(c["cpu_s"] for c in plain) - 1.0
    )
    spans_path = Path(job["out_dir"]) / f"{W.name}_seed{job['seed']}_spans.json"
    keys = ("name", "start_ns", "end_ns", "parent", "run", "work", "label")
    spans_path.write_text(json.dumps([dict(zip(keys, s)) for s in tracer.spans]), encoding="utf-8")
    return {"setup_s": setup_s, "commands": _without_summaries(plain + with_trace), "checks": checks, "metrics": metrics,
            "spans": spans_path.name}


def _make_r_network_us(crisscross, cfg, repeats=200):
    t0 = time.perf_counter()
    for _ in range(repeats):
        for r in cfg.r_list:
            crisscross.make_r_network(cfg.limits, r, cfg.ell0, cfg.c)
    return (time.perf_counter() - t0) / (repeats * len(cfg.r_list)) * 1e6


def _audit(tracer, crisscross, cfg, constants, W, metrics):
    """Checks and measurements on the first traced command's own results.

    The audit's library calls are traced as run -1, so they feed the per-row
    figures but not the per-command ones."""
    checks = []
    recorded, tracer.last, tracer.capture, tracer.run = tracer.last, {}, False, -1
    jstar = recorded.get("bcp.estimate_j_star")
    marginals = recorded.get("bcp.estimate_discounted_marginals")
    sim = recorded.get("simulate.simulate")
    scaled = recorded.get("simulate.diffusion_scale", (None, None, None))[2]
    recorded.clear()
    if sim is not None:
        sim_args, sim_kwargs, traj = sim
        del sim
        net = crisscross.make_r_network(cfg.limits, traj.r, cfg.ell0, cfg.c)
        events = int(traj.counts[-1].sum())
        metrics["simulate.events"] = float(events)
        csv = io.StringIO()
        tracer.install()
        try:
            report = crisscross.check_conservation(traj)
            crisscross.run_diagnostics(scaled, net, constants)
            crisscross.write_scaled_csv(scaled, csv)
        finally:
            tracer.uninstall()
        checks.append(check(f"{W.name}.conservation", report.ok, str(report.first)))
        m = crisscross.WorkloadMatrix(net.mu).array
        resid = float(abs(scaled.netput @ m.T + scaled.idle - scaled.workload).max())
        checks.append(check(f"{W.name}.diffusion_identity", resid <= IDENTITY_TOL, f"residual {resid:.3g}"))
        # One row at t = 0, one per event and one at the horizon.
        lines = csv.getvalue().splitlines()
        checks.append(check(f"{W.name}.csv_header", lines[0] == CSV_HEADER, lines[0]))
        checks.append(check(f"{W.name}.csv_rows_are_events_plus_2", len(lines) - 1 == len(traj) == events + 2,
                            f"rows {len(lines) - 1} events {events}"))
        del csv, lines
        metrics.update(_policy_ns(crisscross, net, traj))
        del traj, scaled  # free the record before simulating again
        peak, traj = _peak_bytes(lambda: crisscross.simulate(*sim_args, **sim_kwargs))
        metrics["simulate.peak_bytes_per_event"] = peak / float(traj.counts[-1].sum())
        del traj
    if jstar is not None:
        args, kwargs, est = jstar
        metrics["bcp.jstar_stderr"] = est.stderr
        metrics["bcp.peak_mb"] = _peak_bytes(lambda: crisscross.estimate_j_star(*args, **kwargs))[0] / 2**20
    if marginals is not None:
        for i, (est, target) in enumerate(zip(marginals[2], MARGINAL_TARGETS)):
            metrics[f"bcp.marginal{i + 1}_rel_err"] = abs(est.mean - target) / target
    return checks


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _policy_ns(crisscross, net, traj):
    """ns per call of each compiled rule, loop included, over states sampled
    from traj."""
    import numpy as np

    rows = np.random.default_rng(0).integers(0, len(traj), POLICY_STATES)
    states = [tuple(int(x) for x in q) for q in traj.queues[rows]]

    def per_call(rule):
        times = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for q1, q2, q3 in states:
                rule(q1, q2, q3)
            times.append((time.perf_counter_ns() - t0) / len(states))
        return statistics.median(times)

    return {
        "policies.threshold_ns": per_call(crisscross.make_policy("threshold", net)),
        "policies.priority_ns": statistics.mean(per_call(crisscross.make_policy(p, net)) for p in POLICIES[1:]),
    }


def _span_metrics(spans, n_commands):
    """Per-layer figures from the spans. Per-command figures use the traced
    commands only (run >= 0); per-row, per-event and per-call figures use
    every span, the audit's included."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    seconds, work, calls, own = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    cells = {}
    for i, (name, t0, t1, parent, run, units, label) in enumerate(spans):
        dur = (t1 - t0) / 1e9
        seconds[name] = seconds.get(name, 0.0) + dur
        work[name] = work.get(name, 0.0) + units
        calls[name] = calls.get(name, 0) + 1
        if run >= 0:
            self_time = dur - child[i] / 1e9
            layer_self[name.split(".", 1)[0]] += self_time
            own[name] = own.get(name, 0.0) + self_time
            if label:
                cells[label] = cells.get(label, 0.0) + dur

    def per_unit(name):
        return seconds[name] / work[name] * 1e9 if work.get(name) else 0.0

    m = {f"self_s.{layer}": layer_self[layer] / n_commands for layer in LAYERS}
    m["cli.main_s"] = seconds["cli.main"] / n_commands
    m["cli.self_s"] = own["cli.main"] / n_commands
    m["simulate.ns_per_event"] = per_unit("simulate.simulate")
    m["simulate.diffusion_scale_ns_per_row"] = per_unit("simulate.diffusion_scale")
    m["simulate.write_csv_ns_per_row"] = per_unit("simulate.write_scaled_csv")
    m["simulate.check_conservation_ns_per_row"] = per_unit("simulate.check_conservation")
    m["workload.apply_ns_per_row"] = per_unit("workload.apply")
    m["experiments.discounted_cost_ns_per_row"] = per_unit("experiments.discounted_cost")
    diag = "experiments.run_diagnostics"
    m["experiments.run_diagnostics_ms"] = seconds[diag] / calls[diag] * 1e3 if diag in calls else 0.0
    m["experiments.self_s"] = own.get("experiments.estimate_cost", 0.0) / n_commands
    m["experiments.reps"] = work.get("experiments.estimate_cost", 0.0) / n_commands
    for label, total in cells.items():
        m[f"experiments.estimate_cost_s.{label}"] = total / n_commands
    m["bcp.path_steps"] = work.get("bcp.estimate_j_star", 0.0) / n_commands
    m["bcp.jstar_ns_per_path_step"] = per_unit("bcp.estimate_j_star")
    m["bcp.marginals_ns_per_path_step"] = per_unit("bcp.estimate_discounted_marginals")
    return m


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    W = WORKLOADS[job["workload"]]
    size = job["sizes"][W.name]
    if job["mode"] == "setup":
        result = {"setup_s": set_up(job)[-1]}
    elif job["mode"] == "timed":
        result = timed(job, W, size)
    else:
        result = traced(job, W, size)
    result["record"] = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "crisscross": sys.modules["crisscross"].__version__,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
