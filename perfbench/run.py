"""Benchmark of the crisscross toolkit, run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

Each run builds the workload's config from --seed, then starts fresh
single-threaded processes (perfbench/worker.py) against the checkout's own
src/: several that only time set-up, and one that runs the workload. With
--trace 0 that process times the untraced CLI command for --seconds and
reports the end-to-end metrics; with --trace 1 it runs the command untraced
and traced on the same seeds and reports the per-layer metrics. Metric names
and units are those of BENCHMARK.json. Every figure is written with its run
record (machine, load, versions, seeds, sizes) to .perfbench_out/; the last
line of stdout is the JSON result.

--second-seed derives the program's seeds from a second family, so that a
claim made on the usual seeds can be re-checked on streams not used while
writing it. --smoke runs every workload once at a tiny size, in both trace
modes, and checks that every named metric is printed with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS, program_seed  # noqa: E402

SETUP_PROCESSES = 8
BUDGET_S = 170.0
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    pass


def _machine() -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def _start_job(job: dict, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return what it wrote."""
    path = OUT_DIR / f"job_{job['workload']}_{job['mode']}.json"
    job["result"] = str(OUT_DIR / f"result_{job['workload']}_{job['mode']}.json")
    Path(job["result"]).unlink(missing_ok=True)
    job["spawn_ns"] = time.monotonic_ns()
    path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(path)], env=env, cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{job['workload']} {job['mode']} process ran past the time budget")
    if rc != 0:
        raise BenchError(f"{job['workload']} {job['mode']} process exited with status {rc}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: int, second: bool, size_name: str,
             setup_processes: int = SETUP_PROCESSES) -> dict:
    """One benchmark run; returns the result plus its run record."""
    src = ROOT / "src"
    if not (src / "crisscross" / "__init__.py").is_file():
        raise BenchError(f"no crisscross package under {src}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + BUDGET_S
    W = WORKLOADS[workload]
    sizes = SIZES[size_name]
    OUT_DIR.mkdir(exist_ok=True)
    config = OUT_DIR / f"{workload}.config.json"
    config.write_text(json.dumps(dict(W.config(sizes[workload]), seed=program_seed(seed, second, 0))), encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", **BLAS_ENV)
    job = {"workload": workload, "seed": seed, "second": second, "seconds": seconds, "sizes": sizes,
           "size": size_name, "config": str(config), "src": str(src), "out_dir": str(OUT_DIR)}
    load_start = _loadavg()
    # Half the set-up processes run before the workload and half after it,
    # so that the median of set-up time spans the run and not one moment.
    def setup_jobs(n):
        return [_start_job(dict(job, mode="setup"), env, deadline)["setup_s"] for _ in range(n)]

    setups = setup_jobs(setup_processes // 2)
    result = _start_job(dict(job, mode="traced" if trace else "timed"), env, deadline)
    setups += setup_jobs(setup_processes - setup_processes // 2) + [result["setup_s"]]

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = dict(result["metrics"])
    if not trace:
        measured["setup_s"] = statistics.median(setups)
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    if not trace and set(measured) != {m["name"] for m in wanted}:
        raise BenchError(f"end-to-end metrics missing: {sorted({m['name'] for m in wanted} - set(measured))}")
    # A per-layer figure of a layer the workload never calls reads 0.
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    failed = sum(not c["ok"] for c in result["checks"])
    out = {
        "correct": failed == 0,
        "attempted": len(result["checks"]),
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(
        result["record"],
        **_machine(),
        loadavg_start=load_start,
        loadavg_end=_loadavg(),
        blas_env=BLAS_ENV,
        workload=workload,
        seed=seed,
        seed_family="second" if second else "first",
        program_seeds=sorted({program_seed(seed, second, c["seed_index"]) for c in result["commands"]}),
        seconds=seconds,
        trace=trace,
        size=size_name,
        sizes=sizes[workload],
        setup_s_samples=setups,
        commands=result["commands"],
        spans=result.get("spans"),
    )
    record_path = OUT_DIR / f"{workload}_seed{seed}{'_second' if second else ''}_trace{trace}.json"
    record_path.write_text(json.dumps({"result": out, "checks": result["checks"], "record": record}, indent=1),
                           encoding="utf-8")
    return {"result": out, "checks": result["checks"], "record_path": record_path}


def _report(workload: str, run: dict) -> None:
    W = WORKLOADS[workload]
    res = run["result"]
    notes = {"work_per_s": W.work_unit + " per second", "result_s": W.result}
    for name, m in res["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:<10} {name:<44} {m['value']:>16.8g} {m['unit']}{note}")
    print(f"{workload:<10} {'fail_frac':<44} {res['failed'] / res['attempted']:>16.8g} 1"
          f"  ({res['failed']} of {res['attempted']} checks failed)")
    for c in run["checks"]:
        if not c["ok"]:
            print(f"{workload:<10} FAILED {c['name']}: {c['detail']}")
    print(f"{workload:<10} record: {run['record_path'].relative_to(ROOT)}")


def smoke() -> int:
    """Each workload once at smoke size in both trace modes; every named
    metric must come back with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_once(workload, seed=1, seconds=0.0, trace=trace, second=False, size_name="smoke",
                           setup_processes=1)
            _report(workload, run)
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in run["result"]["metrics"].items()}
            if got != wanted or not run["result"]["correct"]:
                bad += 1
                print(f"smoke: {workload} trace {trace} failed", file=sys.stderr)
    print("smoke: ok" if not bad else f"smoke: {bad} failures")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="crisscross benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--second-seed", action="store_true", help="use the second, held-out seed family")
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload and metric")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        run = run_once(args.workload, args.seed, args.seconds, args.trace, args.second_seed, "full")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
