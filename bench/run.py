"""Run the dyadlab benchmark.

    python3 bench/run.py --workload ratio_sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                     # every workload, one after another

Run it from the root of a dyadlab checkout: it imports dyadlab from ./src and
writes one JSON run record per run to ./.bench_out/.  A run sets up the
workload, then repeats whole passes of it for about --seconds seconds.  With
--trace 1 it alternates plain and traced passes; the traced ones give the
per-layer metrics and the plain ones the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The lines before it print every metric with
its unit, the seed, the N of every case, and the numpy, BLAS and thread
settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, median_metrics

WORKLOADS = ("ratio_sweep", "spectrum_large", "diagnostics")
# BLAS threads, pinned (and recorded) before numpy loads, because the count
# moves spectrum_large by about 30%.  With two threads on a shared 2-vCPU host
# the idle worker spins, and spectrum_large's run-to-run spread was 16%
# against 3% with one.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6  # fresh processes that repeat set-up, besides the run's own
OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 170


def pin_blas_threads() -> tuple[int, int]:
    """Fix the BLAS thread count in the environment; returns (nproc, threads)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


def timed_setup(workload: str, seed: int):
    """Import dyadlab, build the workload's fixture and warm up LAPACK."""
    t0 = time.perf_counter()
    import workloads

    fixture = workloads.build(workload, seed)
    workloads.warm_up()
    return time.perf_counter() - t0, workloads, fixture


def probe_setup(script: Path, workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(script), "--probe-setup", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def blas_name(np) -> str:
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def measure(wl, fixture, workload: str, seconds: float, trace: bool):
    """Repeat whole passes while the next one is expected to end within
    `seconds`.  With tracing, plain and traced passes alternate and both kinds
    run at least once."""
    tracer = Tracer(wl.LAYERS) if trace else None
    ledger = wl.Ledger()
    run_pass = wl.PASSES[workload]
    plain: list[tuple[float, float]] = []  # (wall, cpu) per pass
    traced: list[tuple[float, dict]] = []  # (wall, layer metrics) per pass
    rows: list = []
    start = time.perf_counter()
    while True:
        traced_turn = trace and len(traced) < len(plain)
        if traced_turn:
            tracer.reset()
            tracer.install()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            rows = run_pass(fixture, ledger)
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if traced_turn:
                tracer.uninstall()
        if traced_turn:
            traced.append((wall, tracer.layer_metrics()))
        else:
            plain.append((wall, cpu))
        walls = [w for w, _ in plain] + [w for w, _ in traced]
        enough = not trace or bool(traced)
        if enough and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return ledger, plain, traced, rows, tracer


def end_to_end_metrics(setup: list[float], plain: list[tuple[float, float]], ledger) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(w for w, _ in plain),
        "cpu_s": statistics.median(c for _, c in plain),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # fail_frac is 0 on a correct build; its complement is never 0
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }


def run_one(args, script: Path, nproc: int, threads: int) -> int:
    setup_s, wl, fixture = timed_setup(args.workload, args.seed)
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import numpy as np

    probes = 0 if args.trace else SETUP_PROBES  # a traced run reports no setup_s
    setup = [setup_s] + [probe_setup(script, args.workload, args.seed) for _ in range(probes)]
    ledger, plain, traced, rows, tracer = measure(
        wl, fixture, args.workload, args.seconds, bool(args.trace)
    )
    if args.trace:
        metrics = median_metrics([m for _, m in traced])
        metrics["trace.overhead_frac"] = (
            statistics.median(w for w, _ in traced) / statistics.median(w for w, _ in plain) - 1.0
        )
    else:
        metrics = end_to_end_metrics(setup, plain, ledger)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(np),
        "nproc": nproc,
        "blas_threads": threads,
    }
    sizes = fixture.sizes()
    print(f"dyadlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("windows: " + ", ".join(f"j_max={j} N={n}" for j, n in sizes.items()))
    for row in rows:
        print("case: " + " ".join(f"{k}={v}" for k, v in row.items()
                                  if k in ("N", "symbol", "pair", "call")))
    print(f"passes: {len(plain)} plain {[round(w, 4) for w, _ in plain]} s"
          + (f", {len(traced)} traced {[round(w, 4) for w, _ in traced]} s" if traced else ""))
    print(f"setup samples: {[round(s, 4) for s in setup]} s")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {unit_of(name)}")
    print(f"  {'fail_frac':30s} {ledger.failed / ledger.attempted:.6g} frac"
          f" ({ledger.failed} of {ledger.attempted} operations)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    out_dir = Path(OUT_DIR)
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "sizes": sizes,
        "setup_samples_s": setup, "plain_passes": plain,
        "traced_passes_s": [w for w, _ in traced], "metrics": metrics,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures, "cases": rows,
        "trace_record": tracer.record() if tracer else None,
    }
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record: {record_path}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, script: Path) -> int:
    """Every workload in its own process, so set-up and peak memory are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(script), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"workload {workload} exited with code {out.returncode}", file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc, threads = pin_blas_threads()
    script = Path(__file__).resolve()
    if not Path("src", "dyadlab").is_dir():
        print("error: run from the root of a dyadlab checkout (no src/dyadlab here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    if args.workload == "all":
        return run_all(args, script)
    return run_one(args, script, nproc, threads)


if __name__ == "__main__":
    sys.exit(main())
