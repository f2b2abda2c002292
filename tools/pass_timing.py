"""Print the median wall time of each operation of the benchmark's passes.

    python3 tools/pass_timing.py                       # every workload, 10 passes
    python3 tools/pass_timing.py --workload diagnostics --passes 30

Run it from the root of a dyadlab checkout: it imports dyadlab from ./src and
the workloads from ./bench, builds each workload's fixture once at the
benchmark's size, with the BLAS thread count `bench/run.py` pins, and runs
its pass repeatedly.  A `workloads.Ledger` subclass times every operation's
`run`; no tracer is installed, so the code timed is the code an untimed pass
runs.  It prints one line per operation, in pass order: the median and the
quartiles of its wall time over the passes, then the median of the whole
pass.  It writes no file.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def main() -> int:
    if not Path("src", "dyadlab").is_dir():
        print("error: run from the root of a dyadlab checkout (no src/dyadlab here)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path("src").resolve()), str(Path("bench").resolve())]
    import run  # the benchmark's driver; pinning its BLAS threads needs numpy unloaded

    run.pin_blas_threads()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append",
                        help="a workload to time; repeat for more (default: all)")
    parser.add_argument("--passes", type=int, default=10, help="passes per workload")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    class TimingLedger(workloads.Ledger):
        """A ledger that also keeps the wall time of every operation it runs."""

        def __init__(self):
            super().__init__()
            self.seconds: dict[str, list[float]] = defaultdict(list)

        def run(self, what: str, fn, *fn_args):
            t0 = time.perf_counter()
            try:
                return super().run(what, fn, *fn_args)
            finally:
                self.seconds[what].append(time.perf_counter() - t0)

    for workload in args.workload or run.WORKLOADS:
        fixture = workloads.build(workload, args.seed)
        workloads.warm_up()
        ledger = TimingLedger()
        passes = []
        for _ in range(args.passes):
            t0 = time.perf_counter()
            workloads.PASSES[workload](fixture, ledger)
            passes.append(time.perf_counter() - t0)
        print(f"{workload}: {args.passes} passes, seed {args.seed}, "
              f"{ledger.failed} of {ledger.attempted} operations failed", flush=True)
        width = max(map(len, ledger.seconds))
        for what, samples in ledger.seconds.items():
            q1, q2, q3 = quartiles(samples)
            print(f"  {what:<{width}}  {q2 * 1e3:9.2f} ms  (quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f})")
        q1, q2, q3 = quartiles(passes)
        print(f"  {'whole pass':<{width}}  {q2 * 1e3:9.2f} ms  (quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f})",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
