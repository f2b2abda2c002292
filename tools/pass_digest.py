"""Print a digest of one pass of every benchmark workload.

    python3 tools/pass_digest.py

Run it from the root of a dyadlab checkout: it imports dyadlab from ./src and
the workloads from ./bench, and runs each workload's pass once at seeds 0 and
1 at the benchmark's size, with the BLAS thread count `bench/run.py` pins.  It
prints one line per workload and seed: the operations attempted and failed,
and the SHA-256 of `repr` of the pass's rows.  Two trees whose lines are equal
give every benchmark output with the same bits.  It writes no file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

SEEDS = (0, 1)


def main() -> int:
    if not Path("src", "dyadlab").is_dir():
        print("error: run from the root of a dyadlab checkout (no src/dyadlab here)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path("src").resolve()), str(Path("bench").resolve())]
    import run  # the benchmark's driver; pinning its BLAS threads needs numpy unloaded

    run.pin_blas_threads()
    import workloads

    for workload in run.WORKLOADS:
        for seed in SEEDS:
            ledger = workloads.Ledger()
            rows = workloads.PASSES[workload](workloads.build(workload, seed), ledger)
            digest = hashlib.sha256(repr(rows).encode()).hexdigest()
            print(f"{workload} seed={seed} attempted={ledger.attempted} "
                  f"failed={ledger.failed} sha256={digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
