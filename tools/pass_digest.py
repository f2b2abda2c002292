"""Digest, keep or compare the numbers of one pass of every benchmark workload.

    python3 tools/pass_digest.py                          # the digest lines
    python3 tools/pass_digest.py --values OUT.json        # and every number, to OUT.json
    python3 tools/pass_digest.py --compare A.json B.json  # what moved from A to B

Run it from the root of a dyadlab checkout: it imports dyadlab from ./src and
the workloads from ./bench, and runs each workload's pass once at seeds 0 and
1 at the benchmark's size, with the BLAS thread count `bench/run.py` pins.  It
prints one line per workload and seed: the operations attempted and failed,
and the SHA-256 of `repr` of the pass's rows.  Two trees whose lines are equal
give every benchmark output with the same bits.

With --values it also writes every number of those passes to a JSON file,
keyed by workload, then by seed and case (the row's N and its text fields),
then by field (a row's key, with '/' and the key or index of each nested
entry).  --compare reads two such files and runs no pass: for each workload it
prints the count of values whose bits differ, the largest relative change,
each changed value, and every key found in one file only.  It exits 0 when
the files hold the same values under the same keys, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

SEEDS = (0, 1)


def flatten(value, field: str, out: dict) -> None:
    """Each number in `value`, a number or a dict, list or tuple of them,
    into `out` under `field` with '/' and each nested key or index added."""
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{field}/{key}", out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            flatten(item, f"{field}/{index}", out)
    else:
        out[field] = value


def case_values(seed: int, rows: list[dict]) -> dict[str, dict]:
    """A pass's numbers by case: a row's case is its seed, its N and its text
    fields (the operation, or the symbol and the pair), and its other entries
    are the case's fields.  A failed operation's row holds no field."""
    cases = {}
    for row in rows:
        text = [f"{key}={value}" for key, value in row.items() if key == "N" or isinstance(value, str)]
        fields = {}
        for key, value in row.items():
            if key != "N" and not isinstance(value, str):
                flatten(value, key, fields)
        cases[" ".join([f"seed={seed}", *text])] = fields
    return cases


def relative_change(a, b) -> float:
    """|b - a| / max(|a|, |b|): 0.0 between two zeros, inf when either is
    not a finite number."""
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (a, b)):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (a_path, b_path))
    differ = False
    for workload in sorted(a.keys() | b.keys()):
        if workload not in a or workload not in b:
            print(f"{workload}: only in {a_path if workload in a else b_path}")
            differ = True
            continue
        old, new = ({(case, field): v for case, fields in tree[workload].items() for field, v in fields.items()}
                    for tree in (a, b))
        changed = [key for key in old.keys() & new.keys() if repr(old[key]) != repr(new[key])]
        worst = max((relative_change(old[key], new[key]) for key in changed), default=0.0)
        print(f"{workload}: {len(changed)} of {len(old.keys() & new.keys())} shared values changed, "
              f"largest relative change {worst:.3g}")
        for case, field in sorted(changed):
            was, now = old[case, field], new[case, field]
            print(f"  changed {case}: {field}  {was!r} -> {now!r} ({relative_change(was, now):.3g})")
        for keys, path in ((old.keys() - new.keys(), a_path), (new.keys() - old.keys(), b_path)):
            for case, field in sorted(keys):
                print(f"  only in {path}: {case}: {field}")
        differ = differ or bool(changed) or old.keys() != new.keys()
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", metavar="OUT.json", help="also write every number of the passes here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --values files; runs no pass")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not Path("src", "dyadlab").is_dir():
        print("error: run from the root of a dyadlab checkout (no src/dyadlab here)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path("src").resolve()), str(Path("bench").resolve())]
    import run  # the benchmark's driver; pinning its BLAS threads needs numpy unloaded

    run.pin_blas_threads()
    import workloads

    values = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            ledger = workloads.Ledger()
            rows = workloads.PASSES[workload](workloads.build(workload, seed), ledger)
            digest = hashlib.sha256(repr(rows).encode()).hexdigest()
            print(f"{workload} seed={seed} attempted={ledger.attempted} "
                  f"failed={ledger.failed} sha256={digest}", flush=True)
            cases = values.setdefault(workload, {})
            cases[f"seed={seed} ledger"] = {"attempted": ledger.attempted, "failed": ledger.failed}
            cases.update(case_values(seed, rows))
    if args.values:
        Path(args.values).write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
