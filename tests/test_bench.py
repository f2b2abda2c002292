"""The benchmark's own self-test, run as part of the test suite.

`bench/selftest.py` pins what the benchmark relies on in the library: the
per-interval calls it counts (`haar_coefficient`, the interval geometry
properties, the scalar weight integrals) and the repeat ratios it reports.
A library change that breaks one of those pins fails here, not only when the
benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
