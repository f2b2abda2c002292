"""The benchmark's own self-test, run as part of the test suite.

`bench/selftest.py` pins what the benchmark relies on in the library: the
per-interval calls it counts (`haar_coefficient`, the interval geometry
properties, the scalar weight integrals) and the repeat ratios it reports.
A library change that breaks one of those pins fails here, not only when the
benchmark runs.

The tracer counts calls, not table rows, so a tiny ratio_sweep pass must
still make scalar calls, and three scalar paths stay for that:

- `QuadratureWeight`, the one weight kind with its own scalar `integral`,
  makes one such call per table row.  On a ratio_sweep pass these are the
  rows of the mixed pair's quadrature nu; they give
  `weights.quadrature_calls` and `weights.integral_calls`, and, repeated
  across cases that share a window and pair, `weights.repeat_frac`.  The
  closed-form kinds integrate tables with array operations only.
- `haar_coefficients` of an analytic symbol makes one `haar_coefficient`
  call per row that meets the symbol's declared support (every row when it
  declares none), which gives `symbols.haar_coeff_calls`; the call stays for
  that count.  Each call evaluates the antiderivative once, on a 3-point
  array, and its bits are those of the former three scalar evaluations.
- `haar_cell_values` reads `interval.length`, an exact Fraction, once per
  Haar function.  The self-test's tiny ratio_sweep pass builds its
  `random_haar` symbol through it, and these 8 reads are all of that
  pass's `grids.geometry_calls`, so the read stays for that count.

The tracer also rebinds `enumerate_intervals` in every module that imports
it, and the self-test checks that `besov.enumerate_intervals` is such a
binding: `interval_form_ratios` takes its row objects from it, and the
calls give `grids.enumerate_repeat_frac`.
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
