"""Self-tests of the benchmark itself; run them from the repository root:

    python3 bench/selftest.py

They run every workload at a tiny size, corrupt a spectrum and a norm on
purpose to show that the checks catch it, and check the tracer and the
metric names against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.pin_blas_threads()

import spectrum  # noqa: E402
import workloads  # noqa: E402
from dyadlab import besov, grids, operators  # noqa: E402
from tracer import Tracer  # noqa: E402



def tiny_pass(workload: str, seed: int = 0) -> workloads.Ledger:
    ledger = workloads.Ledger()
    workloads.PASSES[workload](workloads.build(workload, seed, tiny=True), ledger)
    return ledger


class TinyWorkloads(unittest.TestCase):
    def test_every_check_passes(self):
        for workload in run.WORKLOADS:
            for seed in (0, 1):
                with self.subTest(workload=workload, seed=seed):
                    ledger = tiny_pass(workload, seed)
                    self.assertGreater(ledger.attempted, 0)
                    self.assertEqual(ledger.failures, [])

    def test_corrupted_spectrum_is_counted(self):
        honest = spectrum.singular_values

        def lossy(mat):
            return honest(mat)[1:]  # drops sigma_max

        with mock.patch.object(spectrum, "singular_values", lossy):
            ledger = tiny_pass("spectrum_large")
        self.assertGreater(ledger.failed, 0)
        self.assertTrue(any("sigma^2" in f for f in ledger.failures), ledger.failures)

    def test_corrupted_norm_is_counted(self):
        honest = besov.dyadic_besov_norm

        def skewed(b, w, p, grid, window, form=1):
            report = honest(b, w, p, grid, window, form)
            if form == 2:
                report.value *= 1.0 + 1e-9
            return report

        with mock.patch.object(besov, "dyadic_besov_norm", skewed):
            ledger = tiny_pass("diagnostics")
        self.assertEqual(ledger.failed, 1)
        self.assertIn("form 2", ledger.failures[0])

    def test_raising_call_is_counted(self):
        def broken(window):
            raise ValueError("no matrix")

        with mock.patch.object(operators, "hilbert_matrix", broken):
            ledger = tiny_pass("ratio_sweep")
        # the failed H also fails every spectrum and ratio built on it
        self.assertEqual(ledger.failed, ledger.attempted)


class TracerAndNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_tracer_counts_and_restores(self):
        originals = {name: getattr(grids, name) for name in ("enumerate_intervals", "grid_shift")}
        left = grids.DyadicInterval.__dict__["left"]
        tracer = Tracer(workloads.LAYERS)
        tracer.install()
        try:
            self.assertIsNot(besov.enumerate_intervals, originals["enumerate_intervals"])
            tiny_pass("ratio_sweep")
        finally:
            tracer.uninstall()
        for name, fn in originals.items():
            self.assertIs(getattr(grids, name), fn)
        self.assertIs(besov.enumerate_intervals, originals["enumerate_intervals"])
        self.assertIs(grids.DyadicInterval.__dict__["left"], left)
        metrics = tracer.layer_metrics()
        for name in ("grids.geometry_calls", "weights.integral_calls",
                     "weights.quadrature_calls", "symbols.haar_coeff_calls",
                     "besov.calls", "spectrum.cells", "operators.matrix_mib"):
            self.assertGreater(metrics[name], 0, name)
        self.assertTrue(0.0 < metrics["spectrum.rank_frac"] < 1.0)
        self.assertGreater(metrics["weights.repeat_frac"], 0.0)
        self.assertTrue(tracer.record()["spans"])

    def test_metric_names_match_benchmark_json(self):
        traced = set(Tracer(workloads.LAYERS).layer_metrics()) | {"trace.overhead_frac"}
        self.assertEqual(traced, {m["name"] for m in self.spec["per_layer"]})
        ledger = workloads.Ledger()
        ledger.attempted = 1
        plain = run.end_to_end_metrics([0.1], [(1.0, 1.0)], ledger)
        self.assertEqual(set(plain), {m["name"] for m in self.spec["end_to_end"]})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_fails_without_the_library(self):
        scratch = ROOT / run.OUT_DIR / "selftest-no-library"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            for path in self.spec["paths"]:
                shutil.copytree(ROOT / path, scratch / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, *self.spec["command"][1:], "--workload", "diagnostics",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
