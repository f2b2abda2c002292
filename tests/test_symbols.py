import math

import numpy as np
import pytest

from dyadlab.errors import DyadlabError
from dyadlab.grids import (
    DyadicInterval,
    enumerate_intervals,
    make_window,
    standard_grid,
    third_shift_grid,
)
from dyadlab.symbols import (
    AnalyticSymbol,
    HaarSymbol,
    StepSymbol,
    haar_coefficient,
    haar_coefficients,
    linear_symbol,
    median_split,
    median_value,
    parabola_symbol,
    quartic_bump_symbol,
    ramp_bump_symbol,
    random_haar_symbol,
    sin_symbol,
)

WIN = make_window(0, 1, 0, 6)


class TestHaarCoefficients:
    def test_single_haar_symbol_reproduces_itself(self):
        target = DyadicInterval("standard", 2, 1)
        b = HaarSymbol(WIN, {target: 1.0})
        coeffs = haar_coefficients(b, standard_grid(), WIN)
        for interval, c in coeffs.items():
            want = 1.0 if interval == target else 0.0
            assert c == pytest.approx(want, abs=1e-13)

    def test_constant_symbol_all_zero(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 3.7))
        for c in haar_coefficients(b, standard_grid(), WIN).values():
            assert c == pytest.approx(0.0, abs=1e-12)

    def test_linear_symbol_unit_interval(self):
        # integral 0..1/2 of x minus integral 1/2..1 of x = 1/8 - 3/8 = -1/4
        b = linear_symbol(WIN)
        c = haar_coefficient(b, DyadicInterval("standard", 0, 0))
        assert c == pytest.approx(-0.25, abs=1e-14)

    def test_third_shift_coefficients_match_quadrature(self):
        # step symbol against the shifted grid: exact fractional-cell sums
        rng = np.random.default_rng(5)
        b = StepSymbol(WIN, rng.normal(size=WIN.n_cells))
        for interval in enumerate_intervals(third_shift_grid(), WIN)[:20]:
            got = haar_coefficient(b, interval)
            xs = np.linspace(float(interval.left), float(interval.right), 40001)[:-1]
            mids = xs + (xs[1] - xs[0]) / 2.0
            from dyadlab.grids import haar_eval

            riemann = np.mean(b.eval(mids) * haar_eval(interval, mids)) * float(
                interval.length
            )
            assert got == pytest.approx(riemann, abs=5e-4)

    def test_parseval_on_haar_span(self):
        b = random_haar_symbol(WIN, n_terms=10, seed=42)
        coeffs = haar_coefficients(b, standard_grid(), WIN)
        total = sum(c * c for c in coeffs.values())
        assert total == pytest.approx(b.l2_norm() ** 2, rel=1e-12)


class TestStepIntegral:
    def test_fractional_cells(self):
        vals = np.arange(WIN.n_cells, dtype=float)
        b = StepSymbol(WIN, vals)
        width = float(WIN.cell_width)
        # cover 2.5 cells starting mid-cell
        a = 3.5 * width
        c = 6.0 * width
        want = 0.5 * width * vals[3] + width * (vals[4] + vals[5])
        assert b.integral(a, c) == pytest.approx(want, rel=1e-14)

    def test_outside_window_clipped(self):
        b = StepSymbol(WIN, np.ones(WIN.n_cells))
        assert b.integral(-5.0, 2.0) == pytest.approx(1.0)


class TestAnalytic:
    def test_cell_values_are_cell_averages(self):
        b = parabola_symbol(WIN)
        edges = WIN.cell_edges()
        width = float(WIN.cell_width)
        for i in (0, 17, 63):
            a, c = edges[i], edges[i + 1]
            exact = (c**2 / 2 - c**3 / 3) - (a**2 / 2 - a**3 / 3)
            assert b.cell_values()[i] == pytest.approx(exact / width, rel=1e-12)

    def test_bump_is_continuous_and_compactly_supported(self):
        for sym in (ramp_bump_symbol(WIN), quartic_bump_symbol(WIN), sin_symbol(WIN)):
            xs = np.linspace(-0.5, 1.5, 4001)
            vals = sym.eval(xs)
            assert np.all(vals[xs < 0] == 0)
            assert np.all(vals[xs >= 1] == 0)
            # difference quotients respect the declared Lipschitz bound
            dq = np.abs(np.diff(vals)) / np.diff(xs)
            assert dq.max() <= sym.lipschitz * (1 + 1e-6)

    def test_quadrature_fallback_matches_antiderivative(self):
        b1 = sin_symbol(WIN)
        b2 = AnalyticSymbol(WIN, b1.fn, antiderivative=None, name="sin_quad")
        assert b2.integral(0.1, 0.9) == pytest.approx(b1.integral(0.1, 0.9), abs=1e-12)


class TestMedian:
    def test_linear_symbol_median_is_half(self):
        b = linear_symbol(WIN)
        assert median_value(b, DyadicInterval("standard", 0, 0)) == pytest.approx(0.5)

    def test_quarter_indicator_median_zero(self):
        # indicator of [0, 1/4): sort the cells, both measure conditions pin 0
        vals = np.zeros(WIN.n_cells)
        vals[: WIN.n_cells // 4] = 1.0
        b = StepSymbol(WIN, vals)
        assert median_value(b, DyadicInterval("standard", 0, 0)) == 0.0

    def test_constant_median_is_constant(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 2.5))
        assert median_value(b, DyadicInterval("standard", 0, 0)) == 2.5

    def test_shift_equivariance(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=WIN.n_cells)
        q = DyadicInterval("standard", 1, 0)
        m0 = median_value(StepSymbol(WIN, vals), q)
        m1 = median_value(StepSymbol(WIN, vals + 3.25), q)
        assert m1 == pytest.approx(m0 + 3.25, rel=1e-12)

    def test_measure_conditions(self):
        rng = np.random.default_rng(31)
        width = float(WIN.cell_width)
        for trial in range(50):
            vals = rng.normal(size=WIN.n_cells)
            b = StepSymbol(WIN, vals)
            q = DyadicInterval("standard", 2, int(rng.integers(0, 4)))
            m = median_value(b, q)
            i0, i1 = WIN.cell_slice(q)
            seg = vals[i0:i1]
            below = np.sum(seg < m) * width
            above = np.sum(seg > m) * width
            assert below <= float(q.length) / 2 + 1e-15
            assert above <= float(q.length) / 2 + 1e-15


class TestMedianSplit:
    def test_linear_split_is_left_right(self):
        w = make_window(0, 1, 0, 6)
        b = linear_symbol(w)
        q = DyadicInterval("standard", 0, 0)
        split = median_split(b, q, q)
        n = w.n_cells
        assert np.array_equal(split.e1, np.arange(0, n // 2))
        assert np.array_equal(split.f1, np.arange(n // 2, n))

    def test_constant_split_degenerates(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 1.0))
        q = DyadicInterval("standard", 1, 0)
        split = median_split(b, q, q.sibling)
        assert split.e1.size == 0 and split.e2.size == 0
        h0, h1 = WIN.cell_slice(q.sibling)
        assert np.array_equal(np.sort(np.union1d(split.f1, split.f2)), np.arange(h0, h1))
        assert split.f1.size == split.f2.size == h1 - h0

    def test_f_sets_cover_and_have_half_measure(self):
        rng = np.random.default_rng(4)
        b = StepSymbol(WIN, rng.normal(size=WIN.n_cells))
        q = DyadicInterval("standard", 2, 1)
        qh = q.sibling
        split = median_split(b, q, qh)
        h0, h1 = WIN.cell_slice(qh)
        union = np.union1d(split.f1, split.f2)
        assert np.array_equal(union, np.arange(h0, h1))
        assert split.f1.size >= (h1 - h0) / 2
        assert split.f2.size >= (h1 - h0) / 2

    def test_sign_coherence(self):
        # for x in E_s and y in F_s the gap to the median is dominated by the
        # symbol difference
        rng = np.random.default_rng(8)
        vals = rng.normal(size=WIN.n_cells)
        b = StepSymbol(WIN, vals)
        q = DyadicInterval("standard", 2, 2)
        split = median_split(b, q, q.sibling)
        for e_set, f_set in ((split.e1, split.f1), (split.e2, split.f2)):
            for i in e_set:
                for k in f_set:
                    assert abs(vals[i] - split.alpha) <= abs(vals[i] - vals[k]) + 1e-15


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_step_symbol_rejects(self, bad):
        vals = np.zeros(WIN.n_cells)
        vals[3] = bad
        with pytest.raises(DyadlabError):
            StepSymbol(WIN, vals)

    def test_haar_symbol_rejects_nan_coefficient(self):
        with pytest.raises(DyadlabError):
            HaarSymbol(WIN, {DyadicInterval("standard", 1, 0): math.nan})

    def test_haar_symbol_is_a_step_symbol(self):
        target = DyadicInterval("standard", 1, 1)
        b = HaarSymbol(WIN, {target: 2.0})
        assert isinstance(b, StepSymbol)
        assert b.coefficients == {target: 2.0}
        assert b.integral(0.5, 0.75) == pytest.approx(2.0 * math.sqrt(2.0) * 0.25, rel=1e-15)
