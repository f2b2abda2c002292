import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.errors import DyadlabError, InvalidConfigurationError, InvalidParameterError
from dyadlab.grids import (
    DyadicInterval,
    default_window,
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

    def test_matches_reference_formula(self):
        window = make_window(-2, 2, -1, 5)
        vals = np.random.default_rng(7).normal(size=window.n_cells)
        b = StepSymbol(window, vals)
        lo, hi, width = float(window.lo), float(window.hi), float(window.cell_width)
        prefix = np.concatenate([[0.0], np.cumsum(vals) * width])

        def reference(a, c):
            a, c = max(a, lo), min(c, hi)
            if c <= a:
                return 0.0

            def at(t):
                pos = (t - lo) / width
                i = max(min(int(math.floor(pos)), window.n_cells - 1), 0)
                return prefix[i] + vals[i] * (pos - i) * width

            return at(c) - at(a)

        cells = width * np.array([0.0, 0.3, 1.0, 2.5, 17.75, 63.9, 64.0, 127.0, 128.0])
        ends = [lo + x for x in cells] + [-7.0, -2.0 - width / 3, 2.0 + width / 3, 9.0]
        for a in ends:
            for c in ends:
                assert b.integral(a, c) == reference(a, c), (a, c)


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


    @pytest.mark.parametrize("interval", [DyadicInterval("standard", 0, 1), DyadicInterval("standard", 2, -1)])
    def test_interval_outside_window_rejected(self, interval):
        with pytest.raises(InvalidConfigurationError, match="inside the window"):
            median_value(linear_symbol(WIN), interval)


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


def reference_random_haar_coefficients(window, n_terms, seed, scale_range):
    """The draw loop of `random_haar_symbol`, for valid inputs."""
    rng = np.random.default_rng(seed)
    j_lo, j_hi = scale_range[0], min(scale_range[1], window.j_max - 1)
    coeffs = {}
    while len(coeffs) < n_terms:
        j = int(rng.integers(j_lo, j_hi + 1))
        k = int(rng.integers(0, 2**j))
        coeffs[DyadicInterval("standard", j, k)] = float(rng.normal())
    return coeffs


class TestRandomHaarSymbol:
    @pytest.mark.parametrize(
        "window, n_terms, scale_range",
        [
            (default_window(7), 8, (1, 5)),
            (default_window(4), 8, (1, 5)),
            (default_window(3), 6, (1, 5)),  # every interval of scales 1..2
            (WIN, 10, (0, 3)),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7, 31337])
    def test_draws_unchanged(self, window, n_terms, scale_range, seed):
        b = random_haar_symbol(window, n_terms=n_terms, seed=seed, scale_range=scale_range)
        want = reference_random_haar_coefficients(window, n_terms, seed, scale_range)
        assert list(b.coefficients.items()) == list(want.items())

    @pytest.mark.parametrize(
        "window, n_terms, scale_range",
        [
            (default_window(2), 8, (1, 5)),  # scale 1 only: two intervals
            (default_window(3), 7, (1, 5)),
            (default_window(7), 8, (4, 2)),
            (default_window(7), 8, (7, 9)),  # capped at j_max - 1 = 6
            (default_window(7), 1, (-1, 3)),
        ],
    )
    def test_too_few_intervals_rejected(self, window, n_terms, scale_range):
        with pytest.raises(InvalidParameterError):
            random_haar_symbol(window, n_terms=n_terms, scale_range=scale_range)


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


def bits(*xs):
    """The IEEE bit patterns of floats, so -0.0 and 0.0 compare unequal."""
    return tuple(struct.pack("<d", float(x)) for x in xs)


SPLIT_WIN = make_window(-2, 2, -1, 5)
SPLIT_W = float(SPLIT_WIN.cell_width)


def split_symbols():
    """One symbol of every kind on SPLIT_WIN."""
    rng = np.random.default_rng(19)
    bump = quartic_bump_symbol(SPLIT_WIN)
    return {
        "step": StepSymbol(SPLIT_WIN, rng.normal(size=SPLIT_WIN.n_cells)),
        "haar": random_haar_symbol(SPLIT_WIN, n_terms=6, seed=3),
        "sin": sin_symbol(SPLIT_WIN),
        "parabola": parabola_symbol(SPLIT_WIN),
        "ramp_bump": ramp_bump_symbol(SPLIT_WIN),
        "quartic_bump": bump,
        "linear": linear_symbol(SPLIT_WIN),
        "quadrature": AnalyticSymbol(SPLIT_WIN, bump.fn, antiderivative=None, name="gl"),
    }


# outside the window, on both window edges, inside fractional end cells, on
# cell edges, and on the support edges and knots of the battery
SPLIT_POINTS = (
    -7.0, -2.0 - SPLIT_W / 3, -2.0, -2.0 + 0.3 * SPLIT_W, -2.0 + 17.75 * SPLIT_W,
    -0.5 * SPLIT_W, 0.0, 0.125, 0.5, 0.5 + 0.4 * SPLIT_W, 1.0,
    2.0 - 0.1 * SPLIT_W, 2.0, 2.0 + SPLIT_W / 3, 9.0,
)


class TestSplitIntegral:
    @pytest.mark.parametrize("kind", sorted(split_symbols()))
    def test_bit_equal_to_two_integrals(self, kind):
        b = split_symbols()[kind]
        # every ordered triple, so inverted and empty halves are covered too
        for a in SPLIT_POINTS:
            for m in SPLIT_POINTS:
                for c in SPLIT_POINTS:
                    want = (b.integral(a, m), b.integral(m, c))
                    assert bits(*b.split_integral(a, m, c)) == bits(*want), (a, m, c)

    @pytest.mark.parametrize("kind", ["step", "haar", "quartic_bump", "ramp_bump", "quadrature"])
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=3, max_size=3
        )
    )
    def test_property_ordered_points(self, kind, points):
        a, m, c = sorted(points)
        b = split_symbols()[kind]
        want = (b.integral(a, m), b.integral(m, c))
        assert bits(*b.split_integral(a, m, c)) == bits(*want)

    def test_antiderivative_called_once_per_point_with_scalars(self):
        calls = []

        def prim(x):
            calls.append(x)
            return x * x / 2.0

        b = AnalyticSymbol(SPLIT_WIN, lambda x: np.asarray(x, dtype=float), prim)
        assert b.split_integral(0.25, 0.5, 1.0) == (0.09375, 0.375)
        assert calls == [0.25, 0.5, 1.0]
        assert all(type(x) is float for x in calls)


def reference_haar_coefficient(b, interval):
    """Fraction geometry read through float(), then two integral calls."""
    amp = 1.0 / math.sqrt(float(interval.length))
    lm = float(interval.mid)
    return amp * (b.integral(float(interval.left), lm) - b.integral(lm, float(interval.right)))


class TestHaarCoefficientReference:
    @pytest.mark.parametrize("grid_id", ["standard", "third_shift"])
    @pytest.mark.parametrize("j", [-2, 0, 5, 13])
    def test_bit_equal_to_two_integral_formula(self, grid_id, j):
        for kind, b in split_symbols().items():
            for k in (-16384, -9, -2, -1, 0, 1, 6, 8191):
                interval = DyadicInterval(grid_id, j, k)
                want = reference_haar_coefficient(b, interval)
                assert bits(haar_coefficient(b, interval)) == bits(want), (kind, k)

    def test_enumerated_intervals_bit_equal(self):
        b = split_symbols()["ramp_bump"]
        for grid in (standard_grid(), third_shift_grid()):
            for interval in enumerate_intervals(grid, SPLIT_WIN):
                want = reference_haar_coefficient(b, interval)
                assert bits(haar_coefficient(b, interval)) == bits(want), interval


def reference_battery():
    """The battery's fn and antiderivative as written with np.clip."""
    om = 2.0 * math.pi
    up0, up1, dn0, dn1, w = 0.125, 0.375, 0.625, 0.875, 0.25

    def on_unit(x, f):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x < 1), f(x), 0.0)

    def clamped(f):
        def prim(x):
            return f(np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

        return prim

    def ramp_fn(x):
        x = np.asarray(x, dtype=float)
        t_up = np.clip((x - up0) / w, 0.0, 1.0)
        t_dn = np.clip((x - dn0) / w, 0.0, 1.0)
        return (3.0 * t_up**2 - 2.0 * t_up**3) - (3.0 * t_dn**2 - 2.0 * t_dn**3)

    def ramp_prim(x):
        x = np.asarray(x, dtype=float)
        t_up = np.clip((x - up0) / w, 0.0, 1.0)
        t_dn = np.clip((x - dn0) / w, 0.0, 1.0)
        lin_up = np.clip(x - up1, 0.0, None)
        lin_dn = np.clip(x - dn1, 0.0, None)
        return (
            w * (t_up**3 - 0.5 * t_up**4) + lin_up - w * (t_dn**3 - 0.5 * t_dn**4) - lin_dn
        )

    return {
        "sin": (
            lambda x: on_unit(x, lambda v: np.sin(om * v)),
            clamped(lambda xc: (1.0 - np.cos(om * xc)) / om),
        ),
        "parabola": (
            lambda x: on_unit(x, lambda v: v * (1.0 - v)),
            clamped(lambda xc: xc**2 / 2.0 - xc**3 / 3.0),
        ),
        "ramp_bump": (ramp_fn, ramp_prim),
        "quartic_bump": (
            lambda x: on_unit(x, lambda v: 16.0 * v**2 * (1.0 - v) ** 2),
            clamped(lambda xc: 16.0 * (xc**3 / 3.0 - xc**4 / 2.0 + xc**5 / 5.0)),
        ),
    }


BATTERY = {
    "sin": sin_symbol,
    "parabola": parabola_symbol,
    "ramp_bump": ramp_bump_symbol,
    "quartic_bump": quartic_bump_symbol,
}
CLAMP_POINTS = (
    -0.0, 0.0, 0, 1, 1.0, 0.125, 0.375, 0.625, 0.875, 0.5, -1.0, 2.0,
    math.nextafter(1.0, 0.0), 5e-324, -5e-324, math.inf, -math.inf, math.nan,
)


class TestBatteryClamps:
    @pytest.mark.parametrize("name", sorted(BATTERY))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bit_equal_to_clip_reference(self, name):
        b = BATTERY[name](WIN)
        for got_fn, want_fn in zip((b.fn, b.antiderivative), reference_battery()[name]):
            inputs = [*CLAMP_POINTS, np.float64(-0.0), np.array(CLAMP_POINTS, dtype=float),
                      np.array([-0.0]), np.tile(np.array(CLAMP_POINTS, dtype=float), 5)]
            for x in inputs:
                got, want = got_fn(x), want_fn(x)
                assert type(got) is type(want), x
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), x

    def test_nan_propagates(self):
        for make in BATTERY.values():
            assert math.isnan(make(WIN).antiderivative(math.nan))
