import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_operators import STRUCTURE_WINDOWS

from dyadlab import symbols
from dyadlab.errors import DyadlabError, InvalidConfigurationError, InvalidParameterError
from dyadlab.grids import (
    DyadicInterval,
    default_window,
    enumerate_intervals,
    gauss_legendre_32,
    haar_cell_values,
    interval_table,
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
        table = interval_table(standard_grid(), WIN)
        for interval, c in zip(table.intervals(), haar_coefficients(b, table).tolist()):
            want = 1.0 if interval == target else 0.0
            assert c == pytest.approx(want, abs=1e-13)

    def test_constant_symbol_all_zero(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 3.7))
        table = interval_table(standard_grid(), WIN)
        for c in haar_coefficients(b, table).tolist():
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
            left, mid, right = interval.float_bounds()
            amp = 1.0 / math.sqrt(right - left)
            h = np.where(mids < mid, amp, -amp)  # every midpoint lies in [left, right)
            riemann = np.mean(b.eval(mids) * h) * float(interval.length)
            assert got == pytest.approx(riemann, abs=5e-4)

    def test_parseval_on_haar_span(self):
        b = random_haar_symbol(WIN, n_terms=10, seed=42)
        table = interval_table(standard_grid(), WIN)
        total = sum(c * c for c in haar_coefficients(b, table).tolist())
        v = b.cell_values()
        l2_norm = math.sqrt(float(np.sum(v * v)) * float(WIN.cell_width))
        assert total == pytest.approx(l2_norm**2, rel=1e-12)


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

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: b.integral(math.nan, 1.0),
            lambda b: b.integral(0.0, math.nan),
            lambda b: b.split_integral(0.0, math.nan, 1.0),
            lambda b: b.split_integrals(np.array([0.0, 0.5]), np.array([0.5, math.nan]), np.ones(2)),
        ],
        ids=["integral a", "integral b", "split m", "table row"],
    )
    def test_nan_bound_rejected(self, call):
        with pytest.raises(InvalidParameterError):
            call(StepSymbol(WIN, np.ones(WIN.n_cells)))

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"n_terms": 2.5}, "n_terms"),
            ({"n_terms": -3}, "n_terms"),
            ({"n_terms": 0}, "n_terms"),
            ({"seed": True}, "seed"),
            ({"n_terms": True}, "n_terms"),
            ({"scale_range": (1.0, 3.0)}, "scale_range"),
            ({"scale_range": None}, "scale_range"),
            ({"scale_range": (1, 2, 3)}, "scale_range"),
            ({"scale_range": (True, 5)}, "scale_range"),
            ({"scale_range": (1, True)}, "scale_range"),
            ({"scale_range": (np.True_, 5)}, "scale_range"),
        ],
        ids=[
            "negative-seed", "float-seed", "float-n", "negative-n", "zero-n", "bool-seed", "bool-n",
            "float-scales", "no-scales", "three-scales", "bool-low-scale", "bool-high-scale", "numpy-bool-scale",
        ],
    )
    def test_bad_seed_or_count_rejected(self, kwargs, message):
        with pytest.raises(InvalidParameterError, match=message):
            random_haar_symbol(default_window(7), **kwargs)

    def test_numpy_integers_keep_their_draws(self):
        b = random_haar_symbol(default_window(7), n_terms=np.int32(6), seed=np.int64(7), scale_range=(np.int64(1), 5))
        assert b.coefficients == random_haar_symbol(default_window(7), n_terms=6, seed=7).coefficients


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StepSymbol(default_window(5), [1e308] * 256),
            lambda: HaarSymbol(default_window(5), {DyadicInterval("standard", 0, 0): 1e308}),
        ],
        ids=["step", "haar"],
    )
    def test_prefix_past_the_float_range_rejected(self, make):
        with pytest.raises(InvalidParameterError, match="overflows a float"):
            make()

    def test_prefix_near_the_float_range_keeps_its_bits(self):
        vals = np.full(256, 1e308 / 256)
        b = StepSymbol(default_window(5), vals)
        want = np.cumsum(vals) * (1.0 / 32.0)
        assert b.integral(-4.0, 4.0) == want[-1] and math.isfinite(want[-1])

    def test_haar_symbol_is_a_step_symbol(self):
        target = DyadicInterval("standard", 1, 1)
        b = HaarSymbol(WIN, {target: 2.0})
        assert isinstance(b, StepSymbol)
        assert b.coefficients == {target: 2.0}
        assert b.integral(0.5, 0.75) == pytest.approx(2.0 * math.sqrt(2.0) * 0.25, rel=1e-15)


class TestBadSymbolInput:
    @pytest.mark.parametrize("cycles", [0, -1, 1.5, 2.0, None, True])
    def test_sin_cycles_must_be_a_positive_integer(self, cycles):
        with pytest.raises(InvalidParameterError, match="cycles must be a positive integer"):
            sin_symbol(WIN, cycles=cycles)

    def test_sin_cycles_numpy_integer_kept(self):
        assert np.array_equal(sin_symbol(WIN, np.int64(3)).cell_values(), sin_symbol(WIN, 3).cell_values())

    @pytest.mark.parametrize("lip", [-1.0, -2.0 * math.pi, math.nan, math.inf, True, "1"])
    def test_analytic_lipschitz_must_be_finite_and_not_negative(self, lip):
        with pytest.raises(InvalidParameterError, match="Lipschitz constant"):
            AnalyticSymbol(WIN, np.sin, np.cos, lipschitz=lip)

    def test_step_eval_is_zero_at_infinity(self):
        b = StepSymbol(WIN, np.arange(1.0, WIN.n_cells + 1.0))
        assert b.eval(math.inf) == 0.0 and b.eval(-math.inf) == 0.0
        got = b.eval(np.array([-math.inf, 0.5, math.inf, 1e300, -1e300]))
        assert got.tolist() == [0.0, b.eval(0.5), 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("x", [math.nan, np.array([0.25, math.nan])], ids=["scalar", "array"])
    def test_step_eval_rejects_nan(self, x):
        b = StepSymbol(WIN, np.ones(WIN.n_cells))
        with pytest.raises(InvalidParameterError, match="NaN"):
            b.eval(x)

    def test_step_eval_finite_points_keep_their_bits(self):
        rng = np.random.default_rng(29)
        b = StepSymbol(WIN, rng.normal(size=WIN.n_cells))
        edges = WIN.cell_edges()
        xs = np.concatenate([rng.uniform(-0.5, 1.5, 2000), edges, np.nextafter(edges, -np.inf)])
        # the former formula, on finite points only
        lo, width, n = float(WIN.lo), float(WIN.cell_width), WIN.n_cells
        idx = np.floor((xs - lo) / width).astype(int)
        want = np.where((idx >= 0) & (idx < n), b.cell_values()[np.clip(idx, 0, n - 1)], 0.0)
        assert np.asarray(b.eval(xs)).tobytes() == want.tobytes()
        assert [b.eval(x) for x in xs[:50].tolist()] == want[:50].tolist()


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

    def test_antiderivative_called_once_on_a_float64_array(self):
        calls = []

        def prim(x):
            calls.append(x)
            return x * x / 2.0

        b = AnalyticSymbol(SPLIT_WIN, lambda x: np.asarray(x, dtype=float), prim)
        assert b.split_integral(0.25, 0.5, 1) == (0.09375, 0.375)
        assert len(calls) == 1
        (x,) = calls
        assert type(x) is np.ndarray and x.dtype == np.float64
        assert x.tolist() == [0.25, 0.5, 1.0]

    @pytest.mark.parametrize("kind", sorted(split_symbols()))
    def test_integral_is_the_one_row_split(self, kind):
        """`integral(a, c)` is the lower half of `split_integral(a, c, c)`,
        whose upper half [c, c) is empty and so exactly +0.0."""
        b = split_symbols()[kind]
        for a in SPLIT_POINTS:
            for c in SPLIT_POINTS:
                lower, upper = b.split_integral(a, c, c)
                assert bits(b.integral(a, c), upper) == bits(lower, 0.0), (a, c)

    @pytest.mark.parametrize("kind", sorted(split_symbols()))
    def test_empty_or_inverted_interval_integrates_to_zero(self, kind):
        b = split_symbols()[kind]
        for a in SPLIT_POINTS:
            for c in SPLIT_POINTS:
                if c <= a:
                    assert bits(b.integral(a, c)) == bits(0.0), (a, c)

    def test_integral_defined_once_in_the_base(self):
        """Every symbol class integrates through the base class's one rule:
        no kind defines its own `integral`, `split_integral` or
        `split_integrals`, so kinds differ only in their antiderivative."""
        kinds = [cls for cls in vars(symbols).values() if isinstance(cls, type) and issubclass(cls, symbols.Symbol)]
        assert {AnalyticSymbol, HaarSymbol, StepSymbol} <= set(kinds)
        for name in ("integral", "split_integral", "split_integrals"):
            assert all(getattr(cls, name) is getattr(symbols.Symbol, name) for cls in kinds), name

    def test_split_integral_left_to_each_kind(self):
        """A symbol kind with neither an `antiderivative` nor an `eval` has
        no integral: both raise NotImplementedError instead of recursing."""

        class Bare(symbols.Symbol):
            window = SPLIT_WIN

        with pytest.raises(NotImplementedError):
            Bare().split_integral(0.0, 0.5, 1.0)
        with pytest.raises(NotImplementedError):
            Bare().integral(0.0, 1.0)


ANALYTIC_KINDS = ["sin", "parabola", "ramp_bump", "quartic_bump", "linear", "quadrature"]


class TestAnalyticBounds:
    @pytest.mark.parametrize("kind", ANALYTIC_KINDS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda b: b.integral(math.nan, 1.0),
            lambda b: b.integral(0.0, math.nan),
            lambda b: b.split_integral(0.0, math.nan, 1.0),
            lambda b: b.split_integral(math.nan, 0.5, 0.25),
        ],
        ids=["integral a", "integral b", "split m", "split a inverted"],
    )
    def test_nan_bound_rejected(self, kind, call):
        with pytest.raises(InvalidParameterError):
            call(split_symbols()[kind])

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: b.integral(0.0, math.inf),
            lambda b: b.integral(-math.inf, 0.0),
            lambda b: b.split_integral(0.0, 0.5, math.inf),
        ],
        ids=["integral b", "integral a", "split c"],
    )
    def test_quadrature_rejects_infinite_bound(self, call):
        with pytest.raises(InvalidParameterError):
            call(split_symbols()["quadrature"])

    @pytest.mark.parametrize("kind", ["sin", "parabola", "ramp_bump", "quartic_bump"])
    def test_infinite_bound_is_clamped_to_the_support(self, kind):
        b = split_symbols()[kind]
        want = b.integral(0.0, 1.0)
        assert math.isfinite(want)
        for lo, hi in ((-math.inf, math.inf), (0.0, math.inf), (-math.inf, 1.0)):
            assert bits(b.integral(lo, hi)) == bits(want), (lo, hi)
        halves = (b.integral(0.0, 0.5), b.integral(0.5, 1.0))
        assert bits(*b.split_integral(-math.inf, 0.5, math.inf)) == bits(*halves)


    @pytest.mark.parametrize(
        "call",
        [
            lambda b: b.integral(0.0, math.inf),
            lambda b: b.integral(-math.inf, 0.0),
            lambda b: b.integral(-math.inf, math.inf),
            lambda b: b.split_integral(0.0, 0.5, math.inf),
        ],
        ids=["integral b", "integral a", "integral both", "split c"],
    )
    def test_unbounded_support_rejects_infinite_bound(self, call):
        with pytest.raises(InvalidParameterError, match="integral of linear over .* is not finite"):
            call(linear_symbol(SPLIT_WIN))

    def test_ramp_bump_is_constant_far_past_its_support(self):
        prim = ramp_bump_symbol(SPLIT_WIN).antiderivative
        far = np.array([1.0, 2.0**40, 2.0**60, 1e300, math.inf])
        assert prim(far).tolist() == [0.5] * len(far)
        assert prim(np.array([-math.inf, -1e300, 0.0])).tolist() == [0.0] * 3


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
        x = np.clip(np.asarray(x, dtype=float), None, 2.0**40)
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


ALL_BATTERY = {**BATTERY, "linear": linear_symbol}


class TestBatteryOnArrays:
    """A battery antiderivative on an array rounds as on each point alone, so
    `split_integral`'s one array call keeps the bits of scalar evaluation."""

    @pytest.mark.parametrize("name", sorted(ALL_BATTERY))
    def test_table_points_bit_equal_to_per_point(self, name):
        for j_max in range(4, 9):
            window = default_window(j_max)
            prim = ALL_BATTERY[name](window).antiderivative
            for grid in (standard_grid(), third_shift_grid()):
                table = interval_table(grid, window)
                pts = np.concatenate([table.left, table.mid, table.right])
                got = np.asarray(prim(pts), dtype=float)
                # each distinct point once, keyed by its bits
                keys, inverse = np.unique(pts.view(np.int64), return_inverse=True)
                per_point = np.array([float(prim(x)) for x in keys.view(np.float64).tolist()])
                differ = np.flatnonzero(got.view(np.int64) != per_point[inverse].view(np.int64))
                assert differ.size == 0, (j_max, grid.grid_id, differ.size, pts[differ[:3]])


class TestCellValuesWithoutAntiderivative:
    """Without an antiderivative, the cell averages are one Gauss-Legendre
    applier call over every cell, with the bits of one `integral` per cell."""

    @pytest.mark.parametrize("name", sorted(ALL_BATTERY))
    @pytest.mark.parametrize("window", [WIN, default_window(7)], ids=["unit j6", "default j7"])
    def test_bit_equal_to_per_cell_integrals(self, name, window):
        b = ALL_BATTERY[name](window)
        bare = AnalyticSymbol(window, b.fn, None, lipschitz=b.lipschitz, name=b.name, support=b.support)
        edges = window.cell_edges()
        width = float(window.cell_width)
        per_cell = np.array([bare.integral(edges[i], edges[i + 1]) / width for i in range(window.n_cells)])
        assert bare.cell_values().tobytes() == per_cell.tobytes()


def twin_without_support(b):
    """The same fn, antiderivative and name with no declared support."""
    return AnalyticSymbol(b.window, b.fn, b.antiderivative, lipschitz=b.lipschitz, name=b.name)


def meets_support(table, support):
    """Per row, whether the row meets [s0, s1], from the rows' exact Fraction ends."""
    s0, s1 = support
    return np.array([iv.right > s0 and iv.left < s1 for iv in table.intervals()], dtype=bool)


def assert_skipped_rows_match_twin(b, twin, table):
    got, want = haar_coefficients(b, table), haar_coefficients(twin, table)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    off = ~meets_support(table, b.support)
    assert off.any()
    assert (got[off] == 0.0).all() and not np.signbit(got[off]).any()


DECLARED_SUPPORT = {
    "sin": (0.0, 1.0),
    "parabola": (0.0, 1.0),
    "ramp_bump": (0.125, 0.875),
    "quartic_bump": (0.0, 1.0),
}


class TestDeclaredSupport:
    """Rows that lie off an analytic symbol's declared support are +0.0
    without a `haar_coefficient` call, with the bits the call would give."""

    def test_battery_declarations(self):
        for name, make in BATTERY.items():
            assert make(WIN).support == DECLARED_SUPPORT[name]
        assert linear_symbol(WIN).support is None
        assert StepSymbol(WIN, np.ones(WIN.n_cells)).support is None

    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_bit_equal_to_twin_without_support(self, name):
        for j_max in range(4, 9):
            window = default_window(j_max)
            b = BATTERY[name](window)
            for grid in (standard_grid(), third_shift_grid()):
                assert_skipped_rows_match_twin(b, twin_without_support(b), interval_table(grid, window))

    @pytest.mark.parametrize("name", ["parabola", "ramp_bump"])
    def test_quadrature_symbol_bit_equal_to_twin(self, name):
        for j_max in (4, 6):
            window = default_window(j_max)
            fn = BATTERY[name](window).fn
            b = AnalyticSymbol(window, fn, name="gl", support=DECLARED_SUPPORT[name])
            for grid in (standard_grid(), third_shift_grid()):
                assert_skipped_rows_match_twin(b, AnalyticSymbol(window, fn, name="gl"), interval_table(grid, window))

    @pytest.mark.parametrize("name", [*sorted(BATTERY), "linear"])
    def test_one_call_per_row_that_meets_the_support(self, name, monkeypatch):
        window = default_window(6)
        b = ALL_BATTERY[name](window)
        calls = []
        scalar = symbols.haar_coefficient

        def counted(sym, interval):
            calls.append(interval)
            return scalar(sym, interval)

        monkeypatch.setattr(symbols, "haar_coefficient", counted)
        for grid in (standard_grid(), third_shift_grid()):
            table = interval_table(grid, window)
            calls.clear()
            haar_coefficients(b, table)
            rows = table.intervals()
            if b.support is not None:
                rows = [iv for iv, meets in zip(rows, meets_support(table, b.support)) if meets]
                assert 0 < len(rows) < len(table)
            # in table order, each row once
            assert calls == rows

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=-1, max_value=2),
        st.integers(min_value=-3, max_value=2),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2, unique=True),
        st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=5),
    )
    def test_clamped_polynomial_bumps(self, j_min, start, blocks, depth, where, coefs):
        """F = P(clip(x, s0, s1)) for a random polynomial P and a random
        support [s0, s1] inside a random window."""
        unit = 2.0**-j_min
        lo, hi = start * unit, (start + blocks) * unit
        window = make_window(lo, hi, j_min, j_min + depth)
        s0, s1 = sorted(lo + t * (hi - lo) for t in where)
        assume(s0 < s1)
        deriv = np.polynomial.polynomial.polyder(coefs)

        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= s0) & (x <= s1), np.polynomial.polynomial.polyval(x, deriv), 0.0)

        def prim(x):
            return np.polynomial.polynomial.polyval(np.clip(np.asarray(x, dtype=float), s0, s1), coefs)

        b = AnalyticSymbol(window, fn, prim, name="poly", support=(s0, s1))
        twin = twin_without_support(b)
        for grid in (standard_grid(), third_shift_grid()):
            table = interval_table(grid, window)
            got, want = haar_coefficients(b, table), haar_coefficients(twin, table)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
            off = ~meets_support(table, (s0, s1))
            assert not np.signbit(got[off]).any()

    @pytest.mark.parametrize("support", [
        (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0),
        (1.0, 0.0), (0.5, 0.5), (0.0,), (0.0, 0.5, 1.0), "ab", 5.0, ("0", "1"), (False, True), (0.0, None),
    ], ids=["nan lo", "nan hi", "inf hi", "inf lo", "reversed", "empty", "one end",
            "three ends", "letters", "a number", "strings", "bools", "none"])
    @pytest.mark.parametrize("with_antiderivative", [True, False], ids=["F", "quadrature"])
    def test_bad_support_rejected(self, support, with_antiderivative):
        bump = quartic_bump_symbol(WIN)
        prim = bump.antiderivative if with_antiderivative else None
        with pytest.raises(InvalidParameterError, match="support"):
            AnalyticSymbol(WIN, bump.fn, prim, name="bump", support=support)

    @pytest.mark.parametrize("make, support", [
        (linear_symbol, (0.0, 1.0)),
        (sin_symbol, (0.25, 0.75)),
        (ramp_bump_symbol, (0.125, 0.5)),
        (quartic_bump_symbol, (0.0625, 1.0)),
    ], ids=["linear", "sin inner", "ramp_bump short", "quartic_bump late"])
    def test_antiderivative_that_moves_outside_is_rejected(self, make, support):
        b = make(default_window(5))
        with pytest.raises(InvalidConfigurationError, match="not constant outside its support"):
            AnalyticSymbol(b.window, b.fn, b.antiderivative, name=b.name, support=support)

    def test_support_past_the_window_accepted(self):
        b = ramp_bump_symbol(WIN)
        wide = AnalyticSymbol(WIN, b.fn, b.antiderivative, name="ramp", support=(-10.0, 10.0))
        assert wide.support == (-10.0, 10.0)
        table = interval_table(standard_grid(), WIN)
        assert haar_coefficients(wide, table).tobytes() == haar_coefficients(b, table).tobytes()

    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_fn_is_zero_outside_the_declared_support(self, name):
        window = default_window(5)
        s0, s1 = DECLARED_SUPPORT[name]
        lo, hi = float(window.lo), float(window.hi)
        xs = [
            math.nextafter(s0, -math.inf), math.nextafter(s1, math.inf),
            s0 - 2.0**-20, s1 + 2.0**-20, s0 - 0.5, s1 + 0.5,
            lo, math.nextafter(hi, -math.inf), -1.0, -1e-300, 2.0, 3.5,
        ]
        fn = BATTERY[name](window).fn
        for got in (fn(np.array(xs)), np.array([fn(x) for x in xs], dtype=float)):
            assert (got == 0.0).all() and not np.signbit(got).any(), got


def reference_haar_cells(interval, window):
    """h_I's cell values with the midpoint read from the right child's own
    cell range, as `haar_cell_values` once found it."""
    i0, i1 = window.cell_slice(interval)
    m0, _ = window.cell_slice(interval.right_child)
    vals = np.zeros(window.n_cells)
    amp = 1.0 / np.sqrt(float(interval.length))
    vals[i0:m0] = amp
    vals[m0:i1] = -amp
    return vals


class TestHaarSymbolCells:
    """A Haar symbol's cells come from `haar_cell_values` alone, which holds
    the one rule of which intervals have Haar cell values."""

    REJECTED = [
        pytest.param(DyadicInterval("third_shift", 1, 0), id="third-shift"),
        pytest.param(DyadicInterval("standard", WIN.j_max, 0), id="scale-j_max"),
        pytest.param(DyadicInterval("standard", 1, 2), id="outside"),
        pytest.param(DyadicInterval("standard", -1, 0), id="protruding"),
        pytest.param(DyadicInterval("bogus", 1, 0), id="unknown-grid"),
    ]

    @pytest.mark.parametrize("interval", REJECTED)
    def test_rejects_intervals_without_haar_cells(self, interval):
        with pytest.raises(InvalidConfigurationError):
            HaarSymbol(WIN, {DyadicInterval("standard", 1, 0): 1.0, interval: 0.5})

    @pytest.mark.parametrize("interval", REJECTED)
    def test_rejection_names_the_interval_or_the_grid(self, interval):
        with pytest.raises(InvalidConfigurationError) as info:
            HaarSymbol(WIN, {interval: 0.5})
        named = "unknown grid rule 'bogus'" if interval.grid_id == "bogus" else interval.label()
        assert named in str(info.value)

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_cell_values_bit_equal_to_right_child_midpoints(self, window):
        rows = interval_table(standard_grid(), window)
        intervals = [iv for iv in rows.intervals() if iv.j <= window.j_max - 1]
        coefficients = np.random.default_rng(23).normal(size=len(intervals)).tolist()
        want = np.zeros(window.n_cells)
        for interval, c in zip(intervals, coefficients):
            ref = reference_haar_cells(interval, window)
            assert haar_cell_values(interval, window).tobytes() == ref.tobytes(), interval
            want += c * ref
        got = HaarSymbol(window, dict(zip(intervals, coefficients))).cell_values()
        assert got.tobytes() == want.tobytes()


class TestArgumentRule:
    """A Haar key's j and k go through `errors.is_integer`: a bool, a float or
    a string is refused with InvalidParameterError, not read as a number or
    left to a raw TypeError; support ends go through `errors.real`, so
    numpy numbers and Fractions give their float twins' bits."""

    @pytest.mark.parametrize("j, k", [(True, 0), (1.5, 0), (1, "0"), (1, 0.0)], ids=repr)
    def test_haar_key_that_is_not_integer_refused(self, j, k):
        with pytest.raises(InvalidParameterError, match="needs an integer scale j and translation k"):
            HaarSymbol(WIN, {DyadicInterval("standard", j, k): 1.0})

    def test_fraction_and_numpy_support_kept(self):
        base = parabola_symbol(WIN)
        got = AnalyticSymbol(WIN, base.fn, base.antiderivative, 1.0, support=(Fraction(0), np.float64(1.0)))
        assert got.support == (0.0, 1.0) and all(type(end) is float for end in got.support)
        table = interval_table(standard_grid(), WIN)
        assert haar_coefficients(got, table).tobytes() == haar_coefficients(base, table).tobytes()


class TestOneRuleOnArrays:
    """`split_integrals` broadcasts a, m and c together, and each row has the
    bits of its own `split_integral` call."""

    @pytest.mark.parametrize("kind", sorted(split_symbols()))
    def test_scalar_mid_broadcasts(self, kind):
        b = split_symbols()[kind]
        a = np.array([-7.0, -2.0, 0.0, 0.25, 0.5, 1.0])
        c = np.array([0.75, 1.0, 0.5, 2.0, 9.0, 0.25])
        lower, upper = b.split_integrals(a, 0.5, c)
        assert lower.shape == upper.shape == a.shape
        want = [b.split_integral(x, 0.5, y) for x, y in zip(a.tolist(), c.tolist())]
        assert bits(*lower, *upper) == bits(*(w[0] for w in want), *(w[1] for w in want))

    @pytest.mark.parametrize("kind", sorted(split_symbols()))
    def test_grid_of_rows(self, kind):
        b = split_symbols()[kind]
        a = np.array([[-1.0], [0.125]])
        c = np.array([0.3, 0.5, 1.5])
        lower, upper = b.split_integrals(a, (a + c) / 2, c)
        assert lower.shape == upper.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                got = (lower[i, j], upper[i, j])
                assert bits(*got) == bits(*b.split_integral(a[i, 0], (a[i, 0] + c[j]) / 2, c[j]))

    @pytest.mark.parametrize("kind", sorted(split_symbols()))
    def test_empty_rows(self, kind):
        lower, upper = split_symbols()[kind].split_integrals([], [], [])
        assert lower.shape == upper.shape == (0,)


NOT_BOUNDS = ["0", b"0", True, np.True_, None, ["0", "1"], np.array([True, False]), [0j]]


class TestBoundRule:
    """Integration bounds go through `errors.reals` in `Symbol.split_integrals`:
    a bool, a string or bytes is refused, not parsed ('0.25' as 0.25) or
    read as a number; Fractions and numpy numbers keep their float twins' bits."""

    @pytest.mark.parametrize("kind", sorted(split_symbols()))
    @pytest.mark.parametrize("bad", NOT_BOUNDS, ids=repr)
    def test_refused(self, kind, bad):
        b = split_symbols()[kind]
        for call in (
            lambda: b.integral(bad, 1.0),
            lambda: b.split_integral(0.0, bad, 1.0),
            lambda: b.split_integrals(np.zeros(2), np.full(2, 0.5), bad),
        ):
            with pytest.raises(InvalidParameterError, match="an integration bound is not a real number"):
                call()

    @pytest.mark.parametrize("kind", sorted(split_symbols()))
    def test_fraction_and_numpy_bounds_keep_their_bits(self, kind):
        b = split_symbols()[kind]
        got = b.split_integral(Fraction(1, 3), np.float32(0.5), np.int64(1))
        assert bits(*got) == bits(*b.split_integral(1.0 / 3.0, float(np.float32(0.5)), 1.0))
        assert bits(b.integral(0, Fraction(3, 4))) == bits(b.integral(0.0, 0.75))


class TestAnalyticEvalNaN:
    """`AnalyticSymbol.eval` refuses a NaN point as `StepSymbol.eval` does,
    instead of giving NaN (`linear`) or 0.0 (`quartic_bump`)."""

    @pytest.mark.parametrize("kind", ANALYTIC_KINDS)
    @pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])], ids=["scalar", "array"])
    def test_refused(self, kind, x):
        with pytest.raises(InvalidParameterError, match="an evaluation point is NaN"):
            split_symbols()[kind].eval(x)

    @pytest.mark.parametrize("kind", ANALYTIC_KINDS)
    def test_finite_points_keep_their_bits(self, kind):
        b = split_symbols()[kind]
        xs = np.array(SPLIT_POINTS)
        assert np.asarray(b.eval(xs)).tobytes() == np.asarray(b.fn(xs)).tobytes()


class TestStepAntiderivative:
    """A step symbol's antiderivative is its prefix sum at the point clamped
    into the window: `integral(window.lo, x)`, constant outside the window."""

    @pytest.mark.parametrize("kind", ["step", "haar"])
    def test_bit_equal_to_integral_from_lo(self, kind):
        b = split_symbols()[kind]
        lo = float(SPLIT_WIN.lo)
        xs = [*SPLIT_POINTS, -math.inf, math.inf, *np.linspace(-2.5, 2.5, 101).tolist()]
        got = b.antiderivative(np.array(xs))
        assert bits(*got) == bits(*(b.integral(lo, x) for x in xs))
        assert [bits(b.antiderivative(x)) for x in xs] == [bits(v) for v in got]

    @pytest.mark.parametrize("kind", ["step", "haar"])
    def test_constant_outside_the_window(self, kind):
        b = split_symbols()[kind]
        lo, hi = float(SPLIT_WIN.lo), float(SPLIT_WIN.hi)
        below = b.antiderivative(np.array([-math.inf, -1e300, -7.0, np.nextafter(lo, -math.inf), lo]))
        above = b.antiderivative(np.array([hi, np.nextafter(hi, math.inf), 9.0, 1e300, math.inf]))
        assert bits(*below) == bits(0.0) * 5
        assert len(set(bits(*above))) == 1
        assert bits(above[0]) == bits(b.integral(lo, hi))

    def test_nan_gives_nan(self):
        got = split_symbols()["step"].antiderivative(np.array([0.5, math.nan]))
        assert not math.isnan(got[0]) and math.isnan(got[1])


class TestAnalyticCellValues:
    """`AnalyticSymbol.cell_values` is the one rule over the cells, bit-equal
    to the two formulas it replaced: `np.diff(F(edges)) / width` with an
    antiderivative, and one `gauss_legendre_32` call over every cell without."""

    @pytest.mark.parametrize("name", sorted(ALL_BATTERY))
    @pytest.mark.parametrize("window", [WIN, default_window(7), make_window(-2, 2, -1, 5)],
                             ids=["unit j6", "default j7", "wide j5"])
    def test_bit_equal_to_the_former_formulas(self, name, window):
        b = ALL_BATTERY[name](window)
        bare = AnalyticSymbol(window, b.fn, None, lipschitz=b.lipschitz, name=b.name, support=b.support)
        edges, width = window.cell_edges(), float(window.cell_width)
        with_f = np.diff(np.asarray(b.antiderivative(edges), dtype=float)) / width
        without_f = gauss_legendre_32(b.fn, edges[:-1], edges[1:]) / width
        assert b.cell_values().tobytes() == with_f.tobytes()
        assert bare.cell_values().tobytes() == without_f.tobytes()

    def test_cached_and_read_only(self):
        b = quartic_bump_symbol(WIN)
        assert b.cell_values() is b.cell_values()
        assert not b.cell_values().flags.writeable
