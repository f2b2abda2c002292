import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_table_paths import reference_power, reference_spiked_power, spike_levels

from dyadlab.errors import (
    DivergedIntegralError,
    DyadlabError,
    InvalidConfigurationError,
    InvalidParameterError,
)
from dyadlab.grids import (
    GAUSS_LEGENDRE_32,
    default_window,
    interval_table,
    make_window,
    standard_grid,
    third_shift_grid,
)
from dyadlab.weights import (
    A2Report,
    BloomWeight,
    ConstantWeight,
    PowerWeight,
    QuadratureWeight,
    SpikedLatticeWeight,
    _FAMILY_SEED,
    _family_bounds,
    a2_constant,
    derive_intermediary,
    pathological_weight,
    product_weight,
    reverse_holder_exponent,
)


def power_integral(alpha, center, a, b):
    """Inline closed form, independent of the library implementation."""

    def prim(t):
        return math.copysign(abs(t) ** (1 + alpha), t) / (1 + alpha)

    return prim(b - center) - prim(a - center)


class TestA2:
    def test_constant_weight_is_one(self):
        w = ConstantWeight(1.0)
        win = make_window(-1, 1, 0, 6)
        rep = a2_constant(w, win)
        assert rep.constant == pytest.approx(1.0, abs=1e-12)

    def test_power_weight_matches_brute_force_oracle(self):
        w = PowerWeight(0.5, center=0.0)
        win = make_window(-1, 1, 0, 8)
        lo, hi = _family_bounds(win, 11)
        rep = a2_constant(w, win, seed=11)
        assert rep.family_size == len(lo)
        best = max(
            (power_integral(0.5, 0.0, a, b) / (b - a))
            * (power_integral(-0.5, 0.0, a, b) / (b - a))
            for a, b in zip(lo.tolist(), hi.tolist())
        )
        assert rep.constant == pytest.approx(best, rel=1e-12)
        assert rep.constant >= 1.0

    @pytest.mark.parametrize("seed", [0, 1, 90210, 12345])
    @pytest.mark.parametrize("j_max", [4, 7, 9, 10])
    def test_random_intervals_bit_equal_to_scalar_draws(self, j_max, seed):
        win = make_window(-4, 4, -2, j_max)
        # reference: one scalar `rng.uniform` per length and per start
        rng = np.random.default_rng(seed)
        lo_f, hi_f = float(win.lo), float(win.hi)
        log_min, log_max = math.log(float(win.cell_width)), math.log(float(win.span) / 4.0)
        want = []
        for _ in range(1000):
            ell = math.exp(rng.uniform(log_min, log_max))
            a = rng.uniform(lo_f, hi_f - ell)
            want.append((a.hex(), (a + ell).hex()))
        lo, hi = _family_bounds(win, seed)
        got = zip(lo[-1000:].tolist(), hi[-1000:].tolist())
        assert [(a.hex(), b.hex()) for a, b in got] == want

    @pytest.mark.parametrize(
        "win", [make_window(-1, 1, 0, 6), make_window(-4, 4, -2, 9), make_window(0, 1, 0, 0)],
        ids=["unit", "default", "one_cell"],
    )
    def test_family_is_both_grids_and_1000_random_intervals(self, win):
        rows = len(interval_table(standard_grid(), win)) + len(interval_table(third_shift_grid(), win))
        assert a2_constant(PowerWeight(0.25), win).family_size == rows + 1000

    @pytest.mark.parametrize(
        "win",
        [
            make_window(-(2**50 - 4), -(2**50 - 5), 0, 0),
            make_window(2**50 - 5, 2**50 - 4, 0, 0),
            make_window(2**41 - 2, 2**41 - 1, 0, 9),
        ],
        ids=["one_cell_low", "one_cell_high", "fine"],
    )
    def test_family_rows_nonempty_at_the_2_50_guard(self, win):
        """a2_constant checks no row: next to the 2^50 guard of the interval
        tables, one ulp of a random start is still below its length."""
        for seed in (0, 1, _FAMILY_SEED):
            lo, hi = _family_bounds(win, seed)
            assert np.isfinite(lo).all() and np.isfinite(hi).all() and (hi > lo).all()

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, "7", None, True, False], ids=["negative", "float", "str", "none", "true", "false"]
    )
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="seed must be an integer >= 0"):
            a2_constant(PowerWeight(0.25), make_window(-1, 1, 0, 6), seed=seed)

    def test_numpy_integer_seed_keeps_its_draws(self):
        win = make_window(-1, 1, 0, 6)
        assert a2_constant(PowerWeight(0.25), win, seed=np.int64(7)) == a2_constant(PowerWeight(0.25), win, seed=7)

    def test_symmetry_under_inversion(self):
        win = make_window(-1, 1, 0, 6)
        w = PowerWeight(0.25, center=0.0)
        r1 = a2_constant(w, win)
        r2 = a2_constant(w.inv(), win)
        assert r1.constant == pytest.approx(r2.constant, rel=1e-12)

    def test_am_gm_lower_bound_over_family(self):
        win = make_window(-4, 4, -2, 6)
        lo, hi = _family_bounds(win, _FAMILY_SEED)
        for w in [
            ConstantWeight(2.5),
            PowerWeight(0.25),
            PowerWeight(-0.5),
            pathological_weight(2.0, 3, 9.0),
        ]:
            w_inv = w.inv()
            for a, b in zip(lo.tolist(), hi.tolist()):
                ell = b - a
                prod = (w.integral(a, b) / ell) * (w_inv.integral(a, b) / ell)
                assert prod >= 1.0 - 1e-10


class TestIntegrals:
    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.sampled_from([0.25, -0.25, 0.5, -0.5]),
        a=st.floats(-3, 3),
        mid_frac=st.floats(0.01, 0.99),
        length=st.floats(0.01, 2.0),
    )
    def test_additivity_power(self, alpha, a, mid_frac, length):
        w = PowerWeight(alpha, center=1 / 3)
        b = a + length
        m = a + mid_frac * length
        whole = w.integral(a, b)
        parts = w.integral(a, m) + w.integral(m, b)
        assert parts == pytest.approx(whole, rel=1e-12, abs=1e-14)

    def test_additivity_spiked(self):
        w = pathological_weight(2.0, 3, 9.0)
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = rng.uniform(0.0, 0.9)
            b = a + rng.uniform(0.01, 0.1)
            m = rng.uniform(a, b)
            assert w.integral(a, m) + w.integral(m, b) == pytest.approx(
                w.integral(a, b), rel=1e-12
            )

    def test_positive_on_intervals(self):
        for w in [PowerWeight(-0.5), pathological_weight(2.0, 2, 9.0)]:
            assert w.integral(0.1, 0.9) > 0


class TestBloomWeight:
    def test_pointwise_identity_powers(self):
        mu = PowerWeight(0.25)
        lam = PowerWeight(-0.5)
        pair = BloomWeight(mu, lam)
        rng = np.random.default_rng(101)
        x = rng.uniform(-4, 4, size=1000)
        nu2_lam = pair.nu.eval(x) ** 2 * lam.eval(x)
        assert np.allclose(nu2_lam, mu.eval(x), rtol=1e-12)

    def test_pointwise_identity_spiked(self):
        mu = ConstantWeight(1.0)
        lam = pathological_weight(2.0, 3, 9.0)
        pair = BloomWeight(mu, lam)
        rng = np.random.default_rng(102)
        x = rng.uniform(0, 1, size=1000)
        nu2_lam = pair.nu.eval(x) ** 2 * lam.eval(x)
        assert np.allclose(nu2_lam, mu.eval(x), rtol=1e-12)

    def test_same_center_powers_stay_closed_form(self):
        nu = derive_intermediary(PowerWeight(0.25), PowerWeight(-0.25))
        assert isinstance(nu, PowerWeight)
        assert nu.exponent == pytest.approx(0.25)


class TestSpikedWeight:
    def test_peak_height_per_level(self):
        w = pathological_weight(2.0, 4, 9.0)
        alpha = (1 + 1 / 2.0) / 2.0
        for j, (period, width, offset, height) in enumerate(spike_levels(w), start=1):
            n_j = 2**j
            assert height == pytest.approx(2.0 ** (9.0 * n_j * alpha), rel=1e-12)
            # a point in the middle of a level-j spike takes that height
            x = -offset + width / 2.0
            assert w.eval(x) >= height

    def test_single_period_rth_power_lower_bound(self):
        # per unit period the r-th power integrates to at least
        # delta^(1 - r*alpha) = delta^(-(r-1)/2) with delta the spike duty cycle
        r, growth = 2.0, 9.0
        w = pathological_weight(r, 1, growth)
        period, width, offset, height = spike_levels(w)[0]
        delta = width / period
        per_period = w.power(r).integral(-offset, -offset + period) / period
        lower = delta ** (-(r - 1) / 2.0)
        assert per_period >= lower
        assert per_period == pytest.approx((1 - delta) + lower, rel=1e-12)

    def test_blowup_table_flat_a2(self):
        win = make_window(0, 1, 0, 10)
        integrals = []
        a2s = []
        for levels in (1, 2, 3, 4):
            w = pathological_weight(2.0, levels, 9.0)
            integrals.append(w.power(2.0).integral(0.0, 1.0))
            a2s.append(a2_constant(w, win).constant)
        for prev, cur in zip(integrals, integrals[1:]):
            assert cur >= 4.0 * prev
        assert max(a2s) / min(a2s) <= 4.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            pathological_weight(0.5, 2, 9.0)
        with pytest.raises(InvalidParameterError):
            pathological_weight(2.0, 2, 2.0)  # growth*(1-alpha) = 0.5 < 2
        with pytest.raises(InvalidParameterError):
            pathological_weight(2.0, 0, 9.0)
        with pytest.raises(InvalidConfigurationError):
            pathological_weight(2.0, 6, 9.0)  # levels overlap

    @pytest.mark.parametrize("levels", [1.5, 2.0, True, np.True_, "2", None], ids=repr)
    def test_levels_not_an_integer_rejected(self, levels):
        """A float or a bool is no level count, even where it equals one; the
        spiked weight and `pathological_weight` refuse it before reading it."""
        for build in (SpikedLatticeWeight, pathological_weight):
            with pytest.raises(InvalidParameterError, match="spike levels must be an integer"):
                build(2, levels, 9)

    def test_numpy_integer_levels_kept(self):
        w = SpikedLatticeWeight(2, np.int64(3), 9)
        assert w.integral(0.0, 1.0) == SpikedLatticeWeight(2, 3, 9).integral(0.0, 1.0)

    def test_unrepresentable_level_rejected_at_construction(self):
        with pytest.raises(InvalidParameterError, match="overflows"):
            SpikedLatticeWeight(r=2, levels=6, growth=31)  # height 2^1488
        with pytest.raises(InvalidParameterError, match="underflows"):
            SpikedLatticeWeight(r=100, levels=6, growth=31)  # width 2^-2048

    def test_overflowing_power_diverges(self):
        # height^3 = 2^2160 and the level-4 spikes on [0, 1) carry 2^1200 in all
        w = SpikedLatticeWeight(2, 4, 60).power(3.0)
        with pytest.raises(DivergedIntegralError) as info:
            w.integral(0, 1)
        assert info.value.interval == (0.0, 1.0)

    @pytest.mark.parametrize("s", [2.0, 2.5])
    @pytest.mark.parametrize("a, b, spikes", [(0.0, 1.0, None), (0.3, 0.30001, (0, 0, 0, 1))])
    def test_overflowing_height_with_finite_mass(self, s, a, b, spikes):
        # level n = 2^j has height 2^(45 n) and width 2^(-61 n); height^s
        # overflows on level 4 (n = 16), but m * height^s is finite
        w = SpikedLatticeWeight(2, 4, 60)
        exact = Fraction(b) - Fraction(a)
        for j in range(1, 5):
            n = 2**j
            count = 2**n if spikes is None else spikes[j - 1]  # level-j spikes in [a, b)
            exact += count * (Fraction(2) ** int(45 * s * n) - 1) / Fraction(2) ** (61 * n)
        assert w.power(s).integral(a, b) == pytest.approx(float(exact), rel=1e-12)

    def test_overflowing_height_without_spikes(self):
        # no spike of any level starts in [0.3, 0.300002): the total is its length
        w = SpikedLatticeWeight(2, 4, 60).power(2.0)
        assert w.integral(0.3, 0.300002) == 0.300002 - 0.3

    def test_power_weight_exponent_validation(self):
        with pytest.raises(InvalidParameterError):
            PowerWeight(1.0)
        with pytest.raises(InvalidParameterError):
            PowerWeight(-1.2)


class TestReverseHolder:
    def test_flat_weight_all_qualify(self):
        win = make_window(0, 1, 0, 6)
        rep = reverse_holder_exponent(ConstantWeight(1.0), win)
        assert rep.exponent == 4.0
        assert rep.constant == pytest.approx(1.0, abs=1e-12)

    def test_power_weight_sweep(self):
        win = make_window(-1, 1, 0, 7)
        w = PowerWeight(0.5, center=0.0)
        rep = reverse_holder_exponent(w, win)
        # independent sweep over the same enumerated dyadic intervals
        from dyadlab.grids import enumerate_intervals

        for r, reported in rep.per_exponent.items():
            worst = 0.0
            diverged = False
            for interval in enumerate_intervals(standard_grid(), win):
                a, b = float(interval.left), float(interval.right)
                ell = b - a
                if abs(0.5 * r / 2) >= 1.0:
                    diverged = True
                    break
                num = (power_integral(0.5 * r / 2.0, 0.0, a, b) / ell) ** (2.0 / r)
                den = power_integral(0.5, 0.0, a, b) / ell
                worst = max(worst, num / den)
            if not diverged:
                assert reported == pytest.approx(worst, rel=1e-10)

    def test_spiked_weight_qualifies_less_than_flat(self):
        win = make_window(0, 1, 0, 10)
        flat = reverse_holder_exponent(ConstantWeight(1.0), win)
        spiked = reverse_holder_exponent(pathological_weight(2.0, 3, 9.0), win)
        n_flat = sum(1 for v in flat.per_exponent.values() if v <= 10.0)
        n_spiked = sum(1 for v in spiked.per_exponent.values() if v <= 10.0)
        assert n_spiked < n_flat


    @pytest.mark.parametrize(
        "w", [ConstantWeight(1.0), PowerWeight(0.5, center=0.0), pathological_weight(2.0, 3, 9.0)],
        ids=lambda w: w.label,
    )
    def test_report_lists_the_fixed_rungs(self, w):
        rep = reverse_holder_exponent(w, make_window(-1, 1, 0, 5))
        assert list(rep.per_exponent) == [2.25, 2.5, 3.0, 4.0]
        assert rep.exponent in (None, *rep.per_exponent)


class TestVectorIntegrals:
    @pytest.mark.parametrize(
        "w",
        [
            ConstantWeight(2.5),
            PowerWeight(0.25),
            pathological_weight(2.0, 3, 9.0),
            QuadratureWeight(lambda x: 1.0 + np.abs(x - 1.0 / 3.0) ** 0.5, "1+|x-1/3|^0.5"),
        ],
        ids=["constant", "power", "spiked", "quadrature"],
    )
    def test_equals_scalar_loop(self, w):
        rng = np.random.default_rng(7)
        lo = rng.uniform(-2.0, 1.0, size=40)
        hi = lo + rng.uniform(0.01, 1.0, size=40)
        got = w.integrals(lo, hi)
        assert got.shape == (40,)
        assert np.array_equal(got, [w.integral(a, b) for a, b in zip(lo, hi)])
        assert np.array_equal(w.inv().integrals(lo, hi), [w.inv().integral(a, b) for a, b in zip(lo, hi)])


NONFINITE_WEIGHTS = [
    ConstantWeight(2.0),
    PowerWeight(0.5),
    pathological_weight(2, 3, 9),
    pathological_weight(2, 3, 9).inv(),
    pathological_weight(2, 3, 9).power(1.25),
    QuadratureWeight(lambda x: 1.0 + np.abs(x), "1+|x|"),
]


class TestNonFiniteBounds:
    @pytest.mark.parametrize("w", NONFINITE_WEIGHTS, ids=lambda w: w.label)
    @pytest.mark.parametrize(
        "a, b", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)]
    )
    def test_scalar_integral_raises(self, w, a, b):
        with pytest.raises(InvalidParameterError, match="not finite"):
            w.integral(a, b)

    @pytest.mark.parametrize("w", NONFINITE_WEIGHTS, ids=lambda w: w.label)
    def test_table_names_first_bad_row(self, w):
        lo = np.array([0.0, 0.25, math.nan, -math.inf])
        hi = np.array([0.5, math.inf, 1.0, 0.0])
        with pytest.raises(InvalidParameterError, match=r"\[0\.25, inf\)"):
            w.integrals(lo, hi)

    def test_spiked_power(self):
        with pytest.raises(InvalidParameterError):
            pathological_weight(2, 3, 9).power(2.0).integral(0.0, math.inf)


class TestBadWeightParameters:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: PowerWeight(0.5, center=math.inf),
            lambda: PowerWeight(0.5, center=math.nan),
            lambda: PowerWeight(0.5, coeff=math.inf),
            lambda: ConstantWeight(True),
            lambda: ConstantWeight("2"),
            lambda: PowerWeight(0.5, center=True),
            lambda: PowerWeight(0.5, coeff=True),
            lambda: PowerWeight("0.5"),
            lambda: SpikedLatticeWeight("2", 3, 9),
            lambda: SpikedLatticeWeight(2, 3, "9"),
            lambda: SpikedLatticeWeight(2, 3, 9, s=math.nan),
        ],
        ids=["center inf", "center nan", "coeff inf", "const-bool", "const-str", "center-bool", "coeff-bool",
             "exponent-str", "r-str", "growth-str", "s-nan"],
    )
    def test_rejected(self, make):
        """Every parameter goes through `errors.real`: a bool or a string is
        refused, not read as 0 or 1 or left to a raw TypeError."""
        with pytest.raises(InvalidParameterError):
            make()


class TestOverflowingPower:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: PowerWeight(0.5, coeff=1e300).power(1.9),
            lambda: ConstantWeight(1e300).power(2.0),
            lambda: product_weight(ConstantWeight(1e300), pathological_weight(2, 3, 9)).power(2.0),
        ],
        ids=["power", "constant", "scaled spiked"],
    )
    def test_rejected(self, make):
        with pytest.raises(InvalidParameterError, match="overflows"):
            make()


class TestSpikedScale:
    def test_underflowing_scale_rejected(self):
        # (1e-300)^2 underflows to 0.0, whose dual would divide by zero
        with pytest.raises(InvalidParameterError, match=r"scale 0\.0 must be positive and finite"):
            product_weight(ConstantWeight(1e-300), pathological_weight(2, 3, 9)).power(2.0)

    def test_overflowing_scale_rejected(self):
        # 1e300 * 1e300 overflows to inf, which would integrate to inf
        inner = product_weight(ConstantWeight(1e300), pathological_weight(2, 3, 9))
        with pytest.raises(InvalidParameterError, match=r"scale inf must be positive and finite"):
            product_weight(ConstantWeight(1e300), inner)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_direct_construction_rejected(self, scale):
        with pytest.raises(InvalidParameterError, match="must be positive and finite"):
            SpikedLatticeWeight(2, 3, 9, s=2.0, scale=scale)

    def test_representable_scale_kept(self):
        w = product_weight(ConstantWeight(1e-150), pathological_weight(2, 3, 9)).power(2.0)
        assert w.scale == 1e-150**2.0
        assert 0.0 < w.integral(0.0, 1.0) < math.inf
        assert 0.0 < w.inv().integral(0.0, 1.0) < math.inf


# Offsets (a, b) from the centre of a row [center + a, center + b).
STRADDLING = st.tuples(st.floats(-2.0, 0.0), st.floats(0.0, 2.0))
NEAR_CENTER = st.tuples(st.floats(-1e-12, 1e-12), st.floats(-1e-12, 1e-12))
FAR_FROM_CENTER = st.tuples(st.floats(5.0, 50.0), st.floats(0.0, 10.0), st.sampled_from([-1.0, 1.0])).map(
    lambda r: (r[2] * r[0], r[2] * (r[0] + r[1]))
)


class TestPowerIntegralRows:
    @settings(max_examples=150, deadline=None)
    @given(
        exponent=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        center=st.floats(-2.0, 2.0),
        coeff=st.floats(1e-3, 1e3),
        dual=st.booleans(),
        rows=st.lists(st.one_of(STRADDLING, NEAR_CENTER, FAR_FROM_CENTER), min_size=1, max_size=24),
    )
    def test_integrals_equal_scalar_integral(self, exponent, center, coeff, dual, rows):
        w = PowerWeight(exponent, center, coeff)
        if dual:
            w = w.inv()
        lo = np.array([center + a for a, _ in rows])
        hi = np.array([center + b for _, b in rows])
        pairs = list(zip(lo.tolist(), hi.tolist()))
        want = [reference_power(w, a, b).hex() for a, b in pairs]
        assert [x.hex() for x in w.integrals(lo, hi).tolist()] == want
        assert [w.integral(a, b).hex() for a, b in pairs] == want


# 1 + alpha of the benchmark pairs' power weights, their duals, the
# intermediary nu and its dual, and powers that the diagnostics take
FLOAT_POWER_EXPONENTS = (1.5, 0.7, 1.4, 0.6, 0.5, 1.3, 0.85, 1.25, 1.15, 0.75, 1.0 / 3.0, 1.9, 0.1)


class TestFloatPowerGuard:
    def test_float_power_is_the_float_pow(self):
        """`PowerWeight.integrals` is bit-equal to its Python-float reference
        only while np.float_power calls libm pow per element, as the float
        `**` does."""
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [
                rng.uniform(0.0, 1e-12, 2000),
                rng.uniform(0.0, 1.0, 2000),
                rng.uniform(0.0, 10.0, 2000),
                [0.0, 1.0, 2.0, 2.0**-1074, 1e-300],
            ]
        )
        for e in FLOAT_POWER_EXPONENTS:
            got = np.float_power(x, e).view(np.int64)
            want = np.array([y**e for y in x.tolist()]).view(np.int64)
            differ = int(np.count_nonzero(got != want))
            assert differ == 0, (
                f"np.float_power(x, {e!r}) differs from the float ** on {differ} of {len(x)} "
                f"values under numpy {np.__version__}: numpy no longer calls libm pow per "
                "element, so PowerWeight.integrals is no longer bit-equal to reference_power "
                "in test_table_paths.py"
            )


class TestOverflowingPowerIntegral:
    def test_scalar_integral_rejected(self):
        with pytest.raises(InvalidParameterError, match="overflows"):
            PowerWeight(0.5).integral(0.0, 1e250)

    def test_table_names_the_overflowing_bound(self):
        w = PowerWeight(0.5, center=0.0)
        with pytest.raises(InvalidParameterError, match=r"1e\+250 \*\* 1\.5 overflows"):
            w.integrals(np.array([0.0, 0.0, 0.0]), np.array([1.0, 1e250, 1e260]))

    def test_scalar_integral_times_coeff_rejected(self):
        # the power 1e10 ** 1.5 is finite; only the product with coeff overflows
        with pytest.raises(InvalidParameterError, match="overflows"):
            PowerWeight(0.5, coeff=1e300).integral(0.0, 1e10)

    def test_table_names_the_row_whose_product_overflows(self):
        w = PowerWeight(0.5, coeff=1e300)
        with pytest.raises(InvalidParameterError, match=r"\[0\.0, 10000000000\.0\) overflows"):
            w.integrals(np.array([0.0, 0.0]), np.array([1.0, 1e10]))


class TestOverflowingConstantIntegral:
    def test_scalar_integral_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"const\(1e\+300\) over \[0\.0, 10000000000\.0\) overflows"):
            ConstantWeight(1e300).integral(0.0, 1e10)

    def test_table_names_the_row_whose_product_overflows(self):
        w = ConstantWeight(1e300)
        with pytest.raises(InvalidParameterError, match=r"\[0\.0, 10000000000\.0\) overflows"):
            w.integrals(np.array([0.0, 0.0, 0.0]), np.array([1.0, 1e10, 1e20]))
        with pytest.raises(InvalidParameterError, match=r"\[0\.0, 10000000000\.0\) overflows"):
            w.integrals([0.0], [1e10])

    def test_overflowing_length_rejected(self):
        # the length hi - lo itself overflows, on both paths
        w = ConstantWeight(1.0)
        with pytest.raises(InvalidParameterError, match="overflows"):
            w.integral(-1e308, 1e308)
        with pytest.raises(InvalidParameterError, match=r"\[-1e\+308, 1e\+308\) overflows"):
            w.integrals(np.array([0.0, -1e308]), np.array([1.0, 1e308]))


BASE = pathological_weight(2, 3, 9)
# powers, duals and scalar multiples of BASE, with their labels at the former
# two-class spiked weight
SPIKED_FAMILY = [
    (BASE, "spiked(r=2,J=3,A=9)"),
    (BASE.power(2.0), "spiked(r=2,J=3,A=9)^2"),
    (BASE.power(1.25), "spiked(r=2,J=3,A=9)^1.25"),
    (BASE.inv(), "spiked(r=2,J=3,A=9)^-1"),
    (BASE.power(0.5).inv(), "spiked(r=2,J=3,A=9)^-0.5"),
    (product_weight(ConstantWeight(3.0), BASE), "spiked(r=2,J=3,A=9)^1*3"),
    (product_weight(ConstantWeight(3.0), BASE).power(0.5), "spiked(r=2,J=3,A=9)^0.5*1.73205"),
    (product_weight(ConstantWeight(0.25), BASE.power(-0.5)).inv(), "spiked(r=2,J=3,A=9)^0.5*4"),
]


class TestOneSpikedClass:
    """Powers, duals and scalar multiples of a spiked weight are spiked
    weights with other `s` and `scale`, and evaluate as scale * base^s did."""

    @pytest.mark.parametrize("w, label", SPIKED_FAMILY, ids=[label for _, label in SPIKED_FAMILY])
    def test_eval_bit_equal_to_scale_times_base_power(self, w, label):
        assert isinstance(w, SpikedLatticeWeight)
        period, width, offset, _ = spike_levels(BASE)[2]
        xs = np.concatenate([np.linspace(-1.0, 1.0, 1001), [-offset, -offset + width / 2.0, 1.0 / 3.0]])
        # the parent formula: the float ** on a scalar, the array ** on an array
        want = w.scale * BASE.eval(xs) ** w.s
        assert np.array_equal(np.asarray(w.eval(xs)).view(np.int64), want.view(np.int64))
        for x in xs[::50].tolist() + [-offset + width / 2.0]:
            got, want = w.eval(x), w.scale * BASE.eval(x) ** w.s
            assert type(got) is float and got.hex() == want.hex()

    @pytest.mark.parametrize("w, label", SPIKED_FAMILY, ids=[label for _, label in SPIKED_FAMILY])
    def test_label_unchanged(self, w, label):
        assert w.label == label

    def test_power_one_equals_the_base(self):
        assert pathological_weight(2, 3, 9).power(1.0) == pathological_weight(2, 3, 9)
        assert BASE.power(2.0).power(0.5) == BASE

    def test_dual_negates_s_and_inverts_scale(self):
        for w in (BASE, BASE.power(1.25), product_weight(ConstantWeight(3.0), BASE)):
            dual = w.inv()
            assert (dual.s, dual.scale) == (-w.s, 1.0 / w.scale)
            assert dual.inv() is w

    def test_integral_of_a_power_is_its_one_row_table(self):
        for w, _ in SPIKED_FAMILY:
            lo, hi = np.array([0.0, 0.3]), np.array([1.0, 0.625])
            want = [reference_spiked_power(w, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
            assert [w.integral(a, b) for a, b in zip(lo, hi)] == want == w.integrals(lo, hi).tolist()


    def test_eval_past_the_float_range_raises(self):
        w = SpikedLatticeWeight(2, 4, 60).power(2.0)
        _, width, offset, _ = spike_levels(w)[3]
        on_spike = 2.0**-16 - offset  # on the level-4 spike whose height^2 is past 2^1024
        off_spike = 0.5
        for x in (on_spike, np.array([off_spike, on_spike]), np.array([[on_spike]])):
            with pytest.raises(InvalidParameterError, match=r"\^2 at x = 1\.52586\d*e-05 overflows"):
                w.eval(x)
        assert w.eval(off_spike) == 1.0
        assert w.eval(np.array([off_spike, 1.0 / 3.0])).tolist() == [1.0, 1.0]
        # the integrals stay finite and exact: scale * base^s over [lo, hi)
        lo, hi = np.array([0.0, on_spike]), np.array([1.0, on_spike + width / 4.0])
        want = [reference_spiked_power(w, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert np.isfinite(want).all()
        assert [w.integral(a, b) for a, b in zip(lo, hi)] == want


CELL_AVERAGE_KINDS = [
    pytest.param(ConstantWeight(2.5), id="constant"),
    pytest.param(PowerWeight(0.25), id="power"),
    pytest.param(PowerWeight(-0.3, 1.0 / 3.0, 1.7), id="power-coeff"),
    pytest.param(pathological_weight(2, 3, 9), id="spiked"),
    pytest.param(pathological_weight(2, 3, 9).power(1.25), id="spiked-power"),
    pytest.param(
        QuadratureWeight(lambda x: 1.0 + np.abs(x - 1.0 / 3.0) ** 0.5, "1+|x-1/3|^0.5"),
        id="quadrature",
    ),
    pytest.param(derive_intermediary(PowerWeight(0.5, 0.25), PowerWeight(-0.3)), id="mixed-nu"),
]
CELL_AVERAGE_WINDOWS = [
    pytest.param(make_window(0, 1, 0, 5), id="unit"),
    pytest.param(make_window(-4, 4, -2, 7), id="default7"),
    pytest.param(make_window(-3, -1, 0, 6), id="negative_lo"),
]


class TestCellAverages:
    @pytest.mark.parametrize("window", CELL_AVERAGE_WINDOWS)
    @pytest.mark.parametrize("w", CELL_AVERAGE_KINDS)
    def test_bit_equal_to_per_cell_scalar_integrals(self, w, window):
        edges = window.cell_edges()
        width = float(window.cell_width)
        for v in (w, w.inv()):
            want = np.array([v.integral(edges[i], edges[i + 1]) for i in range(window.n_cells)]) / width
            got = v.cell_averages(window)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestEmptyIntervals:
    @pytest.mark.parametrize("w", CELL_AVERAGE_KINDS)
    def test_empty_interval_integrates_to_zero(self, w):
        """[a, a) integrates to +0.0 for a weight of every kind and its dual,
        as a scalar and as table rows, at a power weight's centre too."""
        points = [-0.7, 0.0, 0.25, 1.0 / 3.0, 0.3, 2.0]
        for v in (w, w.inv()):
            for a in points:
                assert v.integral(a, a).hex() == (0.0).hex(), (v.label, a)
            table = v.integrals(np.array(points), np.array(points))
            assert table.tobytes() == np.zeros(len(points)).tobytes(), v.label

    @pytest.mark.parametrize("w", CELL_AVERAGE_KINDS)
    def test_inverted_interval_integrates_to_zero(self, w):
        """[a, b) with b < a is empty: +0.0 for a weight of every kind and its
        dual, as a scalar and as table rows beside valid rows, which keep
        the bits they have in a table of their own."""
        inverted = [(0.5, 0.25), (1.0 / 3.0 + 0.1, 1.0 / 3.0 - 0.1), (2.0, -0.7), (0.0, -1e-9)]
        valid = [(-0.7, 0.0), (0.25, 0.5), (0.3, 2.0)]
        rows = [pair for both in zip(inverted, valid) for pair in both] + inverted[len(valid):]
        lo, hi = (np.array(ends) for ends in zip(*rows))
        is_inverted = hi < lo
        for v in (w, w.inv()):
            for a, b in inverted:
                assert v.integral(a, b).hex() == (0.0).hex(), (v.label, a, b)
            alone = v.integrals(*(np.array(ends) for ends in zip(*valid)))
            table = v.integrals(lo, hi)
            assert table[is_inverted].tobytes() == np.zeros(len(inverted)).tobytes(), v.label
            assert table[~is_inverted].tobytes() == alone.tobytes(), v.label


def segment_loop_integral(w, a, b):
    """The former `QuadratureWeight.integral`: one `fn` call per segment, on
    segments of at most half the former default `seg_len` of 0.125."""
    nodes, wts = GAUSS_LEGENDRE_32
    seg_len = 0.125
    n_seg = max(1, int(math.ceil((b - a) / (seg_len / 2.0))))
    edges = np.linspace(a, b, n_seg + 1)
    total = 0.0
    for i in range(n_seg):
        lo, hi = edges[i], edges[i + 1]
        half = 0.5 * (hi - lo)
        xs = 0.5 * (hi + lo) + half * nodes
        total += half * float(np.sum(wts * w.fn(xs)))
    return float(total)


class TestQuadratureSegments:
    """The segments of one integral are evaluated in one `fn` call per block
    of segments, with the bits of one call per segment."""

    MIXED_NU = derive_intermediary(PowerWeight(0.5, 0.25), PowerWeight(-0.3))

    @pytest.mark.parametrize("w", [MIXED_NU, MIXED_NU.inv(), MIXED_NU.power(1.5)], ids=["nu", "dual", "power"])
    def test_bit_equal_to_one_call_per_segment(self, w):
        rng = np.random.default_rng(11)
        lo = rng.uniform(-4.0, 3.0, size=300)
        hi = lo + rng.uniform(1e-6, 7.0, size=300)
        # one segment, whole blocks of segments, and several blocks with a partial last one
        bounds = list(zip(lo.tolist(), hi.tolist())) + [(0.0, 0.01), (-4.0, 4.0), (-200.0, 313.0)]
        for a, b in bounds:
            assert w.integral(a, b).hex() == segment_loop_integral(w, a, b).hex()

    def test_fn_called_once_per_block_of_segments(self):
        calls = []

        def fn(x):
            calls.append(x.shape)
            return 1.0 + np.abs(x)

        w = QuadratureWeight(fn, "1+|x|")
        w.integral(0.0, 1.0)  # 16 segments of length 1/16
        assert calls == [(16, 32)]
        calls.clear()
        w.integral(0.0, 400.0)  # 6400 segments
        assert calls == [(2048, 32)] * 3 + [(256, 32)]


class TestSpikedEvalNonFinite:
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_scalar_point_raises(self, x):
        with pytest.raises(InvalidParameterError, match=f"no value at x = {x!r}"):
            pathological_weight(2, 3, 9).eval(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_array_point_raises_naming_the_first(self, x):
        w = pathological_weight(2, 3, 9).power(1.25)
        for pts in (np.array([0.25, x, math.nan]), np.array([[0.5], [x]])):
            with pytest.raises(InvalidParameterError, match=f"no value at x = {x!r}"):
                w.eval(pts)
            with pytest.raises(InvalidParameterError):
                w.inv()(pts)
        assert w.eval(np.array([0.25, 0.5])).shape == (2,)


CLOSED_FORM_WEIGHTS = [ConstantWeight(2.0), PowerWeight(0.5), PowerWeight(0.5).inv(), PowerWeight(-0.3, 0.0, 2.0)]


class TestClosedFormEvalNonFinite:
    @pytest.mark.parametrize("w", CLOSED_FORM_WEIGHTS, ids=lambda w: w.label)
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_scalar_point_raises(self, w, x):
        with pytest.raises(InvalidParameterError, match=f"no value at x = {x!r}"):
            w.eval(x)

    @pytest.mark.parametrize("w", CLOSED_FORM_WEIGHTS, ids=lambda w: w.label)
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_array_point_raises_naming_the_first(self, w, x):
        for pts in (np.array([0.25, x, math.nan]), np.array([[0.5], [x]]), [0.25, x]):
            with pytest.raises(InvalidParameterError, match=f"no value at x = {x!r}"):
                w.eval(pts)
        assert w.eval(np.array([0.25, 0.5])).shape == (2,)


class TestQuadratureEvalNonFinite:
    W = QuadratureWeight(lambda x: 1.0 + np.abs(x), "1+|x|")

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_scalar_point_raises(self, x):
        with pytest.raises(InvalidParameterError, match=rf"1\+\|x\| has no value at x = {x!r}"):
            self.W.eval(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_array_point_raises_naming_the_first(self, x):
        for pts in (np.array([0.25, x, math.nan]), np.array([[0.5], [x]]), [0.25, x]):
            with pytest.raises(InvalidParameterError, match=f"no value at x = {x!r}"):
                self.W.eval(pts)
            with pytest.raises(InvalidParameterError):
                self.W.inv()(pts)
        assert np.array_equal(self.W.eval(np.array([0.25, -0.5])), [1.25, 1.5])

    def test_integral_calls_the_callable_directly(self, monkeypatch):
        """The quadrature nodes are finite, so `integral` needs no point check:
        it never goes through `eval`."""
        calls = []

        def fn(x):
            calls.append(x.shape)
            return 1.0 + np.abs(x)

        def no_eval(self, x):
            raise AssertionError("integral went through eval")

        monkeypatch.setattr(QuadratureWeight, "eval", no_eval)
        w = QuadratureWeight(fn, "1+|x|")
        assert w.integral(0.0, 1.0) == pytest.approx(1.5, rel=1e-14)
        assert calls == [(16, 32)]


# Weights of every kind built with a scale c, and rows that are long, wide
# and short around the power weights' centre 1/3.
FLOAT_RANGE_KINDS = {
    "constant": lambda c: ConstantWeight(c),
    "power+": lambda c: PowerWeight(0.5, 1.0 / 3.0, c),
    "power-": lambda c: PowerWeight(-0.5, 1.0 / 3.0, c),
    "spiked": lambda c: SpikedLatticeWeight(2, 3, 9, scale=c),
    "spiked^2": lambda c: SpikedLatticeWeight(2, 3, 9, scale=c).power(2.0),
    "quadrature": lambda c: QuadratureWeight(lambda x: c * (1 + x * x)),
}
FLOAT_RANGE_ROWS = [(0.0, 4.0), (-8.0, 8.0), (1.0 / 3.0 - 1e-3, 1.0 / 3.0 + 1e-3)]


class TestIntegralsFiniteOrRaise:
    """Every weight integral is a finite float, or raises a DyadlabError: a
    value past the float range never comes back as inf, nor as a numpy
    warning."""

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, 1e308], ids=lambda c: f"{c:g}")
    @pytest.mark.parametrize("kind", FLOAT_RANGE_KINDS)
    def test_finite_or_raises(self, kind, scale, dual):
        try:
            w = FLOAT_RANGE_KINDS[kind](scale)
        except DyadlabError:  # the scale of a power leaves the float range
            return
        w = w.inv() if dual else w
        for a, b in FLOAT_RANGE_ROWS:
            try:
                value = float(w.integrals([a], [b])[0])
            except DyadlabError:
                continue
            assert math.isfinite(value) and value >= 0.0, (a, b, value)

    def test_spiked_overflow_names_the_row(self):
        # the integral of base^s is finite; only its product with the scale overflows
        w = SpikedLatticeWeight(r=2, levels=1, growth=9, scale=1e308)
        with pytest.raises(InvalidParameterError, match=r"over \[0\.0, 4\.0\) overflows a float"):
            w.integrals([0.0], [4.0])
        with pytest.raises(InvalidParameterError):
            a2_constant(w, default_window(5))

    def test_quadrature_overflow_is_diverged(self):
        w = QuadratureWeight(lambda x: np.full_like(x, 1e308))
        with pytest.raises(DivergedIntegralError):
            w.integral(0.0, 4.0)

    def test_a2_average_past_the_float_range(self):
        """A2 is invariant under w -> c w.  At c = 5e305 every integral is
        finite, but the average over a short row at the centre is not; the
        row's product is then formed from the integrals."""
        window = default_window(5)
        base = a2_constant(PowerWeight(-0.99), window)
        scaled = a2_constant(PowerWeight(-0.99, coeff=5e305), window)
        assert scaled.constant == pytest.approx(base.constant, rel=1e-12)
        assert scaled.argmax_interval == base.argmax_interval


class TestArgumentRule:
    """The weights store the float that `errors.real` makes of each
    parameter, so a Fraction or numpy parameter integrates with its float
    twin's bits."""

    def test_parameters_stored_as_floats(self):
        w = PowerWeight(Fraction(1, 2), np.float32(0.25), np.int64(2))
        assert [type(v) for v in (w.exponent, w.center, w.coeff)] == [float] * 3
        assert w == PowerWeight(0.5, 0.25, 2.0)

    def test_fraction_constant_kept(self):
        lo, hi = [0.0, -1.5, 0.25], [1.0, 2.0, 0.75]
        got = ConstantWeight(Fraction(5, 2)).integrals(lo, hi)
        assert got.tobytes() == ConstantWeight(2.5).integrals(lo, hi).tobytes()

    def test_fraction_center_integrates(self):
        """At the parent a Fraction centre reached numpy's float_power and
        failed there."""
        got = PowerWeight(0.5, Fraction(1, 3)).integral(0, 1)
        assert got == PowerWeight(0.5, 1.0 / 3.0).integral(0, 1)

    def test_numpy_and_fraction_spiked_kept(self):
        lo, hi = np.linspace(-1.0, 0.5, 7), np.linspace(-0.5, 1.0, 7)
        got = SpikedLatticeWeight(np.float64(2.0), np.int64(3), Fraction(9)).integrals(lo, hi)
        assert got.tobytes() == SpikedLatticeWeight(2, 3, 9).integrals(lo, hi).tobytes()


# One weight of every kind, a dual and a closed-form power among them.
EVERY_KIND = [
    ConstantWeight(2.0),
    PowerWeight(0.5),
    PowerWeight(0.5).inv(),
    pathological_weight(2, 3, 9),
    QuadratureWeight(lambda x: 1.0 + np.abs(x), "1+|x|"),
]
NOT_BOUNDS = ["0", b"0", True, np.True_, None, ["0", "1"], np.array([True, False]), [0j]]


class TestBoundRule:
    """Integration bounds go through `errors.reals`: a bool, a string or bytes
    is refused, not parsed ('0' as 0.0) or read as a number (True as 1.0)."""

    @pytest.mark.parametrize("w", EVERY_KIND, ids=lambda w: w.label)
    @pytest.mark.parametrize("bad", NOT_BOUNDS, ids=repr)
    def test_refused(self, w, bad):
        with pytest.raises(InvalidParameterError, match="not a real number"):
            w.integral(bad, 1.0)
        with pytest.raises(InvalidParameterError, match="not a real number"):
            w.integrals(np.zeros(2), bad)

    @pytest.mark.parametrize("w", EVERY_KIND, ids=lambda w: w.label)
    def test_fraction_and_numpy_bounds_keep_their_bits(self, w):
        got = w.integral(Fraction(1, 3), np.float32(0.75))
        assert got.hex() == w.integral(1.0 / 3.0, float(np.float32(0.75))).hex()
        lo = [Fraction(-1, 3), np.int64(0), 2**3]
        want = w.integrals([-1.0 / 3.0, 0.0, 8.0], 9.0)
        assert w.integrals(lo, np.float16(9.0)).tobytes() == want.tobytes()


class TestPowerRule:
    """`Weight.power(s)` checks s once, through `errors.real`, for every kind."""

    @pytest.mark.parametrize("w", EVERY_KIND, ids=lambda w: w.label)
    @pytest.mark.parametrize("s", [True, np.False_, "2", None, math.nan, math.inf, np.array(2.0)], ids=repr)
    def test_refused(self, w, s):
        with pytest.raises(InvalidParameterError, match="is not a finite real number"):
            w.power(s)

    @pytest.mark.parametrize("w", EVERY_KIND, ids=lambda w: w.label)
    def test_fraction_and_numpy_powers_keep_their_bits(self, w):
        for s in (Fraction(1, 2), np.float32(0.5), np.int64(1)):
            got, want = w.power(s), w.power(float(s))
            assert got.integral(0.1, 0.9).hex() == want.integral(0.1, 0.9).hex()
            assert got.label == want.label
