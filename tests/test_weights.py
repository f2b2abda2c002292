import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.errors import (
    DivergedIntegralError,
    InvalidConfigurationError,
    InvalidParameterError,
)
from dyadlab.grids import make_window, standard_grid, third_shift_grid
from dyadlab.weights import (
    A2Report,
    BloomWeight,
    ConstantWeight,
    PowerWeight,
    QuadratureWeight,
    SpikedLatticeWeight,
    a2_constant,
    derive_intermediary,
    doubling_ratio,
    interval_family,
    pathological_weight,
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
        fam = interval_family(win, (standard_grid(), third_shift_grid()), n_random=10000, seed=11)
        assert len(fam) >= 10**4
        rep = a2_constant(w, win, family=fam)
        best = max(
            (power_integral(0.5, 0.0, a, b) / (b - a))
            * (power_integral(-0.5, 0.0, a, b) / (b - a))
            for a, b in fam
        )
        assert rep.constant == pytest.approx(best, rel=1e-12)
        assert rep.constant >= 1.0

    def test_symmetry_under_inversion(self):
        win = make_window(-1, 1, 0, 6)
        fam = interval_family(win, (standard_grid(),), n_random=200, seed=3)
        w = PowerWeight(0.25, center=0.0)
        r1 = a2_constant(w, win, family=fam)
        r2 = a2_constant(w.inv(), win, family=fam)
        assert r1.constant == pytest.approx(r2.constant, rel=1e-12)

    def test_am_gm_lower_bound_over_family(self):
        win = make_window(-4, 4, -2, 6)
        fam = interval_family(win, (standard_grid(), third_shift_grid()), n_random=300, seed=5)
        for w in [
            ConstantWeight(2.5),
            PowerWeight(0.25),
            PowerWeight(-0.5),
            pathological_weight(2.0, 3, 9.0),
        ]:
            w_inv = w.inv()
            for a, b in fam:
                ell = b - a
                prod = (w.integral(a, b) / ell) * (w_inv.integral(a, b) / ell)
                assert prod >= 1.0 - 1e-10


class TestDoubling:
    def test_flat_weight_ratio_one(self):
        assert doubling_ratio(ConstantWeight(1.0), (0.25, 0.5), 2.0) == pytest.approx(1.0)

    def test_power_weight_closed_form(self):
        w = PowerWeight(0.5, center=0.0)
        got = doubling_ratio(w, (1.0, 2.0), 3.0)
        want = power_integral(0.5, 0.0, 0.0, 3.0) / (3.0 * power_integral(0.5, 0.0, 1.0, 2.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_bounded_over_random_dilations(self):
        rng = np.random.default_rng(77)
        for alpha in (0.25, -0.25, 0.5, -0.5):
            w = PowerWeight(alpha, center=0.0)
            worst = 0.0
            for _ in range(1000):
                a = rng.uniform(-2.0, 2.0)
                ell = 2.0 ** rng.uniform(-6, 0)
                s = rng.uniform(1.0 + 1e-6, 8.0)
                worst = max(worst, doubling_ratio(w, (a, a + ell), s))
            assert worst < 8.0


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
        for j, (period, width, offset, height) in enumerate(w.level_params(), start=1):
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
        period, width, offset, height = w.level_params()[0]
        delta = width / period
        per_period = w.integral_power(-offset, -offset + period, r) / period
        lower = delta ** (-(r - 1) / 2.0)
        assert per_period >= lower
        assert per_period == pytest.approx((1 - delta) + lower, rel=1e-12)

    def test_blowup_table_flat_a2(self):
        win = make_window(0, 1, 0, 10)
        integrals = []
        a2s = []
        for levels in (1, 2, 3, 4):
            w = pathological_weight(2.0, levels, 9.0)
            integrals.append(w.integral_power(0.0, 1.0, 2.0))
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
