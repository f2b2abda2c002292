import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.errors import DyadlabError, InvalidConfigurationError, InvalidParameterError
from dyadlab.besov import (
    _abs_deviation_integrals,
    continuous_energy,
    dyadic_besov_norm,
    intersection_norm,
    interval_form_ratios,
    vmo_tail_report,
    weighted_bmo_dyadic,
)
from dyadlab.grids import (
    DyadicInterval,
    default_window,
    enumerate_intervals,
    interval_table,
    make_window,
    standard_grid,
    third_shift_grid,
)
from dyadlab.symbols import (
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
from dyadlab.weights import (
    BloomWeight,
    ConstantWeight,
    PowerWeight,
    QuadratureWeight,
    product_weight,
    unweighted_pair,
)

WIN = make_window(0, 1, 0, 6)
D0 = standard_grid()
D1 = third_shift_grid()


class TestDyadicNorm:
    def test_constant_symbol_vanishes(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 5.0))
        for p in (0.5, 1.5, 2.0, 3.0):
            for form in (1, 2, 3):
                rep = dyadic_besov_norm(b, unweighted_pair(), p, D0, WIN, form=form)
                assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_single_haar_flat_weights_value_one(self):
        b = HaarSymbol(WIN, {DyadicInterval("standard", 0, 0): 1.0})
        rep = dyadic_besov_norm(b, ConstantWeight(1.0), 2.0, D0, WIN, form=1)
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_three_forms_agree_within_band(self):
        b = sin_symbol(WIN)
        pair = BloomWeight(PowerWeight(0.25), PowerWeight(-0.25))
        vals = [
            dyadic_besov_norm(b, pair, 2.0, D0, WIN, form=f).value for f in (1, 2, 3)
        ]
        assert all(v > 0 for v in vals)
        assert max(vals) / min(vals) < 4.0

    def test_form_needs_pair(self):
        b = sin_symbol(WIN)
        with pytest.raises(InvalidConfigurationError):
            dyadic_besov_norm(b, ConstantWeight(1.0), 2.0, D0, WIN, form=2)

    @pytest.mark.parametrize("form", [True, False, 1.0, 2.5, 0, 4, "1", None])
    def test_form_not_one_of_three_integers_rejected(self, form):
        """A bool or a float is no form, even where it equals 1, 2 or 3."""
        with pytest.raises(InvalidConfigurationError, match="unknown form"):
            dyadic_besov_norm(sin_symbol(WIN), ConstantWeight(1.0), 2.0, D0, WIN, form=form)

    def test_numpy_integer_form_kept(self):
        b, pair = sin_symbol(WIN), unweighted_pair()
        for form in (1, 2, 3):
            got = dyadic_besov_norm(b, pair, 2.0, D0, WIN, form=np.int64(form)).value
            assert got == dyadic_besov_norm(b, pair, 2.0, D0, WIN, form=form).value

    def test_homogeneity_exact_for_binary_scalar(self):
        b = random_haar_symbol(WIN, n_terms=6, seed=1)
        scaled = StepSymbol(WIN, 4.0 * b.cell_values())
        pair = BloomWeight(PowerWeight(0.25), PowerWeight(-0.25))
        for form in (1, 2, 3):
            r1 = dyadic_besov_norm(b, pair, 2.0, D0, WIN, form=form)
            r4 = dyadic_besov_norm(scaled, pair, 2.0, D0, WIN, form=form)
            assert r4.value == 4.0 * r1.value

    def test_homogeneity_general_scalar(self):
        b = random_haar_symbol(WIN, n_terms=6, seed=2)
        scaled = StepSymbol(WIN, -3.3 * b.cell_values())
        r1 = dyadic_besov_norm(b, unweighted_pair(), 1.5, D0, WIN)
        r2 = dyadic_besov_norm(scaled, unweighted_pair(), 1.5, D0, WIN)
        assert r2.value == pytest.approx(3.3 * r1.value, rel=1e-12)

    def test_translation_by_coarse_period(self):
        win = make_window(-4, 4, -2, 6)
        base = DyadicInterval("standard", 1, 0)  # [0, 0.5)
        shifted = DyadicInterval("standard", 1, -8)  # [-4, -3.5)
        b0 = HaarSymbol(win, {base: 1.0})
        b1 = HaarSymbol(win, {shifted: 1.0})
        r0 = dyadic_besov_norm(b0, ConstantWeight(1.0), 2.0, D0, win)
        r1 = dyadic_besov_norm(b1, ConstantWeight(1.0), 2.0, D0, win)
        assert r0.value == r1.value

    def test_norm_report_csv_format(self, tmp_path):
        b = random_haar_symbol(WIN, n_terms=3, seed=3)
        rep = dyadic_besov_norm(b, unweighted_pair(), 2.0, D0, WIN)
        out = tmp_path / "norm.csv"
        rep.to_csv(out)
        text = out.read_bytes().decode()
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "interval_id,contribution,cumulative"
        assert len(lines) == len(rep.contributions) + 1


class TestIntervalForms:
    def test_flat_pair_all_equal(self):
        rows, worst = interval_form_ratios(unweighted_pair(), D0, WIN)
        assert worst == pytest.approx(1.0, rel=1e-12)
        for row in rows:
            assert row.q1 == pytest.approx(row.q2, rel=1e-12)
            assert row.q3 == pytest.approx(row.q2, rel=1e-12)

    def test_cauchy_schwarz_gap_nonnegative(self):
        pair = BloomWeight(PowerWeight(0.5), PowerWeight(-0.25))
        rows, worst = interval_form_ratios(pair, D0, WIN)
        assert math.isfinite(worst)
        for row in rows:
            assert row.cs_gap >= -1e-12


class TestContinuous:
    def test_constant_vanishes(self):
        b = StepSymbol(WIN, np.zeros(WIN.n_cells))
        with pytest.raises(InvalidConfigurationError):
            # step symbols carry no Lipschitz certificate
            continuous_energy(b, ONE, ONE, WIN)

    def test_linear_unit_square_is_one(self):
        b = linear_symbol(WIN)
        energy, estimate, _ = continuous_energy(b, ONE, ONE, WIN)
        assert math.sqrt(energy) == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(estimate) and estimate >= 0.0

    def test_sin_against_monte_carlo_oracle(self):
        # the tensor rule's error is far below the oracle's sampling error,
        # so the coarse lattice serves
        b = sin_symbol(WIN)
        energy, _, _ = continuous_energy(b, ONE, ONE, WIN)
        rng = np.random.default_rng(314159)
        xs = rng.uniform(0, 1, size=10**6)
        ys = rng.uniform(0, 1, size=10**6)
        num = np.sin(2 * np.pi * xs) - np.sin(2 * np.pi * ys)
        den = xs - ys
        vals = np.where(den != 0, (num / den) ** 2, (2 * np.pi) ** 2)
        mc = float(np.mean(vals))
        assert energy == pytest.approx(mc, rel=0.01)

    def test_weighted_energy_positive(self):
        b = sin_symbol(WIN)
        energy, _, _ = continuous_energy(b, PowerWeight(0.25), PowerWeight(-0.25), WIN)
        assert energy > 0


ONE = ConstantWeight(1.0)

# The closed form of the flat quartic_bump energy on [-4, 4), and the
# benchmark's power pair's value from a graded reference rule.
QUARTIC_FLAT = 6.697675804568441
QUARTIC_POWER = 26.8609312


def power_pair(c):
    """(lam, mu) of the benchmark's power pair, centred at c."""
    return PowerWeight(-0.3, c), PowerWeight(0.5, c)


class TestTensorEnergy:
    """The tensor rule against closed forms: for linear the quotient is 1,
    so the energy is lam(W) mu^-1(W) on the window W."""

    def test_flat_quartic_bump_closed_form(self):
        win = default_window(5)
        value, estimate, _ = continuous_energy(quartic_bump_symbol(win), ONE, ONE, win)
        assert abs(value - QUARTIC_FLAT) <= min(1e-9, estimate)

    def test_flat_linear_is_the_window_area(self):
        win = default_window(4)
        value, estimate, _ = continuous_energy(linear_symbol(win), ONE, ONE, win)
        assert value == pytest.approx(64.0, rel=1e-13, abs=0.0)
        assert estimate <= 1e-12

    # 1/3 lies inside a cell, 0.25 on a cell edge
    @pytest.mark.parametrize("c", [1.0 / 3.0, 0.25], ids=["c=1/3", "c=1/4"])
    @pytest.mark.parametrize("j_max", [3, 5], ids=["N=64", "N=256"])
    def test_linear_power_pair_within_its_estimate(self, c, j_max):
        win = default_window(j_max)
        lam, mu = power_pair(c)
        value, estimate, _ = continuous_energy(linear_symbol(win), lam, mu, win)
        exact = lam.integral(-4, 4) * mu.inv().integral(-4, 4)
        assert abs(value - exact) <= estimate

    @pytest.mark.parametrize("j_max", [3, 5], ids=["N=64", "N=256"])
    def test_quartic_bump_power_pair_within_its_estimate(self, j_max):
        win = default_window(j_max)
        value, estimate, _ = continuous_energy(quartic_bump_symbol(win), *power_pair(1.0 / 3.0), win)
        assert abs(value - QUARTIC_POWER) <= min(3e-7, estimate)

    @pytest.mark.parametrize("make", [linear_symbol, quartic_bump_symbol], ids=["linear", "quartic_bump"])
    def test_estimate_falls_with_the_lattice(self, make):
        coarse, fine = (
            continuous_energy(make(win), *power_pair(1.0 / 3.0), win)[1]
            for win in (default_window(3), default_window(5))
        )
        assert fine < coarse

    def test_per_cell_totals_sum_to_the_value(self):
        win = default_window(3)
        value, _, per_cell = continuous_energy(quartic_bump_symbol(win), *power_pair(1.0 / 3.0), win)
        assert per_cell.shape == (win.n_cells,)
        assert float(np.sum(per_cell)) == value


ENERGY_WEIGHTS = {
    "constant": (ConstantWeight(2.0), ConstantWeight(0.3)),
    "power": power_pair(1.0 / 3.0),
    "power_on_an_edge": power_pair(0.25),
    # distinct centres, so each product is a quadrature weight
    "quadrature": (
        product_weight(PowerWeight(0.25, 0.25), PowerWeight(-0.2)),
        product_weight(PowerWeight(0.3), PowerWeight(-0.15, 0.6)),
    ),
}
ENERGY_SYMBOLS = [
    pytest.param(make, id=make.__name__.removesuffix("_symbol"))
    for make in (sin_symbol, parabola_symbol, ramp_bump_symbol, quartic_bump_symbol, linear_symbol)
]
ENERGY_WINDOWS = [
    pytest.param(make_window(-1, 2, 0, 3), id="N=24"),
    pytest.param(default_window(5), id="N=256"),
]


def graded_gauss_legendre(m):
    """m-node Gauss-Legendre on [0, 1) in u under s(u) = u^4 / (u^4 + (1-u)^4)."""
    g, w = np.polynomial.legendre.leggauss(m)
    u, w = (g + 1.0) / 2.0, w / 2.0
    d = u**4 + (1.0 - u) ** 4
    return u**4 / d, w * 4.0 * u**3 * (1.0 - u) ** 3 / d**2


def cell_by_cell_nodes(window, cuts, m, m_graded):
    """Per cell, the (nodes, weights) of one axis of the tensor rule, built
    one cell at a time from the rule's statement: a cell whose closure holds
    a cut is split at the cuts inside it, and each piece takes m_graded
    graded nodes; any other cell takes m plain Gauss-Legendre nodes."""
    edges = window.cell_edges().tolist()
    cells = []
    for a, b in zip(edges[:-1], edges[1:]):
        if any(a <= c <= b for c in cuts):
            u, w = graded_gauss_legendre(m_graded)
        else:
            g, w = np.polynomial.legendre.leggauss(m)
            u, w = (g + 1.0) / 2.0, w / 2.0
        ends = [a] + sorted(c for c in cuts if a < c < b) + [b]
        pieces = [(lo + (hi - lo) * u, (hi - lo) * w) for lo, hi in zip(ends[:-1], ends[1:])]
        cells.append(tuple(np.concatenate(z) for z in zip(*pieces)))
    return cells


def cell_by_cell_energy(b, lam, mu, window):
    """(value, estimate, per-x-cell totals) of `continuous_energy`, each
    x cell's double sum taken over its own nodes against every y node and
    added with `math.fsum`."""
    cuts = sorted({w.center for w in (lam, mu) if isinstance(w, PowerWeight)})
    mu_inv = mu.inv()
    totals = []
    for (mx, my), (gx, gy) in [((4, 5), (20, 21)), ((8, 9), (40, 41))]:
        ys, wy = (np.concatenate(z) for z in zip(*cell_by_cell_nodes(window, cuts, my, gy)))
        fy, my_w = b.eval(ys), mu_inv.eval(ys) * wy
        per_cell = []
        for xs, wx in cell_by_cell_nodes(window, cuts, mx, gx):
            q = (b.eval(xs)[:, None] - fy) / (xs[:, None] - ys)
            per_cell.append(math.fsum((q * q * my_w * (lam.eval(xs) * wx)[:, None]).ravel()))
        totals.append(np.array(per_cell))
    coarse, fine = totals
    value = math.fsum(fine)
    return value, abs(value - math.fsum(coarse)), fine


class TestContinuousEnergyArrays:
    """The array code against the rule taken one x cell at a time, and its
    bits against the block size, on four weight pairs: constant, power pairs
    centred inside a cell and on a cell edge, and quadrature weights."""

    @pytest.mark.parametrize("window", ENERGY_WINDOWS)
    @pytest.mark.parametrize("make", ENERGY_SYMBOLS)
    @pytest.mark.parametrize("kind", list(ENERGY_WEIGHTS))
    def test_equal_to_a_cell_by_cell_loop(self, kind, make, window):
        b = make(window)
        lam, mu = ENERGY_WEIGHTS[kind]
        value, estimate, per_cell = continuous_energy(b, lam, mu, window)
        ref_value, ref_estimate, ref_per_cell = cell_by_cell_energy(b, lam, mu, window)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
        assert estimate == pytest.approx(ref_estimate, rel=0.0, abs=1e-12 * ref_value)
        np.testing.assert_allclose(per_cell, ref_per_cell, rtol=1e-12, atol=1e-14 * ref_value)

    @pytest.mark.parametrize("window", ENERGY_WINDOWS)
    @pytest.mark.parametrize("make", ENERGY_SYMBOLS)
    @pytest.mark.parametrize("kind", list(ENERGY_WEIGHTS))
    def test_bit_equal_with_one_row_per_block(self, monkeypatch, kind, make, window):
        from dyadlab import besov

        b = make(window)
        lam, mu = ENERGY_WEIGHTS[kind]
        value, estimate, per_cell = continuous_energy(b, lam, mu, window)
        monkeypatch.setattr(besov, "_BLOCK_ENTRIES", 1)
        one_value, one_estimate, one_per_cell = continuous_energy(b, lam, mu, window)
        assert value.hex() == one_value.hex()
        assert estimate.hex() == one_estimate.hex()
        assert per_cell.tobytes() == one_per_cell.tobytes()


class TestContinuousBadInput:
    def test_past_the_float_range_raises(self):
        win = default_window(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="continuous energy"):
                continuous_energy(linear_symbol(win), ConstantWeight(1e300), ConstantWeight(1e-10), win)

    def test_near_the_float_range_end(self):
        win = default_window(4)
        value, _, _ = continuous_energy(linear_symbol(win), ConstantWeight(1e290), ConstantWeight(1e-10), win)
        assert value == pytest.approx(6.4e301, rel=1e-13, abs=0.0)


class TestIntersection:
    def test_constant_vanishes(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 2.0))
        rep = intersection_norm(b, unweighted_pair(), D0, D1, WIN)
        assert rep.value == pytest.approx(0.0, abs=1e-10)

    def test_sum_of_grid_norms(self):
        b = sin_symbol(WIN)
        pair = unweighted_pair()
        r = intersection_norm(b, pair, D0, D1, WIN)
        r0 = dyadic_besov_norm(b, pair, 2.0, D0, WIN)
        r1 = dyadic_besov_norm(b, pair, 2.0, D1, WIN)
        assert r.value == pytest.approx(r0.value + r1.value, rel=1e-14)

    def test_labels_are_row_labels(self):
        rep = intersection_norm(sin_symbol(WIN), unweighted_pair(), D0, D1, WIN)
        labels = [label for label, _ in rep.contributions]
        rows = enumerate_intervals(D0, WIN) + enumerate_intervals(D1, WIN)
        assert labels == [interval.label() for interval in rows]
        assert len(set(labels)) == len(labels)

    def test_dyadic_below_continuous_one_sided(self):
        b = sin_symbol(WIN)
        energy, _, _ = continuous_energy(b, ONE, ONE, WIN)
        dy = dyadic_besov_norm(b, unweighted_pair(), 2.0, D0, WIN)
        assert dy.value <= 4.0 * math.sqrt(energy)


DEFAULT5 = default_window(5)


def haar_term_max(b, grid, window):
    """The largest Haar term |b_hat(I)| |I|^-1/2 of the flat form-1 norm."""
    rows = enumerate_intervals(grid, window)
    return max(abs(haar_coefficient(b, iv)) / math.sqrt(float(iv.length)) for iv in rows), len(rows)


class TestNormFloatRange:
    """B_p norms whose p-th powers under- or overflow keep their value: the
    sum is then scaled by the largest Haar term.  A norm past the float range
    raises InvalidParameterError."""

    def test_large_p_lies_between_the_largest_term_and_its_row_bound(self):
        b = quartic_bump_symbol(DEFAULT5)
        p = 2000.0
        for grid in (D0, D1):
            m, rows = haar_term_max(b, grid, DEFAULT5)
            value = dyadic_besov_norm(b, unweighted_pair(), p, grid, DEFAULT5).value
            assert m <= value <= m * rows ** (1.0 / p) * (1.0 + 1e-15), grid.grid_id
        m, _ = haar_term_max(b, D0, DEFAULT5)
        assert 0.3125 <= m and dyadic_besov_norm(b, unweighted_pair(), p, D0, DEFAULT5).value <= 0.3135

    def test_large_p_intersection_is_the_sum(self):
        b, pair = quartic_bump_symbol(DEFAULT5), unweighted_pair()
        r = intersection_norm(b, pair, D0, D1, DEFAULT5, 2000.0)
        parts = [dyadic_besov_norm(b, pair, 2000.0, grid, DEFAULT5).value for grid in (D0, D1)]
        assert r.value == parts[0] + parts[1] > 0.6

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_scaled_symbol_scales_the_norm(self, scale):
        b = random_haar_symbol(DEFAULT5)
        scaled = HaarSymbol(DEFAULT5, {iv: c * scale for iv, c in b.coefficients.items()})
        for grid in (D0, D1):
            base = dyadic_besov_norm(b, unweighted_pair(), 2.0, grid, DEFAULT5).value
            got = dyadic_besov_norm(scaled, unweighted_pair(), 2.0, grid, DEFAULT5).value
            assert got == pytest.approx(scale * base, rel=1e-14, abs=0.0), grid.grid_id

    def test_ordinary_norm_keeps_the_plain_expression(self):
        rep = dyadic_besov_norm(random_haar_symbol(DEFAULT5), unweighted_pair(), 3.0, D0, DEFAULT5)
        assert rep.value == math.fsum(rep.terms) ** (1.0 / 3.0)

    def test_tiny_p_past_the_float_range_raises(self):
        with pytest.raises(InvalidParameterError, match="float range"):
            dyadic_besov_norm(quartic_bump_symbol(DEFAULT5), unweighted_pair(), 1e-3, D0, DEFAULT5)

    def test_intersection_sum_past_the_float_range_raises(self):
        # each grid's norm is finite, near 7e307 and 1.3e308, and their sum is not
        b = HaarSymbol(DEFAULT5, {DyadicInterval("standard", 0, 0): 7e7})
        nu = ConstantWeight(1e-300)
        for grid in (D0, D1):
            assert math.isfinite(dyadic_besov_norm(b, nu, 2.0, grid, DEFAULT5).value)
        with pytest.raises(InvalidParameterError, match="intersection"):
            intersection_norm(b, nu, D0, D1, DEFAULT5)


class TestBmo:
    def test_constant_vanishes(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 1.5))
        rep = weighted_bmo_dyadic(b, unweighted_pair(), D0, WIN)
        assert rep.sup_average == pytest.approx(0.0, abs=1e-12)
        assert rep.square_form == pytest.approx(0.0, abs=1e-12)

    def test_haar_symbol_matches_exhaustive_oracle(self):
        b = HaarSymbol(WIN, {DyadicInterval("standard", 0, 0): 1.0})
        rep = weighted_bmo_dyadic(b, unweighted_pair(), D0, WIN)
        vals = b.cell_values()
        width = float(WIN.cell_width)
        best = 0.0
        for interval in enumerate_intervals(D0, WIN):
            i0, i1 = WIN.cell_slice(interval)
            seg = vals[i0:i1]
            avg = seg.mean()
            osc = np.sum(np.abs(seg - avg)) * width / float(interval.length)
            best = max(best, osc)
        assert rep.sup_average == pytest.approx(best, rel=1e-12)
        assert best == pytest.approx(1.0, rel=1e-12)

    def test_deviation_integral_matches_cell_loop(self):
        vals = np.random.default_rng(3).normal(size=WIN.n_cells)
        lo, width = float(WIN.lo), float(WIN.cell_width)

        def reference(a, c):
            idx, cover = [], []
            i0 = max(0, int(math.floor((a - lo) / width)))
            i1 = min(WIN.n_cells, int(math.ceil((c - lo) / width)))
            for i in range(i0, i1):
                seg_lo = max(a, lo + i * width)
                seg_hi = min(c, lo + (i + 1) * width)
                if seg_hi > seg_lo:
                    idx.append(i)
                    cover.append(seg_hi - seg_lo)
            cov = np.array(cover)
            avg = float(np.sum(vals[idx] * cov) / np.sum(cov))
            return float(np.sum(np.abs(vals[idx] - avg) * cov))

        rows = [(0.0, 1.0), (0.25, 0.5), (0.3, 0.31), (0.1, 0.9), (-0.5, 0.2), (0.7, 1.5)]
        starts, ends = np.array(rows).T
        got = _abs_deviation_integrals(vals, WIN.cell_edges(), width, starts, ends)
        for (a, c), value in zip(rows, got.tolist()):
            assert value == reference(a, c), (a, c)

    def test_square_form_dominated_by_besov_form2(self):
        pair = BloomWeight(PowerWeight(0.25), PowerWeight(-0.25))
        for seed in range(20):
            b = random_haar_symbol(WIN, n_terms=5, seed=seed)
            rep = weighted_bmo_dyadic(b, pair, D0, WIN)
            besov2 = dyadic_besov_norm(b, pair, 2.0, D0, WIN, form=2)
            assert rep.square_form <= besov2.value**2 * (1 + 1e-9)

    def test_same_count_other_cells_rejected(self):
        """A random Haar symbol is one function on [-4, 4) at 2^-6 and on
        [0, 4) at 2^-7 (512 cells each); on the window it was not built on
        its cell values belong to other cells, so the BMO call refuses it."""
        w1, w2 = default_window(6), make_window(0, 4, 0, 7)
        pair = BloomWeight(PowerWeight(0.5), PowerWeight(-0.25))
        rep = weighted_bmo_dyadic(random_haar_symbol(w2, seed=0), pair, D0, w2)
        assert rep.sup_average > 0.0 and rep.square_form > 0.0
        with pytest.raises(InvalidConfigurationError, match=r"are not the cells \[0, 4\) of width 2\^-7 of the window"):
            weighted_bmo_dyadic(random_haar_symbol(w1, seed=0), pair, D0, w2)
        with pytest.raises(InvalidConfigurationError, match="symbol has 512 cells, the window has 64"):
            weighted_bmo_dyadic(random_haar_symbol(w1, seed=0), pair, D0, WIN)

    def test_bare_weight_rejected(self):
        b = random_haar_symbol(WIN, n_terms=5, seed=0)
        with pytest.raises(InvalidConfigurationError, match="needs both weights"):
            weighted_bmo_dyadic(b, PowerWeight(0.5), D0, WIN)


class TestVmoTails:
    def test_single_coefficient_tails_vanish(self):
        target = DyadicInterval("standard", 2, 1)  # length 1/4
        b = HaarSymbol(WIN, {target: 1.0})
        rep = vmo_tail_report(b, ConstantWeight(1.0), D0, WIN)
        for row in rep.rows:
            if row.radius < 0.25:
                assert row.small_scale == pytest.approx(0.0, abs=1e-20)
            if row.radius > 0.25:
                assert row.large_scale == pytest.approx(0.0, abs=1e-20)

    def test_partial_sum_identity(self):
        win = make_window(0, 1, 0, 7)
        coeffs = {DyadicInterval("standard", j, 0): 1.0 for j in range(1, 7)}
        b = HaarSymbol(win, coeffs)
        rep = vmo_tail_report(b, ConstantWeight(1.0), D0, win)
        (row,) = [row for row in rep.rows if row.radius == 2.0**-3]
        from dyadlab.symbols import haar_coefficient

        expected = 0.0
        for interval in enumerate_intervals(D0, win):
            if float(interval.length) < 2.0**-3:
                bh = haar_coefficient(b, interval)
                expected += (abs(bh) * math.sqrt(float(interval.length)) / float(interval.length)) ** 2
        assert row.small_scale == pytest.approx(expected, rel=1e-12)

    def test_tails_monotone_in_radius(self):
        b = random_haar_symbol(WIN, n_terms=8, seed=12)
        rep = vmo_tail_report(b, ConstantWeight(1.0), D0, WIN)
        radii = [r.radius for r in rep.rows]
        order = np.argsort(radii)
        small = [rep.rows[i].small_scale for i in order]
        far = [rep.rows[i].far_field for i in order]
        assert all(a <= b_ + 1e-15 for a, b_ in zip(small, small[1:]))
        assert all(a >= b_ - 1e-15 for a, b_ in zip(far, far[1:]))

    def test_radii_and_center_are_fixed(self):
        """The radii are 2^-j for j = j_min..j_max, and the far field is
        measured about the window's midpoint 2: [0, 1) lies off B(2, a)
        exactly when a <= 1, where about 0 it would meet every ball."""
        win = make_window(0, 4, -1, 6)
        b = HaarSymbol(win, {DyadicInterval("standard", 0, 0): 1.0})
        rep = vmo_tail_report(b, ConstantWeight(1.0), D0, win)
        assert [row.radius for row in rep.rows] == [2.0**-j for j in range(-1, 7)]
        assert rep.total > 0.0
        assert [row.far_field for row in rep.rows] == [0.0] + [rep.total] * 7


def vmo_terms(b, pair, table):
    """The squared form-1 contributions (|b_hat(I)| |I|^-1/2 |I| / nu(I))^2
    of every table row, zero or not, rounded as the report rounds them."""
    haar = np.abs(haar_coefficients(b, table)) / np.sqrt(table.length)
    return (haar * (table.length / pair.nu.integrals(table.left, table.right))) ** 2


class TestVmoTailSums:
    """Each tail is fsum over every term its set holds, zeros included, bit
    for bit: fsum is exact, so the report may leave the zeros out."""

    @pytest.mark.parametrize("grid", [D0, D1], ids=["standard", "shifted"])
    @pytest.mark.parametrize(
        "pair",
        [unweighted_pair(), BloomWeight(*reversed(power_pair(1.0 / 3.0)))],
        ids=["flat", "power"],
    )
    @pytest.mark.parametrize("name", ["quartic_bump", "random_haar"])
    def test_rows_bit_equal_to_fsum_over_all_terms(self, grid, pair, name):
        b = quartic_bump_symbol(WIN) if name == "quartic_bump" else random_haar_symbol(WIN, seed=0)
        table = interval_table(grid, WIN)
        terms = vmo_terms(b, pair, table)
        zeros = len(terms) - np.count_nonzero(terms)
        # quartic_bump's terms are all nonzero but [0, 1)'s, which vanishes by
        # symmetry; a third or more of random_haar's vanish
        assert zeros <= 1 if name == "quartic_bump" else zeros >= len(terms) / 3
        rep = vmo_tail_report(b, pair, grid, WIN)
        assert rep.total.hex() == math.fsum(terms).hex()
        center = float(WIN.lo + WIN.span / 2)
        radii = [2.0 ** (-j) for j in range(WIN.j_min, WIN.j_max + 1)]
        assert [row.radius for row in rep.rows] == radii
        for row, a in zip(rep.rows, radii):
            far = (table.right <= center - a) | (table.left >= center + a)
            want = [math.fsum(terms[mask]) for mask in (table.length < a, table.length > a, far)]
            got = [row.small_scale, row.large_scale, row.far_field]
            assert [x.hex() for x in got] == [x.hex() for x in want], a


def scaled_random_haar(scale):
    b = random_haar_symbol(DEFAULT5)
    return HaarSymbol(DEFAULT5, {iv: c * scale for iv, c in b.coefficients.items()})


class TestBmoVmoFloatRange:
    """A BMO form or VMO total past the float range raises
    InvalidParameterError naming it, with no numpy warning; just inside the
    range the values keep their bits."""

    @pytest.mark.parametrize("grid", [D0, D1], ids=["standard", "shifted"])
    def test_past_the_float_range_raises(self, grid):
        b = scaled_random_haar(1e160)
        with pytest.raises(InvalidParameterError, match="VMO tail total"):
            vmo_tail_report(b, unweighted_pair(), grid, DEFAULT5)
        with pytest.raises(InvalidParameterError, match="BMO square form"):
            weighted_bmo_dyadic(b, unweighted_pair(), grid, DEFAULT5)

    @pytest.mark.parametrize(
        "grid, total, sup_average, square_form",
        [
            (D0, "0x1.7bb3dd74852ddp+1001", "0x1.17e99afc2c80ep+500", "0x1.320f04fd25de4p+1000"),
            (D1, "0x1.2a64a4bb2e608p+1002", "0x1.f19f4c6af9c92p+499", "0x1.981406a6dd286p+999"),
        ],
        ids=["standard", "shifted"],
    )
    def test_inside_the_float_range_keeps_its_bits(self, grid, total, sup_average, square_form):
        # the values of the code before the range check
        b = scaled_random_haar(1e150)
        assert vmo_tail_report(b, unweighted_pair(), grid, DEFAULT5).total.hex() == total
        rep = weighted_bmo_dyadic(b, unweighted_pair(), grid, DEFAULT5)
        assert (rep.sup_average.hex(), rep.square_form.hex()) == (sup_average, square_form)

    @pytest.mark.parametrize("grid", [D0, D1], ids=["standard", "shifted"])
    def test_square_form_is_homogeneous_near_the_range_end(self, grid):
        """The square form has degree 2 in b: its squares overflow at 1e154
        while the form, c^2 / 4 on the standard grid, does not."""
        def square(c):
            b = HaarSymbol(DEFAULT5, {DyadicInterval("standard", -2, 0): c})
            rep = weighted_bmo_dyadic(b, unweighted_pair(), grid, DEFAULT5)
            return rep.square_form, rep.argmax_square

        (small, small_at), (large, large_at) = square(1e150), square(1e154)
        assert large == pytest.approx(1e8 * small, rel=1e-12)
        assert large_at == small_at

    @pytest.mark.parametrize("grid", [D0, D1], ids=["standard", "shifted"])
    def test_square_form_is_homogeneous_in_a_small_mu(self, grid):
        """The square form has degree -1 in mu: mu^-1(I) squared overflows
        at mu = 1e-160 while the form, about 2.5e159, does not."""
        def square(mu):
            b = HaarSymbol(DEFAULT5, {DyadicInterval("standard", -2, 0): 1.0})
            pair = BloomWeight(ConstantWeight(mu), ConstantWeight(1.0))
            rep = weighted_bmo_dyadic(b, pair, grid, DEFAULT5)
            return rep.square_form, rep.argmax_square

        (large, large_at), (small, small_at) = square(1e-160), square(1e-150)
        assert large == pytest.approx(1e10 * small, rel=1e-12)
        assert large_at == small_at


class TestSharedBracket:
    @pytest.mark.parametrize("grid", [D0, D1], ids=["standard", "shifted"])
    @pytest.mark.parametrize("form", [1, 2, 3])
    def test_contributions_use_form_ratio_rows(self, grid, form):
        b = sin_symbol(WIN)
        pair = BloomWeight(PowerWeight(0.5), PowerWeight(-0.25))
        p = 1.5
        rows, _ = interval_form_ratios(pair, grid, WIN)
        rep = dyadic_besov_norm(b, pair, p, grid, WIN, form=form)
        assert len(rep.contributions) == len(rows)
        for (label, c), row in zip(rep.contributions, rows):
            assert label == row.interval.label()
            q = (row.q1, row.q2, row.q3)[form - 1]
            length = float(row.interval.length)
            bh = haar_coefficient(b, row.interval)
            assert c == pytest.approx((abs(bh) / math.sqrt(length) * q) ** p, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("form", [2, 3])
    def test_vanishing_lam_raises(self, form):
        # lam vanishes on [0, 1/2): lam(I) = 0 there, and lam^-1(I) diverges
        lam = QuadratureWeight(lambda x: np.where(x < 0.5, 0.0, 1.0), "half")
        pair = BloomWeight(ConstantWeight(1.0), lam)
        with np.errstate(divide="ignore"), pytest.raises(DyadlabError):
            dyadic_besov_norm(sin_symbol(WIN), pair, 2.0, D0, WIN, form=form)


def former_csv(pairs, id_label):
    """The CSV the former `NormReport.to_csv` wrote from its stored
    (label, contribution) list."""
    lines = [f"{id_label},contribution,cumulative"]
    running = 0.0
    for label, c in pairs:
        running += c
        lines.append(f"{label},{c:.11e},{running:.11e}")
    return ("\n".join(lines) + "\n").encode()


class TestLabelsOnRead:
    """Norm reports keep the terms and the table rows' integer columns, and
    build label strings only when they are read."""

    @pytest.fixture
    def label_calls(self, monkeypatch):
        from dyadlab import grids

        calls = []
        label = grids._label

        def counting(grid_id, j, k):
            calls.append((grid_id, j, k))
            return label(grid_id, j, k)

        monkeypatch.setattr(grids, "_label", counting)
        return calls

    def test_norms_build_no_label(self, label_calls):
        pair = BloomWeight(PowerWeight(0.5), PowerWeight(-0.25))
        b = sin_symbol(WIN)
        for form in (1, 2, 3):
            dyadic_besov_norm(b, pair, 1.5, D0, WIN, form=form)
        rep = intersection_norm(b, pair, D0, D1, WIN)
        assert label_calls == []
        want = [iv.label() for iv in enumerate_intervals(D0, WIN) + enumerate_intervals(D1, WIN)]
        label_calls.clear()
        assert rep.labels() == want
        assert len(label_calls) == len(want)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_csv_bytes_equal_to_the_former_list(self, tmp_path, p):
        pair = BloomWeight(PowerWeight(0.5), PowerWeight(-0.25))
        b = random_haar_symbol(WIN, n_terms=5, seed=4)
        rep = intersection_norm(b, pair, D0, D1, WIN, p)
        r0 = dyadic_besov_norm(b, pair, p, D0, WIN)
        r1 = dyadic_besov_norm(b, pair, p, D1, WIN)
        rows = enumerate_intervals(D0, WIN) + enumerate_intervals(D1, WIN)
        terms = r0.terms.tolist() + r1.terms.tolist()
        pairs = [(iv.label(), c) for iv, c in zip(rows, terms)]
        assert rep.contributions == pairs
        rep.to_csv(tmp_path / "norm.csv")
        assert (tmp_path / "norm.csv").read_bytes() == former_csv(pairs, "interval_id")

    def test_value_stays_assignable(self):
        rep = dyadic_besov_norm(sin_symbol(WIN), unweighted_pair(), 2.0, D0, WIN)
        before = rep.value
        rep.value *= 1.0 + 1e-9
        assert rep.value == before * (1.0 + 1e-9)


class TestArgumentRule:
    """p goes through `errors.real`: True is no p = 1 and '2' no p = 2, both
    refused with InvalidParameterError, and a numpy float or a Fraction
    gives its float twin's bits."""

    @pytest.mark.parametrize("p", [True, "2", None, math.nan, 0, -1.0], ids=repr)
    def test_p_that_is_not_a_positive_real_refused(self, p):
        window = default_window(4)
        b, flat = sin_symbol(window), ConstantWeight(1.0)
        with pytest.raises(InvalidParameterError, match=r"p must lie in \(0, inf\)"):
            dyadic_besov_norm(b, flat, p, standard_grid(), window)
        with pytest.raises(InvalidParameterError, match=r"p must lie in \(0, inf\)"):
            intersection_norm(b, flat, standard_grid(), third_shift_grid(), window, p=p)

    @pytest.mark.parametrize("p", [np.float64(1.5), Fraction(3, 2), np.float32(1.5)], ids=repr)
    def test_numpy_and_fraction_p_kept(self, p):
        window = default_window(4)
        b, pair = sin_symbol(window), BloomWeight(PowerWeight(0.25), ConstantWeight(2.0))
        got = dyadic_besov_norm(b, pair, p, standard_grid(), window, form=2)
        want = dyadic_besov_norm(b, pair, 1.5, standard_grid(), window, form=2)
        assert got.value == want.value and got.terms.tobytes() == want.terms.tobytes()
