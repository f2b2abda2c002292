import math

import numpy as np
import pytest

from dyadlab.errors import DyadlabError, InvalidConfigurationError
from dyadlab.besov import (
    _abs_deviation_integral,
    continuous_besov_norm_p2,
    dyadic_besov_norm,
    intersection_norm,
    interval_form_ratios,
    peller_energy,
    vmo_tail_report,
    weighted_bmo_dyadic,
)
from dyadlab.grids import (
    DyadicInterval,
    enumerate_intervals,
    make_window,
    standard_grid,
    third_shift_grid,
)
from dyadlab.symbols import (
    HaarSymbol,
    StepSymbol,
    haar_coefficient,
    linear_symbol,
    random_haar_symbol,
    sin_symbol,
)
from dyadlab.weights import (
    BloomWeight,
    ConstantWeight,
    PowerWeight,
    QuadratureWeight,
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
            continuous_besov_norm_p2(b, ConstantWeight(1.0), ConstantWeight(1.0), WIN)

    def test_linear_unit_square_is_one(self):
        b = linear_symbol(WIN)
        rep = continuous_besov_norm_p2(b, ConstantWeight(1.0), ConstantWeight(1.0), WIN)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.error_estimate is not None

    def test_sin_against_monte_carlo_oracle(self):
        # the near-diagonal bound is an overestimate of order Lip^2 * 1.5/N,
        # so the 1% comparison needs the fine lattice
        win = make_window(0, 1, 0, 10)
        b = sin_symbol(win)
        rep = continuous_besov_norm_p2(b, ConstantWeight(1.0), ConstantWeight(1.0), win)
        rng = np.random.default_rng(314159)
        xs = rng.uniform(0, 1, size=10**6)
        ys = rng.uniform(0, 1, size=10**6)
        num = np.sin(2 * np.pi * xs) - np.sin(2 * np.pi * ys)
        den = xs - ys
        vals = np.where(den != 0, (num / den) ** 2, (2 * np.pi) ** 2)
        mc = float(np.mean(vals))
        assert rep.value**2 == pytest.approx(mc, rel=0.01)

    def test_peller_energy_linear_closed_form(self):
        # |x - y|^(p-2) over the unit square integrates to 8/3 at p = 3/2
        b = linear_symbol(WIN)
        got = peller_energy(b, 1.5, WIN)
        assert got == pytest.approx(8.0 / 3.0, rel=5e-3)

    def test_weighted_energy_positive(self):
        b = sin_symbol(WIN)
        rep = continuous_besov_norm_p2(b, PowerWeight(0.25), PowerWeight(-0.25), WIN)
        assert rep.value > 0


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

    def test_dyadic_below_continuous_one_sided(self):
        b = sin_symbol(WIN)
        cont = continuous_besov_norm_p2(b, ConstantWeight(1.0), ConstantWeight(1.0), WIN)
        dy = dyadic_besov_norm(b, unweighted_pair(), 2.0, D0, WIN)
        assert dy.value <= 4.0 * cont.value


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

        edges = WIN.cell_edges()
        for a, c in [(0.0, 1.0), (0.25, 0.5), (0.3, 0.31), (0.1, 0.9), (-0.5, 0.2), (0.7, 1.5)]:
            assert _abs_deviation_integral(vals, edges, a, c, width) == reference(a, c), (a, c)

    def test_square_form_dominated_by_besov_form2(self):
        pair = BloomWeight(PowerWeight(0.25), PowerWeight(-0.25))
        for seed in range(20):
            b = random_haar_symbol(WIN, n_terms=5, seed=seed)
            rep = weighted_bmo_dyadic(b, pair, D0, WIN)
            besov2 = dyadic_besov_norm(b, pair, 2.0, D0, WIN, form=2)
            assert rep.square_form <= besov2.value**2 * (1 + 1e-9)


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
        rep = vmo_tail_report(b, ConstantWeight(1.0), D0, win, ladder=[2.0**-3])
        from dyadlab.symbols import haar_coefficient

        expected = 0.0
        for interval in enumerate_intervals(D0, win):
            if float(interval.length) < 2.0**-3:
                bh = haar_coefficient(b, interval)
                expected += (abs(bh) * math.sqrt(float(interval.length)) / float(interval.length)) ** 2
        assert rep.rows[0].small_scale == pytest.approx(expected, rel=1e-12)

    def test_tails_monotone_in_radius(self):
        b = random_haar_symbol(WIN, n_terms=8, seed=12)
        rep = vmo_tail_report(b, ConstantWeight(1.0), D0, WIN)
        radii = [r.radius for r in rep.rows]
        order = np.argsort(radii)
        small = [rep.rows[i].small_scale for i in order]
        far = [rep.rows[i].far_field for i in order]
        assert all(a <= b_ + 1e-15 for a, b_ in zip(small, small[1:]))
        assert all(a >= b_ - 1e-15 for a, b_ in zip(far, far[1:]))


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
