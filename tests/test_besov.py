import math

import numpy as np
import pytest

from dyadlab.errors import DyadlabError, InvalidConfigurationError, InvalidParameterError
from dyadlab.besov import (
    _abs_deviation_integrals,
    continuous_besov_norm_p2,
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
    make_window,
    standard_grid,
    third_shift_grid,
)
from dyadlab.symbols import (
    HaarSymbol,
    StepSymbol,
    haar_coefficient,
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

    def test_unweighted_energy_linear_closed_form(self):
        # |x - y|^(p-2) over the unit square integrates to 8/3 at p = 3/2
        b = linear_symbol(WIN)
        got, _, _ = continuous_energy(b, 1.5, ONE, ONE, WIN)
        assert got == pytest.approx(8.0 / 3.0, rel=5e-3)

    @pytest.mark.parametrize("j_max", [3, 5])
    def test_linear_p3_brackets_closed_form(self, j_max):
        # |x - y|^(p-2) over the unit square integrates to 1/3 at p = 3; the
        # value is an upper bound, and removing the Lipschitz mass undershoots
        win = make_window(0, 1, 0, j_max)
        value, estimate, _ = continuous_energy(linear_symbol(win), 3.0, ONE, ONE, win)
        assert value - estimate <= 1.0 / 3.0 <= value

    def test_weighted_energy_positive(self):
        b = sin_symbol(WIN)
        rep = continuous_besov_norm_p2(b, PowerWeight(0.25), PowerWeight(-0.25), WIN)
        assert rep.value > 0


ONE = ConstantWeight(1.0)


class TestContinuousBadInput:
    @pytest.mark.parametrize(
        "call",
        [
            lambda b: continuous_energy(b, 1.0, ONE, ONE, WIN),  # 0 / 0 in the bound
            lambda b: continuous_energy(b, 0.5, ONE, ONE, WIN),
            lambda b: continuous_energy(b, math.nan, ONE, ONE, WIN),
            lambda b: continuous_energy(b, math.inf, ONE, ONE, WIN),
        ],
        ids=["p=1", "p=0.5", "p=nan", "p=inf"],
    )
    def test_rejected(self, call):
        with pytest.raises(InvalidParameterError):
            call(linear_symbol(WIN))


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
        cont = continuous_besov_norm_p2(b, ConstantWeight(1.0), ConstantWeight(1.0), WIN)
        dy = dyadic_besov_norm(b, unweighted_pair(), 2.0, D0, WIN)
        assert dy.value <= 4.0 * cont.value


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"center": math.nan}, "NaN"),
            ({"ladder": [0.25, math.nan]}, "NaN"),
            ({"center": math.inf}, "not finite"),
            ({"center": -math.inf}, "not finite"),
            ({"ladder": [-1.0]}, "not positive"),
            ({"ladder": [0.25, 0.0]}, "not positive"),
            ({"ladder": [math.inf]}, "not positive and finite"),
        ],
        ids=["nan-center", "nan-radius", "inf-center", "-inf-center", "negative-radius", "zero-radius", "inf-radius"],
    )
    def test_bad_center_or_radius_rejected(self, kwargs, message):
        b = random_haar_symbol(WIN, n_terms=8, seed=12)
        with pytest.raises(InvalidParameterError, match=message):
            vmo_tail_report(b, ConstantWeight(1.0), D0, WIN, **kwargs)


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


# Reference copy of the former continuous energy: the near-diagonal half-cell
# pairs visited one at a time, touching decided on float endpoints, and the
# Lipschitz bound taken from scalar `eval` and `integral` calls.
def old_continuous_energy(b, p, lam, mu, window, nodes=4):
    lip = float(b.lipschitz)
    n = window.n_cells
    width = float(window.cell_width)
    edges = window.cell_edges()
    mu_inv = mu.inv()
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * width
    centers = window.cell_midpoints()
    xs = (centers[:, None] + half * gx[None, :]).ravel()
    ws = np.tile(0.5 * width * gw, n)
    fx = np.asarray(b.eval(xs), dtype=float)
    lam_x = np.asarray(lam.eval(xs), dtype=float) * ws
    mu_y = np.asarray(mu_inv.eval(xs), dtype=float) * ws
    per_cell = np.zeros(n)
    block = max(1, 262144 // (n * nodes) + 1)
    cell_of = np.repeat(np.arange(n), nodes)
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        r0, r1 = i0 * nodes, i1 * nodes
        dx = xs[r0:r1, None] - xs[None, :]
        df = np.abs(fx[r0:r1, None] - fx[None, :])
        cells_r = cell_of[r0:r1]
        sep = np.abs(cells_r[:, None] - cell_of[None, :]) >= 2
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(sep, df**p / (dx * dx), 0.0)
        contrib = integrand * lam_x[r0:r1, None] * mu_y[None, :]
        per_cell[i0:i1] += np.add.reduceat(contrib.sum(axis=1), np.arange(0, (i1 - i0) * nodes, nodes))
    lip_mass = 0.0
    for i in range(n):
        for j in (i - 1, i, i + 1):
            if j < 0 or j >= n:
                continue
            for hx in range(2):
                ax = edges[i] + hx * half
                bx = ax + half
                for hy in range(2):
                    ay = edges[j] + hy * half
                    by = ay + half
                    touching = not (bx <= ay or by <= ax) or bx == ay or by == ax
                    if touching:
                        c = old_lip_bound(lip, p, lam, mu_inv, ax, bx, ay, by)
                        lip_mass += c
                        per_cell[i] += c
                    else:
                        xm = 0.5 * (ax + bx) + 0.25 * width * gx
                        ym = 0.5 * (ay + by) + 0.25 * width * gx
                        wq = 0.25 * width * gw
                        dxh = xm[:, None] - ym[None, :]
                        dfh = np.abs(
                            np.asarray(b.eval(xm))[:, None] - np.asarray(b.eval(ym))[None, :]
                        )
                        integ = dfh**p / (dxh * dxh)
                        c = float(
                            np.sum(
                                integ
                                * (np.asarray(lam.eval(xm)) * wq)[:, None]
                                * (np.asarray(mu_inv.eval(ym)) * wq)[None, :]
                            )
                        )
                        per_cell[i] += c
    return float(np.sum(per_cell)), lip_mass, per_cell


def old_lip_bound(lip, p, lam, mu_inv, ax, bx, ay, by):
    if p == 2.0:
        return lip**2 * lam.integral(ax, bx) * mu_inv.integral(ay, by)
    if p > 2.0:
        diam = max(bx, by) - min(ax, ay)
        return lip**p * diam ** (p - 2.0) * lam.integral(ax, bx) * mu_inv.integral(ay, by)
    lam_val = lam.eval(0.5 * (ax + bx))
    mu_val = mu_inv.eval(0.5 * (ay + by))

    def prim(t):
        return abs(t) ** p / (p * (p - 1.0))

    box = prim(bx - ay) - prim(ax - ay) - prim(bx - by) + prim(ax - by)
    return lip**p * float(lam_val) * float(mu_val) * box


ENERGY_WEIGHTS = {
    "constant": (ConstantWeight(2.0), ConstantWeight(0.3)),
    "power": (PowerWeight(-0.3, 1.0 / 3.0), PowerWeight(0.5, 1.0 / 3.0)),
    # distinct centres, so each product is a quadrature weight
    "quadrature": (
        product_weight(PowerWeight(0.25, 0.25), PowerWeight(-0.2)),
        product_weight(PowerWeight(0.3), PowerWeight(-0.15, 0.6)),
    ),
}
ENERGY_CASES = [
    pytest.param(kind, p, id=f"{kind}-p={p:g}")
    for kind in ENERGY_WEIGHTS
    for p in ((1.5, 2.0, 3.0) if kind == "constant" else (2.0, 3.0))
]


class TestContinuousEnergyArrays:
    @pytest.mark.parametrize("window", [make_window(-1, 2, 0, 3), default_window(5)], ids=["N=24", "N=256"])
    @pytest.mark.parametrize(
        "make", [sin_symbol, parabola_symbol, ramp_bump_symbol, quartic_bump_symbol, linear_symbol],
        ids=["sin", "parabola", "ramp_bump", "quartic_bump", "linear"],
    )
    @pytest.mark.parametrize("kind, p", ENERGY_CASES)
    def test_bit_equal_to_scalar_loop(self, kind, p, make, window):
        b = make(window)
        lam, mu = ENERGY_WEIGHTS[kind]
        value, estimate, per_cell = continuous_energy(b, p, lam, mu, window)
        old_value, old_estimate, old_per_cell = old_continuous_energy(b, p, lam, mu, window)
        assert value.hex() == old_value.hex()
        assert estimate.hex() == old_estimate.hex()
        assert per_cell.tobytes() == old_per_cell.tobytes()


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

    def test_continuous_csv_labels_cells(self, tmp_path):
        b = sin_symbol(WIN)
        rep = continuous_besov_norm_p2(b, ConstantWeight(1.0), ConstantWeight(1.0), WIN)
        _, _, per_cell = continuous_energy(b, 2.0, ConstantWeight(1.0), ConstantWeight(1.0), WIN)
        pairs = [(f"xcell_{i}", float(v)) for i, v in enumerate(per_cell)]
        assert rep.contributions == pairs
        rep.to_csv(tmp_path / "cont.csv")
        assert (tmp_path / "cont.csv").read_bytes() == former_csv(pairs, "pair_id")

    def test_value_stays_assignable(self):
        rep = dyadic_besov_norm(sin_symbol(WIN), unweighted_pair(), 2.0, D0, WIN)
        before = rep.value
        rep.value *= 1.0 + 1e-9
        assert rep.value == before * (1.0 + 1e-9)
