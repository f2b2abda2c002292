import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import operators, symbols
from dyadlab.errors import (
    DegenerateWeightError,
    InvalidConfigurationError,
    InvalidMatrixError,
    InvalidParameterError,
)
from dyadlab.grids import (
    DyadicInterval,
    IntervalTable,
    default_window,
    enumerate_intervals,
    make_window,
    standard_grid,
    third_shift_grid,
)
from dyadlab.operators import (
    OperatorMatrix,
    expansion_residual,
    haar_multiplier_matrix,
    haar_shift_matrix,
    hilbert_matrix,
    hilbert_primitive,
    multiplication_commutator,
    paraproduct_matrix,
    weight_conjugate,
)
from dyadlab.symbols import (
    HaarSymbol,
    StepSymbol,
    haar_coefficient,
    haar_coefficients,
    linear_symbol,
    quartic_bump_symbol,
    random_haar_symbol,
    sin_symbol,
)
from dyadlab.weights import (
    ConstantWeight,
    PowerWeight,
    QuadratureWeight,
    pathological_weight,
)

WIN = make_window(0, 1, 0, 5)
D0 = standard_grid()
# one weight of each kind; the non-constant ones vary on the cell holding 1/3
WEIGHT_KINDS = [
    pytest.param(ConstantWeight(2.5), id="constant"),
    pytest.param(PowerWeight(0.25), id="power"),
    pytest.param(pathological_weight(2.0, 3, 9.0), id="spiked"),
    pytest.param(
        QuadratureWeight(lambda x: 1.0 + np.abs(x - 1.0 / 3.0) ** 0.5, "1+|x-1/3|^0.5"),
        id="quadrature",
    ),
]


def haar_fn_coeffs(interval, window):
    """Unit coefficient vector of h_I in orthonormal cell coordinates."""
    from dyadlab.grids import haar_cell_values

    return haar_cell_values(interval, window) * math.sqrt(float(window.cell_width))


def resolvable(window):
    """The window's table of resolvable rows, which every builder reads."""
    return operators._resolvable_rows(D0, window, "test assembly")


def shift_rows(window):
    """The resolvable rows whose children hold a Haar pair, which the shift
    and the remainder read."""
    return operators._through_scale(resolvable(window), window.j_max - 2)


def dense_remainder(b, window, form):
    """The shift remainder of form "displayed" or "derived", written densely."""
    rows = resolvable(window)
    terms = operators._remainder(rows, haar_coefficients(b, rows), window, *operators._REMAINDERS[form])
    return operators._haar_sum(terms, window)


class TestParaproduct:
    def test_single_coefficient_maps_indicator_to_haar(self):
        target = DyadicInterval("standard", 1, 0)
        b = HaarSymbol(WIN, {target: 1.0})
        pi = paraproduct_matrix(b, D0, WIN)
        # f = indicator of the target interval, in cell coordinates
        width = math.sqrt(float(WIN.cell_width))
        i0, i1 = WIN.cell_slice(target)
        f = np.zeros(WIN.n_cells)
        f[i0:i1] = width
        out = pi.mat @ f
        assert np.allclose(out, haar_fn_coeffs(target, WIN), atol=1e-13)

    def test_constant_symbol_zero_matrix(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 9.0))
        pi = paraproduct_matrix(b, D0, WIN)
        assert np.allclose(pi.mat, 0.0, atol=1e-12)

    def test_rejects_shifted_grid(self):
        b = sin_symbol(WIN)
        with pytest.raises(InvalidConfigurationError):
            paraproduct_matrix(b, third_shift_grid(), WIN)

    def test_frobenius_matches_flat_besov_form(self):
        # at p=2 with flat weights the Schatten mass is the coefficient sum
        from dyadlab.besov import dyadic_besov_norm
        from dyadlab.weights import unweighted_pair

        b = random_haar_symbol(WIN, n_terms=6, seed=2)
        pi = paraproduct_matrix(b, D0, WIN)
        norm = dyadic_besov_norm(b, unweighted_pair(), 2.0, D0, WIN)
        assert np.linalg.norm(pi.mat) == pytest.approx(norm.value, rel=1e-10)


class TestHaarMultiplier:
    def test_all_plus_is_identity(self):
        t = haar_multiplier_matrix(1, D0, WIN)
        assert np.allclose(t.mat, np.eye(WIN.n_cells), atol=1e-12)

    def test_all_minus_negates_haar_span(self):
        t = haar_multiplier_matrix(-1, D0, WIN)
        interval = DyadicInterval("standard", 2, 3)
        h = haar_fn_coeffs(interval, WIN)
        assert np.allclose(t.mat @ h, -h, atol=1e-12)
        # coarse averages stay fixed
        for v in old_coarse_unit_vectors(WIN):
            assert np.allclose(t.mat @ v, v, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(3)
        signs = {
            interval: int(rng.choice([-1, 1]))
            for interval in enumerate_intervals(D0, WIN)
        }
        t = haar_multiplier_matrix(lambda iv: signs[iv], D0, WIN)
        assert np.allclose(t.mat @ t.mat, np.eye(WIN.n_cells), atol=1e-12)

    def test_invalid_sign_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            haar_multiplier_matrix(0, D0, WIN)


class TestShift:
    def test_display_rule_unit_interval(self):
        s = haar_shift_matrix(D0, WIN)
        top = DyadicInterval("standard", 0, 0)
        lc, rc = top.left_child, top.right_child
        got = s.mat @ haar_fn_coeffs(top, WIN)
        want = (haar_fn_coeffs(lc, WIN) - haar_fn_coeffs(rc, WIN)) / math.sqrt(2)
        assert np.allclose(got, want, atol=1e-13)

    def test_preserves_norm_on_admissible_haars(self):
        s = haar_shift_matrix(D0, WIN)
        for interval in enumerate_intervals(D0, WIN):
            if interval.j > WIN.j_max - 2:
                continue
            out = s.mat @ haar_fn_coeffs(interval, WIN)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_deepest_scale_truncated_to_zero(self):
        s = haar_shift_matrix(D0, WIN)
        deepest = DyadicInterval("standard", WIN.j_max - 1, 0)
        out = s.mat @ haar_fn_coeffs(deepest, WIN)
        assert np.allclose(out, 0.0, atol=1e-13)


class TestHilbert:
    def test_adjacent_unit_cells_value(self):
        w = make_window(0, 2, 0, 0)  # impossible: needs j_min <= j_max and 2 cells
        # use explicit primitive instead: box integral over [0,1) x [1,2)
        g = hilbert_primitive
        box = g(1.0 - 1.0) - g(0.0 - 1.0) - g(1.0 - 2.0) + g(0.0 - 2.0)
        assert box == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)

    def test_adjacent_cells_in_matrix(self):
        win = make_window(0, 4, 0, 0)
        h = hilbert_matrix(win)
        # cells are unit length; entry (0, 1) is the box integral itself
        assert h.mat[0, 1] == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)
        assert h.mat[1, 0] == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_antisymmetry_and_zero_diagonal(self):
        h = hilbert_matrix(WIN)
        assert np.allclose(h.mat, -h.mat.T, atol=1e-11)
        assert np.all(np.diag(h.mat) == 0.0)

    def test_entries_match_monte_carlo_on_separated_pairs(self):
        # MC oracle has finite variance only for cell pairs with a gap
        win = make_window(0, 1, 0, 4)
        h = hilbert_matrix(win)
        edges = win.cell_edges()
        width = float(win.cell_width)
        rng = np.random.default_rng(2718)
        pairs = set()
        while len(pairs) < 20:
            i, j = rng.integers(0, win.n_cells, size=2)
            if abs(int(i) - int(j)) >= 2:
                pairs.add((int(i), int(j)))
        for i, j in sorted(pairs):
            xs = rng.uniform(edges[i], edges[i + 1], size=10**5)
            ys = rng.uniform(edges[j], edges[j + 1], size=10**5)
            samples = 1.0 / (xs - ys)
            mc = samples.mean() * width**2
            se = samples.std(ddof=1) / math.sqrt(len(samples)) * width**2
            assert abs(h.mat[i, j] * width - mc) <= 3.0 * se


class TestWeightConjugation:
    def test_flat_weights_noop(self):
        b = random_haar_symbol(WIN, n_terms=4, seed=5)
        pi = paraproduct_matrix(b, D0, WIN)
        conj = weight_conjugate(pi, ConstantWeight(1.0), ConstantWeight(1.0))
        assert np.array_equal(conj.mat, pi.mat)

    def test_multiplier_unitarity_surrogate(self):
        # conjugation by sqrt of the cell averages preserves the weighted norm
        lam = PowerWeight(0.25)
        avg = lam.cell_averages(WIN)
        rng = np.random.default_rng(6)
        f = rng.normal(size=WIN.n_cells)
        weighted = float(np.sum(f * f * avg) * float(WIN.cell_width))
        lifted = np.sqrt(avg) * f
        plain = float(np.sum(lifted * lifted) * float(WIN.cell_width))
        assert plain == pytest.approx(weighted, rel=1e-12)

    def test_double_conjugation_recovers(self):
        b = random_haar_symbol(WIN, n_terms=4, seed=7)
        pi = paraproduct_matrix(b, D0, WIN)
        lam, mu = PowerWeight(0.25), PowerWeight(-0.25)
        once = weight_conjugate(pi, lam, mu)
        back = weight_conjugate(once, lam.inv(), mu.inv())
        assert np.allclose(back.mat, pi.mat, atol=1e-12)

    @pytest.mark.parametrize("w", WEIGHT_KINDS)
    def test_inverse_is_exact_dual_for_every_kind(self, w):
        b = random_haar_symbol(WIN, n_terms=4, seed=7)
        pi = paraproduct_matrix(b, D0, WIN)
        lam, mu = w, w.power(0.5)
        once = weight_conjugate(pi, lam, mu)
        back = weight_conjugate(once, lam.inv(), mu.inv())
        assert np.allclose(back.mat, pi.mat, atol=1e-12)
        assert lam.inv().inv() is lam
        assert mu.inv().inv() is mu
        # the dual still evaluates and averages as the true pointwise inverse
        dual_avg = w.inv().cell_averages(WIN)
        assert np.allclose(dual_avg, w.power(-1.0).cell_averages(WIN), rtol=1e-13)
        jensen = w.cell_averages(WIN) * dual_avg
        if isinstance(w, ConstantWeight):
            assert np.allclose(jensen, 1.0, rtol=1e-14)
        else:
            assert jensen.max() > 1.0
            assert jensen[WIN.n_cells // 3] > 1.0

    def test_dual_differs_from_directly_built_inverse(self):
        direct = PowerWeight(-0.25)
        dual = PowerWeight(0.25).inv()
        assert dual.integral(0.3, 0.4) == direct.integral(0.3, 0.4)
        assert dual != direct
        assert np.array_equal(dual.cell_averages(WIN), direct.cell_averages(WIN))
        assert not np.allclose(
            dual.cell_discretization(WIN), direct.cell_discretization(WIN), rtol=1e-6
        )

    def test_conjugated_adjoint_has_the_same_spectrum(self):
        # T: L2(mu) -> L2(lam) and its adjoint T*: L2(lam^-1) -> L2(mu^-1)
        b = random_haar_symbol(WIN, n_terms=4, seed=7)
        pi = paraproduct_matrix(b, D0, WIN)
        adj = OperatorMatrix(pi.mat.T, WIN, name="paraproduct_adjoint")
        lam, mu = PowerWeight(0.25), PowerWeight(-0.5)
        s = np.linalg.svd(weight_conjugate(pi, lam, mu).mat, compute_uv=False)
        s_adj = np.linalg.svd(
            weight_conjugate(adj, mu.inv(), lam.inv()).mat, compute_uv=False
        )
        assert s[0] > 0
        assert np.allclose(s_adj, s, rtol=0.0, atol=1e-12 * s[0])

    def test_degenerate_weight_rejected(self):
        class ZeroWeight(ConstantWeight):
            def cell_averages(self, window):
                return np.zeros(window.n_cells)

        b = random_haar_symbol(WIN, n_terms=2, seed=8)
        pi = paraproduct_matrix(b, D0, WIN)
        with pytest.raises(DegenerateWeightError):
            weight_conjugate(pi, ZeroWeight(1.0), ConstantWeight(1.0))


class TestCommutatorAlgebra:
    def test_constant_symbol_commutes_with_multiplier(self):
        b = StepSymbol(WIN, np.full(WIN.n_cells, 3.0))
        t = haar_multiplier_matrix(1, D0, WIN)
        c = multiplication_commutator(b, t)
        assert np.all(c.mat == 0.0)

    def test_kernel_identity_weighted_hilbert_commutator(self):
        # conjugated commutator entries equal the direct cell formula exactly
        win = make_window(0, 1, 0, 5)
        b = sin_symbol(win)
        lam, mu = PowerWeight(0.25), PowerWeight(-0.5)
        h = hilbert_matrix(win)
        comm = multiplication_commutator(b, h)
        conj = weight_conjugate(comm, lam, mu)
        vals = b.cell_values()
        lam_avg = lam.cell_averages(win)
        mu_avg = mu.cell_averages(win)
        edges = win.cell_edges()
        width = float(win.cell_width)
        g = hilbert_primitive(edges[:, None] - edges[None, :])
        box = g[1:, :-1] - g[:-1, :-1] - g[1:, 1:] + g[:-1, 1:]
        np.fill_diagonal(box, 0.0)
        direct = (
            (vals[:, None] - vals[None, :])
            * np.sqrt(lam_avg[:, None] / mu_avg[None, :])
            * box
            / width
        )
        assert np.allclose(conj.mat, direct, rtol=1e-12, atol=1e-14)

    def test_shift_expansion_closes_with_derived_remainder(self):
        win = make_window(-4, 4, 0, 6)
        b = random_haar_symbol(win, n_terms=6, seed=3)
        res = expansion_residual(b, D0, win, kind="shift", remainder="derived")
        assert res.operator_norm <= 1e-12 * max(1.0, res.lhs_norm)

    def test_multiplier_expansion_closes(self):
        win = make_window(-4, 4, 0, 6)
        b = random_haar_symbol(win, n_terms=6, seed=4)
        signs = {
            interval: (1 if (interval.k + interval.j) % 2 == 0 else -1)
            for interval in enumerate_intervals(D0, win)
        }
        res = expansion_residual(
            b, D0, win, kind="multiplier", signs=lambda iv: signs[iv]
        )
        assert res.operator_norm <= 1e-12 * max(1.0, res.lhs_norm)

    def test_displayed_remainder_residual_reproducible(self):
        win = make_window(-4, 4, 0, 6)
        b = sin_symbol(win)
        r1 = expansion_residual(b, D0, win, kind="shift", remainder="displayed")
        r2 = expansion_residual(b, D0, win, kind="shift", remainder="displayed")
        assert r1.frobenius_norm == r2.frobenius_norm
        assert r1.frobenius_norm > 0.1  # the displayed form differs, measurably

    @pytest.mark.parametrize(
        "kind, remainder", [("shift", "displayed"), ("shift", "derived"), ("multiplier", None)]
    )
    def test_residual_matches_four_product_formula(self, kind, remainder):
        win = make_window(-1, 1, 0, 5)
        b = sin_symbol(win)
        signs = lambda iv: 1 if (iv.k + iv.j) % 2 == 0 else -1  # noqa: E731
        pi = paraproduct_matrix(b, D0, win).mat
        if kind == "shift":
            t = haar_shift_matrix(D0, win).mat
            rem = dense_remainder(b, win, remainder)
        else:
            t = haar_multiplier_matrix(signs, D0, win).mat
            rem = 0.0
        four = pi @ t - t @ pi + pi.T @ t - t @ pi.T
        mult = np.diag(b.cell_values())
        lhs = mult @ t - t @ mult
        i0, i1 = win.slice_of(0.0, 1.0)
        restricted = (lhs - four - rem)[:, i0:i1]
        res = expansion_residual(
            b, D0, win, kind=kind, signs=signs, remainder=remainder or "displayed"
        )
        assert res.lhs_norm == float(np.linalg.norm(lhs[:, i0:i1]))
        tol = 1e-13 * res.lhs_norm
        assert abs(res.operator_norm - np.linalg.norm(restricted, 2)) <= tol
        assert abs(res.frobenius_norm - np.linalg.norm(restricted)) <= tol

    def test_multiplier_boundedness_surrogate(self):
        # largest singular value of the conjugated sign multiplier stays small
        # over random sign patterns for each battery weight
        win = make_window(0, 1, 0, 5)
        rng = np.random.default_rng(11)
        for w in (ConstantWeight(1.0), PowerWeight(0.25), PowerWeight(-0.5)):
            worst = 0.0
            for _ in range(5):
                signs = {
                    interval: int(rng.choice([-1, 1]))
                    for interval in enumerate_intervals(D0, win)
                }
                t = haar_multiplier_matrix(lambda iv: signs[iv], D0, win)
                conj = weight_conjugate(t, w, w)
                worst = max(worst, float(np.linalg.svd(conj.mat, compute_uv=False)[0]))
            assert worst < 50.0


class TestFiniteEntries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_raises(self, bad):
        mat = np.zeros((WIN.n_cells, WIN.n_cells))
        mat[2, 5] = bad
        with pytest.raises(InvalidMatrixError):
            OperatorMatrix(mat, WIN)

    def test_overflowing_conjugation_raises(self):
        t = OperatorMatrix(np.full((WIN.n_cells, WIN.n_cells), 1e300), WIN)
        with pytest.raises(InvalidMatrixError):
            weight_conjugate(t, ConstantWeight(1e100), ConstantWeight(1e-100))

    @pytest.mark.parametrize(
        "operand", [hilbert_matrix, lambda w: haar_shift_matrix(D0, w)], ids=["H", "shift"]
    )
    def test_overflowing_commutator_raises(self, operand):
        """Cells alternating +-1e308 differ by +-inf; H and the shift (whose
        zeros turn inf into NaN) leave non-finite entries, which raise
        InvalidMatrixError under the error warning filter, both on reading
        `.mat` and on conjugating."""
        window = default_window(4)
        b = StepSymbol(window, np.tile([1e308, -1e308], window.n_cells // 2))
        comm = multiplication_commutator(b, operand(window))
        with pytest.raises(InvalidMatrixError, match=r"\[mult,"):
            comm.mat
        with pytest.raises(InvalidMatrixError, match=r"conj\(\[mult,"):
            weight_conjugate(comm, ConstantWeight(1.0), ConstantWeight(1.0))

    def test_mismatched_windows_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="symbol has 64 cells, operand hilbert has 128"):
            multiplication_commutator(sin_symbol(default_window(3)), hilbert_matrix(default_window(4)))

    def test_same_count_other_cells_rejected(self):
        """[-4, 4) and [0, 4) at 2^-6 and 2^-7 both have 512 cells, and a
        random Haar symbol is one function on either; its cell values are
        not the other window's, so both readers refuse them.  A window that
        differs only in j_min has the same cells."""
        w1, w2 = default_window(6), make_window(0, 4, 0, 7)
        b1 = random_haar_symbol(w1, seed=0)
        lattices = r"\[-4, 4\) of width 2\^-6 are not the cells \[0, 4\) of width 2\^-7"
        with pytest.raises(InvalidConfigurationError, match=lattices + " of operand hilbert"):
            multiplication_commutator(b1, hilbert_matrix(w2))
        for kind in ("shift", "multiplier"):
            with pytest.raises(InvalidConfigurationError, match=lattices + " of the window"):
                expansion_residual(b1, D0, w2, kind=kind, signs=1)
        same_cells = make_window(-4, 4, 0, 6)
        comm = multiplication_commutator(b1, hilbert_matrix(same_cells))
        assert np.array_equal(comm.mat, multiplication_commutator(b1, hilbert_matrix(w1)).mat)


# Reference copies of the former dense assembly: every Haar function as a full
# N-vector, every cell range from exact Fraction endpoints.
def old_haar_unit_vector(interval, window):
    i0, i1 = window.slice_of(interval.left, interval.right)
    m0, _ = window.slice_of(interval.right_child.left, interval.right_child.right)
    v = np.zeros(window.n_cells)
    amp = 1.0 / math.sqrt(i1 - i0)
    v[i0:m0] = amp
    v[m0:i1] = -amp
    return v


def old_scales(window, max_scale):
    return [iv for iv in enumerate_intervals(D0, window) if iv.j <= max_scale]


def old_coarse_unit_vectors(window):
    out = []
    for interval in enumerate_intervals(D0, window):
        if interval.j != window.j_min:
            continue
        i0, i1 = window.slice_of(interval.left, interval.right)
        v = np.zeros(window.n_cells)
        v[i0:i1] = 1.0 / math.sqrt(i1 - i0)
        out.append(v)
    return out


def old_paraproduct(b, window):
    n = window.n_cells
    width = float(window.cell_width)
    mat = np.zeros((n, n))
    for interval in old_scales(window, window.j_max - 1):
        bh = haar_coefficient(b, interval)
        if bh == 0.0:
            continue
        i0, i1 = window.slice_of(interval.left, interval.right)
        m0, _ = window.slice_of(interval.right_child.left, interval.right_child.right)
        length = float(interval.length)
        amp = 1.0 / math.sqrt(length)
        col = math.sqrt(width) / length
        row_top = amp * math.sqrt(width)
        mat[i0:m0, i0:i1] += bh * row_top * col
        mat[m0:i1, i0:i1] -= bh * row_top * col
    return mat


def old_multiplier(sign_of, window):
    n = window.n_cells
    mat = np.zeros((n, n))
    for interval in old_scales(window, window.j_max - 1):
        h = old_haar_unit_vector(interval, window)
        i0, i1 = window.slice_of(interval.left, interval.right)
        mat[i0:i1, i0:i1] += sign_of(interval) * np.outer(h[i0:i1], h[i0:i1])
    for v in old_coarse_unit_vectors(window):
        nz = np.nonzero(v)[0]
        mat[np.ix_(nz, nz)] += np.outer(v[nz], v[nz])
    return mat


def old_shift(window):
    n = window.n_cells
    mat = np.zeros((n, n))
    for interval in old_scales(window, window.j_max - 2):
        h = old_haar_unit_vector(interval, window)
        lc, rc = interval.left_child, interval.right_child
        out = (old_haar_unit_vector(lc, window) - old_haar_unit_vector(rc, window)) / math.sqrt(2.0)
        i0, i1 = window.slice_of(interval.left, interval.right)
        mat[i0:i1, i0:i1] += np.outer(out[i0:i1], h[i0:i1])
    return mat


def old_k_vector(interval, window):
    lc, rc = interval.left_child, interval.right_child
    return old_haar_unit_vector(rc, window) - old_haar_unit_vector(lc, window)


def old_remainder(b, window, derived):
    n = window.n_cells
    mat = np.zeros((n, n))
    for interval in old_scales(window, window.j_max - 2):
        bh = haar_coefficient(b, interval)
        if bh == 0.0:
            continue
        lc, rc = interval.left_child, interval.right_child
        if derived:
            out = old_haar_unit_vector(lc, window) + old_haar_unit_vector(rc, window)
            coeff = bh / math.sqrt(2.0 * float(interval.length))
        else:
            out = old_k_vector(interval, window)
            coeff = bh / math.sqrt(float(interval.length))
        h = old_haar_unit_vector(interval, window)
        i0, i1 = window.slice_of(interval.left, interval.right)
        mat[i0:i1, i0:i1] += coeff * np.outer(out[i0:i1], h[i0:i1])
    return mat


def dense_hilbert(window):
    edges = window.cell_edges()
    g = hilbert_primitive(edges[:, None] - edges[None, :])
    mat = (g[1:, :-1] - g[:-1, :-1] - g[1:, 1:] + g[:-1, 1:]) / float(window.cell_width)
    np.fill_diagonal(mat, 0.0)
    return mat


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_residual_close(res, restricted, lhs):
    """`lhs_norm` keeps its bits; the residual's norms agree with the dense
    products within 1e-14 max(1, lhs_norm).  A closing identity's residual is
    a sum of rounding errors, and the summation order of the dense products
    is not part of the expansion's definition."""
    assert res.lhs_norm.hex() == float(np.linalg.norm(lhs)).hex()
    tol = 1e-14 * max(1.0, res.lhs_norm)
    assert abs(res.operator_norm - float(np.linalg.svd(restricted, compute_uv=False)[0])) <= tol
    assert abs(res.frobenius_norm - float(np.linalg.norm(restricted))) <= tol


def checkerboard(interval):
    return 1 if (interval.j + interval.k) % 2 == 0 else -1


def coarsest_blocks(window, region):
    """The window of the coarsest intervals that the region meets, and its
    first and end cell in `window`."""
    coarse = Fraction(2) ** -window.j_min
    lo = math.floor(Fraction(region[0]) / coarse) * coarse
    hi = math.ceil(Fraction(region[1]) / coarse) * coarse
    return (make_window(lo, hi, window.j_min, window.j_max), *window.slice_of(lo, hi))


STRUCTURE_WINDOWS = [
    pytest.param(make_window(-4, 4, -2, 6), id="j_min=-2"),
    pytest.param(make_window(-3, -1, 0, 6), id="negative_lo"),
    pytest.param(make_window(2, 4, 1, 6), id="lo=2"),
    # empty Haar row tables: no remainder or shift scale, and no Haar scale at all
    pytest.param(make_window(0, 1, 0, 1), id="two-scales"),
    pytest.param(make_window(0, 4, 0, 0), id="one-scale"),
]


def structure_symbols(window):
    rng = np.random.default_rng(17)
    return [
        sin_symbol(window),
        linear_symbol(window),
        StepSymbol(window, rng.normal(size=window.n_cells)),
    ]


class TestStructuredAssembly:
    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_haar_operators_bit_equal_to_dense_builders(self, window):
        assert_bits_equal(haar_shift_matrix(D0, window).mat, old_shift(window))
        for signs, sign_of in ((1, lambda iv: 1), (-1, lambda iv: -1), (checkerboard, checkerboard)):
            assert_bits_equal(haar_multiplier_matrix(signs, D0, window).mat, old_multiplier(sign_of, window))
        pattern = {iv: checkerboard(iv) for iv in enumerate_intervals(D0, window)}
        assert_bits_equal(haar_multiplier_matrix(pattern, D0, window).mat, old_multiplier(checkerboard, window))

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_symbol_operators_bit_equal_to_dense_builders(self, window):
        for b in structure_symbols(window):
            assert_bits_equal(paraproduct_matrix(b, D0, window).mat, old_paraproduct(b, window))
            assert_bits_equal(dense_remainder(b, window, "displayed"), old_remainder(b, window, False))
            assert_bits_equal(dense_remainder(b, window, "derived"), old_remainder(b, window, True))

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    @pytest.mark.parametrize("kind, remainder", [("shift", "displayed"), ("shift", "derived"), ("multiplier", "displayed")])
    def test_residual_close_to_matrix_products(self, window, kind, remainder):
        """Every field agrees with the dense products on the coarsest intervals
        the region meets, restricted to the region's columns: `lhs_norm` bit
        for bit, the residual's norms to rounding."""
        region = (float(window.lo), float(window.lo) + 1.0)
        sub, c0, c1 = coarsest_blocks(window, region)
        for b in structure_symbols(window):
            pi = old_paraproduct(b, sub)
            if kind == "shift":
                t = old_shift(sub)
                rem = old_remainder(b, sub, remainder == "derived")
            else:
                t = old_multiplier(checkerboard, sub)
            sym = pi + pi.T
            rhs = sym @ t - t @ sym
            if kind == "shift":
                rhs += rem
            mult = np.diag(b.cell_values()[c0:c1])
            lhs = mult @ t - t @ mult
            i0, i1 = sub.slice_of(*region)
            restricted = (lhs - rhs)[:, i0:i1]
            res = expansion_residual(
                b, D0, window, kind=kind, signs=checkerboard, region=region, remainder=remainder
            )
            assert_residual_close(res, restricted, lhs[:, i0:i1])

    @pytest.mark.parametrize("region", [(0.0, 1.0), (-1.0, 2.0), (3.5, 4.0)])
    @pytest.mark.parametrize("kind, remainder", [("shift", "displayed"), ("shift", "derived"), ("multiplier", "displayed")])
    def test_interior_region_close_to_full_products(self, kind, remainder, region):
        """Regions away from window.lo: every field agrees
        with the dense residual on the coarsest intervals the region meets,
        restricted to the region's columns (`lhs_norm` bit for bit)."""
        window = make_window(-4, 4, -2, 5)
        sub, c0, c1 = coarsest_blocks(window, region)
        i0, i1 = sub.slice_of(*region)
        for b in structure_symbols(window):
            pi = old_paraproduct(b, sub)
            t = old_shift(sub) if kind == "shift" else old_multiplier(checkerboard, sub)
            sym = pi + pi.T
            rhs = sym @ t - t @ sym
            if kind == "shift":
                rhs += old_remainder(b, sub, remainder == "derived")
            mult = np.diag(b.cell_values()[c0:c1])
            lhs = mult @ t - t @ mult
            restricted = (lhs - rhs)[:, i0:i1]
            res = expansion_residual(
                b, D0, window, kind=kind, signs=checkerboard, region=region, remainder=remainder
            )
            assert_residual_close(res, restricted, lhs[:, i0:i1])

    @pytest.mark.parametrize("kind", ["shift", "multiplier"])
    def test_expansion_reads_each_coefficient_once(self, kind, monkeypatch):
        window = make_window(-4, 4, -2, 6)
        # the region [0, 1) meets the coarsest interval [0, 4) only
        rows = old_scales(make_window(0, 4, -2, 6), window.j_max - 1)
        resolvable = len(rows)
        scalar_calls, tables = [], []
        scalar, table_path = symbols.haar_coefficient, symbols.haar_coefficients

        def counted_scalar(b, interval):
            scalar_calls.append(interval)
            return scalar(b, interval)

        def counted_table(b, table):
            tables.append(len(table))
            return table_path(b, table)

        monkeypatch.setattr(symbols, "haar_coefficient", counted_scalar)
        monkeypatch.setattr(operators, "haar_coefficients", counted_table)
        for b in structure_symbols(window):
            scalar_calls.clear()
            tables.clear()
            expansion_residual(b, D0, window, kind=kind, signs=checkerboard, region=(0.0, 1.0))
            assert tables == [resolvable]
            # a step symbol reads the table in one pass, an analytic one per
            # row that meets its support (every row when it declares none)
            if isinstance(b, StepSymbol):
                meeting = []
            elif b.support is None:
                meeting = rows
            else:
                s0, s1 = b.support
                meeting = [iv for iv in rows if iv.right > s0 and iv.left < s1]
            assert scalar_calls == meeting
            assert len(set(scalar_calls)) == len(scalar_calls)

    @pytest.mark.parametrize("kind", ["shift", "multiplier"])
    def test_expansion_builds_one_interval_table(self, kind, monkeypatch):
        """The paraproduct, the remainder and the shift or multiplier read
        one table of the region's blocks."""
        window = make_window(-4, 4, -2, 6)
        built = []
        table_of = operators.interval_table

        def counted(grid, win):
            built.append(win)
            return table_of(grid, win)

        monkeypatch.setattr(operators, "interval_table", counted)
        for b in structure_symbols(window):
            built.clear()
            expansion_residual(b, D0, window, kind=kind, signs=checkerboard, region=(0.0, 1.0))
            assert built == [make_window(0, 4, -2, 6)]

    @pytest.mark.parametrize(
        "window",
        [
            make_window(0, 1, 0, 2),
            make_window(-4, 4, -2, 2),
            make_window(2, 4, 1, 8),
            make_window(-1, 1, 0, 10),
        ],
        ids=["N=4", "j_min=-2", "lo=2", "N=2048"],
    )
    def test_toeplitz_hilbert_bit_equal_to_dense_primitive(self, window):
        assert_bits_equal(hilbert_matrix(window).mat, dense_hilbert(window))


# Four coarsest intervals of length 2: [-4, -2), [-2, 0), [0, 2), [2, 4).
BLOCKS_WINDOW = make_window(-4, 4, -1, 5)
EXPANSIONS = [("shift", "displayed"), ("shift", "derived"), ("multiplier", "displayed")]


def whole_window_residual(b, window, kind, remainder, region):
    """(operator, Frobenius, lhs) norms of the full N x N products, restricted
    to the region's columns."""
    pi = paraproduct_matrix(b, D0, window).mat
    if kind == "shift":
        t = haar_shift_matrix(D0, window).mat
        rem = dense_remainder(b, window, remainder)
    else:
        t = haar_multiplier_matrix(checkerboard, D0, window).mat
        rem = 0.0
    sym = pi + pi.T
    rhs = sym @ t - t @ sym + rem
    mult = np.diag(b.cell_values())
    lhs = mult @ t - t @ mult
    i0, i1 = window.slice_of(*region)
    restricted = (lhs - rhs)[:, i0:i1]
    return (
        float(np.linalg.svd(restricted, compute_uv=False)[0]),
        float(np.linalg.norm(restricted)),
        float(np.linalg.norm(lhs[:, i0:i1])),
    )


def off_block_diagonal(window):
    """Mask of the entries outside the coarsest intervals' diagonal blocks."""
    block = np.arange(window.n_cells) >> (window.j_max - window.j_min)
    return block[:, None] != block[None, :]


class TestCoarsestBlocks:
    """The Haar operators are block diagonal over the coarsest intervals, and
    the expansion residual works on the blocks its region meets."""

    @pytest.mark.parametrize(
        "window", [*STRUCTURE_WINDOWS, pytest.param(default_window(7), id="default7")]
    )
    def test_haar_operators_vanish_off_the_coarsest_blocks(self, window):
        off = off_block_diagonal(window)
        mats = [haar_shift_matrix(D0, window).mat]
        mats += [haar_multiplier_matrix(signs, D0, window).mat for signs in (1, -1, checkerboard)]
        for b in structure_symbols(window):
            mats += [
                paraproduct_matrix(b, D0, window).mat,
                dense_remainder(b, window, "displayed"),
                dense_remainder(b, window, "derived"),
            ]
        for mat in mats:
            outside = mat[off]
            assert np.array_equal(outside, np.zeros_like(outside))
            assert not np.signbit(outside).any()

    @pytest.mark.parametrize("kind, remainder", EXPANSIONS)
    @pytest.mark.parametrize(
        "region",
        [(0.5, 1.0), (-1.0, 0.5), (-4.0, -3.0), (3.5, 4.0), (1.0, 4.0)],
        ids=["one-block", "straddles", "touches-lo", "touches-hi", "straddles-to-hi"],
    )
    def test_residual_close_to_whole_window_products(self, region, kind, remainder):
        window = BLOCKS_WINDOW
        for b in structure_symbols(window):
            res = expansion_residual(
                b, D0, window, kind=kind, signs=checkerboard, region=region, remainder=remainder
            )
            op, frob, lhs = whole_window_residual(b, window, kind, remainder, region)
            assert abs(res.lhs_norm - lhs) <= 1e-15 * lhs
            tol = 1e-12 * max(1.0, lhs)
            assert abs(res.operator_norm - op) <= tol
            assert abs(res.frobenius_norm - frob) <= tol

    @pytest.mark.parametrize("kind, remainder", EXPANSIONS)
    @pytest.mark.parametrize("region", [(-4.0, 4.0), (-3.5, 3.5)], ids=["whole", "meets-every-block"])
    def test_region_meeting_every_block_close_to_whole_window(self, region, kind, remainder):
        window = BLOCKS_WINDOW
        for b in structure_symbols(window):
            res = expansion_residual(
                b, D0, window, kind=kind, signs=checkerboard, region=region, remainder=remainder
            )
            op, frob, lhs = whole_window_residual(b, window, kind, remainder, region)
            assert res.lhs_norm.hex() == lhs.hex()
            tol = 1e-14 * max(1.0, lhs)
            assert abs(res.operator_norm - op) <= tol
            assert abs(res.frobenius_norm - frob) <= tol

    def test_signs_read_only_in_the_region_blocks(self):
        window, region = BLOCKS_WINDOW, (0.5, 1.0)
        sub, _, _ = coarsest_blocks(window, region)
        pattern = {iv: checkerboard(iv) for iv in enumerate_intervals(D0, sub)}
        seen = []

        def sign_of(interval):
            seen.append(interval)
            return checkerboard(interval)

        b = sin_symbol(window)
        full = expansion_residual(b, D0, window, kind="multiplier", signs=sign_of, region=region)
        assert seen == resolvable(sub).intervals()
        # a mapping that covers only the blocks' intervals is accepted
        partial = expansion_residual(b, D0, window, kind="multiplier", signs=pattern, region=region)
        assert partial == full
        # while the multiplier itself still checks every row
        with pytest.raises(InvalidConfigurationError, match="has no entry"):
            haar_multiplier_matrix(pattern, D0, window)

    def test_bad_sign_in_the_region_blocks_named(self):
        window, region = BLOCKS_WINDOW, (0.5, 1.0)
        sub, _, _ = coarsest_blocks(window, region)
        pattern = {iv: checkerboard(iv) for iv in enumerate_intervals(D0, sub)}
        bad = DyadicInterval("standard", 3, 5)  # [5/8, 3/4), inside the block [0, 2)
        pattern[bad] = 0
        with pytest.raises(InvalidConfigurationError, match=f"got 0 on {bad.label()}"):
            expansion_residual(sin_symbol(window), D0, window, kind="multiplier", signs=pattern, region=region)


class TestBadAssemblyInput:
    def test_unknown_remainder_rejected_for_every_kind(self):
        win = make_window(0, 1, 0, 3)
        for kind in ("shift", "multiplier"):
            with pytest.raises(InvalidConfigurationError, match="unknown remainder"):
                expansion_residual(sin_symbol(win), D0, win, kind=kind, remainder="bogus")

    @pytest.mark.parametrize("region", [(-10.0, 1.0), (0.0, 5.0), (1.0, 0.0), (0.1, 1.0)])
    def test_region_outside_window_rejected(self, region):
        win = make_window(-4, 4, -2, 4)
        with pytest.raises(InvalidConfigurationError):
            expansion_residual(sin_symbol(win), D0, win, region=region)

    @pytest.mark.parametrize("kind", ["shift", "multiplier"])
    @pytest.mark.parametrize("region", [(0.0, 0.0), (-4.0, -4.0), (4.0, 4.0)])
    def test_empty_region_rejected(self, kind, region):
        win = make_window(-4, 4, -2, 4)
        with pytest.raises(InvalidConfigurationError, match="has no cell"):
            expansion_residual(sin_symbol(win), D0, win, kind=kind, region=region)

    def test_sign_mapping_missing_an_interval_rejected(self):
        pattern = {iv: 1 for iv in enumerate_intervals(D0, WIN)}
        missing = DyadicInterval("standard", 3, 5)
        del pattern[missing]
        with pytest.raises(InvalidConfigurationError, match=missing.label()):
            haar_multiplier_matrix(pattern, D0, WIN)

    @pytest.mark.parametrize(
        "region", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), ("0", "1"), (False, True)], ids=repr
    )
    def test_region_bound_not_finite_rejected(self, region):
        win = make_window(-4, 4, -2, 4)
        with pytest.raises(InvalidParameterError, match="not a finite number"):
            expansion_residual(sin_symbol(win), D0, win, region=region)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_sign_is_a_sign(self, integer):
        win = make_window(-4, 4, -2, 4)
        b = sin_symbol(win)
        for s in (-1, 1):
            assert_bits_equal(haar_multiplier_matrix(integer(s), D0, win).mat, haar_multiplier_matrix(s, D0, win).mat)
            got = expansion_residual(b, D0, win, kind="multiplier", signs=integer(s))
            assert got == expansion_residual(b, D0, win, kind="multiplier", signs=s)

    @pytest.mark.parametrize(
        "signs", [1.0, "+-", None, True, False, np.True_], ids=["float", "string", "none", "true", "false", "np-true"]
    )
    def test_sign_pattern_of_no_kind_rejected(self, signs):
        win = make_window(-4, 4, -2, 4)
        with pytest.raises(InvalidConfigurationError, match="is no int, callable or mapping"):
            haar_multiplier_matrix(signs, D0, win)
        with pytest.raises(InvalidConfigurationError, match="is no int, callable or mapping"):
            expansion_residual(sin_symbol(win), D0, win, kind="multiplier", signs=signs)


# Reference copies of the former per-row assembly: one np.outer and one
# slice-add per interval, in enumeration order, on the cell ranges of
# `TruncationWindow.cell_slices`.
def per_row_paraproduct(rows, coefficients, window):
    n = window.n_cells
    width = float(window.cell_width)
    mat = np.zeros((n, n))
    for (i0, i1), bh in zip(window.cell_slices(rows), coefficients.tolist()):
        if bh == 0.0:
            continue
        m0 = (i0 + i1) // 2
        length = (i1 - i0) * width
        amp = 1.0 / math.sqrt(length)
        col = math.sqrt(width) / length
        row_top = amp * math.sqrt(width)
        mat[i0:m0, i0:i1] += bh * row_top * col
        mat[m0:i1, i0:i1] -= bh * row_top * col
    return mat


def per_row_remainder(rows, coefficients, window, child_signs, scale):
    n = window.n_cells
    mat = np.zeros((n, n))
    s_left, s_right = child_signs
    width = float(window.cell_width)
    for (i0, i1), bh in zip(window.cell_slices(rows), coefficients.tolist()):
        if bh == 0.0 or i1 - i0 < 4:
            continue
        hc = operators._local_haar((i1 - i0) // 2)
        out = np.concatenate((s_left * hc, s_right * hc))
        coeff = bh / math.sqrt(scale * (i1 - i0) * width)
        mat[i0:i1, i0:i1] += coeff * np.outer(out, operators._local_haar(i1 - i0))
    return mat


def per_row_multiplier(sign_of, window):
    n = window.n_cells
    mat = np.zeros((n, n))
    rows = resolvable(window)
    for interval, (i0, i1) in zip(rows.intervals(), window.cell_slices(rows)):
        s = sign_of(interval)
        if s not in (-1, 1):
            raise InvalidConfigurationError(
                f"sign pattern must map to +/-1; got {s} on {interval.label()}"
            )
        h = operators._local_haar(i1 - i0)
        mat[i0:i1, i0:i1] += s * np.outer(h, h)
    step = 1 << (window.j_max - window.j_min)
    amp = 1.0 / math.sqrt(step)
    for i0 in range(0, n, step):
        mat[i0 : i0 + step, i0 : i0 + step] += amp * amp
    return mat


def per_row_shift(window):
    n = window.n_cells
    mat = np.zeros((n, n))
    for i0, i1 in window.cell_slices(shift_rows(window)):
        hc = operators._local_haar((i1 - i0) // 2)
        out = np.concatenate((hc, -hc)) / math.sqrt(2.0)
        mat[i0:i1, i0:i1] += np.outer(out, operators._local_haar(i1 - i0))
    return mat


SCALE_WINDOWS = [
    pytest.param(default_window(4), id="default4"),
    pytest.param(default_window(7), id="default7"),
    pytest.param(default_window(9), id="default9"),
    pytest.param(make_window(-1, 2, 0, 5), id="lo=-1"),
    pytest.param(make_window(2, 6, -1, 6), id="lo=2"),
    # one scale below the finest, and no Haar scale at all: empty row tables
    pytest.param(make_window(0, 1, 0, 1), id="two-scales"),
    pytest.param(make_window(0, 4, 0, 0), id="one-scale"),
]


def sparse_haar_symbol(window):
    """A Haar symbol on every third resolvable interval, a third of them with
    an explicit zero coefficient, so most rows' coefficients are zero."""
    rows = resolvable(window).intervals()
    rng = np.random.default_rng(window.j_max)
    coeffs = {iv: (0.0 if i % 9 == 0 else float(rng.normal())) for i, iv in enumerate(rows) if i % 3 == 0}
    return HaarSymbol(window, coeffs)


def coefficient_symbols(window):
    """random_haar where the window holds [0, 1) and scales enough for its
    eight terms, quartic_bump, and a Haar symbol whose rows include zero
    coefficients."""
    out = [quartic_bump_symbol(window), sparse_haar_symbol(window)]
    if window.lo <= 0 and window.hi >= 1 and window.j_max >= 4:
        out.append(random_haar_symbol(window, seed=window.j_max))
    return out


class TestScaleAssembly:
    """Every Haar operator equals the former per-row assembly bit for bit."""

    @pytest.mark.parametrize("window", SCALE_WINDOWS)
    def test_paraproduct_and_remainders(self, window):
        symbols_ = coefficient_symbols(window)
        if window.n_cells > 1024:  # one symbol at N = 4096 keeps the test small
            symbols_ = symbols_[-1:]
        rows1, rows2 = resolvable(window), shift_rows(window)
        for b in symbols_:
            c1, c2 = haar_coefficients(b, rows1), haar_coefficients(b, rows2)
            assert_bits_equal(paraproduct_matrix(b, D0, window).mat, per_row_paraproduct(rows1, c1, window))
            assert_bits_equal(
                dense_remainder(b, window, "displayed"), per_row_remainder(rows2, c2, window, (-1.0, 1.0), 1.0)
            )
            assert_bits_equal(
                dense_remainder(b, window, "derived"), per_row_remainder(rows2, c2, window, (1.0, 1.0), 2.0)
            )

    @pytest.mark.parametrize("window", SCALE_WINDOWS)
    def test_shift_and_multiplier(self, window):
        assert_bits_equal(haar_shift_matrix(D0, window).mat, per_row_shift(window))
        mapping = {iv: -checkerboard(iv) for iv in enumerate_intervals(D0, window)}
        patterns = [
            (1, lambda iv: 1),
            (-1, lambda iv: -1),
            (checkerboard, checkerboard),
            (mapping, mapping.__getitem__),
        ]
        if window.n_cells > 1024:
            patterns = patterns[2:3]
        for signs, sign_of in patterns:
            assert_bits_equal(haar_multiplier_matrix(signs, D0, window).mat, per_row_multiplier(sign_of, window))

    @pytest.mark.parametrize("bad", [0, 2, -1.5, None], ids=["zero", "two", "fraction", "none"])
    def test_bad_sign_named_on_first_bad_row(self, bad):
        rows = enumerate_intervals(D0, WIN)
        bad_rows = {rows[5], rows[9]}
        seen = []

        def sign_of(interval):
            seen.append(interval)
            return bad if interval in bad_rows else 1

        with pytest.raises(InvalidConfigurationError) as info:
            haar_multiplier_matrix(sign_of, D0, WIN)
        assert str(info.value) == f"sign pattern must map to +/-1; got {bad} on {rows[5].label()}"
        # every row up to the first bad one is read, in enumeration order, and no further
        assert seen == rows[:6]

    def test_missing_entry_named_on_first_missing_row(self):
        rows = enumerate_intervals(D0, WIN)
        pattern = {iv: 1 for iv in rows}
        del pattern[rows[12]], pattern[rows[4]]
        with pytest.raises(InvalidConfigurationError) as info:
            haar_multiplier_matrix(pattern, D0, WIN)
        assert str(info.value) == f"sign pattern has no entry for {rows[4].label()}"

    def test_bad_sign_before_missing_entry(self):
        rows = enumerate_intervals(D0, WIN)
        pattern = {iv: 1 for iv in rows}
        pattern[rows[3]] = 0
        del pattern[rows[7]]
        with pytest.raises(InvalidConfigurationError, match=f"got 0 on {rows[3].label()}"):
            haar_multiplier_matrix(pattern, D0, WIN)


def toeplitz_copy_hilbert(window):
    """The former `hilbert_matrix` body: the Toeplitz box values copied out
    into an N x N array, then the diagonal zeroed."""
    n = window.n_cells
    width = float(window.cell_width)
    g = hilbert_primitive(np.arange(-n, n + 1) * width)
    box = (g[2:] - g[1:-1] - g[1:-1] + g[:-2]) / width
    mat = np.lib.stride_tricks.sliding_window_view(box[::-1], n)[::-1].copy()
    np.fill_diagonal(mat, 0.0)
    return mat


# the benchmark's power pair (one centre on both sides) and a mixed pair whose
# nu falls back to quadrature, plus duals and a spiked weight
CONJUGATION_PAIRS = [
    pytest.param(PowerWeight(-0.3), PowerWeight(0.5), id="power"),
    pytest.param(PowerWeight(-0.3), PowerWeight(0.5, 0.25), id="mixed"),
    pytest.param(PowerWeight(0.25).inv(), pathological_weight(2.0, 3, 9.0).inv(), id="duals"),
    pytest.param(
        QuadratureWeight(lambda x: 1.0 + np.abs(x - 1.0 / 3.0) ** 0.5, "1+|x-1/3|^0.5"),
        ConstantWeight(2.5),
        id="quadrature",
    ),
]


class TestOneBufferPerStage:
    """H is a read-only view of its 2N - 1 Toeplitz values, the commutator is
    held as its factors, and the conjugation forms its result in one buffer,
    with the bits of the expressions they replace."""

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_hilbert_bit_equal_to_toeplitz_copy(self, window):
        assert_bits_equal(hilbert_matrix(window).mat, toeplitz_copy_hilbert(window))

    def test_hilbert_is_a_read_only_view(self):
        h = hilbert_matrix(WIN)
        n = WIN.n_cells
        assert not h.mat.flags.writeable
        assert not h.mat.flags.owndata
        # one forward row of 2N - 1 values underlies every entry
        assert h.mat.strides[1] == h.mat.itemsize
        assert h.mat.base is not None and np.shares_memory(h.mat[0], h.mat[-1])
        with pytest.raises(ValueError):
            h.mat[0, 1] = 1.0
        with pytest.raises(ValueError):
            h.mat *= 2.0
        assert h.mat.shape == (n, n)

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_commutator_bit_equal_to_outer_difference(self, window):
        operands = [hilbert_matrix(window), haar_shift_matrix(D0, window)]
        for b in structure_symbols(window):
            v = b.cell_values()
            for t in [*operands, paraproduct_matrix(b, D0, window)]:
                got = multiplication_commutator(b, t)
                assert_bits_equal(got.mat, (v[:, None] - v[None, :]) * t.mat)
                assert got.mat.flags.writeable and got.mat.flags.owndata

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    @pytest.mark.parametrize("lam, mu", CONJUGATION_PAIRS)
    def test_conjugation_bit_equal_to_two_scalings(self, window, lam, mu):
        """The dense case scales T's entries; a commutator's conjugation is
        fused from its factors with the bits of the two-stage expression."""
        left = np.sqrt(lam.cell_discretization(window))
        right = 1.0 / np.sqrt(mu.cell_discretization(window))
        h = hilbert_matrix(window)
        got = weight_conjugate(h, lam, mu)
        assert_bits_equal(got.mat, h.mat * left[:, None] * right[None, :])
        assert got.mat.flags.owndata
        shift = haar_shift_matrix(D0, window)
        for b in structure_symbols(window):
            v = b.cell_values()
            for t in (h, shift, paraproduct_matrix(b, D0, window)):
                got = weight_conjugate(multiplication_commutator(b, t), lam, mu)
                want = (v[:, None] - v[None, :]) * t.mat * left[:, None] * right[None, :]
                assert_bits_equal(got.mat, want)
                assert got.mat.flags.owndata

    def test_commutator_is_held_as_its_factors(self):
        """Each `.mat` read forms a fresh matrix, and none is kept."""
        h = hilbert_matrix(WIN)
        b = sin_symbol(WIN)
        comm = multiplication_commutator(b, h)
        assert comm.window == WIN and comm.name == "[mult,hilbert]"
        assert comm.operand is h and comm.values is b.cell_values()
        first, second = comm.mat, comm.mat
        assert first is not second and not np.shares_memory(first, second)
        assert not any(isinstance(v, np.ndarray) and v.ndim == 2 for v in vars(comm).values())

    @staticmethod
    def traced_peak(stages):
        """Peak bytes that tracemalloc sees while `stages` runs, and its result."""
        tracemalloc.start()
        try:
            out = stages()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, out

    def test_dense_stages_hold_one_matrix_at_peak(self):
        """H -> [b, H] -> its conjugation by the power pair at N = 1024 peaks
        at about one N x N buffer, the conjugation's (two while [b, H] was a
        dense buffer of its own, four before H became a view)."""
        window = default_window(7)
        n = window.n_cells
        assert n == 1024
        b = quartic_bump_symbol(window)
        b.cell_values()  # cached on first use, outside the traced stages
        lam, mu = PowerWeight(-0.3), PowerWeight(0.5)
        peak, conj = self.traced_peak(
            lambda: weight_conjugate(multiplication_commutator(b, hilbert_matrix(window)), lam, mu)
        )
        assert conj.mat.shape == (n, n)
        assert peak <= 1.1 * n * n * 8

    def test_commutator_forms_no_matrix(self):
        window = default_window(7)
        n = window.n_cells
        b = quartic_bump_symbol(window)
        b.cell_values()
        h = hilbert_matrix(window)
        peak, _ = self.traced_peak(lambda: multiplication_commutator(b, h))
        assert peak <= 0.05 * n * n * 8

    @pytest.mark.parametrize("kind", ["shift", "multiplier"])
    def test_expansion_forms_only_column_blocks(self, kind):
        """The expansion on `default_window(7)`, region [0, 1): its block has
        N = 512 cells and the region k = 128 columns, and it peaks at a few
        N x k buffers (about 19 while it formed N x N factors)."""
        window = default_window(7)
        b = random_haar_symbol(window, seed=0)
        b.cell_values()
        n, k = 512, 128
        peak, res = self.traced_peak(
            lambda: expansion_residual(b, D0, window, kind=kind, signs=checkerboard, region=(0.0, 1.0))
        )
        assert res.lhs_norm > 0.0
        assert peak <= 8 * n * k * 8


def unit_haar_terms(window):
    """(name, scale blocks, dense matrix) of the Haar operators with
    c_I = +-1: the shift and the multiplier, with its coarse-average block,
    for three sign patterns."""
    rows = resolvable(window)
    out = [("shift", operators._shift(rows, window), haar_shift_matrix(D0, window).mat)]
    for signs in (checkerboard, 1, -1):
        terms = operators._multiplier(signs, rows, window)
        out.append((f"multiplier {signs}", terms, haar_multiplier_matrix(signs, D0, window).mat))
    return out


def haar_terms(window):
    """(name, scale blocks, dense matrix) of every Haar operator on the
    window: the shift, the checkerboard multiplier with its coarse-average
    block, and the paraproduct and both remainders of each structure symbol."""
    rows = resolvable(window)
    out = unit_haar_terms(window)[:2]
    for b in structure_symbols(window):
        c = haar_coefficients(b, rows)
        out.append(("paraproduct", operators._paraproduct(rows, c, window), paraproduct_matrix(b, D0, window).mat))
        for form in operators._REMAINDERS:
            terms = operators._remainder(rows, c, window, *operators._REMAINDERS[form])
            out.append((f"remainder {form}", terms, dense_remainder(b, window, form)))
    return out


def swapped(terms):
    """The transpose of a Haar operator: its scale blocks with u and v
    swapped."""
    return [(c, i0, v, u) for c, i0, u, v in terms]


class TestHaarApply:
    """`_haar_apply` reads the description `_haar_sum` writes, one scale at a
    time, and forms no N x N array."""

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_apply_and_transpose_match_dense_products(self, window):
        """Entrywise within 1e-14 (|mat| @ |X|), the transpose applied as the
        swapped list.  The all-plus multiplier is left to the identity test
        below: it is I by cancellation across scales, so |mat| does not
        bound the terms that are summed."""
        x = np.random.default_rng(5).normal(size=(window.n_cells, 7))
        for name, terms, mat in haar_terms(window):
            for transpose, blocks, dense in ((False, terms, mat), (True, swapped(terms), mat.T)):
                got = operators._haar_apply(blocks, window, x)
                bound = 1e-14 * (np.abs(dense) @ np.abs(x))
                assert np.all(np.abs(got - dense @ x) <= bound), (name, transpose)

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_identity_columns_bit_equal_for_unit_coefficients(self, window):
        """With c_I = +-1, the applied identity is the dense matrix bit for bit."""
        eye = np.eye(window.n_cells)
        for name, terms, mat in unit_haar_terms(window):
            assert_bits_equal(operators._haar_apply(terms, window, eye), mat)


def column_ranges(window):
    """Column ranges [a, b) of the window: the last coarsest interval's
    cells (aligned), ranges that start or end inside the first or last
    coarsest interval (cutting a block at every scale coarser than a cell),
    and an empty one."""
    n = window.n_cells
    step = 1 << (window.j_max - window.j_min)
    ranges = {"aligned": (n - step, n), "cut_first": (1, n), "cut_both": (step // 2 + 1, n - 1),
              "empty": (n // 2, n // 2)}
    return {name: (a, b) for name, (a, b) in ranges.items() if a <= b}


class TestHaarColumns:
    """`_haar_sum` over a column range writes the dense matrix's columns, of
    each builder and of its transpose (the swapped list), and writes a
    concatenated list as it adds one list into `out` after the other and as
    `_haar_apply` adds the identity's columns."""

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_columns_bit_equal_to_the_dense_matrix(self, window):
        ranges = column_ranges(window)
        for name, terms, mat in haar_terms(window) + unit_haar_terms(window)[2:]:
            for blocks, dense in ((terms, mat), (swapped(terms), mat.T)):
                assert_bits_equal(operators._haar_sum(blocks, window), dense)
                for cut, (a, b) in ranges.items():
                    got = operators._haar_sum(blocks, window, (a, b))
                    assert_bits_equal(got, dense[:, a:b])

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_added_into_out_as_the_concatenated_list(self, window):
        """An operator and its transpose added one after the other into a
        nonzero `out` are their concatenated list added into it."""
        n = window.n_cells
        rng = np.random.default_rng(8)
        for name, terms, mat in haar_terms(window) + unit_haar_terms(window)[2:]:
            for cut, (a, b) in column_ranges(window).items():
                start = rng.normal(size=(n, b - a))
                chained = operators._haar_sum(terms, window, (a, b), out=start.copy())
                chained = operators._haar_sum(swapped(terms), window, (a, b), out=chained)
                got = operators._haar_sum(terms + swapped(terms), window, (a, b), out=start.copy())
                assert_bits_equal(got, chained)

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_concatenation_is_the_chained_sum_and_the_applied_identity(self, window):
        """For every builder, A = the operator and B = its transpose (so
        pi + pi* for the paraproduct): `_haar_sum(A + B)` is
        `_haar_sum(B, out=_haar_sum(A))` and `_haar_apply(A + B)` on the
        identity's columns, bit for bit, on every column range."""
        eye = np.eye(window.n_cells)
        for name, terms, mat in haar_terms(window) + unit_haar_terms(window)[2:]:
            first, second = terms, swapped(terms)
            for cut, (a, b) in column_ranges(window).items():
                got = operators._haar_sum(first + second, window, (a, b))
                chained = operators._haar_sum(second, window, (a, b), out=operators._haar_sum(first, window, (a, b)))
                assert_bits_equal(got, chained)
                assert_bits_equal(got, operators._haar_apply(first + second, window, eye[:, a:b]))

    def test_strided_out_added_into_in_place(self):
        """`_haar_sum` adds into a strided `out`, every other column of a
        wider array, as into a contiguous one, and leaves the columns between
        untouched."""
        window = make_window(-4, 4, -2, 6)
        n, (a, b) = window.n_cells, column_ranges(window)["cut_both"]
        rng = np.random.default_rng(9)
        for name, terms, mat in haar_terms(window):
            start = rng.normal(size=(n, b - a))
            want = operators._haar_sum(swapped(terms), window, (a, b), out=start.copy())
            wide = np.zeros((n, 2 * (b - a)))
            wide[:, ::2] = start
            assert operators._haar_sum(swapped(terms), window, (a, b), out=wide[:, ::2]).base is wide
            assert_bits_equal(wide[:, ::2], want)
            assert not wide[:, 1::2].any(), name

    def test_ranges_cut_blocks(self):
        """The cut ranges start or end inside a block of the coarsest scale."""
        window = make_window(-4, 4, -2, 6)
        step = 1 << (window.j_max - window.j_min)
        for cut, (a, b) in column_ranges(window).items():
            assert (a % step != 0 or b % step != 0) == cut.startswith("cut"), cut


class TestIntSign:
    """One int sign is a constant array: no row's interval object is built."""

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_int_sign_builds_no_interval_objects(self, window, monkeypatch):
        want = {s: old_multiplier(lambda iv, s=s: s, window) for s in (-1, 1)}
        b = StepSymbol(window, np.random.default_rng(3).normal(size=window.n_cells))

        def refuse(table):
            raise AssertionError("interval objects built")

        monkeypatch.setattr(IntervalTable, "intervals", refuse)
        for s in (-1, 1):
            assert_bits_equal(haar_multiplier_matrix(s, D0, window).mat, want[s])
        region = (float(window.lo), float(window.lo) + 1.0)
        res = expansion_residual(b, D0, window, kind="multiplier", signs=1, region=region)
        assert res.operator_norm <= 1e-12 * max(1.0, res.lhs_norm)

    @pytest.mark.parametrize("bad", [0, 2, -3])
    def test_int_sign_not_a_sign_named_on_first_row(self, bad):
        rows = enumerate_intervals(D0, WIN)
        with pytest.raises(InvalidConfigurationError) as info:
            haar_multiplier_matrix(bad, D0, WIN)
        assert str(info.value) == f"sign pattern must map to +/-1; got {bad} on {rows[0].label()}"

    @pytest.mark.parametrize("bad", [2, 5, np.int64(0)], ids=["two", "five", "numpy-zero"])
    def test_int_sign_not_a_sign_rejected_without_rows(self, bad):
        """A window with no resolvable row still rejects an int that is no
        sign, in the builder and in the expansion alike, naming no row."""
        window = make_window(0, 4, 0, 0)
        assert len(resolvable(window)) == 0
        message = f"sign pattern must map to +/-1; got {bad}"
        with pytest.raises(InvalidConfigurationError) as info:
            haar_multiplier_matrix(bad, D0, window)
        assert str(info.value) == message
        with pytest.raises(InvalidConfigurationError) as info:
            expansion_residual(sin_symbol(window), D0, window, kind="multiplier", signs=bad)
        assert str(info.value) == message

    @pytest.mark.parametrize("sign", [1, -1, np.int64(1), np.int32(-1)], ids=["one", "minus-one", "int64", "int32"])
    def test_int_sign_without_rows_keeps_the_coarse_averages(self, sign):
        """With no resolvable row, a sign multiplier is its coarse averages
        alone, which on one-cell coarsest intervals is the identity, and it
        commutes with every symbol."""
        window = make_window(0, 4, 0, 0)
        assert_bits_equal(haar_multiplier_matrix(sign, D0, window).mat, np.eye(window.n_cells))
        res = expansion_residual(sin_symbol(window), D0, window, kind="multiplier", signs=sign, region=(0.0, 4.0))
        assert (res.operator_norm, res.frobenius_norm, res.lhs_norm) == (0.0, 0.0, 0.0)

    def test_callable_and_mapping_unread_without_rows(self):
        """A callable or a mapping is read on the rows only, so with no row it
        is never called or looked up, and gives what an int sign gives."""
        window = make_window(0, 4, 0, 0)

        def refuse(interval):
            raise AssertionError(f"sign read on {interval.label()}")

        b = sin_symbol(window)
        want = expansion_residual(b, D0, window, kind="multiplier", signs=1)
        for signs in (refuse, {}):
            assert_bits_equal(haar_multiplier_matrix(signs, D0, window).mat, np.eye(window.n_cells))
            assert expansion_residual(b, D0, window, kind="multiplier", signs=signs) == want

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "region", [(0.5, 1.0), (-1.0, 0.5), (-4.0, 4.0)], ids=["one-block", "straddles", "whole"]
    )
    def test_int_callable_and_mapping_agree(self, region, sign):
        """One sign given as an int, a callable or a mapping gives the same
        row signs, so every residual field keeps its bits."""
        window = BLOCKS_WINDOW
        b = StepSymbol(window, np.random.default_rng(5).normal(size=window.n_cells))
        pattern = {iv: sign for iv in enumerate_intervals(D0, window)}
        want = expansion_residual(b, D0, window, kind="multiplier", signs=sign, region=region)
        for signs in (lambda iv: sign, pattern):
            got = expansion_residual(b, D0, window, kind="multiplier", signs=signs, region=region)
            assert [x.hex() for x in (got.operator_norm, got.frobenius_norm, got.lhs_norm)] == [
                x.hex() for x in (want.operator_norm, want.frobenius_norm, want.lhs_norm)
            ]


class TestParaproductAdjoint:
    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_transpose_maps_haar_to_averaging_indicator(self, window):
        """pi_b* h_J = b_hat(J) 1_J / |J|: the transpose of the paraproduct
        maps each resolvable Haar vector to its coefficient times J's
        averaging indicator, sqrt(width) / |J| on J's cells."""
        rows = resolvable(window)
        width = float(window.cell_width)
        intervals = rows.intervals()
        haars = np.zeros((window.n_cells, len(intervals)))
        indicators = np.zeros_like(haars)
        for col, (interval, (i0, i1)) in enumerate(zip(intervals, window.cell_slices(rows))):
            haars[:, col] = haar_fn_coeffs(interval, window)
            indicators[i0:i1, col] = math.sqrt(width) / float(interval.length)
        for b in structure_symbols(window):
            coeffs = np.array([haar_coefficient(b, interval) for interval in intervals])
            got = paraproduct_matrix(b, D0, window).mat.T @ haars
            assert np.allclose(got, indicators * coeffs, rtol=1e-12, atol=1e-13)


class TestScaleCuts:
    """Every builder reads the one table of resolvable rows; the shift and
    the remainder drop its finest scale themselves."""

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_shift_and_remainder_cut_the_table_themselves(self, window):
        """Given the cut table, the shift and both remainders write the same
        bits as given the whole one: the cut is theirs, and taking it twice
        changes nothing."""
        rows, cut = resolvable(window), shift_rows(window)
        assert_bits_equal(
            operators._haar_sum(operators._shift(rows, window), window),
            operators._haar_sum(operators._shift(cut, window), window),
        )
        for b in structure_symbols(window):
            whole, short = haar_coefficients(b, rows), haar_coefficients(b, cut)
            for form in operators._REMAINDERS.values():
                assert_bits_equal(
                    operators._haar_sum(operators._remainder(rows, whole, window, *form), window),
                    operators._haar_sum(operators._remainder(cut, short, window, *form), window),
                )

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_finest_scale_haar_in_every_kernel(self, window):
        """A Haar function of the finest resolvable scale has no resolvable
        subinterval and no Haar pair in its children, so the paraproduct, the
        shift and both remainders all send it to zero."""
        rows = resolvable(window)
        finest = [iv for iv in rows.intervals() if iv.j == window.j_max - 1]
        haars = np.zeros((window.n_cells, len(finest)))
        for col, interval in enumerate(finest):
            haars[:, col] = haar_fn_coeffs(interval, window)
        mats = [haar_shift_matrix(D0, window).mat]
        for b in structure_symbols(window):
            mats += [paraproduct_matrix(b, D0, window).mat]
            mats += [dense_remainder(b, window, form) for form in operators._REMAINDERS]
        for mat in mats:
            assert np.allclose(mat @ haars, 0.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_finest_scale_coefficients_reach_only_the_paraproduct(self, window):
        """Moving the finest scale's coefficients leaves both remainders'
        bits alone and moves the paraproduct by exactly the paraproduct of
        the move."""
        rows = resolvable(window)
        finest = (rows.j == window.j_max - 1).astype(float)
        for b in structure_symbols(window):
            c = haar_coefficients(b, rows)
            moved = c + finest
            for form in operators._REMAINDERS.values():
                assert_bits_equal(
                    operators._haar_sum(operators._remainder(rows, moved, window, *form), window),
                    operators._haar_sum(operators._remainder(rows, c, window, *form), window),
                )
            delta = operators._haar_sum(operators._paraproduct(rows, moved, window), window)
            delta -= operators._haar_sum(operators._paraproduct(rows, c, window), window)
            want = operators._haar_sum(operators._paraproduct(rows, finest, window), window)
            assert np.allclose(delta, want, rtol=0.0, atol=1e-12)
            assert (np.abs(want) > 0).any() == bool(finest.any())


def scale_spans(rows, window):
    """(first cell, end cell, rows) of each scale of the scale-major rows."""
    spans = {}
    for j, (i0, i1) in zip(rows.j.tolist(), window.cell_slices(rows)):
        first, _, count = spans.get(j, (i0, i1, 0))
        spans[j] = (first, i1, count + 1)
    return list(spans.values())


class TestScaleBlocks:
    """Every builder gives one block (c, i0, u, v) per scale: c holds the
    scale's coefficients, one per row, u is the local pattern on one row's
    cells, and v is as long as u or one constant entry."""

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_blocks_cover_each_scale_once(self, window):
        rows, cut = resolvable(window), shift_rows(window)
        n = window.n_cells
        coefficients = haar_coefficients(sin_symbol(window), rows)
        builders = {
            "paraproduct": (operators._paraproduct(rows, coefficients, window), scale_spans(rows, window)),
            "multiplier": (
                operators._multiplier(checkerboard, rows, window),
                scale_spans(rows, window) + [(0, n, n >> (window.j_max - window.j_min))],
            ),
            "shift": (operators._shift(rows, window), scale_spans(cut, window)),
        }
        for form, args in operators._REMAINDERS.items():
            builders[form] = (operators._remainder(rows, coefficients, window, *args), scale_spans(cut, window))
        for name, (blocks, spans) in builders.items():
            got = [(i0, i0 + len(c) * len(u), len(c)) for c, i0, u, v in blocks]
            assert got == spans, name
            for c, i0, u, v in blocks:
                assert len(v) in (len(u), 1), name


CLOSING_WINDOWS = STRUCTURE_WINDOWS[:3]


class TestRemainderForms:
    @pytest.mark.parametrize("window", CLOSING_WINDOWS)
    def test_derived_closes_for_step_symbols_and_displayed_does_not(self, window):
        """On the whole window, a step symbol's shift expansion closes to
        rounding with the derived remainder, and misses by a share of the
        commutator with the displayed one."""
        b = structure_symbols(window)[2]
        region = (float(window.lo), float(window.hi))
        derived = expansion_residual(b, D0, window, kind="shift", remainder="derived", region=region)
        displayed = expansion_residual(b, D0, window, kind="shift", remainder="displayed", region=region)
        assert derived.lhs_norm == displayed.lhs_norm > 1.0
        assert derived.operator_norm <= 1e-13 * derived.lhs_norm
        assert displayed.operator_norm >= 0.05 * displayed.lhs_norm

    @pytest.mark.parametrize("kind", ["shift", "multiplier"])
    @pytest.mark.parametrize(
        "remainder", ["bogus", "Derived", None, ["derived"]], ids=["bogus", "capitalised", "none", "list"]
    )
    def test_unknown_remainder_named(self, kind, remainder):
        """A name outside the table, or a value that cannot be one, raises
        with the value's repr, for either kind."""
        win = make_window(0, 1, 0, 3)
        with pytest.raises(InvalidConfigurationError) as info:
            expansion_residual(sin_symbol(win), D0, win, kind=kind, remainder=remainder)
        assert str(info.value) == f"unknown remainder {remainder!r}"


class TestArgumentRule:
    """Signs go through `errors.is_integer`: True and a float sign from a
    callable or mapping are refused, naming the row, and numpy integers and
    numbers give their plain twins' bits."""

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, np.float64(1.0)], ids=repr)
    def test_row_sign_that_is_not_an_integer_refused(self, sign):
        win = make_window(-4, 4, -2, 4)
        first = enumerate_intervals(D0, win)[0].label()
        mapping = {interval: sign for interval in enumerate_intervals(D0, win)}
        for signs in (lambda interval: sign, mapping):
            with pytest.raises(InvalidConfigurationError, match=rf"must map to \+/-1; got .* on {first}$"):
                haar_multiplier_matrix(signs, D0, win)
            with pytest.raises(InvalidConfigurationError, match=r"must map to \+/-1"):
                expansion_residual(sin_symbol(win), D0, win, kind="multiplier", signs=signs)

    def test_numpy_integer_row_sign_kept(self):
        win = make_window(-4, 4, -2, 4)
        pattern = lambda interval: np.int64(-1 if interval.k % 2 else 1)
        plain = lambda interval: -1 if interval.k % 2 else 1
        assert_bits_equal(haar_multiplier_matrix(pattern, D0, win).mat, haar_multiplier_matrix(plain, D0, win).mat)

    def test_numpy_and_fraction_region_kept(self):
        win = make_window(-4, 4, -2, 4)
        b = sin_symbol(win)
        got = expansion_residual(b, D0, win, region=(Fraction(0), np.float64(1.0)))
        assert got == expansion_residual(b, D0, win, region=(0.0, 1.0))


def expansion_cases():
    """Every expansion the tests above run, as (b, window, kind, remainder,
    region), and the benchmark's two on `default_window(7)` at seeds 0 and 1."""
    for window in (p.values[0] for p in STRUCTURE_WINDOWS):
        for b in structure_symbols(window):
            for kind, remainder in EXPANSIONS:
                yield b, window, kind, remainder, (float(window.lo), float(window.lo) + 1.0)
    regions = [(0.5, 1.0), (-1.0, 0.5), (-4.0, -3.0), (3.5, 4.0), (1.0, 4.0), (-4.0, 4.0), (-3.5, 3.5)]
    for region in regions:
        for b in structure_symbols(BLOCKS_WINDOW):
            for kind, remainder in EXPANSIONS:
                yield b, BLOCKS_WINDOW, kind, remainder, region
    window = default_window(7)
    for seed in (0, 1):
        b = random_haar_symbol(window, seed=seed)
        yield b, window, "shift", "derived", (0.0, 1.0)
        yield b, window, "multiplier", "displayed", (0.0, 1.0)


class TestLargestSingularValue:
    """`expansion_residual` takes sigma_max of its N x k residual from the
    k x k Gram of the residual scaled by its largest entry, not from an SVD."""

    def test_equal_to_the_svd_on_every_expansion_case(self, monkeypatch):
        residuals = []

        def spy(a):
            residuals.append(a.copy())
            return largest(a)

        largest = operators._largest_singular_value
        monkeypatch.setattr(operators, "_largest_singular_value", spy)
        for b, window, kind, remainder, region in expansion_cases():
            res = expansion_residual(
                b, D0, window, kind=kind, signs=checkerboard, region=region, remainder=remainder
            )
            assert res.operator_norm == largest(residuals[-1])
        assert len(residuals) == 5 * 3 * 3 + 7 * 3 * 3 + 4
        for a in residuals:
            svd = float(np.linalg.svd(a, compute_uv=False)[0])
            assert abs(largest(a) - svd) <= 1e-13 * svd

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("shape", [(512, 128), (64, 1), (33, 7), (1, 1)])
    def test_equal_to_the_svd_at_extreme_scales(self, scale, shape):
        a = np.random.default_rng(5).standard_normal(shape) * scale
        svd = float(np.linalg.svd(a, compute_uv=False)[0])
        assert math.isfinite(svd) and svd > 0.0
        assert abs(operators._largest_singular_value(a) - svd) <= 1e-13 * svd

    def test_zero_residual_is_exactly_zero(self):
        for a in (np.zeros((16, 4)), np.full((8, 3), -0.0)):
            assert operators._largest_singular_value(a).hex() == (0.0).hex()
        # a constant symbol commutes with everything, and its paraproduct vanishes
        win = make_window(-4, 4, 0, 6)
        b = StepSymbol(win, np.full(win.n_cells, 3.0))
        for kind, remainder in EXPANSIONS:
            res = expansion_residual(b, D0, win, kind=kind, signs=checkerboard, remainder=remainder)
            assert res.operator_norm.hex() == (0.0).hex() and res.frobenius_norm == 0.0
