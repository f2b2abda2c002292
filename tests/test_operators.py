import math

import numpy as np
import pytest

from dyadlab.errors import DegenerateWeightError, InvalidConfigurationError, InvalidMatrixError
from dyadlab.grids import (
    DyadicInterval,
    enumerate_intervals,
    make_window,
    standard_grid,
    third_shift_grid,
)
from dyadlab.operators import (
    OperatorMatrix,
    coarse_unit_vectors,
    expansion_residual,
    haar_multiplier_matrix,
    haar_shift_matrix,
    hilbert_matrix,
    hilbert_primitive,
    k_vector,
    multiplication_commutator,
    multiplication_matrix,
    paraproduct_adjoint_matrix,
    paraproduct_matrix,
    remainder_matrix,
    remainder_matrix_derived,
    weight_conjugate,
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

    def test_adjoint_is_transpose(self):
        b = random_haar_symbol(WIN, n_terms=5, seed=1)
        pi = paraproduct_matrix(b, D0, WIN)
        adj = paraproduct_adjoint_matrix(b, D0, WIN)
        assert np.array_equal(adj.mat, pi.mat.T)

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
        for v in coarse_unit_vectors(WIN):
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
        lc, rc = top.children
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


class TestMultiplication:
    def test_identity_for_one(self):
        b = StepSymbol(WIN, np.ones(WIN.n_cells))
        m = multiplication_matrix(b, WIN)
        assert np.array_equal(m.mat, np.eye(WIN.n_cells))

    def test_zero_for_zero(self):
        b = StepSymbol(WIN, np.zeros(WIN.n_cells))
        assert np.all(multiplication_matrix(b, WIN).mat == 0.0)

    def test_linear_symbol_diag_of_cell_averages(self):
        b = linear_symbol(WIN)
        m = multiplication_matrix(b, WIN)
        # cell average of x over a cell is its midpoint
        assert np.allclose(np.diag(m.mat), WIN.cell_midpoints(), atol=1e-14)


class TestWeightConjugation:
    def test_flat_weights_noop(self):
        b = random_haar_symbol(WIN, n_terms=4, seed=5)
        pi = paraproduct_matrix(b, D0, WIN)
        conj = weight_conjugate(pi, ConstantWeight(1.0), ConstantWeight(1.0))
        assert np.array_equal(conj.mat, pi.mat)
        assert conj.source_weight == "const(1)"

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
        adj = paraproduct_adjoint_matrix(b, D0, WIN)
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

    def test_k_vector_geometry(self):
        # k_vector already lives in orthonormal cell coordinates
        interval = DyadicInterval("standard", 1, 1)
        k = k_vector(interval, WIN)
        h = haar_fn_coeffs(interval, WIN)
        assert np.sum(k * k) == pytest.approx(2.0, abs=1e-12)
        assert np.sum(k * h) == pytest.approx(0.0, abs=1e-14)

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
    @pytest.mark.parametrize("sign_order", ["definition", "displayed"])
    def test_residual_matches_four_product_formula(self, kind, remainder, sign_order):
        win = make_window(-1, 1, 0, 5)
        b = sin_symbol(win)
        signs = lambda iv: 1 if (iv.k + iv.j) % 2 == 0 else -1  # noqa: E731
        pi = paraproduct_matrix(b, D0, win).mat
        if kind == "shift":
            t = haar_shift_matrix(D0, win).mat
            make_rem = remainder_matrix if remainder == "displayed" else remainder_matrix_derived
            rem = make_rem(b, D0, win).mat
        else:
            t = haar_multiplier_matrix(signs, D0, win).mat
            rem = 0.0
        four = pi @ t - t @ pi + pi.T @ t - t @ pi.T
        if sign_order == "displayed":
            four = -four
        mult = multiplication_matrix(b, win).mat
        lhs = mult @ t - t @ mult
        i0, i1 = win.slice_of(0.0, 1.0)
        restricted = (lhs - four - rem)[:, i0:i1]
        res = expansion_residual(
            b, D0, win, kind=kind, signs=signs, remainder=remainder or "displayed",
            sign_order=sign_order,
        )
        assert res.lhs_norm == float(np.linalg.norm(lhs[:, i0:i1]))
        tol = 1e-13 * res.lhs_norm
        assert abs(res.operator_norm - np.linalg.norm(restricted, 2)) <= tol
        assert abs(res.frobenius_norm - np.linalg.norm(restricted)) <= tol

    @pytest.mark.parametrize("kind", ["shift", "multiplier"])
    def test_unknown_sign_order_rejected(self, kind):
        win = make_window(0, 1, 0, 3)
        with pytest.raises(InvalidConfigurationError):
            expansion_residual(sin_symbol(win), D0, win, kind=kind, sign_order="flipped")

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


class TestExport:
    def test_binary_round_trip(self, tmp_path):
        b = random_haar_symbol(WIN, n_terms=4, seed=9)
        pi = paraproduct_matrix(b, D0, WIN)
        path = tmp_path / "pi.bin"
        pi.to_binary(path)
        data, meta = OperatorMatrix.read_binary(path)
        assert meta["n"] == WIN.n_cells
        assert meta["j_max"] == WIN.j_max
        assert (meta["lo"], meta["hi"]) == (0.0, 1.0)
        assert np.array_equal(data, pi.mat)

    def test_csv_export(self, tmp_path):
        win = make_window(0, 1, 0, 2)
        h = hilbert_matrix(win)
        path = tmp_path / "h.csv"
        h.to_csv(path)
        text = path.read_bytes().decode()
        assert "\r" not in text
        rows = text.strip().split("\n")
        assert len(rows) == win.n_cells
        assert len(rows[0].split(",")) == win.n_cells


class TestFiniteEntries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_raises(self, bad):
        mat = np.zeros((WIN.n_cells, WIN.n_cells))
        mat[2, 5] = bad
        with pytest.raises(InvalidMatrixError):
            OperatorMatrix(mat, WIN)

    def test_overflowing_conjugation_raises(self):
        t = OperatorMatrix(np.full((WIN.n_cells, WIN.n_cells), 1e300), WIN)
        with np.errstate(over="ignore"), pytest.raises(InvalidMatrixError):
            weight_conjugate(t, ConstantWeight(1e100), ConstantWeight(1e-100))


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
        lc, rc = interval.children
        out = (old_haar_unit_vector(lc, window) - old_haar_unit_vector(rc, window)) / math.sqrt(2.0)
        i0, i1 = window.slice_of(interval.left, interval.right)
        mat[i0:i1, i0:i1] += np.outer(out[i0:i1], h[i0:i1])
    return mat


def old_k_vector(interval, window):
    lc, rc = interval.children
    return old_haar_unit_vector(rc, window) - old_haar_unit_vector(lc, window)


def old_remainder(b, window, derived):
    n = window.n_cells
    mat = np.zeros((n, n))
    for interval in old_scales(window, window.j_max - 2):
        bh = haar_coefficient(b, interval)
        if bh == 0.0:
            continue
        lc, rc = interval.children
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


def checkerboard(interval):
    return 1 if (interval.j + interval.k) % 2 == 0 else -1


STRUCTURE_WINDOWS = [
    pytest.param(make_window(-4, 4, -2, 6), id="j_min=-2"),
    pytest.param(make_window(-3, -1, 0, 6), id="negative_lo"),
    pytest.param(make_window(2, 4, 1, 6), id="lo=2"),
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
        assert_bits_equal(coarse_unit_vectors(window), old_coarse_unit_vectors(window))
        for interval in old_scales(window, window.j_max - 2):
            assert_bits_equal(k_vector(interval, window), old_k_vector(interval, window))

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    def test_symbol_operators_bit_equal_to_dense_builders(self, window):
        for b in structure_symbols(window):
            assert_bits_equal(paraproduct_matrix(b, D0, window).mat, old_paraproduct(b, window))
            assert_bits_equal(remainder_matrix(b, D0, window).mat, old_remainder(b, window, False))
            assert_bits_equal(
                remainder_matrix_derived(b, D0, window).mat, old_remainder(b, window, True)
            )

    @pytest.mark.parametrize("window", STRUCTURE_WINDOWS)
    @pytest.mark.parametrize("kind, remainder", [("shift", "displayed"), ("shift", "derived"), ("multiplier", "displayed")])
    def test_residual_bit_equal_to_matrix_products(self, window, kind, remainder):
        region = (float(window.lo), float(window.lo) + 1.0)
        for b in structure_symbols(window):
            pi = old_paraproduct(b, window)
            if kind == "shift":
                t = old_shift(window)
                rem = old_remainder(b, window, remainder == "derived")
            else:
                t = old_multiplier(checkerboard, window)
            sym = pi + pi.T
            rhs = sym @ t - t @ sym
            if kind == "shift":
                rhs += rem
            mult = multiplication_matrix(b, window).mat
            lhs = mult @ t - t @ mult
            i0, i1 = window.slice_of(*region)
            restricted = (lhs - rhs)[:, i0:i1]
            res = expansion_residual(
                b, D0, window, kind=kind, signs=checkerboard, region=region, remainder=remainder
            )
            assert res.operator_norm == float(np.linalg.svd(restricted, compute_uv=False)[0])
            assert res.frobenius_norm == float(np.linalg.norm(restricted))
            assert res.lhs_norm == float(np.linalg.norm(lhs[:, i0:i1]))

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

    def test_sign_mapping_missing_an_interval_rejected(self):
        pattern = {iv: 1 for iv in enumerate_intervals(D0, WIN)}
        missing = DyadicInterval("standard", 3, 5)
        del pattern[missing]
        with pytest.raises(InvalidConfigurationError, match=missing.label()):
            haar_multiplier_matrix(pattern, D0, WIN)

    @pytest.mark.parametrize(
        "interval",
        [
            DyadicInterval("standard", WIN.j_max - 1, 0),  # children finer than a Haar pair
            DyadicInterval("standard", 1, 2),  # outside the window
            DyadicInterval("third_shift", 1, 0),
        ],
    )
    def test_k_vector_rejects_unresolvable_interval(self, interval):
        with pytest.raises(InvalidConfigurationError):
            k_vector(interval, WIN)
