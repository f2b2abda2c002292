"""Dense matrix representations over the finest-cell orthonormal basis.

Basis vectors are e_i = |cell|^(-1/2) * indicator(cell_i); entries are
<T e_j, e_i> in unweighted L2.  Paraproduct, Haar multiplier, dyadic shift,
and multiplication matrices are finite sums of exact cellwise products.
Every Haar operator (paraproduct, multiplier, shift, remainders) is one
description: a list of scale blocks (c, i0, u, v), each the sum over one
scale's intervals I of c_I times a local block u outer v on I x I.  A
scale's intervals are consecutive translations, so their blocks are disjoint
and lie along the diagonal from i0, the first row's first cell
(`TruncationWindow.cell_slices`); c holds one coefficient per interval,
and u and v one entry per cell of I, or one entry for a constant (a v of
one entry is a constant row).  A
builder gives only its per-row coefficients c_I and its block pattern (u, v)
on c cells, in which h_I is the local vector +-1/sqrt(c) (`_local_haar`),
and `_term` cuts them into one block per scale; the multiplier's coarse
averages are one more block, with c_I = 1.  A transpose is the same list
with u and v swapped in every block, and a sum of operators is their lists
concatenated, so a block's cell count is the longer of u and v.
`_haar_sum` is the one dense writer: it writes a list into all N columns or
a range of them, through one strided view of each scale's c x c diagonal
blocks inside the range and slices of the at most two it cuts;
`_haar_apply` applies a list to N x k columns, scale by scale, into a fresh
array, and forms no N x N array.  The dense builders are
`paraproduct_matrix`, `haar_multiplier_matrix` and `haar_shift_matrix`; the
shift remainder, in its two forms ("displayed" and "derived",
`_REMAINDERS`), enters only through `expansion_residual`.  Each builder and
the expansion read one table, of the resolvable rows (`_resolvable_rows`),
with one `haar_coefficients` call for b_hat(I); the shift and the remainder
build their (children pattern) x h_I blocks through one builder,
`_children`, which drops the finest scale, as a child there holds no Haar
pair.  An expansion's paraproduct, remainder and shift or multiplier all
read that one table and call.  Its identity columns, T E, (pi + pi*) E and R E, are the
dense matrices' columns on the region, so `_haar_sum` writes them; only the
products with those, (pi + pi*) T E and T (pi + pi*) E, take `_haar_apply`,
and pi + pi* is the paraproduct's list followed by its swapped copy.
It forms N x k blocks for the region's k columns and no N x N one, and
takes the residual's operator norm from its k x k Gram
(`_largest_singular_value`), not from an SVD of the N x k residual.
The Hilbert transform matrix comes from the closed-form primitive
G(t) = t (ln|t| - 1), which renders every cell-pair principal value finite
(diagonal entries vanish by antisymmetry); a box integral depends only on the
cell lag i - j, so H is the Toeplitz matrix of 2N - 1 box values, and its
`.mat` is a read-only N x N view of those values, never copied out.  The
commutator [M_b, T] is held as its factors, b's cell values and T, and forms
no N x N buffer; the weight conjugation writes l_i (b_i - b_j) T_ij r_j
straight into the one buffer it returns, so H, [b, H] and its conjugation
hold one N x N buffer between them.  Reading the commutator's `.mat` forms a
fresh dense matrix, which nothing keeps.
Haar-expansion operators act as stated on the resolvable Haar span and as
zero on its orthogonal complement; the sign multiplier additionally keeps the
unresolved coarse averages fixed so that the all-plus pattern is the
identity.  Scales are written coarsest first and every entry lies in at most
one block per scale, so each entry receives its terms in enumeration order,
one addition each, which makes every matrix bit-reproducible.
Every interval lies inside one coarsest interval, so the Haar operators
(paraproduct, multiplier with its coarse averages, shift, remainders) are
block diagonal over the coarsest intervals: each entry outside those
2^(j_max - j_min)-cell diagonal blocks is exactly 0.0.  `expansion_residual`
relies on this to work only on the blocks its region meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import InvalidConfigurationError, InvalidMatrixError, is_integer
from .grids import (
    STANDARD,
    DyadicGrid,
    DyadicInterval,
    IntervalTable,
    TruncationWindow,
    interval_table,
)
from .symbols import Symbol, haar_coefficients
from .weights import Weight


@dataclass
class OperatorMatrix:
    """Dense N x N matrix on the window's cells; every entry is finite, or
    construction raises InvalidMatrixError.  The dense case of an operator;
    a `MultiplicationCommutator` is held as its factors instead, and
    `weight_conjugate` forms the one buffer of either's conjugation.

    `mat` may be a read-only view (the Hilbert transform's is a view of its
    2N - 1 Toeplitz values); copy it before writing to it."""

    mat: np.ndarray
    window: TruncationWindow
    name: str = "operator"

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=float)
        n = self.window.n_cells
        if self.mat.shape != (n, n):
            raise InvalidConfigurationError(
                f"matrix shape {self.mat.shape} does not match {n} cells"
            )
        _require_finite(self.mat, self.name)

    def _rows_scaled(self, left: np.ndarray) -> np.ndarray:
        """A fresh writable buffer of left_i T_ij."""
        return self.mat * left[:, None]


def _require_finite(mat: np.ndarray, name: str) -> None:
    # min and max propagate NaN and inf without an N x N mask
    if not (np.isfinite(mat.min()) and np.isfinite(mat.max())):
        raise InvalidMatrixError(f"{name} contains non-finite entries")


class MultiplicationCommutator:
    """[M_b, T] held as its factors: entries (b_i - b_j) T_ij, with no N x N
    buffer.  Each read of `mat` forms and checks a fresh dense matrix, which
    is not cached, so a held commutator never pins N^2 memory.  Values and
    an operand on different cell counts raise InvalidConfigurationError."""

    def __init__(self, values: np.ndarray, operand: OperatorMatrix | MultiplicationCommutator):
        n = operand.window.n_cells
        if values.shape != (n,):
            raise InvalidConfigurationError(
                f"symbol has {len(values)} cells, operand {operand.name} has {n}"
            )
        self.values = values
        self.operand = operand
        self.window = operand.window
        self.name = f"[mult,{operand.name}]"

    def _difference(self) -> np.ndarray:
        """(b_i - b_j) T_ij in a fresh buffer; an overflow leaves a non-finite
        entry for the caller's check instead of a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            mat = np.subtract.outer(self.values, self.values)
            mat *= self.operand.mat
        return mat

    @property
    def mat(self) -> np.ndarray:
        mat = self._difference()
        _require_finite(mat, self.name)
        return mat

    def _rows_scaled(self, left: np.ndarray) -> np.ndarray:
        """A fresh writable buffer of left_i (b_i - b_j) T_ij."""
        mat = self._difference()
        mat *= left[:, None]
        return mat


def _resolvable_rows(grid: DyadicGrid, window: TruncationWindow, what: str) -> IntervalTable:
    """The table rows of scale <= j_max - 1, whose Haar functions are
    resolvable: the one table each builder reads.  `what` names the assembly
    in the InvalidConfigurationError a grid that is not cell-aligned raises."""
    if grid.grid_id != STANDARD:
        raise InvalidConfigurationError(
            f"{what} needs cell-aligned intervals; the shifted grid enters "
            "through norms only"
        )
    return _through_scale(interval_table(grid, window), window.j_max - 1)


def _through_scale(rows: IntervalTable, max_scale: int) -> IntervalTable:
    """The scale-major prefix of the rows of scale <= max_scale."""
    return rows[: int(np.searchsorted(rows.j, max_scale, side="right"))]


def _diagonal_blocks(mat: np.ndarray, r0: int, c0: int, count: int, cells: int) -> np.ndarray:
    """Writable (count, cells, cells) view of the blocks on rows
    [r0 + m cells, r0 + (m + 1) cells) x columns [c0 + m cells, c0 + (m + 1) cells),
    m < count."""
    rs, cs = mat.strides
    return as_strided(mat[r0:, c0:], (count, cells, cells), (cells * (rs + cs), rs, cs))


def _term(rows: IntervalTable, coefficients: np.ndarray, window: TruncationWindow, block: Callable) -> list[tuple]:
    """The sum over the scale-major rows I of c_I (u outer v) on I's diagonal
    block, as one block (c, i0, u, v) per scale: c = the scale's
    coefficients, and (u, v) = block(cells) the local pattern on one row's
    cells, a v of length 1 standing for a constant row.  A scale's rows are
    consecutive translations, so their blocks follow one another from i0,
    the first row's first cell."""
    cuts = [0, *(np.flatnonzero(np.diff(rows.j)) + 1).tolist(), len(rows)] if len(rows) else []
    blocks = []
    for r0, r1 in zip(cuts, cuts[1:]):
        i0, i1 = window.cell_slices(rows[r0 : r0 + 1])[0]
        blocks.append((coefficients[r0:r1], i0, *block(i1 - i0)))
    return blocks


def _haar_sum(
    blocks: list[tuple],
    window: TruncationWindow,
    cols: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The columns [a, b) = `cols` (all N when None) of the dense sum of the
    scale blocks, added scale by scale into the N x (b - a) array `out`
    (fresh zeros when None), which is returned.  Each scale writes its
    blocks that lie inside the columns through one view of those diagonal
    blocks, and the at most two it cuts through slices, with (c_I u) v as
    the one temporary; the columns are the dense matrix's bit for bit.  A
    transpose is the list with u and v swapped in every block, and a sum is
    the lists concatenated, which adds the same terms in the same order as
    writing one list into `out` after the other.  Every builder has
    c_I = +-1 or entries +-2^-k in u or v, so (c_I u_i) v_j rounds as
    c_I (u_i v_j) and u_i (v_j c_I) do: the result is `_haar_apply`'s on
    the identity's columns [a, b) bit for bit."""
    n = window.n_cells
    a, b = (0, n) if cols is None else cols
    if out is None:
        out = np.zeros((n, b - a))
    for c, i0, u, v in blocks:
        cells = max(len(u), len(v))  # u or v may be one constant entry
        # blocks m0..m1-1 meet the columns, and f0..f1-1 lie inside them
        m0, m1 = max(0, (a - i0) // cells), min(len(c), -(-(b - i0) // cells))
        f0, f1 = max(0, -(-(a - i0) // cells)), min(len(c), (b - i0) // cells)
        if f0 < f1:
            r0 = i0 + f0 * cells
            view = _diagonal_blocks(out, r0, r0 - a, f1 - f0, cells)
            view += (c[f0:f1, None] * u)[:, :, None] * v
        v = np.broadcast_to(v, cells)
        for m in {m0, m1 - 1}:
            if m0 <= m < m1 and not f0 <= m < f1:  # a block the columns cut
                r0 = i0 + m * cells
                j0, j1 = max(a, r0), min(b, r0 + cells)
                out[r0 : r0 + cells, j0 - a : j1 - a] += (c[m] * u)[:, None] * v[j0 - r0 : j1 - r0]
    return out


def _runs(v: np.ndarray, cells: int) -> list[tuple[int, int, float]]:
    """(s, e, v_s) for each run [s, e) of equal entries of v, read on `cells`
    entries; a v of one entry is one constant run.  No block pattern holds a
    zero, so equal entries have equal bits, and every builder's pattern has
    at most four runs."""
    if len(v) == 1:
        return [(0, cells, v[0])]
    cuts = [0, *(np.flatnonzero(v[1:] != v[:-1]) + 1).tolist(), cells]
    return [(s, e, v[s]) for s, e in zip(cuts, cuts[1:])]


def _haar_apply(blocks: list[tuple], window: TruncationWindow, x: np.ndarray) -> np.ndarray:
    """The scale blocks applied to the N x k columns x, as a fresh N x k
    array; a transpose or a sum is applied as its list (`_haar_sum`).  Each
    scale reads x's rows as (count, cells, k) blocks and adds
    c_I u (v^T x_I).  u is constant on each run of equal entries (`_runs`),
    so each run adds u_s (v^T x_I) c_I to its rows with a (count, k)
    temporary; no N x k temporary or N x N array is formed.  With c_I = +-1
    and x a column of the identity, v^T x_I is v_j exactly, so the columns
    are bit-equal to the dense sum's."""
    k = x.shape[1]
    out = np.zeros((window.n_cells, k))
    for c, i0, u, v in blocks:
        cells = max(len(u), len(v))  # u or v may be one constant entry
        i1 = i0 + len(c) * cells
        # a contiguous constant row: matmul takes an unblocked loop for a
        # stride-0 vector
        row = v if len(v) == cells else np.full(cells, v[0])
        proj = row @ x[i0:i1].reshape(len(c), cells, k)
        proj *= c[:, None]
        rows = out[i0:i1].reshape(len(c), cells, k)  # splitting the row axis is a view
        for s, e, value in _runs(u, cells):
            rows[:, s:e] += (value * proj)[:, None, :]
    return out


def _local_haar(cells: int) -> np.ndarray:
    """h_I in orthonormal cell coordinates on I's cells only, +1/sqrt(cells)
    then -1/sqrt(cells)."""
    amp = 1.0 / math.sqrt(cells)
    h = np.full(cells, amp)
    h[cells // 2 :] = -amp
    return h


def paraproduct_matrix(
    b: Symbol, grid: DyadicGrid, window: TruncationWindow
) -> OperatorMatrix:
    """Sum over enumerated resolvable I of b_hat(I) * (h_I outer avg_I)."""
    rows = _resolvable_rows(grid, window, "paraproduct assembly")
    blocks = _paraproduct(rows, haar_coefficients(b, rows), window)
    return OperatorMatrix(_haar_sum(blocks, window), window, name="paraproduct")


def _paraproduct(rows: IntervalTable, coefficients, window: TruncationWindow) -> list[tuple]:
    width = float(window.cell_width)
    # row pattern: h_I at cells times sqrt(width); column: width/|I| * sqrt(width)/width
    row_top = 1.0 / np.sqrt(rows.length) * math.sqrt(width)
    col = math.sqrt(width) / rows.length
    # +1 on the top half of I's rows, -1 on the bottom half, constant along each row
    block = lambda cells: (np.repeat([1.0, -1.0], cells // 2), np.ones(1))
    return _term(rows, coefficients * row_top * col, window, block)


def haar_multiplier_matrix(
    signs: Mapping[DyadicInterval, int] | Callable[[DyadicInterval], int] | int,
    grid: DyadicGrid,
    window: TruncationWindow,
) -> OperatorMatrix:
    """Sign multiplier: diagonal +/-1 on the resolvable Haar span, identity on
    the unresolved coarse averages.  `signs` is one sign, a callable or a
    mapping of intervals to signs, or InvalidConfigurationError is raised."""
    blocks = _multiplier(signs, _resolvable_rows(grid, window, "sign multiplier assembly"), window)
    return OperatorMatrix(_haar_sum(blocks, window), window, name="haar_multiplier")


def _multiplier(signs, rows: IntervalTable, window: TruncationWindow) -> list[tuple]:
    """The signed Haar projections, then one block of the coarse averages,
    with coefficient 1 and u = v = 1/sqrt(step) on each coarsest interval
    (v as a constant row)."""
    n = window.n_cells
    step = 1 << (window.j_max - window.j_min)  # cells per coarsest interval
    coarse = np.full(step, 1.0 / math.sqrt(step))
    projection = lambda cells: (_local_haar(cells),) * 2
    return [
        *_term(rows, _row_signs(signs, rows), window, projection),
        (np.ones(n // step), 0, coarse, coarse[:1]),
    ]


def _row_signs(signs, rows: IntervalTable) -> np.ndarray:
    """Every row's sign as floats; a sign is the integer -1 or +1
    (`errors.is_integer`: True and 1.0 are not).  One int is checked once,
    before any row is read, so on a table with no row too, and builds no
    interval object; the error names the first row when there is one.  A
    callable or mapping is read and checked on every row, in enumeration
    order."""
    if is_integer(signs):
        if signs not in (-1, 1):
            where = f" on {rows.label(0)}" if len(rows) else ""
            raise InvalidConfigurationError(f"sign pattern must map to +/-1; got {signs}{where}")
        return np.full(len(rows), float(signs))
    if callable(signs):
        sign_of = signs
    else:
        try:
            mapping = dict(signs)
        except (TypeError, ValueError):
            raise InvalidConfigurationError(f"sign pattern {signs!r} is no int, callable or mapping") from None

        def sign_of(interval):
            if interval not in mapping:
                raise InvalidConfigurationError(f"sign pattern has no entry for {interval.label()}")
            return mapping[interval]
    row_signs = []
    for interval in rows.intervals():
        s = sign_of(interval)
        if not is_integer(s) or s not in (-1, 1):
            raise InvalidConfigurationError(
                f"sign pattern must map to +/-1; got {s} on {interval.label()}"
            )
        row_signs.append(s)
    return np.array(row_signs, dtype=float)


def haar_shift_matrix(grid: DyadicGrid, window: TruncationWindow) -> OperatorMatrix:
    """Dyadic shift h_I -> (h_(left child) - h_(right child)) / sqrt(2) on
    every interval whose children's Haar functions are resolvable; zero on the
    orthogonal complement."""
    blocks = _shift(_resolvable_rows(grid, window, "dyadic shift assembly"), window)
    return OperatorMatrix(_haar_sum(blocks, window), window, name="haar_shift")


def _shift(rows: IntervalTable, window: TruncationWindow) -> list[tuple]:
    """The shift on the resolvable rows whose children each hold a Haar pair
    of cells (`_children`)."""
    return _children(rows, np.ones(len(rows)), window, (1.0, -1.0), math.sqrt(2.0))


def _children(
    rows: IntervalTable, coefficients: np.ndarray, window: TruncationWindow, child_signs, divisor: float = 1.0
) -> list[tuple]:
    """The sum over the resolvable rows I of scale <= j_max - 2, whose
    children each hold a Haar pair of cells, of
    c_I ((s_l h_(left child) + s_r h_(right child)) / divisor outer h_I), with
    `coefficients` one c_I per row of `rows`: the shift's and the remainder's
    blocks.  The finest resolvable scale is dropped."""
    rows = _through_scale(rows, window.j_max - 2)
    s_left, s_right = child_signs

    def block(cells):
        # both children carry the same local pattern, on I's two halves
        hc = _local_haar(cells // 2)
        return np.concatenate((s_left * hc, s_right * hc)) / divisor, _local_haar(cells)

    return _term(rows, coefficients[: len(rows)], window, block)


def hilbert_primitive(t: np.ndarray) -> np.ndarray:
    """G(t) = t (ln|t| - 1) with G(0) = 0; G'' integrates 1/(x-y) over boxes."""
    tv = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(tv == 0.0, 0.0, tv * (np.log(np.abs(tv)) - 1.0))
    return out


def hilbert_matrix(window: TruncationWindow) -> OperatorMatrix:
    """Entries <H e_j, e_i> = |cell|^-1 * box integral of 1/(x-y), all pairs
    finite in the principal-value sense; antisymmetric with zero diagonal.

    The box integral over cell_i x cell_j depends on d = i - j only, so G is
    evaluated at the 2N+1 lags d * width, and `.mat` is a read-only Toeplitz
    view over one contiguous array of the 2N-1 box values: O(N) memory, rows
    read forwards, and a write raises ValueError."""
    n = window.n_cells
    width = float(window.cell_width)
    g = hilbert_primitive(np.arange(-n, n + 1) * width)
    # G((d+1)w) - G(dw) - G(dw) + G((d-1)w): with [a,b) the x-cell and [c,d)
    # the y-cell, G(b-c) - G(a-c) - G(b-d) + G(a-d); entry d + n - 1 for lag d
    box = (g[2:] - g[1:-1] - g[1:-1] + g[:-2]) / width
    box[n - 1] = 0.0  # lag 0: the principal value vanishes by antisymmetry
    # lags[m] is the box value of lag n - 1 - m, so row i of H reads
    # lags[n - 1 - i : 2n - 1 - i] forwards
    lags = np.ascontiguousarray(box[::-1])
    return OperatorMatrix(sliding_window_view(lags, n)[::-1], window, name="hilbert")


def weight_conjugate(
    t: OperatorMatrix | MultiplicationCommutator, lam: Weight, mu: Weight
) -> OperatorMatrix:
    """diag(sqrt(d lam)) @ T @ diag(1/sqrt(d mu)), d = `Weight.cell_discretization`.

    Weighted Schatten functionals of T between the mu- and lam-weighted spaces
    are defined as unweighted Schatten functionals of this conjugation.  A
    directly built weight is discretized by its cell averages; a weight
    obtained by `inv()` by the reciprocals of its primal's cell averages,
    which is the dual norm L2(w)* = L2(1/w) on step functions.  Hence
    conjugating by (lam.inv(), mu.inv()) undoes conjugating by (lam, mu),
    and conjugating T^T by (mu.inv(), lam.inv()) gives the transpose of
    conjugating T by (lam, mu).  A weight with a vanishing cell average
    raises DegenerateWeightError.  The result is the one N x N buffer this
    forms: the operand writes its entries times l_i into it, a commutator
    from its factors, and an entry that overflows raises InvalidMatrixError.
    """
    left = np.sqrt(lam.cell_discretization(t.window))
    right = 1.0 / np.sqrt(mu.cell_discretization(t.window))
    # (T * l) * r, as T * l[:, None] * r[None, :] rounds, in one buffer
    with np.errstate(over="ignore"):
        mat = t._rows_scaled(left)
        mat *= right[None, :]
    return OperatorMatrix(
        mat,
        t.window,
        name=f"conj({t.name})",
    )


def multiplication_commutator(
    b: Symbol, t: OperatorMatrix | MultiplicationCommutator
) -> MultiplicationCommutator:
    """[M_b, T] held as b's cell values and T, with entries (b_i - b_j) T_ij:
    it forms no N x N buffer.  `weight_conjugate` forms the one buffer of
    its conjugation, and each read of its `mat` forms one more.  A symbol
    whose cells are not T's raises InvalidConfigurationError."""
    return MultiplicationCommutator(b.cell_values_on(t.window, f"operand {t.name}"), t)


def _remainder(
    rows: IntervalTable, coefficients: np.ndarray, window: TruncationWindow, child_signs, scale: float
) -> list[tuple]:
    """Sum over the resolvable rows I of scale <= j_max - 2 of
    (b_hat(I) / sqrt(scale |I|)) * ((s_l h_(left child) + s_r h_(right child))
    outer h_I), with `coefficients` the b_hat of every resolvable row
    (`_children`)."""
    return _children(rows, coefficients / np.sqrt(scale * rows.length), window, child_signs)


# (child signs, scale) of each remainder form: "displayed" is
# b_hat(I) / |I|^1/2 (k_I outer h_I) with k_I = h_(right child) - h_(left child);
# "derived", b_hat(I) / sqrt(2 |I|) ((h_left + h_right) outer h_I), is what
# direct dyadic algebra gives for the truncated system, and with it the shift
# expansion closes exactly for step symbols
_REMAINDERS = {"displayed": ((-1.0, 1.0), 1.0), "derived": ((1.0, 1.0), 2.0)}


def _largest_singular_value(a: np.ndarray) -> float:
    """sigma_max of the N x k array a, as s sqrt(lambda_max) with s = max |a|
    and lambda_max the top eigenvalue of the k x k Gram (a/s)^T (a/s): no
    SVD, and no square under- or overflows, since every scaled entry is at
    most 1 and one of them is 1, so lambda_max >= 1.  A zero array gives
    exactly 0.0.  It differs from the SVD's sigma_max by rounding only."""
    s = max(float(a.max()), -float(a.min()))
    if s == 0.0:
        return 0.0
    scaled = a / s
    return s * math.sqrt(np.linalg.eigvalsh(scaled.T @ scaled)[-1])


@dataclass
class ExpansionResidual:
    operator_norm: float
    frobenius_norm: float
    lhs_norm: float


def expansion_residual(
    b: Symbol,
    grid: DyadicGrid,
    window: TruncationWindow,
    kind: str = "shift",
    signs: Mapping[DyadicInterval, int] | Callable[[DyadicInterval], int] | int = 1,
    region: tuple[float, float] = (0.0, 1.0),
    remainder: str = "displayed",
) -> ExpansionResidual:
    """Residual of the commutator expansion, restricted to inputs supported in
    the interior region.

    kind="shift": [M_b, S] against the four paraproduct compositions plus a
    remainder R; remainder="displayed" uses the k_I form, remainder="derived"
    uses the child-sum form that closes the identity exactly for step data
    (`_REMAINDERS`).  kind="multiplier": [M_b, T_eps] against the four
    compositions alone.  Each composition is ordered by [b, T] f = b T f - T(bf).
    An unknown remainder raises InvalidConfigurationError for either kind.
    The identity is never asserted; the restricted residual is measured and
    reported.

    Restricting the domain to the region keeps only its columns, E, the
    identity's columns on the region.  Every factor is block diagonal over
    the coarsest intervals, so those columns are zero outside the blocks the
    region meets, which are taken as a window of their own, with one table
    of its resolvable rows.  There the paraproduct, the remainder and S (or
    T_eps) are never assembled: T E, (pi + pi*) E and R E are the dense
    matrices' columns on the region, which `_haar_sum` writes bit for bit
    (so `lhs_norm` keeps the dense bits too), and (pi + pi*) T E and
    T (pi + pi*) E are applied scale by scale; all are N x k blocks for the
    blocks' N cells and the region's k.  The result is the same operator;
    only the rounding of the residual's sums, and of its operator norm,
    which is sigma_max from the k x k Gram (`_largest_singular_value`)
    rather than an SVD, can differ from dense products, and a region that
    meets every block is computed on the whole window.  The multiplier
    expansion reads and checks `signs` only on the intervals inside those
    blocks.  A region with no cell, or a symbol
    whose cells are not the window's, raises InvalidConfigurationError; a
    region bound that is not a finite number raises InvalidParameterError.
    """
    try:
        form = _REMAINDERS[remainder]
    except (KeyError, TypeError):
        raise InvalidConfigurationError(f"unknown remainder {remainder!r}") from None
    i0, i1 = window.slice_of(*region)
    if i1 <= i0:
        raise InvalidConfigurationError(f"region [{region[0]}, {region[1]}) has no cell")
    # the coarsest intervals the region meets, as a window of their cells
    step = 1 << (window.j_max - window.j_min)
    c0, c1 = i0 // step * step, -(-i1 // step) * step
    width = window.cell_width
    blocks = TruncationWindow(
        window.lo + c0 * width, window.lo + c1 * width, window.j_min, window.j_max
    )
    i0, i1 = i0 - c0, i1 - c0
    # one table of the resolvable rows serves every factor
    rows = _resolvable_rows(grid, blocks, "paraproduct assembly")
    values = b.cell_values_on(window, "the window")
    coefficients = haar_coefficients(b, rows)
    pi = _paraproduct(rows, coefficients, blocks)
    rem = []  # the multiplier expansion has no remainder terms
    if kind == "shift":
        t = _shift(rows, blocks)
        rem = _remainder(rows, coefficients, blocks, *form)
    elif kind == "multiplier":
        t = _multiplier(signs, rows, blocks)
    else:
        raise InvalidConfigurationError(f"unknown expansion kind {kind!r}")

    # the region's columns E of the identity pick the dense columns [i0, i1)
    picked = (i0, i1)
    cols = _haar_sum(t, blocks, picked)  # T E
    # (pi t - t pi + pi* t - t pi*) E: pi and pi* applied to T E, T to (pi + pi*) E
    sym = pi + [(c, i0, v, u) for c, i0, u, v in pi]  # pi + pi*, with u and v swapped
    rhs = _haar_apply(sym, blocks, cols)
    rhs -= _haar_apply(t, blocks, _haar_sum(sym, blocks, picked))
    _haar_sum(rem, blocks, picked, out=rhs)  # + R E
    # [M_b, T] entrywise: equal to mult @ t - t @ mult, whose sums add exact zeros
    vals = values[c0:c1]
    lhs = vals[:, None] * cols - cols * vals[None, i0:i1]
    resid = np.subtract(lhs, rhs, out=rhs)
    return ExpansionResidual(
        operator_norm=_largest_singular_value(resid),
        frobenius_norm=float(np.linalg.norm(resid)),
        lhs_norm=float(np.linalg.norm(lhs)),
    )

