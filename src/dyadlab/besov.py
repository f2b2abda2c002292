"""Norm functionals: dyadic Besov (three equivalent forms), continuous Besov
at p=2 by tensor quadrature, weighted dyadic BMO, and finite-scale VMO tails.

Dyadic norms sum (|b_hat(I)| |I|^1/2 / nu(I))^p over enumerated intervals;
the second and third forms replace the nu factor by the equivalent weighted
expressions built from lam and mu integrals.  The three forms, BMO and the VMO
tails read one `interval_table(grid, window)`, and compute over the whole
table at once: Haar coefficients from `haar_coefficients`, weight brackets
from `Weight.integrals`, BMO's mean oscillations from one (rows, cells) block
per cell span, and the square form's subtree sums one level at a time, matched
on the table's integer j and k columns.  A `NormReport` keeps its tables
and builds row labels from those columns only when they are read; interval
objects are built only for the rows `interval_form_ratios` returns.
The continuous energy is the double integral of |b(x)-b(y)|^p / (x-y)^2 *
lam(x) / mu(y) over the window square, and its square root at p=2 is the
continuous norm.  Separated cell pairs take tensor Gauss-Legendre in row
blocks; near-diagonal cell pairs are split once into half cells and computed
as 12 arrays over the cells, one per cell lag and half-cell pair, where the
touching half-pairs take the Lipschitz difference-quotient bound.  All
reductions run in a fixed order, so results do not depend on thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateWeightError, InvalidConfigurationError, InvalidParameterError
from .grids import (
    DyadicGrid,
    DyadicInterval,
    IntervalTable,
    TruncationWindow,
    enumerate_intervals,
    grid_shift,
    interval_table,
)
from .symbols import Symbol, haar_coefficients
from .weights import BloomWeight, ConstantWeight, Weight

_TINY = np.finfo(float).smallest_normal


@dataclass
class NormReport:
    """A norm value with its per-item contribution table.

    `terms` holds one contribution per item.  The items are the rows of
    `tables`, in order, or the window's x-cells when there is no table.
    Their labels, `DyadicInterval.label` from each row's j and k columns or
    xcell_i, are built only when `labels`, `contributions` or `to_csv` reads
    them.

    value >= 0, and for the dyadic norms value == 0 exactly when every Haar
    term |b_hat(I)| |I|^-1/2 vanishes, even where its contribution, the
    term's p-th power, underflows to 0.
    """

    value: float
    terms: np.ndarray
    tables: tuple[IntervalTable, ...] = ()
    params: dict = field(default_factory=dict)
    id_label: str = "interval_id"
    error_estimate: float | None = None

    def labels(self) -> list[str]:
        """The items' labels, in order, built on each call."""
        if not self.tables:
            return [f"xcell_{i}" for i in range(len(self.terms))]
        return [label for table in self.tables for label in table.labels()]

    @property
    def contributions(self) -> list[tuple[str, float]]:
        """(label, contribution) per item, in order."""
        return list(zip(self.labels(), self.terms.tolist()))

    def to_csv(self, path) -> None:
        lines = [f"{self.id_label},contribution,cumulative"]
        running = 0.0
        for label, c in self.contributions:
            running += c
            lines.append(f"{label},{c:.11e},{running:.11e}")
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _bracket(weights: BloomWeight | Weight, form: int, table: IntervalTable) -> np.ndarray:
    """The per-interval weight bracket of `form`, one entry per table row:
    q1 = |I| / nu(I), q2 = (lam(I) mu^-1(I))^1/2 / |I| or
    q3 = |I| / (lam^-1(I) mu(I))^1/2.  A bare weight serves as nu in form 1."""
    lo, hi, length = table.left, table.right, table.length
    with np.errstate(divide="ignore", invalid="ignore"):
        if form == 1:
            nu = weights.nu if isinstance(weights, BloomWeight) else weights
            q = length / nu.integrals(lo, hi)
        elif not isinstance(weights, BloomWeight):
            raise InvalidConfigurationError(
                f"form {form} needs both weights (mu, lam); got a bare weight"
            )
        elif form == 2:
            q = np.sqrt(weights.lam.integrals(lo, hi) * weights.mu.inv().integrals(lo, hi)) / length
        else:
            q = length / np.sqrt(weights.lam.inv().integrals(lo, hi) * weights.mu.integrals(lo, hi))
    bad = ~(np.isfinite(q) & (q > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateWeightError(
            f"form {form} weight bracket is {q[i]!r} on {table.label(i)}"
        )
    return q


def _haar_terms(b: Symbol, table: IntervalTable) -> np.ndarray:
    """|b_hat(I)| |I|^-1/2 per table row, the bracket-free factor of each term."""
    return np.abs(haar_coefficients(b, table)) / np.sqrt(table.length)


def _root_of_power_sum(t: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """(sum t^p)^(1/p) of the terms t >= 0, with the powers t^p.  The plain
    expression serves while the sum is a normal float and so is its root.
    Otherwise the powers under- or overflowed, and the sum is scaled by the
    largest term m: m (sum (t/m)^p)^(1/p).  A value past the float range
    raises InvalidParameterError."""
    with np.errstate(over="ignore"):
        powers = t**p
    try:
        total = math.fsum(powers)
        value = total ** (1.0 / p)
    except OverflowError:  # fsum's partial sums, or the float ** of the root
        total = value = math.inf
    if _TINY <= total < math.inf and _TINY <= value < math.inf:
        return value, powers
    m = float(np.max(t, initial=0.0))
    if m == 0.0:
        return 0.0, powers
    try:
        value = m * math.fsum((t / m) ** p) ** (1.0 / p)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParameterError(f"the B_{p:g} norm lies past the float range")
    return value, powers


def dyadic_besov_norm(
    b: Symbol,
    weights: BloomWeight | Weight,
    p: float,
    grid: DyadicGrid,
    window: TruncationWindow,
    form: int = 1,
) -> NormReport:
    """p-th root of the sum of the per-interval terms (|b_hat(I)| |I|^-1/2 q)^p,
    where `form` selects which of the three equivalent brackets q is.  A norm
    past the float range raises InvalidParameterError."""
    if not 0 < p < math.inf:
        raise InvalidParameterError("p must lie in (0, inf)")
    if form not in (1, 2, 3):
        raise InvalidConfigurationError(f"unknown form {form}")
    table = interval_table(grid, window)
    q = _bracket(weights, form, table)
    value, terms = _root_of_power_sum(_haar_terms(b, table) * q, p)
    return NormReport(
        value=value,
        terms=terms,
        tables=(table,),
        params={"p": p, "form": form, "grid": grid.grid_id},
    )


@dataclass(frozen=True)
class IntervalFormRow:
    interval: DyadicInterval
    q1: float
    q2: float
    q3: float
    cs_gap: float  # mu^-1(I)^1/2 lam(I)^1/2 - nu^-1(I), nonnegative by Cauchy-Schwarz


def interval_form_ratios(
    pair: BloomWeight, grid: DyadicGrid, window: TruncationWindow
) -> tuple[list[IntervalFormRow], float]:
    """Per-interval values of the three equivalent weight brackets and the
    worst pairwise ratio across all enumerated intervals."""
    table = interval_table(grid, window)
    q1, q2, q3 = (_bracket(pair, form, table) for form in (1, 2, 3))
    # q2 |I| is (lam(I) mu^-1(I))^1/2 exactly, as |I| is a power of two
    cs_gap = q2 * table.length - pair.nu.inv().integrals(table.left, table.right)
    qs = np.stack([q1, q2, q3])
    worst = float(np.max(qs.max(axis=0) / qs.min(axis=0), initial=1.0))
    # each returned row carries its interval object, in table order
    intervals = enumerate_intervals(grid, window)
    columns = (intervals, q1.tolist(), q2.tolist(), q3.tolist(), cs_gap.tolist())
    return [IntervalFormRow(*row) for row in zip(*columns)], worst


# ----------------------------------------------------------------------------
# continuous energy by tensor quadrature

# Gauss-Legendre nodes per cell, and per half cell near the diagonal.
_NODES = 4


def continuous_energy(
    b: Symbol,
    p: float,
    lam: Weight,
    mu: Weight,
    window: TruncationWindow,
) -> tuple[float, float, np.ndarray]:
    """Double integral of |b(x)-b(y)|^p / |x-y|^2 * lam(x) * mu^-1(y) over the
    window square.

    Separated cell pairs use tensor Gauss-Legendre.  Cell pairs closer than one
    cell are split once into half cells and computed as 12 arrays over the
    cells, one per cell lag d in {-1, 0, 1} and half-cell pair (hx, hy).  A
    half-pair whose offset 2d + hy - hx is at most one half cell touches or
    overlaps, and takes the Lipschitz difference-quotient bound, whose total
    mass is returned as the error estimate; the other half-pairs take tensor
    Gauss-Legendre.  Returns (value, error_estimate, per-x-cell totals).
    Cells, and half cells near the diagonal, take 4-node Gauss-Legendre.  For
    p <= 1 the near-diagonal |x-y|^(p-2) is not integrable, so p must be
    finite and exceed 1, or InvalidParameterError is raised.
    """
    if not 1.0 < p < math.inf:
        raise InvalidParameterError(f"p must lie in (1, inf); got {p!r}")
    if not b.is_lipschitz:
        raise InvalidConfigurationError(
            "continuous energy needs a Lipschitz symbol; jump symbols diverge"
        )
    if p < 2 and not (
        isinstance(lam, ConstantWeight) and isinstance(mu, ConstantWeight)
    ):
        raise InvalidConfigurationError(
            "p < 2 near-diagonal closed form is available only for constant weights"
        )
    lip = float(b.lipschitz)
    n = window.n_cells
    width = float(window.cell_width)
    edges = window.cell_edges()
    mu_inv = mu.inv()

    gx, gw = np.polynomial.legendre.leggauss(_NODES)
    # flatten (cell, node) grids once for both axes
    half = 0.5 * width
    centers = window.cell_midpoints()
    xs = (centers[:, None] + half * gx[None, :]).ravel()
    ws = np.tile(0.5 * width * gw, n)
    fx = np.asarray(b.eval(xs), dtype=float)
    lam_x = np.asarray(lam.eval(xs), dtype=float) * ws
    mu_y = np.asarray(mu_inv.eval(xs), dtype=float) * ws

    per_cell = np.zeros(n)
    block = max(1, 262144 // (n * _NODES) + 1)
    cell_of = np.repeat(np.arange(n), _NODES)
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        r0, r1 = i0 * _NODES, i1 * _NODES
        dx = xs[r0:r1, None] - xs[None, :]
        df = np.abs(fx[r0:r1, None] - fx[None, :])
        cells_r = cell_of[r0:r1]
        sep = np.abs(cells_r[:, None] - cell_of[None, :]) >= 2
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(sep, df**p / (dx * dx), 0.0)
        contrib = integrand * lam_x[r0:r1, None] * mu_y[None, :]
        per_cell[i0:i1] += np.add.reduceat(contrib.sum(axis=1), np.arange(0, (i1 - i0) * _NODES, _NODES))

    # near-diagonal pairs: half cell X = 2i + hx spans [ah[X], bh[X]), with
    # Gauss nodes xh[X] and the lam, mu^-1 quadrature weights there
    ah = (edges[:-1, None] + np.array([0.0, half])).ravel()
    bh = ah + half
    xh = (0.5 * (ah + bh))[:, None] + 0.25 * width * gx
    wq = 0.25 * width * gw
    fh = np.asarray(b.eval(xh), dtype=float)
    lam_h = np.asarray(lam.eval(xh), dtype=float) * wq
    mu_h = np.asarray(mu_inv.eval(xh), dtype=float) * wq
    lam_int, mu_int = lam.integrals(ah, bh), mu_inv.integrals(ah, bh)

    def prim(t):
        return abs(t) ** p / (p * (p - 1.0))

    # the 12 combinations of cell lag d and half cells (hx, hy); cell edges
    # are exact floats, so the half-cell offset o of y from x decides whether
    # the pair touches or overlaps (|o| <= 1).  mass holds the Lipschitz
    # bounds, one column per combination
    mass = np.zeros((n, 12))
    combos = [(d, hx, hy) for d in (-1, 0, 1) for hx in (0, 1) for hy in (0, 1)]
    for col, (d, hx, hy) in enumerate(combos):
        i0, i1 = max(0, -d), min(n, n - d)
        o = 2 * d + hy - hx
        x = 2 * np.arange(i0, i1) + hx
        y = x + o
        if abs(o) > 1:  # separated half cells: tensor Gauss-Legendre
            dx = xh[x][:, :, None] - xh[y][:, None, :]
            df = np.abs(fh[x][:, :, None] - fh[y][:, None, :])
            pairs = df**p / (dx * dx) * lam_h[x][:, :, None] * mu_h[y][:, None, :]
            per_cell[i0:i1] += pairs.reshape(i1 - i0, _NODES * _NODES).sum(axis=1)
            continue
        if p < 2.0:
            # constant weights only: the |x-y|^(p-2) factor integrates exactly
            box = prim((1 - o) * half) - prim(o * half) - prim(o * half) + prim((1 + o) * half)
            mass[i0:i1, col] = lip**p * lam.value * mu_inv.value * box
        else:
            # the pair's diameter to the power p - 2, exactly 1 at p = 2
            diam = (1 + abs(o)) * half
            mass[i0:i1, col] = lip**p * diam ** (p - 2.0) * lam_int[x] * mu_int[y]
        per_cell[i0:i1] += mass[i0:i1, col]
    # the error estimate adds the bounds one at a time, cell by cell
    return float(np.sum(per_cell)), float(np.cumsum(mass)[-1]), per_cell


def continuous_besov_norm_p2(
    b: Symbol,
    lam: Weight,
    mu: Weight,
    window: TruncationWindow,
) -> NormReport:
    """Square root of the p=2 energy, with the near-diagonal bound mass as the
    quadrature error estimate."""
    energy, err, per_cell = continuous_energy(b, 2.0, lam, mu, window)
    return NormReport(
        value=math.sqrt(energy),
        terms=per_cell,
        params={"p": 2.0, "lam": lam.label, "mu": mu.label},
        id_label="pair_id",
        error_estimate=err,
    )


def intersection_norm(
    b: Symbol,
    weights: BloomWeight | Weight,
    grid0: DyadicGrid,
    grid1: DyadicGrid,
    window: TruncationWindow,
    p: float = 2.0,
) -> NormReport:
    """Sum of the two dyadic norms, one per grid; the contributions are the
    first grid's rows, then the second's, each labelled with its grid id.  A
    sum past the float range raises InvalidParameterError."""
    r0 = dyadic_besov_norm(b, weights, p, grid0, window, form=1)
    r1 = dyadic_besov_norm(b, weights, p, grid1, window, form=1)
    value = r0.value + r1.value
    if not math.isfinite(value):
        raise InvalidParameterError(f"the intersection B_{p:g} norm lies past the float range")
    return NormReport(
        value=value,
        terms=np.concatenate((r0.terms, r1.terms)),
        tables=r0.tables + r1.tables,
        params={"p": p, "grids": (grid0.grid_id, grid1.grid_id)},
    )


# ----------------------------------------------------------------------------
# weighted BMO and VMO tails


@dataclass
class BmoReport:
    sup_average: float
    square_form: float
    argmax_average: str
    argmax_square: str


def _abs_deviation_integrals(
    vals: np.ndarray, edges: np.ndarray, width: float, a: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Row i: the integral over [a[i], c[i]) of |b - avg_[a[i],c[i]) b| for the
    step view `vals` of b on the cells between `edges` (each `width` wide),
    exact with fractional end cells; cells outside the edges are dropped.

    Rows that meet the same number of cells are gathered into one
    (rows, cells) block, so work and memory stay O(rows x cells); each row of
    a block is summed as a slice of its own cells would be.
    """
    # every cell i0 <= i < i1 meets [a, c) in positive length: each edge minus
    # lo is a float, so rounding (a - lo) or (c - lo) never crosses an edge
    i0 = np.maximum(0, np.floor((a - edges[0]) / width)).astype(np.intp)
    i1 = np.minimum(len(vals), np.ceil((c - edges[0]) / width)).astype(np.intp)
    span = i1 - i0
    out = np.empty(len(span))
    for cells in np.unique(span).tolist():
        rows = np.flatnonzero(span == cells)
        idx = i0[rows, None] + np.arange(cells)
        cov = np.minimum(c[rows, None], edges[idx + 1]) - np.maximum(a[rows, None], edges[idx])
        v = vals[idx]
        avg = np.sum(v * cov, axis=1) / np.sum(cov, axis=1)
        out[rows] = np.sum(np.abs(v - avg[:, None]) * cov, axis=1)
    return out


def _subtree_sums(terms: np.ndarray, table: IntervalTable) -> np.ndarray:
    """Row i: terms[i] plus the terms of every descendant of row i in the
    table.  Levels are summed finest first, and each row adds its left
    child's sum, then its right child's.  Child rows are matched on the
    integer columns: the children of (j, k) are (j + 1, 2k + t) and
    (j + 1, 2k + t + 1), t = 3 * grid_shift(j)."""
    j, k = table.j, table.k
    sums = terms.copy()
    levels = np.unique(j).tolist()
    for level in reversed(levels):
        kids = np.flatnonzero(j == level + 1)
        if kids.size == 0:
            continue
        order = np.argsort(k[kids], kind="stable")
        kid_k = k[kids][order]
        rows = np.flatnonzero(j == level)
        first = 2 * k[rows] + int(3 * grid_shift(table.grid_id, level))
        for want in (first, first + 1):
            at = np.minimum(np.searchsorted(kid_k, want), kid_k.size - 1)
            hit = kid_k[at] == want
            sums[rows[hit]] += sums[kids[order[at[hit]]]]
    return sums


def weighted_bmo_dyadic(
    b: Symbol,
    pair: BloomWeight,
    grid: DyadicGrid,
    window: TruncationWindow,
) -> BmoReport:
    """Both equivalent dyadic BMO functionals.

    The sup-average form takes sup over enumerated I of the nu-normalized mean
    oscillation; the square form takes sup over K of the mu^-1(K)-normalized
    sum of squared coefficient terms over enumerated descendants of K.  A
    bare weight in place of the pair, or a symbol whose cells are not the
    window's, raises InvalidConfigurationError.
    """
    if not isinstance(pair, BloomWeight):
        raise InvalidConfigurationError("the BMO square form needs both weights (mu, lam); got a bare weight")
    values = b.cell_values_on(window, "the window")
    table = interval_table(grid, window)
    lo, hi = table.left, table.right
    deviation = _abs_deviation_integrals(values, window.cell_edges(), float(window.cell_width), lo, hi)
    # deviation / nu(I), with nu(I) read through the form-1 bracket |I| / nu(I)
    sup_avg, arg_avg = _sup(deviation * _bracket(pair, 1, table) / table.length, table)

    # square form, accumulated bottom-up over the interval tree
    mu_inv = pair.mu.inv().integrals(lo, hi)
    bh = haar_coefficients(b, table)
    s_term = bh * bh * mu_inv * mu_inv * pair.lam.integrals(lo, hi) / table.length**3
    sup_sq, arg_sq = _sup(_subtree_sums(s_term, table) / mu_inv, table)
    return BmoReport(sup_avg, sup_sq, arg_avg, arg_sq)


def _sup(values: np.ndarray, table: IntervalTable) -> tuple[float, str]:
    """The largest positive value and the label of its first row; (0.0, "")
    when no value is positive."""
    positive = np.where(values > 0, values, 0.0)
    best = float(np.max(positive, initial=0.0))
    if best == 0.0:
        return 0.0, ""
    return best, table.label(int(np.argmax(positive)))


@dataclass
class VmoTailRow:
    radius: float
    small_scale: float
    large_scale: float
    far_field: float


@dataclass
class VmoTailReport:
    rows: list[VmoTailRow]
    total: float
    center: float


def vmo_tail_report(
    b: Symbol,
    weights: BloomWeight | Weight,
    grid: DyadicGrid,
    window: TruncationWindow,
    ladder: Sequence[float] | None = None,
    center: float | None = None,
) -> VmoTailReport:
    """Finite-scale surrogate for the three vanishing-oscillation limits:
    partial sums of squared form-1 contributions restricted to |I| < a,
    |I| > a, and I disjoint from the ball B(center, a), tabulated over a
    ladder of radii.  A center that is not finite, or a radius that is not
    positive and finite, raises InvalidParameterError (naming NaN as such)."""
    if center is None:
        center = float(window.lo + window.span / 2)
    if ladder is None:
        ladder = [2.0 ** (-j) for j in range(window.j_min, window.j_max + 1)]
    if math.isnan(center) or any(math.isnan(radius) for radius in ladder):
        raise InvalidParameterError("VMO tail center and radii must not be NaN")
    if not math.isfinite(center):
        raise InvalidParameterError(f"VMO tail center {center!r} is not finite")
    for radius in ladder:
        if not 0.0 < radius < math.inf:
            raise InvalidParameterError(f"VMO tail radius {radius!r} is not positive and finite")
    table = interval_table(grid, window)
    terms = (_haar_terms(b, table) * _bracket(weights, 1, table)) ** 2
    # fsum rounds each partial sum once, so tails over nested sets stay monotone
    rows = [
        VmoTailRow(
            radius,
            math.fsum(terms[table.length < radius]),
            math.fsum(terms[table.length > radius]),
            math.fsum(terms[(table.right <= center - radius) | (table.left >= center + radius)]),
        )
        for radius in ladder
    ]
    return VmoTailReport(rows, math.fsum(terms), center)
