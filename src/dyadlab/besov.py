"""Norm functionals: dyadic Besov (three equivalent forms), the continuous
Besov energy by tensor quadrature, weighted dyadic BMO, and finite-scale VMO
tails.

Dyadic norms sum (|b_hat(I)| |I|^1/2 / nu(I))^p over enumerated intervals;
the second and third forms replace the nu factor by the equivalent weighted
expressions built from lam and mu integrals.  The three forms, BMO and the VMO
tails read one `interval_table(grid, window)`, and compute over the whole
table at once: Haar coefficients from `haar_coefficients`, weight brackets
from `Weight.integrals`, BMO's mean oscillations from one (rows, cells) block
per cell span, and the square form's subtree sums one level at a time, matched
on the table's integer j and k columns.  The VMO tails are `math.fsum`s over
the nonzero terms only, as Python lists: fsum is exact, so leaving out the
zeros (most rows of a sparse symbol) keeps every bit.  A `NormReport` keeps
its tables and builds row labels from those columns only when they are read;
interval objects are built only for the rows `interval_form_ratios` returns.
The continuous energy is the double integral of ((b(x)-b(y)) / (x-y))^2 *
lam(x) / mu(y) over the window square, the squared Hilbert-Schmidt norm of
[b, H] from L2(mu) to L2(lam).  It is reported as the energy, in the units of
its error estimate.  For a Lipschitz b the quotient is bounded, so one tensor
Gauss-Legendre rule, with different node counts in x and y, runs over every
cell pair at two orders; cells at a power weight's singular point are cut
there and take a graded rule.  The fine rule is the value and the gap between
the two is the estimate, a bound for constant and power weights.  All
reductions run in a fixed order, so results do not depend on thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateWeightError, InvalidConfigurationError, InvalidParameterError, is_integer, real
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
from .weights import BloomWeight, PowerWeight, Weight

_TINY = np.finfo(float).smallest_normal


@dataclass
class NormReport:
    """A dyadic norm value with its per-interval contribution table.

    `terms` holds one contribution per row of `tables`, in order.  The rows'
    labels, `DyadicInterval.label` from each row's j and k columns, are
    built only when `labels`, `contributions` or `to_csv` reads them.

    value >= 0, and value == 0 exactly when every Haar term
    |b_hat(I)| |I|^-1/2 vanishes, even where its contribution, the term's
    p-th power, underflows to 0.
    """

    value: float
    terms: np.ndarray
    tables: tuple[IntervalTable, ...]

    def labels(self) -> list[str]:
        """The rows' labels, in order, built on each call."""
        return [label for table in self.tables for label in table.labels()]

    @property
    def contributions(self) -> list[tuple[str, float]]:
        """(label, contribution) per row, in order."""
        return list(zip(self.labels(), self.terms.tolist()))

    def to_csv(self, path) -> None:
        lines = ["interval_id,contribution,cumulative"]
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
        total = math.fsum(powers.tolist())
        value = total ** (1.0 / p)
    except OverflowError:  # fsum's partial sums, or the float ** of the root
        total = value = math.inf
    if _TINY <= total < math.inf and _TINY <= value < math.inf:
        return value, powers
    m = float(np.max(t, initial=0.0))
    if m == 0.0:
        return 0.0, powers
    try:
        value = m * math.fsum(((t / m) ** p).tolist()) ** (1.0 / p)
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
    where `form` selects which of the three equivalent brackets q is.  A form
    that is not the integer 1, 2 or 3 (`errors.is_integer`: a bool or a float
    is not) raises InvalidConfigurationError; a p that is not a positive real
    number (`errors.real`), or a norm past the float range,
    InvalidParameterError."""
    p = real(p, "p must lie in (0, inf)", above=0.0)
    if not is_integer(form) or form not in (1, 2, 3):
        raise InvalidConfigurationError(f"unknown form {form!r}")
    table = interval_table(grid, window)
    q = _bracket(weights, form, table)
    value, terms = _root_of_power_sum(_haar_terms(b, table) * q, p)
    return NormReport(
        value=value,
        terms=terms,
        tables=(table,),
    )


class IntervalFormRow(NamedTuple):
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
    columns = (q1.tolist(), q2.tolist(), q3.tolist(), cs_gap.tolist())
    return list(map(IntervalFormRow, enumerate_intervals(grid, window), *columns)), worst


# ----------------------------------------------------------------------------
# continuous energy by tensor quadrature

# Gauss-Legendre node counts (x, y) of the coarse and the fine rule on a plain
# cell, then per piece of a cell cut at a singular point.  x and y take
# different counts, so no node pair lies on the diagonal x = y.
_RULES = (((4, 5), (20, 21)), ((8, 9), (40, 41)))

# Most (x node, y node) entries in one block of the quotient array; this
# bounds the memory of a call, and the result does not depend on it.
_BLOCK_ENTRIES = 262144


def _energy_nodes(
    window: TruncationWindow, cuts: list[float], m: int, m_graded: int
) -> tuple[np.ndarray, ...]:
    """Nodes, weights and cell indices of one axis of the tensor rule.  A cell
    that holds or touches a point of `cuts` is cut there, and each piece takes
    m_graded-node Gauss-Legendre in u under s(u) = u^4 / (u^4 + (1-u)^4),
    which clusters the nodes at both ends; every other cell takes m nodes."""
    edges = window.cell_edges()
    touched = np.zeros(window.n_cells, dtype=bool)
    for c in cuts:
        touched |= (edges[:-1] <= c) & (c <= edges[1:])
    ends = np.unique(np.concatenate([edges, [c for c in cuts if edges[0] < c < edges[-1]]]))
    cell = np.searchsorted(edges, ends[:-1], side="right") - 1
    parts = []
    for graded, count in ((False, m), (True, m_graded)):
        g, w = np.polynomial.legendre.leggauss(count)
        u, w = 0.5 * (g + 1.0), 0.5 * w
        if graded:
            d = u**4 + (1.0 - u) ** 4
            u, w = u**4 / d, w * 4.0 * u**3 * (1.0 - u) ** 3 / d**2
        sel = touched[cell] == graded
        lo, length = ends[:-1][sel], np.diff(ends)[sel]
        nodes = (lo[:, None] + length[:, None] * u).ravel()
        parts.append((nodes, np.outer(length, w).ravel(), np.repeat(cell[sel], count)))
    return tuple(np.concatenate(z) for z in zip(*parts))


def continuous_energy(
    b: Symbol,
    lam: Weight,
    mu: Weight,
    window: TruncationWindow,
) -> tuple[float, float, np.ndarray]:
    """Double integral of ((b(x)-b(y)) / (x-y))^2 * lam(x) * mu^-1(y) over the
    window square, the squared S_2 norm of [b, H] from L2(mu) to L2(lam).

    Returns (value, estimate, per-x-cell totals).  For a Lipschitz b the
    quotient is bounded, so one tensor Gauss-Legendre rule runs over every
    cell pair, with 4 nodes in x by 5 in y per cell, then 8 by 9; a cell at
    the centre of a `PowerWeight` lam or mu is cut there, and each piece takes
    a graded 20 by 21, then 40 by 41.  The value and per-cell totals are the
    finer rule's, and the estimate is the gap between the two rules: a bound
    for constant and power weights, but only an estimate for weights that
    declare no singular point (`QuadratureWeight`, `SpikedLatticeWeight`).  A
    symbol that is not Lipschitz raises InvalidConfigurationError, and an
    energy past the float range InvalidParameterError.
    """
    if not b.is_lipschitz:
        raise InvalidConfigurationError(
            "continuous energy needs a Lipschitz symbol; jump symbols diverge"
        )
    cuts = sorted({w.center for w in (lam, mu) if isinstance(w, PowerWeight)})
    mu_inv = mu.inv()
    totals = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (mx, my), (gx, gy) in _RULES:
            xs, wx, cell_x = _energy_nodes(window, cuts, mx, gx)
            ys, wy, _ = _energy_nodes(window, cuts, my, gy)
            fx, fy = (np.asarray(b.eval(t), dtype=float) for t in (xs, ys))
            lam_x = np.asarray(lam.eval(xs), dtype=float) * wx
            mu_y = np.asarray(mu_inv.eval(ys), dtype=float) * wy
            # np.sum per x-node row, then np.bincount into cells: a fixed order
            # with no BLAS product, so results do not depend on thread count
            rows = np.empty(len(xs))
            block = max(1, _BLOCK_ENTRIES // len(ys))
            for r0 in range(0, len(xs), block):
                r = slice(r0, r0 + block)
                q = (fx[r, None] - fy) / (xs[r, None] - ys)
                rows[r] = np.sum(q * q * mu_y, axis=1) * lam_x[r]
            totals.append(np.bincount(cell_x, weights=rows, minlength=window.n_cells))
        coarse, fine = totals
        value = float(np.sum(fine))
        estimate = abs(value - float(np.sum(coarse)))
    if not (math.isfinite(value) and math.isfinite(estimate)):
        raise InvalidParameterError("the continuous energy lies past the float range")
    return value, estimate, fine


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
    (j + 1, 2k + t + 1), t = 3 * grid_shift(j).  Each scale of an
    `interval_table` is one ascending run of translations, so child k sits
    at offset k - k0 in its scale's rows, k0 the scale's first translation."""
    j, k = table.j, table.k
    sums = terms.copy()
    levels = np.unique(j).tolist()
    for level in reversed(levels):
        kids = np.flatnonzero(j == level + 1)
        if kids.size == 0:
            continue
        rows = np.flatnonzero(j == level)
        first = 2 * k[rows] + int(3 * grid_shift(table.grid_id, level))
        for want in (first, first + 1):
            at = want - k[kids[0]]
            hit = (at >= 0) & (at < kids.size)
            sums[rows[hit]] += sums[kids[at[hit]]]
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
    window's, raises InvalidConfigurationError, and a form past the float
    range InvalidParameterError.
    """
    if not isinstance(pair, BloomWeight):
        raise InvalidConfigurationError("the BMO square form needs both weights (mu, lam); got a bare weight")
    values = b.cell_values_on(window, "the window")
    table = interval_table(grid, window)
    lo, hi = table.left, table.right
    deviation = _abs_deviation_integrals(values, window.cell_edges(), float(window.cell_width), lo, hi)
    q1 = _bracket(pair, 1, table)
    # a value past the float range is inf here, and the check below names it
    with np.errstate(over="ignore"):
        # deviation / nu(I), with nu(I) read through the form-1 bracket |I| / nu(I)
        sup_avg, arg_avg = _sup(deviation * q1 / table.length, table)
    # the square form has degree 2 in b_hat(I), 1 in mu^-1(I) and 1 in lam(I).
    # Each factor is scaled by a power of two, which is exact, to a largest
    # entry in [1/2, 1), so no product overflows where the form does not
    factors = (haar_coefficients(b, table), pair.mu.inv().integrals(lo, hi), pair.lam.integrals(lo, hi))
    e_b, e_mu, e_lam = (math.frexp(float(np.max(np.abs(f), initial=0.0)))[1] for f in factors)
    c, mu_inv, lam = (np.ldexp(f, -e) for f, e in zip(factors, (e_b, e_mu, e_lam)))
    s_term = c * c * mu_inv * mu_inv * lam / table.length**3
    sup_sq, arg_sq = _sup(_subtree_sums(s_term, table) / mu_inv, table)
    try:
        sup_sq = math.ldexp(sup_sq, 2 * e_b + e_mu + e_lam)
    except OverflowError:
        sup_sq = math.inf
    for form, value in (("sup-average", sup_avg), ("square", sup_sq)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"the BMO {form} form lies past the float range")
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


def vmo_tail_report(
    b: Symbol,
    weights: BloomWeight | Weight,
    grid: DyadicGrid,
    window: TruncationWindow,
) -> VmoTailReport:
    """Finite-scale surrogate for the three vanishing-oscillation limits:
    partial sums of squared form-1 contributions restricted to |I| < a,
    |I| > a, and I disjoint from the ball B(c, a), tabulated over the radii
    a = 2^-j for j = j_min..j_max, with c the window's midpoint.  A total
    past the float range raises InvalidParameterError."""
    center = float(window.lo + window.span / 2)
    table = interval_table(grid, window)
    haar, q1 = _haar_terms(b, table), _bracket(weights, 1, table)
    with np.errstate(over="ignore"):
        terms = (haar * q1) ** 2
    # fsum is exact, so the sums over the nonzero terms alone keep their bits
    nonzero = np.flatnonzero(terms)
    terms, length, left, right = (a[nonzero] for a in (terms, table.length, table.left, table.right))
    try:
        total = math.fsum(terms.tolist())
    except OverflowError:  # fsum's partial sums of finite terms
        total = math.inf
    # every tail is a sum of some of the terms, so a finite total bounds them all
    if not math.isfinite(total):
        raise InvalidParameterError("the VMO tail total lies past the float range")
    # fsum rounds each partial sum once, so tails over nested sets stay monotone
    rows = [
        VmoTailRow(
            radius,
            math.fsum(terms[length < radius].tolist()),
            math.fsum(terms[length > radius].tolist()),
            math.fsum(terms[(right <= center - radius) | (left >= center + radius)].tolist()),
        )
        for radius in (2.0 ** (-j) for j in range(window.j_min, window.j_max + 1))
    ]
    return VmoTailReport(rows, total)
