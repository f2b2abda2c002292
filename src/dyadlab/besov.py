"""Norm functionals: dyadic Besov (three equivalent forms), continuous Besov
at p=2 by tensor quadrature, weighted dyadic BMO, and finite-scale VMO tails.

Dyadic norms sum (|b_hat(I)| |I|^1/2 / nu(I))^p over enumerated intervals;
the second and third forms replace the nu factor by the equivalent weighted
expressions built from lam and mu integrals.  The three forms, BMO and the VMO
tails read one interval table per (grid, window).  The continuous p=2 norm is
the double integral of |b(x)-b(y)|^2 / (x-y)^2 * lam(x) / mu(y) over the window
square, with near-diagonal cell pairs handled by one extra subdivision and the
Lipschitz difference-quotient bound.  All reductions run in enumeration order,
so results do not depend on thread count.
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
    interval_table,
)
from .symbols import Symbol, haar_coefficient
from .weights import BloomWeight, ConstantWeight, Weight


@dataclass
class NormReport:
    """A norm value with its per-item contribution table.

    value >= 0, and value == 0 exactly when every contribution vanishes.
    """

    value: float
    contributions: list[tuple[str, float]]
    params: dict = field(default_factory=dict)
    id_label: str = "interval_id"
    error_estimate: float | None = None

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
            f"form {form} weight bracket is {q[i]!r} on {table.intervals[i].label()}"
        )
    return q


def _haar_terms(b: Symbol, table: IntervalTable) -> np.ndarray:
    """|b_hat(I)| |I|^-1/2 per table row, the bracket-free factor of each term."""
    bh = np.array([haar_coefficient(b, interval) for interval in table.intervals])
    return np.abs(bh) / np.sqrt(table.length)


def dyadic_besov_norm(
    b: Symbol,
    weights: BloomWeight | Weight,
    p: float,
    grid: DyadicGrid,
    window: TruncationWindow,
    form: int = 1,
) -> NormReport:
    """p-th root of the sum of the per-interval terms (|b_hat(I)| |I|^-1/2 q)^p,
    where `form` selects which of the three equivalent brackets q is."""
    if not 0 < p < math.inf:
        raise InvalidParameterError("p must lie in (0, inf)")
    if form not in (1, 2, 3):
        raise InvalidConfigurationError(f"unknown form {form}")
    table = interval_table(enumerate_intervals(grid, window))
    q = _bracket(weights, form, table)
    terms = (_haar_terms(b, table) * q) ** p
    return NormReport(
        value=math.fsum(terms) ** (1.0 / p),
        contributions=[(iv.label(), t) for iv, t in zip(table.intervals, terms.tolist())],
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
    table = interval_table(enumerate_intervals(grid, window))
    q1, q2, q3 = (_bracket(pair, form, table) for form in (1, 2, 3))
    # q2 |I| is (lam(I) mu^-1(I))^1/2 exactly, as |I| is a power of two
    cs_gap = q2 * table.length - pair.nu.inv().integrals(table.left, table.right)
    qs = np.stack([q1, q2, q3])
    worst = float(np.max(qs.max(axis=0) / qs.min(axis=0), initial=1.0))
    columns = (table.intervals, q1.tolist(), q2.tolist(), q3.tolist(), cs_gap.tolist())
    return [IntervalFormRow(*row) for row in zip(*columns)], worst


# ----------------------------------------------------------------------------
# continuous energy by tensor quadrature


def continuous_energy(
    b: Symbol,
    p: float,
    lam: Weight,
    mu: Weight,
    window: TruncationWindow,
    nodes: int = 4,
) -> tuple[float, float, np.ndarray]:
    """Double integral of |b(x)-b(y)|^p / |x-y|^2 * lam(x) * mu^-1(y) over the
    window square.

    Separated cell pairs use tensor Gauss-Legendre; cell pairs closer than one
    cell are split once and the touching half-pairs are replaced by the
    Lipschitz difference-quotient bound, whose total mass is returned as the
    error estimate.  Returns (value, error_estimate, per-x-cell totals).
    """
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

    gx, gw = np.polynomial.legendre.leggauss(nodes)
    # flatten (cell, node) grids once for both axes
    half = 0.5 * width
    centers = window.cell_midpoints()
    xs = (centers[:, None] + half * gx[None, :]).ravel()
    ws = np.tile(0.5 * width * gw, n)
    fx = np.asarray(b.eval(xs), dtype=float)
    lam_x = np.asarray(lam.eval(xs), dtype=float) * ws
    mu_y = np.asarray(mu_inv.eval(xs), dtype=float) * ws

    per_cell = np.zeros(n)
    block = max(1, 262144 // (n * nodes) + 1)
    npts = n * nodes
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

    # near-diagonal pairs: one subdivision, touching half-pairs -> Lipschitz bound
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
                        c = _lip_bound(lip, p, lam, mu_inv, ax, bx, ay, by)
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


def _lip_bound(
    lip: float, p: float, lam: Weight, mu_inv: Weight, ax, bx, ay, by
) -> float:
    """Upper bound for the energy on a touching half-cell pair."""
    if p == 2.0:
        return lip**2 * lam.integral(ax, bx) * mu_inv.integral(ay, by)
    if p > 2.0:
        diam = max(bx, by) - min(ax, ay)
        return lip**p * diam ** (p - 2.0) * lam.integral(ax, bx) * mu_inv.integral(ay, by)
    # p < 2, constant weights only: the |x-y|^(p-2) factor integrates exactly
    lam_val = lam.eval(0.5 * (ax + bx))
    mu_val = mu_inv.eval(0.5 * (ay + by))

    def prim(t):
        return abs(t) ** p / (p * (p - 1.0))

    box = prim(bx - ay) - prim(ax - ay) - prim(bx - by) + prim(ax - by)
    return lip**p * float(lam_val) * float(mu_val) * box


def continuous_besov_norm_p2(
    b: Symbol,
    lam: Weight,
    mu: Weight,
    window: TruncationWindow,
    nodes: int = 4,
) -> NormReport:
    """Square root of the p=2 energy, with the near-diagonal bound mass as the
    quadrature error estimate."""
    energy, err, per_cell = continuous_energy(b, 2.0, lam, mu, window, nodes)
    contributions = [(f"xcell_{i}", float(v)) for i, v in enumerate(per_cell)]
    return NormReport(
        value=math.sqrt(energy),
        contributions=contributions,
        params={"p": 2.0, "lam": lam.label, "mu": mu.label},
        id_label="pair_id",
        error_estimate=err,
    )


def peller_energy(b: Symbol, p: float, window: TruncationWindow, nodes: int = 4) -> float:
    """Unweighted point-pair energy: double integral of |b(x)-b(y)|^p / |x-y|^2."""
    one = ConstantWeight(1.0)
    energy, _, _ = continuous_energy(b, p, one, one, window, nodes)
    return energy


def intersection_norm(
    b: Symbol,
    weights: BloomWeight | Weight,
    grid0: DyadicGrid,
    grid1: DyadicGrid,
    window: TruncationWindow,
    p: float = 2.0,
) -> NormReport:
    """Sum of the two dyadic norms, one per grid."""
    r0 = dyadic_besov_norm(b, weights, p, grid0, window, form=1)
    r1 = dyadic_besov_norm(b, weights, p, grid1, window, form=1)
    contributions = [(f"{grid0.grid_id}:{k}", v) for k, v in r0.contributions]
    contributions += [(f"{grid1.grid_id}:{k}", v) for k, v in r1.contributions]
    return NormReport(
        value=r0.value + r1.value,
        contributions=contributions,
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


def _abs_deviation_integral(
    vals: np.ndarray, edges: np.ndarray, a: float, c: float, width: float
) -> float:
    """Integral over [a, c) of |b - avg_[a,c) b| for the step view `vals` of
    b on the cells between `edges` (each `width` wide), exact with
    fractional end cells."""
    # every cell i0 <= i < i1 meets [a, c) in positive length: each edge minus
    # lo is a float, so rounding (a - lo) or (c - lo) never crosses an edge
    i0 = max(0, math.floor((a - edges[0]) / width))
    i1 = min(len(vals), math.ceil((c - edges[0]) / width))
    cov = np.minimum(c, edges[i0 + 1 : i1 + 1]) - np.maximum(a, edges[i0:i1])
    v = vals[i0:i1]
    avg = float(np.sum(v * cov) / np.sum(cov))
    return float(np.sum(np.abs(v - avg) * cov))


def weighted_bmo_dyadic(
    b: Symbol,
    pair: BloomWeight,
    grid: DyadicGrid,
    window: TruncationWindow,
) -> BmoReport:
    """Both equivalent dyadic BMO functionals.

    The sup-average form takes sup over enumerated I of the nu-normalized mean
    oscillation; the square form takes sup over K of the mu^-1(K)-normalized
    sum of squared coefficient terms over enumerated descendants of K.
    """
    table = interval_table(enumerate_intervals(grid, window))
    lo, hi = table.left, table.right
    vals, edges, width = b.cell_values(), window.cell_edges(), float(window.cell_width)
    deviation = np.array(
        [
            _abs_deviation_integral(vals, edges, a, c, width)
            for a, c in zip(lo.tolist(), hi.tolist())
        ]
    )
    # deviation / nu(I), with nu(I) read through the form-1 bracket |I| / nu(I)
    sup_avg, arg_avg = _sup(deviation * _bracket(pair, 1, table) / table.length, table)

    # square form, accumulated bottom-up over the interval tree
    mu_inv = pair.mu.inv().integrals(lo, hi)
    bh = np.array([haar_coefficient(b, interval) for interval in table.intervals])
    s_term = bh * bh * mu_inv * mu_inv * pair.lam.integrals(lo, hi) / table.length**3
    row = {interval: i for i, interval in enumerate(table.intervals)}
    subtree = s_term.copy()
    for i in sorted(range(len(table)), key=lambda i: -table.intervals[i].j):
        for child in table.intervals[i].children:
            if child in row:
                subtree[i] += subtree[row[child]]
    sup_sq, arg_sq = _sup(subtree / mu_inv, table)
    return BmoReport(sup_avg, sup_sq, arg_avg, arg_sq)


def _sup(values: np.ndarray, table: IntervalTable) -> tuple[float, str]:
    """The largest positive value and the label of its first row; (0.0, "")
    when no value is positive."""
    positive = np.where(values > 0, values, 0.0)
    best = float(np.max(positive, initial=0.0))
    if best == 0.0:
        return 0.0, ""
    return best, table.intervals[int(np.argmax(positive))].label()


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
    ladder of radii."""
    if center is None:
        center = float(window.lo + window.span / 2)
    if ladder is None:
        ladder = [2.0 ** (-j) for j in range(window.j_min, window.j_max + 1)]
    table = interval_table(enumerate_intervals(grid, window))
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
