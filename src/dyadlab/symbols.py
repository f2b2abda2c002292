"""Symbol representations and the median-split machinery.

A symbol is a locally integrable function bound to a truncation window.  Three
kinds exist: an analytic callable (with an exact antiderivative where one is
known), a step vector on the finest cells, and a finite Haar-coefficient map.
Step and Haar kinds are exactly representable on the finest cells; analytic
symbols are reduced to cell averages when a step view is required.

A Haar coefficient <b, h_I> is computed from one set of float endpoints of I
(`DyadicInterval.float_bounds`, built from the integers (j, k)) and one
`split_integral` call, which integrates b over both children of I at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidConfigurationError, InvalidParameterError
from .grids import (
    GAUSS_LEGENDRE_32,
    DyadicGrid,
    DyadicInterval,
    TruncationWindow,
    enumerate_intervals,
    haar_cell_values,
)


class Symbol:
    """Base: window binding, cell values, and exact interval integrals."""

    window: TruncationWindow
    lipschitz: float | None = None

    def cell_values(self) -> np.ndarray:
        raise NotImplementedError

    def integral(self, a, b) -> float:
        raise NotImplementedError

    def split_integral(self, a, m, c) -> tuple[float, float]:
        """The integrals over [a, m) and [m, c); an empty or inverted half is 0.0."""
        return self.integral(a, m), self.integral(m, c)

    def eval(self, x):
        raise NotImplementedError

    @property
    def is_lipschitz(self) -> bool:
        return self.lipschitz is not None

    def l2_norm(self) -> float:
        width = float(self.window.cell_width)
        v = self.cell_values()
        return math.sqrt(float(np.sum(v * v)) * width)


class StepSymbol(Symbol):
    """Cellwise-constant symbol given by its finite values on the finest cells."""

    def __init__(self, window: TruncationWindow, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (window.n_cells,):
            raise InvalidConfigurationError(
                f"step symbol needs {window.n_cells} cell values, got {values.shape}"
            )
        if not np.isfinite(values).all():
            raise InvalidParameterError("step symbol values must be finite")
        self.window = window
        self._values = values.copy()
        self._values.flags.writeable = False
        # the window as floats, read by every integral
        self._lo, self._hi = float(window.lo), float(window.hi)
        self._width, self._n = float(window.cell_width), window.n_cells
        # prefix[i] = integral from window.lo to edge i
        self._prefix = np.concatenate([[0.0], np.cumsum(self._values) * self._width])
        self.lipschitz = None

    def cell_values(self) -> np.ndarray:
        return self._values

    def eval(self, x):
        xv = np.asarray(x, dtype=float)
        idx = np.floor((xv - self._lo) / self._width).astype(int)
        inside = (idx >= 0) & (idx < self._n)
        out = np.where(inside, self._values[np.clip(idx, 0, self._n - 1)], 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def integral(self, a, b) -> float:
        """Exact: prefix sums plus fractional coverage of the end cells."""
        af = max(float(a), self._lo)
        bf = min(float(b), self._hi)
        if bf <= af:
            return 0.0
        return self._prefix_at(bf) - self._prefix_at(af)

    def split_integral(self, a, m, c) -> tuple[float, float]:
        """Both halves from three prefix lookups at the points clamped into the
        window; a clamped half is empty exactly when `integral`'s is."""
        lo, hi = self._lo, self._hi
        af = min(max(float(a), lo), hi)
        mf = min(max(float(m), lo), hi)
        cf = min(max(float(c), lo), hi)
        pa, pm, pc = self._prefix_at(af), self._prefix_at(mf), self._prefix_at(cf)
        return (0.0 if mf <= af else pm - pa), (0.0 if cf <= mf else pc - pm)

    def _prefix_at(self, t: float) -> float:
        """Integral from window.lo to t, for t inside the window."""
        pos = (t - self._lo) / self._width
        i = max(min(math.floor(pos), self._n - 1), 0)
        return self._prefix[i] + self._values[i] * (pos - i) * self._width


class AnalyticSymbol(Symbol):
    """Callable symbol; integrals use the supplied exact antiderivative when
    available and 32-node Gauss-Legendre per cell otherwise."""

    def __init__(
        self,
        window: TruncationWindow,
        fn: Callable[[np.ndarray], np.ndarray],
        antiderivative: Callable[[np.ndarray], np.ndarray] | None = None,
        lipschitz: float | None = None,
        name: str = "analytic",
    ):
        self.window = window
        self.fn = fn
        self.antiderivative = antiderivative
        self.lipschitz = lipschitz
        self.name = name
        self._cells: np.ndarray | None = None

    def eval(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def integral(self, a, b) -> float:
        af, bf = float(a), float(b)
        if bf <= af:
            return 0.0
        if self.antiderivative is not None:
            return float(self.antiderivative(bf) - self.antiderivative(af))
        nodes, wts = GAUSS_LEGENDRE_32
        half = 0.5 * (bf - af)
        xs = 0.5 * (af + bf) + half * nodes
        return half * float(np.sum(wts * self.fn(xs)))

    def split_integral(self, a, m, c) -> tuple[float, float]:
        """With an antiderivative F: F at a, m and c once each, one scalar call
        per point, and the halves F(m) - F(a), F(c) - F(m)."""
        if self.antiderivative is None:
            return super().split_integral(a, m, c)
        af, mf, cf = float(a), float(m), float(c)
        fa, fm, fc = self.antiderivative(af), self.antiderivative(mf), self.antiderivative(cf)
        return (0.0 if mf <= af else float(fm - fa)), (0.0 if cf <= mf else float(fc - fm))

    def cell_values(self) -> np.ndarray:
        if self._cells is None:
            edges = self.window.cell_edges()
            width = float(self.window.cell_width)
            if self.antiderivative is not None:
                prim = np.asarray(self.antiderivative(edges), dtype=float)
                vals = np.diff(prim) / width
            else:
                vals = np.array(
                    [
                        self.integral(edges[i], edges[i + 1]) / width
                        for i in range(self.window.n_cells)
                    ]
                )
            vals.flags.writeable = False
            self._cells = vals
        return self._cells


class HaarSymbol(StepSymbol):
    """Finite Haar-coefficient map on the standard grid.

    Every interval must be cell-aligned and live at scale <= j_max - 1 so the
    synthesized function is exactly a step function on the finest cells.
    """

    def __init__(self, window: TruncationWindow, coefficients: Mapping[DyadicInterval, float]):
        self.coefficients = dict(coefficients)
        vals = np.zeros(window.n_cells)
        for interval, c in self.coefficients.items():
            if interval.grid_id != "standard":
                raise InvalidConfigurationError(
                    "Haar symbols are supported on the standard grid only"
                )
            if interval.j > window.j_max - 1:
                raise InvalidConfigurationError(
                    f"coefficient at scale {interval.j} is unresolvable at j_max {window.j_max}"
                )
            if not window.contains_interval(interval.left, interval.right):
                raise InvalidConfigurationError(
                    f"interval {interval.label()} leaves the window"
                )
            vals += c * haar_cell_values(interval, window)
        super().__init__(window, vals)


def haar_coefficient(b: Symbol, interval: DyadicInterval) -> float:
    """<b, h_I> = |I|^(-1/2) * (integral over left child - integral over right child).

    The float endpoints come once from `float_bounds`, and both child
    integrals from one `split_integral` call.
    """
    amp = 1.0 / math.sqrt(math.ldexp(1.0, -interval.j))
    lower, upper = b.split_integral(*interval.float_bounds())
    return amp * (lower - upper)


def haar_coefficients(
    b: Symbol, grid: DyadicGrid, window: TruncationWindow
) -> dict[DyadicInterval, float]:
    """Coefficients over every enumerated interval, in enumeration order."""
    return {
        interval: haar_coefficient(b, interval)
        for interval in enumerate_intervals(grid, window)
    }


def _cells_of(window: TruncationWindow, interval: DyadicInterval) -> tuple[int, int]:
    i0, i1 = window.cell_slice(interval)
    if i1 <= i0:
        raise InvalidConfigurationError(f"{interval.label()} resolves to no cells")
    return i0, i1


def median_value(b: Symbol, interval: DyadicInterval) -> float:
    """A median of the step view of b over a cell-aligned interval.

    Returns m with |{b < m}| <= |Q|/2 and |{b > m}| <= |Q|/2; when the
    admissible medians form an interval the midpoint is taken, which
    fixes the tie deterministically.
    """
    i0, i1 = _cells_of(b.window, interval)
    vals = np.sort(b.cell_values()[i0:i1])
    k = len(vals)
    lo = vals[(k + 1) // 2 - 1]
    hi = vals[k // 2]
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MedianSplit:
    """Cell-index decomposition around a median level alpha.

    e1/e2 live in Q and use strict inequalities; f1/f2 live in Q_hat and use
    the non-strict ones, so f1 and f2 cover Q_hat.
    Indices are global finest-cell indices.
    """

    alpha: float
    e1: np.ndarray
    e2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray


def median_split(b: Symbol, q: DyadicInterval, q_hat: DyadicInterval) -> MedianSplit:
    alpha = median_value(b, q_hat)
    vals = b.cell_values()
    q0, q1 = _cells_of(b.window, q)
    h0, h1 = _cells_of(b.window, q_hat)
    q_idx = np.arange(q0, q1)
    h_idx = np.arange(h0, h1)
    e1 = q_idx[vals[q0:q1] < alpha]
    e2 = q_idx[vals[q0:q1] > alpha]
    f1 = h_idx[vals[h0:h1] >= alpha]
    f2 = h_idx[vals[h0:h1] <= alpha]
    return MedianSplit(alpha, e1, e2, f1, f2)


# ----------------------------------------------------------------------------
# battery constructors


def sin_symbol(window: TruncationWindow, cycles: int = 1) -> AnalyticSymbol:
    """sin(2 pi cycles x) on [0, 1), zero outside; continuous at both ends."""
    om = 2.0 * math.pi * cycles

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x < 1), np.sin(om * x), 0.0)

    def prim(x):
        x = np.asarray(x, dtype=float)
        xc = np.minimum(1.0, np.maximum(0.0, x))
        return (1.0 - np.cos(om * xc)) / om

    return AnalyticSymbol(window, fn, prim, lipschitz=om, name=f"sin{cycles}")


def parabola_symbol(window: TruncationWindow) -> AnalyticSymbol:
    """x (1 - x) on [0, 1), zero outside."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x < 1), x * (1.0 - x), 0.0)

    def prim(x):
        x = np.asarray(x, dtype=float)
        xc = np.minimum(1.0, np.maximum(0.0, x))
        return xc**2 / 2.0 - xc**3 / 3.0

    return AnalyticSymbol(window, fn, prim, lipschitz=1.0, name="parabola")


def ramp_bump_symbol(window: TruncationWindow) -> AnalyticSymbol:
    """Smoothed step: cubic ramp up on [1/8, 3/8], plateau, ramp down on
    [5/8, 7/8].  Continuous with Lipschitz constant 6."""
    up0, up1 = 0.125, 0.375
    dn0, dn1 = 0.625, 0.875
    w = up1 - up0

    def smooth(t):
        return 3.0 * t**2 - 2.0 * t**3

    def smooth_prim(t):
        return t**3 - 0.5 * t**4

    def fn(x):
        x = np.asarray(x, dtype=float)
        t_up = np.minimum(1.0, np.maximum(0.0, (x - up0) / w))
        t_dn = np.minimum(1.0, np.maximum(0.0, (x - dn0) / w))
        return smooth(t_up) - smooth(t_dn)

    def prim(x):
        x = np.asarray(x, dtype=float)
        t_up = np.minimum(1.0, np.maximum(0.0, (x - up0) / w))
        t_dn = np.minimum(1.0, np.maximum(0.0, (x - dn0) / w))
        lin_up = np.maximum(x - up1, 0.0)
        lin_dn = np.maximum(x - dn1, 0.0)
        return (
            w * smooth_prim(t_up)
            + lin_up
            - w * smooth_prim(t_dn)
            - lin_dn
        )

    return AnalyticSymbol(window, fn, prim, lipschitz=1.5 / w, name="ramp_bump")


def quartic_bump_symbol(window: TruncationWindow) -> AnalyticSymbol:
    """16 x^2 (1-x)^2 on [0, 1), zero outside; peak height 1 at x = 1/2."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x < 1), 16.0 * x**2 * (1.0 - x) ** 2, 0.0)

    def prim(x):
        x = np.asarray(x, dtype=float)
        xc = np.minimum(1.0, np.maximum(0.0, x))
        return 16.0 * (xc**3 / 3.0 - xc**4 / 2.0 + xc**5 / 5.0)

    return AnalyticSymbol(window, fn, prim, lipschitz=16.0 * 0.25, name="quartic_bump")


def linear_symbol(window: TruncationWindow) -> AnalyticSymbol:
    """b(x) = x on the whole window."""

    def fn(x):
        return np.asarray(x, dtype=float)

    def prim(x):
        return np.asarray(x, dtype=float) ** 2 / 2.0

    return AnalyticSymbol(window, fn, prim, lipschitz=1.0, name="linear")


def random_haar_symbol(
    window: TruncationWindow,
    n_terms: int = 8,
    seed: int = 0,
    scale_range: tuple[int, int] = (1, 5),
) -> HaarSymbol:
    """Seeded random finite Haar sum supported in [0, 1).

    Draws n_terms distinct intervals [k 2^-j, (k+1) 2^-j) with j in
    scale_range, capped at j_max - 1; raises InvalidParameterError when the
    range holds fewer than n_terms of them."""
    j_lo, j_hi = scale_range
    j_hi = min(j_hi, window.j_max - 1)
    # scales j_lo..j_hi hold 2^j_lo + ... + 2^j_hi intervals of [0, 1)
    if not 0 <= j_lo <= j_hi or n_terms > (2 << j_hi) - (1 << j_lo):
        raise InvalidParameterError(
            f"scales {j_lo}..{j_hi} (capped at j_max - 1) hold fewer than "
            f"{n_terms} intervals of [0, 1)"
        )
    rng = np.random.default_rng(seed)
    coeffs: dict[DyadicInterval, float] = {}
    while len(coeffs) < n_terms:
        j = int(rng.integers(j_lo, j_hi + 1))
        k = int(rng.integers(0, 2**j))
        interval = DyadicInterval("standard", j, k)
        coeffs[interval] = float(rng.normal())
    return HaarSymbol(window, coeffs)
