"""Symbol representations: analytic, step and Haar kinds, and Haar coefficients.

A symbol is a locally integrable function bound to a truncation window.  Three
kinds exist: an analytic callable (with an exact antiderivative where one is
known), a step vector on the finest cells, and a finite Haar-coefficient map.
Step and Haar kinds are exactly representable on the finest cells (a Haar
symbol sums its terms' `haar_cell_values`); analytic symbols are reduced to
cell averages when a step view is required.

Every symbol integrates by one rule, `Symbol.split_integrals(a, m, c)`: the
integrals over [a, m) and [m, c) of every row, from one call of the symbol's
`antiderivative` F on the flat array [a..., m..., c...] when it has one, and
from 32-node Gauss-Legendre of `eval` on each half when it has none.  The
scalar `split_integral` and `integral` and an analytic symbol's
`cell_values` are its one-row and one-table cases.  A step symbol's F is its
prefix sum at the point clamped into the window.  The battery
antiderivatives round on an array exactly as on each point alone: powers of
3 and more are taken with `np.float_power`, which calls libm pow per element
as the float `**` does, where an array `**` takes a SIMD kernel that rounds
differently.  So a row's bits do not depend on the rows beside it.

A Haar coefficient <b, h_I> is computed from one set of float endpoints of I
(`DyadicInterval.float_bounds`, built from the integers (j, k)) and one
`split_integral` call, which integrates b over both children of I at once.
`haar_coefficients(b, table)` gives the coefficients of every row of an
`IntervalTable`: a step symbol integrates the table's left/mid/right arrays
in one `split_integrals` pass.  Any other symbol makes one
`haar_coefficient` call per row that meets its support (below), on the row's
interval object.  That per-row branch stays only because the benchmark
counts `haar_coefficient` calls; one `split_integrals` pass over the table
would give the battery's rows the same bits.

An analytic symbol may declare a `support` (s0, s1) outside which it is 0.
A Haar function has mean zero, so a row with right <= s0 or left >= s1 has
coefficient 0, and `haar_coefficients` gives it +0.0 with no call; interval
objects are built only for the rows that meet the support.  The skipped
rows' bits cannot move.  An antiderivative F is constant outside the
support (the constructor checks F at both ends of each stretch of the window
that lies outside it), so a call on such a row would take F(m) - F(a) and
F(c) - F(m) of equal finite values, which are +0.0, and give
|I|^(-1/2) * (+0.0 - +0.0) = +0.0.  Without F, the Gauss-Legendre sums of
fn's +0.0 values there are +0.0 as well.  Every battery symbol but
`linear_symbol` declares its support.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidConfigurationError, InvalidParameterError, integer, real, reals
from .grids import (
    STANDARD,
    DyadicInterval,
    IntervalTable,
    TruncationWindow,
    gauss_legendre_32,
    haar_cell_values,
)


class Symbol:
    """Base: window binding, cell values, and the one integration rule."""

    window: TruncationWindow
    name = "symbol"
    lipschitz: float | None = None
    # (s0, s1) when the symbol is 0 outside [s0, s1]
    support: tuple[float, float] | None = None
    # F on float arrays, with F(y) - F(x) the integral over [x, y); None
    # integrates by quadrature
    antiderivative: Callable[[np.ndarray], np.ndarray] | None = None

    def cell_values(self) -> np.ndarray:
        raise NotImplementedError

    def cell_values_on(self, window: TruncationWindow, reader: str) -> np.ndarray:
        """The cell values, to be read position by position against the cells
        of `window`, which belongs to `reader`: InvalidConfigurationError,
        naming both, unless the two windows have the same cells (lo, hi and
        j_max; j_min does not move a cell)."""
        own = self.window
        if own.n_cells != window.n_cells:
            raise InvalidConfigurationError(f"symbol has {own.n_cells} cells, {reader} has {window.n_cells}")
        if (own.lo, own.hi, own.j_max) != (window.lo, window.hi, window.j_max):
            raise InvalidConfigurationError(
                f"symbol cells [{own.lo}, {own.hi}) of width 2^{-own.j_max} are not the cells "
                f"[{window.lo}, {window.hi}) of width 2^{-window.j_max} of {reader}"
            )
        return self.cell_values()

    def integral(self, a, b) -> float:
        """The integral over [a, b): the one-row case of `split_integral`."""
        return self.split_integral(a, b, b)[0]

    def split_integral(self, a, m, c) -> tuple[float, float]:
        """The integrals over [a, m) and [m, c): the one-row case of
        `split_integrals`."""
        lower, upper = self.split_integrals(a, m, c)
        return float(lower), float(upper)

    def split_integrals(self, a, m, c) -> tuple[np.ndarray, np.ndarray]:
        """Row by row over a, m and c, broadcast together: the integrals over
        [a, m) and [m, c); an empty or inverted half is 0.0.

        With an `antiderivative` F: one call of F on the flat float64 array
        [a..., m..., c...], and the halves F(m) - F(a), F(c) - F(m).  Without
        one: 32-node Gauss-Legendre of `eval` on each half.  A bound that is
        not a real number (`errors.reals`) or is NaN, a bound that is not
        finite for the quadrature, or a half whose integral is not finite (an
        infinite bound of a symbol without compact support) raises
        InvalidParameterError."""
        a, m, c = (reals(x, "an integration bound is not a real number") for x in (a, m, c))
        pts = np.empty((3,) + np.broadcast(a, m, c).shape)
        pts[0], pts[1], pts[2] = a, m, c
        if np.isnan(pts).any():
            raise InvalidParameterError("an integration bound is NaN")
        if self.antiderivative is None:
            if not np.isfinite(pts).all():
                raise InvalidParameterError("quadrature needs finite integration bounds")
            halves = gauss_legendre_32(self.eval, pts[:2].ravel(), pts[1:].ravel()).reshape(2, *pts.shape[1:])
        else:
            f = np.asarray(self.antiderivative(pts.ravel()), dtype=float).reshape(pts.shape)
            # F(+-inf) at both ends of a half forms inf - inf, which is refused below
            with np.errstate(invalid="ignore", over="ignore"):
                halves = f[1:] - f[:2]
        halves = np.where(pts[1:] <= pts[:2], 0.0, halves)
        if not np.isfinite(halves).all():
            i = int(np.argmin(np.isfinite(halves).all(axis=0).ravel()))
            lo, hi = pts[0].ravel()[i], pts[2].ravel()[i]
            raise InvalidParameterError(f"integral of {self.name} over [{lo}, {hi}) is not finite")
        return halves[0], halves[1]

    def eval(self, x):
        raise NotImplementedError

    @property
    def is_lipschitz(self) -> bool:
        return self.lipschitz is not None


class StepSymbol(Symbol):
    """Cellwise-constant symbol given by its finite values on the finest cells.
    A running integral past the float range raises InvalidParameterError."""

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
        with np.errstate(over="ignore"):
            prefix = np.cumsum(self._values) * self._width
        finite = np.isfinite(prefix)
        if not finite.all():
            edge = float(self._lo + (int(np.argmin(finite)) + 1) * self._width)
            raise InvalidParameterError(
                f"step symbol integral from {self._lo} to {edge} overflows a float"
            )
        self._prefix = np.concatenate([[0.0], prefix])

    def cell_values(self) -> np.ndarray:
        return self._values

    def eval(self, x):
        """0.0 outside the window, at +-inf too; a NaN point raises InvalidParameterError."""
        xv = np.asarray(x, dtype=float)
        if np.isnan(xv).any():
            raise InvalidParameterError("an evaluation point is NaN")
        # the cell index stays a float, so +-inf never reaches the int cast
        pos = np.floor((xv - self._lo) / self._width)
        inside = (pos >= 0) & (pos < self._n)
        out = np.where(inside, self._values[np.where(inside, pos, 0.0).astype(np.intp)], 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def antiderivative(self, x):
        """The integral from window.lo to each point of x: the prefix sums at x
        clamped into the window, so constant outside it; a NaN point gives
        NaN, as the battery's antiderivatives do."""
        # each step in place on one fresh array of x's shape, so a Python
        # float or a 0-d array stays an array until the end; np.minimum and
        # np.maximum clamp as np.clip does, with less call overhead
        pos = np.maximum(x, self._lo, out=np.empty(np.shape(x)))
        np.minimum(pos, self._hi, out=pos)
        pos -= self._lo
        pos /= self._width
        # np.fmax sends a NaN position to cell 0, so the int cast never sees NaN
        i = np.floor(pos, out=np.empty_like(pos))
        np.minimum(np.fmax(i, 0.0, out=i), self._n - 1, out=i)
        k = i.astype(np.intp)
        # prefix[k] + values[k] (pos - i) width, whose products and sum
        # commute bit for bit
        pos -= i
        pos *= self._values[k]
        pos *= self._width
        pos += self._prefix[k]
        return pos[()]


class AnalyticSymbol(Symbol):
    """Callable symbol, integrated through the supplied exact antiderivative
    when there is one and by Gauss-Legendre otherwise (`split_integrals`).

    `support` = (s0, s1), finite with s0 < s1, states that fn is 0 outside
    [s0, s1]; it is a fact about the function, and `haar_coefficients` gives
    the rows that lie off it +0.0 without computing them.  With an
    antiderivative F the constructor checks F(min(lo, s0)) == F(s0) and
    F(s1) == F(max(hi, s1)) at the window ends lo, hi, and raises
    InvalidConfigurationError when F moves outside the support.  The support
    ends and `lipschitz` are real numbers (`errors.real`: a bool or a string
    is not); a bad pair or constant raises InvalidParameterError.
    """

    def __init__(
        self,
        window: TruncationWindow,
        fn: Callable[[np.ndarray], np.ndarray],
        antiderivative: Callable[[np.ndarray], np.ndarray] | None = None,
        lipschitz: float | None = None,
        name: str = "analytic",
        support: tuple[float, float] | None = None,
    ):
        message = f"Lipschitz constant {lipschitz!r} must be finite and not negative"
        if lipschitz is not None and real(lipschitz, message) < 0:
            raise InvalidParameterError(message)
        self.window = window
        self.fn = fn
        self.antiderivative = antiderivative
        self.lipschitz = lipschitz
        self.name = name
        self.support = None if support is None else self._checked_support(support)
        self._cells: np.ndarray | None = None

    def _checked_support(self, support) -> tuple[float, float]:
        message = f"support {support!r} of {self.name} needs finite ends s0 < s1"
        try:
            s0, s1 = (real(end, message) for end in support)
        except (TypeError, ValueError):
            raise InvalidParameterError(f"support {support!r} of {self.name} is not a pair of numbers") from None
        if not s0 < s1:
            raise InvalidParameterError(message)
        if self.antiderivative is not None:
            lo, hi = float(self.window.lo), float(self.window.hi)
            ends = np.array((min(lo, s0), s0, s1, max(hi, s1)))
            f = np.asarray(self.antiderivative(ends), dtype=float)
            if not (f[0] == f[1] and f[2] == f[3]):
                raise InvalidConfigurationError(
                    f"antiderivative of {self.name} is not constant outside its support ({s0}, {s1})"
                )
        return s0, s1

    def eval(self, x):
        """fn at x; a NaN point raises InvalidParameterError."""
        xv = np.asarray(x, dtype=float)
        if np.isnan(xv).any():
            raise InvalidParameterError("an evaluation point is NaN")
        return self.fn(xv)

    def cell_values(self) -> np.ndarray:
        """The cell averages: each cell's integral over the cell width."""
        if self._cells is None:
            edges = self.window.cell_edges()
            vals = self.split_integrals(edges[:-1], edges[1:], edges[1:])[0] / float(self.window.cell_width)
            vals.flags.writeable = False
            self._cells = vals
        return self._cells


class HaarSymbol(StepSymbol):
    """Finite Haar-coefficient map on the standard grid, synthesized exactly
    as a step function on the finest cells; `haar_cell_values` rejects an
    interval that is not cell-aligned, inside the window and of scale <= j_max - 1."""

    def __init__(self, window: TruncationWindow, coefficients: Mapping[DyadicInterval, float]):
        self.coefficients = dict(coefficients)
        vals = np.zeros(window.n_cells)
        for interval, c in self.coefficients.items():
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


def haar_coefficients(b: Symbol, table: IntervalTable) -> np.ndarray:
    """`haar_coefficient(b, interval)` of every table row, with the same bits.

    A step symbol takes both child integrals of every row from one
    `split_integrals` pass over the table's float geometry.  Any other symbol
    makes one `haar_coefficient` call per row that meets its `support`, in
    table order; this branch stays only for the benchmark's count of those
    calls, and the same pass would serve every symbol.  A row with
    right <= s0 or left >= s1 is +0.0, the value its call would give (see the
    module docstring); a symbol without a support makes a call on every row.
    """
    if isinstance(b, StepSymbol):
        lower, upper = b.split_integrals(table.left, table.mid, table.right)
        return (1.0 / np.sqrt(table.length)) * (lower - upper)
    # without a support every row meets (-inf, inf): its float ends are finite
    s0, s1 = b.support or (-math.inf, math.inf)
    meets = (table.right > s0) & (table.left < s1)
    out = np.zeros(len(table))
    out[meets] = [haar_coefficient(b, interval) for interval in table[meets].intervals()]
    return out


# ----------------------------------------------------------------------------
# battery constructors


def _on_unit_interval(window: TruncationWindow, f, F, lipschitz: float, name: str) -> AnalyticSymbol:
    """f(x) on [0, 1), zero outside, with support (0, 1): the battery symbol
    whose antiderivative is F of x clamped into [0, 1].  f and F take float
    arrays."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x < 1), f(x), 0.0)

    def prim(x):
        return F(np.minimum(1.0, np.maximum(0.0, np.asarray(x, dtype=float))))

    return AnalyticSymbol(window, fn, prim, lipschitz=lipschitz, name=name, support=(0.0, 1.0))


def sin_symbol(window: TruncationWindow, cycles: int = 1) -> AnalyticSymbol:
    """sin(2 pi cycles x) on [0, 1), zero outside; continuous at both ends.
    A cycles that is not a positive integer, a bool included, raises
    InvalidParameterError."""
    cycles = integer(cycles, f"cycles must be a positive integer; got {cycles!r}", least=1)
    om = 2.0 * math.pi * cycles
    prim = lambda xc: (1.0 - np.cos(om * xc)) / om
    return _on_unit_interval(window, lambda x: np.sin(om * x), prim, om, f"sin{cycles}")


def parabola_symbol(window: TruncationWindow) -> AnalyticSymbol:
    """x (1 - x) on [0, 1), zero outside."""
    prim = lambda xc: xc**2 / 2.0 - np.float_power(xc, 3) / 3.0
    return _on_unit_interval(window, lambda x: x * (1.0 - x), prim, 1.0, "parabola")


# A point far past ramp_bump's support, at which its antiderivative is still
# exact: every term is a multiple of 2^-3 below 2^50.
_FAR = 2.0**40


def ramp_bump_symbol(window: TruncationWindow) -> AnalyticSymbol:
    """Smoothed step: cubic ramp up on [1/8, 3/8], plateau, ramp down on
    [5/8, 7/8].  Continuous with Lipschitz constant 6."""
    up0, up1 = 0.125, 0.375
    dn0, dn1 = 0.625, 0.875
    w = up1 - up0
    # ramp starts and ends on a trailing axis: index 0 is up, 1 is down
    starts, ends = np.array([up0, dn0]), np.array([up1, dn1])

    def smooth(t):
        return 3.0 * t**2 - 2.0 * t**3

    def fn(x):
        x = np.asarray(x, dtype=float)
        t_up = np.minimum(1.0, np.maximum(0.0, (x - up0) / w))
        t_dn = np.minimum(1.0, np.maximum(0.0, (x - dn0) / w))
        return smooth(t_up) - smooth(t_dn)

    def prim(x):
        # F is constant past the ramps; capping x far past them keeps an
        # infinite bound from forming inf - inf and leaves F below the cap as it was
        x = np.minimum(np.asarray(x, dtype=float), _FAR)[..., None]
        t = np.minimum(1.0, np.maximum(0.0, (x - starts) / w))
        curve = w * (np.float_power(t, 3) - 0.5 * np.float_power(t, 4))
        lin = np.maximum(x - ends, 0.0)
        return curve[..., 0] + lin[..., 0] - curve[..., 1] - lin[..., 1]

    return AnalyticSymbol(window, fn, prim, lipschitz=1.5 / w, name="ramp_bump", support=(up0, dn1))


def quartic_bump_symbol(window: TruncationWindow) -> AnalyticSymbol:
    """16 x^2 (1-x)^2 on [0, 1), zero outside; peak height 1 at x = 1/2."""
    # the terms x^3 / 3, x^4 / 2 and x^5 / 5 of the antiderivative on a trailing axis
    exps, divs = np.array([3.0, 4.0, 5.0]), np.array([3.0, 2.0, 5.0])

    def prim(xc):
        terms = np.float_power(xc[..., None], exps) / divs
        return 16.0 * (terms[..., 0] - terms[..., 1] + terms[..., 2])

    return _on_unit_interval(window, lambda x: 16.0 * x**2 * (1.0 - x) ** 2, prim, 16.0 * 0.25, "quartic_bump")


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
    range holds fewer than n_terms of them, when n_terms is not a positive
    integer, seed not an integer >= 0 (a bool is neither) or scale_range not
    a pair of integers (a bool is not one)."""
    n_terms = integer(n_terms, f"n_terms must be a positive integer; got {n_terms!r}", least=1)
    seed = integer(seed, f"seed must be an integer >= 0; got {seed!r}", least=0)
    pair = f"scale_range {scale_range!r} is not a pair of integers"
    try:
        j_lo, j_hi = (integer(j, pair) for j in scale_range)
    except (TypeError, ValueError):
        raise InvalidParameterError(pair) from None
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
        interval = DyadicInterval(STANDARD, j, k)
        coeffs[interval] = float(rng.normal())
    return HaarSymbol(window, coeffs)
