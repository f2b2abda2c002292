"""Truncated dyadic systems: intervals, grids, windows, Haar functions.

Intervals are identified by (grid_id, scale j, translation k); each endpoint is
an exact Fraction built in one step from integers, left = (3k + t) 2^-j / 3
with t = 3 * grid_shift, so no floating accumulation ever enters the geometry.
Two grid families are supported: the standard grid and its one-third shift,
where the scale-j translation is (-1)^j * 2^-j / 3.

`interval_table(grid, window)` is the one enumeration of a grid's intervals
inside a window: each scale contributes one range of translations, and the
table holds the integer j and k of every row with its float left, mid,
right and length, built as arrays without an interval object per row.
`enumerate_intervals` is the object view of the same rows, for callers that
hand intervals on.  Every Haar function takes its cells from the one
cell-range rule, `TruncationWindow.cell_slice` (`haar_cell_values`), and
every 32-node Gauss-Legendre sum from one applier, `gauss_legendre_32`.  All
types are immutable and every operation is pure, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidConfigurationError, InvalidParameterError

STANDARD = "standard"
THIRD_SHIFT = "third_shift"


def grid_shift(rule: str, j: int) -> Fraction:
    """Translation applied to the scale-j lattice, in units of 2^-j."""
    return Fraction(_shift_thirds(rule, j), 3)


def _shift_thirds(rule: str, j: int) -> int:
    """t = 3 * grid_shift(rule, j), an integer in {0, 1, -1}."""
    if rule == STANDARD:
        return 0
    if rule == THIRD_SHIFT:
        return -1 if j % 2 else 1
    raise InvalidConfigurationError(f"unknown grid rule {rule!r}")


def _over_scale(num: int, den: int, j: int) -> Fraction:
    """The exact value num * 2^-j / den."""
    if j >= 0:
        return Fraction(num, den << j)
    return Fraction(num << -j, den)


@dataclass(frozen=True)
class DyadicGrid:
    """A dyadic system of base length 1, determined by its shift rule."""

    shift_rule: str = STANDARD

    def __post_init__(self):
        grid_shift(self.shift_rule, 0)  # validates the rule

    @property
    def grid_id(self) -> str:
        return self.shift_rule


def standard_grid() -> DyadicGrid:
    return DyadicGrid(STANDARD)


def third_shift_grid() -> DyadicGrid:
    return DyadicGrid(THIRD_SHIFT)


@dataclass(frozen=True, eq=True)
class DyadicInterval:
    """Half-open interval [left, right) of length 2^-j in grid `grid_id`."""

    grid_id: str
    j: int
    k: int

    @property
    def length(self) -> Fraction:
        return _over_scale(1, 1, self.j)

    @property
    def left(self) -> Fraction:
        return _over_scale(3 * self.k + _shift_thirds(self.grid_id, self.j), 3, self.j)

    @property
    def right(self) -> Fraction:
        return _over_scale(3 * self.k + 3 + _shift_thirds(self.grid_id, self.j), 3, self.j)

    @property
    def mid(self) -> Fraction:
        return _over_scale(6 * self.k + 3 + 2 * _shift_thirds(self.grid_id, self.j), 6, self.j)

    def float_bounds(self) -> tuple[float, float, float]:
        """(left, mid, right) as floats, each equal to float() of the exact
        Fraction, computed from (j, k) by the formula of `interval_table`."""
        return _float_bounds(
            self.k, _shift_thirds(self.grid_id, self.j), math.ldexp(1.0, -self.j)
        )

    @property
    def left_child(self) -> "DyadicInterval":
        # Matching left endpoints, 3k' + t(j+1) = 6k + 2t(j), and t(j+1) = -t(j)
        # give k' = 2k + t(j).
        offset = _shift_thirds(self.grid_id, self.j)
        return DyadicInterval(self.grid_id, self.j + 1, 2 * self.k + offset)

    @property
    def right_child(self) -> "DyadicInterval":
        base = self.left_child
        return DyadicInterval(self.grid_id, self.j + 1, base.k + 1)

    def label(self) -> str:
        return _label(self.grid_id, self.j, self.k)


@dataclass(frozen=True)
class TruncationWindow:
    """Spatial window [lo, hi) with scale range j_min..j_max.

    Finest cells live at scale j_max; their count N = (hi - lo) * 2^j_max.
    Window endpoints must be multiples of the coarsest length 2^-j_min so the
    standard grid tiles the window exactly at every enumerated scale.
    """

    lo: Fraction
    hi: Fraction
    j_min: int
    j_max: int

    def __post_init__(self):
        if self.hi <= self.lo:
            raise InvalidConfigurationError("empty window")
        if self.j_min > self.j_max:
            raise InvalidConfigurationError("j_min must not exceed j_max")
        coarse = Fraction(2) ** (-self.j_min)
        for edge in (self.lo, self.hi):
            if (edge / coarse).denominator != 1:
                raise InvalidConfigurationError(
                    "window endpoints must be multiples of the coarsest scale"
                )
        if self.n_cells > 8192:
            raise InvalidConfigurationError(
                f"cell count {self.n_cells} exceeds the hard cap 8192"
            )

    # Cached in the instance __dict__; equality and hashing still use the fields.
    @cached_property
    def span(self) -> Fraction:
        return self.hi - self.lo

    @cached_property
    def cell_width(self) -> Fraction:
        return Fraction(2) ** (-self.j_max)

    @cached_property
    def n_cells(self) -> int:
        n = self.span / self.cell_width
        return int(n)

    # Each entry equals float() of the exact Fraction whenever lo is a float:
    # the product (a count of half cells times a power of two) is exact, and
    # the sum rounds once.
    def cell_edges(self) -> np.ndarray:
        return float(self.lo) + np.arange(self.n_cells + 1) * float(self.cell_width)

    def cell_midpoints(self) -> np.ndarray:
        return float(self.lo) + (np.arange(self.n_cells) + 0.5) * float(self.cell_width)

    @cached_property
    def _lo_cells(self) -> int:
        """lo * 2^j_max, an integer because lo is a multiple of 2^-j_min."""
        return int(self.lo / self.cell_width)

    def cell_slice(self, interval: DyadicInterval) -> tuple[int, int]:
        """Indices [i0, i1) of the finest cells tiling a cell-aligned interval.

        A standard interval (j, k) with j <= j_max starts at cell
        i0 = (k << (j_max - j)) - lo * 2^j_max and covers i1 - i0 = 2^(j_max - j)
        cells, in integer arithmetic only.  Third-shift intervals, intervals
        finer than a cell and unknown grid ids are never cell-aligned, and an
        interval outside the window has no cells in it: all of these raise
        InvalidConfigurationError.
        """
        return self._cell_range(interval.grid_id, interval.j, interval.k)

    def cell_slices(self, table: IntervalTable) -> list[tuple[int, int]]:
        """`cell_slice` of the interval of every table row, read off the
        integer columns."""
        return [self._cell_range(table.grid_id, j, k) for j, k in zip(table.j.tolist(), table.k.tolist())]

    def _cell_range(self, grid_id: str, j: int, k: int) -> tuple[int, int]:
        shift = self.j_max - j
        if _shift_thirds(grid_id, j) != 0 or shift < 0:
            raise InvalidConfigurationError(f"{_label(grid_id, j, k)} is not cell-aligned")
        i0 = (k << shift) - self._lo_cells
        return self._inside(i0, i0 + (1 << shift), _label(grid_id, j, k))

    def slice_of(self, left: Fraction, right: Fraction) -> tuple[int, int]:
        """Indices [i0, i1) of the finest cells tiling [left, right), whose
        ends must be finite, cell-aligned and inside the window."""
        w = self.cell_width
        i0 = (_exact(left, "range end") - self.lo) / w
        i1 = (_exact(right, "range end") - self.lo) / w
        if i0.denominator != 1 or i1.denominator != 1:
            raise InvalidConfigurationError("endpoints not aligned to the cell lattice")
        return self._inside(int(i0), int(i1), f"[{left}, {right})")

    def _inside(self, i0: int, i1: int, what: str) -> tuple[int, int]:
        if not 0 <= i0 <= i1 <= self.n_cells:
            raise InvalidConfigurationError(f"{what} is not a cell range inside the window")
        return i0, i1


def _exact(x, what: str) -> Fraction:
    """x as an exact Fraction; a value with none (nan, inf) raises
    InvalidParameterError."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        raise InvalidParameterError(f"{what} {x!r} is not a finite number") from None


def make_window(lo, hi, j_min: int, j_max: int) -> TruncationWindow:
    lo, hi = _exact(lo, "window end"), _exact(hi, "window end")
    scales = [_exact(j, "scale") for j in (j_min, j_max)]
    if any(j.denominator != 1 for j in scales):
        raise InvalidParameterError(f"scales {j_min!r} and {j_max!r} must be integers")
    return TruncationWindow(lo, hi, *map(int, scales))


def default_window(j_max: int = 7) -> TruncationWindow:
    """The stock window [-4, 4) with coarse scale -2; j_max=7 gives N=1024."""
    return make_window(-4, 4, -2, j_max)


def enumerate_intervals(grid: DyadicGrid, window: TruncationWindow) -> list[DyadicInterval]:
    """All grid intervals fully inside the window, scale-major then left-to-right:
    the rows of `interval_table(grid, window)` as interval objects."""
    return interval_table(grid, window).intervals()


def _label(grid_id: str, j: int, k: int) -> str:
    """The label of interval (j, k) of grid `grid_id`, for objects and table rows alike."""
    return f"{grid_id}:j={j}:k={k}"


@dataclass(frozen=True)
class IntervalTable:
    """The intervals of one grid inside one window as read-only columns, one
    row per interval, scale-major then left to right.

    j and k are each row's integer scale and translation.  Every float entry
    equals float() of the exact Fraction value: left is (3k + t) 2^-j / 3 with
    t = 3 * grid_shift in {0, 1, -1}, an exact product followed by one
    correctly rounded division, and likewise for mid and right.
    """

    grid_id: str
    j: np.ndarray
    k: np.ndarray
    left: np.ndarray
    mid: np.ndarray
    right: np.ndarray
    length: np.ndarray

    def __len__(self) -> int:
        return len(self.j)

    def __getitem__(self, rows: slice | np.ndarray) -> "IntervalTable":
        """The table of the rows that `rows`, a slice or a boolean mask, selects."""
        columns = (self.j, self.k, self.left, self.mid, self.right, self.length)
        return IntervalTable(self.grid_id, *(column[rows] for column in columns))

    def label(self, row: int) -> str:
        return _label(self.grid_id, int(self.j[row]), int(self.k[row]))

    def labels(self) -> list[str]:
        """Every row's `DyadicInterval.label`."""
        return [_label(self.grid_id, j, k) for j, k in zip(self.j.tolist(), self.k.tolist())]

    def intervals(self) -> list[DyadicInterval]:
        """The rows as interval objects."""
        return [DyadicInterval(self.grid_id, j, k) for j, k in zip(self.j.tolist(), self.k.tolist())]


def _float_bounds(k, t, length):
    """Float (left, mid, right) of the interval(s) with translation k, shift
    thirds t and length 2^-j, for scalars or arrays alike: the numerators are
    exact integers, the product with a power of two is exact, and the one
    division rounds correctly, so each value is float() of the exact Fraction."""
    left = (3.0 * k + t) * length / 3.0
    mid = (6.0 * k + 3.0 + 2.0 * t) * (0.5 * length) / 3.0
    right = (3.0 * k + 3.0 + t) * length / 3.0
    return left, mid, right


# Translations up to this size keep 6k + 3 + 2t, and so every float column, exact.
_EXACT_K = 2**50


def interval_table(grid: DyadicGrid, window: TruncationWindow) -> IntervalTable:
    """Every interval of `grid` fully inside `window`, scale-major then left to
    right; intervals protruding outside the window are dropped.

    Each scale contributes one range of translations, and the columns are
    built from those ranges with array operations only.  A window so far from
    0 that a translation reaches 2^50 raises InvalidConfigurationError, as
    its float geometry could not be exact."""
    ts, ks = [], []
    for j in range(window.j_min, window.j_max + 1):
        # [left, right) = [3k + t, 3k + 3 + t) * 2^-j / 3 lies in [lo, hi)
        # exactly when 3k + t >= lo * 3 * 2^j and 3k + 3 + t <= hi * 3 * 2^j
        t = _shift_thirds(grid.shift_rule, j)
        scale = 3 * Fraction(2) ** j
        k_min = math.ceil((window.lo * scale - t) / 3)
        k_max = math.floor((window.hi * scale - 3 - t) / 3)
        if max(abs(k_min), abs(k_max)) >= _EXACT_K:
            raise InvalidConfigurationError(
                f"scale-{j} translations of the window reach 2^50; its float geometry is not exact"
            )
        ts.append(t)
        ks.append(np.arange(k_min, k_max + 1, dtype=np.int64))
    counts = [len(k) for k in ks]
    j = np.repeat(np.arange(window.j_min, window.j_max + 1, dtype=np.int64), counts)
    t = np.repeat(ts, counts)
    k = np.concatenate(ks)
    length = np.ldexp(1.0, -j)
    left, mid, right = _float_bounds(k, t, length)
    for arr in (j, k, left, mid, right, length):
        arr.flags.writeable = False
    return IntervalTable(grid.grid_id, j, k, left, mid, right, length)


# The one Gauss-Legendre rule of the package: 32 nodes and weights on [-1, 1].
GAUSS_LEGENDRE_32 = np.polynomial.legendre.leggauss(32)


def gauss_legendre_32(fn, lo, hi) -> np.ndarray:
    """Row i: 32-node Gauss-Legendre of fn over [lo[i], hi[i]), for float
    arrays lo and hi.  fn is called once, on the (rows, 32) array of all rows'
    nodes, and returns values of that shape; each row sums as a lone row would."""
    nodes, wts = GAUSS_LEGENDRE_32
    half = 0.5 * (hi - lo)
    xs = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes
    return half * np.sum(wts * fn(xs), axis=1)


def haar_cell_values(interval: DyadicInterval, window: TruncationWindow) -> np.ndarray:
    """Exact cell values of h_I on the finest-cell lattice: +|I|^(-1/2) on
    the first half of I's `cell_slice` and -|I|^(-1/2) on the second.  An
    interval that is not cell-aligned, inside the window and of scale
    <= j_max - 1 raises InvalidConfigurationError."""
    if interval.j > window.j_max - 1:
        raise InvalidConfigurationError(
            f"Haar function of {interval.label()} is not resolvable at j_max {window.j_max}"
        )
    i0, i1 = window.cell_slice(interval)
    mid = (i0 + i1) // 2
    vals = np.zeros(window.n_cells)
    amp = 1.0 / np.sqrt(float(interval.length))
    vals[i0:mid] = amp
    vals[mid:i1] = -amp
    return vals
