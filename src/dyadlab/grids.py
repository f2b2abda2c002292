"""Truncated dyadic systems: intervals, grids, windows, Haar functions.

Intervals are identified by (grid_id, scale j, translation k); each endpoint is
an exact Fraction built in one step from integers, left = (3k + t) 2^-j / 3
with t = 3 * grid_shift, so no floating accumulation ever enters the geometry.
Two grid families are supported: the standard grid and its one-third shift,
where the scale-j translation is (-1)^j * 2^-j / 3.  All types are immutable
and every operation is pure, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CoverNotFoundError, InvalidConfigurationError

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

    def interval(self, j: int, k: int) -> "DyadicInterval":
        return DyadicInterval(self.shift_rule, j, k)


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

    def endpoints(self) -> tuple[float, float]:
        left, _, right = self.float_bounds()
        return left, right

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

    @property
    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return self.left_child, self.right_child

    @property
    def parent(self) -> "DyadicInterval":
        k = (self.k - _shift_thirds(self.grid_id, self.j - 1)) // 2
        return DyadicInterval(self.grid_id, self.j - 1, k)

    @property
    def sibling(self) -> "DyadicInterval":
        parent = self.parent
        lc, rc = parent.children
        return rc if self == lc else lc

    def contains(self, other: "DyadicInterval") -> bool:
        return self.left <= other.left and other.right <= self.right

    def label(self) -> str:
        return f"{self.grid_id}:j={self.j}:k={self.k}"


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

    def contains_interval(self, left: Fraction, right: Fraction) -> bool:
        return self.lo <= left and right <= self.hi

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
        shift = self.j_max - interval.j
        if _shift_thirds(interval.grid_id, interval.j) != 0 or shift < 0:
            raise InvalidConfigurationError(f"{interval.label()} is not cell-aligned")
        i0 = (interval.k << shift) - self._lo_cells
        return self._inside(i0, i0 + (1 << shift), interval.label())

    def slice_of(self, left: Fraction, right: Fraction) -> tuple[int, int]:
        """Indices [i0, i1) of the finest cells tiling [left, right), which
        must be cell-aligned and inside the window."""
        w = self.cell_width
        i0 = (Fraction(left) - self.lo) / w
        i1 = (Fraction(right) - self.lo) / w
        if i0.denominator != 1 or i1.denominator != 1:
            raise InvalidConfigurationError("endpoints not aligned to the cell lattice")
        return self._inside(int(i0), int(i1), f"[{left}, {right})")

    def _inside(self, i0: int, i1: int, what: str) -> tuple[int, int]:
        if not 0 <= i0 <= i1 <= self.n_cells:
            raise InvalidConfigurationError(f"{what} is not a cell range inside the window")
        return i0, i1


def make_window(lo, hi, j_min: int, j_max: int) -> TruncationWindow:
    return TruncationWindow(Fraction(lo), Fraction(hi), int(j_min), int(j_max))


def default_window(j_max: int = 7) -> TruncationWindow:
    """The stock window [-4, 4) with coarse scale -2; j_max=7 gives N=1024."""
    return make_window(-4, 4, -2, j_max)


def enumerate_intervals(grid: DyadicGrid, window: TruncationWindow) -> list[DyadicInterval]:
    """All grid intervals fully inside the window, scale-major then left-to-right.

    Intervals protruding outside the window are dropped.
    """
    out: list[DyadicInterval] = []
    for j in range(window.j_min, window.j_max + 1):
        # [left, right) = [3k + t, 3k + 3 + t) * 2^-j / 3 lies in [lo, hi)
        # exactly when 3k + t >= lo * 3 * 2^j and 3k + 3 + t <= hi * 3 * 2^j
        t = _shift_thirds(grid.shift_rule, j)
        scale = 3 * Fraction(2) ** j
        k_min = math.ceil((window.lo * scale - t) / 3)
        k_max = math.floor((window.hi * scale - 3 - t) / 3)
        out += [DyadicInterval(grid.grid_id, j, k) for k in range(k_min, k_max + 1)]
    return out


@dataclass(frozen=True)
class IntervalTable:
    """Intervals with their float geometry as arrays, row i for intervals[i].

    Every entry equals float() of the exact Fraction value: left is
    (3k + t) 2^-j / 3 with t = 3 * grid_shift in {0, 1, -1}, an exact product
    followed by one correctly rounded division, and likewise for mid and right.
    """

    intervals: tuple[DyadicInterval, ...]
    left: np.ndarray
    mid: np.ndarray
    right: np.ndarray
    length: np.ndarray

    def __len__(self) -> int:
        return len(self.intervals)


def _float_bounds(k, t, length):
    """Float (left, mid, right) of the interval(s) with translation k, shift
    thirds t and length 2^-j, for scalars or arrays alike: the numerators are
    exact integers, the product with a power of two is exact, and the one
    division rounds correctly, so each value is float() of the exact Fraction."""
    left = (3.0 * k + t) * length / 3.0
    mid = (6.0 * k + 3.0 + 2.0 * t) * (0.5 * length) / 3.0
    right = (3.0 * k + 3.0 + t) * length / 3.0
    return left, mid, right


def interval_table(intervals: Iterable[DyadicInterval]) -> IntervalTable:
    """The table of `intervals`, typically `enumerate_intervals(grid, window)`."""
    intervals = tuple(intervals)
    k = np.empty(len(intervals))
    t = np.empty(len(intervals))
    j = np.empty(len(intervals), dtype=int)
    for i, iv in enumerate(intervals):
        j[i], k[i], t[i] = iv.j, iv.k, _shift_thirds(iv.grid_id, iv.j)
    length = np.ldexp(1.0, -j)
    left, mid, right = _float_bounds(k, t, length)
    for arr in (left, mid, right, length):
        arr.flags.writeable = False
    return IntervalTable(intervals, left, mid, right, length)


# The one Gauss-Legendre rule of the package: 32 nodes and weights on [-1, 1].
GAUSS_LEGENDRE_32 = np.polynomial.legendre.leggauss(32)


def haar_eval(interval: DyadicInterval, x) -> np.ndarray | float:
    """Haar function of the interval: +|I|^-1/2 on the left child, -|I|^-1/2
    on the right child, 0 outside.  Mean zero, unit L2 norm."""
    amp = 1.0 / np.sqrt(math.ldexp(1.0, -interval.j))
    left, mid, right = interval.float_bounds()
    xv = np.asarray(x, dtype=float)
    vals = np.where(
        (xv >= left) & (xv < mid),
        amp,
        np.where((xv >= mid) & (xv < right), -amp, 0.0),
    )
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(vals)
    return vals


def haar_cell_values(interval: DyadicInterval, window: TruncationWindow) -> np.ndarray:
    """Exact cell values of the Haar function on the finest-cell lattice.

    Requires a cell-aligned interval at scale <= j_max - 1.
    """
    if interval.j > window.j_max - 1:
        raise InvalidConfigurationError(
            f"Haar function at scale {interval.j} is not resolvable at j_max {window.j_max}"
        )
    i0, i1 = window.cell_slice(interval)
    m0, _ = window.cell_slice(interval.right_child)
    vals = np.zeros(window.n_cells)
    amp = 1.0 / np.sqrt(float(interval.length))
    vals[i0:m0] = amp
    vals[m0:i1] = -amp
    return vals


def find_cover(
    lo,
    hi,
    grids: Sequence[DyadicGrid],
    window: TruncationWindow,
    max_ratio: float = 4.0,
) -> DyadicInterval:
    """Smallest interval Q in any of the grids with [lo, hi) inside Q and
    |Q| <= max_ratio * (hi - lo).

    Scales are scanned from fine to coarse; raises CoverNotFoundError when no
    grid interval of admissible size contains the target.
    """
    lo_f = Fraction(lo)
    hi_f = Fraction(hi)
    if hi_f <= lo_f:
        raise InvalidConfigurationError("empty target interval")
    length = hi_f - lo_f
    budget = length * Fraction(max_ratio).limit_denominator(10**9)
    j_fine = -_floor_log2_at_least(length)
    # scan |Q| = 2^-j ascending from the first scale >= length
    j = j_fine
    while Fraction(2) ** (-j) <= budget:
        for grid in grids:
            scale_len = Fraction(2) ** (-j)
            shift = grid_shift(grid.shift_rule, j) * scale_len
            k = int((lo_f - shift) // scale_len)
            cand = DyadicInterval(grid.grid_id, j, k)
            if cand.left <= lo_f and hi_f <= cand.right:
                if window.contains_interval(cand.left, cand.right):
                    return cand
        j -= 1
    raise CoverNotFoundError(
        f"no cover of [{float(lo_f)}, {float(hi_f)}) within ratio {max_ratio}",
        float(lo_f),
        float(hi_f),
    )


def _floor_log2_at_least(length: Fraction) -> int:
    """Smallest integer m with 2^m >= length."""
    m = 0
    two = Fraction(2)
    if two**m < length:
        while two**m < length:
            m += 1
    else:
        while two ** (m - 1) >= length:
            m -= 1
    return m
