"""Each table path against a per-row scalar reference, bit for bit.

Bits are compared through an int64 view, so a sign-of-zero difference fails
as any other would.
"""

import math

import numpy as np
import pytest

from dyadlab.besov import _abs_deviation_integrals, _subtree_sums
from dyadlab.errors import DivergedIntegralError
from dyadlab.grids import (
    default_window,
    enumerate_intervals,
    interval_table,
    make_window,
    standard_grid,
    third_shift_grid,
)
from dyadlab.symbols import (
    StepSymbol,
    haar_coefficient,
    haar_coefficients,
    quartic_bump_symbol,
    random_haar_symbol,
)
from dyadlab.weights import (
    ConstantWeight,
    PowerWeight,
    SpikedLatticeWeight,
    _times_power_of_two,
    pathological_weight,
)

GRIDS = [standard_grid(), third_shift_grid()]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestStepCoefficients:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.grid_id)
    @pytest.mark.parametrize(
        "window",
        [make_window(0, 1, 0, 4), make_window(0, 1, 0, 7), make_window(0, 1, 0, 9), default_window(6)],
        ids=["j4", "j7", "j9", "jmin-2"],
    )
    def test_equal_to_haar_coefficient(self, grid, window):
        table = interval_table(grid, window)
        rng = np.random.default_rng(window.j_max)
        for b in (
            random_haar_symbol(window, seed=window.j_max),
            StepSymbol(window, rng.normal(size=window.n_cells)),
        ):
            want = [haar_coefficient(b, interval) for interval in table.intervals()]
            assert np.array_equal(bits(haar_coefficients(b, table)), bits(want))

    def test_analytic_symbol_row_by_row(self):
        window = make_window(0, 1, 0, 6)
        table = interval_table(third_shift_grid(), window)
        b = quartic_bump_symbol(window)
        want = [haar_coefficient(b, interval) for interval in table.intervals()]
        assert np.array_equal(bits(haar_coefficients(b, table)), bits(want))


def spike_levels(w) -> list[tuple[float, float, float, float]]:
    """(period, width, offset, height) of each level j = 1..levels of a
    `SpikedLatticeWeight`'s base, by the formula of its docstring: with
    n = 2^j, period 2^-n, width 2^(-(growth+1) n), offset 2^(-2n-1) and
    height 2^(growth * alpha * n)."""
    return [
        (2.0**-n, 2.0 ** (-(w.growth + 1.0) * n), 2.0 ** (-2 * n - 1), 2.0 ** (w.growth * w.alpha * n))
        for n in (2**j for j in range(1, w.levels + 1))
    ]


def forward_end(a: float, b: float) -> float:
    """The end of [a, b) as a weight integral reads it: an inverted interval,
    b < a, is the empty interval [a, a)."""
    return a if b < a else b


def reference_spiked_power(w, a: float, b: float) -> float:
    """The per-interval closed form of `SpikedLatticeWeight`, scale * base^s,
    written with Python floats, one level at a time."""
    s, scale = w.s, w.scale
    b = forward_end(a, b)
    total = b - a
    for j, (period, width, offset, height) in enumerate(spike_levels(w), 1):
        u, v = a + offset, b + offset
        if v <= u:
            m = 0.0
        else:
            n0, n1 = math.floor(u / period), math.floor(v / period)
            if n0 == n1:
                m = max(0.0, min(v - n0 * period, width) - max(u - n0 * period, 0.0))
            else:
                head = min(max(0.0, width - max(u - n0 * period, 0.0)), width)
                tail = max(0.0, min(v - n1 * period, width))
                m = head + (n1 - n0 - 1) * width + tail
        try:
            total += (height**s - 1.0) * m
        except OverflowError:
            total += _times_power_of_two(m, s * w.growth * w.alpha * 2**j)
    return scale * total


def reference_power(w, a: float, b: float) -> float:
    """The per-interval closed form of `PowerWeight`, coeff * (F(b - center) -
    F(a - center)) with F(t) = sign(t) |t|^e / e and e = 1 + exponent,
    written with Python floats: the float `**` and `math.copysign`."""
    e = 1.0 + w.exponent

    def prim(t):
        return math.copysign(abs(t) ** e, t) / e

    return w.coeff * (prim(forward_end(a, b) - w.center) - prim(a - w.center))


def random_rows(n: int, seed: int):
    """Rows of many lengths, some inverted, some empty, some on a 2^-10 lattice."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-4.0, 4.0, n)
    hi = lo + 2.0 ** rng.uniform(-14.0, 1.0, n)
    lattice = np.round(lo[: n // 4] * 1024.0) / 1024.0
    lo = np.concatenate([lo, hi[: n // 8], lattice, [0.5]])
    hi = np.concatenate([hi, lo[: n // 8], lattice + 1.0 / 1024.0, [0.5]])
    return lo, hi


class TestWeightRows:
    @pytest.mark.parametrize(
        "w",
        [
            pathological_weight(2, 3, 9),
            pathological_weight(2, 3, 9).inv(),
            pathological_weight(2, 3, 9).power(1.25),
            SpikedLatticeWeight(2, 4, 60).power(2.0),
        ],
        ids=["spiked", "inv", "power1.25", "overflowing"],
    )
    def test_spiked_equal_to_reference(self, w):
        lo, hi = random_rows(4000, 17)
        rows = list(zip(lo.tolist(), hi.tolist()))
        want = [reference_spiked_power(w, a, b) for a, b in rows]
        assert np.array_equal(bits(w.integrals(lo, hi)), bits(want))
        assert np.array_equal(bits([w.integral(a, b) for a, b in rows]), bits(want))

    def test_overflow_row_finite(self):
        # height^2 = 2^1440 overflows on level 4, yet the level-4 spikes on
        # [0, 1) hold 2^464 in all, and the row totals 2^480
        w = SpikedLatticeWeight(2, 4, 60).power(2.0)
        got = w.integrals(np.array([0.3, 0.0]), np.array([0.300002, 1.0]))
        want = [reference_spiked_power(w, 0.3, 0.300002), reference_spiked_power(w, 0.0, 1.0)]
        assert np.array_equal(bits(got), bits(want))
        assert got[1] == 2.0**480

    def test_diverging_row_named(self):
        w = SpikedLatticeWeight(2, 4, 60).power(3.0)
        with pytest.raises(DivergedIntegralError) as info:
            w.integrals(np.array([0.3, 0.0, 0.5]), np.array([0.300002, 1.0, 1.5]))
        assert info.value.interval == (0.0, 1.0)
        assert "[0.0, 1.0)" in str(info.value)

    @pytest.mark.parametrize("w", [PowerWeight(0.5), PowerWeight(-0.3).inv(), PowerWeight(0.25, 0.0, 3.0)])
    def test_power_equal_to_scalar(self, w):
        lo, hi = random_rows(4000, 23)
        c = w.center
        # rows that end or start exactly at the centre, from either side
        lo = np.concatenate([lo, [c - 0.25, c, c - 1e-300, c, c]])
        hi = np.concatenate([hi, [c, c + 0.25, c, c - 0.5, c]])
        rows = list(zip(lo.tolist(), hi.tolist()))
        want = [reference_power(w, a, b) for a, b in rows]
        assert np.array_equal(bits(w.integrals(lo, hi)), bits(want))
        assert np.array_equal(bits([w.integral(a, b) for a, b in rows]), bits(want))

    @pytest.mark.parametrize("w", [ConstantWeight(2.5), ConstantWeight(3.0).inv()], ids=["constant", "inv"])
    def test_constant_equal_to_scalar(self, w):
        lo, hi = random_rows(4000, 29)
        rows = list(zip(lo.tolist(), hi.tolist()))
        want = [w.value * (forward_end(a, b) - a) for a, b in rows]
        assert np.array_equal(bits(w.integrals(lo, hi)), bits(want))
        assert np.array_equal(bits([w.integral(a, b) for a, b in rows]), bits(want))


def reference_deviation(vals, edges, width, a, c) -> float:
    """One row of the mean oscillation, summed over its own slice of cells."""
    i0 = max(0, math.floor((a - edges[0]) / width))
    i1 = min(len(vals), math.ceil((c - edges[0]) / width))
    cov = np.minimum(c, edges[i0 + 1 : i1 + 1]) - np.maximum(a, edges[i0:i1])
    v = vals[i0:i1]
    avg = float(np.sum(v * cov) / np.sum(cov))
    return float(np.sum(np.abs(v - avg) * cov))


def reference_subtree(terms, intervals):
    """Finest rows first; each row adds its children's sums, looked up by interval."""
    row = {interval: i for i, interval in enumerate(intervals)}
    out = terms.copy()
    for i in sorted(range(len(intervals)), key=lambda i: -intervals[i].j):
        for child in (intervals[i].left_child, intervals[i].right_child):
            if child in row:
                out[i] += out[row[child]]
    return out


class TestBmoTables:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.grid_id)
    @pytest.mark.parametrize("j_max", [4, 7, 9])
    def test_deviation_equal_to_per_row_loop(self, grid, j_max):
        window = default_window(j_max)
        table = interval_table(grid, window)
        vals = np.random.default_rng(j_max).normal(size=window.n_cells)
        edges, width = window.cell_edges(), float(window.cell_width)
        got = _abs_deviation_integrals(vals, edges, width, table.left, table.right)
        want = [
            reference_deviation(vals, edges, width, a, c)
            for a, c in zip(table.left.tolist(), table.right.tolist())
        ]
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.grid_id)
    @pytest.mark.parametrize("j_max", [4, 7])
    def test_subtree_sums_equal_to_per_row_loop(self, grid, j_max):
        window = default_window(j_max)
        table = interval_table(grid, window)
        terms = np.random.default_rng(j_max).exponential(size=len(table))
        got = _subtree_sums(terms, table)
        want = reference_subtree(terms, enumerate_intervals(grid, window))
        assert np.array_equal(bits(got), bits(want))
