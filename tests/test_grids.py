import math
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.errors import DyadlabError, InvalidConfigurationError, InvalidParameterError
from dyadlab.grids import (
    GAUSS_LEGENDRE_32,
    THIRD_SHIFT,
    DyadicInterval,
    TruncationWindow,
    default_window,
    enumerate_intervals,
    gauss_legendre_32,
    grid_shift,
    haar_cell_values,
    interval_table,
    make_window,
    standard_grid,
    third_shift_grid,
)


def reference_shift(rule, j):
    return {"standard": Fraction(0), "third_shift": Fraction(-1 if j % 2 else 1, 3)}[rule]


def reference_geometry(interval):
    """left, right, mid and length as sums of Fractions, built one on another."""
    scale = Fraction(2) ** (-interval.j)
    length = Fraction(1, 1) * scale
    left = (Fraction(interval.k) + reference_shift(interval.grid_id, interval.j)) * scale
    return {"left": left, "right": left + length, "mid": left + length / 2, "length": length}


def reference_enumeration(grid, window):
    """Per scale, walk k up from the first interval at or right of lo."""
    out = []
    for j in range(window.j_min, window.j_max + 1):
        length = Fraction(2) ** (-j)
        shift = reference_shift(grid.shift_rule, j) * length
        k = int(-(-(window.lo - shift) // length))
        while Fraction(k) * length + shift + length <= window.hi:
            out.append(DyadicInterval(grid.grid_id, j, k))
            k += 1
    return out


WINDOWS = [
    pytest.param(default_window(5), id="negative_j_min"),
    pytest.param(make_window(Fraction(1, 2), 3, 1, 7), id="positive_j_min"),
    pytest.param(make_window(-3, 5, 0, 3), id="zero_j_min"),
    pytest.param(make_window(-4, 4, -2, 10), id="cell_cap"),
]
GRIDS = pytest.mark.parametrize(
    "grid", [standard_grid(), third_shift_grid()], ids=["standard", "shifted"]
)


def brute_third_shift_intervals(window):
    """Independent enumeration: scan a wide k range per scale and keep what fits."""
    out = []
    for j in range(window.j_min, window.j_max + 1):
        length = Fraction(2) ** (-j)
        shift = grid_shift(THIRD_SHIFT, j) * length
        for k in range(-200, 200):
            left = k * length + shift
            right = left + length
            if window.lo <= left and right <= window.hi:
                out.append((j, k))
    return out


class TestEnumeration:
    def test_unit_window_three_scales(self):
        w = make_window(0, 1, 0, 2)
        ints = enumerate_intervals(standard_grid(), w)
        assert len(ints) == 1 + 2 + 4

    def test_single_scale_is_whole_window(self):
        w = make_window(0, 1, 0, 0)
        ints = enumerate_intervals(standard_grid(), w)
        assert len(ints) == 1
        assert (float(ints[0].left), float(ints[0].right)) == (0.0, 1.0)

    def test_third_shift_matches_brute_enumeration(self):
        w = make_window(0, 2, 0, 1)
        ints = enumerate_intervals(third_shift_grid(), w)
        expected = brute_third_shift_intervals(w)
        assert [(i.j, i.k) for i in ints] == expected
        assert len(ints) == 4

    def test_scale_major_deterministic_order(self):
        w = default_window(3)
        ints = enumerate_intervals(standard_grid(), w)
        keys = [(i.j, i.k) for i in ints]
        assert keys == sorted(keys)

    def test_partition_at_each_scale(self):
        w = default_window(4)
        ints = enumerate_intervals(standard_grid(), w)
        for j in range(w.j_min, w.j_max + 1):
            scale = [i for i in ints if i.j == j]
            total = sum(i.length for i in scale)
            assert total == w.span
            rights = [i.right for i in scale]
            lefts = [i.left for i in scale]
            assert lefts[0] == w.lo and rights[-1] == w.hi
            assert all(rights[m] == lefts[m + 1] for m in range(len(scale) - 1))

    @GRIDS
    @pytest.mark.parametrize("window", WINDOWS)
    def test_matches_reference_walk(self, grid, window):
        assert enumerate_intervals(grid, window) == reference_enumeration(grid, window)

    def test_invalid_windows_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            make_window(1, 1, 0, 2)
        with pytest.raises(InvalidConfigurationError):
            make_window(0, 1, 3, 2)
        with pytest.raises(InvalidConfigurationError):
            make_window(Fraction(1, 3), 1, 0, 2)


class TestIntervals:
    def test_children_partition_parent(self):
        for grid_id in ("standard", "third_shift"):
            for j in (-2, 0, 3):
                for k in (-5, 0, 7):
                    parent = DyadicInterval(grid_id, j, k)
                    lc, rc = parent.left_child, parent.right_child
                    assert lc.left == parent.left
                    assert lc.right == rc.left == parent.mid
                    assert rc.right == parent.right
                    assert lc.length == rc.length == parent.length / 2

    def test_exact_length(self):
        interval = DyadicInterval("standard", 5, 11)
        assert interval.right - interval.left == Fraction(1, 32)

    @pytest.mark.parametrize("grid_id", ["standard", "third_shift"])
    @pytest.mark.parametrize("j", [-2, 0, 5, 13])
    def test_geometry_matches_fraction_reference(self, grid_id, j):
        for k in (-9, -1, 0, 1, 6, 8191):
            interval = DyadicInterval(grid_id, j, k)
            for name, exact in reference_geometry(interval).items():
                value = getattr(interval, name)
                assert type(value) is Fraction, name
                assert value == exact, (name, k)

    @pytest.mark.parametrize("grid_id", ["standard", "third_shift"])
    @pytest.mark.parametrize("j", [-2, 0, 5, 13])
    def test_float_bounds_bit_equal_to_fractions(self, grid_id, j):
        for k in (-9, -1, 0, 1, 6, 8191):
            interval = DyadicInterval(grid_id, j, k)
            exact = reference_geometry(interval)
            want = tuple(float(exact[name]) for name in ("left", "mid", "right"))
            assert interval.float_bounds() == want, k

    @pytest.mark.parametrize(
        "name",
        ["left", "right", "mid", "float_bounds", "left_child", "right_child"],
    )
    def test_unknown_grid_id_rejected(self, name):
        with pytest.raises(InvalidConfigurationError):
            value = getattr(DyadicInterval("hexagonal", 3, 1), name)
            if callable(value):
                value()


class TestWindow:
    def test_filled_caches_keep_field_equality(self):
        used = make_window(-4, 4, -2, 6)
        assert (used.span, used.cell_width, used.n_cells) == (8, Fraction(1, 64), 512)
        used.cell_edges()
        fresh = make_window(-4, 4, -2, 6)
        assert used == fresh and hash(used) == hash(fresh)
        assert {fresh: "window"}[used] == "window"
        assert used != make_window(-4, 4, -2, 7)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_cell_points_bit_equal_to_fractions(self, window):
        w = window.cell_width
        edges = [float(window.lo + i * w) for i in range(window.n_cells + 1)]
        assert np.array_equal(window.cell_edges(), np.array(edges))


def reference_cell_slice(window, interval):
    """Cell range from exact Fraction endpoints, as `slice_of` computes it."""
    i0 = (interval.left - window.lo) / window.cell_width
    i1 = (interval.right - window.lo) / window.cell_width
    if i0.denominator != 1 or i1.denominator != 1:
        raise InvalidConfigurationError("not aligned")
    if not 0 <= i0 <= i1 <= window.n_cells:
        raise InvalidConfigurationError("leaves the window")
    return int(i0), int(i1)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidConfigurationError as exc:
        return type(exc)


class TestCellSlice:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_integer_rule_matches_fractions(self, window):
        ks = (-16384, -4097, -64, -9, -1, 0, 1, 3, 6, 255, 1024, 8191, 16384)
        hits = 0
        for grid_id in ("standard", "third_shift", "hexagonal"):
            for j in range(-4, 16):
                # the fixed translations plus both window edges at this scale
                edges = [math.floor(e * Fraction(2) ** j) for e in (window.lo, window.hi)]
                for k in ks + tuple(e + d for e in edges for d in (-2, -1, 0, 1)):
                    interval = DyadicInterval(grid_id, j, k)
                    want = outcome(reference_cell_slice, window, interval)
                    assert outcome(window.cell_slice, interval) == want, interval
                    hits += isinstance(want, tuple)
        assert hits >= 4 * (window.j_max - window.j_min + 1)

    def test_outside_window_rejected(self):
        w = default_window(7)
        assert w.cell_slice(DyadicInterval("standard", -2, -1)) == (0, 512)
        for interval in (DyadicInterval("standard", -2, -2), DyadicInterval("standard", 0, 4)):
            with pytest.raises(InvalidConfigurationError, match="inside the window"):
                w.cell_slice(interval)

    @pytest.mark.parametrize("bounds", [(-10, 1), (0, 5), (-5, -4), (1, 0)])
    def test_slice_of_outside_window_rejected(self, bounds):
        with pytest.raises(InvalidConfigurationError):
            default_window(7).slice_of(*bounds)

    def test_slice_of_whole_window(self):
        w = default_window(7)
        assert w.slice_of(-4, 4) == (0, w.n_cells)
        assert w.slice_of(Fraction(1, 128), 1.0) == (513, 640)


class TestHaar:
    def test_mean_zero_unit_norm_cellwise(self):
        # cancellation is exact; the square of an odd-scale amplitude carries
        # one ulp of sqrt(2) rounding, hence 1e-15 on the norm
        w = make_window(0, 1, 0, 5)
        width = float(w.cell_width)
        for interval in enumerate_intervals(standard_grid(), w):
            if interval.j > w.j_max - 1:
                continue
            vals = haar_cell_values(interval, w)
            assert np.sum(vals) * width == 0.0
            assert np.sum(vals**2) * width == pytest.approx(1.0, abs=1e-15)

    def test_orthonormality(self):
        w = make_window(0, 1, 0, 4)
        width = float(w.cell_width)
        ints = [i for i in enumerate_intervals(standard_grid(), w) if i.j <= w.j_max - 1]
        mat = np.array([haar_cell_values(i, w) for i in ints]) * np.sqrt(width)
        # elementwise products cancel in exact +/- pairs; BLAS matmul would
        # reassociate through FMA and spoil the zero
        for a in range(len(ints)):
            for b in range(len(ints)):
                dot = np.sum(mat[a] * mat[b])
                if a == b:
                    assert dot == pytest.approx(1.0, abs=1e-12)
                else:
                    assert dot == 0.0


class TestIntervalTable:
    @pytest.mark.parametrize("grid", [standard_grid(), third_shift_grid()], ids=["standard", "shifted"])
    @pytest.mark.parametrize(
        "window",
        [default_window(7), make_window(-4, 4, -2, 10)],
        ids=["negative_j_min", "cell_cap"],
    )
    def test_bit_equal_to_fraction_geometry(self, grid, window):
        table = interval_table(grid, window)
        intervals = enumerate_intervals(grid, window)
        assert len(table) == len(intervals)
        for name in ("left", "mid", "right", "length"):
            exact = np.array([float(getattr(iv, name)) for iv in intervals])
            assert np.array_equal(getattr(table, name), exact), name

    @GRIDS
    @pytest.mark.parametrize("window", WINDOWS)
    def test_columns_and_labels_match_enumeration(self, grid, window):
        table = interval_table(grid, window)
        intervals = reference_enumeration(grid, window)
        assert table.grid_id == grid.grid_id
        assert table.j.tolist() == [iv.j for iv in intervals]
        assert table.k.tolist() == [iv.k for iv in intervals]
        assert table.labels() == [iv.label() for iv in intervals]
        assert [table.label(i) for i in range(len(table))] == table.labels()
        assert table.intervals() == intervals
        head = table[:5]
        assert head.labels() == table.labels()[:5]
        assert np.array_equal(head.mid, table.mid[:5])

    @pytest.mark.parametrize("window", WINDOWS)
    def test_cell_slices_match_cell_slice(self, window):
        table = interval_table(standard_grid(), window)
        assert window.cell_slices(table) == [window.cell_slice(iv) for iv in table.intervals()]
        with pytest.raises(InvalidConfigurationError, match="not cell-aligned"):
            window.cell_slices(interval_table(third_shift_grid(), window))

    def test_builds_no_interval_objects(self, monkeypatch):
        built = []
        init = DyadicInterval.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(DyadicInterval, "__init__", counted)
        for grid in (standard_grid(), third_shift_grid()):
            table = interval_table(grid, default_window(7))
            table.labels()
            table[:10]
        assert built == []
        assert len(enumerate_intervals(standard_grid(), default_window(2))) == len(built) > 0

    def test_unknown_grid_rule_rejected(self):
        grid = standard_grid()
        object.__setattr__(grid, "shift_rule", "hexagonal")  # past the constructor's check
        with pytest.raises(InvalidConfigurationError):
            interval_table(grid, default_window(2))

    def test_rows_bit_equal_to_float_bounds(self):
        """Both grids, coarse and fine scales, and windows on either side of 0:
        each row is its interval's own float_bounds()."""
        for grid in (standard_grid(), third_shift_grid()):
            for window in (make_window(-4, 6, -1, 4), make_window(Fraction(1, 2), 3, 1, 6)):
                table = interval_table(grid, window)
                for i, interval in enumerate(table.intervals()):
                    left, mid, right = interval.float_bounds()
                    row = (table.left[i], table.mid[i], table.right[i], table.length[i])
                    want = (left, mid, right, math.ldexp(1.0, -interval.j))
                    assert [float(x).hex() for x in row] == [x.hex() for x in want], interval.label()
        # scale 0 of the shifted grid is [1/3, 4/3), which leaves [0, 1)
        empty = interval_table(third_shift_grid(), make_window(0, 1, 0, 0))
        assert len(empty) == 0 and empty.labels() == []
        names = ("j", "k", "left", "mid", "right", "length")
        assert all(getattr(empty, name).shape == (0,) for name in names)

    def test_far_window_rejected(self):
        # translations of 2^60 have no exact float geometry
        with pytest.raises(InvalidConfigurationError, match="2\\^50"):
            interval_table(standard_grid(), make_window(2**60, 2**60 + 1, 0, 3))


def fraction_k_range(grid, window, j):
    """The scale-j translations k with [3k + t, 3k + 3 + t) 2^-j / 3 inside
    the window, by Fraction arithmetic: ceil and floor of the exact bounds."""
    t = 3 * grid_shift(grid.shift_rule, j)
    scale = 3 * Fraction(2) ** j
    return math.ceil((window.lo * scale - t) / 3), math.floor((window.hi * scale - 3 - t) / 3)


# windows on either side of the 2^50 guard: the last translation below it, and
# the first at it, at negative, zero and positive scales
GUARD_WINDOWS = [
    pytest.param(make_window(2**50 - 1, 2**50, 0, 0), id="below"),
    pytest.param(make_window(2**50, 2**50 + 1, 0, 0), id="at"),
    pytest.param(make_window(-(2**50 - 1), -(2**50 - 2), 0, 0), id="below-negative"),
    pytest.param(make_window(-(2**50), -(2**50) + 1, 0, 0), id="at-negative"),
    pytest.param(make_window(2**49 - 1, 2**49, 0, 1), id="below-finer"),
    pytest.param(make_window(2**49, 2**49 + 1, 0, 1), id="at-finer"),
    pytest.param(make_window(2**52 - 4, 2**52, -2, -2), id="below-coarser"),
    pytest.param(make_window(2**52, 2**52 + 4, -2, -2), id="at-coarser"),
    pytest.param(make_window(2**60, 2**60 + 1, 0, 3), id="far"),
]


class TestIntegerKRange:
    """`interval_table` finds each scale's translations with integer floor
    division; they are the Fraction formula's, on both grids."""

    @GRIDS
    @pytest.mark.parametrize(
        "window",
        [
            *WINDOWS,
            pytest.param(make_window(Fraction(-3, 4), Fraction(5, 4), 2, 6), id="lo_not_whole"),
            pytest.param(make_window(Fraction(-5, 4), Fraction(-1, 2), 2, 5), id="negative_fractions"),
            pytest.param(make_window(-6, -2, -1, 4), id="negative_window"),
        ],
    )
    def test_translations_match_fraction_formula(self, grid, window):
        table = interval_table(grid, window)
        for j in range(window.j_min, window.j_max + 1):
            k_min, k_max = fraction_k_range(grid, window, j)
            assert table.k[table.j == j].tolist() == list(range(k_min, k_max + 1)), j

    @GRIDS
    @pytest.mark.parametrize("window", GUARD_WINDOWS)
    def test_guard_raises_where_the_fraction_formula_reaches_2_50(self, grid, window):
        ranges = {j: fraction_k_range(grid, window, j) for j in range(window.j_min, window.j_max + 1)}
        if max(abs(k) for pair in ranges.values() for k in pair) >= 2**50:
            with pytest.raises(InvalidConfigurationError, match="2\\^50"):
                interval_table(grid, window)
            return
        table = interval_table(grid, window)
        for j, (k_min, k_max) in ranges.items():
            assert table.k[table.j == j].tolist() == list(range(k_min, k_max + 1)), j

    def test_guard_windows_cover_both_sides(self):
        """On the standard grid the "at" windows and the far one raise, and
        the "below" windows do not."""
        raised = []
        for param in GUARD_WINDOWS:
            try:
                interval_table(standard_grid(), param.values[0])
            except InvalidConfigurationError:
                raised.append(param.id)
        assert raised == ["at", "at-negative", "at-finer", "at-coarser", "far"]


class TestNonFiniteEntryPoints:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: make_window(math.nan, 1, 0, 2),
            lambda: make_window(0, math.inf, 0, 2),
            lambda: make_window(-math.inf, 0, 0, 2),
            lambda: default_window(4).slice_of(math.nan, 1.0),
            lambda: default_window(4).slice_of(0.0, math.inf),
            lambda: make_window(0, 1, 0, math.nan),
            lambda: make_window("0", "1", "0", "5"),
            lambda: make_window(False, True, 0, 5),
            lambda: default_window("5"),
            lambda: default_window(4).slice_of("0", "1"),
            lambda: default_window(4).slice_of(False, True),
        ],
        ids=["window nan", "window inf", "window -inf", "slice nan", "slice inf", "scale nan",
             "string window", "bool ends", "string j_max", "string range", "bool range"],
    )
    def test_rejected(self, call):
        """A string or a bool is no number (`errors.real`): it is refused,
        not parsed or read as 0 or 1."""
        with pytest.raises(InvalidParameterError, match="is not a finite number"):
            call()

    @pytest.mark.parametrize("j_min, j_max", [(0, 5.5), (0.5, 5), (Fraction(1, 2), 5)])
    def test_scale_that_is_not_an_integer_rejected(self, j_min, j_max):
        with pytest.raises(InvalidParameterError, match="must be integers"):
            make_window(0, 1, j_min, j_max)

    def test_integral_float_scale_kept(self):
        assert make_window(0, 1, 0.0, 5.0) == make_window(0, 1, 0, 5)

    @pytest.mark.parametrize("j_min, j_max", [(False, True), (0, True), (True, 5), (np.True_, 5)])
    def test_bool_scale_rejected(self, j_min, j_max):
        with pytest.raises(InvalidParameterError):
            make_window(0, 1, j_min, j_max)

    def test_numpy_integer_scale_kept(self):
        assert make_window(0, 1, np.int64(0), np.int32(5)) == make_window(0, 1, 0, 5)


class TestDirectWindow:
    """`TruncationWindow` takes the Fraction ends and integer scales that
    `make_window` builds; any other type raises a DyadlabError naming
    `make_window` instead of failing inside the checks."""

    @pytest.mark.parametrize(
        "lo, hi, j_min, j_max",
        [
            (0.5, 1, 0, 3),
            (Fraction(0), 1.0, 0, 3),
            (Fraction(0), Fraction(1), 0.0, 3),
            (Fraction(0), Fraction(1), 0, 3.5),
            (Fraction(0), Fraction(1), True, 3),
            (Fraction(0), Fraction(1), 0, np.True_),
        ],
        ids=["float-lo", "float-hi", "float-j_min", "fractional-j_max", "bool-j_min", "numpy-bool-j_max"],
    )
    def test_other_types_rejected_naming_make_window(self, lo, hi, j_min, j_max):
        with pytest.raises(DyadlabError, match="make_window"):
            TruncationWindow(lo, hi, j_min, j_max)

    def test_fraction_ends_and_int_scales_kept(self):
        """The form `make_window` builds, which `expansion_residual` builds
        too for the blocks its region meets."""
        window = TruncationWindow(Fraction(-1, 2), Fraction(3, 2), 1, 4)
        assert window == make_window(-0.5, 1.5, 1, 4)
        assert window.n_cells == 32
        assert TruncationWindow(Fraction(0), Fraction(1), np.int64(0), np.int32(3)) == make_window(0, 1, 0, 3)


def lone_interval_gauss_legendre(fn, a, b):
    """32-node Gauss-Legendre over one interval [a, b), on a 1-d node array."""
    nodes, wts = GAUSS_LEGENDRE_32
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
    return half * float(np.sum(wts * fn(xs)))


def _interval_sets():
    rng = np.random.default_rng(3)
    lo = rng.uniform(-5.0, 5.0, 700)
    edges = np.linspace(-300.0, 400.0, 2049)
    return {
        "one": (np.array([0.25]), np.array([0.75])),
        "random": (lo, lo + rng.uniform(1e-9, 3.0, 700)),
        "segments": (edges[:-1], edges[1:]),
        "cells": (default_window(8).cell_edges()[:-1], default_window(8).cell_edges()[1:]),
    }


class TestGaussLegendreApplier:
    """Each row of one applier call has the bits of the row alone: of a
    one-row call, and of the rule written out on a 1-d node array."""

    FNS = {
        "sin": np.sin,
        "exp": lambda x: np.exp(-x * x),
        "abs power": lambda x: np.abs(x - 1.0 / 3.0) ** -0.4,
        "cutoff": lambda x: np.where((x >= 0) & (x < 1), x**3 - x, 0.0),
    }

    @pytest.mark.parametrize("fn_name", sorted(FNS))
    @pytest.mark.parametrize("set_name", sorted(_interval_sets()))
    def test_rows_bit_equal_to_lone_rows(self, fn_name, set_name):
        fn = self.FNS[fn_name]
        lo, hi = _interval_sets()[set_name]
        calls = []

        def counted(x):
            calls.append(x.shape)
            return fn(x)

        rows = gauss_legendre_32(counted, lo, hi)
        assert calls == [(len(lo), 32)]
        alone = np.array([gauss_legendre_32(fn, lo[i : i + 1], hi[i : i + 1])[0] for i in range(len(lo))])
        assert rows.tobytes() == alone.tobytes()
        written = [lone_interval_gauss_legendre(fn, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert rows.tobytes() == np.array(written).tobytes()


class TestArgumentRule:
    """A numpy number or a Fraction builds the window its plain twin builds,
    and a Haar key's j and k are integers (`errors.is_integer`)."""

    def test_numpy_and_fraction_ends_kept(self):
        got = make_window(np.float64(-4), Fraction(4), np.int64(-2), np.int32(5))
        assert got == make_window(-4, 4, -2, 5)
        assert got.cell_edges().tobytes() == make_window(-4, 4, -2, 5).cell_edges().tobytes()

    def test_numpy_float32_end_kept(self):
        """Fraction takes no numpy float32, but its float is exact."""
        assert make_window(np.float32(0.5), 1, 1, 3) == make_window(0.5, 1, 1, 3)

    def test_huge_integer_end_refused(self):
        with pytest.raises(InvalidParameterError, match="is not a finite number"):
            make_window(0, 10**400, 0, 2)

    def test_numpy_integer_haar_key_kept(self):
        window = make_window(0, 1, 0, 4)
        got = haar_cell_values(DyadicInterval("standard", np.int64(1), np.int32(1)), window)
        assert got.tobytes() == haar_cell_values(DyadicInterval("standard", 1, 1), window).tobytes()
