"""Dense matrix representations over the finest-cell orthonormal basis.

Basis vectors are e_i = |cell|^(-1/2) * indicator(cell_i); entries are
<T e_j, e_i> in unweighted L2.  Paraproduct, Haar multiplier, dyadic shift,
and multiplication matrices are finite sums of exact cellwise products.  Each
Haar term of the paraproduct, multiplier, shift and remainders touches only
the I x I block of its interval, so it is written there: the block's cell
range comes from integer (j, k) arithmetic (`TruncationWindow.cell_slice`),
and h_I is the local vector +-1/sqrt(cells) on I's cells (`_local_haar`).
The Hilbert transform matrix comes from the closed-form primitive
G(t) = t (ln|t| - 1), which renders every cell-pair principal value finite
(diagonal entries vanish by antisymmetry); a box integral depends only on the
cell lag i - j, so H is the Toeplitz matrix of 2N - 1 box values.
Haar-expansion operators act as stated on the resolvable Haar span and as
zero on its orthogonal complement; the sign multiplier additionally keeps the
unresolved coarse averages fixed so that the all-plus pattern is the
identity.  Assembly loops run in enumeration order, which makes every matrix
bit-reproducible.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidConfigurationError, InvalidMatrixError
from .grids import (
    DyadicGrid,
    DyadicInterval,
    TruncationWindow,
    enumerate_intervals,
)
from .symbols import Symbol, haar_coefficient
from .weights import Weight

UNWEIGHTED = "unweighted"


@dataclass
class OperatorMatrix:
    """Dense N x N matrix with basis metadata and weight tags; every entry is
    finite, or construction raises InvalidMatrixError."""

    mat: np.ndarray
    window: TruncationWindow
    source_weight: str = UNWEIGHTED
    target_weight: str = UNWEIGHTED
    name: str = "operator"

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=float)
        n = self.window.n_cells
        if self.mat.shape != (n, n):
            raise InvalidConfigurationError(
                f"matrix shape {self.mat.shape} does not match {n} cells"
            )
        # min and max propagate NaN and inf without an N x N mask
        if not (np.isfinite(self.mat.min()) and np.isfinite(self.mat.max())):
            raise InvalidMatrixError(f"{self.name} contains non-finite entries")

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def to_binary(self, path) -> None:
        """Header (N, j_max, lo, hi) as little-endian 8-byte floats, then the
        row-major entries as 8-byte floats."""
        with open(path, "wb") as fh:
            fh.write(
                struct.pack(
                    "<4d",
                    float(self.n),
                    float(self.window.j_max),
                    float(self.window.lo),
                    float(self.window.hi),
                )
            )
            fh.write(np.ascontiguousarray(self.mat, dtype="<f8").tobytes())

    @staticmethod
    def read_binary(path) -> tuple[np.ndarray, dict]:
        with open(path, "rb") as fh:
            n, j_max, lo, hi = struct.unpack("<4d", fh.read(32))
            n = int(n)
            data = np.frombuffer(fh.read(), dtype="<f8").reshape(n, n)
        return data, {"n": n, "j_max": int(j_max), "lo": lo, "hi": hi}

    def to_csv(self, path) -> None:
        lines = []
        for row in self.mat:
            lines.append(",".join(f"{v:.11e}" for v in row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _require_standard(grid: DyadicGrid, what: str) -> None:
    if grid.grid_id != "standard":
        raise InvalidConfigurationError(
            f"{what} needs cell-aligned intervals; the shifted grid enters "
            "through norms only"
        )


def _haar_scales(window: TruncationWindow, grid: DyadicGrid, max_scale: int):
    """Enumerated intervals whose Haar functions are resolvable (and, for the
    shift, whose grandchildren are too)."""
    return [
        interval
        for interval in enumerate_intervals(grid, window)
        if interval.j <= max_scale
    ]


def _local_haar(interval: DyadicInterval, window: TruncationWindow):
    """(i0, i1, h): the cells [i0, i1) of I and h_I in orthonormal cell
    coordinates on those cells only, +1/sqrt(cells) then -1/sqrt(cells)."""
    i0, i1 = window.cell_slice(interval)
    cells = i1 - i0
    if cells < 2:
        raise InvalidConfigurationError(f"Haar function of {interval.label()} is unresolvable")
    amp = 1.0 / math.sqrt(cells)
    h = np.full(cells, amp)
    h[cells // 2 :] = -amp
    return i0, i1, h


def coarse_unit_vectors(window: TruncationWindow) -> list[np.ndarray]:
    """Orthonormal indicators of the coarsest-scale intervals, which tile the
    window with 2^(j_max - j_min) cells each."""
    step = 1 << (window.j_max - window.j_min)
    out = []
    for i0 in range(0, window.n_cells, step):
        v = np.zeros(window.n_cells)
        v[i0 : i0 + step] = 1.0 / math.sqrt(step)
        out.append(v)
    return out


def paraproduct_matrix(
    b: Symbol, grid: DyadicGrid, window: TruncationWindow
) -> OperatorMatrix:
    """Sum over enumerated resolvable I of b_hat(I) * (h_I outer avg_I)."""
    _require_standard(grid, "paraproduct assembly")
    n = window.n_cells
    width = float(window.cell_width)
    mat = np.zeros((n, n))
    for interval in _haar_scales(window, grid, window.j_max - 1):
        bh = haar_coefficient(b, interval)
        if bh == 0.0:
            continue
        i0, i1 = window.cell_slice(interval)
        m0 = (i0 + i1) // 2
        length = math.ldexp(1.0, -interval.j)
        amp = 1.0 / math.sqrt(length)
        # row pattern: h_I at cells times sqrt(width); column: width/|I| * sqrt(width)/width
        col = math.sqrt(width) / length
        row_top = amp * math.sqrt(width)
        mat[i0:m0, i0:i1] += bh * row_top * col
        mat[m0:i1, i0:i1] -= bh * row_top * col
    return OperatorMatrix(mat, window, name="paraproduct")


def paraproduct_adjoint_matrix(
    b: Symbol, grid: DyadicGrid, window: TruncationWindow
) -> OperatorMatrix:
    base = paraproduct_matrix(b, grid, window)
    return OperatorMatrix(base.mat.T.copy(), window, name="paraproduct_adjoint")


def haar_multiplier_matrix(
    signs: Mapping[DyadicInterval, int] | Callable[[DyadicInterval], int] | int,
    grid: DyadicGrid,
    window: TruncationWindow,
) -> OperatorMatrix:
    """Sign multiplier: diagonal +/-1 on the resolvable Haar span, identity on
    the unresolved coarse averages."""
    _require_standard(grid, "sign multiplier assembly")
    if isinstance(signs, int):
        fixed = signs
        sign_of = lambda interval: fixed
    elif callable(signs):
        sign_of = signs
    else:
        mapping = dict(signs)

        def sign_of(interval):
            if interval not in mapping:
                raise InvalidConfigurationError(f"sign pattern has no entry for {interval.label()}")
            return mapping[interval]
    n = window.n_cells
    mat = np.zeros((n, n))
    for interval in _haar_scales(window, grid, window.j_max - 1):
        s = sign_of(interval)
        if s not in (-1, 1):
            raise InvalidConfigurationError(
                f"sign pattern must map to +/-1; got {s} on {interval.label()}"
            )
        i0, i1, h = _local_haar(interval, window)
        mat[i0:i1, i0:i1] += s * np.outer(h, h)
    step = 1 << (window.j_max - window.j_min)  # cells per coarsest interval
    amp = 1.0 / math.sqrt(step)
    for i0 in range(0, n, step):
        mat[i0 : i0 + step, i0 : i0 + step] += amp * amp
    return OperatorMatrix(mat, window, name="haar_multiplier")


def haar_shift_matrix(grid: DyadicGrid, window: TruncationWindow) -> OperatorMatrix:
    """Dyadic shift h_I -> (h_(left child) - h_(right child)) / sqrt(2) on
    every interval whose children's Haar functions are resolvable; zero on the
    orthogonal complement."""
    _require_standard(grid, "dyadic shift assembly")
    n = window.n_cells
    mat = np.zeros((n, n))
    for interval in _haar_scales(window, grid, window.j_max - 2):
        i0, i1, h = _local_haar(interval, window)
        # both children carry the same local pattern, on I's two halves
        _, _, hc = _local_haar(interval.left_child, window)
        out = np.concatenate((hc, -hc)) / math.sqrt(2.0)
        mat[i0:i1, i0:i1] += np.outer(out, h)
    return OperatorMatrix(mat, window, name="haar_shift")


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
    evaluated at the 2N+1 lags d * width and the 2N-1 box values fill a
    Toeplitz matrix."""
    n = window.n_cells
    width = float(window.cell_width)
    g = hilbert_primitive(np.arange(-n, n + 1) * width)
    # G((d+1)w) - G(dw) - G(dw) + G((d-1)w): with [a,b) the x-cell and [c,d)
    # the y-cell, G(b-c) - G(a-c) - G(b-d) + G(a-d); entry d + n - 1 for lag d
    box = (g[2:] - g[1:-1] - g[1:-1] + g[:-2]) / width
    mat = sliding_window_view(box[::-1], n)[::-1].copy()
    np.fill_diagonal(mat, 0.0)
    return OperatorMatrix(mat, window, name="hilbert")


def multiplication_matrix(b: Symbol, window: TruncationWindow) -> OperatorMatrix:
    """Diagonal matrix of the cell values (cell averages for analytic kinds)."""
    return OperatorMatrix(np.diag(b.cell_values()), window, name="multiplication")


def weight_conjugate(t: OperatorMatrix, lam: Weight, mu: Weight) -> OperatorMatrix:
    """diag(sqrt(d lam)) @ T @ diag(1/sqrt(d mu)), d = `Weight.cell_discretization`.

    Weighted Schatten functionals of T between the mu- and lam-weighted spaces
    are defined as unweighted Schatten functionals of this conjugation.  A
    directly built weight is discretized by its cell averages; a weight
    obtained by `inv()` by the reciprocals of its primal's cell averages,
    which is the dual norm L2(w)* = L2(1/w) on step functions.  Hence
    conjugating by (lam.inv(), mu.inv()) undoes conjugating by (lam, mu),
    and conjugating T^T by (mu.inv(), lam.inv()) gives the transpose of
    conjugating T by (lam, mu).  A weight with a vanishing cell average
    raises DegenerateWeightError.
    """
    left = np.sqrt(lam.cell_discretization(t.window))
    right = 1.0 / np.sqrt(mu.cell_discretization(t.window))
    mat = t.mat * left[:, None] * right[None, :]
    return OperatorMatrix(
        mat,
        t.window,
        source_weight=mu.label,
        target_weight=lam.label,
        name=f"conj({t.name})",
    )


def multiplication_commutator(b: Symbol, t: OperatorMatrix) -> OperatorMatrix:
    """[M_b, T] assembled without forming products: entries (b_i - b_j) T_ij."""
    vals = b.cell_values()
    mat = (vals[:, None] - vals[None, :]) * t.mat
    return OperatorMatrix(mat, t.window, name=f"[mult,{t.name}]")


def _remainder(
    b: Symbol, grid: DyadicGrid, window: TruncationWindow, child_signs, scale: float, name: str
) -> OperatorMatrix:
    """Sum over resolvable I of (b_hat(I) / sqrt(scale |I|)) *
    ((s_l h_(left child) + s_r h_(right child)) outer h_I)."""
    _require_standard(grid, "remainder assembly")
    n = window.n_cells
    mat = np.zeros((n, n))
    s_left, s_right = child_signs
    for interval in _haar_scales(window, grid, window.j_max - 2):
        bh = haar_coefficient(b, interval)
        if bh == 0.0:
            continue
        i0, i1, h = _local_haar(interval, window)
        _, _, hc = _local_haar(interval.left_child, window)
        out = np.concatenate((s_left * hc, s_right * hc))
        coeff = bh / math.sqrt(scale * math.ldexp(1.0, -interval.j))
        mat[i0:i1, i0:i1] += coeff * np.outer(out, h)
    return OperatorMatrix(mat, window, name=name)


def remainder_matrix(b: Symbol, grid: DyadicGrid, window: TruncationWindow) -> OperatorMatrix:
    """Sum over resolvable I of (b_hat(I) / |I|^1/2) * (k_I outer h_I) with
    k_I = h_(right child) - h_(left child); the part of the shift commutator
    that is not a paraproduct composition."""
    return _remainder(b, grid, window, (-1.0, 1.0), 1.0, "shift_remainder")


def remainder_matrix_derived(
    b: Symbol, grid: DyadicGrid, window: TruncationWindow
) -> OperatorMatrix:
    """The remainder that direct dyadic algebra produces for the truncated
    system: sum of (b_hat(I) / sqrt(2 |I|)) * ((h_left + h_right) outer h_I).
    With it the six-term expansion closes exactly for step symbols."""
    return _remainder(b, grid, window, (1.0, 1.0), 2.0, "shift_remainder_derived")


def k_vector(interval: DyadicInterval, window: TruncationWindow) -> np.ndarray:
    """k_I = h_(right child) - h_(left child) in orthonormal cell coordinates."""
    v = np.zeros(window.n_cells)
    for child, sign in zip(interval.children, (-1.0, 1.0)):
        i0, i1, h = _local_haar(child, window)
        v[i0:i1] = sign * h
    return v


@dataclass
class ExpansionResidual:
    operator_norm: float
    frobenius_norm: float
    lhs_norm: float
    region: tuple[float, float]
    kind: str


def expansion_residual(
    b: Symbol,
    grid: DyadicGrid,
    window: TruncationWindow,
    kind: str = "shift",
    signs: Mapping[DyadicInterval, int] | Callable[[DyadicInterval], int] | int = 1,
    region: tuple[float, float] = (0.0, 1.0),
    remainder: str = "displayed",
    sign_order: str = "definition",
) -> ExpansionResidual:
    """Residual of the commutator expansion, restricted to inputs supported in
    the interior region.

    kind="shift": [M_b, S] against the four paraproduct compositions plus a
    remainder; remainder="displayed" uses the k_I form, remainder="derived"
    uses the child-sum form that closes the identity exactly for step data.
    kind="multiplier": [M_b, T_eps] against the four compositions alone.
    sign_order="definition" orders each composition by [b, T] f = b T f - T(bf);
    sign_order="displayed" flips the four composition terms.  The identity is
    never asserted; the restricted residual is measured and reported.
    """
    if sign_order not in ("definition", "displayed"):
        raise InvalidConfigurationError(f"unknown sign order {sign_order!r}")
    if remainder not in ("displayed", "derived"):
        raise InvalidConfigurationError(f"unknown remainder {remainder!r}")
    # restricting the domain to the region keeps only those columns
    i0, i1 = window.slice_of(*region)
    pi = paraproduct_matrix(b, grid, window).mat
    rem = None
    if kind == "shift":
        t = haar_shift_matrix(grid, window).mat
        if remainder == "displayed":
            rem = remainder_matrix(b, grid, window).mat
        else:
            rem = remainder_matrix_derived(b, grid, window).mat
    elif kind == "multiplier":
        t = haar_multiplier_matrix(signs, grid, window).mat
    else:
        raise InvalidConfigurationError(f"unknown expansion kind {kind!r}")
    # pi t - t pi + pi* t - t pi* in two products
    sym = pi + pi.T
    rhs = sym @ t - t @ sym
    if sign_order == "displayed":
        rhs = -rhs
    if rem is not None:
        rhs += rem
    # [M_b, T] entrywise: equal to mult @ t - t @ mult, whose sums add exact zeros
    vals = b.cell_values()
    lhs = vals[:, None] * t - t * vals[None, :]
    resid = lhs - rhs
    restricted = resid[:, i0:i1]
    sig = np.linalg.svd(restricted, compute_uv=False)
    return ExpansionResidual(
        operator_norm=float(sig[0]) if sig.size else 0.0,
        frobenius_norm=float(np.linalg.norm(restricted)),
        lhs_norm=float(np.linalg.norm(lhs[:, i0:i1])),
        region=region,
        kind=kind,
    )

