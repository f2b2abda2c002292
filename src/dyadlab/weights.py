"""A2 weights: evaluation, exact interval integrals, and diagnostics.

Weight kinds carry closed-form integrals wherever the kind admits one
(constant, power, spiked-lattice, and powers thereof); a composite fallback
uses Gauss-Legendre quadrature.  A BloomWeight bundles a source weight mu and
a target weight lam together with the derived intermediary nu = sqrt(mu/lam).
Weights are immutable; every method is pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateWeightError,
    DivergedIntegralError,
    InvalidConfigurationError,
    InvalidParameterError,
)
from .grids import (
    GAUSS_LEGENDRE_32,
    DyadicGrid,
    TruncationWindow,
    enumerate_intervals,
    interval_table,
)


@dataclass(frozen=True)
class Weight:
    """Base class: positive function with pointwise evaluation and interval
    integrals for both w and 1/w.

    A weight enters `weight_conjugate` through its `cell_discretization`.  A
    directly built weight is discretized by its cell averages, the exact Gram
    diagonal of L2(w) on cell step functions.  The weight returned by `inv()`
    is the dual: L2(w)* = L2(1/w) under the plain pairing, so it is
    discretized by the reciprocals of its primal's cell averages, and
    conjugating by (lam.inv(), mu.inv()) undoes conjugating by (lam, mu).
    Pointwise, a dual is the reciprocal 1/w: its `eval`, `integral` and
    `cell_averages` are those of 1/w.  It compares unequal to a directly
    built weight with the same parameters, since the two conjugate
    differently.
    """

    label = "weight"
    # The weight this one is the dual of; None for a directly built weight.
    _primal: "Weight | None" = field(default=None, init=False, repr=False)

    def eval(self, x):
        raise NotImplementedError

    def integral(self, a, b) -> float:
        raise NotImplementedError

    def integrals(self, lo, hi) -> np.ndarray:
        """Integrals over the intervals [lo[i], hi[i]), one `integral` call each."""
        pairs = zip(np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist())
        return np.array([self.integral(a, b) for a, b in pairs], dtype=float)

    def _reciprocal(self) -> "Weight":
        """The pointwise reciprocal 1/w, built directly."""
        raise NotImplementedError

    def inv(self) -> "Weight":
        """The dual weight: pointwise 1/w, discretized as the dual norm of w.

        An exact involution: w.inv().inv() is w.
        """
        if self._primal is not None:
            return self._primal
        dual = self._reciprocal()
        # dual is fresh and not yet shared, so setting its frozen field is safe
        object.__setattr__(dual, "_primal", self)
        return dual

    def power(self, s: float) -> "Weight":
        """The weight w^s, with closed forms preserved where possible."""
        raise NotImplementedError

    def __call__(self, x):
        return self.eval(x)

    def average(self, a, b) -> float:
        return self.integral(a, b) / (float(b) - float(a))

    def cell_averages(self, window: TruncationWindow) -> np.ndarray:
        """True averages of w over the window's cells, for a dual weight too
        (so avg(w) * avg(w.inv()) > 1 on a cell where w varies)."""
        edges = window.cell_edges()
        width = float(window.cell_width)
        vals = np.array(
            [self.integral(edges[i], edges[i + 1]) for i in range(window.n_cells)]
        )
        return vals / width

    def cell_discretization(self, window: TruncationWindow) -> np.ndarray:
        """The diagonal that represents L2(w) on the window's cell step
        functions: the cell averages of a directly built weight, and the
        reciprocals of the primal's cell averages for a dual weight."""
        primal = self if self._primal is None else self._primal
        avg = primal.cell_averages(window)
        if not np.all(avg > 0):
            raise DegenerateWeightError(
                f"{primal.label} has a cell average that is not positive"
            )
        return avg if primal is self else 1.0 / avg


@dataclass(frozen=True)
class ConstantWeight(Weight):
    value: float = 1.0

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise InvalidParameterError("constant weight must be positive and finite")

    @property
    def label(self) -> str:
        return f"const({self.value:g})"

    def eval(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value) if np.ndim(x) else self.value

    def integral(self, a, b) -> float:
        return self.value * (float(b) - float(a))

    def _reciprocal(self) -> "ConstantWeight":
        return ConstantWeight(1.0 / self.value)

    def power(self, s: float) -> "ConstantWeight":
        return ConstantWeight(self.value**s)


@dataclass(frozen=True)
class PowerWeight(Weight):
    """w(x) = coeff * |x - center|^exponent.  A2 membership needs |exponent| < 1."""

    exponent: float
    center: float = 1.0 / 3.0
    coeff: float = 1.0

    def __post_init__(self):
        if not -1.0 < self.exponent < 1.0:
            raise InvalidParameterError(
                "power weight exponent must lie in (-1, 1) for local integrability of w and 1/w"
            )
        if not self.coeff > 0:
            raise InvalidParameterError("power weight coefficient must be positive")

    @property
    def label(self) -> str:
        return f"|x-{self.center:g}|^{self.exponent:g}" + (
            "" if self.coeff == 1.0 else f"*{self.coeff:g}"
        )

    def eval(self, x):
        return self.coeff * np.abs(np.asarray(x, dtype=float) - self.center) ** self.exponent

    def integral(self, a, b) -> float:
        # antiderivative of |t|^alpha is sign(t) |t|^(1+alpha) / (1+alpha)
        alpha = self.exponent
        ta, tb = float(a) - self.center, float(b) - self.center

        def prim(t):
            return math.copysign(abs(t) ** (1.0 + alpha), t) / (1.0 + alpha)

        return self.coeff * (prim(tb) - prim(ta))

    def _reciprocal(self) -> "PowerWeight":
        return PowerWeight(-self.exponent, self.center, 1.0 / self.coeff)

    def power(self, s: float) -> Weight:
        alpha = self.exponent * s
        if not -1.0 < alpha < 1.0:
            raise InvalidParameterError(f"power {s} leaves the integrable range")
        return PowerWeight(alpha, self.center, self.coeff**s)


def _periodic_measure(u: float, v: float, period: float, width: float) -> float:
    """Lebesgue measure of [u, v) intersected with union_k [k*period, k*period + width)."""
    if v <= u:
        return 0.0
    n0 = math.floor(u / period)
    n1 = math.floor(v / period)
    if n0 == n1:
        return max(0.0, min(v - n0 * period, width) - max(u - n0 * period, 0.0))
    head = max(0.0, width - max(u - n0 * period, 0.0))
    head = min(head, width)
    tail = max(0.0, min(v - n1 * period, width))
    return head + (n1 - n0 - 1) * width + tail


def _times_power_of_two(m: float, e: float) -> float:
    """m * 2^e for m >= 0 where 2^e alone may overflow: 0.0 when m is 0
    (frexp gives the mantissa 0.0), inf when the product is past the float
    range too."""
    frac, ex = math.frexp(m)
    x = e + ex
    n = math.floor(x)
    try:
        return math.ldexp(frac * 2.0 ** (x - n), n)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SpikedLatticeWeight(Weight):
    """Lattice-spike weight: level j in 1..levels places spikes of height
    2^(growth * alpha * n_j) and width 2^(-(growth+1) * n_j) on the lattice of
    period 2^(-n_j), n_j = 2^j, each lattice shifted left by 2^(-2*n_j - 1);
    alpha = (1 + 1/r) / 2.  The weight is the pointwise max over levels, and 1
    off every spike.

    Its r-th power integrates to something that blows up in `levels` while the
    A2 statistic over interval families at ordinary scales stays flat.  Closed
    form integrals of any power rely on the spike sets of distinct levels
    being disjoint, which holds exactly when 2^(levels-1) <= growth + 1; the
    constructor enforces that regime.
    """

    r: float
    levels: int
    growth: float

    def __post_init__(self):
        if not self.r > 1:
            raise InvalidParameterError("spiked weight needs r > 1")
        alpha = self.alpha
        if not self.growth * (1.0 - alpha) > 2.0:
            raise InvalidParameterError(
                f"need growth*(1-alpha) > 2; got {self.growth * (1.0 - alpha):g}"
            )
        if self.levels < 1:
            raise InvalidParameterError("need at least one spike level")
        if 2 ** (self.levels - 1) > self.growth + 1:
            raise InvalidConfigurationError(
                "spike levels overlap when 2^(levels-1) > growth+1; "
                "closed-form integrals would be wrong in that regime"
            )
        # a frozen dataclass: the derived level table is set once, here
        object.__setattr__(self, "_levels", self._level_table())

    def _level_table(self) -> tuple[tuple[float, float, float, float], ...]:
        out = []
        for j in range(1, self.levels + 1):
            n_j = 2**j
            try:
                height = 2.0 ** self._height_exponent(j)
            except OverflowError:
                raise InvalidParameterError(
                    f"spike height 2^{self._height_exponent(j):g} of level {j} "
                    "overflows a float"
                ) from None
            width = 2.0 ** (-(self.growth + 1.0) * n_j)
            if width == 0.0:
                raise InvalidParameterError(
                    f"spike width 2^-{(self.growth + 1.0) * n_j:g} of level {j} "
                    "underflows to zero"
                )
            out.append((2.0 ** (-n_j), width, 2.0 ** (-2 * n_j - 1), height))
        return tuple(out)

    def _height_exponent(self, j: int) -> float:
        """log2 of the level-j spike height, exactly as the height is formed."""
        return self.growth * self.alpha * 2**j

    @property
    def alpha(self) -> float:
        return (1.0 + 1.0 / self.r) / 2.0

    @property
    def label(self) -> str:
        return f"spiked(r={self.r:g},J={self.levels},A={self.growth:g})"

    def level_params(self) -> tuple[tuple[float, float, float, float], ...]:
        """(period, width, offset, height) per level."""
        return self._levels

    def eval(self, x):
        xv = np.asarray(x, dtype=float)
        out = np.ones_like(xv)
        for period, width, offset, height in self._levels:
            on_spike = np.mod(xv + offset, period) < width
            out = np.where(on_spike, np.maximum(out, height), out)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def integral_power(self, a, b, s: float) -> float:
        """Closed-form integral of w^s over [a, b), exact under level disjointness."""
        af, bf = float(a), float(b)
        total = bf - af
        for j, (period, width, offset, height) in enumerate(self._levels, 1):
            m = _periodic_measure(af + offset, bf + offset, period, width)
            try:
                total += (height**s - 1.0) * m
            except OverflowError:  # height**s is past the float range, m * height**s may not be
                total += _times_power_of_two(m, s * self._height_exponent(j))
        if not math.isfinite(total):
            raise DivergedIntegralError(
                f"spiked weight power {s} integral diverged on [{af}, {bf})",
                (af, bf),
            )
        return total

    def integral(self, a, b) -> float:
        return self.integral_power(a, b, 1.0)

    def _reciprocal(self) -> "Weight":
        return _PowerOfSpiked(self, -1.0, 1.0)

    def power(self, s: float) -> "Weight":
        if s == 1.0:
            return self
        return _PowerOfSpiked(self, s, 1.0)


@dataclass(frozen=True)
class _PowerOfSpiked(Weight):
    base: SpikedLatticeWeight
    s: float
    scale: float = 1.0

    @property
    def label(self) -> str:
        return f"{self.base.label}^{self.s:g}" + ("" if self.scale == 1.0 else f"*{self.scale:g}")

    def eval(self, x):
        return self.scale * self.base.eval(x) ** self.s

    def integral(self, a, b) -> float:
        return self.scale * self.base.integral_power(a, b, self.s)

    def _reciprocal(self) -> "Weight":
        return _PowerOfSpiked(self.base, -self.s, 1.0 / self.scale)

    def power(self, t: float) -> "Weight":
        return _PowerOfSpiked(self.base, self.s * t, self.scale**t)


@dataclass(frozen=True)
class QuadratureWeight(Weight):
    """Composite weight integrated with 32-node Gauss-Legendre on segments of
    length at most seg_len / 2; pointwise evaluation via the callable."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "composite"
    seg_len: float = 0.125

    @property
    def label(self) -> str:
        return self.name

    def eval(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def integral(self, a, b) -> float:
        af, bf = float(a), float(b)
        if bf <= af:
            return 0.0
        nodes, wts = GAUSS_LEGENDRE_32
        n_seg = max(1, int(math.ceil((bf - af) / (self.seg_len / 2.0))))
        edges = np.linspace(af, bf, n_seg + 1)
        total = 0.0
        for i in range(n_seg):
            lo, hi = edges[i], edges[i + 1]
            half = 0.5 * (hi - lo)
            xs = 0.5 * (hi + lo) + half * nodes
            total += half * float(np.sum(wts * self.fn(xs)))
        if not math.isfinite(total):
            raise DivergedIntegralError(
                f"quadrature integral of {self.name} diverged on [{af}, {bf})", (af, bf)
            )
        return total

    def _reciprocal(self) -> "Weight":
        fn = self.fn
        return QuadratureWeight(lambda x: 1.0 / fn(x), f"1/({self.name})", self.seg_len)

    def power(self, s: float) -> "Weight":
        fn = self.fn
        return QuadratureWeight(lambda x: fn(x) ** s, f"({self.name})^{s:g}", self.seg_len)


def product_weight(u: Weight, v: Weight) -> Weight:
    """Pointwise product, simplified to a closed-form kind when possible."""
    if isinstance(u, ConstantWeight) and isinstance(v, ConstantWeight):
        return ConstantWeight(u.value * v.value)
    if isinstance(u, ConstantWeight):
        return _scaled(v, u.value)
    if isinstance(v, ConstantWeight):
        return _scaled(u, v.value)
    if (
        isinstance(u, PowerWeight)
        and isinstance(v, PowerWeight)
        and u.center == v.center
    ):
        return PowerWeight(u.exponent + v.exponent, u.center, u.coeff * v.coeff)
    return QuadratureWeight(lambda x: u.eval(x) * v.eval(x), f"{u.label}*{v.label}")


def _scaled(w: Weight, c: float) -> Weight:
    if c == 1.0:
        return w
    if isinstance(w, ConstantWeight):
        return ConstantWeight(c * w.value)
    if isinstance(w, PowerWeight):
        return PowerWeight(w.exponent, w.center, c * w.coeff)
    if isinstance(w, _PowerOfSpiked):
        return _PowerOfSpiked(w.base, w.s, c * w.scale)
    if isinstance(w, SpikedLatticeWeight):
        return _PowerOfSpiked(w, 1.0, c)
    return QuadratureWeight(lambda x: c * w.eval(x), f"{c:g}*{w.label}")


def derive_intermediary(mu: Weight, lam: Weight) -> Weight:
    """nu = mu^(1/2) * lam^(-1/2), kept in closed form whenever the pair allows."""
    return product_weight(mu.power(0.5), lam.power(-0.5))


@dataclass(frozen=True)
class BloomWeight:
    """Source weight mu, target weight lam, and the derived nu = sqrt(mu/lam).

    nu satisfies nu(x)^2 * lam(x) = mu(x) pointwise.
    """

    mu: Weight
    lam: Weight
    nu: Weight = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "nu", derive_intermediary(self.mu, self.lam))

    @property
    def label(self) -> str:
        return f"mu={self.mu.label},lam={self.lam.label}"


def unweighted_pair() -> BloomWeight:
    return BloomWeight(ConstantWeight(1.0), ConstantWeight(1.0))


@dataclass(frozen=True)
class A2Report:
    constant: float
    argmax_interval: tuple[float, float]
    family_size: int
    family_label: str


def interval_family(
    window: TruncationWindow,
    grids: Sequence[DyadicGrid],
    n_random: int = 1000,
    seed: int = 90210,
) -> list[tuple[float, float]]:
    """Dyadic intervals of the given grids plus seeded random intervals.

    Random lengths run from one finest cell up to a quarter of the window, so
    the family never probes below the resolved scale.
    """
    fam: list[tuple[float, float]] = []
    for grid in grids:
        table = interval_table(enumerate_intervals(grid, window))
        fam.extend(zip(table.left.tolist(), table.right.tolist()))
    rng = np.random.default_rng(seed)
    lo_f, hi_f = float(window.lo), float(window.hi)
    min_len = float(window.cell_width)
    max_len = float(window.span) / 4.0
    for _ in range(n_random):
        ell = math.exp(rng.uniform(math.log(min_len), math.log(max_len)))
        a = rng.uniform(lo_f, hi_f - ell)
        fam.append((a, a + ell))
    return fam


def a2_constant(
    w: Weight,
    window: TruncationWindow,
    family: Sequence[tuple[float, float]] | None = None,
    grids: Sequence[DyadicGrid] | None = None,
    seed: int = 90210,
) -> A2Report:
    """sup over the family of avg(w) * avg(1/w); always >= 1 by AM-GM."""
    if family is None:
        if grids is None:
            from .grids import standard_grid, third_shift_grid

            grids = (standard_grid(), third_shift_grid())
        family = interval_family(window, grids, seed=seed)
        family_label = "dyadic(both grids)+random(1000)"
    else:
        family_label = "user"
    if not family:
        raise InvalidConfigurationError("empty interval family")
    lo, hi = np.asarray(family, dtype=float).T
    ell = hi - lo
    pa = w.integrals(lo, hi) / ell
    pb = w.inv().integrals(lo, hi) / ell
    bad = ~(np.isfinite(pa) & np.isfinite(pb))
    if bad.any():
        a, b = family[int(np.argmax(bad))]
        raise DivergedIntegralError(
            f"non-integrable weight {w.label} on [{a}, {b})", (a, b)
        )
    prod = pa * pb
    best = int(np.argmax(prod))
    a, b = family[best]
    return A2Report(float(prod[best]), (a, b), len(family), family_label)


def doubling_ratio(w: Weight, interval: tuple[float, float], s: float) -> float:
    """w(sI) / (s * w(I)) for the concentric dilate sI, s > 1."""
    if s <= 1:
        raise InvalidParameterError("dilation factor must exceed 1")
    a, b = float(interval[0]), float(interval[1])
    c = 0.5 * (a + b)
    half = 0.5 * (b - a) * s
    big = w.integral(c - half, c + half)
    small = w.integral(a, b)
    if small <= 0:
        raise DegenerateWeightError(f"{w.label} has nonpositive mass on [{a}, {b})")
    return big / (s * small)


def pathological_weight(r: float, levels: int, growth: float) -> SpikedLatticeWeight:
    """Spiked-lattice weight with the stated blow-up pattern; see
    SpikedLatticeWeight for the parameter regime."""
    return SpikedLatticeWeight(r=r, levels=levels, growth=growth)


@dataclass(frozen=True)
class ReverseHolderReport:
    exponent: float | None
    constant: float
    ladder: tuple[float, ...]
    per_exponent: dict


def reverse_holder_exponent(
    w: Weight,
    window: TruncationWindow,
    ladder: Sequence[float] = (2.25, 2.5, 3.0, 4.0),
    cap: float = 10.0,
    grid: DyadicGrid | None = None,
) -> ReverseHolderReport:
    """Largest ladder exponent r with [avg_I w^(r/2)]^(2/r) <= cap * avg_I w
    uniformly over enumerated dyadic intervals; None when no rung qualifies."""
    if grid is None:
        from .grids import standard_grid

        grid = standard_grid()
    table = interval_table(enumerate_intervals(grid, window))
    ell = table.right - table.left
    avg = w.integrals(table.left, table.right) / ell
    per: dict[float, float] = {}
    for r in ladder:
        try:
            wr = w.power(r / 2.0)
            num = (wr.integrals(table.left, table.right) / ell) ** (2.0 / r)
        except (InvalidParameterError, DivergedIntegralError):
            per[r] = math.inf
            continue
        worst = float(np.max(num / avg, initial=0.0))
        per[r] = worst if math.isfinite(worst) else math.inf
    qualifying = [r for r in ladder if per[r] <= cap]
    if not qualifying:
        return ReverseHolderReport(None, math.inf, tuple(ladder), per)
    r_best = max(qualifying)
    return ReverseHolderReport(r_best, per[r_best], tuple(ladder), per)
