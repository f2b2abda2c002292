"""A2 weights: evaluation, exact interval integrals, and diagnostics.

Weight kinds carry closed-form integrals wherever the kind admits one
(constant, power, spiked-lattice, and powers thereof); a composite fallback
uses Gauss-Legendre quadrature.  `Weight.integrals(lo, hi)` integrates a whole
table of intervals at once, and the scalar `integral(a, b)` is its one-row
case.  The closed-form kinds integrate with array operations only; the
quadrature kind, the one kind with its own scalar `integral`, makes one such
call per row.  That call cuts the row into equal segments of length at most
1/16 and sums them with `grids.gauss_legendre_32`, 2048 segments a call.  The
spiked kind is scale * base^s in one class.
`Weight.cell_averages`, the diagonal that `weight_conjugate` reads, is one
table call over the window's cells.  Every integral rejects a bound that is
not finite, and every closed-form `eval` a point that is not finite, with
InvalidParameterError; an inverted interval, b < a, is empty for every kind.
One float-range rule serves every kind: `Weight.integrals` runs the kind's
table path with overflow ignored, then raises InvalidParameterError naming
the first interval whose integral is not finite.  Only an overflowing power
(power kind) or a diverged sum (DivergedIntegralError) is reported first.
A BloomWeight bundles a source weight mu and a target weight lam together
with the derived intermediary nu = sqrt(mu/lam).  Weights are immutable;
every method is pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    DegenerateWeightError,
    DivergedIntegralError,
    InvalidConfigurationError,
    InvalidParameterError,
    integer,
    real,
    reals,
)
from .grids import (
    TruncationWindow,
    gauss_legendre_32,
    interval_table,
    standard_grid,
    third_shift_grid,
)


def _finite_bounds(lo, hi):
    """(lo, hi) as float arrays (`errors.reals`: a bool or a string is not a
    bound); raises InvalidParameterError naming the first interval
    [lo[i], hi[i]) with a bound that is not finite.  Every weight integral
    checks its bounds here."""
    lo, hi = (reals(x, "an integration bound is not a real number") for x in (lo, hi))
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not finite.all():
        i = int(np.argmin(finite))
        a, b = float(lo[i]), float(hi[i])
        raise InvalidParameterError(f"interval [{a}, {b}) has a bound that is not finite")
    return lo, hi


def _finite_points(x, w: "Weight") -> np.ndarray:
    """x as a float array; raises InvalidParameterError naming the first point
    that is not finite, where the weight w has no value.  The label is formed
    only then, since `eval` runs on every quadrature block."""
    xv = np.asarray(x, dtype=float)
    finite = np.isfinite(xv)
    if not finite.all():
        point = float(xv.flat[int(np.argmin(finite))])
        raise InvalidParameterError(f"{w.label} has no value at x = {point!r}")
    return xv


def _no_overflow(out, lo, hi, label: str):
    """out, the table integrals of the weight `label` over [lo, hi); raises
    InvalidParameterError naming the first interval whose integral overflows
    a float."""
    finite = np.isfinite(out)
    if finite.all():
        return out
    i = int(np.argmin(np.ravel(finite)))
    a, b = (float(np.broadcast_to(x, np.shape(out)).ravel()[i]) for x in (lo, hi))
    raise InvalidParameterError(f"integral of {label} over [{a}, {b}) overflows a float")


def _float_power(x: float, s: float) -> float:
    """x**s by the float `**`; raises InvalidParameterError when it overflows."""
    try:
        return x**s
    except OverflowError:
        raise InvalidParameterError(f"{x!r} ** {s!r} overflows a float") from None


def _store_real(weight: "Weight", name: str, message: str, above: float = -math.inf) -> None:
    """Set the field `name` of the frozen `weight` to the float that
    `errors.real` makes of it, or raise InvalidParameterError(message)."""
    object.__setattr__(weight, name, real(getattr(weight, name), message, above))


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
        """The integral over [a, b): the one-row case of `integrals`."""
        return float(self.integrals([a], [b])[0])

    def integrals(self, lo, hi) -> np.ndarray:
        """Integrals over the intervals [lo[i], hi[i]); an inverted one is
        empty, and one past the float range raises InvalidParameterError."""
        lo, hi = _finite_bounds(lo, hi)
        hi = np.where(hi < lo, lo, hi)
        with np.errstate(over="ignore"):
            out = self._integrals(lo, hi)
        return _no_overflow(out, lo, hi, self.label)

    def _integrals(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The table path on finite bounds."""
        raise NotImplementedError

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
        """The weight w^s for a real number s (`errors.real`: a bool or a
        string is not one), with closed forms preserved where possible."""
        return self._power(real(s, f"weight power {s!r} is not a finite real number"))

    def _power(self, s: float) -> "Weight":
        """w^s for a finite float s."""
        raise NotImplementedError

    def __call__(self, x):
        return self.eval(x)

    def cell_averages(self, window: TruncationWindow) -> np.ndarray:
        """True averages of w over the window's cells, for a dual weight too
        (so avg(w) * avg(w.inv()) > 1 on a cell where w varies): the cells'
        table integrals over the cell width."""
        edges = window.cell_edges()
        return self.integrals(edges[:-1], edges[1:]) / float(window.cell_width)

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
    """w(x) = value, a positive real number (`errors.real`) stored as a float."""

    value: float = 1.0

    def __post_init__(self):
        _store_real(self, "value", "constant weight must be positive and finite", above=0.0)

    @property
    def label(self) -> str:
        return f"const({self.value:g})"

    def eval(self, x):
        xv = _finite_points(x, self)
        return np.full_like(xv, self.value) if xv.ndim else self.value

    def _integrals(self, lo, hi):
        return self.value * (hi - lo)

    def _reciprocal(self) -> "ConstantWeight":
        return ConstantWeight(1.0 / self.value)

    def _power(self, s: float) -> "ConstantWeight":
        return ConstantWeight(_float_power(self.value, s))


@dataclass(frozen=True)
class PowerWeight(Weight):
    """w(x) = coeff * |x - center|^exponent.  A2 membership needs |exponent| < 1.
    The three are real numbers (`errors.real`) stored as floats, so a
    Fraction or numpy centre integrates as its float does."""

    exponent: float
    center: float = 1.0 / 3.0
    coeff: float = 1.0

    def __post_init__(self):
        exponent = "power weight exponent must lie in (-1, 1) for local integrability of w and 1/w"
        _store_real(self, "exponent", exponent)
        if not -1.0 < self.exponent < 1.0:
            raise InvalidParameterError(exponent)
        _store_real(self, "coeff", "power weight coefficient must be positive and finite", above=0.0)
        _store_real(self, "center", "power weight center must be finite")

    @property
    def label(self) -> str:
        return f"|x-{self.center:g}|^{self.exponent:g}" + (
            "" if self.coeff == 1.0 else f"*{self.coeff:g}"
        )

    def eval(self, x):
        return self.coeff * np.abs(_finite_points(x, self) - self.center) ** self.exponent

    def _integrals(self, lo, hi):
        # antiderivative of |t|^alpha is sign(t) |t|^(1+alpha) / (1+alpha)
        e = 1.0 + self.exponent

        def prim(x):
            t = x - self.center
            # np.float_power calls libm pow once per element, as the float `**`
            # does; np.power (and array `**`) takes a SIMD kernel that rounds
            # differently on about 5% of values.  `integrals` ignores its overflow
            mag = np.float_power(np.abs(t), e)
            if not np.isfinite(mag.max(initial=0.0)):
                bad = float(np.abs(t)[np.argmax(np.isinf(mag))])
                raise InvalidParameterError(f"{bad!r} ** {e!r} overflows a float")
            return np.copysign(mag, t) / e

        return self.coeff * (prim(hi) - prim(lo))

    def _reciprocal(self) -> "PowerWeight":
        return PowerWeight(-self.exponent, self.center, 1.0 / self.coeff)

    def _power(self, s: float) -> Weight:
        alpha = self.exponent * s
        if not -1.0 < alpha < 1.0:
            raise InvalidParameterError(f"power {s} leaves the integrable range")
        return PowerWeight(alpha, self.center, _float_power(self.coeff, s))


def _periodic_measure(u: np.ndarray, v: np.ndarray, period: float, width: float) -> np.ndarray:
    """Row i: the Lebesgue measure of [u[i], v[i]) intersected with
    union_k [k*period, k*period + width); 0.0 for an empty or inverted row."""
    n0 = np.floor(u / period)
    n1 = np.floor(v / period)
    start = np.maximum(u - n0 * period, 0.0)
    # [u, v) within one period
    inside = np.maximum(0.0, np.minimum(v - n0 * period, width) - start)
    # [u, v) across periods: the rest of u's spike, whole spikes, v's spike
    head = np.minimum(np.maximum(0.0, width - start), width)
    tail = np.maximum(0.0, np.minimum(v - n1 * period, width))
    across = head + (n1 - n0 - 1.0) * width + tail
    return np.where(v <= u, 0.0, np.where(n0 == n1, inside, across))


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
    alpha = (1 + 1/r) / 2.  The base weight is the pointwise max over levels,
    and 1 off every spike; the weight is scale * base^s.

    Its r-th power integrates to something that blows up in `levels` while the
    A2 statistic over interval families at ordinary scales stays flat.  Closed
    form integrals of any power rely on the spike sets of distinct levels
    being disjoint, which holds exactly when 2^(levels-1) <= growth + 1; the
    constructor enforces that regime, and takes `levels` only as an integer
    >= 1 (`errors.integer`: a bool is not one) and r, growth, s and the scale
    as finite real numbers (`errors.real`), stored as floats.  Powers, duals
    and scalar multiples change only s and the scale, which must be positive.
    """

    r: float
    levels: int
    growth: float
    s: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        _store_real(self, "r", "spiked weight needs r > 1", above=1.0)
        _store_real(self, "growth", f"spiked weight growth {self.growth!r} is not a finite number")
        alpha = self.alpha
        if not self.growth * (1.0 - alpha) > 2.0:
            raise InvalidParameterError(
                f"need growth*(1-alpha) > 2; got {self.growth * (1.0 - alpha):g}"
            )
        levels = f"spike levels must be an integer >= 1; got {self.levels!r}"
        object.__setattr__(self, "levels", integer(self.levels, levels, least=1))
        if 2 ** (self.levels - 1) > self.growth + 1:
            raise InvalidConfigurationError(
                "spike levels overlap when 2^(levels-1) > growth+1; "
                "closed-form integrals would be wrong in that regime"
            )
        _store_real(self, "s", f"spiked weight power {self.s!r} is not a finite number")
        _store_real(self, "scale", f"spiked weight scale {self.scale!r} must be positive and finite", above=0.0)
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
        base = f"spiked(r={self.r:g},J={self.levels},A={self.growth:g})"
        if self.s == 1.0 and self.scale == 1.0:
            return base
        return f"{base}^{self.s:g}" + ("" if self.scale == 1.0 else f"*{self.scale:g}")

    def eval(self, x):
        """scale * base^s; the power is the float `**` on a scalar x.  A point
        that is not finite, or a value past the float range, raises
        InvalidParameterError naming the point."""
        xv = _finite_points(x, self)
        out = np.ones_like(xv)
        for period, width, offset, height in self._levels:
            on_spike = np.mod(xv + offset, period) < width
            out = np.where(on_spike, np.maximum(out, height), out)
        try:
            with np.errstate(over="ignore"):
                value = self.scale * (float(out) if np.ndim(x) == 0 else out) ** self.s
        except OverflowError:  # the float ** on a scalar
            value = math.inf
        overflowed = np.isinf(value)
        if overflowed.any():
            point = float(xv.flat[int(np.argmax(overflowed))])
            raise InvalidParameterError(f"{self.label} at x = {point!r} overflows a float")
        return value

    def _integrals(self, lo, hi):
        """scale times the integral of base^s over each row [lo[i], hi[i]),
        exact for disjoint levels; raises DivergedIntegralError naming the
        first row where the integral of base^s is not finite."""
        s = self.s
        total = hi - lo
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (period, width, offset, height) in enumerate(self._levels, 1):
                m = _periodic_measure(lo + offset, hi + offset, period, width)
                try:
                    total = total + (height**s - 1.0) * m
                except OverflowError:  # height**s is past the float range, m * height**s may not be
                    e = s * self._height_exponent(j)
                    total = total + np.array([_times_power_of_two(x, e) for x in m.tolist()])
        diverged = ~np.isfinite(total)
        if diverged.any():
            i = int(np.argmax(diverged))
            a, b = float(lo[i]), float(hi[i])
            raise DivergedIntegralError(
                f"spiked weight power {s} integral diverged on [{a}, {b})", (a, b)
            )
        return self.scale * total

    def _reciprocal(self) -> "SpikedLatticeWeight":
        return replace(self, s=-self.s, scale=1.0 / self.scale)

    def _power(self, t: float) -> "SpikedLatticeWeight":
        return replace(self, s=self.s * t, scale=_float_power(self.scale, t))


# Segments per `fn` call in `QuadratureWeight.integral`: a (2048, 32) node
# array is 512 KiB, however long the interval.
_SEGMENT_BLOCK = 2048
# The longest quadrature segment; an interval is cut into equal segments.
_SEGMENT_LENGTH = 0.0625


@dataclass(frozen=True)
class QuadratureWeight(Weight):
    """Composite weight integrated with 32-node Gauss-Legendre on segments of
    length at most 1/16; pointwise evaluation via the callable, which maps an
    array of points to an array of values of the same shape.  `eval` raises
    InvalidParameterError at a point that is not finite; `integral` calls the
    callable on its finite nodes directly."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "composite"

    @property
    def label(self) -> str:
        return self.name

    def eval(self, x):
        return self.fn(_finite_points(x, self))

    def integral(self, a, b) -> float:
        af, bf = (float(ends[0]) for ends in _finite_bounds([a], [b]))
        if bf <= af:
            return 0.0
        n_seg = max(1, int(math.ceil((bf - af) / _SEGMENT_LENGTH)))
        edges = np.linspace(af, bf, n_seg + 1)
        total = 0.0
        # fn runs once per block of segments, and the segments are added to
        # the total one at a time, in order; a sum past the float range is
        # inf or nan here, and the check below names it
        for s0 in range(0, n_seg, _SEGMENT_BLOCK):
            cut = edges[s0 : s0 + _SEGMENT_BLOCK + 1]
            with np.errstate(over="ignore", invalid="ignore"):
                sums = gauss_legendre_32(self.fn, cut[:-1], cut[1:])
            for v in sums.tolist():
                total += v
        if not math.isfinite(total):
            raise DivergedIntegralError(
                f"quadrature integral of {self.name} diverged on [{af}, {bf})", (af, bf)
            )
        return total

    def _integrals(self, lo, hi):
        """One `integral` call per row."""
        pairs = zip(lo.tolist(), hi.tolist())
        return np.array([self.integral(a, b) for a, b in pairs], dtype=float)

    def _reciprocal(self) -> "Weight":
        fn = self.fn
        return QuadratureWeight(lambda x: 1.0 / fn(x), f"1/({self.name})")

    def _power(self, s: float) -> "Weight":
        fn = self.fn
        return QuadratureWeight(lambda x: fn(x) ** s, f"({self.name})^{s:g}")


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
    if isinstance(w, PowerWeight):
        return PowerWeight(w.exponent, w.center, c * w.coeff)
    if isinstance(w, SpikedLatticeWeight):
        return replace(w, scale=c * w.scale)
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


# The A2 family's random intervals: how many, and the default seed they are drawn from.
_FAMILY_RANDOM = 1000
_FAMILY_SEED = 90210


def _family_bounds(window: TruncationWindow, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) arrays of the A2 family: the interval tables of the
    standard and the one-third-shift grid, then `_FAMILY_RANDOM` random
    intervals drawn from `seed`.

    Random lengths run from one finest cell up to a quarter of the window, so
    the family never probes below the resolved scale.  Row k of the random
    intervals draws a log-uniform length, then a uniform start, as the two
    scalar calls `rng.uniform(log(min_len), log(max_len))` and
    `rng.uniform(lo, hi - ell)` would: the same stream, read as one
    (`_FAMILY_RANDOM`, 2) array, and the same arithmetic
    low + (high - low) * u.  Each exp takes `math.exp`, since numpy's may
    round differently."""
    tables = [interval_table(grid, window) for grid in (standard_grid(), third_shift_grid())]
    u = np.random.default_rng(seed).random((_FAMILY_RANDOM, 2))
    lo_f, hi_f = float(window.lo), float(window.hi)
    log_min = math.log(float(window.cell_width))
    log_max = math.log(float(window.span) / 4.0)
    log_ell = log_min + (log_max - log_min) * u[:, 0]
    ell = np.fromiter((math.exp(v) for v in log_ell.tolist()), float, _FAMILY_RANDOM)
    starts = lo_f + ((hi_f - ell) - lo_f) * u[:, 1]
    lo = np.concatenate([table.left for table in tables] + [starts])
    hi = np.concatenate([table.right for table in tables] + [starts + ell])
    return lo, hi


def a2_constant(w: Weight, window: TruncationWindow, seed: int = _FAMILY_SEED) -> A2Report:
    """sup over the A2 family of avg(w) * avg(1/w); always >= 1 by AM-GM.

    The family is `_family_bounds(window, seed)`: every interval of both
    grids in the window, then 1000 random intervals, read as two bound
    arrays.  Every one of them is finite and nonempty (the 2^50 guard of
    `interval_table` keeps one ulp of a random start below any random
    length), and `Weight.integrals` makes the integrals of w and 1/w
    finite or raises.  An average can still pass the float range on a short
    row where its integral does not; that row's product is then formed as
    (w(I) w^-1(I) / |I|) / |I|.  A seed that is not an integer >= 0, a bool
    included, raises InvalidParameterError."""
    seed = integer(seed, f"seed must be an integer >= 0; got {seed!r}", least=0)
    lo, hi = _family_bounds(window, seed)
    ell = hi - lo
    wa, wb = w.integrals(lo, hi), w.inv().integrals(lo, hi)
    with np.errstate(over="ignore"):
        prod = (wa / ell) * (wb / ell)
        prod = np.where(np.isfinite(prod), prod, wa * wb / ell / ell)
    best = int(np.argmax(prod))
    return A2Report(float(prod[best]), (float(lo[best]), float(hi[best])), lo.size)


def pathological_weight(r: float, levels: int, growth: float) -> SpikedLatticeWeight:
    """Spiked-lattice weight with the stated blow-up pattern; see
    SpikedLatticeWeight for the parameter regime."""
    return SpikedLatticeWeight(r=r, levels=levels, growth=growth)


@dataclass(frozen=True)
class ReverseHolderReport:
    exponent: float | None
    constant: float
    per_exponent: dict


# The reverse-Hoelder exponents tried, and the largest ratio a qualifying one may reach.
_RH_LADDER = (2.25, 2.5, 3.0, 4.0)
_RH_CAP = 10.0


def reverse_holder_exponent(w: Weight, window: TruncationWindow) -> ReverseHolderReport:
    """Largest exponent r of the ladder (2.25, 2.5, 3, 4) with
    [avg_I w^(r/2)]^(2/r) <= 10 avg_I w uniformly over the standard grid's
    intervals in the window; None when no rung qualifies.  The report lists
    every rung's worst ratio, inf where w^(r/2) has no finite integral."""
    table = interval_table(standard_grid(), window)
    ell = table.right - table.left
    avg = w.integrals(table.left, table.right) / ell
    per: dict[float, float] = {}
    for r in _RH_LADDER:
        try:
            wr = w.power(r / 2.0)
            num = (wr.integrals(table.left, table.right) / ell) ** (2.0 / r)
        except (InvalidParameterError, DivergedIntegralError):
            per[r] = math.inf
            continue
        worst = float(np.max(num / avg, initial=0.0))
        per[r] = worst if math.isfinite(worst) else math.inf
    qualifying = [r for r in _RH_LADDER if per[r] <= _RH_CAP]
    if not qualifying:
        return ReverseHolderReport(None, math.inf, per)
    r_best = max(qualifying)
    return ReverseHolderReport(r_best, per[r_best], per)
