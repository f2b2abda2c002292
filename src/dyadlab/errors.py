"""Exception types shared across the laboratory, and the one rule for what
counts as an integer or a real argument.

An integer argument (a scale, translation, seed, count or form) is an int
or a numpy integer; a real argument (p, a weight's exponent, centre or
scale, a window end) is any finite real number: an int, float, Fraction or
numpy number.  A bool is neither, and neither is a string, so a value typed
by a user is parsed before it reaches the library.  `integer` and `real`
return the plain int or float, or raise InvalidParameterError with the
caller's message; each also takes the one kind of bound its callers need
(an integer's least value, a real's strict lower bound).  Every module
checks its integer and real parameters through them.  Integration bounds
take the same rule through `reals`, which returns a float array and leaves
nan and inf to the integral that reads them.
"""

import math
from numbers import Real

import numpy as np


class DyadlabError(Exception):
    """Base class for all library errors."""


class InvalidConfigurationError(DyadlabError):
    """A window, grid, weight, or experiment configuration is unusable."""


class InvalidParameterError(DyadlabError):
    """A numeric parameter is outside its admissible range."""


class DegenerateWeightError(DyadlabError):
    """A weight vanishes (or its cell average does) where positivity is required."""


class DivergedIntegralError(DyadlabError):
    """A weight integral is non-finite on a named interval."""

    def __init__(self, message: str, interval=None):
        super().__init__(message)
        self.interval = interval


class InvalidMatrixError(DyadlabError):
    """An operator matrix contains non-finite entries."""


def is_integer(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def integer(x, message: str, least: int | None = None) -> int:
    """int(x) for an integer x that is at least `least` when that is given;
    any other x raises InvalidParameterError(message)."""
    if not is_integer(x) or (least is not None and x < least):
        raise InvalidParameterError(message)
    return int(x)


def real(x, message: str, above: float = -math.inf) -> float:
    """float(x) for a real number x whose float is finite and greater than
    `above`; a bool (numpy's included), a string, None, nan, inf, a number
    past the float range or one not above `above` raises
    InvalidParameterError(message)."""
    try:
        value = float(x) if isinstance(x, Real) and not isinstance(x, bool) else math.nan
    except OverflowError:  # an int or Fraction past the float range
        value = math.inf
    if not above < value < math.inf:
        raise InvalidParameterError(message)
    return value


def reals(x, message: str) -> np.ndarray:
    """x, a real number or an array of them, as a float array; a bool, a
    string or bytes, alone, in an array or anywhere in a list or tuple,
    raises InvalidParameterError(message).  nan and inf pass for the caller
    to judge, except among Fractions or ints past int64 (a numpy object
    array), each of which must pass `real`.  numpy reads a bool among
    numbers in a list as a number, so a list or tuple is scanned entry by
    entry; an array is judged by its dtype alone."""
    if isinstance(x, (list, tuple)) and any(
        isinstance(v, bool) or getattr(v, "dtype", None) == np.bool_ for v in np.asarray(x, dtype=object).flat
    ):
        raise InvalidParameterError(message)
    xs = np.asarray(x)
    if xs.dtype.kind == "O":
        xs = np.array([real(v, message) for v in xs.flat], dtype=float).reshape(xs.shape)
    elif xs.dtype.kind not in "iuf":
        raise InvalidParameterError(message)
    return xs.astype(float, copy=False)
