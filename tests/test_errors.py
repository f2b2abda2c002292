import math
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.errors import InvalidParameterError, integer, is_integer, real, reals


@pytest.mark.parametrize("x", [0, -3, 2**80, np.int64(5), np.int8(-1), np.uint16(7)], ids=repr)
def test_integers(x):
    assert is_integer(x)
    got = integer(x, "unused")
    assert type(got) is int and got == x


@pytest.mark.parametrize("x", [True, False, np.True_, 1.0, Fraction(1), "1", None, np.array(1)], ids=repr)
def test_not_integers(x):
    assert not is_integer(x)
    with pytest.raises(InvalidParameterError, match="^the message$"):
        integer(x, "the message")


def test_integer_least():
    assert integer(3, "m", least=3) == 3
    with pytest.raises(InvalidParameterError):
        integer(2, "m", least=3)


@pytest.mark.parametrize(
    "x, want",
    [(2, 2.0), (0.5, 0.5), (Fraction(1, 3), 1.0 / 3.0), (np.float32(0.1), float(np.float32(0.1))),
     (np.int64(-4), -4.0), (2**80, 2.0**80), (np.float64(1e308), 1e308)],
    ids=repr,
)
def test_reals(x, want):
    got = real(x, "unused")
    assert type(got) is float and got == want


@pytest.mark.parametrize(
    "x", [True, np.False_, "2", None, math.nan, math.inf, -math.inf, np.float64(math.nan), 10**400,
          Fraction(10**400), 1j, np.array(1.0)],
    ids=repr,
)
def test_not_reals(x):
    with pytest.raises(InvalidParameterError, match="^the message$"):
        real(x, "the message")


def test_real_above_is_strict():
    assert real(1e-300, "m", above=0.0) == 1e-300
    for x in (0, 0.0, -0.0, -1):
        with pytest.raises(InvalidParameterError):
            real(x, "m", above=0.0)


@pytest.mark.parametrize(
    "x, want",
    [(0.5, [0.5]), (3, [3.0]), (np.float32(0.1), [float(np.float32(0.1))]), (Fraction(1, 3), [1.0 / 3.0]),
     (math.nan, [math.nan]), (-math.inf, [-math.inf]), ([1, 2.5, np.int8(-3)], [1.0, 2.5, -3.0]),
     ([Fraction(1, 3), 2**80], [1.0 / 3.0, 2.0**80]), (np.array([[1, 2], [3, 4]], dtype=np.uint8), [1.0, 2.0, 3.0, 4.0]),
     ([], [])],
    ids=repr,
)
def test_real_arrays(x, want):
    """A real number or an array of them becomes a float64 array of the same
    shape, with float(x)'s bits; nan and inf pass."""
    got = reals(x, "unused")
    assert got.dtype == np.float64 and got.shape == np.shape(x)
    assert got.ravel().tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize(
    "x", [True, np.True_, "1", b"1", None, 1j, ["0", "1"], [b"0"], np.array([True]), [1, None],
          [Fraction(1, 3), math.nan], [Fraction(1, 3), 10**400], [True, 0.0], (0.5, np.False_),
          [[0.0], [True]], [np.array(True), 1.0], [[1.0, 2.0], np.array([False, True])]],
    ids=repr,
)
def test_not_real_arrays(x):
    """A bool, a string or bytes is refused alone, in an array or anywhere in
    a list or tuple of numbers (numpy alone reads the bool as 1.0 or 0.0),
    and so is an entry of a mixed object array that `real` refuses."""
    with pytest.raises(InvalidParameterError, match="^the message$"):
        reals(x, "the message")
