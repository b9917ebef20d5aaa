"""Exact half-integer arithmetic for spin labels and series parameters.

A ``HalfInt`` stores twice its value as a plain integer, so all selection
rules and summation bounds reduce to integer arithmetic and no spin label
ever touches floating point.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction

# 1/2 modulo the modulus of Python's numeric hash, as Fraction.__hash__
# uses it
_HASH_HALF = pow(2, -1, sys.hash_info.modulus)


def _comparison(op):
    """A HalfInt comparison, op on twice both values.  A HalfInt compares
    with numbers only (HalfInt, int, Fraction, float): HalfInt("1/2") ==
    "1/2" is False, as their hashes differ, and ordering against a str
    raises TypeError."""

    def compare(self, other):
        if isinstance(other, HalfInt):
            return op(self.twice, other.twice)
        if isinstance(other, (int, Fraction, float)):
            return op(self.twice, 2 * other)
        return NotImplemented

    return compare


class HalfInt:
    """An exact half-integer, stored as a doubled integer."""

    __slots__ = ("twice",)

    def __init__(self, value=0, *, twice=None):
        self.twice = doubled(value) if twice is None else int(twice)

    @property
    def is_integer(self):
        return self.twice % 2 == 0

    def as_fraction(self):
        return Fraction(self.twice, 2)

    def as_int(self):
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __add__(self, other):
        return HalfInt(twice=self.twice + doubled(other))

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(twice=self.twice - doubled(other))

    def __rsub__(self, other):
        return HalfInt(twice=doubled(other) - self.twice)

    def __neg__(self):
        return HalfInt(twice=-self.twice)

    def __mul__(self, other):
        # only by an int, which keeps the half-integer lattice
        if isinstance(other, int):
            return HalfInt(twice=self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __abs__(self):
        return HalfInt(twice=abs(self.twice))

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __hash__(self):
        # equal to hash(int) or hash(Fraction) of the same value
        t = self.twice
        if t % 2 == 0:
            return hash(t // 2)
        h = hash(hash(abs(t)) * _HASH_HALF)
        h = h if t > 0 else -h
        return -2 if h == -1 else h

    def __float__(self):
        return self.twice / 2

    def __int__(self):
        return self.as_int()

    def __bool__(self):
        return self.twice != 0

    def __str__(self):
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt('{self}')"


def _parse_twice(text):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        num, den = int(num), int(den)
        if den == 2:
            return num
        if den == 1:
            return 2 * num
        raise ValueError(f"{text!r} is not a half-integer")
    return 2 * int(text)


def doubled(value):
    """Twice a half-integer label (HalfInt, int, str, Fraction, float) as
    an int: the one reader of labels, which ``HalfInt(value)`` calls, so
    reading a label builds no HalfInt."""
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, HalfInt):
        return value.twice
    if isinstance(value, str):
        return _parse_twice(value)
    if isinstance(value, (Fraction, float)):
        twice = value * 2
        if twice != int(twice):
            raise ValueError(f"{value} is not a half-integer")
        return int(twice)
    raise TypeError(f"cannot read a half-integer from {type(value).__name__}")


def halfint(value):
    """Coerce ints, strings like "3/2", Fractions and floats to HalfInt."""
    return value if isinstance(value, HalfInt) else HalfInt(value)


def halfint_range(lo, hi):
    """All half-integers from lo to hi inclusive, in unit steps."""
    return [HalfInt(twice=t) for t in range(doubled(lo), doubled(hi) + 1, 2)]
