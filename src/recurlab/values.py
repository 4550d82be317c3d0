"""Coordinate value algebra for exact and floating orbit arithmetic.

Three kinds of scalars circulate through the operator zoo:

* ``Fraction``   -- exact rationals (block-cycle weights, shift weights,
                    geometric fixed points);
* ``Phase``      -- a polar value ``mag * exp(2*pi*i*turns)`` whose magnitude
                    and angle are tracked separately.  With rational turns the
                    multiplicative structure is exact: powers of a root of
                    unity never drift, and equality with 1 is decidable.  With
                    float turns the magnitude is still drift-free (rotations
                    stay exactly unimodular under iteration);
* ``complex``    -- plain floating coordinates for everything else.

Products stay inside the algebra.  Differences are only ever needed through
their modulus, so :func:`diff_abs2` returns ``|a-b|^2`` exactly (a Fraction)
whenever the operands allow it and falls back to floats otherwise.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class Phase:
    """``mag * exp(2*pi*i*turns)`` with separately tracked magnitude and angle.

    ``turns`` is kept reduced modulo 1.  When both components are Fractions,
    products, powers and equality are exact.
    """

    __slots__ = ("mag", "turns")

    def __init__(self, mag, turns):
        if isinstance(mag, int):
            mag = Fraction(mag)
        if isinstance(turns, int):
            turns = Fraction(turns)
        if isinstance(turns, Fraction):
            turns = turns % 1
        else:
            turns = float(turns) % 1.0
        if mag < 0:
            mag = -mag
            turns = (turns + Fraction(1, 2)) % 1 if isinstance(turns, Fraction) \
                else (turns + 0.5) % 1.0
        self.mag = mag
        self.turns = turns

    @property
    def exact(self) -> bool:
        return isinstance(self.mag, Fraction) and isinstance(self.turns, Fraction)

    def __mul__(self, other):
        if isinstance(other, Phase):
            if isinstance(self.turns, Fraction) and isinstance(other.turns, Fraction):
                t = self.turns + other.turns
            else:
                t = float(self.turns) + float(other.turns)
            return Phase(_mul_mag(self.mag, other.mag), t)
        if isinstance(other, (int, Fraction)):
            return Phase(_mul_mag(self.mag, abs(Fraction(other))),
                         self.turns if other >= 0 else _half_plus(self.turns))
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Phase powers are defined for n >= 0")
        if isinstance(self.turns, Fraction):
            t = (self.turns * n) % 1
        else:
            t = math.fmod(self.turns * n, 1.0)
        m = self.mag ** n if self.mag != 1 else self.mag
        return Phase(m, t)

    def __eq__(self, other) -> bool:
        if isinstance(other, Phase):
            return self.mag == other.mag and self.turns == other.turns
        if isinstance(other, (int, Fraction)):
            return exact_eq(self, other)
        return NotImplemented

    def __hash__(self):
        return hash(("Phase", self.mag, self.turns))

    def __complex__(self) -> complex:
        return float(self.mag) * cmath.exp(2j * math.pi * float(self.turns))

    def __abs__(self):
        return self.mag

    def is_one(self) -> bool:
        return self.mag == 1 and self.turns == 0

    def __repr__(self):
        return f"Phase({self.mag!r}, {self.turns!r})"


def _mul_mag(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _half_plus(turns):
    if isinstance(turns, Fraction):
        return (turns + Fraction(1, 2)) % 1
    return (turns + 0.5) % 1.0


Value = Union[int, Fraction, Phase, float, complex]


def rot(turns) -> Phase:
    """Unimodular scalar ``exp(2*pi*i*turns)``; exact for rational turns."""
    return Phase(Fraction(1), turns)


def to_complex(v: Value) -> complex:
    return complex(v)


def is_exact(v: Value) -> bool:
    if isinstance(v, (int, Fraction)):
        return True
    return isinstance(v, Phase) and v.exact


def vmul(a: Value, b: Value) -> Value:
    """Product staying exact whenever both factors are exact."""
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Phase):
        return a * b
    if isinstance(b, Phase):
        return b * a
    return to_complex(a) * to_complex(b)


def vpow(v: Value, n: int) -> Value:
    if isinstance(v, int):
        v = Fraction(v)
    if isinstance(v, (Fraction, Phase)):
        return v ** n
    return to_complex(v) ** n


def exact_eq(a: Value, b: Value) -> bool:
    """Decidable exact equality; False when either side is floating."""
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if isinstance(a, Phase) and isinstance(b, Phase):
        return a.exact and b.exact and a.mag == b.mag and a.turns == b.turns
    if isinstance(a, Phase) and isinstance(b, Fraction):
        a, b = b, a
    if isinstance(a, Fraction) and isinstance(b, Phase):
        if not b.exact:
            return False
        if b.turns == 0:
            return a == b.mag
        if b.turns == Fraction(1, 2):
            return a == -b.mag
        return a == 0 and b.mag == 0
    return False


def abs2(v: Value):
    """``|v|^2``, exact (Fraction) for exact values."""
    if isinstance(v, int):
        v = Fraction(v)
    if isinstance(v, Fraction):
        return v * v
    if isinstance(v, Phase):
        m = v.mag
        return m * m if isinstance(m, Fraction) else float(m) ** 2
    c = complex(v)
    return c.real * c.real + c.imag * c.imag


def vabs(v: Value):
    """``|v|``; exact Fraction when the modulus is rational."""
    if isinstance(v, int):
        v = Fraction(v)
    if isinstance(v, Fraction):
        return abs(v)
    if isinstance(v, Phase):
        return v.mag
    return abs(complex(v))


def diff_abs2(a: Value, b: Value):
    """``|a-b|^2``; a Fraction whenever exactly computable.

    Exact branches: rational pair, equal exact phases (gives 0), exact phases
    whose angles differ by 0 or a half turn.  Anything else goes through
    complex floats.
    """
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        d = a - b
        return d * d
    if isinstance(a, Phase) and isinstance(b, Phase) and a.exact and b.exact:
        dt = (a.turns - b.turns) % 1
        if dt == 0:
            d = a.mag - b.mag
            return d * d
        if dt == Fraction(1, 2):
            s = a.mag + b.mag
            return s * s
    if isinstance(a, Fraction) and isinstance(b, Phase) and b.exact:
        return diff_abs2(Phase(abs(a), 0 if a >= 0 else Fraction(1, 2)), b)
    if isinstance(a, Phase) and isinstance(b, Fraction) and a.exact:
        return diff_abs2(a, Phase(abs(b), 0 if b >= 0 else Fraction(1, 2)))
    d = to_complex(a) - to_complex(b)
    return d.real * d.real + d.imag * d.imag


def log2_abs(v: Value) -> float:
    """``log2 |v|`` without overflow, for magnitude screening of huge exacts."""
    if isinstance(v, int):
        v = Fraction(v)
    if isinstance(v, Fraction):
        if v == 0:
            return float("-inf")
        num, den = abs(v.numerator), v.denominator
        return (num.bit_length() - 1 + math.log2(num / (1 << (num.bit_length() - 1)))) \
            - (den.bit_length() - 1 + math.log2(den / (1 << (den.bit_length() - 1))))
    if isinstance(v, Phase):
        return log2_abs(v.mag) if isinstance(v.mag, Fraction) else math.log2(float(v.mag))
    a = abs(complex(v))
    return math.log2(a) if a > 0 else float("-inf")


class ExactSqrt:
    """Square root of a non-negative Fraction, compared without rounding.

    Stands in for an l2 norm whose square is exactly known: ``ExactSqrt(q)``
    orders against rationals and floats through ``q`` itself, so ball
    membership tests never lose exactness to a float sqrt.
    """

    __slots__ = ("sq",)

    def __init__(self, sq: Fraction):
        if sq < 0:
            raise ValueError("negative square")
        self.sq = sq if isinstance(sq, Fraction) else Fraction(sq)

    def __float__(self) -> float:
        if self.sq == 0:
            return 0.0
        # scale into float range before sqrt (the square may overflow a float)
        e = int(log2_abs(self.sq))
        e -= e % 2
        scaled = self.sq / (Fraction(2) ** e)
        return math.sqrt(float(scaled)) * (2.0 ** (e // 2))

    def _cmp_sq(self, other) -> Fraction:
        if isinstance(other, ExactSqrt):
            return other.sq
        f = Fraction(other)
        if f < 0:
            raise ValueError("comparing ExactSqrt with a negative bound")
        return f * f

    def __lt__(self, other):
        return self.sq < self._cmp_sq(other)

    def __le__(self, other):
        return self.sq <= self._cmp_sq(other)

    def __gt__(self, other):
        return self.sq > self._cmp_sq(other)

    def __ge__(self, other):
        return self.sq >= self._cmp_sq(other)

    def __eq__(self, other):
        if isinstance(other, ExactSqrt):
            return self.sq == other.sq
        if isinstance(other, (int, Fraction)):
            return self.sq == Fraction(other) ** 2
        return NotImplemented

    def __hash__(self):
        return hash(("ExactSqrt", self.sq))

    def __repr__(self):
        return f"ExactSqrt({self.sq!r})"


NormValue = Union[Fraction, ExactSqrt, float]


def norm_lt(value: NormValue, bound) -> bool:
    """``value < bound`` with exact semantics when ``value`` is exact."""
    if isinstance(value, ExactSqrt):
        return value < bound
    if isinstance(value, Fraction) and isinstance(bound, (int, Fraction)):
        return value < bound
    return float(value) < float(bound)
