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

This module is the one place that asks which class a scalar is.  A value is
exact when it is a rational, a ``Phase`` with rational magnitude and turns,
or an ``ExactSqrt``; it is exactly unimodular when :func:`exact_abs`, its
modulus as a Fraction, is 1.  Exact decisions are taken from exact values only.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from typing import Optional, Union

_HALF = Fraction(1, 2)


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
        turns = turns % 1 if isinstance(turns, Fraction) else float(turns) % 1.0
        if mag < 0:
            mag, turns = -mag, (turns + _HALF) % 1
        self.mag = mag
        self.turns = turns

    @property
    def exact(self) -> bool:
        return isinstance(self.mag, Fraction) and isinstance(self.turns, Fraction)

    def __mul__(self, other):
        # a Fraction meeting a float rounds to float arithmetic
        if isinstance(other, Phase):
            return Phase(self.mag * other.mag, self.turns + other.turns)
        if isinstance(other, (int, Fraction)):
            return Phase(self.mag * abs(Fraction(other)),
                         self.turns if other >= 0 else (self.turns + _HALF) % 1)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Phase powers are defined for n >= 0")
        m = self.mag ** n if self.mag != 1 else self.mag
        return Phase(m, (self.turns * n) % 1)

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

    def __bool__(self) -> bool:
        return bool(self.mag)

    def __repr__(self):
        return f"Phase({self.mag!r}, {self.turns!r})"


Value = Union[int, Fraction, Phase, float, complex]


def rot(turns) -> Phase:
    """Unimodular scalar ``exp(2*pi*i*turns)``; exact for rational turns."""
    return Phase(Fraction(1), turns)


def to_complex(v: Value) -> complex:
    return complex(v)


def is_exact(v) -> bool:
    """Whether v is exact: a rational, an exact ``Phase`` or an ``ExactSqrt``."""
    return isinstance(v, (int, Fraction, ExactSqrt)) or isinstance(v, Phase) and v.exact


def exact_abs(v: Value) -> Optional[Fraction]:
    """``|v|`` when it is a Fraction (v rational, or a ``Phase`` of rational
    magnitude, whatever its turns), else None: the exact-modulus rule."""
    m = vabs(v)
    return m if isinstance(m, Fraction) else None


def unimodular(v: Value, tolerance: float) -> bool:
    """``|v| = 1``: exactly when the modulus is exact, else within the
    caller's ``tolerance``."""
    m = exact_abs(v)
    return m == 1 if m is not None else abs(float(vabs(v)) - 1.0) <= tolerance


def vturns(v: Value):
    """The angle of v in turns, in [0, 1): a Fraction when exact (0 or 1/2
    for a rational, a ``Phase``'s rational turns), else a float."""
    if isinstance(v, (int, Fraction)):
        return Fraction(0) if v >= 0 else _HALF
    if isinstance(v, Phase) and isinstance(v.turns, Fraction):
        return v.turns
    c = complex(v)
    return math.atan2(c.imag, c.real) / (2 * math.pi) % 1.0


def vadd(a: Value, b: Value, op=operator.add) -> Value:
    """``op(a, b)``, ``+`` or ``-``: a Fraction for two rationals, else a complex."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return op(Fraction(a), Fraction(b))
    return op(complex(a), complex(b))


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
    if isinstance(v, (Fraction, Phase)):
        return v ** n
    return Fraction(v) ** n if isinstance(v, int) else to_complex(v) ** n


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
    if isinstance(a, Fraction) and isinstance(b, Phase):   # a zero has every angle
        return b.exact and (b.mag == 0 if a == 0 else exact_eq(Phase(a, 0), b))
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
    if isinstance(v, Fraction):
        return abs(v)
    if isinstance(v, Phase):
        return v.mag
    return Fraction(abs(v)) if isinstance(v, int) else abs(complex(v))


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
    if isinstance(a, Fraction):
        if isinstance(b, Fraction):
            d = a - b
            return d * d
        if isinstance(b, Phase) and b.exact:
            a = Phase(a, 0)             # a negative a takes the half turn
    elif isinstance(b, Fraction) and isinstance(a, Phase) and a.exact:
        b = Phase(b, 0)
    if isinstance(a, Phase) and isinstance(b, Phase) and a.exact and b.exact:
        dt = (a.turns - b.turns) % 1
        if dt == 0:
            d = a.mag - b.mag
            return d * d
        if dt == Fraction(1, 2):
            s = a.mag + b.mag
            return s * s
    d = to_complex(a) - to_complex(b)
    return d.real * d.real + d.imag * d.imag


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """The square root of a non-negative Fraction when it is rational, else None."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def diff_abs(a: Value, b: Value):
    """``|a-b|``: a Fraction when rational, else a float (rounded once)."""
    d2 = diff_abs2(a, b)
    if not isinstance(d2, Fraction):
        return math.sqrt(d2)
    root = rational_sqrt(d2)
    return float(ExactSqrt(d2)) if root is None else root


def exact_or_float(combine, terms, root: bool = False):
    """Fold Fraction and float terms with ``combine`` (``operator.add`` or
    ``max``): a Fraction when every term is one.  Otherwise the float terms
    are folded in order and the exact part joins once, at the end, so a
    float result does not depend on where the exact terms sat.  ``root``
    takes the square root of the fold, an ``ExactSqrt`` of an exact one."""
    exact, floating, all_exact = Fraction(0), 0.0, True
    for t in terms:
        if isinstance(t, Fraction):
            exact = combine(exact, t)
        else:
            all_exact = False
            floating = combine(floating, float(t))
    if all_exact:
        return ExactSqrt(exact) if root else exact
    out = combine(floating, float(exact))
    return math.sqrt(out) if root else out


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
        return log2_abs(v.mag)
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


def norms_below(values, bound: Fraction) -> list[bool]:
    """``[norm_lt(v, bound) for v in values]``, squaring the bound once."""
    sq, fbound = bound * bound, float(bound)
    return [v.sq < sq if isinstance(v, ExactSqrt) else
            v < bound if isinstance(v, Fraction) else float(v) < fbound
            for v in values]


def norm_max(values: list):
    """The first largest norm value: two exact ones are ordered through their
    squares, any other pair as floats."""
    def square(v):
        return v.sq if isinstance(v, ExactSqrt) else v * v if isinstance(v, Fraction) else None
    best = values[0]
    for v in values[1:]:
        a, b = square(v), square(best)
        if (a > b) if a is not None and b is not None else float(v) > float(best):
            best = v
    return best
