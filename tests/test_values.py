"""The value algebra against the helpers it replaced.

Operators, orbits, checks and rules once decided exact-or-float questions
themselves.  The bodies of those helpers are kept here, as they were, and
each ``values`` call (or plain arithmetic) that took a helper's place must
give the same value of the same class on random int, Fraction, exact Phase,
float-turn Phase, float and complex operands.  Where the one rule decides
differently on purpose, the test states the difference.
"""

import math
import operator
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab.operators import _phase_order
from recurlab.rules import Rule
from recurlab.values import (ExactSqrt, Phase, diff_abs, diff_abs2, exact_abs, exact_eq,
                             exact_or_float, is_exact, log2_abs, norm_max, norms_below,
                             rational_sqrt, to_complex, unimodular, vabs, vadd,
                             vturns)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
PER_KIND = settings(derandomize=True, database=None, deadline=None, max_examples=40)

rationals = st.fractions(-4, 4, max_denominator=12)
magnitudes = st.fractions(0, 3, max_denominator=6)
turn_fractions = st.fractions(0, 1, max_denominator=12)
float_turns = st.floats(0, 1, exclude_max=True)
floats = st.floats(-4, 4, allow_nan=False)
# every class of operand, so that each pair of classes meets
KINDS = {
    "int": st.integers(-3, 3),
    "fraction": rationals,
    "exact-phase": st.builds(Phase, st.one_of(magnitudes, st.just(Fraction(1))),
                             turn_fractions),
    "float-turn-phase": st.builds(Phase, magnitudes, st.one_of(
        float_turns, st.sampled_from([0.0, 0.5]))),
    "float-phase": st.builds(Phase, st.floats(0, 3), float_turns),
    "float": floats,
    "complex": st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
}
norms = st.one_of(magnitudes, magnitudes.map(ExactSqrt), st.floats(0, 3))


def same(a, b) -> bool:
    """Equal values of one class; a float's sign of zero counts."""
    if isinstance(a, Phase) and isinstance(b, Phase):
        return same(a.mag, b.mag) and same(a.turns, b.turns)
    return type(a) is type(b) and (repr(a) == repr(b) if isinstance(a, (float, complex))
                                   else a == b)


# -- the former helpers, body for body --------------------------------------

def _merge(a, b):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) + Fraction(b)
    return to_complex(a) + to_complex(b)


def _signed_diff(a, b):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) - Fraction(b)
    return to_complex(a) - to_complex(b)


def _is_zero(v):
    return (v.mag if isinstance(v, Phase) else v) == 0


def _is_one(v):
    return _exact_eq(v, Fraction(1)) or (isinstance(v, Phase) and v.mag == 1 and v.turns == 0)


def _exact_or_float(combine, terms):
    exact, floating, all_exact = Fraction(0), 0.0, True
    for t in terms:
        if isinstance(t, Fraction):
            exact = combine(exact, t)
        else:
            all_exact = False
            floating = combine(floating, float(t))
    return exact if all_exact else combine(floating, float(exact))


def _scale_pow(a, radius, d):
    if isinstance(a, Fraction):
        return a * radius ** d
    return float(a) * float(radius) ** d


def _abs_diff(a, b):
    d2 = _diff_abs2(a, b)
    if isinstance(d2, Fraction):
        num = math.isqrt(d2.numerator)
        den = math.isqrt(d2.denominator)
        if num * num == d2.numerator and den * den == d2.denominator:
            return Fraction(num, den)
        return float(ExactSqrt(d2))
    return math.sqrt(d2)


def _l2_fold(squares):
    sq = _exact_or_float(operator.add, squares)
    return ExactSqrt(sq) if isinstance(sq, Fraction) else math.sqrt(sq)


def _norm_gt(a, b):
    if isinstance(a, (Fraction, ExactSqrt)) and isinstance(b, (Fraction, ExactSqrt)):
        asq = a.sq if isinstance(a, ExactSqrt) else a * a
        bsq = b.sq if isinstance(b, ExactSqrt) else b * b
        return asq > bsq
    return float(a) > float(b)


def _max_norm(vals):
    best = vals[0]
    for v in vals[1:]:
        if _norm_gt(v, best):
            best = v
    return best


def _window_hits(values, bound):
    sq = bound * bound
    return [v.sq < sq if isinstance(v, ExactSqrt) else
            (v < bound if isinstance(v, Fraction) else float(v) < float(bound))
            for v in values]


def _is_exact_norm(d):
    return isinstance(d, (Fraction, ExactSqrt))


def _phase_order_before(v):
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        return 1 if f == 1 else 2 if f == -1 else None
    if isinstance(v, Phase) and v.exact and v.mag == 1:
        return v.turns.denominator if isinstance(v.turns, Fraction) else None
    return None


def _floating(value):           # _guard_float_weight's test
    return isinstance(value, (complex, float)) or (
        isinstance(value, Phase) and not isinstance(value.mag, Fraction))


def _isometric_unit(v):         # _isometric's test of one entry
    return isinstance(abs(v), Fraction) and abs(v) == 1


def _diagonal_unimodular(lam, tolerance):     # diagonal_criterion_check's test
    m = vabs(lam)
    if isinstance(m, Fraction):
        return m == 1
    return not abs(float(m) - 1.0) > tolerance


def _turns_of(lam):
    if isinstance(lam, Phase) and isinstance(lam.turns, Fraction):
        return lam.turns
    c = to_complex(lam)
    return math.atan2(c.imag, c.real) / (2 * math.pi) % 1.0


def _diff_abs2(a, b):
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a - b) * (a - b)
    if isinstance(a, Phase) and isinstance(b, Phase) and a.exact and b.exact:
        dt = (a.turns - b.turns) % 1
        if dt == 0:
            return (a.mag - b.mag) * (a.mag - b.mag)
        if dt == Fraction(1, 2):
            return (a.mag + b.mag) * (a.mag + b.mag)
    if isinstance(a, Fraction) and isinstance(b, Phase) and b.exact:
        return _diff_abs2(Phase(abs(a), 0 if a >= 0 else Fraction(1, 2)), b)
    if isinstance(a, Phase) and isinstance(b, Fraction) and a.exact:
        return _diff_abs2(a, Phase(abs(b), 0 if b >= 0 else Fraction(1, 2)))
    d = to_complex(a) - to_complex(b)
    return d.real * d.real + d.imag * d.imag


def _exact_eq(a, b):
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


def _phase_parts(mag, turns):   # Phase.__init__
    if isinstance(mag, int):
        mag = Fraction(mag)
    if isinstance(turns, int):
        turns = Fraction(turns)
    turns = turns % 1 if isinstance(turns, Fraction) else float(turns) % 1.0
    if mag < 0:
        mag = -mag
        turns = (turns + Fraction(1, 2)) % 1 if isinstance(turns, Fraction) \
            else (turns + 0.5) % 1.0
    return mag, turns


def _mul_mag(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _half_plus(turns):
    if isinstance(turns, Fraction):
        return (turns + Fraction(1, 2)) % 1
    return (turns + 0.5) % 1.0


def _phase_product(p, q):       # Phase.__mul__ of two phases
    if isinstance(p.turns, Fraction) and isinstance(q.turns, Fraction):
        t = p.turns + q.turns
    else:
        t = float(p.turns) + float(q.turns)
    return _phase_parts(_mul_mag(p.mag, q.mag), t)


def _phase_power(p, n):         # Phase.__pow__
    t = (p.turns * n) % 1 if isinstance(p.turns, Fraction) else math.fmod(p.turns * n, 1.0)
    return _phase_parts(p.mag ** n if p.mag != 1 else p.mag, t)


def _combine(a, b, op):         # rules._combine
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return op(a, b)
    return op(float(a), float(b))


# -- the properties -----------------------------------------------------------

@pytest.mark.parametrize("kind_a, kind_b", product(KINDS, KINDS))
@PER_KIND
@given(data=st.data())
def test_sums_differences_and_distances(kind_a, kind_b, data):
    a, b = data.draw(KINDS[kind_a]), data.draw(KINDS[kind_b])
    assert same(vadd(a, b), _merge(a, b))
    assert same(vadd(a, b, operator.sub), _signed_diff(a, b))
    assert same(diff_abs2(a, b), _diff_abs2(a, b))
    assert same(diff_abs(a, b), _abs_diff(a, b))
    assert exact_eq(a, b) == _exact_eq(a, b)


@pytest.mark.parametrize("kind", KINDS)
@PER_KIND
@given(data=st.data())
def test_zero_one_and_exactness(kind, data):
    v = data.draw(KINDS[kind])
    assert (not v) == _is_zero(v)
    # a floating phase of angle 0.0 is not exactly 1 any more
    assert exact_eq(v, 1) == (_is_one(v) and is_exact(v))
    assert is_exact(v) == (isinstance(v, (int, Fraction)) or isinstance(v, Phase) and v.exact)


@pytest.mark.parametrize("kind", KINDS)
@PER_KIND
@given(data=st.data())
def test_one_exact_modulus_rule(kind, data):
    v = data.draw(KINDS[kind])
    assert (exact_abs(v) is None) == _floating(v)
    # an int of modulus 1 is exactly unimodular now; abs() kept it an int
    assert (exact_abs(v) == 1) == (_isometric_unit(v) or isinstance(v, int) and abs(v) == 1)
    assert unimodular(v, 1e-10) == _diagonal_unimodular(v, 1e-10)
    assert _phase_order(v) == _phase_order_before(v)


@pytest.mark.parametrize("kind", KINDS)
@PER_KIND
@given(data=st.data())
def test_turns(kind, data):
    v = data.draw(KINDS[kind])
    turns, before = vturns(v), _turns_of(v)
    if isinstance(v, (int, Fraction)):       # a rational's angle is exact now
        assert isinstance(turns, Fraction) and float(turns) == before
    else:
        assert same(turns, before)


@PROPERTY
@given(st.lists(st.one_of(magnitudes, st.floats(0, 3)), max_size=6),
       st.sampled_from([operator.add, max]), st.sampled_from([0, 1, 2]),
       st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(1, 8)]))
def test_folds(terms, combine, d, radius):
    assert same(exact_or_float(combine, terms), _exact_or_float(combine, terms))
    squares = [t * t for t in terms]
    new, old = exact_or_float(operator.add, squares, root=True), _l2_fold(squares)
    assert type(new) is type(old) and (new == old if isinstance(old, ExactSqrt)
                                       else repr(new) == repr(old))
    # every radius the lab builds is a power of two, where R^d rounds alike
    for a in terms:
        assert same(a * radius ** d, _scale_pow(a, radius, d))


@PROPERTY
@given(st.lists(norms, min_size=1, max_size=5), magnitudes.filter(bool))
def test_norm_ordering(vals, bound):
    assert norm_max(vals) is _max_norm(vals)
    assert norms_below(vals, bound) == _window_hits(vals, bound)
    assert all(is_exact(d) == _is_exact_norm(d) for d in vals)


@PROPERTY
@given(magnitudes)
def test_rational_sqrt(q):
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    square = num * num == q.numerator and den * den == q.denominator
    assert rational_sqrt(q) == (Fraction(num, den) if square else None)
    assert rational_sqrt(q * q) == q
    k = q.numerator         # Rule.is_exact reads a constant under the root
    assert Rule(f"sqrt({k})").is_exact == (math.isqrt(k) ** 2 == k)
    assert same(Rule(f"sqrt({k})")(0), Fraction(math.isqrt(k)) if math.isqrt(k) ** 2 == k
                else math.sqrt(k))


@PROPERTY
@given(st.one_of(st.integers(-3, 3), rationals, st.floats(-3, 3)),
       st.one_of(turn_fractions, float_turns, st.integers(-2, 2)))
def test_phase_construction(mag, turns):
    phase = Phase(mag, turns)
    assert same((phase.mag, phase.turns), _phase_parts(mag, turns))


@PROPERTY
@given(st.builds(Phase, st.one_of(magnitudes, st.floats(0, 3)),
                 st.one_of(turn_fractions, float_turns)),
       st.builds(Phase, st.one_of(magnitudes, st.floats(0, 3)),
                 st.one_of(turn_fractions, float_turns)),
       rationals, st.integers(0, 7))
def test_phase_products_and_powers(p, q, r, n):
    product = p * q
    assert same((product.mag, product.turns), _phase_product(p, q))
    scaled = p * r
    assert same((scaled.mag, scaled.turns),
                _phase_parts(_mul_mag(p.mag, abs(r)), p.turns if r >= 0 else _half_plus(p.turns)))
    power = p ** n
    assert same((power.mag, power.turns), _phase_power(p, n))
    if p.mag > 0 and isinstance(p.mag, float):
        assert log2_abs(p) == math.log2(p.mag)


@PROPERTY
@given(st.one_of(rationals, st.floats(-4, 4)), st.one_of(rationals, st.floats(-4, 4)),
       st.sampled_from([operator.add, operator.sub, operator.mul]))
def test_rule_arithmetic(a, b, op):
    assert same(op(a, b), _combine(a, b, op))
    if b:
        assert same(a / b, _combine(a, b, operator.truediv))


def test_a_phase_is_false_only_at_magnitude_zero():
    assert not Phase(Fraction(0), Fraction(1, 3)) and not Phase(0.0, 0.25)
    assert Phase(Fraction(1, 10 ** 30), 0.5) and Phase(5e-324, 0.0)
