"""Rule evaluation: per-n errors and range evaluation.

``Rule.values(lo, hi)`` must equal ``[float(rule(n)) for n in lo..hi]`` bit
for bit (compared as int64 views, so -0.0 and 0.0 differ) and raise what the
first failing n raises.  Its exact int64 path covers integer-coefficient
rational functions; everything else is evaluated once per n.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import Rule

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=300)


def per_n(rule, lo, hi):
    """The reference: one call per n, or the first error as (type, message)."""
    try:
        return np.array([float(rule(n)) for n in range(lo, hi + 1)],
                        dtype=np.float64)
    except Exception as err:            # noqa: BLE001 - compared below
        return type(err), str(err)


def ranged(rule, lo, hi):
    try:
        return rule.values(lo, hi)
    except Exception as err:            # noqa: BLE001 - compared below
        return type(err), str(err)


def assert_same(rule, lo, hi):
    want, got = per_n(rule, lo, hi), ranged(rule, lo, hi)
    if isinstance(want, tuple):
        assert got == want, rule
        return
    assert isinstance(got, np.ndarray) and got.dtype == np.float64, (rule, got)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), rule


def per_n_calls(rule, lo, hi):
    """How many single-n calls ``values`` made."""
    with mock.patch.object(Rule, "__call__", autospec=True,
                           side_effect=Rule.__call__) as call:
        rule.values(lo, hi)
    return call.call_count


# random expressions of the grammar, fully parenthesised
constants = st.one_of(st.integers(0, 12).map(str),
                      st.sampled_from(["0.5", "1.25", "3/7", "10/3"]))
leaves = st.one_of(st.just("n"), constants)
exponents = st.one_of(st.integers(-3, 4).map(str),
                      st.integers(1, 3).map(lambda k: f"(-{k})"))


def rational(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        sub.map(lambda a: f"(-{a})"),
        st.tuples(sub, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
    )


def any_node(sub):
    return st.one_of(
        rational(sub),
        sub.map(lambda a: f"sqrt({a})"),
        st.sampled_from(["2", "3", "1/2"]).map(lambda b: f"({b})^n"),
    )


ranges = st.tuples(st.integers(-30, 30), st.integers(-1, 60)).map(
    lambda t: (t[0], t[0] + t[1]))


@PROPERTY
@given(st.recursive(leaves, rational, max_leaves=8), ranges)
def test_rational_values_bit_identical_to_per_n_calls(text, bounds):
    assert_same(Rule(text), *bounds)


@PROPERTY
@given(st.recursive(leaves, any_node, max_leaves=8), ranges)
def test_values_bit_identical_to_per_n_calls(text, bounds):
    assert_same(Rule(text), *bounds)


@pytest.mark.parametrize("text, lo, hi", [
    ("(n+1)/n", 1, 100_000),
    ("1+1/n^2", -50, -1),
    ("(n-3)/(0-n)", 1, 5),          # 0 at n = 3 must stay +0.0
    ("n/(n^2+1)^(-2)", -20, 20),
    ("0.1*n - 3/7", -100, 100),
    ("2", 1, 500),
])
def test_exact_path_makes_no_per_n_calls(text, lo, hi):
    assert_same(Rule(text), lo, hi)
    assert per_n_calls(Rule(text), lo, hi) == 0


@pytest.mark.parametrize("text, lo, hi", [
    ("sqrt(2)*n", -5, 40),
    ("1/2^n", 1, 2000),             # an n-dependent exponent
    ("n^5", 1, 10_000),             # 10^20 exceeds 2^53
    ("sqrt(4)*n", 1, 10),
])
def test_other_rules_fall_back_to_per_n_calls(text, lo, hi):
    assert_same(Rule(text), lo, hi)
    assert per_n_calls(Rule(text), lo, hi) == hi - lo + 1


def test_negative_denominator_keeps_positive_zero():
    v = Rule("(n-3)/(0-n)").values(1, 5)
    assert math.copysign(1.0, v[2]) == 1.0
    assert v.view(np.int64)[2] == 0


def test_first_vanishing_divisor_is_named():
    for text in ("(n-3)/(n-5)", "1/(1/(n-5))", "(n-5)^(-2)"):
        with pytest.raises(ZeroDivisionError, match=r"^rule divides by zero at n=5$"):
            Rule(text).values(1, 10)
    assert Rule("(n-3)/(n-5)").values(1, 4)[2] == 0.0
    assert Rule("n").values(3, 2).shape == (0,)


class TestErrors:
    def test_negative_integer_power_of_zero(self):
        with pytest.raises(ZeroDivisionError, match=r"^rule divides by zero at n=0$"):
            Rule("n^-1")(0)

    def test_negative_power_of_vanishing_base(self):
        with pytest.raises(ZeroDivisionError, match=r"^rule divides by zero at n=2$"):
            Rule("(n-2)^(-2)")(2)

    def test_negative_base_to_fractional_power(self):
        with pytest.raises(ValueError, match=r"rule '\(-8\)\^\(1/3\)'.* at n=0"):
            Rule("(-8)^(1/3)")(0)

    def test_square_root_of_negative(self):
        with pytest.raises(ValueError, match=r"rule 'sqrt\(n-5\)'.* at n=1"):
            Rule("sqrt(n-5)")(1)
        with pytest.raises(ValueError, match=r"rule 'sqrt\(n-5\)'.* at n=-3"):
            Rule("sqrt(n-5)").values(-3, 8)
