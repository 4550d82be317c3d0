"""The dense orbit walker, the isometric diagonal rule and the floor-based
angle reduction, each against the code it replaces, bit for bit."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (Diagonal, FiniteDim, Matrix, Phase, Power, Rule, Scaled,
                      SequenceLp, SequenceSup, SparseVector, orbits)
from recurlab.checks import kronecker_window
from recurlab.families import IndexWindow
from recurlab.operators import apply, power_apply, seminorm
from recurlab.orbits import (_materialized_orbit, _period_within,
                             fractional_turns, orbit_norms, periodic_orbit)
from recurlab.values import to_complex

L2 = SequenceLp(2)
C2, C3 = FiniteDim(2), FiniteDim(3)


# ---------------------------------------------------------------------------
# the stepping loops the walkers replace, one SparseVector at a time
# ---------------------------------------------------------------------------

def stepped_norms(op, x, index, N):
    def norm(y):
        try:
            return float(seminorm(x.space, index, y))
        except OverflowError:
            return math.inf

    period = periodic_orbit(op, x, N + 1)
    if period is not None:
        norms = np.array([norm(y) for y in period], dtype=np.float64)
        return norms[np.arange(N + 1) % len(period)]
    norms = np.empty(N + 1, dtype=np.float64)
    y = x
    for n in range(N + 1):
        if n:
            y = apply(op, y)
        norms[n] = norm(y)
    return norms


def stepped_rows(op, x, N):
    period = _period_within(op, x, N + 1)
    rows = N + 1 if period is None else period
    arr = np.zeros((rows, max(1, len(x.entries))), dtype=np.complex128)
    column = {}
    y = x
    for n in range(rows):
        if n:
            y = apply(op, y) if period is None else power_apply(op, x, n)
        for i, v in y.entries:
            k = column.setdefault(i, len(column))
            if k == arr.shape[1]:
                arr = np.concatenate([arr, np.zeros_like(arr)], axis=1)
            arr[n, k] = to_complex(v)
    arr = arr.take([column[i] for i in sorted(column)] or [0], axis=1)
    return arr if period is None else arr[np.arange(N + 1) % period]


def assert_same_bits(got, want):
    """Equal shapes, dtypes and bits, where any NaN equals any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    got, want = got.view(np.float64), want.view(np.float64)
    both_nan = np.isnan(got) & np.isnan(want)
    differ = (got.view(np.int64) != want.view(np.int64)) & ~both_nan
    assert not differ.any(), f"first difference at {np.argwhere(differ)[0]}"


class ApplyCount:
    """Counts the orbits module's ``apply`` and ``power_apply`` calls."""

    def __init__(self):
        self.calls = 0

    def __enter__(self):
        def counted(fn):
            def call(*args):
                self.calls += 1
                return fn(*args)
            return call
        self.patches = [mock.patch.object(orbits, name, counted(getattr(orbits, name)))
                        for name in ("apply", "power_apply")]
        for p in self.patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in self.patches:
            p.stop()


# ---------------------------------------------------------------------------
# the dense walker: norms and rows of matrix orbits
# ---------------------------------------------------------------------------

def jordan(lam):
    return Matrix.from_array([[lam, 1], [0, lam]])


def vec(space, *pairs):
    return SparseVector.from_pairs(space, pairs)


MATRIX_CASES = [
    # lambda = 1.5 overflows to inf and then NaN, 0.5 underflows to the zero state
    *[(jordan(lam), vec(C2, (2, Fraction(3, 4))), 2500) for lam in (1, -1, 1j, 1.5, 0.5)],
    (jordan(-1), vec(C2, (1, Fraction(1)), (2, Fraction(-2, 7))), 800),
    (jordan(1j), vec(C2, (1, Fraction(1, 3))), 600),    # a coordinate that stays 0
    (Power(jordan(1.5), 3), vec(C2, (2, Fraction(1))), 700),
    (Power(jordan(1j), 2), vec(C2, (1, Fraction(1)), (2, Fraction(1, 5))), 600),
    (Matrix.from_array([[1j, 1, 0], [0, 1j, -1], [0, 0, 1j]]), vec(C3, (1, Fraction(1))), 400),
    (Matrix.from_array([[1j, 1, 0], [0, 1j, -1], [0, 0, 1j]]), vec(C3, (3, Fraction(1))), 400),
    # nilpotent: the orbit reaches the zero state at n = 3 and stays there
    (Matrix.from_array([[0, -1, 0], [0, 0, -1], [0, 0, 0]]), vec(C3, (3, Fraction(1))), 50),
    (Matrix.from_array([[0, 1], [0, 0]]), vec(C2, (1, Fraction(1)), (2, Fraction(2))), 50),
    (Matrix.from_array([[math.cos(2), -math.sin(2)], [math.sin(2), math.cos(2)]]),
     vec(C2, (1, Fraction(1))), 900),
]


@pytest.mark.parametrize("op, x, N", MATRIX_CASES)
def test_dense_norms_are_the_stepped_norms(op, x, N):
    with ApplyCount() as spy:
        got = orbit_norms(op, x, 0, N)
    assert spy.calls == 0
    assert_same_bits(got, stepped_norms(op, x, 0, N))


@pytest.mark.parametrize("op, x, N", MATRIX_CASES)
def test_dense_rows_are_the_stepped_rows(op, x, N):
    with ApplyCount() as spy:
        got = _materialized_orbit(op, x, N)
    assert spy.calls == 0
    assert_same_bits(got, stepped_rows(op, x, N))


class SignedZeroProducts(np.ndarray):
    """A matrix whose products give their exact zeros as -0-0j.  numpy's own
    products give +0j, so this is the one way to see the reset at work."""

    def __matmul__(self, other):
        out = np.asarray(self) @ other
        out[out == 0] = complex(-0.0, -0.0)
        return out


def test_signed_zero_products_are_reset():
    op = Matrix.from_array([[0, -1], [1, 0]])      # a quarter turn: zeros come and go
    op.__dict__["array"] = op.array.view(SignedZeroProducts)
    x = vec(C2, (1, Fraction(1, 3)))
    assert_same_bits(_materialized_orbit(op, x, 60), stepped_rows(op, x, 60))
    assert_same_bits(orbit_norms(op, x, 0, 60), stepped_norms(op, x, 0, 60))


def test_scaled_matrix_keeps_the_apply_walker():
    op = Scaled(jordan(1), Phase(Fraction(1), Fraction(1, 3)))
    x = vec(C2, (2, Fraction(1)))
    with ApplyCount() as spy:
        got = orbit_norms(op, x, 0, 40)
    assert spy.calls == 40
    assert_same_bits(got, stepped_norms(op, x, 0, 40))
    assert_same_bits(_materialized_orbit(op, x, 40), stepped_rows(op, x, 40))


# ---------------------------------------------------------------------------
# isometric diagonal orbits
# ---------------------------------------------------------------------------

X_EXACT = vec(L2, (1, Fraction(1)), (3, Fraction(-1, 2)),
              (4, Phase(Fraction(2), Fraction(1, 8))))
IRRATIONAL = Diagonal(turns=Rule("sqrt(2)*n"))
ISOMETRIC = [
    (Diagonal(turns=Rule("sqrt(2)*n")), X_EXACT),
    (Diagonal(turns=Rule("n/7")), X_EXACT),
    (Diagonal(values=Rule("-1")), X_EXACT),
    (Diagonal(values=Rule("1")), vec(L2, (2, Fraction(5, 3)))),
    (Scaled(Diagonal(turns=Rule("sqrt(3)*n")), Phase(Fraction(1), Fraction(1, 5))), X_EXACT),
    (Scaled(Diagonal(turns=Rule("sqrt(5)*n")), Phase(Fraction(1), math.sqrt(2))), X_EXACT),
    (Scaled(Diagonal(values=Rule("-1")), Fraction(-1)), X_EXACT),
    (Power(Diagonal(turns=Rule("sqrt(7)*n/3")), 3), X_EXACT),
    (Power(Scaled(Diagonal(turns=Rule("sqrt(2)*n")), Fraction(-1)), 2), X_EXACT),
    (Scaled(Scaled(Diagonal(turns=Rule("sqrt(2)*n")), Fraction(-1)), Fraction(-1)), X_EXACT),
    *[(IRRATIONAL, vec(space, (1, Fraction(1, 3)), (2, Fraction(2))))
      for space in (SequenceLp(1), SequenceLp(3), SequenceSup())],
    (IRRATIONAL, vec(L2)),
]
STEPPED = [
    (Diagonal(values=Rule("2")), X_EXACT, 1100),       # past float range: inf
    (Diagonal(values=Rule("sqrt(2)")), X_EXACT, 300),
    (Diagonal(turns=Rule("sqrt(2)*n")),
     vec(L2, (1, complex(0.6, 0.8)), (2, complex(0.1, -0.3))), 500),
    (Scaled(Diagonal(turns=Rule("sqrt(2)*n")), 1j), X_EXACT, 500),
    (Scaled(Diagonal(turns=Rule("sqrt(2)*n")), Phase(Fraction(1, 2), 0.25)), X_EXACT, 500),
]


@pytest.mark.parametrize("op, x", ISOMETRIC)
def test_isometric_orbit_repeats_the_norm_of_x(op, x):
    N = 500
    with ApplyCount() as spy:
        got = orbit_norms(op, x, 0, N)
    assert spy.calls == 0
    assert_same_bits(got, stepped_norms(op, x, 0, N))


@pytest.mark.parametrize("op, x, N", STEPPED)
def test_other_diagonal_orbits_are_stepped(op, x, N):
    with ApplyCount() as spy:
        got = orbit_norms(op, x, 0, N)
    assert spy.calls == N
    assert_same_bits(got, stepped_norms(op, x, 0, N))


# ---------------------------------------------------------------------------
# the floor-based angle reduction
# ---------------------------------------------------------------------------

special_turns = st.sampled_from([0.5, -0.5, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-17,
                                 0.1, -0.1, math.sqrt(2), -math.sqrt(3), 1 - 2 ** -53])
turns_values = st.one_of(special_turns, st.floats(-1e6, 1e6))
special_m = st.sampled_from([0.0, -0.0, 1.0, 2.0 ** 53, 2.0 ** 53 + 2, 1e17, 3.0 * 2 ** 60])
m_values = st.one_of(special_m, st.integers(0, 2 ** 62).map(float), st.floats(-1e12, 1e12))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(m_values, min_size=1, max_size=40), turns_values)
def test_fractional_turns_is_np_mod(ms, turns):
    m = np.array(ms, dtype=np.float64)
    assert_same_bits(fractional_turns(m, turns), np.mod(m * turns, 1.0))
    n = np.array([int(v) for v in ms if 0 <= v < 2 ** 62], dtype=np.int64)
    assert_same_bits(fractional_turns(n, turns), np.mod(n * turns, 1.0))


def mod_kronecker_window(turns, eps, N):
    """``checks.kronecker_window`` as it reduced float angles with np.mod."""
    members = np.ones(N + 1, dtype=bool)
    n = np.arange(N + 1, dtype=np.int64)
    for t in turns:
        if isinstance(t, Fraction):
            frac = (n * (t.numerator % t.denominator)) % t.denominator / t.denominator
        else:
            frac = np.mod(n * float(t), 1.0)
        members &= 2.0 * np.abs(np.sin(np.pi * frac)) < eps
    return IndexWindow.from_mask(members)


@pytest.mark.parametrize("seed", range(6))
def test_kronecker_window_unchanged(seed):
    rng = np.random.default_rng(seed)
    turns = [float(t) for t in rng.uniform(-3, 3, size=int(rng.integers(1, 4)))]
    if seed % 2:
        turns.append(Fraction(int(rng.integers(1, 12)), 12))
    eps = float(rng.uniform(0.05, 1.5))
    got = kronecker_window(turns, eps, 50_000)
    want = mod_kronecker_window(turns, eps, 50_000)
    assert np.array_equal(got.array, want.array)
