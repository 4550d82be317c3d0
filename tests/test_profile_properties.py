"""Differential property tests of the distance-profile strategies.

Every strategy ``distance_profile`` can pick (periodic tiling, the
row-pattern, diagonal and matrix closed forms, the scaled-periodic form)
must agree value by value with stepwise iteration: exactly where both sides
are exact, within a relative 1e-9 otherwise.  The l2 closed forms apply
only where the vector's space is a Hilbert space; on l^1, l^3 and c0 the
profile is stepwise.  Dense stepping of a matrix without an eigen system
must agree with it bit for bit.  Stepwise iteration, which
stops once an orbit reaches 0, must equal a plain loop of one
``apply`` per step exactly.  Windows cut from one profile must grow with
epsilon, and ``return_sets`` over a grid must equal one ``return_set`` per
radius.  Past their first block of ``_CHUNK`` indices the closed forms must
agree with exact-turn distances within 1e-9.
"""

import cmath
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (BlockCycle, Diagonal, ExactSqrt, FiniteDim, Matrix,
                      Phase, Power, RowRotation, RowState, Rule, Scaled,
                      SequenceLp, SequenceSup, SparseVector,
                      WeightedBackwardShift, apply, diff_seminorm, operators,
                      orbits, return_set, return_sets)
from recurlab.orbits import _stepwise_profile, distance_profile, fractional_turns

from conftest import rotation_matrix

N = 64
L2 = SequenceLp(2)
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=20)

# golden-ratio multiples are badly approximable: n t stays about 3e-4 or
# more from the nearest integer for n <= 3 N, so no orbit point comes close
# enough to x for float cancellation to eat the relative tolerance
golden_turns = st.integers(1, 8).map(lambda k: k * (math.sqrt(5) - 1) / 2 % 1.0)
irrational_factor = golden_turns.map(lambda t: Phase(Fraction(1), t))
small_rational = st.fractions(-4, 4, max_denominator=4).filter(bool)


def sparse(space, max_index):
    pairs = st.dictionaries(st.integers(1, max_index), small_rational,
                            min_size=1, max_size=3)
    return pairs.map(lambda d: SparseVector.from_pairs(space, d.items()))


def strategy_taken(op, x, seminorms, horizon=N):
    """The profile and the names of the strategies that produced it."""
    taken = []

    def spy(fn):
        def wrapped(*args):
            out = fn(*args)
            if out is not None:
                taken.append(fn.__name__)
            return out
        return wrapped

    fast = {kind: spy(fn) for kind, fn in orbits._FAST_PATHS.items()}
    with mock.patch.dict(orbits._FAST_PATHS, fast), \
            mock.patch.object(orbits, "scaled_profile", spy(orbits.scaled_profile)):
        prof = distance_profile(op, x, seminorms, horizon)
    if prof.period is not None:
        taken.append("periodic")
    return prof, taken


def check_against_stepwise(op, x, seminorms, strategy):
    """``strategy`` names the one fast path expected, or is "stepwise"."""
    prof, taken = strategy_taken(op, x, seminorms)
    assert taken == ([] if strategy == "stepwise" else [strategy])
    slow = _stepwise_profile(op, x, seminorms, N)
    for n in range(N + 1):
        a, b = prof.value(n), slow.value(n)
        if isinstance(a, (Fraction, ExactSqrt)) and isinstance(b, (Fraction, ExactSqrt)):
            assert a == b, n
        elif prof.exact and isinstance(b, Fraction):
            assert Fraction(float(a)) == b, n       # exact dyadic floats
        else:
            assert math.isclose(float(a), float(b), rel_tol=1e-9), n
    radii = sorted({Fraction(float(slow.value(n))) for n in range(0, N + 1, 8)}
                   | {Fraction(1, 4), Fraction(1), Fraction(4)})
    windows = [set(prof.window(eps).elements) for eps in radii if eps > 0]
    assert all(lo <= hi for lo, hi in zip(windows, windows[1:]))


@st.composite
def periodic_cases(draw):
    x = draw(sparse(L2, 31))
    op = draw(st.sampled_from([
        BlockCycle(),
        Power(BlockCycle(), 3),
        Scaled(BlockCycle(), Phase(Fraction(1), Fraction(1, 4))),
        Scaled(BlockCycle(), Fraction(-1)),
        Diagonal(turns=Rule("n/6")),
        Power(Diagonal(turns=Rule("n/12")), 2),
    ]))
    return op, x


# the vector's space: l2 (C^2 for a matrix) in about half the draws, else a
# space without an l2 norm; twice the examples keep the closed forms' share
non_hilbert = st.sampled_from([SequenceLp(1), SequenceLp(3), SequenceSup()])
sequence_spaces = st.one_of(st.just(L2), non_hilbert)
matrix_spaces = st.one_of(st.just(FiniteDim(2)), non_hilbert)
WIDE = settings(PROPERTY, max_examples=40)


def fast_or_stepwise(x, strategy):
    return strategy if x.space in (L2, FiniteDim(2)) else "stepwise"


@st.composite
def diagonal_cases(draw):
    kind = draw(st.sampled_from(["prime-turns", "irrational-turns", "values"]))
    if kind == "prime-turns":      # order above N + 1: not tiled
        q = draw(st.sampled_from([67, 71, 79, 97]))
        op = Diagonal(turns=Rule(f"n/{q}"))
    elif kind == "irrational-turns":
        op = Diagonal(turns=Rule(f"{draw(st.integers(1, 5))}*n*(sqrt(5)-1)/2"))
    else:
        op = Diagonal(values=Rule(draw(st.sampled_from(
            ["1/2", "-3/4", "5/4", "n/(n+1)"]))))
    if draw(st.booleans()):
        op = Scaled(op, draw(irrational_factor))
    return Power(op, draw(st.integers(1, 3))), draw(sparse(draw(sequence_spaces), 6))


@st.composite
def matrix_cases(draw):
    kind = draw(st.sampled_from(["rotation", "unitary-diagonal", "off-circle"]))
    if kind == "rotation":
        op = rotation_matrix(2 * math.pi * draw(golden_turns))
    elif kind == "unitary-diagonal":
        t1, t2 = draw(golden_turns), draw(golden_turns)
        op = Matrix.from_array([[cmath.exp(2j * math.pi * t1), 0],
                                [0, cmath.exp(2j * math.pi * t2)]])
    else:
        op = Matrix.from_array([[0.9, 0.5], [0, 1.1]])
    if draw(st.booleans()):
        op = Scaled(op, draw(irrational_factor))
    return Power(op, draw(st.integers(1, 3))), draw(sparse(draw(matrix_spaces), 2))


@st.composite
def scaled_periodic_cases(draw):
    op = Scaled(BlockCycle(), draw(irrational_factor))
    p = draw(st.integers(1, 3))
    if p > 1:
        op = draw(st.sampled_from([Power(op, p), Scaled(Power(BlockCycle(), p),
                                                        op.factor)]))
    return op, draw(sparse(draw(sequence_spaces), 15))


@PROPERTY
@given(periodic_cases())
def test_periodic_tiling_matches_stepwise(case):
    check_against_stepwise(*case, (0,), "periodic")


@PROPERTY
@given(st.integers(0, 200), st.integers(1, 3),
       st.sets(st.integers(1, 5), min_size=1, max_size=3))
def test_rowstate_matches_stepwise(offset, p, seminorms):
    op = RowRotation() if p == 1 else Power(RowRotation(), p)
    check_against_stepwise(op, RowState(offset), tuple(sorted(seminorms)),
                           "_rowstate_profile")


@WIDE
@given(diagonal_cases())
def test_diagonal_closed_form_matches_stepwise(case):
    op, x = case
    check_against_stepwise(op, x, (0,), fast_or_stepwise(x, "_diagonal_profile"))


@WIDE
@given(matrix_cases())
def test_matrix_closed_form_matches_stepwise(case):
    op, x = case
    check_against_stepwise(op, x, (0,), fast_or_stepwise(x, "_matrix_profile"))


@WIDE
@given(scaled_periodic_cases())
def test_scaled_periodic_matches_stepwise(case):
    op, x = case
    check_against_stepwise(op, x, (0,), fast_or_stepwise(x, "scaled_profile"))


@st.composite
def block_cycle_cases(draw):
    """Rational vectors on indices 1..2^8, with several indices in one block
    and sometimes index 1, under the block cycle and its powers 2..5."""
    pairs = draw(st.dictionaries(st.integers(1, 1 << 8), small_rational,
                                 min_size=1, max_size=3))
    block = 1 << draw(st.integers(1, 7))
    for offset in draw(st.sets(st.integers(0, block - 1), max_size=3)):
        pairs[block + offset] = draw(small_rational)
    if draw(st.booleans()):
        pairs[1] = draw(small_rational)
    p = draw(st.integers(1, 5))
    return (BlockCycle() if p == 1 else Power(BlockCycle(), p)), \
        SparseVector.from_pairs(L2, pairs.items())


def no_power_apply(*args):
    raise AssertionError("power_apply called")


@PROPERTY
@given(block_cycle_cases())
def test_block_cycle_kernel_matches_stepwise(case):
    op, x = case
    horizon = 300                  # every period here divides 2^8
    with mock.patch.object(operators, "power_apply", no_power_apply), \
            mock.patch.object(orbits, "power_apply", no_power_apply):
        prof = distance_profile(op, x, (0,), horizon)
    with mock.patch.object(orbits, "_block_cycle_distances", return_value=None):
        walked = distance_profile(op, x, (0,), horizon)
    assert prof.values == walked.values
    assert (prof.exact, prof.period) == (walked.exact, walked.period) == (True, len(prof.values))
    slow = _stepwise_profile(op, x, (0,), horizon)
    assert slow.exact
    for n in range(horizon + 1):
        assert isinstance(prof.value(n), ExactSqrt) and prof.value(n) == slow.value(n), n


def jordan_block(lam, dim: int) -> Matrix:
    return Matrix.from_array(np.eye(dim) * lam + np.eye(dim, k=1))


def check_dense_against_stepwise(op, x, N, falls_back=False):
    """Dense stepping equals stepwise iteration bit for bit (NaN equal to
    NaN), with the same exactness; it hands a nilpotent orbit over."""
    with mock.patch.object(orbits, "_stepwise_profile",
                           wraps=orbits._stepwise_profile) as stepwise:
        fast = distance_profile(op, x, (0,), N)
    assert stepwise.call_count == int(falls_back)
    slow = _stepwise_profile(op, x, (0,), N)
    a = np.array([float(v) for v in fast.values])
    b = np.array([float(v) for v in slow.values])
    assert a.shape == b.shape == (N + 1,)
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all()
    assert (a.view(np.int64)[~nan] == b.view(np.int64)[~nan]).all()
    assert (fast.exact, fast.period) == (slow.exact, slow.period)
    return a


@st.composite
def defective_cases(draw):
    """Jordan blocks (no eigen system) and their powers, on vectors that may
    have zero coordinates."""
    dim = draw(st.integers(2, 3))
    op = jordan_block(draw(st.sampled_from([1, -1, 1.5, 0.5, 1j])), dim)
    p = draw(st.integers(1, 3))
    return (op if p == 1 else Power(op, p)), draw(sparse(FiniteDim(dim), dim))


@PROPERTY
@given(defective_cases(), st.integers(1, 200))
def test_dense_matrix_stepping_matches_stepwise(case, horizon):
    check_dense_against_stepwise(*case, horizon)


@pytest.mark.parametrize("lam, p, horizon, falls_back", [
    (1.5, 1, 2000, False), (1.5, 3, 666, False), (0.5, 1, 1080, False),
    (0.5, 1, 2000, True)])
def test_dense_matrix_stepping_past_float_range(lam, p, horizon, falls_back):
    # 1.5^n overflows near n = 1750, so the last states hold inf and NaN;
    # 0.5^n underflows the second coordinate to 0 at n = 1075 and the first
    # one some steps later, where the orbit reaches the zero vector
    x = SparseVector.from_pairs(FiniteDim(2), [(1, Fraction(1, 3)), (2, Fraction(1))])
    op = jordan_block(lam, 2)
    vals = check_dense_against_stepwise(op if p == 1 else Power(op, p), x, horizon,
                                        falls_back)
    assert not np.isfinite(vals[-1]) if lam > 1 else vals[-1] > 0


def test_dense_matrix_stepping_folds_exact_terms_last():
    # the first coordinate underflows to 0 some steps before the second one:
    # in between p(T^n x - x)^2 adds the exact (3/7)^2 after the float term,
    # which rounds differently from (0 - 3/7)^2 in floats added first
    op = Matrix.from_array(np.eye(2) * 0.5 + np.eye(2, k=-1))
    x = SparseVector.from_pairs(FiniteDim(2), [(1, Fraction(3, 7)), (2, Fraction(1, 9))])
    check_dense_against_stepwise(op, x, 1084)
    check_dense_against_stepwise(op, x, 1085, falls_back=True)


def test_dense_matrix_stepping_hands_a_nilpotent_orbit_over():
    op = Matrix.from_array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    x = SparseVector.from_pairs(FiniteDim(3), [(2, Fraction(1)), (3, Fraction(-2))])
    check_dense_against_stepwise(op, x, 50, falls_back=True)


def test_dense_matrix_stepping_measures_zero_coordinates_exactly():
    # the state stays (1, 0): every row has a zero coordinate
    op = jordan_block(1, 2)
    vals = check_dense_against_stepwise(op, SparseVector.unit(FiniteDim(2), 1), 40)
    assert not vals.any()


@st.composite
def shift_cases(draw):
    """Unilateral weighted shifts: finitely supported orbits reach 0."""
    weights = draw(st.sampled_from(["2", "(n+1)/n", "-1/2", "1+1/n^2"]))
    return WeightedBackwardShift(Rule(weights)), draw(sparse(L2, 12))


def float_jordan_case():
    op = Matrix.from_array([[1, 1], [0, 1]])
    return op, SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(1))])


def plain_profile(op, x, N):
    """Reference: one apply and one diff_seminorm per step, no shortcut."""
    vals, y = [], x
    for n in range(N + 1):
        if n:
            y = apply(op, y)
        vals.append(diff_seminorm(x.space, 0, y, x))
    return tuple(vals)


def check_stepwise_against_plain(op, x, N=N):
    with mock.patch.object(orbits, "apply", wraps=orbits.apply) as steps:
        prof = _stepwise_profile(op, x, (0,), N)
    assert prof.values == plain_profile(op, x, N)
    assert prof.period is None and len(prof.values) == N + 1
    return steps.call_count


@PROPERTY
@given(shift_cases())
def test_stepwise_nilpotent_shift_matches_plain_loop(case):
    # a support below index 13 reaches 0 within 12 steps, where iteration stops
    assert check_stepwise_against_plain(*case) <= 12


@PROPERTY
@given(periodic_cases())
def test_stepwise_exact_periodic_orbit_matches_plain_loop(case):
    op, x = case
    assert check_stepwise_against_plain(op, x) == (N if x.entries else 0)


def test_stepwise_nilpotent_zoo_vector_stops_early():
    op = WeightedBackwardShift(Rule("2"))
    x = SparseVector.from_pairs(L2, [(k, Fraction(1, 2 ** k)) for k in range(1, 9)])
    assert check_stepwise_against_plain(op, x, 2000) == 8    # T^8 x = 0
    rec = return_set(op, x, Fraction(1, 2), (0,), 2000)
    assert rec.exact and rec.exact_period is None


def test_stepwise_float_orbit_iterates_to_the_horizon():
    op, x = float_jordan_case()
    assert check_stepwise_against_plain(op, x, 300) == 300


# every profile strategy, as (operator, vector, seminorms)
any_strategy = st.one_of(
    periodic_cases().map(lambda c: (*c, (0,))),
    st.builds(lambda offset, p: (Power(RowRotation(), p), RowState(offset), (1, 2)),
              st.integers(0, 200), st.integers(1, 3)),
    diagonal_cases().map(lambda c: (*c, (0,))),
    matrix_cases().map(lambda c: (*c, (0,))),
    scaled_periodic_cases().map(lambda c: (*c, (0,))),
    shift_cases().map(lambda c: (*c, (0,))),
    st.just((*float_jordan_case(), (0,))),
)
radii = st.lists(st.fractions(Fraction(1, 100), 4, max_denominator=100),
                 min_size=1, max_size=4)


@PROPERTY
@given(any_strategy, radii)
def test_return_sets_equal_one_return_set_per_radius(case, grid):
    op, x, seminorms = case
    records = return_sets(op, x, grid, seminorms, N)
    assert len(records) == len(grid)
    for eps, rec in zip(grid, records):
        one = return_set(op, x, eps, seminorms, N)
        assert rec.epsilon == one.epsilon == eps
        assert rec.window.elements == one.window.elements
        assert (rec.seminorm_indices, rec.horizon, rec.exact, rec.exact_period) == \
            (one.seminorm_indices, one.horizon, one.exact, one.exact_period)


@PROPERTY
@given(any_strategy, radii)
def test_return_sets_windows_nested_in_epsilon(case, grid):
    op, x, seminorms = case
    records = sorted(return_sets(op, x, grid, seminorms, N),
                     key=lambda rec: rec.epsilon)
    windows = [rec.window.member_set for rec in records]
    assert all(lo <= hi for lo, hi in zip(windows, windows[1:]))


# ---------------------------------------------------------------------------
# closed forms past their first block of _CHUNK indices
# ---------------------------------------------------------------------------

BLOCKS_N = 3 * orbits._CHUNK + 5
GOLDEN = (math.sqrt(5) - 1) / 2
CONJ = np.array([[3, 1], [-1, 2]], dtype=np.complex128)


def exact_turns(theta: float, m: np.ndarray) -> np.ndarray:
    """frac(m theta) for the float theta, in integers on the 2^-53 grid
    (uint64 products wrap modulo 2^64, a multiple of 2^53)."""
    k = Fraction(theta % 1.0) * (1 << 53)
    assert k.denominator == 1, "turn off the 2^-53 grid"
    frac = (m.astype(np.uint64) * np.uint64(k)) & np.uint64((1 << 53) - 1)
    return frac.astype(np.float64) / float(1 << 53)


def exact_units(thetas, m: np.ndarray) -> np.ndarray:
    """e^(2 pi i m (theta_1 + theta_2 + ...)), each product reduced exactly."""
    return np.exp(2j * np.pi * sum(exact_turns(t, m) for t in thetas))


def diagonal_distances(coords, factor_turns, stride):
    """coords: (x_j, |lambda_j|, turns of lambda_j); an optional unimodular factor."""
    m = np.arange(BLOCKS_N + 1, dtype=np.int64) * stride
    total = np.zeros(BLOCKS_N + 1)
    for a, mod, theta in coords:
        p = mod ** m.astype(np.float64) * exact_units([theta, *factor_turns], m)
        total += float(a) ** 2 * np.abs(p - 1.0) ** 2
    return np.sqrt(total)


def conjugated_distances(thetas, stride):
    """||S (D^m - I) S^-1 e_1|| for D = diag(e^(2 pi i theta_j))."""
    m = np.arange(BLOCKS_N + 1, dtype=np.int64) * stride
    c = np.linalg.solve(CONJ, np.array([1, 0], dtype=np.complex128))
    acc = sum(((exact_units([t], m) - 1.0) * c[j])[:, None] * CONJ[:, j][None, :]
              for j, t in enumerate(thetas))
    return np.sqrt((np.abs(acc) ** 2).sum(axis=1))


def scaled_distances(x, factor_turns, stride):
    """|f^m B^m x - x| with the exact block-cycle states of x, m = stride n."""
    period = operators.exact_state_period(BlockCycle(), x)
    dense = np.array([[complex(v) for v in
                       operators.power_apply(BlockCycle(), x, r).to_dense(16)]
                      for r in range(period)])
    m = np.arange(BLOCKS_N + 1, dtype=np.int64) * stride
    states = dense[m % period] * exact_units([factor_turns], m)[:, None]
    return np.sqrt((np.abs(states - dense[0]) ** 2).sum(axis=1))


def l2(*pairs):
    return SparseVector.from_pairs(L2, pairs)


def conjugated(thetas):
    lam = np.diag(np.exp(2j * np.pi * np.array(thetas)))
    return Matrix.from_array(CONJ @ lam @ np.linalg.inv(CONJ))


BLOCK_X = l2((9, Fraction(1)), (12, Fraction(-1, 2)))
BLOCK_CASES = [
    ("irrational diagonal", Diagonal(turns=Rule("sqrt(2)*n")),
     l2((1, Fraction(1)), (2, Fraction(1, 2))), "_diagonal_profile",
     lambda: diagonal_distances([(1, 1.0, math.sqrt(2)), (0.5, 1.0, 2 * math.sqrt(2))], [], 1)),
    ("diagonal power", Power(Diagonal(turns=Rule("sqrt(3)*n")), 3),
     l2((2, Fraction(3, 4)), (3, Fraction(1))), "_diagonal_profile",
     lambda: diagonal_distances([(0.75, 1.0, 2 * math.sqrt(3)), (1, 1.0, 3 * math.sqrt(3))], [], 3)),
    # one unimodular coordinate and one of modulus 1 - 10^-5, both turned
    ("scaled diagonal, modulus below 1",
     Scaled(Diagonal(values=Rule("1 - (n-1)/100000")), Phase(Fraction(1), GOLDEN)),
     l2((1, Fraction(1)), (2, Fraction(2))), "_diagonal_profile",
     lambda: diagonal_distances([(1, 1.0, 0.0), (2, 0.99999, 0.0)], [GOLDEN], 1)),
    ("conjugated matrix", conjugated([0.71, 0.93]), SparseVector.unit(FiniteDim(2), 1),
     "_matrix_profile", lambda: conjugated_distances([0.71, 0.93], 1)),
    ("conjugated matrix power", Power(conjugated([0.71, 0.93]), 2),
     SparseVector.unit(FiniteDim(2), 1), "_matrix_profile",
     lambda: conjugated_distances([0.71, 0.93], 2)),
    ("scaled block cycle", Scaled(BlockCycle(), Phase(Fraction(1), math.sqrt(5))), BLOCK_X,
     "scaled_profile", lambda: scaled_distances(BLOCK_X, math.sqrt(5), 1)),
    ("scaled block cycle power",
     Power(Scaled(BlockCycle(), Phase(Fraction(1), GOLDEN)), 3), BLOCK_X,
     "scaled_profile", lambda: scaled_distances(BLOCK_X, GOLDEN, 3)),
]


def block_errors(case):
    _, op, x, strategy, exact = case
    prof, taken = strategy_taken(op, x, (0,), BLOCKS_N)
    assert taken == [strategy]
    return np.abs(np.asarray(prof.values) - exact())


def lagging_block_starts():
    """``fractional_turns`` with every block-start angle (a scalar m) taken
    from the start of the block before, per angle."""
    last = {}

    def reduce(m, turns):
        if np.ndim(m) == 0:
            m, last[turns] = last.get(turns, m), m
        return fractional_turns(m, turns)
    return mock.patch.object(orbits, "fractional_turns", reduce)


@pytest.mark.parametrize("case", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_closed_forms_agree_past_the_first_block(case):
    errors = block_errors(case)
    assert errors.shape == (BLOCKS_N + 1,)
    assert errors.max() < 1e-9, int(errors.argmax())
    with lagging_block_starts():
        errors = block_errors(case)
    assert errors.max() > 1e-3


def test_matrix_distance_near_zero_stays_accurate():
    # eigenvalues float seventh roots of unity, so T^7 x = x up to rounding:
    # summing the squares of V a - x keeps d(7k) at the angle error, about
    # 5e-12 here, far below the 1e-8 |x| a Gram form could read
    op, x = conjugated([1 / 7, 3 / 7]), SparseVector.unit(FiniteDim(2), 1)
    prof, taken = strategy_taken(op, x, (0,), BLOCKS_N)
    assert taken == ["_matrix_profile"]
    sevens = np.arange(0, BLOCKS_N + 1, 7)
    assert np.asarray(prof.values)[sevens].max() <= 1e-10      # |x| = 1
    assert set(sevens.tolist()) <= prof.window(Fraction(1, 10 ** 6)).member_set


def test_scaled_matrix_reuses_the_eigen_system_of_its_base():
    op = Scaled(conjugated([0.71, 0.93]), Phase(Fraction(1), GOLDEN))
    x = SparseVector.unit(FiniteDim(2), 1)
    first = distance_profile(op, x, (0,), N)
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig:
        prof, taken = strategy_taken(op, x, (0,))
    assert taken == ["_matrix_profile"] and eig.call_count == 0
    assert np.array_equal(prof.values, first.values)


@pytest.mark.parametrize("j", [10, 11, 12])
def test_scaled_block_cycle_past_float_range(j):
    # the states of a block-2^j cycle carry weights up to 2^(2^j - 1): from
    # j = 10 on their squares, and from j = 11 on the weights themselves,
    # leave float range; such a class is out of every ball, and for n off
    # the period an entry of x stays uncovered, so d > 1/2 there
    block, theta = 1 << j, math.sqrt(5) % 1.0
    x = l2((block + 3, Fraction(1)), (block + 7, Fraction(-1, 2)))
    op = Scaled(BlockCycle(), Phase(Fraction(1), theta))
    horizon = 16 * block
    prof, taken = strategy_taken(op, x, (0,), horizon)
    assert taken == ["scaled_profile"]
    m = np.arange(0, horizon + 1, block)
    near = np.abs(exact_units([theta], m) - 1.0) * math.sqrt(5) / 2 < 0.5
    assert near.sum() > 2
    assert prof.window(Fraction(1, 2)).elements == tuple(m[near].tolist())


def test_contracted_block_cycle_past_float_range_is_never_inf():
    # (T/2)^n e_1027 = e_(1027 + n) for n < 1021, then 2^-1024 e_(n - 1021 + 1024):
    # a bounded orbit whose unscaled states leave float range from n = 512
    # on, where |s_r| - |x| bounds nothing; the profile must be right or raise
    op, x = Scaled(BlockCycle(), Fraction(1, 2)), l2((1027, Fraction(1)))
    try:
        prof = distance_profile(op, x, (0,), 1100)
    except OverflowError:
        return
    expected = np.where(np.arange(1101) < 1021, math.sqrt(2), 1.0)
    expected[0] = 0.0
    assert np.allclose(prof.values, expected, rtol=1e-9, atol=0)
