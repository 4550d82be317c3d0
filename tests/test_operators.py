import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (AffineComposition, BlockCycle, Diagonal, EntireCoefficients,
                      ExactSqrt, FiniteRowVector, Matrix, Phase, Power,
                      RowRotation, RowState, Rule, Scaled, SequenceLp, SequenceSup,
                      SparseVector, WeightedBackwardShift, apply,
                      continuity_bound_check, continuity_bound_constant,
                      diff_seminorm, eigen_structure, exact_state_period,
                      power_apply, rot, seminorm, state_exact_eq)
from recurlab.operators import Operator, PrecisionError, SpaceMismatch
from recurlab.values import diff_abs2, exact_eq, to_complex

L2 = SequenceLp(2)


class TestValues:
    def test_phase_algebra(self):
        i = rot(Fraction(1, 4))
        assert exact_eq(i ** 4, 1)
        assert not exact_eq(i ** 2, 1)
        assert exact_eq(i ** 2, Fraction(-1))
        assert abs(to_complex(i * i) - (-1 + 0j)) < 1e-15

    def test_phase_float_turns_stay_unimodular(self):
        lam = Phase(Fraction(1), math.sqrt(2))
        assert (lam ** 10 ** 6).mag == 1

    def test_diff_abs2_exact_branches(self):
        a = Phase(Fraction(1), Fraction(1, 3))
        assert diff_abs2(a, a) == 0
        b = Phase(Fraction(1), Fraction(5, 6))   # half a turn away
        assert diff_abs2(a, b) == 4
        assert diff_abs2(Fraction(3, 2), Fraction(1, 2)) == 1

    def test_exact_sqrt_ordering(self):
        v = ExactSqrt(Fraction(2))
        assert v < Fraction(3, 2) and v > 1
        assert float(ExactSqrt(Fraction(4))) == 2.0
        huge = ExactSqrt(Fraction(2) ** 4000)
        assert huge > 10 ** 300


class TestBlockCycle:
    def test_single_step(self):
        bc = BlockCycle()
        e5 = SparseVector.unit(L2, 5)
        assert apply(bc, e5).entries == ((6, Fraction(2)),)

    def test_block_periodicity(self):
        bc = BlockCycle()
        for j in range(1, 7):
            for k in range(1 << j, 1 << (j + 1)):
                x = SparseVector.unit(L2, k)
                y = x
                for _ in range(1 << j):
                    y = apply(bc, y)
                assert state_exact_eq(y, x)

    def test_weight_product_around_block_is_one(self):
        bc = BlockCycle()
        for j in range(1, 12):
            for k in (1 << j, (1 << (j + 1)) - 1, (1 << j) + (1 << (j - 1))):
                idx, w = bc.jump(k, 1 << j)
                assert idx == k and w == 1

    def test_jump_matches_iteration(self):
        bc = BlockCycle()
        x = SparseVector.unit(L2, 9)
        y = x
        for n in range(1, 20):
            y = apply(bc, y)
            assert state_exact_eq(power_apply(bc, x, n), y)

    def test_exact_periods(self):
        bc = BlockCycle()
        assert exact_state_period(bc, SparseVector.unit(L2, 1)) == 1
        assert exact_state_period(bc, SparseVector.unit(L2, 5)) == 4
        mixed = SparseVector.from_pairs(L2, [(2, Fraction(1)), (5, Fraction(1))])
        assert exact_state_period(bc, mixed) == 4

    @pytest.mark.parametrize("pairs, period", [
        # u = x_(8+o) / 2^o is 1 at offsets 0 and 4: invariant under rotation by 4
        ([(8, 1), (12, 16)], 4),
        # u is 1 at offsets 0, 2, 4 and 6: the bound 8 falls twice
        ([(8, 1), (10, 4), (12, 16), (14, 64)], 2),
        # equal x, but u is 1 and 1/16: no rotation fixes it
        ([(8, 1), (12, 1)], 8),
    ])
    def test_period_from_dyadic_coordinates(self, pairs, period):
        x = SparseVector.from_pairs(L2, [(i, Fraction(v)) for i, v in pairs])
        assert BlockCycle().period_bound(x) == 8
        assert exact_state_period(BlockCycle(), x) == period

    def test_huge_block_period_builds_no_weight(self):
        start = time.process_time()
        assert exact_state_period(BlockCycle(), SparseVector.unit(L2, 1 << 60)) == 1 << 60
        assert time.process_time() - start < 1.0

    def test_float_mode_overflow_guard(self):
        bc = BlockCycle()
        x = SparseVector.from_pairs(L2, [(2 ** 11, 1.0 + 0j)])
        with pytest.raises(PrecisionError):
            power_apply(bc, x, 2 ** 10)    # half-block weight 2^1024
        # the same trajectory in exact arithmetic is fine
        y = power_apply(bc, SparseVector.unit(L2, 2 ** 11), 2 ** 10)
        assert y.entries[0][1] == Fraction(2) ** 1024


def brute_force_period(op, x, cap=2048):
    """The first d >= 1 for which d-fold ``apply`` returns x exactly."""
    y = x
    for d in range(1, cap + 1):
        y = apply(op, y)
        if state_exact_eq(y, x):
            return d
    raise AssertionError(f"no exact period up to {cap}")


exact_scalar = st.one_of(
    st.fractions(-4, 4, max_denominator=4).filter(bool),
    st.builds(Phase, st.fractions(Fraction(1, 4), 4, max_denominator=4),
              st.fractions(0, 1, max_denominator=6)))


@st.composite
def periodic_operator_cases(draw):
    """Block cycles, rational-turn diagonals and row rotations, as they are,
    as powers and (on sparse vectors) as rational-turn multiples."""
    kind = draw(st.sampled_from(["block-cycle", "diagonal", "rows"]))
    if kind == "rows":
        cells = draw(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 31)),
                                     exact_scalar, min_size=1, max_size=4))
        folded = {(k, j % (1 << k)): v for (k, j), v in cells.items()}
        op, x = RowRotation(), FiniteRowVector(tuple(sorted(
            (k, j, v) for (k, j), v in folded.items())))
    elif kind == "diagonal":
        op = Diagonal(turns=Rule(draw(st.sampled_from(["n/12", "1/2^n", "3*n/10"]))))
        x = SparseVector.from_pairs(L2, draw(st.dictionaries(
            st.integers(1, 6), exact_scalar, min_size=1, max_size=4)).items())
    else:
        # a top block whose u = x_(B+o) / 2^o repeats with period q, each
        # repeat sometimes off by a power of 2 or by a phase, over a few
        # coordinates in lower blocks
        op, block = BlockCycle(), 1 << draw(st.integers(1, 5))
        q = max(1, block >> draw(st.integers(0, 2)))
        pattern = draw(st.dictionaries(st.integers(0, q - 1), exact_scalar,
                                       min_size=1, max_size=3))
        pairs = draw(st.dictionaries(st.integers(1, block - 1), exact_scalar, max_size=2))
        for r in range(block // q):
            skew = draw(st.sampled_from([1, 1, 1, 1, 2, Fraction(1, 2), rot(Fraction(1, 3))]))
            for o, u in pattern.items():
                pairs[block + r * q + o] = skew * u * Fraction(2 ** (r * q + o))
        x = SparseVector.from_pairs(L2, pairs.items())
    if kind != "rows" and draw(st.booleans()):
        op = Scaled(op, draw(st.sampled_from([Fraction(-1), rot(Fraction(1, 3)),
                                              rot(Fraction(5, 6))])))
    p = draw(st.integers(1, 4))
    return (op if p == 1 else Power(op, p)), x


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(periodic_operator_cases())
def test_period_descent_equals_brute_force(case):
    op, x = case
    assert exact_state_period(op, x) == brute_force_period(op, x)


@pytest.mark.parametrize("op, x", [
    (BlockCycle(), SparseVector.from_pairs(L2, [(5, 1.0 + 0j)])),
    (Diagonal(turns=Rule("n/12")), SparseVector.from_pairs(L2, [(2, 0.5)])),
    (RowRotation(), FiniteRowVector(((2, 1, 0.25),))),
])
def test_float_data_has_no_period(op, x):
    assert op.period_bound(x) is not None
    assert exact_state_period(op, x) is None


class LyingBound(Operator):
    """``c T`` for the identity T, with a symbolic bound that need not be a period."""

    space = L2

    def __init__(self, c, bound):
        self.c, self.bound = c, bound

    def apply(self, x):
        return x.scale(self.c)

    def power(self, x, n):
        return x.scale(self.c ** n)

    def period_bound(self, x):
        return self.bound


@pytest.mark.parametrize("c, bound, period", [
    (Fraction(2), 6, None),       # no period at all: the descent used to give 6
    (Fraction(-1), 3, None),      # period 2, bound 3: the descent used to give 3
    (Fraction(-1), 6, 2),         # a true bound still descends to the period
    (Fraction(1), 12, 1),
])
def test_a_bound_must_be_a_period(c, bound, period):
    x = SparseVector.from_pairs(L2, [(1, Fraction(1)), (4, Fraction(-1, 3))])
    assert exact_state_period(LyingBound(c, bound), x) == period


def test_state_equality_is_equality_of_exact_states():
    def sparse(*values):
        return SparseVector(L2, tuple(enumerate(values, 1)))

    def cells(*values):
        return FiniteRowVector(tuple((k, 0, v) for k, v in enumerate(values)))

    # an exact value equals its exact phase: -1 is half a turn at modulus 1
    assert state_exact_eq(sparse(Fraction(-1)), sparse(Phase(1, Fraction(1, 2))))
    assert state_exact_eq(cells(Fraction(-1)), cells(Phase(1, Fraction(1, 2))))
    # floats never decide equality, not even bit for bit with themselves
    for x in (sparse(0.5), sparse(Phase(1.0, Fraction(1, 4))), cells(0.5)):
        assert not state_exact_eq(x, x)
    assert not state_exact_eq(sparse(Fraction(1)), sparse(1.0))
    assert not state_exact_eq(sparse(1.0), sparse(Fraction(1)))
    assert not state_exact_eq(sparse(Fraction(1)), sparse(Fraction(1), Fraction(1)))
    # cells compare as a set, in whatever order they were given
    given_cells = ((2, 3, Phase(1, Fraction(1, 3))), (0, 0, Fraction(2)), (1, 1, Fraction(1)))
    assert state_exact_eq(FiniteRowVector(given_cells), FiniteRowVector(given_cells[::-1]))
    assert not state_exact_eq(FiniteRowVector(given_cells), FiniteRowVector(given_cells[1:]))
    # pattern offsets compare by value, not by identity
    assert state_exact_eq(RowState(2 ** 70), RowState(int(str(2 ** 70))))
    assert not state_exact_eq(RowState(3), RowState(4))
    # states of different vector classes never compare equal
    assert not state_exact_eq(RowState(0), RowState(0).materialize(4))
    assert not state_exact_eq(FiniteRowVector(()), SparseVector(L2, ()))


class TestShift:
    def test_action(self):
        b = WeightedBackwardShift(Rule("2"))
        x = SparseVector.from_pairs(L2, [(1, Fraction(1)), (3, Fraction(1, 4))])
        y = apply(b, x)
        assert y.entries == ((2, Fraction(1, 2)),)   # index 1 falls off

    def test_apply_is_first_power(self):
        # the unilateral shift drops every coordinate landing below index 1
        b = WeightedBackwardShift(Rule("2"))
        x = SparseVector.from_pairs(L2, [(1, Fraction(1)), (3, Fraction(1))])
        assert apply(b, x).entries == power_apply(b, x, 1).entries \
            == ((2, Fraction(2)),)

    def test_power_weight_products(self):
        b = WeightedBackwardShift(Rule("(n+1)/n"))
        x = SparseVector.unit(L2, 7)
        y = power_apply(b, x, 3)
        # prod_{nu=5..7} (nu+1)/nu = 8/5
        assert y.entries == ((4, Fraction(8, 5)),)

    def test_geometric_fixed_point_structure(self):
        b = WeightedBackwardShift(Rule("2"))
        x = SparseVector.from_pairs(
            L2, [(n, Fraction(1, 2 ** n)) for n in range(1, 12)])
        y = apply(b, x)
        # the truncated geometric vector loses exactly its deepest coordinate
        d = diff_seminorm(L2, 0, y, x)
        assert d == ExactSqrt(Fraction(1, 4 ** 11))

    def test_first_coordinate_of_the_space(self):
        # on power series the constant term is a coordinate: e_1 -> w_1 e_0
        space = EntireCoefficients(4)
        b = WeightedBackwardShift(Rule("2"), space)
        e1 = SparseVector.unit(space, 1)
        assert apply(b, e1).entries == ((0, Fraction(2)),)
        x = SparseVector.from_pairs(space, [(1, Fraction(1)), (2, Fraction(1, 3)),
                                            (4, Fraction(5))])
        assert power_apply(b, x, 2).entries == apply(b, apply(b, x)).entries \
            == ((0, Fraction(4, 3)), (2, Fraction(20)))


class TestRules:
    def test_is_exact_needs_integer_exponents(self):
        for text in ("2^(1/2)", "2^(n/2)"):
            assert not Rule(text).is_exact, text
        for text in ("1/2^n", "(n+1)/n", "2^(-n)"):
            assert Rule(text).is_exact, text
            assert isinstance(Rule(text)(3), Fraction), text


class TestDiagonal:
    def test_rational_turns_exact(self):
        d = Diagonal(turns=Rule("1/2^n"))
        x = SparseVector.from_pairs(L2, [(k, Fraction(1)) for k in (1, 2, 3)])
        assert exact_state_period(d, x) == 8
        assert state_exact_eq(power_apply(d, x, 8), x)

    def test_value_rule(self):
        d = Diagonal(values=Rule("2"))
        x = SparseVector.unit(L2, 4)
        assert power_apply(d, x, 5).entries == ((4, Fraction(32)),)

    def test_scaled_period(self):
        d = Diagonal(turns=Rule("1/2^n"))
        x = SparseVector.unit(L2, 1)          # period 2 under d
        s = Scaled(d, rot(Fraction(1, 3)))
        assert exact_state_period(s, x) == 6

    def test_power_wrapper(self):
        d = Diagonal(turns=Rule("1/2^n"))
        x = SparseVector.from_pairs(L2, [(k, Fraction(1)) for k in (1, 2, 3)])
        assert exact_state_period(Power(d, 2), x) == 4

    def test_describe_decides_exact_entries_exactly(self):
        # an exact entry 1 + 10^-15 once read as unimodular through its float
        assert "all-unimodular head: False" in Diagonal(values=Rule("1+1/10^15")).describe()
        assert "all-unimodular head: True" in Diagonal(turns=Rule("sqrt(2)")).describe()
        assert "all-unimodular head: True" in Diagonal(values=Rule("-1")).describe()


class TestRowRotation:
    def test_pattern_vs_materialized(self):
        rr = RowRotation()
        x = RowState(0)
        mat = x.materialize(8)
        for steps in (1, 2, 5, 8):
            moved = power_apply(rr, x, steps)
            mat_moved = power_apply(rr, mat, steps)
            assert moved.offset == steps
            assert moved.materialize(8) == mat_moved
            for k in range(9):
                assert mat_moved.rotate(0).entries  # shape stays valid
                assert moved.hot_position(k) == (-(steps)) % (1 << k)
                assert (k, moved.hot_position(k), Fraction(1)) in mat_moved.entries

    def test_sparse_only_operators_refuse_row_vectors(self):
        ops = (BlockCycle(), Diagonal(turns=Rule("1/4")),
               AffineComposition(rot(Fraction(1, 4)), 0))
        for x in (RowState(0), FiniteRowVector(((1, 1, Fraction(1)),))):
            for call in (*(op.apply for op in ops), *(op.period_bound for op in ops),
                         Scaled(RowRotation(), Fraction(-1)).apply):
                with pytest.raises(SpaceMismatch):
                    call(x)
        with pytest.raises(SpaceMismatch):
            RowRotation().apply(SparseVector.unit(L2, 1))

    def test_seminorm_values(self):
        # p_1 of the base pattern: full geometric mass, no watched hits
        assert seminorm(RowState(0).space, 1, RowState(0)) == 2
        # growth witnesses at the dyadic probe exponents
        for k in (2, 5, 12, 20):
            m = (1 << (k - 1)) - 1
            assert seminorm(RowState(0).space, 1, RowState(m)) >= k

    def test_return_identity_exact(self):
        space = RowState(0).space
        for l in (3, 7, 14, 20):
            for nu in (1, 3, 5, 99):
                d = diff_seminorm(space, 4, RowState(nu * (1 << l)), RowState(0))
                assert d == Fraction(1, 1 << l)
            # even multiples land one dyadic level deeper
            d = diff_seminorm(space, 4, RowState(2 * (1 << l)), RowState(0))
            assert d == Fraction(1, 1 << (l + 1))

    def test_continuity_bound_constant(self):
        assert continuity_bound_constant(1) == (3, 9)
        l, c = continuity_bound_constant(4)
        assert (1 << l) >= 2 * (4 + 2) and c == 1 + (l - 1) * (1 << (l - 1))

    def test_continuity_random_vectors(self, rng):
        violations = 0
        for _ in range(200):
            cells = {}
            for _ in range(int(rng.integers(1, 9))):
                k = int(rng.integers(0, 10))
                j = int(rng.integers(0, 1 << k))
                cells[(k, j)] = Fraction(int(rng.integers(-8, 9)),
                                         int(rng.integers(1, 6)))
            vec = FiniteRowVector(tuple(sorted(
                (k, j, v) for (k, j), v in cells.items() if v)))
            for n in (1, 2, 3, 4):
                if not continuity_bound_check(vec, n):
                    violations += 1
        assert violations == 0

    def test_continuity_special_and_zero(self):
        assert continuity_bound_check(RowState(0).materialize(10), 1)
        assert continuity_bound_check(FiniteRowVector(()), 1)


class TestAffineComposition:
    def test_pascal_matrix(self):
        space = EntireCoefficients(3)
        op = AffineComposition(Fraction(1), Fraction(1), space)
        for j in range(4):
            img = apply(op, SparseVector.unit(space, j) if j else
                        SparseVector.from_pairs(space, [(0, Fraction(1))]))
            coeffs = dict(img.entries)
            for m in range(j + 1):
                assert abs(coeffs.get(m, 0) - math.comb(j, m)) < 1e-12

    def test_coefficient_seminorm(self):
        space = EntireCoefficients(4, (Fraction(1), Fraction(2)))
        f = SparseVector.from_pairs(
            space, [(0, Fraction(1)), (1, Fraction(1)), (2, Fraction(1))])
        assert seminorm(space, 0, f) == 3
        assert seminorm(space, 1, f) == 1 + 2 + 4

    def test_rotation_symbol_period(self):
        space = EntireCoefficients(6)
        op = AffineComposition(rot(Fraction(1, 5)), Fraction(1), space)
        exact = SparseVector.from_pairs(space, [(0, Fraction(1)), (2, Fraction(1, 2))])
        assert exact_state_period(op, exact) == 5
        f = SparseVector.from_pairs(space, [(0, 1.0 + 0j), (2, 0.5 + 0j)])
        assert exact_state_period(op, f) is None    # no period from float data
        assert power_apply(op, f, 5) is f    # symbol collapses to the identity

    def test_constants_are_fixed(self):
        space = EntireCoefficients(6)
        const = SparseVector.from_pairs(space, [(0, Fraction(3))])
        for a, b in ((rot(Fraction(1, 5)), Fraction(1)), (Fraction(-1), Fraction(1, 2)),
                     (Fraction(1), Fraction(0))):
            assert exact_state_period(AffineComposition(a, b, space), const) == 1

    def test_eigenfunctions(self):
        space = EntireCoefficients(6)
        a, b = rot(Fraction(1, 5)), 1 + 0j
        op = AffineComposition(a, b, space)
        centre = to_complex(b) / (to_complex(a) - 1)
        # f(z) = (z + b/(a-1))^2 is an eigenfunction with eigenvalue a^2
        f = SparseVector.from_pairs(
            space, [(0, centre ** 2), (1, 2 * centre), (2, 1 + 0j)])
        img = apply(op, f)
        lam = to_complex(a) ** 2
        expected = f.scale(lam)
        assert float(diff_seminorm(space, 0, img, expected)) < 1e-12

    def test_translation_never_overflows_degree(self):
        space = EntireCoefficients(5)
        op = AffineComposition(Fraction(1), Fraction(1), space)
        f = SparseVector.from_pairs(space, [(5, Fraction(1))])
        img = power_apply(op, f, 40)
        assert max(d for d, _ in img.entries) == 5

    def test_image_lies_on_the_vector_space(self):
        op = AffineComposition(Fraction(-1), Fraction(0), EntireCoefficients(4))
        space = EntireCoefficients(4, (Fraction(1), Fraction(3)))
        x = SparseVector.unit(space, 1)
        assert apply(op, x).space == power_apply(op, x, 3).space == space
        assert apply(op, x).add(x).is_zero      # f(-z) + f(z) = 0 for f = z


class TestSeminorms:
    def test_l2_unit(self):
        assert seminorm(L2, 0, SparseVector.unit(L2, 3)) == ExactSqrt(Fraction(1))

    def test_sup_norm(self):
        space = SequenceSup()
        x = SparseVector.from_pairs(space, [(1, Fraction(-3)), (4, Fraction(2))])
        assert seminorm(space, 0, x) == 3

    def test_l1(self):
        space = SequenceLp(1)
        x = SparseVector.from_pairs(space, [(1, Fraction(-3)), (4, Fraction(2))])
        assert seminorm(space, 0, x) == 5

    def test_row_diff_seminorm_rejects_index_zero(self):
        space = RowState(0).space
        for norm in (lambda: seminorm(space, 0, RowState(3)),
                     lambda: diff_seminorm(space, 0, RowState(3), RowState(0))):
            with pytest.raises(ValueError, match="seminorm index"):
                norm()


class TestEigenStructure:
    def test_quarter_rotation(self):
        eig = eigen_structure(Matrix.from_array([[0, -1], [1, 0]]))
        assert eig.diagonalizable and eig.all_unimodular
        assert sorted(round(z.imag) for z in eig.eigenvalues) == [-1, 1]

    def test_jordan_block(self):
        eig = eigen_structure(Matrix.from_array([[1, 1], [0, 1]]))
        assert not eig.diagonalizable
        assert eig.algebraic == (2,) and eig.geometric == (1,)
        assert eig.all_unimodular

    def test_not_unimodular(self):
        eig = eigen_structure(Matrix.from_array([[2, 0], [0, 1j]]))
        assert eig.diagonalizable and not eig.all_unimodular

    def test_conjugated_recovery(self, rng):
        from conftest import conjugated_unimodular
        turns = [Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)]
        mat = conjugated_unimodular(turns, seed=5)
        eig = eigen_structure(mat)
        assert eig.diagonalizable and eig.all_unimodular

    def test_perturbation_robustness(self, rng):
        th = 2 * math.pi / 7
        base = np.array([[math.cos(th), -math.sin(th)],
                         [math.sin(th), math.cos(th)]])
        for _ in range(10):
            noise = (rng.random((2, 2)) - 0.5) * 2e-13
            eig = eigen_structure(Matrix.from_array(base + noise))
            assert eig.diagonalizable and eig.all_unimodular
