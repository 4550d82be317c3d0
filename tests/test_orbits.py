import math
from fractions import Fraction
from unittest import mock

import pytest

from recurlab import (BlockCycle, Diagonal, FiniteDim, Matrix, Phase, Power,
                      RowRotation, RowState, Rule, Scaled, SequenceLp,
                      SparseVector, contract, orbit_growth, orbits,
                      power_bounded_probe, power_consistency_check,
                      return_set, return_sets, scaling_consistency_check,
                      totally_bounded_probe)
from recurlab.cli import execute_experiment
from recurlab.config import parse_config
from recurlab.orbits import _stepwise_profile, distance_profile

from conftest import rotation_matrix

L2 = SequenceLp(2)


def zoo_members():
    """Representative (operator, vector, seminorms) triples."""
    bc = BlockCycle()
    out = [
        (bc, SparseVector.unit(L2, 5), (0,)),
        (bc, SparseVector.from_pairs(L2, [(2, Fraction(1)), (5, Fraction(1, 2))]), (0,)),
        (RowRotation(), RowState(0), (1,)),
        (rotation_matrix(2 * math.pi / 7), SparseVector.unit(FiniteDim(2), 1), (0,)),
        (rotation_matrix(2 * math.pi * math.sqrt(2)),
         SparseVector.unit(FiniteDim(2), 1), (0,)),
        (Matrix.from_array([[1, 1], [0, 1]]),
         SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(1))]), (0,)),
        (Diagonal(turns=Rule("1/2^n")),
         SparseVector.from_pairs(L2, [(k, Fraction(1)) for k in (1, 2, 3)]), (0,)),
        (Diagonal(turns=Rule("sqrt(2)*n")),
         SparseVector.from_pairs(L2, [(1, Fraction(1)), (2, Fraction(1))]), (0,)),
        (Diagonal(values=Rule("2")), SparseVector.unit(L2, 1), (0,)),
    ]
    return out


class TestReturnSet:
    def test_blockcycle_window(self):
        rec = return_set(BlockCycle(), SparseVector.unit(L2, 5),
                         Fraction(1, 10), (0,), 100)
        assert rec.window.elements == tuple(range(0, 101, 4))
        assert rec.exact and rec.exact_period == 4

    def test_rowstate_window_is_exact_progression(self):
        for l in (4, 8):
            eps = Fraction(3, 2 ** (l + 1))       # 1.5 * 2^-l
            n = 40 * (1 << l)
            rec = return_set(RowRotation(), RowState(0), eps, (1, 2), n)
            assert rec.window.elements == tuple(range(0, n + 1, 1 << l))

    def test_huge_epsilon_gives_everything(self):
        for op, x, sem in zoo_members()[:4]:
            rec = return_set(op, x, Fraction(100), sem, 50)
            assert rec.window.elements == tuple(range(51))

    def test_zero_always_returns(self):
        for op, x, sem in zoo_members():
            rec = return_set(op, x, Fraction(1, 1000), sem, 30)
            assert 0 in rec.window.member_set

    def test_epsilon_monotonicity(self):
        for op, x, sem in zoo_members():
            small = return_set(op, x, Fraction(1, 5), sem, 400).window
            large = return_set(op, x, Fraction(1, 2), sem, 400).window
            assert set(small.elements) <= set(large.elements)

    def test_record_serialization(self):
        rec = return_set(BlockCycle(), SparseVector.unit(L2, 5),
                         Fraction(1, 10), (0,), 40)
        text = rec.to_text("blockcycle", "vec(sparse: 5:1)")
        assert "operator=blockcycle" in text
        assert "epsilon=1/10" in text
        assert "horizon=40" in text.splitlines()[5]


class TestOneProfilePerGrid:
    """A whole epsilon grid costs one distance profile per operator."""

    @pytest.fixture
    def profiles(self):
        with mock.patch.object(orbits, "distance_profile",
                               wraps=orbits.distance_profile) as spy:
            yield spy

    GRID = [Fraction(1, 2), Fraction(1, 5), Fraction(1, 10)]

    def test_return_sets(self, profiles):
        for op, x, sem in zoo_members():
            profiles.reset_mock()
            records = return_sets(op, x, self.GRID, sem, 200)
            assert profiles.call_count == 1
            assert [rec.epsilon for rec in records] == self.GRID

    def test_bad_radius_rejected_before_any_profile(self, profiles):
        with pytest.raises(ValueError):
            return_sets(BlockCycle(), SparseVector.unit(L2, 5),
                        [Fraction(1, 2), Fraction(0)], (0,), 100)
        assert profiles.call_count == 0

    def test_execute_experiment(self, profiles):
        spec = parse_config("""
[experiment jordan]
operator = matrix([[1, 1], [0, 1]])
vector = vec(sparse: 2:1)
epsilons = 1/2, 1/5, 1/10
horizon = 300
""").experiments[0]
        out = execute_experiment(spec)
        assert profiles.call_count == 1
        assert sorted(out["files"]) == sorted(
            [f"{kind}_{i}.txt" for kind in ("window", "density") for i in range(3)]
            + ["verdict.txt"])

    def test_consistency_checks(self, profiles):
        x = SparseVector.unit(L2, 5)
        assert scaling_consistency_check(
            BlockCycle(), x, Phase(Fraction(1), Fraction(1, 3)), self.GRID, 400).passed
        assert profiles.call_count == 2
        profiles.reset_mock()
        assert power_consistency_check(BlockCycle(), x, 2, self.GRID, 400).passed
        assert profiles.call_count == 2


class TestPowerIdentity:
    def test_window_contraction_across_zoo(self):
        for op, x, sem in zoo_members():
            for p in (2, 3, 5):
                base = return_set(op, x, Fraction(1, 4), sem, 600)
                powered = return_set(Power(op, p), x, Fraction(1, 4), sem, 600 // p)
                assert powered.window.elements == \
                    contract(base.window, p).elements, (type(op).__name__, p)

    def test_scaled_operators_too(self):
        op = Scaled(BlockCycle(), Phase(Fraction(1), math.sqrt(2)))
        x = SparseVector.unit(L2, 5)
        base = return_set(op, x, Fraction(1, 2), (0,), 2000)
        powered = return_set(Power(op, 4), x, Fraction(1, 2), (0,), 500)
        assert powered.window.elements == contract(base.window, 4).elements


class TestProfiles:
    def test_closed_forms_match_stepwise(self):
        cases = [
            (Diagonal(turns=Rule("sqrt(2)*n")),
             SparseVector.from_pairs(L2, [(1, Fraction(1)), (2, Fraction(1))])),
            (rotation_matrix(2 * math.pi * 0.31), SparseVector.unit(FiniteDim(2), 1)),
            (Scaled(Diagonal(turns=Rule("1/7")), Phase(Fraction(1), math.sqrt(3))),
             SparseVector.unit(L2, 1)),
            # a zero entry on the support: its powers vanish for n >= 1
            (Diagonal(values=Rule("0")), SparseVector.unit(L2, 1)),
            (Diagonal(values=Rule("n-1")),
             SparseVector.from_pairs(L2, [(1, Fraction(1)), (2, Fraction(1))])),
        ]
        for op, x in cases:
            fast = distance_profile(op, x, (0,), 250)
            slow = _stepwise_profile(op, x, (0,), 250)
            worst = max(abs(float(fast.value(n)) - float(slow.value(n)))
                        for n in range(251))
            assert worst < 1e-9, type(op).__name__

    def test_periodic_profile_tiles(self):
        prof = distance_profile(BlockCycle(), SparseVector.unit(L2, 9), (0,), 64)
        assert prof.period == 8
        w = prof.window(Fraction(1, 2))
        assert w.elements == tuple(range(0, 65, 8))


class TestGrowth:
    def test_rowrotation_growth_witness(self):
        g = orbit_growth(RowRotation(), RowState(0), 1, 1 << 16)
        assert g.growing
        values = dict(g.samples)
        for k in (5, 10, 16):
            assert values[(1 << (k - 1)) - 1] >= k

    def test_rotation_bounded(self):
        g = orbit_growth(rotation_matrix(2 * math.pi / 7),
                         SparseVector.unit(FiniteDim(2), 1), 0, 4096)
        assert not g.growing
        assert abs(g.bound - 1.0) < 1e-9

    def test_jordan_grows(self):
        g = orbit_growth(Matrix.from_array([[1, 1], [0, 1]]),
                         SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(1))]),
                         0, 4096)
        assert g.growing

    def test_truncated_fixed_point_bounded(self):
        from recurlab import WeightedBackwardShift
        b = WeightedBackwardShift(Rule("2"))
        x = SparseVector.from_pairs(L2, [(n, Fraction(1, 2 ** n))
                                         for n in range(1, 30)])
        g = orbit_growth(b, x, 0, 512)
        assert not g.growing


class TestPowerBounded:
    def test_unimodular_diagonal_equibounded(self):
        d = Diagonal(turns=Rule("1/2^n"))
        out = power_bounded_probe(
            d, [SparseVector.unit(L2, k) for k in (1, 2, 3)], 500)
        assert out.equibounded and abs(out.bound - 1.0) < 1e-12

    def test_jordan_violation(self):
        out = power_bounded_probe(
            Matrix.from_array([[1, 1], [0, 1]]),
            [SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(1))])], 10_000)
        assert not out.equibounded

    def test_blockcycle_intra_block_blowup(self):
        out = power_bounded_probe(
            BlockCycle(), [SparseVector.unit(L2, k) for k in range(2, 32)], 200)
        assert not out.equibounded
        assert out.bound >= 2 ** 15   # factor inside block [16, 32)


class TestTotallyBounded:
    def test_fifth_rotation_covering_five(self):
        cov = totally_bounded_probe(rotation_matrix(2 * math.pi / 5),
                                    SparseVector.unit(FiniteDim(2), 1),
                                    2000, [0.1])
        rows = cov.at(0.1)
        assert all(count == 5 for _, count in rows)
        assert cov.flat(0.1, slack=0)

    def test_exactly_periodic_orbit_covering_five(self):
        # an exact fifth-turn diagonal: the probe tiles one exact period
        cov = totally_bounded_probe(Diagonal(turns=Rule("1/5")),
                                    SparseVector.unit(L2, 1), 2000, [0.1])
        assert cov.at(0.1) == ((500, 5), (1000, 5), (2000, 5))

    def test_irrational_circle_stable(self):
        th = 2 * math.pi * math.sqrt(2)
        mat = Matrix.from_array([[complex(math.cos(th), math.sin(th))]])
        x = SparseVector.unit(FiniteDim(1), 1)
        cov = totally_bounded_probe(mat, x, 4096, [0.5, 0.2])
        for eps in (0.5, 0.2):
            rows = cov.at(eps)
            assert cov.flat(eps, slack=1)
            # greedy nets of the unit circle: between the optimal pi/eps
            # and its doubling
            optimal = math.pi / eps
            assert optimal * 0.8 <= rows[-1][1] <= 2.2 * optimal

    def test_jordan_not_compact(self):
        cov = totally_bounded_probe(
            Matrix.from_array([[1, 1], [0, 1]]),
            SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(1))]),
            2000, [0.5])
        rows = cov.at(0.5)
        assert rows[-1][1] > 2 * rows[0][1]
