import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (BlockCycle, Diagonal, FiniteDim, Matrix, Phase, Power,
                      RowRotation, RowState, Rule, Scaled, SequenceLp,
                      SparseVector, contract, orbit_growth, orbits,
                      power_bounded_probe, power_consistency_check,
                      return_set, return_sets, scaling_consistency_check,
                      totally_bounded_probe)
from recurlab.cli import execute_experiment
from recurlab.config import parse_config
from recurlab.orbits import (DistanceProfile, _stepwise_profile, distance_profile,
                             orbit_norms)
from recurlab.values import ExactSqrt, norm_lt

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

    @pytest.mark.parametrize("turns", ["n/4", "n/67"])
    def test_profile_checks_seminorm_indices(self, turns):
        # n/4 takes the periodic branch (period 4 <= N + 1), n/67 the diagonal
        # closed form
        with pytest.raises(ValueError, match="seminorm index"):
            distance_profile(Diagonal(turns=Rule(turns)),
                             SparseVector.unit(L2, 3), (3,), 5)

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


@st.composite
def exact_cases(draw):
    """Exact operators: block-cycle units, rational-turn diagonals and the
    row rotation, with their seminorm indices."""
    kind = draw(st.sampled_from(["block-cycle", "diagonal", "row-rotation"]))
    if kind == "block-cycle":
        return BlockCycle(), SparseVector.unit(L2, draw(st.integers(1, 63))), (0,)
    if kind == "diagonal":
        a, q = draw(st.integers(1, 12)), draw(st.integers(2, 40))
        turns = draw(st.sampled_from([f"{a}*n/{q}", f"{a}/{q}"]))
        pairs = draw(st.dictionaries(st.integers(1, 6),
                                     st.fractions(-2, 2, max_denominator=3).filter(bool),
                                     min_size=1, max_size=3))
        return Diagonal(turns=Rule(turns)), SparseVector.from_pairs(L2, pairs.items()), (0,)
    seminorms = draw(st.sets(st.integers(1, 4), min_size=1, max_size=2))
    return RowRotation(), RowState(draw(st.integers(0, 100))), tuple(sorted(seminorms))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(exact_cases(), st.integers(2, 5),
       st.fractions(Fraction(1, 100), 2, max_denominator=100),
       st.integers(5, 600))
def test_power_window_is_contracted_window(case, p, eps, horizon):
    op, x, seminorms = case
    base = return_set(op, x, eps, seminorms, horizon)
    powered = return_set(Power(op, p), x, eps, seminorms, horizon // p)
    assert powered.window == contract(base.window, p)


def test_nested_scaled_factors_peel_to_an_exact_factor():
    # an int factor times a Fraction stays exact, as values.vmul keeps it
    base, factor, stride = orbits._peel(Scaled(Scaled(BlockCycle(), 2), Fraction(1, 2)))
    assert base == BlockCycle() and stride == 1
    assert type(factor) is Fraction and factor == 1


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

    def test_matrix_profile_fills_blocks(self):
        # return windows of 10^6 steps on a unimodular 2x2 matrix: N x 2 complex
        # temporaries raised the peak by 153 MiB, blocks of n by about 13 MiB
        grown = peak_growth_mib(
            "from fractions import Fraction\n"
            "import numpy as np\n"
            "from recurlab import FiniteDim, Matrix, SparseVector, return_sets\n"
            "S = np.array([[3, 1], [-1, 2]])\n"
            "D = np.diag(np.exp(2j * np.pi * np.array([0.3, 0.71])))\n"
            "op = Matrix.from_array(S @ D @ np.linalg.inv(S))\n"
            "x = SparseVector.unit(FiniteDim(2), 1)\n"
            "return_sets(op, x, [Fraction(1, 2)], (0,), 10)\n",
            "recs = return_sets(op, x, [Fraction(1, 2), Fraction(1, 5)], (0,), 10 ** 6)\n"
            "assert recs[0].window.count > recs[1].window.count > 1\n")
        assert grown <= 40.0, f"peak RSS grew by {grown} MiB"

    def test_diagonal_profile_fills_blocks(self):
        # the same horizon on a 2-coordinate irrational diagonal: the powers of
        # each coordinate come in blocks of n, from one table of _CHUNK units
        grown = peak_growth_mib(
            "from fractions import Fraction\n"
            "from recurlab import Diagonal, Rule, SequenceLp, SparseVector, return_sets\n"
            "op = Diagonal(turns=Rule('sqrt(2)*n'))\n"
            "x = SparseVector.from_pairs(SequenceLp(2), [(1, Fraction(1)), (2, Fraction(1, 2))])\n"
            "return_sets(op, x, [Fraction(1, 2)], (0,), 10)\n",
            "recs = return_sets(op, x, [Fraction(1, 2), Fraction(1, 5)], (0,), 10 ** 6)\n"
            "assert recs[0].window.count > recs[1].window.count > 1\n")
        assert grown <= 40.0, f"peak RSS grew by {grown} MiB"

    def test_wide_diagonal_profile_fills_blocks(self):
        # 200 coordinates at N = 10^6: the unit tables go _GROUP eigenvalues
        # at a time, so the peak does not grow with the support of x
        grown = peak_growth_mib(
            "from fractions import Fraction\n"
            "from recurlab import Diagonal, Rule, SequenceLp, SparseVector, return_sets\n"
            "op = Diagonal(turns=Rule('sqrt(2)*n'))\n"
            "x = SparseVector.from_pairs(SequenceLp(2), [(i, Fraction(1, i)) for i in range(1, 201)])\n"
            "return_sets(op, x, [Fraction(1, 2)], (0,), 10)\n",
            "recs = return_sets(op, x, [Fraction(1, 2), Fraction(1, 5)], (0,), 10 ** 6)\n"
            "assert recs[0].window.count > recs[1].window.count > 1\n")
        assert grown <= 40.0, f"peak RSS grew by {grown} MiB"

    def test_scaled_block_cycle_past_float_range_fills_blocks(self):
        # a block-2^12 cycle under an irrational unimodular factor: its 4096
        # states stay sparse, and the classes past float range read +inf
        grown = peak_growth_mib(
            "import math\n"
            "from fractions import Fraction\n"
            "from recurlab import BlockCycle, Phase, Scaled, SequenceLp, SparseVector, return_sets\n"
            "op = Scaled(BlockCycle(), Phase(Fraction(1), math.sqrt(5) % 1.0))\n"
            "x = SparseVector.from_pairs(SequenceLp(2), [(4099, Fraction(1)), (4103, Fraction(-1, 2))])\n"
            "return_sets(op, SparseVector.unit(SequenceLp(2), 9), [Fraction(1, 2)], (0,), 10)\n",
            "recs = return_sets(op, x, [Fraction(1, 2)], (0,), 1 << 16)\n"
            "assert recs[0].window.count > 1\n")
        assert grown <= 40.0, f"peak RSS grew by {grown} MiB"

    def test_periodic_profile_tiles(self):
        prof = distance_profile(BlockCycle(), SparseVector.unit(L2, 9), (0,), 64)
        assert prof.period == 8
        w = prof.window(Fraction(1, 2))
        assert w.elements == tuple(range(0, 65, 8))


profile_value = st.one_of(st.fractions(0, 4, max_denominator=50).map(ExactSqrt),
                          st.fractions(0, 4, max_denominator=50),
                          st.floats(0, 4))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.lists(profile_value, min_size=1, max_size=20),
       st.fractions(Fraction(1, 50), 4, max_denominator=50), st.integers(0, 3))
def test_window_equals_per_value_norm_lt(values, eps, repeats):
    # a periodic profile holds one period, tiled out to the horizon
    horizon = len(values) * (repeats + 1) - 1
    prof = DistanceProfile(tuple(values), horizon, period=len(values))
    want = tuple(n for n in range(horizon + 1) if norm_lt(values[n % len(values)], eps))
    assert prof.window(eps).elements == want


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


# the peak resident memory of the child's own image: a child started by
# vfork and exec inherits its parent's peak into ru_maxrss, which would hide
# the child's peak behind the test runner's
_PEAK_MIB = (
    "def peak_mib():\n"
    "    try:\n"
    "        with open('/proc/self/status') as status:\n"
    "            for line in status:\n"
    "                if line.startswith('VmHWM:'):\n"
    "                    return int(line.split()[1]) / 1024\n"
    "    except OSError:\n"
    "        pass\n"
    "    import resource\n"
    "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n")


def peak_growth_mib(setup: str, work: str) -> float:
    """How far ``work`` raises the peak resident memory (MiB) of a fresh
    single-threaded interpreter that has run ``setup``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = (_PEAK_MIB + setup + "before = peak_mib()\n" + work
            + "print(peak_mib() - before)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


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

    def test_orbit_norms_hold_one_state_at_a_time(self):
        # a non-periodic orbit of 2 * 10^5 steps: holding every state raised
        # the peak by 57-73 MiB, stepping with one state by about 2 MiB
        grown = peak_growth_mib(
            "from fractions import Fraction\n"
            "from recurlab import FiniteDim, Matrix, SparseVector\n"
            "from recurlab.orbits import orbit_norms\n"
            "op = Matrix.from_array([[1, 1], [0, 1]])\n"
            "x = SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(1))])\n"
            "orbit_norms(op, x, 0, 10)\n",
            "norms = orbit_norms(op, x, 0, 200_000)\n"
            "assert norms.shape == (200_001,) and norms[-1] > 2e5\n")
        assert grown <= 20.0, f"peak RSS grew by {grown} MiB"

    def test_diagonal_walks_each_rule_once_per_index(self):
        rule = Rule("sqrt(2)*n")
        op = Diagonal(turns=rule)
        x = SparseVector.from_pairs(L2, [(1, Fraction(1)), (3, Fraction(1, 2)),
                                         (4, Fraction(-2))])
        walked = []
        call = Rule.__call__

        def spy(self, n):
            walked.append(n)
            return call(self, n)

        with mock.patch.object(Rule, "__call__", spy):
            norms = orbit_norms(op, x, 0, 2000)
        assert sorted(walked) == [1, 3, 4]
        assert norms.shape == (2001,)
        assert op._entries == {i: Phase(Fraction(1), rule(i)) for i in (1, 3, 4)}
        fresh = Diagonal(turns=Rule("sqrt(2)*n"))
        assert op == fresh and repr(op) == repr(fresh) and hash(op) == hash(fresh)

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

    def test_materialized_orbit_holds_one_state_at_a_time(self):
        # 2 * 10^5 stepped states as 6.1 MiB of dense rows: holding every
        # state before filling a row raised the peak by 82 MiB, filling the
        # rows while stepping by about 12 MiB
        grown = peak_growth_mib(
            "from fractions import Fraction\n"
            "from recurlab import FiniteDim, Matrix, SparseVector\n"
            "from recurlab.orbits import _materialized_orbit\n"
            "op = Matrix.from_array([[1, 1], [0, 1]])\n"
            "x = SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(1))])\n"
            "_materialized_orbit(op, x, 10)\n",
            "pts = _materialized_orbit(op, x, 200_000)\n"
            "assert pts.shape == (200_001, 2) and pts[-1, 0] == 200_000\n")
        assert grown <= 30.0, f"peak RSS grew by {grown} MiB"

    @staticmethod
    def loop_net_counts(op, x, N, eps_grid):
        """The greedy net with one np.linalg.norm per (point, center) pair."""
        pts = orbits._materialized_orbit(op, x, N)
        marks = sorted({max(1, N // 4), max(1, N // 2), N})
        out = []
        for eps in eps_grid:
            centers, rows = [], []
            for n in range(N + 1):
                p = pts[n]
                if not centers or min(float(np.linalg.norm(p - c))
                                      for c in centers) > eps:
                    centers.append(p)
                if n in marks:
                    rows.append((n, len(centers)))
            out.append((float(eps), tuple(rows)))
        return tuple(out)

    @pytest.mark.parametrize("seed", range(4))
    def test_vector_net_equals_per_center_loop(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(3, 13))
        cases = [
            (rotation_matrix(2 * math.pi * rng.random()),
             SparseVector.unit(FiniteDim(2), 1), 250),
            (rotation_matrix(2 * math.pi * int(rng.integers(1, q)) / q),
             SparseVector.unit(FiniteDim(2), 1), 200),
            (Matrix.from_array(np.eye(2) * complex(rng.choice([1, -1, 1j]))
                               + np.eye(2, k=1)),
             SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(int(rng.integers(1, 8)), 4))]),
             120),
            (Diagonal(turns=Rule(f"{int(rng.integers(1, q))}*n/{q}")),
             SparseVector.from_pairs(L2, [(1, Fraction(1)), (2, Fraction(1, 2)),
                                          (3, Fraction(-1, 3))]), 200),
        ]
        for op, x, N in cases:
            pts = orbits._materialized_orbit(op, x, N)
            # radii equal to the orbit's own distances from its first point put
            # decisions on the boundary; favour those that a coordinatewise
            # sum of squares rounds differently from np.linalg.norm
            exact = np.array([np.linalg.norm(p - pts[0]) for p in pts])
            diff = pts - pts[0]
            summed = np.sqrt((diff.real ** 2 + diff.imag ** 2).sum(axis=1))
            apart = np.flatnonzero(summed != exact)
            picks = [*apart[:3], *rng.integers(1, N + 1, size=2)]
            eps_grid = [float(rng.uniform(0.05, 1.5)), 0.0, *exact[picks].tolist()]
            cov = totally_bounded_probe(op, x, N, eps_grid)
            assert cov.counts == self.loop_net_counts(op, x, N, eps_grid), op
