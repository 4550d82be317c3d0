import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from recurlab import (BlockCycle, Diagonal, FiniteDim, FiniteRowVector,
                      IndexWindow, Matrix, Phase, RowRotation, RowState,
                      Rule, SequenceLp, SparseVector, Thresholds,
                      cut_shift_paste_check, diagonal_criterion_check,
                      eigenvector_span_check, ip_generate,
                      kronecker_return_check, kronecker_window,
                      matrix_criterion_check, minimality_separation_check,
                      named_families, power_consistency_check,
                      scaling_consistency_check, shift_series_check,
                      translation_invariance_check)

from conftest import conjugated_unimodular, rotation_matrix

L2 = SequenceLp(2)
GRID = [Fraction(1, 2), Fraction(1, 5)]


class TestKronecker:
    def test_fourth_root(self):
        out = kronecker_return_check([Fraction(1, 4)], 1.0, 10_000)
        assert out.passed
        assert out.metrics["max_gap"] == 4
        assert out.metrics["exact_multiple"] == 4
        assert out.metrics["certificate_k"] == 4

    def test_root_tuple_exact_window(self):
        turns = [Fraction(1, 3), Fraction(1, 4)]
        out = kronecker_return_check(turns, 0.05, 50_000)
        assert out.passed and out.metrics["exact_multiple"] == 12

    def test_quadratic_irrational(self):
        out = kronecker_return_check([math.sqrt(2) % 1], 0.1, 100_000)
        assert out.passed
        assert out.metrics["probe"] != "falsified"
        assert out.metrics["max_gap"] is not None

    def test_window_helper_matches_direct_scan(self):
        turns = [Fraction(2, 7), math.sqrt(3) % 1]
        w = kronecker_window(turns, 0.3, 3000)
        lams = [np.exp(2j * np.pi * float(t)) for t in turns]
        direct = [n for n in range(3001)
                  if max(abs(l ** n - 1) for l in lams) < 0.3]
        assert list(w.elements) == direct


class TestMatrixCriterion:
    def test_rotation_true(self):
        out = matrix_criterion_check(rotation_matrix(2 * math.pi / 7), GRID, 10_000)
        assert out.passed and out.metrics["criterion"]
        assert all(lab in ("IP_STAR_CERTIFIED", "PERIODIC", "UNIFORMLY_RECURRENT")
                   for lab in out.metrics["labels"])

    def test_jordan_false(self):
        out = matrix_criterion_check(Matrix.from_array([[1, 1], [0, 1]]),
                                     GRID, 10_000)
        assert out.passed and not out.metrics["criterion"]

    def test_mixed_diagonal_false(self):
        out = matrix_criterion_check(Matrix.from_array([[2, 0], [0, 1j]]),
                                     GRID, 10_000)
        assert out.passed and not out.metrics["criterion"]

    def test_conjugated_unimodular(self):
        mat = conjugated_unimodular([Fraction(1, 5), Fraction(1, 8)], seed=3)
        out = matrix_criterion_check(mat, GRID, 10_000)
        assert out.passed and out.metrics["criterion"]


class TestDiagonalCriterion:
    def test_dyadic_roots(self):
        out = diagonal_criterion_check(Diagonal(turns=Rule("1/2^n")), 6,
                                       GRID, 10_000)
        assert out.passed and out.metrics["criterion"]
        assert all(lab == "PERIODIC" for lab in out.metrics["labels"])

    def test_irrational_rotations(self):
        out = diagonal_criterion_check(Diagonal(turns=Rule("sqrt(2)*n")), 4,
                                       GRID, 100_000)
        assert out.passed and out.metrics["criterion"]

    def test_expanding_entry(self):
        out = diagonal_criterion_check(Diagonal(values=Rule("2")), 4,
                                       GRID, 10_000)
        assert out.passed and not out.metrics["criterion"]


class TestEigenvectorSpan:
    def test_rotation_eigenvectors(self):
        th = 2 * math.pi / 7
        mat = rotation_matrix(th)
        v1 = SparseVector.from_pairs(FiniteDim(2), [(1, 1 + 0j), (2, -1j)])
        v2 = SparseVector.from_pairs(FiniteDim(2), [(1, 1 + 0j), (2, 1j)])
        lam1 = complex(math.cos(th), math.sin(th))
        lam2 = lam1.conjugate()
        out = eigenvector_span_check(mat, [(lam1, v1), (lam2, v2)],
                                     [0.5 + 0j, 0.5 + 0j], GRID, 10_000)
        assert out.passed
        assert out.metrics["label"] in ("IP_STAR_CERTIFIED", "PERIODIC",
                                        "UNIFORMLY_RECURRENT")

    def test_fixed_point(self):
        d = Diagonal(turns=Rule("0*n"))
        v = SparseVector.unit(L2, 1)
        out = eigenvector_span_check(d, [(Fraction(1), v)], [Fraction(1)],
                                     GRID, 1000)
        assert out.passed and out.metrics["label"] == "PERIODIC"

    def test_distinct_unimodular_diagonal(self):
        d = Diagonal(turns=Rule("sqrt(2)*n"))
        pairs = [(Phase(Fraction(1), math.sqrt(2) * k % 1.0),
                  SparseVector.unit(L2, k)) for k in (1, 2, 3)]
        out = eigenvector_span_check(d, pairs, [1 + 0j, 0.5 + 0j, 0.25 + 0j],
                                     GRID, 100_000)
        assert out.passed

    def test_bad_eigenpair_skipped(self):
        d = Diagonal(turns=Rule("1/3"))
        v = SparseVector.unit(L2, 1)
        out = eigenvector_span_check(d, [(Fraction(1), v)], [1 + 0j], GRID, 100)
        assert out.status == "skipped"


class TestPowerConsistency:
    def test_blockcycle(self):
        out = power_consistency_check(BlockCycle(), SparseVector.unit(L2, 5),
                                      2, GRID, 10_000)
        assert out.passed and out.metrics["identity"]
        assert out.metrics["label_T"] == out.metrics["label_Tp"] == "PERIODIC"

    def test_rowrotation(self):
        out = power_consistency_check(
            RowRotation(), RowState(0), 3,
            [Fraction(3, 32), Fraction(3, 512)], 40 * 512, seminorms=(1,))
        assert out.passed

    def test_jordan(self):
        out = power_consistency_check(
            Matrix.from_array([[1, 1], [0, 1]]),
            SparseVector.from_pairs(FiniteDim(2), [(2, Fraction(1))]),
            5, GRID, 10_000)
        assert out.passed
        assert out.metrics["label_T"] == out.metrics["label_Tp"] == "NONE"


    def test_verdicts_stop_at_first_mismatch(self, monkeypatch):
        import recurlab.checks as checks
        sizes, contracted = [], []
        real_classify, real_contract = checks.classify, checks.contract

        def classify(recs, thresholds):
            sizes.append(len(recs))
            return real_classify(recs, thresholds)

        def contract(window, p):            # wrong from the second radius on
            contracted.append(window)
            if len(contracted) == 1:
                return real_contract(window, p)
            return IndexWindow((0,), window.horizon // p)

        monkeypatch.setattr(checks, "classify", classify)
        monkeypatch.setattr(checks, "contract", contract)
        out = power_consistency_check(BlockCycle(), SparseVector.unit(L2, 5), 2,
                                      [Fraction(1, 2), Fraction(1, 5), Fraction(1, 10)],
                                      400)
        assert not out.passed and out.witness["eps"] == "1/5"
        assert sizes == [2, 2]


class TestScalingConsistency:
    def test_identity_factor(self):
        out = scaling_consistency_check(BlockCycle(), SparseVector.unit(L2, 5),
                                        Fraction(1), GRID, 10_000)
        assert out.passed
        assert out.metrics["label_T"] == out.metrics["label_scaled"]

    def test_quarter_turn_on_scalar_rotation(self):
        # T = multiplication by i on C; an irrational factor dissolves the
        # exact period into uniform recurrence
        d = Diagonal(turns=Rule("1/4"))
        x = SparseVector.unit(L2, 1)
        out = scaling_consistency_check(
            d, x, Phase(Fraction(1), math.sqrt(2)), GRID, 100_000)
        assert out.passed
        assert out.metrics["label_T"] == "PERIODIC"
        assert out.metrics["label_scaled"] in ("UNIFORMLY_RECURRENT",
                                               "IP_STAR_CERTIFIED")

    def test_minus_one_on_rotation_matrix(self):
        out = scaling_consistency_check(
            rotation_matrix(2 * math.pi / 7),
            SparseVector.unit(FiniteDim(2), 1), Fraction(-1), GRID, 10_000)
        assert out.passed

    def test_non_unimodular_skipped(self):
        out = scaling_consistency_check(BlockCycle(), SparseVector.unit(L2, 5),
                                        Fraction(2), GRID, 100)
        assert out.status == "skipped"


class TestShiftSeries:
    def test_doubling_fixed_point(self):
        out = shift_series_check(Rule("2"), IndexWindow.from_iterable(
            range(1, 401), 400))
        assert out.passed and out.metrics["verdict"] == "converging"
        assert out.metrics["fixed_point_residual"] <= out.metrics["certified_tail"]

    def test_harmonic_diverges(self):
        out = shift_series_check(Rule("(n+1)/n"), IndexWindow.from_iterable(
            range(1, 100_001), 100_000), 10.0)
        assert out.passed and out.metrics["verdict"] == "diverging"
        # the threshold crossing happens on the e^10 scale
        assert 10_000 < out.metrics["crossing_n"] < 80_000

    def test_dyadic_support_converges(self):
        out = shift_series_check(Rule("2"), IndexWindow.from_iterable(
            [1 << j for j in range(1, 9)], 400))
        assert out.passed and out.metrics["verdict"] == "converging"

    def test_vanishing_weight_skips_before_a_later_division_by_zero(self):
        support = IndexWindow.from_iterable(range(1, 11), 10)
        out = shift_series_check(Rule("(n-3)/(n-5)"), support)
        assert out.status == "skipped" and out.reason == "weight w_3 vanishes"
        with pytest.raises(ZeroDivisionError, match="at n=3$"):
            shift_series_check(Rule("(n-5)/(n-3)"), support)

    def test_vanishing_weight_skips_after_a_float_underflow(self):
        # w_1 = -2^-1099 underflows to -0.0 in floats; w_3 = 0 vanishes exactly
        support = IndexWindow.from_iterable(range(1, 6), 5)
        out = shift_series_check(Rule("(n-3)/2^1100"), support)
        assert out.status == "skipped" and out.reason == "weight w_3 vanishes"


SERIES_SUPPORT = IndexWindow.from_iterable(range(1, 1101), 1100)


def series_without_warnings(rule: str):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = shift_series_check(Rule(rule), SERIES_SUPPORT)
    assert not caught, [str(w.message) for w in caught]
    return out


class TestShiftSeriesOutsideFloatRange:
    """Weights and terms beyond float range are taken through exact log2."""

    def test_underflowing_weights_diverge(self):
        # w_n = 2^-n is 0.0 in floats from n = 1075 on
        out = series_without_warnings("1/2^n")
        assert out.passed and out.metrics["verdict"] == "diverging"
        assert out.metrics["crossing_n"] == 3          # 2 + 8 + 64 > 10
        assert math.isfinite(out.metrics["partial_sum"])

    def test_overflowing_weights_converge(self):
        # w_n = 2^n leaves float range at n = 1024
        out = series_without_warnings("2^n")
        assert out.passed and out.metrics["verdict"] == "converging"
        assert out.metrics["fixed_point_residual"] <= out.metrics["certified_tail"]

    def test_terms_past_float_range_keep_finite_sums(self):
        # 1/(w_1 ... w_n) = 2^n: 1100 terms up to 2^1020 used to overflow the sum
        out = series_without_warnings("1/2")
        assert out.passed and out.metrics["verdict"] == "diverging"
        assert out.metrics["crossing_n"] == 3          # 2 + 4 + 8 > 10
        assert math.isfinite(out.metrics["partial_sum"])


class TestCutShiftPaste:
    @pytest.mark.parametrize("family", ["infinite", "syndetic", "lower-density",
                                        "upper-density", "banach-density"])
    def test_closure(self, family):
        out = cut_shift_paste_check(family, trials=80, seed=7, horizon=16_000)
        assert out.passed
        assert out.metrics["violations"] == 0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            cut_shift_paste_check("bogus", 1, 0)

    def test_named_families_are_the_accepted_names(self):
        families = named_families()
        assert [f.name for f in families.values()] == list(families)
        for name in families:
            assert cut_shift_paste_check(name, 1, 0, horizon=5000).passed
        for name in ("Syndetic", "density", ""):
            with pytest.raises(ValueError):
                cut_shift_paste_check(name, 1, 0)

    @pytest.mark.parametrize("name", list(named_families()))
    def test_sampler_yields_members(self, name):
        # below about H = 5000 the samples need not be members: infinite at
        # H = 2000 misses the recency evidence now and then
        fam = named_families()[name]
        for horizon in (5000, 10_000, 20_000):
            rng = np.random.default_rng(horizon)
            for _ in range(40):
                assert fam(fam.sample(rng, horizon), Thresholds()), horizon


class TestMinimalitySeparation:
    def test_rowrotation_vs_zero(self):
        out = minimality_separation_check(RowRotation(), RowState(0),
                                          FiniteRowVector(()), 1 << 14,
                                          seminorm_index=1)
        assert out.passed
        assert out.metrics["floor"] == 2.0   # full first-sum mass of the pattern

    def test_periodic_point_on_own_orbit(self):
        e5 = SparseVector.unit(L2, 5)
        out = minimality_separation_check(BlockCycle(), e5, e5, 1000)
        assert out.status == "skipped"

    def test_rotation_vs_origin(self):
        out = minimality_separation_check(
            rotation_matrix(2 * math.pi * math.sqrt(2)),
            SparseVector.unit(FiniteDim(2), 1),
            SparseVector.from_pairs(FiniteDim(2), []), 10_000)
        assert out.passed
        assert abs(out.metrics["floor"] - 1.0) < 1e-9


class TestTranslationInvariance:
    def test_progression(self):
        out = translation_invariance_check(IndexWindow.residue(3, 0, 10_000), 7)
        assert out.passed
        assert out.metrics["banach_pre"] == out.metrics["banach_post"]

    def test_finite_sums_set(self):
        fs = ip_generate(tuple(1 << j for j in range(10)), 10, 2000)
        out = translation_invariance_check(fs, 5)
        assert out.passed

    def test_degenerate_skipped(self):
        out = translation_invariance_check(IndexWindow((0,), 5), 3)
        assert out.status == "skipped"
