import math

import numpy as np
import pytest

from recurlab import (CutShiftPaste, IndexWindow, SetPredicate,
                      arithmetic_certificate, contract, cut_shift_paste,
                      density_report, dilate, ip_generate, ip_star_probe,
                      syndetic_certificate)
from recurlab.families import ConfigurationError

from conftest import (oracle_running_extrema, oracle_window_max,
                      oracle_window_max_bisect, random_structured_window)
from test_orbits import peak_growth_mib


class TestIndexWindow:
    def test_invariants(self):
        with pytest.raises(ValueError):
            IndexWindow((3, 2), 10)
        with pytest.raises(ValueError):
            IndexWindow((3, 12), 10)
        w = IndexWindow.from_iterable([5, 1, 5, 9], 10)
        assert w.elements == (1, 5, 9)
        assert 5 in w and 2 not in w

    def test_serialization_roundtrip(self, rng):
        for _ in range(20):
            w = random_structured_window(rng, 500)
            assert IndexWindow.from_text(w.to_text()) == w
        assert IndexWindow.from_text("horizon=4\n0\n2\n4\n").elements == (0, 2, 4)


class TestDensityReport:
    def test_evens(self):
        h = 100_000
        w = IndexWindow.residue(2, 0, h)
        rep = density_report(w, burn_in=h // 2, schedule=(h // 4, h // 2))
        assert abs(rep.lower_est - 0.5) <= 1 / h
        assert abs(rep.upper_est - 0.5) <= 1 / h
        assert abs(rep.banach_upper_est - 0.5) <= 1 / h
        assert rep.max_gap == 2

    def test_squares(self):
        # counting ~sqrt(N) elements forces every estimate under 1/sqrt(N)
        # once the windows are horizon-scale
        h = 100_000
        w = IndexWindow.from_iterable((n * n for n in range(1000)), h)
        rep = density_report(w, burn_in=h // 2, schedule=(h // 4, h // 2))
        assert rep.banach_upper_est <= 0.005
        assert rep.upper_est <= 0.005 and rep.lower_est <= 0.005

    def test_factorial_bursts(self):
        h = math.factorial(10)
        elems = []
        for j in range(1, 11):
            base = math.factorial(j)
            elems.extend(range(base, min(base + j, h) + 1))
        w = IndexWindow.from_iterable(elems, h)
        rep = density_report(w, schedule=(3, 9))
        assert rep.banach_upper_est == 1.0
        assert rep.upper_est < 0.01
        # independent sliding-window oracle at L = 9
        assert oracle_window_max(w.elements, h, 9) == 1.0

    def test_oracle_equivalence(self, rng):
        for _ in range(40):
            h = int(rng.integers(200, 4000))
            w = random_structured_window(rng, h)
            if w.count == 0:
                continue
            burn = int(rng.integers(0, h // 2))
            ls = sorted({int(l) for l in rng.integers(1, h, size=3)})
            rep = density_report(w, burn_in=burn, schedule=ls)
            lo, hi = oracle_running_extrema(w.elements, h, burn)
            assert abs(rep.lower_est - lo) <= 1e-12
            assert abs(rep.upper_est - hi) <= 1e-12
            raw = oracle_window_max(w.elements, h, max(ls))
            assert abs(rep.banach_raw - raw) <= 1e-12
            # spot recount with a second, pure-python oracle
            starts = rng.integers(0, h, size=16).tolist()
            spot = oracle_window_max_bisect(w.elements, h, max(ls), starts + [0])
            assert rep.banach_raw >= spot - 1e-12

    def test_chain_and_gap_bound(self, rng):
        for _ in range(60):
            h = int(rng.integers(300, 5000))
            w = random_structured_window(rng, h)
            if w.count < 2:
                continue
            burn = int(rng.integers(0, h // 2))
            ls = sorted({int(l) for l in rng.integers(1, h, size=3)})
            rep = density_report(w, burn_in=burn, schedule=ls)
            assert rep.lower_est <= rep.upper_est <= rep.banach_upper_est + 1e-15
            cert = syndetic_certificate(w)
            if cert.ok:
                g = cert.max_gap
                for length, value in rep.banach_curve:
                    if length >= g and w.elements[-1] >= length:
                        assert value >= 1 / (g + 1) - 1 / (length + 1) - 1e-12

    def test_reads_one_rank_table(self):
        # 10^5 members at H = 10^7: int64 running sums, a float running
        # density and a copy per window length raised the peak by about
        # 315 MiB; the bool mask, the int32 rank table and the member-length
        # gathers raise it by about 87 MiB
        grown = peak_growth_mib(
            "import numpy as np\n"
            "from recurlab import IndexWindow, density_report\n",
            "density_report(IndexWindow(np.arange(0, 10 ** 7 + 1, 97), 10 ** 7),"
            " burn_in=10 ** 6)\n")
        assert grown <= 120.0, f"peak RSS grew by {grown} MiB"

    def test_errors(self):
        w = IndexWindow.residue(2, 0, 100)
        with pytest.raises(ConfigurationError):
            density_report(w, schedule=())
        with pytest.raises(ConfigurationError):
            density_report(IndexWindow((0,), 0))
        with pytest.raises(ConfigurationError):
            density_report(w, burn_in=100)


class TestSyndeticCertificate:
    def test_progression(self):
        cert = syndetic_certificate(IndexWindow.residue(3, 0, 10_000))
        assert cert.ok and cert.max_gap == 3

    def test_dyadic_fails(self):
        w = IndexWindow.from_iterable((1 << j for j in range(14)), 10_000)
        cert = syndetic_certificate(w)
        assert not cert.ok
        assert cert.largest_interior_gap == 4096

    def test_fourth_root_return_set(self):
        # |i^n - 1| < 1 exactly on the multiples of 4
        w = IndexWindow.from_iterable(
            (n for n in range(10_001) if abs(1j ** n - 1) < 1.0), 10_000)
        cert = syndetic_certificate(w)
        assert cert.ok and cert.max_gap == 4

    def test_tail_is_censored(self):
        # dense prefix, nothing after: the huge tail gap is reported, not counted
        w = IndexWindow.from_iterable(range(0, 2000, 2), 100_000)
        cert = syndetic_certificate(w)
        assert cert.ok and cert.max_gap == 2
        assert cert.tail_gap == 100_000 - 1998

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            syndetic_certificate(IndexWindow((), 10))


class TestFiniteSums:
    def test_binary_generators(self):
        w = ip_generate((1, 2, 4, 8), 4, 20)
        assert w.elements == tuple(range(1, 16))

    def test_even_generators(self):
        w = ip_generate((2, 4, 8), 3, 20)
        assert w.elements == (2, 4, 6, 8, 10, 12, 14)

    def test_two_generators(self):
        w = ip_generate((5, 7), 2, 20)
        assert w.elements == (5, 7, 12)

    def test_depth_truncation(self):
        w = ip_generate((1, 2, 4), 1, 20)
        assert w.elements == (1, 2, 4)

    def test_closed_under_disjoint_sums(self, rng):
        for _ in range(20):
            gens = tuple(sorted(rng.choice(range(1, 40), size=5, replace=False)))
            depth = int(rng.integers(2, 6))
            h = 200
            w = ip_generate(gens, depth, h)
            members = set(w.elements)
            # any two disjoint index subsets within the depth combine
            import itertools
            idx = range(len(gens))
            subsets = [s for r in range(1, depth + 1)
                       for s in itertools.combinations(idx, r)]
            for a in subsets[:12]:
                for b in subsets[:12]:
                    if set(a) & set(b) or len(a) + len(b) > depth:
                        continue
                    total = sum(gens[i] for i in a) + sum(gens[i] for i in b)
                    if total <= h:
                        assert total in members

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            ip_generate((), 2, 10)
        with pytest.raises(ConfigurationError):
            ip_generate((3, 3), 2, 10)
        with pytest.raises(ConfigurationError):
            ip_generate((1, 2), 0, 10)
        with pytest.raises(ConfigurationError):    # 3 x (10^12 + 4) cells
            ip_generate((3, 10 ** 12), 2, 10 ** 15)


class TestDualFamilyProbe:
    def test_multiples_certificate(self):
        out = ip_star_probe(IndexWindow.residue(4, 0, 10_000))
        assert out.is_arithmetic and out.certificate_k == 4

    def test_odd_numbers_falsified(self):
        out = ip_star_probe(IndexWindow.residue(2, 1, 10_000))
        assert out.is_falsified
        assert all(g % 2 == 0 for g in out.witness)
        # witness sums, re-generated, avoid the set entirely
        w = ip_generate(out.witness, len(out.witness), 10_000)
        odd = IndexWindow.residue(2, 1, 10_000)
        assert not set(w.elements) & odd.member_set

    def test_sparse_random_never_certified(self, rng):
        for _ in range(5):
            mask = rng.random(10_001) < 0.01
            mask[0] = True
            w = IndexWindow.from_iterable(np.nonzero(mask)[0].tolist(), 10_000)
            out = ip_star_probe(w)
            assert not out.is_arithmetic

    def test_certificate_scan_includes_gcd(self):
        # progression with difference beyond sqrt(H) is still certified
        w = IndexWindow.residue(1024, 0, 10_000)
        out = ip_star_probe(w)
        assert out.is_arithmetic and out.certificate_k == 1024
        assert arithmetic_certificate(w) == 1024


class TestCutShiftPaste:
    def test_identity_instance(self, rng):
        inst = CutShiftPaste((SetPredicate.everything(),), (0,))
        for _ in range(10):
            w = random_structured_window(rng, 800)
            assert cut_shift_paste(w, inst).elements == w.elements

    def test_parity_example(self):
        h = 100
        full = IndexWindow.full(h)
        inst = CutShiftPaste(
            (SetPredicate.residue_class(2, 0), SetPredicate.residue_class(2, 1)),
            (0, 1))
        out = cut_shift_paste(full, inst)
        assert out.elements == tuple(range(0, h + 1, 2))

    def test_pure_shift(self):
        w = IndexWindow.residue(3, 0, 999)
        inst = CutShiftPaste((SetPredicate.everything(),), (5,))
        out = cut_shift_paste(w, inst)
        assert out.elements == tuple(range(5, 1000 + 5, 3))
        assert out.horizon == 999 + 5

    def test_syndetic_gap_bound(self, rng):
        for _ in range(40):
            h = 5000
            g = int(rng.integers(2, 30))
            gaps = rng.integers(1, g + 1, size=2 * h // g + 4)
            elems = np.cumsum(gaps)
            a = IndexWindow.from_iterable([0, *elems[elems <= h]], h)
            q = int(rng.integers(1, 4))
            pieces = tuple(SetPredicate.residue_class(q, r) for r in range(q))
            shifts = tuple(int(s) for s in rng.integers(0, 40, size=q))
            out = cut_shift_paste(a, CutShiftPaste(pieces, shifts))
            s = max(shifts)
            interior = [e for e in out.elements
                        if a.elements[0] + s <= e <= a.elements[-1]]
            worst = max((v - u for u, v in zip(interior, interior[1:])), default=0)
            assert worst <= g + s

    def test_coverage_error(self):
        w = IndexWindow.residue(2, 0, 100)
        inst = CutShiftPaste((SetPredicate.residue_class(2, 0),), (1,))
        with pytest.raises(ConfigurationError):
            cut_shift_paste(w, inst)


class TestDilateContract:
    def test_examples(self):
        w = IndexWindow.residue(3, 0, 100)
        assert dilate(w, 2).elements == tuple(range(0, 201, 6))
        assert contract(dilate(w, 2), 2).elements == w.elements

    def test_roundtrip_random(self, rng):
        for _ in range(20):
            w = random_structured_window(rng, 700)
            p = int(rng.integers(1, 7))
            assert contract(dilate(w, p), p) == w

    def test_gap_scaling(self, rng):
        for _ in range(10):
            w = random_structured_window(rng, 900)
            if w.count < 3:
                continue
            p = int(rng.integers(2, 6))
            pre = syndetic_certificate(w)
            post = syndetic_certificate(dilate(w, p))
            if pre.largest_interior_gap:
                assert post.largest_interior_gap == p * pre.largest_interior_gap
