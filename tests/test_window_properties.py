"""Property tests of the window representation.

Every constructor of :class:`IndexWindow` gives the same window for the same
subset of [0, H], including the empty set, {0} and the full range.  The
views (``elements``, ``array``, ``mask``, ``member_set``, ``count``, ``in``)
agree with that subset, and translation, dilation, contraction and
cut-shift-paste equal their set definitions written in plain Python.  The
finite-sums routines equal brute-force enumeration of subset sums, and the
density report and the arithmetic certificate equal their definitions
evaluated by counting, float for float.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurlab import (CutShiftPaste, IndexWindow, SetPredicate, contract,
                      cut_shift_paste, density_report, dilate, ip_generate,
                      ip_star_probe)
from recurlab.families import arithmetic_certificate, witness_floor

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


@st.composite
def subsets(draw):
    """A subset of [0, h] and its horizon h."""
    h = draw(st.integers(0, 120))
    kind = draw(st.sampled_from(("random", "empty", "zero", "full")))
    if kind == "random":
        return frozenset(draw(st.sets(st.integers(0, h)))), h
    return {"empty": frozenset(), "zero": frozenset({0}),
            "full": frozenset(range(h + 1))}[kind], h


def constructions(members, h):
    elems = tuple(sorted(members))
    return [
        IndexWindow(elems, h),
        IndexWindow.from_iterable([*members, *members, -1, h + 1], h),
        IndexWindow.from_mask([n in members for n in range(h + 1)]),
        IndexWindow.from_text(IndexWindow(elems, h).to_text()),
    ]


@PROPERTY
@given(subsets())
def test_constructors_give_one_window(sub):
    members, h = sub
    first, *rest = constructions(members, h)
    for w in rest:
        assert w == first and hash(w) == hash(first)
        assert w.horizon == h


@PROPERTY
@given(subsets())
def test_views_agree(sub):
    members, h = sub
    elems = tuple(sorted(members))
    for w in constructions(members, h):
        assert w.elements == elems
        assert all(type(e) is int for e in w.elements)
        assert w.array.dtype == np.int64 and not w.array.flags.writeable
        assert w.array.tolist() == list(elems)
        assert w.mask.dtype == bool and not w.mask.flags.writeable
        assert w.mask.tolist() == [n in members for n in range(h + 1)]
        assert w.member_set == members
        assert w.count == len(members)
        assert all((n in w) == (n in members) for n in range(-2, h + 3))


@PROPERTY
@given(subsets(), st.integers(0, 30), st.integers(1, 7))
def test_translate_dilate_contract_match_set_definitions(sub, m, p):
    members, h = sub
    w = IndexWindow(tuple(sorted(members)), h)
    assert w.translate(m) == IndexWindow(tuple(sorted(e + m for e in members)), h + m)
    assert dilate(w, p) == IndexWindow(tuple(sorted(p * e for e in members)), p * h)
    assert contract(w, p) == IndexWindow(
        tuple(sorted(e // p for e in members if e % p == 0)), h // p)


@st.composite
def covers(draw, h):
    """Pieces covering [0, h] as (residue (q, r) or span (lo, hi)) specs,
    with one shift per piece."""
    style = draw(st.sampled_from(("residues", "intervals", "overlapping")))
    q = draw(st.integers(1, 4))
    if style == "intervals":
        cuts = sorted(draw(st.lists(st.integers(0, h), min_size=q - 1,
                                    max_size=q - 1)))
        bounds = [0, *cuts, h]
        specs = [("span", (bounds[i], bounds[i + 1])) for i in range(q)]
    else:
        specs = [("residue", (q, r)) for r in range(q)]
        if style == "overlapping":
            lo = draw(st.integers(0, h))
            specs.append(("span", (lo, draw(st.integers(lo, h + 10)))))
    shifts = draw(st.lists(st.integers(0, 20), min_size=len(specs),
                           max_size=len(specs)))
    return specs, shifts


def in_piece(n, spec):
    kind, (a, b) = spec
    return n % a == b if kind == "residue" else a <= n <= b


@PROPERTY
@given(st.data(), subsets())
def test_cut_shift_paste_matches_set_definition(data, sub):
    members, h = sub
    specs, shifts = data.draw(covers(h))
    pieces = tuple(SetPredicate.residue_class(*args) if kind == "residue"
                   else SetPredicate.intervals(args) for kind, args in specs)
    out = cut_shift_paste(IndexWindow(tuple(sorted(members)), h),
                          CutShiftPaste(pieces, tuple(shifts)))
    want = {e + s for spec, s in zip(specs, shifts) for e in members
            if in_piece(e, spec)}
    assert out == IndexWindow(tuple(sorted(want)), h + max(shifts))


@pytest.mark.parametrize("elements", [
    (0.5, 2), (0.0, 2.0), np.array([1.0, 3.0]), (Fraction(1, 2),),
    ((1, 2), (3, 4)),
])
def test_rejects_non_integral_elements(elements):
    with pytest.raises(ValueError):
        IndexWindow(elements, 10)


def test_from_iterable_rejects_non_integral_elements():
    with pytest.raises(ValueError):
        IndexWindow.from_iterable([0, 2.5], 10)


def subset_sums(gens, max_terms):
    return {sum(c) for r in range(max_terms + 1) for c in combinations(gens, r)}


def reference_probe(window, budget):
    """The greedy dual-family probe in plain Python: each generator is the
    smallest candidate past the last whose translates by every subset sum,
    the empty sum included, avoid A."""
    k = arithmetic_certificate(window)
    if k is not None:
        return "arithmetic", k, (), 0
    h, members = window.horizon, window.member_set
    floor = witness_floor(h)
    best, used = (), 0
    for g0 in [n for n in range(1, h + 1) if n not in members][:budget]:
        used += 1
        gens = [g0]
        while len(gens) < floor:
            sums = subset_sums(gens, len(gens))
            g = next((g for g in range(gens[-1] + 1, h - sum(gens) + 1)
                      if all(g + s not in members for s in sums)), None)
            if g is None:
                break
            gens.append(g)
        if len(gens) > len(best):
            best = tuple(gens)
        if len(gens) >= floor:
            return "falsified", None, best, used
    return "inconclusive", None, best, used


@PROPERTY
@given(st.integers(0, 200), st.sampled_from((0.02, 0.1, 0.3, 0.6, 0.9)),
       st.integers(0, 2 ** 32), st.integers(1, 4))
def test_ip_star_probe_matches_plain_greedy(h, density, seed, budget):
    rng = random.Random(seed)
    window = IndexWindow([n for n in range(h + 1) if rng.random() < density], h)
    out = ip_star_probe(window, budget)
    got = (out.verdict, out.certificate_k, out.witness, out.budget_used)
    assert got == reference_probe(window, budget)


@PROPERTY
@given(st.sets(st.integers(1, 60), min_size=1, max_size=8), st.integers(1, 9),
       st.integers(0, 300))
def test_ip_generate_matches_subset_enumeration(gens, depth, h):
    gens = sorted(gens)
    want = sorted(s for s in subset_sums(gens, depth) if 0 < s <= h)
    assert ip_generate(gens, depth, h) == IndexWindow(want, h)


@st.composite
def density_cases(draw):
    """A subset of [0, h] with h >= 1, a burn-in (sometimes on a member) and
    a schedule of one to four window lengths, repeats allowed."""
    members, h = draw(subsets())
    h = max(h, 1)
    on_member = sorted(n for n in members if n < h)
    if on_member and draw(st.booleans()):
        burn_in = draw(st.sampled_from(on_member))
    else:
        burn_in = draw(st.integers(0, h - 1))
    lengths = st.one_of(st.integers(1, h), st.sampled_from((1, h)))
    schedule = tuple(draw(st.lists(lengths, min_size=1, max_size=4)))
    return members, h, burn_in, schedule


def running_density(members, n):
    return sum(1 for m in members if m <= n) / (n + 1)


def fullest_window(members, h, length):
    """card(A & [j, j+length]) / (length+1), maximised over j in [0, h-length]."""
    best = max(sum(1 for m in members if j <= m <= j + length)
               for j in range(h - length + 1))
    return best / (length + 1)


def curve_points(burn_in, h, points=64):
    span = h - burn_in
    return sorted({burn_in, h} | {burn_in + int(span * (i / points) ** 2)
                                  for i in range(1, points)})


@PROPERTY
@given(density_cases())
@example((frozenset(), 5, 0, (1, 5)))
@example((frozenset({0}), 7, 3, (1,)))
@example((frozenset({9}), 9, 0, (9, 9)))
@example((frozenset(range(11)), 10, 4, (1, 3, 3, 10)))
@example((frozenset({2, 5, 6, 11}), 12, 5, (12, 1, 4, 4)))
def test_density_report_equals_counting_definitions(case):
    members, h, burn_in, schedule = case
    rep = density_report(IndexWindow(sorted(members), h), burn_in, schedule)
    running = [running_density(members, n) for n in range(burn_in, h + 1)]
    assert rep.lower_est == min(running)
    assert rep.upper_est == max(running)
    banach = tuple((L, fullest_window(members, h, L)) for L in sorted(schedule))
    assert rep.banach_curve == banach
    assert rep.banach_raw == fullest_window(members, h, max(schedule))
    assert rep.banach_upper_est == max(rep.banach_raw, max(running))
    assert rep.running_density_curve == tuple(
        (n, running_density(members, n)) for n in curve_points(burn_in, h))


def smallest_arithmetic_k(members, h):
    """The smallest k in 1..isqrt(h), or else the gcd of the members, whose
    multiples in [0, h] all lie in A."""
    if 0 not in members:
        return None
    root = math.isqrt(h)
    g = math.gcd(*members)
    ks = [*range(1, root + 1), *([g] if g > root else [])]
    return next((k for k in ks
                 if all(n in members for n in range(0, h + 1, k))), None)


@PROPERTY
@given(subsets(), st.integers(1, 12))
def test_arithmetic_certificate_equals_brute_force(sub, k):
    members, h = sub
    for candidate in (members, members | set(range(0, h + 1, k))):
        window = IndexWindow(sorted(candidate), h)
        assert arithmetic_certificate(window) == smallest_arithmetic_k(candidate, h)
