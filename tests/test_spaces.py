"""The space protocol: each space owns its seminorms, index set, first
coordinate and Hilbert test, and nothing else dispatches on a space's type.

* ``SparseVector`` refuses an index outside its space's coordinate range;
* ``diff_seminorm(i, x, y)`` equals ``seminorm(i, .)`` of the exactly formed
  difference, on every coordinate space and on the row space;
* README's space table says what ``check_index`` and ``first_coordinate``
  say;
* no ``isinstance`` in the package names a space class.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (Diagonal, DyadicRowSpace, EntireCoefficients, FiniteDim,
                      FiniteRowVector, Rule, SequenceLp, SequenceSup, SparseVector,
                      diff_seminorm, orbits, return_set, seminorm)
from recurlab.operators import Space, SpaceMismatch

ROOT = Path(__file__).resolve().parents[1]
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def space_classes():
    out, todo = set(), [Space]
    while todo:
        cls = todo.pop()
        out.add(cls)
        todo.extend(cls.__subclasses__())
    return out


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

def test_sparse_vectors_keep_to_their_space_coordinates():
    # index 0 of l2: the block cycle shifted it by a negative count, its
    # period read 1 and its window held every n
    with pytest.raises(ValueError, match="start at index 1"):
        SparseVector(SequenceLp(2), ((0, 1),))
    # degree -1 of a power series, where the radius-2 seminorm read 1/2
    with pytest.raises(ValueError, match="start at index 0"):
        SparseVector(EntireCoefficients(4), ((-1, Fraction(1)),))
    # the row space has cells, not coordinates
    with pytest.raises(SpaceMismatch, match="cells"):
        SparseVector(DyadicRowSpace(), ())
    with pytest.raises(ValueError, match="end at index 2"):
        SparseVector.unit(FiniteDim(2), 3)
    with pytest.raises(ValueError, match="end at index 4"):
        SparseVector.unit(EntireCoefficients(4), 5)
    with pytest.raises(ValueError, match="sorted"):
        SparseVector(SequenceSup(), ((3, Fraction(1)), (2, Fraction(1))))
    assert SparseVector.unit(EntireCoefficients(4), 0).support == (0,)
    assert SparseVector.unit(FiniteDim(2), 2).support == (2,)


def test_zero_vectors():
    assert SparseVector(SequenceLp(2), ()).is_zero
    assert FiniteRowVector(()).is_zero
    assert not SparseVector.unit(SequenceLp(2), 1).is_zero
    assert not FiniteRowVector(((0, 0, Fraction(1)),)).is_zero


def test_profiles_measure_through_the_module_seminorms():
    # the benchmark's seminorm counters wrap the module functions, so the
    # profile must call them, not the space's methods directly
    op, x = Diagonal(values=Rule("1/2")), SparseVector.unit(SequenceSup(), 2)
    with mock.patch.object(orbits, "diff_seminorm", wraps=orbits.diff_seminorm) as diff:
        return_set(op, x, Fraction(1, 2), (0,), 10)
    assert diff.call_count == 11


# ---------------------------------------------------------------------------
# the difference oracle
# ---------------------------------------------------------------------------

small_rational = st.fractions(-4, 4, max_denominator=6)


@st.composite
def coordinate_pairs(draw):
    """(space, index, x, y): exact vectors on one coordinate space."""
    space = draw(st.sampled_from([SequenceLp(1), SequenceLp(2), SequenceLp(3),
                                  SequenceSup(), FiniteDim(6), EntireCoefficients(6)]))
    first, last = space.first_coordinate, space.last_coordinate or 9
    index = draw(st.integers(0, len(getattr(space, "radii", (0,))) - 1))

    def vector():
        pairs = draw(st.dictionaries(st.integers(first, last), small_rational, max_size=5))
        return SparseVector.from_pairs(space, pairs.items())
    return space, index, vector(), vector()


@PROPERTY
@given(coordinate_pairs())
def test_diff_seminorm_is_the_seminorm_of_the_exact_difference(case):
    space, index, x, y = case
    difference = x.add(y.scale(Fraction(-1)))
    assert difference.exact
    assert diff_seminorm(space, index, x, y) == seminorm(space, index, difference)


cells = st.integers(0, 5).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, (1 << k) - 1)))
row_vectors = st.dictionaries(cells, small_rational.filter(bool), max_size=8)


@PROPERTY
@given(row_vectors, row_vectors, st.integers(1, 9))
def test_row_diff_seminorm_is_the_seminorm_of_the_exact_difference(xd, yd, index):
    space = DyadicRowSpace()
    x, y = (FiniteRowVector(tuple((k, j, v) for (k, j), v in d.items())) for d in (xd, yd))
    diff = {c: xd.get(c, 0) - yd.get(c, 0) for c in xd.keys() | yd.keys()}
    difference = FiniteRowVector(tuple((k, j, v) for (k, j), v in diff.items() if v))
    assert diff_seminorm(space, index, x, y) == seminorm(space, index, difference)


# ---------------------------------------------------------------------------
# README's space table
# ---------------------------------------------------------------------------

# one instance per class name the table may use, with the default radii
SAMPLES = {
    "SequenceLp": [SequenceLp(1), SequenceLp(2), SequenceLp(3)],
    "SequenceSup": [SequenceSup()],
    "FiniteDim": [FiniteDim(1), FiniteDim(4)],
    "EntireCoefficients": [EntireCoefficients(6)],
    "DyadicRowSpace": [DyadicRowSpace()],
}


def readme_space_rows():
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| space |") and "seminorm indices" in line)
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def allowed_indices(text: str, space):
    """The predicate the indices column states for ``space``."""
    head = re.findall(r"`([^`]*)`", text)[0]
    if m := re.fullmatch(r"(\d+) \.\. len\(radii\) - 1", head):
        listed = [int(t) for t in re.findall(r"`(\d+)`", text.split("i.e.")[1])]
        assert listed == list(range(len(EntireCoefficients(0).radii)))
        return lambda i: int(m[1]) <= i < len(space.radii)
    if m := re.fullmatch(r">= (\d+)", head):
        return lambda i: i >= int(m[1])
    assert re.fullmatch(r"\d+", head) and "only" in text, text
    return lambda i: i == int(head)


def test_readme_space_table_matches_the_space_objects():
    rows = readme_space_rows()
    named = set()
    for space_text, cls_text, indices_text, first_text in rows:
        name = re.match(r"`(\w+)\(", cls_text)[1]
        named.add(name)
        for space in SAMPLES[name]:
            assert type(space).__name__ == name
            ok = allowed_indices(indices_text, space)
            for i in range(-3, 12):
                if ok(i):
                    assert space.check_index(i) == i
                else:
                    with pytest.raises(ValueError):
                        space.check_index(i)
            first = re.search(r"`(-?\d+)`", first_text)
            if first is None:
                assert "cells" in first_text
                assert space.first_coordinate is None
            else:
                assert space.first_coordinate == int(first[1])
    assert named == {cls.__name__ for cls in space_classes() if cls is not Space}


# ---------------------------------------------------------------------------
# no type ladders over spaces
# ---------------------------------------------------------------------------

def named_classes(node):
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in named_classes(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def test_no_isinstance_names_a_space_class():
    spaces = {cls.__name__ for cls in space_classes()}
    sites = []
    for path in sorted((ROOT / "src" / "recurlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                hit = spaces.intersection(named_classes(node.args[1]))
                if hit:
                    sites.append(f"{path.name}:{node.lineno} {sorted(hit)}")
    assert not sites, "ask the space (check_index, first_coordinate, is_hilbert, " \
        "seminorm) instead of testing its type: " + ", ".join(sites)
