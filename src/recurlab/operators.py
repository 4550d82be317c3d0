"""The operator zoo and the seminorm structures of its spaces.

Every operator here has an exact, finitely representable action:

* ``BlockCycle`` -- the basis-periodic weighted cycle on dyadic index blocks
  ``[2^j, 2^(j+1))``: inside a block each step multiplies by 2 and advances,
  the block end wraps to the block start with weight ``2^-(2^j - 1)``, so the
  weight product around every block is exactly 1 and ``T^(2^j) e_k = e_k``
  holds in exact rational arithmetic.  Index 1 is a fixed point.
* ``WeightedBackwardShift`` -- ``(x_n) -> (w_(n+1) x_(n+1))`` on sparse
  vectors; support moves strictly left (unilateral) and weights accumulate as
  exact products where the rule is rational.
* ``Diagonal`` -- coordinatewise multiplication by ``lambda_n``; rotation
  rules keep the angle separate from the magnitude so unimodular powers never
  drift.
* ``RowRotation`` -- cyclic rotation of each dyadic row of a doubly indexed
  space whose seminorms watch a short strip just right of each row midpoint;
  the distinguished one-hot orbit is evaluated in closed form per block, no
  row is ever materialized.
* ``AffineComposition`` -- ``f -> f(az + b)`` on truncated power series,
  with the symbol iterated exactly: ``phi^n = a^n z + b (a^n - 1)/(a - 1)``.
* ``Matrix`` -- finite-dimensional complex matrices (numpy), with an
  eigenstructure report used by the recurrence criterion for matrices.

``Scaled`` (a unimodular multiple of a base operator) and ``Power`` (p-fold
application per step) wrap any of the above.  Each class implements the
``Operator`` protocol: its own action, powers, period bound, exact
fixed-point test for powers and description.  Each space implements the
``Space`` protocol: its seminorms, their indices, coordinates and Hilbert test.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from .rules import Rule
from .values import (ExactSqrt, Phase, Value, abs2, diff_abs2, exact_eq,
                     is_exact, log2_abs, to_complex, vabs, vmul, vpow)

__all__ = [
    "Space", "SequenceLp", "SequenceSup", "FiniteDim", "DyadicRowSpace", "EntireCoefficients",
    "SparseVector", "RowState", "FiniteRowVector",
    "Operator", "BlockCycle", "WeightedBackwardShift", "Diagonal", "RowRotation",
    "AffineComposition", "Matrix", "Scaled", "Power",
    "apply", "power_apply", "seminorm", "diff_seminorm", "check_seminorm_index",
    "exact_state_period", "state_exact_eq",
    "eigen_structure", "EigenStructure", "continuity_bound_check",
    "continuity_bound_constant", "PrecisionError", "SpaceMismatch",
]


class PrecisionError(ArithmeticError):
    """Floating mode hit magnitudes it cannot represent; rerun exactly."""


class SpaceMismatch(TypeError):
    pass


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

class Space:
    """The space protocol: ``check_index(i)`` (i, or ValueError when there
    is no seminorm of index i), ``seminorm(i, x)``, ``diff_seminorm(i, x, y)``,
    the range ``first_coordinate .. last_coordinate`` (None: unbounded) of a
    ``SparseVector``'s indices, and ``is_hilbert`` (seminorm 0 is the l2 norm
    of the coordinates).  A space of cells has first coordinate None and no
    ``SparseVector``, so a Hilbert space's vectors are sparse.  By default a
    space is normed (seminorm 0) with coordinates from 1, which ``_fold(index,
    support, mod2, mod, *columns)`` measures from the modulus ``mod(*row k)``
    and squared modulus ``mod2(*row k)`` of coordinate ``support[k]``."""

    first_coordinate = 1
    last_coordinate = None
    is_hilbert = False

    def check_index(self, index: int) -> int:
        return index if index == 0 else self._refuse(index, "0")

    def _refuse(self, index: int, allowed: str):
        raise ValueError(f"seminorm index must be {allowed} on "
                         f"{type(self).__name__}, got {index}")

    def seminorm(self, index, x):
        self.check_index(index)
        if x.space.first_coordinate is None:
            raise SpaceMismatch("expected a sparse vector")
        return self._fold(index, x.support, abs2, vabs, [v for _, v in x.entries])

    def diff_seminorm(self, index, x, y):
        self.check_index(index)
        if x.space.first_coordinate is None or y.space.first_coordinate is None:
            raise SpaceMismatch("expected sparse vectors")
        xd, yd = x.as_dict, y.as_dict
        support = sorted(set(xd) | set(yd))
        zero = Fraction(0)
        return self._fold(index, support, diff_abs2, _abs_diff,
                          [xd.get(i, zero) for i in support],
                          [yd.get(i, zero) for i in support])


@dataclass(frozen=True)
class SequenceLp(Space):
    """l^p over N (indices from 1), p in [1, inf)."""
    p: int = 2

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")

    is_hilbert = property(lambda self: self.p == 2)

    def _fold(self, index, support, mod2, mod, *columns):
        if self.p == 2:
            sq = _exact_or_float(operator.add, map(mod2, *columns))
            return ExactSqrt(sq) if isinstance(sq, Fraction) else math.sqrt(sq)
        if self.p == 1:
            return _exact_or_float(operator.add, map(mod, *columns))
        return sum(float(a) ** self.p for a in map(mod, *columns)) ** (1.0 / self.p)


@dataclass(frozen=True)
class SequenceSup(Space):
    """c0 over N with the sup norm."""

    def _fold(self, index, support, mod2, mod, *columns):
        return _exact_or_float(max, map(mod, *columns))


@dataclass(frozen=True)
class FiniteDim(Space):
    """C^n with the euclidean norm, coordinates indexed 1..n."""
    n: int

    is_hilbert = True
    last_coordinate = property(operator.attrgetter("n"))
    p = 2                               # C^n takes the l^2 fold of SequenceLp
    _fold = SequenceLp._fold


@dataclass(frozen=True)
class EntireCoefficients(Space):
    """Truncated power series f = sum c_j z^j with coefficient seminorms.

    Seminorm of index i is q_R(f) = sum |c_j| R^j at R = radii[i], an
    equivalent system for compact convergence evaluated exactly on
    polynomials.  Coordinates are degrees, from the constant term 0.
    """
    max_degree: int
    radii: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(4))

    first_coordinate = 0
    last_coordinate = property(operator.attrgetter("max_degree"))

    def __post_init__(self):
        if self.max_degree < 0 or any(r <= 0 for r in self.radii):
            raise ValueError("need max_degree >= 0 and positive radii")

    def check_index(self, index):
        return index if 0 <= index < len(self.radii) else \
            self._refuse(index, f"in 0..{len(self.radii) - 1}")

    def _fold(self, index, support, mod2, mod, *columns):
        radius = self.radii[index]
        return _exact_or_float(operator.add, (_scale_pow(a, radius, d) for a, d
                                              in zip(map(mod, *columns), support)))


@dataclass(frozen=True)
class DyadicRowSpace(Space):
    """Doubly indexed sequences, row k holding 2^k entries.

    Seminorm of index n >= 1:

        p_n(x) = sum_k 2^-k * max_j |x_(k,j)|
               + sum_(k>=2) k * max_(1<=m<=min(n, 2^(k-1)-1)) |x_(k, 2^(k-1)+m)|

    Its vectors are cells: ``FiniteRowVector`` and the one-hot ``RowState``,
    whose first sum is exactly 2 and whose second touches finitely many rows.
    """

    first_coordinate = None

    def check_index(self, index):
        return index if index >= 1 else self._refuse(index, ">= 1")

    def seminorm(self, index, x):
        self.check_index(index)
        if x.space.first_coordinate is not None:
            raise SpaceMismatch("row seminorms apply to row-space vectors")
        if isinstance(x, RowState):
            return Fraction(2) + sum(_pattern_watch_rows(x.offset, index))
        rows: dict[int, list] = {}
        for k, j, v in x.entries:
            rows.setdefault(k, []).append((j, vabs(v)))
        parts = [_scale_pow(_exact_or_float(max, (a for _, a in cells)), Fraction(1, 1 << k), 1)
                 for k, cells in rows.items()]
        for k, cells in rows.items():
            watched = [a for j, a in cells if k >= 2 and _watch_hit(j, k, index)]
            if watched:
                parts.append(_scale_pow(_exact_or_float(max, watched), Fraction(k), 1))
        return _exact_or_float(operator.add, parts)

    def diff_seminorm(self, index, x, y):
        self.check_index(index)
        if x.space.first_coordinate is not None or y.space.first_coordinate is not None:
            raise SpaceMismatch("row seminorms apply to row-space vectors")
        if isinstance(x, RowState) and isinstance(y, RowState):
            if x.offset == y.offset:
                return Fraction(0)
            delta = abs(x.offset - y.offset)
            first = Fraction(1, delta & -delta)     # 2^-v2(delta): rows k > v2 disagree
            rows = {*_pattern_watch_rows(x.offset, index), *_pattern_watch_rows(y.offset, index)}
            return first + sum(k for k in rows if (delta % (1 << k)) != 0)
        if isinstance(y, RowState):
            x, y = y, x
        if isinstance(x, RowState):
            rows = max(8, index.bit_length() + 2, (x.offset + index).bit_length() + 2,
                       *(k + 1 for k, _, _ in y.entries))
            # materialization is exact on the touched rows; the omitted rows of
            # the pattern contribute exactly their first-sum mass 2^-rows
            return self.diff_seminorm(index, x.materialize(rows), y) + Fraction(1, 1 << rows)
        xd, yd = ({(k, j): v for k, j, v in z.entries} for z in (x, y))
        zero = Fraction(0)
        pairs = ((c, xd.get(c, zero), yd.get(c, zero)) for c in xd.keys() | yd.keys())
        return self.seminorm(index, FiniteRowVector(tuple(sorted(
            (*c, _signed_diff(a, b)) for c, a, b in pairs if not _diff_is_zero(a, b)))))


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseVector:
    """Finitely supported vector: sorted (index, value) pairs, no zeros."""

    space: Space
    entries: tuple[tuple[int, Value], ...]

    def __post_init__(self):
        first, last = self.space.first_coordinate, self.space.last_coordinate
        if first is None:
            raise SpaceMismatch(f"{type(self.space).__name__} has cells, not coordinates")
        prev = first - 1
        for i, v in self.entries:
            if i <= prev:
                raise ValueError("entries must be sorted by distinct index" if i >= first
                                 else f"coordinates of this space start at index {first}")
            prev = i
        if last is not None and prev > last:
            raise ValueError(f"coordinates of this space end at index {last}")

    @staticmethod
    def unit(space: Space, index: int) -> "SparseVector":
        return SparseVector(space, ((index, Fraction(1)),))

    @staticmethod
    def from_pairs(space: Space, pairs) -> "SparseVector":
        kept = [(int(i), v) for i, v in sorted(pairs) if not _is_zero(v)]
        return SparseVector(space, tuple(kept))

    @cached_property
    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def exact(self) -> bool:
        return all(is_exact(v) for _, v in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, factor: Value) -> "SparseVector":
        return SparseVector.from_pairs(
            self.space, ((i, vmul(v, factor)) for i, v in self.entries))

    def add(self, other: "SparseVector") -> "SparseVector":
        if other.space != self.space:
            raise SpaceMismatch("adding vectors from different spaces")
        merged = dict(self.entries)
        for i, v in other.entries:
            merged[i] = _merge(merged[i], v) if i in merged else v
        return SparseVector.from_pairs(self.space, merged.items())

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.complex128)
        for i, v in self.entries:
            out[i - 1] = to_complex(v)
        return out


def _is_zero(v: Value) -> bool:
    return (v.mag if isinstance(v, Phase) else v) == 0


@dataclass(frozen=True)
class RowState:
    """The distinguished one-hot orbit state of the dyadic row space.

    ``offset = m`` encodes the vector whose row k holds a single 1 at
    position ``(-m) mod 2^k``; offset 0 is the base point (1 at the start of
    every row).  The rotation acts by ``offset -> offset + 1``, and
    ``DyadicRowSpace`` measures the state in closed form.
    """

    offset: int = 0

    space = DyadicRowSpace()
    exact = True
    is_zero = False             # every row holds a 1

    def hot_position(self, k: int) -> int:
        return (-self.offset) % (1 << k)

    def materialize(self, max_row: int) -> "FiniteRowVector":
        """Rows k <= max_row of the pattern; the omitted first-sum mass is
        exactly 2^-max_row (certified tail)."""
        return FiniteRowVector(tuple((k, self.hot_position(k), Fraction(1))
                                     for k in range(max_row + 1)))


@dataclass(frozen=True)
class FiniteRowVector:
    """Finitely supported vector of the dyadic row space: (row, col, value)."""

    entries: tuple[tuple[int, int, Value], ...]

    space = DyadicRowSpace()

    def __post_init__(self):
        seen = set()
        for k, j, _ in self.entries:
            if k < 0 or not 0 <= j < (1 << k):
                raise ValueError(f"cell ({k},{j}) outside row geometry")
            if (k, j) in seen:
                raise ValueError("duplicate cell")
            seen.add((k, j))

    @property
    def exact(self) -> bool:
        return all(is_exact(v) for _, _, v in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def rotate(self, steps: int = 1) -> "FiniteRowVector":
        moved = tuple(sorted((k, (j - steps) % (1 << k), v) for k, j, v in self.entries))
        return FiniteRowVector(moved)


Vector = Union[SparseVector, RowState, FiniteRowVector]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class Operator:
    """The operator protocol.

    Every operator has a ``space`` and five methods:

    * ``apply(x)`` -- one exact application;
    * ``power(x, n)`` -- ``T^n x`` for n >= 1, in closed form where one exists;
    * ``period_bound(x)`` -- an n with ``T^n x = x`` for exact x when one is
      symbolically available, else None (the default here);
    * ``fixes(x, n)`` -- whether ``T^n x = x`` holds exactly; the default
      compares ``power_apply(op, x, n)`` with x;
    * ``describe()`` -- the lines ``recurlab describe`` prints for it.

    The module-level ``apply``, ``power_apply`` and ``exact_state_period``
    are the entry points that call them.  A closed-form distance profile is
    optional: one entry, keyed by the operator's type, in
    ``orbits._FAST_PATHS``; a spectral one takes its eigenvalue powers from
    ``orbits._spectral_powers``.
    """

    def period_bound(self, x: Vector) -> Optional[int]:
        return None

    def fixes(self, x: Vector, n: int) -> bool:
        return state_exact_eq(power_apply(self, x, n), x)


def _sparse(op: Operator, x: Vector) -> SparseVector:
    if not isinstance(x, SparseVector):
        raise SpaceMismatch(f"{type(op).__name__} acts on sparse vectors")
    return x


_DOUBLE = Fraction(2)     # the in-block weight, built once: step is the hot loop


@lru_cache(maxsize=64)
def _wrap_weight(block: int) -> Fraction:
    """``2^-(block - 1)``, the weight from the end of a block to its start."""
    return Fraction(1, 1 << (block - 1))


def _dyadic_key(v: Value, offset: int) -> tuple[Value, int]:
    """``v / 2^offset`` as (odd part, exponent of 2), built without ``2^offset``.

    Two exact nonzero values divided by powers of 2 are equal exactly when
    their keys are: the odd part has an odd numerator and denominator (the
    magnitude's, for a ``Phase``)."""
    mag = v.mag if isinstance(v, Phase) else v
    num, den = mag.numerator, mag.denominator
    up, down = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
    odd = Fraction(num >> up, den >> down)
    return (Phase(odd, v.turns) if isinstance(v, Phase) else odd), up - down - offset


@dataclass(frozen=True)
class BlockCycle(Operator):
    """Weighted cycle on dyadic blocks; every basis vector is periodic."""

    space: Space = SequenceLp(2)

    def step(self, index: int) -> tuple[int, Fraction]:
        """Image index and weight of one application on e_index."""
        if index == 1:
            return 1, Fraction(1)
        block = 1 << (index.bit_length() - 1)
        if index < 2 * block - 1:
            return index + 1, _DOUBLE
        return block, _wrap_weight(block)

    def jump(self, index: int, n: int) -> tuple[int, Fraction]:
        """Image index and exact weight of ``T^n`` on ``e_index``."""
        if index == 1:
            return 1, Fraction(1)
        block = 1 << (index.bit_length() - 1)
        r = index - block
        t = n % block
        if r + t < block:
            return index + t, Fraction(1 << t)
        return index + t - block, Fraction(1, 1 << (block - t))

    def apply(self, x):
        pairs = {}
        for i, v in _sparse(self, x).entries:
            t, w = self.step(i)
            pairs[t] = _guard_float_weight(w, v)
        return SparseVector.from_pairs(x.space, pairs.items())

    def power(self, x, n):
        pairs = {}
        for i, v in _sparse(self, x).entries:
            t, w = self.jump(i, n)
            prev = pairs.get(t)
            val = _guard_float_weight(w, v)
            pairs[t] = val if prev is None else _merge(prev, val)
        return SparseVector.from_pairs(x.space, pairs.items())

    def period_bound(self, x):
        if not isinstance(x, SparseVector):
            return None
        return math.lcm(*(1 << (i.bit_length() - 1) for i in x.support if i > 1))

    def fixes(self, x, n):
        """``T^n x = x`` in dyadic coordinates, with no weight ever built.

        With ``u_(B+o) = x_(B+o) / 2^o`` on block B, ``T^n`` rotates u inside
        each block by n, so x is fixed exactly when every block's u is
        invariant under rotation by ``n mod B``."""
        blocks: dict[int, dict] = {}
        for i, v in _sparse(self, x).entries:
            if i > 1:
                block = 1 << (i.bit_length() - 1)
                blocks.setdefault(block, {})[i - block] = _dyadic_key(v, i - block)
        for block, keys in blocks.items():
            s = n % block
            for o, (odd, e) in keys.items():
                moved = keys.get((o + s) % block)
                if moved is None or moved[1] != e or not exact_eq(moved[0], odd):
                    return False
        return True

    def describe(self):
        return [
            "kind: block-cyclic weighted permutation of the canonical basis",
            "space: l^2 over N (indices from 1)",
            "action: inside block [2^j, 2^(j+1)) each step doubles and advances;",
            "        the block end wraps to the block start with weight 2^-(2^j-1)",
            "notes: weight products around each block equal exactly 1, so every",
            "       basis vector is periodic (period 2^j on block j); intra-block",
            "       magnitudes blow up by 2^(2^j-1), which starves long windows of",
            "       returns for vectors with heavy block-start coordinates",
        ]


@dataclass(frozen=True)
class WeightedBackwardShift(Operator):
    """``(x_n) -> (w_(n+1) x_(n+1))``, unilateral: drops what falls off the
    space's first coordinate."""

    weights: Rule
    space: Space = SequenceLp(2)

    def weight(self, index: int):
        w = self.weights(index)
        if w == 0:
            raise ValueError(f"weight w_{index} vanishes")
        return w

    def weight_product(self, index: int, n: int):
        """prod_(nu=index-n+1..index) w_nu, the weight of T^n on e_index."""
        out: Value = Fraction(1)
        for nu in range(index - n + 1, index + 1):
            out = vmul(out, self.weight(nu))
        return out

    def apply(self, x):
        first = x.space.first_coordinate
        pairs = [(i - 1, vmul(v, self.weight(i)))
                 for i, v in _sparse(self, x).entries if i - 1 >= first]
        return SparseVector.from_pairs(x.space, pairs)

    def power(self, x, n):
        first = x.space.first_coordinate
        pairs = [(i - n, vmul(v, self.weight_product(i, n)))
                 for i, v in _sparse(self, x).entries if i - n >= first]
        return SparseVector.from_pairs(x.space, pairs)

    def describe(self):
        prods = []
        prod = 1.0
        for nu in range(1, 7):
            prod *= float(self.weights(nu))
            prods.append(f"{prod:.4g}")
        return [
            "kind: unilateral weighted backward shift",
            f"weights: w_n = {self.weights.source}",
            f"weight products prod(w_1..w_n), n=1..6: {', '.join(prods)}",
            "notes: recurrence strength is governed by the series sum over A of",
            "       1/(w_1...w_n); bounded partial sums admit fixed-point-like",
            "       vectors, divergence starves every density class",
        ]


@dataclass(frozen=True)
class Diagonal(Operator):
    """Coordinatewise multiplication ``x_n -> lambda_n x_n``.

    ``turns`` (a rule giving the rotation angle in turns) produces exactly
    unimodular entries; ``values`` produces plain scalars.  Exactly one of
    the two is set.
    """

    turns: Optional[Rule] = None
    values: Optional[Rule] = None
    space: Space = SequenceLp(2)

    def __post_init__(self):
        if (self.turns is None) == (self.values is None):
            raise ValueError("set exactly one of turns/values")

    @cached_property
    def _entries(self) -> dict:
        """The entries computed so far, by index: each rule is walked once
        per index, however often the operator is applied."""
        return {}

    def entry(self, index: int) -> Value:
        cache = self._entries
        if index not in cache:
            if self.turns is not None:
                cache[index] = Phase(Fraction(1), self.turns(index))
            else:
                v = self.values(index)
                cache[index] = v if isinstance(v, Fraction) else float(v)
        return cache[index]

    def apply(self, x):
        return SparseVector.from_pairs(
            x.space, ((i, vmul(v, self.entry(i))) for i, v in _sparse(self, x).entries))

    def power(self, x, n):
        return SparseVector.from_pairs(
            x.space, ((i, vmul(v, vpow(self.entry(i), n)))
                      for i, v in _sparse(self, x).entries))

    def period_bound(self, x):
        if not isinstance(x, SparseVector):
            return None
        out = 1
        for i in x.support:
            o = _phase_order(self.entry(i))
            if o is None:
                return None
            out = math.lcm(out, o)
        return out

    def describe(self):
        mods = [float(vabs(self.entry(n))) for n in range(1, 5)]
        uni = all(abs(m - 1.0) <= 1e-12 for m in mods)
        entries = (f"rot({self.turns.source}) turns" if self.turns is not None
                   else self.values.source)
        return [
            "kind: diagonal (coordinatewise multiplication) operator",
            f"entries: lambda_n = {entries}",
            f"first moduli: {', '.join(f'{m:.6g}' for m in mods)}",
            f"all-unimodular head: {uni}",
            "notes: unimodular entries make every finitely supported vector",
            "       return along simultaneous rotation times; any off-circle",
            "       entry kills recurrence of the touched coordinate",
        ]


@dataclass(frozen=True)
class RowRotation(Operator):
    """Rotate every dyadic row one step: ``(Tx)_(k,j) = x_(k, (j+1) mod 2^k)``."""

    space: DyadicRowSpace = DyadicRowSpace()

    def apply(self, x):
        return self.power(x, 1)

    def power(self, x, n):
        if isinstance(x, RowState):
            return RowState(x.offset + n)
        if isinstance(x, FiniteRowVector):
            return x.rotate(n)
        raise SpaceMismatch("row rotation acts on row-space vectors")

    def period_bound(self, x):
        if isinstance(x, FiniteRowVector):
            return math.lcm(*(1 << k for k, _, _ in x.entries))
        return None        # the one-hot pattern state never returns exactly

    def describe(self):
        return [
            "kind: row-wise cyclic rotation of a doubly indexed dyadic array",
            "space: rows k hold 2^k entries; seminorm p_n adds a weight-k strip",
            "       just right of each row midpoint",
            "notes: the distinguished one-hot pattern returns within 2^-l of",
            "       itself along the multiples of 2^l, yet its orbit seminorms",
            "       grow without bound along dyadic probe times",
        ]


@dataclass(frozen=True)
class AffineComposition(Operator):
    """``f -> f(az + b)`` on truncated power series.

    The symbol iterates exactly: ``phi^n(z) = a^n z + b_n`` with
    ``b_n = b (a^n - 1)/(a - 1)`` (``n b`` when a = 1).  Affine symbols
    preserve degree, so the truncation never overflows.
    """

    a: Value
    b: Value
    space: EntireCoefficients = EntireCoefficients(8)

    def symbol_power(self, n: int) -> tuple[Value, complex]:
        an = vpow(self.a, n)
        if _is_one(self.a):
            return Fraction(1), n * to_complex(self.b)
        if isinstance(an, Phase) and an.is_one():
            return an, 0j
        bn = to_complex(self.b) * (to_complex(an) - 1) / (to_complex(self.a) - 1)
        return an, bn

    def compose(self, x: SparseVector, a_n: Value, b_n: complex) -> SparseVector:
        if b_n == 0 and _is_one(a_n):
            return x
        deg = x.entries[-1][0] if x.entries else 0   # affine symbols keep degree
        out = np.zeros(deg + 1, dtype=np.complex128)
        ac = to_complex(a_n)
        for j, c in x.entries:
            # c * (a z + b)^j spread over degrees 0..j
            row = np.zeros(j + 1, dtype=np.complex128)
            for m in range(j + 1):
                row[m] = math.comb(j, m) * (ac ** m) * (b_n ** (j - m))
            out[: j + 1] += to_complex(c) * row
        pairs = [(d, out[d]) for d in range(deg + 1) if out[d] != 0]
        return SparseVector(x.space, tuple(pairs))

    def apply(self, x):
        return self.compose(_sparse(self, x), self.a, to_complex(self.b))

    def power(self, x, n):
        a_n, b_n = self.symbol_power(n)
        return self.compose(_sparse(self, x), a_n, b_n)

    def period_bound(self, x):
        # the symbol's order is a period of every f
        if not isinstance(x, SparseVector):
            return None
        if all(i == 0 for i, _ in x.entries):
            return 1
        if _is_one(self.a):
            return 1 if _is_zero(self.b) else None
        return _phase_order(self.a)

    def fixes(self, x, n):
        # every composition fixes a constant exactly, although compose()
        # returns its image in floats
        return all(i == 0 for i, _ in _sparse(self, x).entries) or super().fixes(x, n)

    def describe(self):
        return [
            "kind: affine composition f -> f(az + b) on truncated power series",
            f"symbol: a = {to_complex(self.a):.6g}, b = {to_complex(self.b):.6g}, "
            f"degree cap {self.space.max_degree}",
            "notes: |a| = 1 makes the symbol a rigid motion of the plane and the",
            "       operator recurrent on polynomials; the iterated symbol is",
            "       a^n z + b(a^n-1)/(a-1)",
        ]


@dataclass(frozen=True)
class Matrix(Operator):
    """Finite-dimensional operator, stored row-major as nested tuples."""

    rows: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @staticmethod
    def from_array(arr) -> "Matrix":
        a = np.asarray(arr, dtype=np.complex128)
        return Matrix(tuple(tuple(complex(x) for x in row) for row in a))

    @cached_property
    def array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.complex128)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def space(self) -> FiniteDim:
        return FiniteDim(self.n)

    @cached_property
    def eigen_system(self) -> Optional[tuple]:
        """(S, unit_eigs, S^-1, condition) when usable for closed-form powers."""
        try:
            lam, S = np.linalg.eig(self.array)
        except np.linalg.LinAlgError:
            return None
        try:
            Sinv = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            return None
        cond = float(np.linalg.cond(S))
        if not np.isfinite(cond) or cond > 1e8:
            return None
        if float(np.max(np.abs(self.array - (S * lam) @ Sinv))) > 1e-9 * max(
                1.0, float(np.max(np.abs(self.array)))):
            return None
        return S, lam, Sinv, cond

    def apply(self, x):
        vec = _sparse(self, x).to_dense(self.n)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.array @ vec
        return SparseVector.from_pairs(x.space, enumerate(out.tolist(), 1))

    def power(self, x, n):
        vec = _sparse(self, x).to_dense(self.n)
        if self.eigen_system is not None:
            S, lam, Sinv, _ = self.eigen_system
            out = S @ (_stable_powers(lam, n) * (Sinv @ vec))
        else:
            out = vec
            for _ in range(n):
                out = self.array @ out
        return SparseVector.from_pairs(x.space, enumerate(out.tolist(), 1))

    def describe(self):
        eig = eigen_structure(self)
        crit = eig.diagonalizable and eig.all_unimodular
        return [
            f"kind: matrix operator on C^{self.n}",
            f"eigenvalues: {', '.join(f'{z:.6g}' for z in eig.eigenvalues)}",
            f"diagonalizable: {eig.diagonalizable}; all unimodular: {eig.all_unimodular}",
            f"recurrence criterion (diagonalizable with unimodular spectrum): {crit}",
        ]


@dataclass(frozen=True)
class Scaled(Operator):
    """``lambda * T`` for a scalar factor, usually unimodular."""

    base: Operator
    factor: Value

    space = property(lambda self: self.base.space)

    def apply(self, x):
        return _scaled(self.base.apply(x), self.factor)

    def power(self, x, n):
        return _scaled(self.base.power(x, n), vpow(self.factor, n))

    def period_bound(self, x):
        b = self.base.period_bound(x)
        o = _phase_order(self.factor)
        return None if b is None or o is None else math.lcm(b, o)

    def describe(self):
        return [f"kind: scalar multiple by {to_complex(self.factor):.6g} of",
                *self.base.describe()]


@dataclass(frozen=True)
class Power(Operator):
    """``T^p`` applied as p elementary steps per unit of time."""

    base: Operator
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("power must be >= 1")

    space = property(lambda self: self.base.space)

    def apply(self, x):
        for _ in range(self.p):
            x = self.base.apply(x)
        return x

    def power(self, x, n):
        return self.base.power(x, self.p * n)

    def period_bound(self, x):
        b = self.base.period_bound(x)
        return None if b is None else b // math.gcd(b, self.p)

    def fixes(self, x, n):
        return self.base.fixes(x, self.p * n)

    def describe(self):
        return [f"kind: power {self.p} of", *self.base.describe()]


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def _guard_float_weight(weight: Fraction, value: Value) -> Value:
    floating = isinstance(value, (complex, float)) or (
        isinstance(value, Phase) and not isinstance(value.mag, Fraction))
    if floating and abs(log2_abs(weight)) > 980:
        raise PrecisionError(
            "weight magnitude beyond float range; rerun with --precision exact")
    out = vmul(value, weight)
    if floating:
        mag = abs(to_complex(out))
        vanished = mag == 0.0 and weight != 0 and abs(to_complex(value)) != 0.0
        if not math.isfinite(mag) or vanished:
            raise PrecisionError(
                "orbit magnitude left float range; rerun with --precision exact")
    return out


def apply(op: Operator, x: Vector) -> Vector:
    """One exact application of the operator."""
    return op.apply(x)


def power_apply(op: Operator, x: Vector, n: int) -> Vector:
    """``T^n x`` through the closed form where one exists, else by iteration."""
    if n == 0:
        return x
    return op.power(x, n)


def _scaled(y: Vector, factor: Value) -> SparseVector:
    if isinstance(y, SparseVector):
        return y.scale(factor)
    raise SpaceMismatch("scalar multiples need sparse-representable states")


def _merge(a: Value, b: Value) -> Value:
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) + Fraction(b)
    return to_complex(a) + to_complex(b)


def _is_one(v: Value) -> bool:
    return exact_eq(v, Fraction(1)) or (isinstance(v, Phase) and v.is_one())


def _stable_powers(lam: np.ndarray, n: int) -> np.ndarray:
    """Eigenvalue powers via polar form: unimodular entries never drift."""
    mods = np.abs(lam)
    args = np.angle(lam)
    safe = np.where(mods > 0, mods, 1.0)
    logs = n * np.log(safe)
    if np.any(logs > 700):
        raise PrecisionError("matrix power overflows float range")
    out = np.exp(logs) * np.exp(1j * np.mod(n * args, 2 * np.pi))
    return np.where(mods > 0, out, 0.0)


# ---------------------------------------------------------------------------
# exact periodicity
# ---------------------------------------------------------------------------

def state_exact_eq(x: Vector, y: Vector) -> bool:
    """Decidably exact state equality (False when floats are involved)."""
    if isinstance(x, SparseVector) and isinstance(y, SparseVector):
        if x.support != y.support:
            return False
        return all(is_exact(a) and is_exact(b) and exact_eq(a, b)
                   for (_, a), (_, b) in zip(x.entries, y.entries))
    if isinstance(x, RowState) and isinstance(y, RowState):
        return x.offset == y.offset
    if isinstance(x, FiniteRowVector) and isinstance(y, FiniteRowVector):
        cells_x = {(k, j): v for k, j, v in x.entries}
        cells_y = {(k, j): v for k, j, v in y.entries}
        if cells_x.keys() != cells_y.keys():
            return False
        return all(is_exact(a) and is_exact(cells_y[c]) and exact_eq(a, cells_y[c])
                   for c, a in cells_x.items())
    return False


def _phase_order(v: Value) -> Optional[int]:
    """Multiplicative order of an exactly unimodular value, if finite."""
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        if f == 1:
            return 1
        if f == -1:
            return 2
        return None
    if isinstance(v, Phase) and v.exact and v.mag == 1:
        return v.turns.denominator if isinstance(v.turns, Fraction) else None
    return None


def exact_state_period(op: Operator, x: Vector) -> Optional[int]:
    """Minimal exact period of x under the operator, or None.

    Only exact vectors have one: float data never yields a period.  Starts
    from the operator's symbolic bound (block sizes, phase orders, symbol
    orders), checks that ``T^bound x = x``, and descends through its prime
    factors: each prime r divides the period away for as long as
    ``T^(period/r) x = x``.
    """
    if x.is_zero:
        return 1                   # the zero vector is fixed by every operator
    if not x.exact:
        return None
    period = op.period_bound(x)
    if period is None or not op.fixes(x, period):
        return None        # no bound, or one that is not a period after all
    for r in _prime_factors(period):
        while period % r == 0 and op.fixes(x, period // r):
            period //= r
    return period


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division."""
    out = []
    d = 2
    while n > 1 and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

def _exact_or_float(combine, terms):
    """Fold Fraction and float terms with ``combine`` (``operator.add`` or
    ``max``): a Fraction when every term is one.  Otherwise the float terms
    are folded in order and the exact part joins once, at the end, so a
    float result does not depend on where the exact terms sat."""
    exact, floating, all_exact = Fraction(0), 0.0, True
    for t in terms:
        if isinstance(t, Fraction):
            exact = combine(exact, t)
        else:
            all_exact = False
            floating = combine(floating, float(t))
    return exact if all_exact else combine(floating, float(exact))


def _scale_pow(a, radius: Fraction, d: int):
    if isinstance(a, Fraction):
        return a * radius ** d
    return float(a) * float(radius) ** d


def _abs_diff(a: Value, b: Value):
    d2 = diff_abs2(a, b)
    if isinstance(d2, Fraction):
        num = math.isqrt(d2.numerator)
        den = math.isqrt(d2.denominator)
        if num * num == d2.numerator and den * den == d2.denominator:
            return Fraction(num, den)
        return float(ExactSqrt(d2))
    return math.sqrt(d2)


def check_seminorm_index(space: Space, index: int) -> int:
    """``index`` if the space has a seminorm of that index, else ValueError."""
    return space.check_index(index)


def seminorm(space: Space, index: int, x: Vector):
    """Seminorm of the given index; exact (Fraction/ExactSqrt) where possible."""
    return space.seminorm(index, x)


def diff_seminorm(space: Space, index: int, x: Vector, y: Vector):
    """Seminorm of ``x - y`` without forming the difference inexactly."""
    return space.diff_seminorm(index, x, y)


# -- dyadic row space helpers -------------------------------------------------

def _watch_hit(pos: int, k: int, index: int) -> bool:
    """Is column ``pos`` of row k inside the watched strip of p_index?"""
    half = 1 << (k - 1)
    reach = min(index, half - 1)
    return half + 1 <= pos <= half + reach


def _pattern_watch_rows(offset: int, index: int) -> list[int]:
    """Rows whose hot cell sits in the watched strip, for a pattern state."""
    hits = []
    k = 2
    while (1 << (k - 1)) <= offset + index:
        pos = (-offset) % (1 << k)
        if _watch_hit(pos, k, index):
            hits.append(k)
        k += 1
    return hits


def _signed_diff(a: Value, b: Value):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) - Fraction(b)
    return to_complex(a) - to_complex(b)


def _diff_is_zero(a: Value, b: Value) -> bool:
    if is_exact(a) and is_exact(b):
        return exact_eq(a, b)
    return to_complex(a) == to_complex(b)


# ---------------------------------------------------------------------------
# continuity bound for the row rotation
# ---------------------------------------------------------------------------

def continuity_bound_constant(index: int) -> tuple[int, int]:
    """(l, constant) with l minimal so 2^l >= 2(index+2); bound is 1+(l-1)2^(l-1)."""
    l = 2
    while (1 << l) < 2 * (index + 2):
        l += 1
    return l, 1 + (l - 1) * (1 << (l - 1))


def continuity_bound_check(x: Vector, index: int) -> bool:
    """Verify ``p_n(Tx) <= (1+(l-1) 2^(l-1)) p_(n+1)(x)`` on a row-space vector."""
    _, c = continuity_bound_constant(index)
    lhs = seminorm(x.space, index, apply(RowRotation(), x))
    rhs = seminorm(x.space, index + 1, x)
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        return lhs <= c * rhs
    return float(lhs) <= c * float(rhs) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# matrix eigenstructure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenStructure:
    """Clustered eigenvalues with algebraic/geometric multiplicities."""

    eigenvalues: tuple[complex, ...]
    algebraic: tuple[int, ...]
    geometric: tuple[int, ...]
    diagonalizable: bool
    all_unimodular: bool
    tolerance: float


class NumericalFailure(ArithmeticError):
    pass


def eigen_structure(mat: Matrix, tolerance: float = 1e-10,
                    cluster_tol: float = 1e-7, dim_cap: int = 64) -> EigenStructure:
    """Eigenvalues with multiplicities, a diagonalizability flag, and an
    all-unimodular flag at the given tolerance."""
    if mat.n > dim_cap:
        raise NumericalFailure(f"dimension {mat.n} above cap {dim_cap}")
    a = mat.array
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as err:
        raise NumericalFailure(f"eigenvalue iteration failed: {err}") from err
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    clusters: list[list[complex]] = []
    for value in lam:
        if clusters and abs(value - clusters[-1][-1]) <= cluster_tol:
            clusters[-1].append(value)
        else:
            clusters.append([value])
    reps, alg, geo = [], [], []
    scale = max(1.0, float(np.max(np.abs(a))))
    for group in clusters:
        rep = complex(np.mean(group))
        reps.append(rep)
        alg.append(len(group))
        shifted = a - rep * np.eye(mat.n)
        sv = np.linalg.svd(shifted, compute_uv=False)
        rank = int(np.sum(sv > max(cluster_tol * scale, 1e-12)))
        geo.append(mat.n - rank)
    diagonalizable = all(g >= m for g, m in zip(geo, alg)) and sum(geo) >= mat.n
    unimodular = all(abs(abs(r) - 1.0) <= tolerance for r in reps)
    return EigenStructure(tuple(reps), tuple(alg), tuple(geo),
                          diagonalizable, unimodular, tolerance)
