"""Orbit iteration, return-set extraction, boundedness and compactness probes.

The central computation is the distance profile ``n -> max_i p_i(T^n x - x)``
for ``n <= N`` and a finite set of seminorm indices.  The dispatcher picks
the cheapest sound strategy:

* exact periodic states (block cycles, rational-angle diagonals, affine
  symbols of finite order, and their scalar multiples and powers) are
  evaluated over one period and tiled, so the cost is O(period) not O(N);
* an unscaled block cycle (or a power of one) on an exact rational l2
  vector takes that period from a dyadic kernel: in the coordinates
  ``u_(B+o) = x_(B+o) / 2^o`` the cycle only rotates each block, so each
  squared distance is one integer sum of shifted coordinates over a power
  of 4, and no state and no weight ``2^t`` is built;
* rotation-type operators (diagonals, unimodular multiples of a periodic
  base, diagonalizable matrices) read ``T^m x = sum_j mu_j^m v_j`` off
  their spectrum in blocks of ``_CHUNK`` indices n, so the temporaries stay
  bounded whatever the horizon;
* a float matrix without a usable eigen system (a Jordan block) is stepped
  by one dense walker, ``A @ y`` on raw complex arrays exactly as
  ``Matrix.apply`` steps; the profile folds distances from its blocks of
  states, ``orbit_norms`` norms and the compactness probe rows, each bit
  for bit what stepwise application gives;
* the distinguished row-rotation orbit is evaluated blockwise in closed
  form (its profile values are dyadic rationals, exact in float64);
* everything else falls back to stepwise application, which stays exact for
  exact sparse data and stops once the orbit reaches the zero vector: every
  operator is linear, so the remaining values all equal ``p_i(x)``.

The l2 forms (the dyadic kernel, the spectral forms, the dense walker)
run only where the vector's space says ``is_hilbert``; elsewhere the same
orbit is stepped.  Every exact period comes from ``_period_within`` alone,
and every spectral form takes ``mu_j^m`` from ``_spectral_powers`` alone, its angles
reduced by ``fractional_turns`` (``np.mod`` bit for bit).  Diagonals and
scaled cycles are orthogonal families, read off ``|v_j|^2`` and ``v_j^H x``
by ``_orthogonal_profile`` (a distance near 0 can read up to about
1e-8 |x|); a matrix sums the squares of ``V a - x``, accurate near 0.
An exact x under a diagonal of exactly unimodular entries keeps every
coordinate modulus, so ``orbit_norms`` repeats its norm (``_isometric``).
The greedy net of ``totally_bounded_probe`` keeps its centres in one array
and measures each orbit point against all of them in one vector step.

``return_sets`` cuts the windows of a whole epsilon grid from one profile, so
they are nested in epsilon by construction.

Membership in the epsilon ball is decided through exact comparisons whenever
the profile is exact: a pessimistic certified tail is added where closed
forms omit one (never the other way), so a reported return is never false.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .families import IndexWindow
from .operators import (BlockCycle, Diagonal, Matrix, Operator, Power,
                        RowRotation, RowState, Scaled, SparseVector, Vector,
                        apply, check_seminorm_index, diff_seminorm,
                        exact_state_period, power_apply, seminorm)
from .values import ExactSqrt, norm_lt, to_complex, vabs, vmul

__all__ = [
    "ReturnSetRecord", "GrowthCurve", "CoveringReport", "PowerBoundVerdict",
    "return_set", "return_sets", "distance_profile", "orbit_growth", "orbit_norms",
    "periodic_orbit", "power_bounded_probe", "totally_bounded_probe",
]

_PERIOD_CAP = 1 << 22
_CHUNK = 1 << 14            # indices n per block of a closed-form or dense profile
_GROUP = 16                 # eigenvalues per table of an orthogonal closed form


@dataclass(frozen=True)
class DistanceProfile:
    """Distances ``max_i p_i(T^n x - x)`` for n <= horizon.

    ``period`` set means the profile repeats exactly with that period and
    ``values`` holds one period; otherwise ``values`` has horizon+1 entries.
    ``exact`` marks decisions that are independent of floating error.
    """

    values: Union[tuple, np.ndarray]
    horizon: int
    period: Optional[int] = None
    exact: bool = False

    def value(self, n: int):
        if self.period is not None:
            return self.values[n % self.period]
        return self.values[n]

    def window(self, eps) -> IndexWindow:
        bound = Fraction(eps) if not isinstance(eps, Fraction) else eps
        if isinstance(self.values, np.ndarray):
            hits = self.values < float(bound)
        else:
            sq = bound * bound
            hits = np.array([v.sq < sq if isinstance(v, ExactSqrt) else norm_lt(v, bound)
                             for v in self.values], dtype=bool)
        # a periodic profile holds one period: tile it out to the horizon
        return IndexWindow.from_mask(np.resize(hits, self.horizon + 1))


@dataclass(frozen=True)
class ReturnSetRecord:
    """A computed return set with the context needed to replay it."""

    operator: Operator
    vector: Vector
    epsilon: Fraction
    seminorm_indices: tuple[int, ...]
    horizon: int
    window: IndexWindow
    exact: bool
    exact_period: Optional[int]

    def __post_init__(self):
        if not self.window.count or self.window.array[0] != 0:
            raise AssertionError("0 must belong to every return window")

    def to_text(self, operator_literal: str = "", vector_literal: str = "") -> str:
        head = [
            f"operator={operator_literal or type(self.operator).__name__}",
            f"vector={vector_literal}",
            f"epsilon={self.epsilon}",
            f"seminorms={','.join(str(i) for i in self.seminorm_indices)}",
            f"N={self.horizon}",
        ]
        return "\n".join(head) + "\n" + self.window.to_text()


def return_sets(op: Operator, x: Vector, eps_grid: Sequence,
                seminorms: Sequence[int] = (0,),
                N: int = 1000) -> list[ReturnSetRecord]:
    """One window ``{n <= N : max_i p_i(T^n x - x) < eps}`` per radius, in
    grid order, all cut from one distance profile; 0 always belongs."""
    if N < 1:
        raise ValueError("N must be >= 1")
    radii = [Fraction(eps) for eps in eps_grid]
    if any(eps <= 0 for eps in radii):
        raise ValueError("epsilon must be positive")
    seminorms = tuple(seminorms)
    prof = distance_profile(op, x, seminorms, N)
    return [ReturnSetRecord(
        operator=op, vector=x, epsilon=eps, seminorm_indices=seminorms,
        horizon=N, window=prof.window(eps), exact=prof.exact,
        exact_period=prof.period) for eps in radii]


def return_set(op: Operator, x: Vector, eps, seminorms: Sequence[int] = (0,),
               N: int = 1000) -> ReturnSetRecord:
    """Window ``{n <= N : max_i p_i(T^n x - x) < eps}``; 0 always belongs."""
    return return_sets(op, x, (eps,), seminorms, N)[0]


# ---------------------------------------------------------------------------
# distance profiles
# ---------------------------------------------------------------------------

def _period_within(op: Operator, x: Vector, cap: Optional[int]) -> Optional[int]:
    """The minimal exact period of x, or None when there is none (or none <= cap)."""
    period = exact_state_period(op, x)
    return None if period is None or (cap is not None and period > cap) else period


def periodic_orbit(op: Operator, x: Vector,
                   cap: Optional[int] = None) -> Optional[list[Vector]]:
    """The states ``T^r x`` for r below the minimal exact period of x, or
    None when x has no exact period (or none <= cap)."""
    period = _period_within(op, x, cap)
    return None if period is None else [power_apply(op, x, r) for r in range(period)]


def distance_profile(op: Operator, x: Vector, seminorms: tuple[int, ...],
                     N: int) -> DistanceProfile:
    for i in seminorms:
        check_seminorm_index(x.space, i)
    base, factor, stride = _peel(op)
    period = _period_within(op, x, min(N + 1, _PERIOD_CAP))
    if period is not None:
        vals = _block_cycle_distances(base, factor, stride, x, seminorms, period)
        if vals is None:
            vals = tuple(_distance(power_apply(op, x, r), x, seminorms)
                         for r in range(period))
        return DistanceProfile(vals, N, period=period, exact=True)

    fast = _FAST_PATHS.get(type(base))
    prof = None if fast is None else fast(base, factor, stride, x, seminorms, N)
    if prof is not None:
        return prof
    # a scalar multiple of a base whose (powered) orbit cycles exactly
    if factor is not None and x.space.is_hilbert:
        cycle = periodic_orbit(Power(base, stride) if stride > 1 else base, x, 1 << 16)
        if cycle is not None:
            return scaled_profile(cycle, factor, stride, N)
    return _stepwise_profile(op, x, seminorms, N)


def _peel(op: Operator):
    """Split Scaled/Power wrappers: (base, factor, stride) with one step of
    op equal to ``(factor * base)^stride``.

    A Power inside a Scaled stays in the base: ``f T^p`` would need the p-th
    root of f as its factor.
    """
    factor = None
    stride = 1
    while isinstance(op, (Scaled, Power)):
        if isinstance(op, Power):
            if factor is not None:
                break
            stride *= op.p
        else:
            f = op.factor
            factor = f if factor is None else vmul(factor, f)
        op = op.base
    return op, factor, stride


def _distance(y: Vector, x: Vector, seminorms: tuple[int, ...]):
    """``max_i p_i(y - x)``."""
    return _max_norm([diff_seminorm(x.space, i, y, x) for i in seminorms])


def _norm_gt(a, b) -> bool:
    if isinstance(a, (Fraction, ExactSqrt)) and isinstance(b, (Fraction, ExactSqrt)):
        asq = a.sq if isinstance(a, ExactSqrt) else a * a
        bsq = b.sq if isinstance(b, ExactSqrt) else b * b
        return asq > bsq
    return float(a) > float(b)


def _max_norm(vals):
    best = vals[0]
    for v in vals[1:]:
        if _norm_gt(v, best):
            best = v
    return best


def _block_cycle_distances(base: Operator, factor, stride: int, x: Vector,
                           seminorms: tuple[int, ...], period: int) -> Optional[tuple]:
    """One period of the exact l2 distances of a block-cycle orbit, from integers.

    With D the common denominator of x and ``a = D x``, step n moves the
    coordinate at offset ``src`` of block B to offset ``o = (src + n) mod B``
    with weight ``2^(o - src)``, so the squared distance is

        sum over blocks of sum_(o in S u (S+n)) (a_src 2^(o - src) - a_o)^2 / D^2

    (a is 0 off the support S).  Every term is scaled by ``4^k`` for the
    largest wrap deficit k at that n, so the sum is one integer and each
    value one ``ExactSqrt``, equal to what ``_distance`` gives for ``T^n x``.
    None unless the base is an unscaled block cycle, x has only Fraction
    coordinates on an l2 space and the one seminorm is the norm.
    """
    if not (isinstance(base, BlockCycle) and factor is None and seminorms == (0,)
            and x.space.is_hilbert and all(isinstance(v, Fraction) for _, v in x.entries)):
        return None
    den = math.lcm(*(v.denominator for _, v in x.entries))
    coords: dict[int, dict[int, int]] = {}     # block -> offset -> a
    for i, v in x.entries:
        if i > 1:                  # index 1 is fixed and adds nothing
            block = 1 << (i.bit_length() - 1)
            coords.setdefault(block, {})[i - block] = v.numerator * (den // v.denominator)
    blocks = [(block, a, max(a)) for block, a in coords.items()]
    den *= den
    vals = []
    for n in range(period):
        moves = []
        k = 0
        for block, a, top in blocks:
            s = n * stride % block
            if s:
                moves.append((block, s, a))
                if top + s >= block:
                    k = max(k, block - s)
        total = 0
        for block, s, a in moves:
            for src, c in a.items():
                o = src + s
                e = s + k if o < block else s - block + k
                c_o = a.get(o % block)
                if c_o is None:        # a square by shifts alone
                    total += c * c << 2 * e
                else:
                    d = (c << e) - (c_o << k)
                    total += d * d
                if (src - s) % block not in a:    # nothing lands on src
                    total += c * c << 2 * k
        vals.append(ExactSqrt(Fraction(total, den << 2 * k)))
    return tuple(vals)


def _stepwise_profile(op: Operator, x: Vector, seminorms: tuple[int, ...],
                      N: int) -> DistanceProfile:
    """Distances by one application per step, until the state reaches 0.

    Every operator is linear, so once ``T^n x = 0`` every later state is 0
    too and the remaining values repeat ``p_i(x)``.
    """
    vals = []
    y = x
    exact = True
    for n in range(N + 1):
        if n:
            y = apply(op, y)
        d = _distance(y, x, seminorms)
        exact = exact and isinstance(d, (Fraction, ExactSqrt))
        vals.append(d)
        if y.is_zero:
            vals.extend([d] * (N - n))
            break
    return DistanceProfile(tuple(vals), N, exact=exact)


# -- row rotation pattern ----------------------------------------------------

def _rowstate_profile(base: RowRotation, factor, stride: int, x: Vector,
                      seminorms: tuple[int, ...], N: int) -> Optional[DistanceProfile]:
    """Profile of the one-hot pattern: 2^-v2(n) plus integer watch hits.

    Every profile value is a dyadic rational with small exponent, so the
    float64 array below is exact, and the window decisions are too.
    """
    if not isinstance(x, RowState) or factor is not None:
        return None
    n = np.arange(0, N + 1, dtype=np.int64) * stride
    shifted = n + x.offset
    lowbit = np.where(n > 0, n & -n, 1).astype(np.float64)
    first = np.where(n > 0, 1.0 / lowbit, 0.0)
    top = int(max(seminorms))
    kcap = int(shifted.max() + top).bit_length() + 1
    extra = np.zeros_like(first)
    for k in range(2, kcap + 1):
        block = 1 << k
        half = block >> 1
        reach = min(top, half - 1)
        if reach < 1:
            continue
        pos_a = (-(shifted)) % block
        pos_b = (-(x.offset)) % block
        hit_a = (pos_a >= half + 1) & (pos_a <= half + reach)
        hit_b = (pos_b >= half + 1) & (pos_b <= half + reach)
        differs = (n % block) != 0
        extra = extra + np.where(differs & (hit_a | hit_b), float(k), 0.0)
    return DistanceProfile(first + extra, N, exact=True)


# -- spectral closed forms ---------------------------------------------------

def _spectral_powers(mods, turns, step: int, count: int, start: int = 0):
    """``mu_j^m = mods_j^m e^(2 pi i turns_j m)`` for ``m = start + step k``,
    k < count, as ``(lo, hi, u0, rows, radial)`` per block of ``_CHUNK``:
    ``mu_j^m = u0_j (rows_j + i rows_(d+j))`` over d eigenvalues, ``u0_j`` a
    block-start unit and ``rows`` one table of units shared by all blocks, times
    ``mods_j^m`` for each j in ``radial``.  Both angles are reduced by
    ``fractional_turns`` one eigenvalue at a time.  A modulus within 1e-15
    of 1 counts as 1; other powers are clipped to ``[e^-745, e^340]``, whose
    squares stay finite (anything this large is out of any ball)."""
    k = np.arange(min(_CHUNK, count), dtype=np.float64) * step
    units = np.array([_unit(fractional_turns(k, t)) for t in turns])
    units = np.concatenate((units.real, units.imag))
    logs = {j: math.log(max(mod, 1e-300)) for j, mod in enumerate(mods)
            if abs(mod - 1.0) >= 1e-15}
    for lo, hi in _blocks(count - 1):
        u0 = np.array([_unit(fractional_turns(start + step * lo, t)) for t in turns])
        rows = units[:, :hi - lo]
        if logs:
            m = np.arange(lo, hi, dtype=np.float64) * step + start
            rows = rows.copy()
            for j, log in logs.items():          # rows j and d + j
                rows[j::len(mods)] *= np.exp(np.clip(m * log, -745.0, 340.0))
        yield lo, hi, u0, rows, list(logs)


def _unit(t):
    """``e^(2 pi i t)``."""
    return np.exp(2j * math.pi * t)


def fractional_turns(m: np.ndarray, turns: float) -> np.ndarray:
    """``np.mod(m * turns, 1.0)`` bit for bit, at a tenth of its cost: both
    round the same exact value once (np.mod adds 1 to a negative fmod)."""
    t = m * turns
    t -= np.floor(t)
    return t


def _blocks(N: int):
    """``(lo, hi)`` bounds of consecutive blocks of ``_CHUNK`` indices covering 0..N."""
    return ((lo, min(lo + _CHUNK, N + 1)) for lo in range(0, N + 1, _CHUNK))


def _orthogonal_profile(mods, turns, w: np.ndarray, h: np.ndarray, x2: float,
                        step: int, count: int, start: int = 0) -> np.ndarray:
    """``|sum_j a_j v_j - x|``, ``a_j = mu_j^m``, over an orthogonal family,
    from ``w_j = |v_j|^2``, ``h_j = v_j^H x`` and ``x2 = |x|^2`` alone:
    ``d^2 = x2 + sum_j (w_j |a_j|^2 - 2 Re(conj(h_j) a_j))``, the cross terms
    folded into one real product per block, ``_GROUP`` eigenvalues at a time
    so that the tables stay bounded.  Its error is absolute, a few ulp of
    ``x2``: a distance near 0 can read up to about 1e-8 |x|, which moves a
    decision ``d < eps`` only for eps below about 1e-6 |x|."""
    d2 = np.full(count, x2)
    for g in range(0, len(turns), _GROUP):
        wg, hg = w[g:g + _GROUP], h[g:g + _GROUP]
        for lo, hi, u0, rows, radial in _spectral_powers(mods[g:g + _GROUP], turns[g:g + _GROUP],
                                                         step, count, start):
            c = np.conj(hg) * u0
            block = d2[lo:hi]
            block += np.concatenate((-2.0 * c.real, 2.0 * c.imag)) @ rows
            block += float(np.delete(wg, radial).sum())
            for j in radial:
                block += wg[j] * (rows[j] * rows[j] + rows[len(c) + j] * rows[len(c) + j])
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def _diagonal_profile(op: Diagonal, factor, stride: int, x: Vector,
                      seminorms: tuple[int, ...], N: int) -> Optional[DistanceProfile]:
    """l2 distance of a diagonal (optionally scaled) orbit: the orthogonal family
    ``v_j = x_j e_j``, ``mu_j = f lam_j``, with ``w_j = h_j = |x_j|^2``."""
    if not x.space.is_hilbert:
        return None
    f_c = to_complex(factor) if factor is not None else 1.0 + 0j
    lam = [to_complex(op.entry(i)) for i in x.support]
    w = np.array([float(vabs(v)) ** 2 for _, v in x.entries])
    out = _orthogonal_profile([abs(z) * abs(f_c) for z in lam],
                              [(cmath.phase(z) + cmath.phase(f_c)) / (2 * math.pi) for z in lam],
                              w, w, float(w.sum()), stride, N + 1)
    out[0] = 0.0
    return DistanceProfile(out, N, exact=False)


def _matrix_profile(base: Matrix, factor, stride: int, x: Vector,
                    seminorms: tuple[int, ...], N: int) -> Optional[DistanceProfile]:
    """l2 distance of a diagonalizable matrix orbit, optionally scaled by f:
    ``T^m x = V a`` with ``V = S diag(S^-1 x)`` and ``a_j = (f lam_j)^m``, from
    the base's one cached eigen system ``A = S diag(lam) S^-1``.  Per block
    ``V diag(u0)``, as one real matrix, times the power rows, minus x, is
    summed in squares, so a distance near 0 stays accurate."""
    if not x.space.is_hilbert:
        return None
    if base.eigen_system is None:
        return None if factor is not None else _stepped_matrix_profile(
            base, stride, x, seminorms, N)
    S, lam, Sinv, _ = base.eigen_system
    f_c = to_complex(factor) if factor is not None else 1.0 + 0j
    x_dense = x.to_dense(base.n)
    v = S * (Sinv @ x_dense)
    x_rows = np.concatenate((x_dense.real, x_dense.imag))[:, None]
    out = np.empty(N + 1, dtype=np.float64)
    for lo, hi, u0, rows, _ in _spectral_powers(
            np.abs(lam) * abs(f_c), (np.angle(lam) + cmath.phase(f_c)) / (2 * math.pi),
            stride, N + 1):
        vu = v * u0
        diff = np.block([[vu.real, -vu.imag], [vu.imag, vu.real]]) @ rows - x_rows
        np.sqrt((diff * diff).sum(axis=0), out=out[lo:hi])
    out[0] = 0.0
    return DistanceProfile(out, N, exact=False)


def _stepped_matrix_profile(mat: Matrix, stride: int, x: Vector,
                            seminorms: tuple[int, ...], N: int) -> Optional[DistanceProfile]:
    """The stepwise profile of a matrix with no eigen system, bit for bit,
    from the dense walker; ``_distance`` measures x and any state with a zero
    coordinate (its exact terms are folded last).  None -- stepwise iteration,
    with its zero-state stop and exactness -- at a zero state or for N < 1."""
    if N < 1:
        return None
    x_dense = x.to_dense(mat.n)
    out = np.empty(N + 1, dtype=np.float64)
    out[0] = float(_distance(x, x, seminorms))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, block in _dense_orbit(mat.array, stride, x_dense, N):
            zeros = block == 0
            if zeros.all(axis=1).any():
                return None
            out[lo:lo + len(block)] = np.sqrt(_square_sums(block - x_dense))
            for k in np.flatnonzero(zeros.any(axis=1)).tolist():
                state = SparseVector.from_pairs(
                    x.space, ((i + 1, complex(v)) for i, v in enumerate(block[k])))
                out[lo + k] = float(_distance(state, x, seminorms))
    return DistanceProfile(out, N, exact=False)


def _dense_start(op: Operator, x: Vector):
    """``(A, stride, x as a dense array)`` when one step of op is ``stride``
    products ``A @ y`` on an l2 vector x, else None (the ``apply`` walker)."""
    base, factor, stride = _peel(op)
    if not (isinstance(base, Matrix) and factor is None and x.space.is_hilbert):
        return None
    return base.array, stride, x.to_dense(base.n)


def _dense_orbit(a: np.ndarray, stride: int, y: np.ndarray, N: int):
    """The states ``A^(stride n) y``, 1 <= n <= N, as ``(n0, block)`` pairs,
    ``block[k]`` being state n0 + k, in one buffer of ``_CHUNK`` rows that
    the next block overwrites.  Each product is ``Matrix.apply``'s ``A @ y``
    with exact zeros reset to +0j as ``from_pairs`` resets them, so every
    state, a zero one too, is bit for bit the stepped one."""
    states = np.empty((min(_CHUNK, N), len(y)), dtype=np.complex128)
    for lo, hi in _blocks(N - 1):
        block = states[:hi - lo]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(hi - lo):
                for _ in range(stride):
                    y = a @ y
                    if not y.all():
                        y[y == 0] = 0
                block[k] = y
        yield lo + 1, block


def _square_sums(z: np.ndarray) -> np.ndarray:
    """Per row, ``|z_1|^2 + |z_2|^2 + ...`` folded in coordinate order, as
    ``_exact_or_float`` folds float terms."""
    sq = z.real * z.real + z.imag * z.imag
    total = sq[:, 0]
    for j in range(1, z.shape[1]):
        total = total + sq[:, j]
    return total


# closed-form profiles by the type of the peeled base operator; each takes
# (base, factor, stride, x, seminorms, N) and returns None when it does not apply
_FAST_PATHS = {
    RowRotation: _rowstate_profile,
    Diagonal: _diagonal_profile,
    Matrix: _matrix_profile,
}


# -- unimodular multiple of an exactly periodic base --------------------------

def scaled_profile(states: Sequence[SparseVector], factor, stride: int,
                   N: int) -> DistanceProfile:
    """Distances for ``(factor T)^(stride n) x`` when the powered base orbit
    ``T^(stride n) x`` cycles exactly through ``states`` (``states[0] = x``).

    Residue class r of n modulo the period is an orthogonal family of one,
    the state s_r with ``mu = f^(stride period)`` from ``m = stride r``.  A
    class whose ``|s_r|^2`` leaves float range is at distance +inf when
    ``|f| >= 1`` (as ``|f^m s_r - x| >= |s_r| - |x|``) and raises
    OverflowError when ``|f| < 1``, as an x out of float range does."""
    grams = [_float_state(s) for s in states[:N + 1]]
    (x, x2), period, f_c = grams[0], len(states), to_complex(factor)
    out = np.full(N + 1, math.inf)
    for r, (s, s2) in enumerate(grams):
        if not math.isfinite(s2):
            if r == 0 or vabs(factor) < 1:
                raise OverflowError(f"state {r} of the cycle leaves float range")
            continue
        h = sum((c.conjugate() * x[i] for i, c in s.items() if i in x), 0j)
        out[r::period] = _orthogonal_profile(
            [abs(f_c)], [cmath.phase(f_c) / (2 * math.pi)], np.array([s2]), np.array([h]), x2,
            stride * period, len(range(r, N + 1, period)), stride * r)
    out[0] = 0.0
    return DistanceProfile(out, N, exact=False)


def _float_state(x: SparseVector) -> tuple[dict, float]:
    """``(index -> complex coordinate, |x|^2)``, or ``({}, inf)`` when a
    coordinate leaves float range."""
    try:
        c = {i: to_complex(v) for i, v in x.entries}
    except OverflowError:
        return {}, math.inf
    return c, sum(v.real * v.real + v.imag * v.imag for v in c.values())


# ---------------------------------------------------------------------------
# growth and boundedness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthCurve:
    """Sampled orbit seminorm values with a bounded-or-growing verdict.

    ``records`` is the subsequence of strict prefix maxima (n >= 1); the
    verdict is a growth witness when records keep appearing deep into the
    horizon (at least three, the last in the final three quarters).
    """

    samples: tuple[tuple[int, float], ...]
    records: tuple[tuple[int, float], ...]
    growing: bool
    bound: float

    @property
    def verdict(self) -> str:
        return "growth-witness" if self.growing else f"bounded-within({self.bound:.6g})"


def growth_schedule(N: int, density: int = 96) -> list[int]:
    ns = {0, 1, 2, 3, 4, N}
    v = 1.0
    ratio = max(1.02, (N / 4) ** (1.0 / density)) if N > 8 else 2.0
    while v < N:
        ns.add(int(v))
        v *= ratio
    k = 2
    while (1 << (k - 1)) - 1 <= N:
        for cand in ((1 << (k - 1)) - 1, (1 << (k - 1)) + 1):
            if 0 <= cand <= N:
                ns.add(cand)
        k += 1
    return sorted(ns)


def orbit_growth(op: Operator, x: Vector, seminorm_index: int = 0,
                 N: int = 10_000) -> GrowthCurve:
    """Sample ``p(T^n x)`` on a logarithmic schedule plus the dyadic probes."""
    space = x.space
    samples = []
    for n in growth_schedule(N):
        y = power_apply(op, x, n)
        samples.append((n, float(seminorm(space, seminorm_index, y))))
    records = []
    best = -math.inf
    for n, v in samples:
        threshold = best * (1 + 1e-12) if best > 0 else best
        if v > threshold:
            if n >= 1:
                records.append((n, v))
            best = v
    growing = len(records) >= 3 and records[-1][0] >= N // 4
    bound = max(v for _, v in samples)
    return GrowthCurve(tuple(samples), tuple(records), growing, bound)


def orbit_norms(op: Operator, x: Vector, seminorm_index: int, N: int) -> np.ndarray:
    """Float norms of the whole orbit prefix (overflow saturates to inf).

    An isometric diagonal orbit repeats the norm of x, a periodic x tiles
    one period, a matrix orbit folds the norms of its dense states, and any
    other orbit is stepped with one state held at a time."""
    def norm(y: Vector) -> float:
        try:
            return float(seminorm(x.space, seminorm_index, y))
        except OverflowError:
            return math.inf

    if _isometric(op, x):
        return np.full(N + 1, norm(x))
    period = periodic_orbit(op, x, N + 1)
    if period is not None:
        norms = np.array([norm(y) for y in period], dtype=np.float64)
        return norms[np.arange(N + 1) % len(period)]
    dense = _dense_start(op, x)
    if dense is None:
        return np.fromiter(map(norm, _applied(op, x, N)), np.float64, N + 1)
    norms = np.empty(N + 1, dtype=np.float64)
    norms[0] = norm(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, block in _dense_orbit(*dense, N):
            norms[lo:lo + len(block)] = np.sqrt(_square_sums(block))
    return norms


def _applied(op: Operator, x: Vector, N: int):
    """``T^n x`` for n = 0..N, by one application per step."""
    y = x
    for n in range(N + 1):
        if n:
            y = apply(op, y)
        yield y


def _isometric(op: Operator, x: Vector) -> bool:
    """Whether every coordinate modulus of every ``T^n x`` is exactly
    ``|x_j|``: x exact under a diagonal whose entries on x's support, and
    any scalar factor, have modulus 1 as a Fraction (a Phase of magnitude 1
    or a Fraction +-1), so each product keeps each modulus as it was."""
    base, factor, _ = _peel(op)
    if not (isinstance(base, Diagonal) and x.space.first_coordinate is not None and x.exact):
        return False
    units = [base.entry(i) for i in x.support] + ([] if factor is None else [factor])
    return all(isinstance(abs(v), Fraction) and abs(v) == 1 for v in units)


@dataclass(frozen=True)
class PowerBoundVerdict:
    """Sample-relative equiboundedness: never a global claim."""

    equibounded: bool
    bound: float
    witness_n: Optional[int] = None
    witness_index: Optional[int] = None

    @property
    def verdict(self) -> str:
        if self.equibounded:
            return f"equibounded-on-sample({self.bound:.6g})"
        return f"violation(n={self.witness_n}, sample={self.witness_index})"


def power_bounded_probe(op: Operator, samples: Sequence[Vector], N: int,
                        seminorm_index: int = 0,
                        ratio_cap: float = 1e3) -> PowerBoundVerdict:
    """Sup of orbit-norm ratios over the sample; a witness past the cap fails."""
    if not samples:
        raise ValueError("need a nonempty sample")
    worst = 0.0
    for si, x in enumerate(samples):
        norms = orbit_norms(op, x, seminorm_index, N)
        base = norms[0]
        if base == 0:
            continue
        ratios = norms / base
        n_bad = int(np.argmax(ratios))
        if ratios[n_bad] > ratio_cap:
            return PowerBoundVerdict(False, float(ratios[n_bad]), n_bad, si)
        worst = max(worst, float(ratios[n_bad]))
    return PowerBoundVerdict(True, worst)


@dataclass(frozen=True)
class CoveringReport:
    """Greedy net sizes per epsilon, at doubling horizon prefixes."""

    counts: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]

    def at(self, eps: float) -> tuple[tuple[int, int], ...]:
        for e, rows in self.counts:
            if abs(e - eps) < 1e-12:
                return rows
        raise KeyError(eps)

    def flat(self, eps: float, slack: int = 1) -> bool:
        rows = self.at(eps)
        return rows[-1][1] - rows[0][1] <= slack


def totally_bounded_probe(op: Operator, x: Vector, N: int,
                          eps_grid: Sequence[float]) -> CoveringReport:
    """Greedy epsilon-net sizes of the orbit prefix, at N//4, N//2 and N."""
    pts = _materialized_orbit(op, x, N)
    marks = sorted({max(1, N // 4), max(1, N // 2), N})
    centers = np.empty_like(pts)
    out = []
    for eps in eps_grid:
        k = 0
        rows = []
        mark_iter = iter(marks)
        next_mark = next(mark_iter)
        for n in range(N + 1):
            p = pts[n]
            if not k or _opens_center(p, centers[:k], eps):
                centers[k] = p
                k += 1
            while next_mark is not None and n == next_mark:
                rows.append((n, k))
                next_mark = next(mark_iter, None)
        if not rows or rows[-1][0] != N:
            rows.append((N, k))
        out.append((float(eps), tuple(rows)))
    return CoveringReport(tuple(out))


# an l2 distance summed in another order than np.linalg.norm sums it is off
# by a few units in the last place; this relative band (plus an absolute one
# for squares below the normal floats) holds every such discrepancy
_NET_SLACK = 1e-12
_NET_FLOOR = 1e-150


def _opens_center(p: np.ndarray, centers: np.ndarray, eps) -> bool:
    """``min(norm(p - c) for c in centers) > eps``, decided as that loop
    decides it, NaNs included: the distances to all centers come from one
    vector step, and only those within rounding of eps are measured again
    by ``np.linalg.norm`` itself."""
    diff = centers - p
    dist = np.sqrt((diff.real * diff.real + diff.imag * diff.imag).sum(axis=1))
    if np.isnan(dist[0]):           # min() keeps a leading NaN, which is never > eps
        return False
    close = np.abs(dist - eps) <= _NET_SLACK * eps + _NET_FLOOR
    if (dist[~close] <= eps).any():  # min() passes over any later NaN
        return False
    return all(float(np.linalg.norm(p - c)) > eps for c in centers[close])


def _materialized_orbit(op: Operator, x: Vector, N: int) -> np.ndarray:
    """``T^n x`` for n <= N as dense rows, one column per index of the union
    of their supports in sorted order: one period tiled when x cycles within
    the horizon, else the orbit stepped with one state held at a time (a
    matrix orbit by the dense walker)."""
    if x.space.first_coordinate is None:
        raise ValueError("compactness probe needs materializable states")
    period = _period_within(op, x, N + 1)
    dense = _dense_start(op, x) if period is None else None
    if dense is not None:
        arr = np.empty((N + 1, len(dense[2])), dtype=np.complex128)
        arr[0] = dense[2]
        for lo, block in _dense_orbit(*dense, N):
            arr[lo:lo + len(block)] = block
        keep = (arr[1:] != 0).any(axis=0)
        keep[[i - 1 for i in x.support]] = True
        return arr if keep.all() else arr[:, keep]
    rows = N + 1 if period is None else period
    states = _applied(op, x, N) if period is None else (
        power_apply(op, x, n) for n in range(period))
    columns: dict[int, np.ndarray] = {}        # index -> its coordinates
    for n, y in enumerate(states):
        for i, v in y.entries:
            if i not in columns:
                columns[i] = np.zeros(rows, dtype=np.complex128)
            columns[i][n] = to_complex(v)
    arr = np.stack([columns[i] for i in sorted(columns)] or [np.zeros(rows, complex)], axis=1)
    return arr if period is None else arr[np.arange(N + 1) % period]
