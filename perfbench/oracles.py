"""Computations made apart from recurlab, used to check its outputs.

Nothing here imports the program.  Each function derives the expected
answer from theory (block sizes, phase orders, symbol orders) or recomputes
it in plain Python / exact integer arithmetic, so a check never compares
against a stored copy of the program's own output.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with the independent computation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- arithmetic of periods ---------------------------------------------------

def lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def block_size(index: int) -> int:
    """Period of e_index under the block cycle: 2^floor(log2 index) (1 for index 1)."""
    return 1 << (index.bit_length() - 1)


def multiples(period: int, horizon: int) -> tuple[int, ...]:
    return tuple(range(0, horizon + 1, period))


def check_monotone(windows) -> None:
    """Windows listed for decreasing epsilon must shrink."""
    for big, small in zip(windows, windows[1:]):
        expect(set(small) <= set(big), "return windows are not monotone in epsilon")


# -- exact turn arithmetic for float angles ----------------------------------

def turn_fraction_exact(theta: float, n: np.ndarray) -> np.ndarray:
    """frac(n * theta) for a float theta, computed exactly in integers.

    ``theta mod 1`` is a multiple of 2^-53 whenever theta >= 2^-53 or is a
    float in [0, 1); uint64 products wrap modulo 2^64, a multiple of 2^53.
    """
    t = theta % 1.0
    k = int(Fraction(t) * (1 << 53))
    expect(Fraction(k, 1 << 53) == Fraction(t), "turn not representable on 2^-53 grid")
    prod = n.astype(np.uint64) * np.uint64(k)
    return (prod & np.uint64((1 << 53) - 1)).astype(np.float64) / float(1 << 53)


def chord(frac: np.ndarray) -> np.ndarray:
    """|e^(2 pi i f) - 1| = 2 |sin(pi f)|."""
    return 2.0 * np.abs(np.sin(np.pi * frac))


def window_from_distances(dist: np.ndarray, eps: float, band: float):
    """(members, undecided): indices with dist < eps, and those within the band."""
    inside = np.nonzero(dist < eps)[0]
    near = np.nonzero(np.abs(dist - eps) <= band)[0]
    return set(inside.tolist()), set(near.tolist())


def check_window_against(elements, dist: np.ndarray, eps: float, band: float,
                         what: str) -> None:
    expected, undecided = window_from_distances(dist, eps, band)
    got = set(elements)
    diff = (got ^ expected) - undecided
    expect(not diff, f"{what}: window differs from independent evaluation at "
                     f"{sorted(diff)[:5]}")


def diagonal_distances(thetas, amps, horizon: int) -> np.ndarray:
    """sqrt(sum_j |a_j|^2 |e^(2 pi i n theta_j) - 1|^2) for n = 0..horizon."""
    n = np.arange(horizon + 1, dtype=np.int64)
    total = np.zeros(horizon + 1)
    for theta, a in zip(thetas, amps):
        total += float(a) ** 2 * chord(turn_fraction_exact(theta, n)) ** 2
    return np.sqrt(total)


def conjugated_distances(S: np.ndarray, thetas, x: np.ndarray, horizon: int) -> np.ndarray:
    """||S (D^n - I) S^-1 x|| for D = diag(e^(2 pi i theta_j)), from the generating data."""
    c = np.linalg.solve(S, x)
    n = np.arange(horizon + 1, dtype=np.int64)
    acc = np.zeros((horizon + 1, S.shape[0]), dtype=np.complex128)
    for j, theta in enumerate(thetas):
        f = turn_fraction_exact(theta, n)
        coeff = (np.exp(2j * np.pi * f) - 1.0) * c[j]
        acc += coeff[:, None] * S[:, j][None, :]
    return np.sqrt(np.sum(np.abs(acc) ** 2, axis=1))


# -- the row-rotation pattern, from the seminorm definition ------------------

def row_pattern_distance(n: int, index: int) -> Fraction:
    """p_index(T^n x - x) for the one-hot pattern x (1 at column 0 of each row).

    Row k of T^n x holds its 1 at column (-n) mod 2^k; rows with 2^k | n
    agree.  First sum: every disagreeing row contributes 2^-k, which adds
    up to 2^-v2(n).  Second sum: row k >= 2 adds k when either state's hot
    cell sits in the strip 2^(k-1)+1 .. 2^(k-1)+min(index, 2^(k-1)-1).
    """
    if n == 0:
        return Fraction(0)
    v2 = (n & -n).bit_length() - 1
    total = Fraction(1, 1 << v2)
    k = 2
    while (1 << (k - 1)) <= n + index:
        if n % (1 << k):
            half = 1 << (k - 1)
            reach = min(index, half - 1)
            pos = (-n) % (1 << k)
            if half + 1 <= pos <= half + reach:        # column 0 is never watched
                total += k
        k += 1
    return total


def row_pattern_seminorm(offset: int, index: int) -> int:
    """p_index of the pattern at offset: 2 (first sum) plus the watched rows."""
    total = 2
    k = 2
    while (1 << (k - 1)) <= offset + index:
        half = 1 << (k - 1)
        reach = min(index, half - 1)
        pos = (-offset) % (1 << k)
        if reach >= 1 and half + 1 <= pos <= half + reach:
            total += k
        k += 1
    return total


# -- weighted backward shifts, in exact fractions ----------------------------

def shift_power_entries(coeffs: dict, weight, n: int) -> tuple:
    """T^n x for the unilateral shift (T x)_k = w_(k+1) x_(k+1), as sorted pairs."""
    out = []
    for i, c in sorted(coeffs.items()):
        k = i - n
        if k >= 1:
            w = Fraction(1)
            for nu in range(k + 1, i + 1):
                w *= weight(nu)
            out.append((k, c * w))
    return tuple(out)


def shift_orbit_distance2(coeffs: dict, weight, n: int) -> Fraction:
    """||T^n x - x||^2, exactly."""
    image = dict(shift_power_entries(coeffs, weight, n))
    return sum(((image.get(k, Fraction(0)) - coeffs.get(k, Fraction(0))) ** 2
                for k in set(image) | set(coeffs)), Fraction(0))


# -- windows and their combinatorics -----------------------------------------

def running_extrema(elements, horizon: int, burn_in: int):
    """min/max over N in [burn_in, H] of card(A & [0,N])/(N+1), counted in Python."""
    count = 0
    it = iter(elements)
    nxt = next(it, None)
    lo, hi = math.inf, -math.inf
    for N in range(horizon + 1):
        while nxt is not None and nxt <= N:
            count += 1
            nxt = next(it, None)
        if N >= burn_in:
            d = count / (N + 1)
            lo = min(lo, d)
            hi = max(hi, d)
    return lo, hi


def window_max_density(elements, horizon: int, length: int) -> float:
    """max over s of card(A & [s, s+length]) / (length+1), by bisection."""
    els = list(elements)
    best = 0
    for s in range(0, horizon - length + 1):
        c = bisect_right(els, s + length) - bisect_left(els, s)
        if c > best:
            best = c
    return best / (length + 1)


def prefix_count(elements, n: int) -> int:
    return bisect_right(elements, n)


def gaps(elements, horizon: int):
    """(interior gaps incl. the one from 0, tail gap) as the certificate defines them."""
    els = list(elements)
    out = [els[0]] if els[0] > 0 else []
    out.extend(b - a for a, b in zip(els, els[1:]))
    return out, horizon - els[-1]


def subset_sum_bits(generators, horizon: int) -> int:
    """Bitset of all sums of nonempty subsets of distinct generators, <= horizon."""
    reach = 1
    cap = (1 << (horizon + 1)) - 1
    for g in generators:
        reach |= (reach << g) & cap
    return reach & ~1


def set_bits(elements, horizon: int) -> int:
    buf = bytearray((horizon >> 3) + 1)
    for e in elements:
        buf[e >> 3] |= 1 << (e & 7)
    return int.from_bytes(buf, "little")


def in_piece(n: int, piece) -> bool:
    kind, data = piece
    if kind == "residue":
        modulus, residues = data
        return n % modulus in residues
    return any(lo <= n <= hi for lo, hi in data)


def cut_shift_paste(elements, pieces, shifts):
    """union_j (n_j + A & I_j), element by element."""
    out = set()
    for piece, s in zip(pieces, shifts):
        for e in elements:
            if in_piece(e, piece):
                out.add(e + s)
    return tuple(sorted(out))
