"""Finite-horizon combinatorics of subsets of N0.

Everything operates on an :class:`IndexWindow`: the elements of a set
``A`` of naturals actually observed on ``[0, H]``.  All density and gap
statements are estimates over that window, with the evidence (running
curves, observed gaps, probe budgets) recorded next to the number.  Limit
claims are deliberately out of reach; the classifier layer owns thresholds.

Implemented calculus:

* lower / upper running density and the sliding-window (Banach-type)
  density over a schedule of window lengths, read from the sorted member
  array and one rank table ``card(A & [0, N])``;
* bounded-gap certificates with censored boundary handling;
* finite-sums sets (all sums of distinct generators) and a three-valued
  probe for membership in the dual family of sets meeting every
  finite-sums set;
* the cut-shift-and-paste transform ``A -> union_j (n_j + A & I_j)`` for
  partitions into residue classes and interval unions;
* dilation ``A -> pA`` and contraction ``A -> {n : pn in A}``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "IndexWindow",
    "DensityReport",
    "SyndeticCertificate",
    "SetPredicate",
    "CutShiftPaste",
    "IpProbeResult",
    "default_banach_schedule",
    "density_report",
    "syndetic_certificate",
    "ip_generate",
    "ip_star_probe",
    "arithmetic_certificate",
    "witness_floor",
    "cut_shift_paste",
    "dilate",
    "contract",
]


class ConfigurationError(ValueError):
    """Raised when an operation is invoked with inconsistent parameters."""


class IndexWindow:
    """A finite observed subset of N0 together with its observation horizon.

    The members are stored once, as the sorted read-only int64 ``array``;
    they are strictly increasing integers in ``[0, horizon]``.  Membership of
    any ``n <= horizon`` is decided; nothing is known beyond.  The views
    ``mask``, ``elements`` and ``member_set`` are built on first use.
    """

    def __init__(self, elements, horizon: int):
        horizon = operator.index(horizon)
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        arr = np.asarray(elements)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError("elements must be a flat sequence of integers")
        arr = np.array(arr, dtype=np.int64)
        if np.any(arr[1:] <= arr[:-1]):
            raise ValueError("elements must be strictly increasing")
        if arr.size and (arr[0] < 0 or arr[-1] > horizon):
            raise ValueError("elements must lie in [0, horizon]")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "horizon", horizon)

    def __setattr__(self, name, value):
        raise AttributeError("IndexWindow is immutable")

    def __eq__(self, other):
        if not isinstance(other, IndexWindow):
            return NotImplemented
        return self.horizon == other.horizon and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.horizon, self.array.tobytes()))

    def __repr__(self):
        return f"IndexWindow(elements={self.elements!r}, horizon={self.horizon})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_mask(mask) -> "IndexWindow":
        """The window ``{n : mask[n]}`` with horizon ``len(mask) - 1``."""
        mask = np.array(mask, dtype=bool)
        window = IndexWindow(np.flatnonzero(mask), mask.size - 1)
        mask.flags.writeable = False
        window.__dict__["mask"] = mask      # the cached ``mask`` view
        return window

    @staticmethod
    def from_iterable(it: Iterable[int], horizon: int) -> "IndexWindow":
        arr = np.unique(np.asarray(list(it)))
        return IndexWindow(arr[(arr >= 0) & (arr <= horizon)], horizon)

    @staticmethod
    def residue(modulus: int, residue: int, horizon: int) -> "IndexWindow":
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        return IndexWindow(np.arange(residue % modulus, horizon + 1, modulus), horizon)

    @staticmethod
    def full(horizon: int) -> "IndexWindow":
        return IndexWindow(np.arange(horizon + 1), horizon)

    # -- views -------------------------------------------------------------

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only bool array of length horizon+1, True on the members."""
        m = np.zeros(self.horizon + 1, dtype=bool)
        m[self.array] = True
        m.flags.writeable = False
        return m

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.elements)

    @property
    def count(self) -> int:
        return self.array.size

    def __contains__(self, n: int) -> bool:
        return n in self.member_set

    def translate(self, m: int) -> "IndexWindow":
        """Shift every element by ``m >= 0``; horizon grows with it."""
        if m < 0:
            raise ValueError("translation must be >= 0")
        return IndexWindow(self.array + m, self.horizon + m)

    # -- serialization (header line then one decimal per line) -------------

    def to_text(self) -> str:
        lines = [f"horizon={self.horizon}"]
        lines.extend(str(e) for e in self.elements)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "IndexWindow":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("horizon="):
            raise ValueError("missing horizon= header")
        horizon = int(lines[0].split("=", 1)[1])
        return IndexWindow([int(ln) for ln in lines[1:]], horizon)


@dataclass(frozen=True)
class SyndeticCertificate:
    """Finite-horizon bounded-gaps evidence.

    Gaps are the differences of consecutive elements plus the gap from the
    left boundary 0 to the first element.  The trailing gap up to the horizon
    is a censored observation: it is reported (``tail_gap``) but never counted
    against the certificate, so a set cannot fail syndeticity merely by the
    window ending.  The certificate succeeds when the largest interior gap is
    at most ``gap_cap`` (a gap is only credibly bounded if the horizon is
    several times longer than it).
    """

    ok: bool
    max_gap: Optional[int]          # certified bound, None on failure
    largest_interior_gap: Optional[int]
    tail_gap: int
    gap_cap: int


def syndetic_certificate(window: IndexWindow,
                         gap_cap: Optional[int] = None) -> SyndeticCertificate:
    """Certify bounded gaps on the observed window.

    ``gap_cap`` defaults to ``horizon // 10``: at least ~10 recurrences of the
    largest gap must fit inside the horizon for the bound to count as
    evidence rather than accident.
    """
    if window.count == 0:
        raise ConfigurationError("no certificate for an empty window")
    h = window.horizon
    cap = gap_cap if gap_cap is not None else max(1, h // 10)
    a = window.array
    gaps = np.diff(a, prepend=0) if a[0] > 0 else np.diff(a)
    tail = h - int(a[-1])
    if not gaps.size:
        return SyndeticCertificate(False, None, None, tail, cap)
    interior = int(gaps.max())
    ok = interior <= cap
    return SyndeticCertificate(ok, interior if ok else None, interior, tail, cap)


def default_banach_schedule(horizon: int) -> tuple[int, ...]:
    """Window lengths H^(1/2), H^(2/3), H^(3/4); the largest is authoritative."""
    ls = sorted({max(1, int(horizon ** e)) for e in (0.5, 2.0 / 3.0, 0.75)})
    return tuple(l for l in ls if l <= horizon) or (max(1, horizon),)


@dataclass(frozen=True)
class DensityReport:
    """Lower/upper/Banach-type density estimates with their evidence.

    ``lower_est`` / ``upper_est`` are the min/max of the running density
    ``card(A & [0,N]) / (N+1)`` over ``N in [burn_in, H]``.  ``banach_upper_est``
    is the best sliding-window density at the largest schedule length,
    floored at ``upper_est`` so the chain

        ``lower_est <= upper_est <= banach_upper_est``

    holds for every report (a prefix [0, N] is itself a window of length
    N+1, so the prefix estimate is itself Banach-type evidence; the floor
    only repairs finite-scale inversions for front-loaded sets).
    Counting is exact; only the final ratios are floating.
    """

    lower_est: float
    upper_est: float
    banach_upper_est: float
    max_gap: Optional[int]
    burn_in: int
    schedule: tuple[int, ...]
    horizon: int
    running_density_curve: tuple[tuple[int, float], ...]
    banach_curve: tuple[tuple[int, float], ...]
    banach_raw: float = field(default=float("nan"))

    def __post_init__(self):
        if not (self.lower_est <= self.upper_est <= self.banach_upper_est + 1e-15):
            raise ValueError("density chain violated")


@lru_cache(maxsize=256)
def _curve_samples(burn_in: int, horizon: int, points: int = 64) -> np.ndarray:
    """The sample points of the running-density curve, as a read-only array."""
    ns = {burn_in, horizon}
    span = horizon - burn_in
    for i in range(1, points):
        ns.add(burn_in + int(span * (i / points) ** 2))
    out = np.array(sorted(ns), dtype=np.int64)
    out.flags.writeable = False
    return out


def density_report(window: IndexWindow, burn_in: Optional[int] = None,
                   schedule: Optional[Sequence[int]] = None) -> DensityReport:
    """Density estimation from the sorted member array and one rank table.

    ``rank[N] = card(A & [0, N])`` is the only horizon-length array (int32
    below horizon 2^31 - 1); everything else is read at the members.  The
    running density ``rank[N] / (N+1)`` rises only at a member and falls
    between members, so over ``[burn_in, H]`` its maximum is at ``burn_in``
    or at a member ``a_i``, where it is ``(i+1)/(a_i+1)``, and its minimum
    at ``burn_in``, at H or at ``a_i - 1``, where it is ``i/a_i``.  Sliding
    a window ``[j, j+L]`` right from a non-member start loses nothing, so the
    fullest one starts at a member ``<= H-L`` or at ``H-L``.  Every ratio is
    one float division of exact integers.
    """
    h = window.horizon
    if h == 0:
        raise ConfigurationError("degenerate window: horizon must be >= 1")
    if burn_in is None:
        burn_in = h // 10
    if schedule is None:
        schedule = default_banach_schedule(h)
    schedule = tuple(int(l) for l in schedule)
    if not schedule:
        raise ConfigurationError("empty window-length schedule")
    if any(l < 1 or l > h for l in schedule):
        raise ConfigurationError("schedule lengths must lie in [1, horizon]")
    if not 0 <= burn_in < h:
        raise ConfigurationError("burn_in must satisfy 0 <= burn_in < horizon")

    a = window.array
    count = a.size
    rank = np.cumsum(window.mask, dtype=np.int32 if h < 2 ** 31 - 1 else np.int64)
    i = np.arange(count, dtype=rank.dtype)
    first = int(np.searchsorted(a, burn_in))        # a[first:] >= burn_in
    after = int(rank[burn_in])                      # a[after:] > burn_in
    start = after / (burn_in + 1)
    ups = i[first:] + 1.0                           # exact below 2^53
    ups /= a[first:] + 1.0
    upper = float(ups.max(initial=start))
    lower = float((i[after:] / a[after:]).min(initial=min(start, count / (h + 1))))

    banach_curve = []
    for L in sorted(schedule):
        m = int(rank[h - L])                        # members <= H - L
        tail = count - (int(rank[h - L - 1]) if h > L else 0)   # in [H - L, H]
        fullest = int((rank[a[:m] + L] - i[:m]).max(initial=tail))
        banach_curve.append((L, fullest / (L + 1)))
    l_max = max(schedule)
    raw = dict(banach_curve)[l_max]
    banach = max(raw, upper)

    cert = syndetic_certificate(window) if count else None
    ns = _curve_samples(burn_in, h)
    curve = tuple(zip(ns.tolist(), (rank[ns] / (ns + 1)).tolist()))
    return DensityReport(
        lower_est=lower,
        upper_est=upper,
        banach_upper_est=banach,
        max_gap=cert.max_gap if cert else None,
        burn_in=burn_in,
        schedule=tuple(sorted(schedule)),
        horizon=h,
        running_density_curve=curve,
        banach_curve=tuple(banach_curve),
        banach_raw=raw,
    )


# ---------------------------------------------------------------------------
# finite-sums sets and the dual-family probe
# ---------------------------------------------------------------------------

# the largest (term count) x (sum) table ip_generate builds: 256 MiB of bools
_IP_TABLE_CELLS = 1 << 28


def ip_generate(generators: Sequence[int], depth: int, horizon: int) -> IndexWindow:
    """All sums of at most ``depth`` distinct generators, truncated at the horizon.

    Generators must be strictly increasing positive integers.  Row c of one
    bool array holds the sums of exactly c distinct generators; each
    generator ORs every row, shifted right by it, into the next row.  A
    table of more than ``_IP_TABLE_CELLS`` cells is refused before it is
    allocated.
    """
    gens = list(generators)
    if not gens or depth < 1:
        raise ConfigurationError("need a nonempty generator list and depth >= 1")
    if any(g <= prev for prev, g in zip([0] + gens, gens)):
        raise ConfigurationError("generators must be strictly increasing positives")
    gens = [g for g in gens if g <= horizon]
    rows, width = min(depth, len(gens)) + 1, max(min(horizon, sum(gens)) + 1, 0)
    if rows * width > _IP_TABLE_CELLS:
        raise ConfigurationError(
            f"finite-sums table of {rows} x {width} cells exceeds {_IP_TABLE_CELLS}; "
            "lower the horizon, the generators or the depth")
    reach = np.zeros((rows, width), dtype=bool)
    reach[0, :1] = True
    for g in gens:
        # read a copy of the old rows, so each generator is used at most once
        reach[1:, g:] |= reach[:-1, :width - g].copy()
    return IndexWindow(np.flatnonzero(reach[1:].any(axis=0)), horizon)


@dataclass(frozen=True)
class IpProbeResult:
    """Three-valued outcome of the dual-family membership probe.

    * ``certificate_k``: smallest k found with ``k*N0 & [0,H] <= A``
      (positive evidence; the only positive claim the probe ever makes);
    * ``witness``: strictly increasing generators whose complete finite-sums
      set within the horizon avoids A (negative evidence);
    * neither: inconclusive.
    """

    verdict: str                    # "arithmetic", "falsified", "inconclusive"
    certificate_k: Optional[int] = None
    witness: tuple[int, ...] = ()
    budget_used: int = 0

    @property
    def is_arithmetic(self) -> bool:
        return self.verdict == "arithmetic"

    @property
    def is_falsified(self) -> bool:
        return self.verdict == "falsified"


def arithmetic_certificate(window: IndexWindow) -> Optional[int]:
    """Smallest k found with ``k*N0 & [0,H] <= A`` (k up to sqrt(H) plus the
    gcd of the elements), or None.

    Only a member k whose ``H//k + 1`` multiples fit in the count is tried.
    """
    a, h = window.array, window.horizon
    if not a.size or a[0]:
        return None
    root = math.isqrt(h)
    candidates = a[1:np.searchsorted(a, root, "right")].tolist()
    g = int(np.gcd.reduce(a))
    if g > root:
        candidates.append(g)
    for k in candidates:
        if h // k < a.size and window.mask[::k].all():
            return k
    return None


def witness_floor(horizon: int) -> int:
    """Minimum generator count for a credible avoidance witness.

    Scales with the horizon: short avoidance prefixes are cheap to find even
    inside genuinely dual-family sets (block sums of any long generator list
    must eventually land in such a set, but only once the list is long and
    its total still fits the horizon).
    """
    return max(8, math.isqrt(horizon) // 2)


def ip_star_probe(window: IndexWindow, budget: int = 4) -> IpProbeResult:
    """Probe whether A meets every finite-sums set, on the observed window.

    Positive direction: scan for an arithmetic certificate ``k*N0 <= A``
    (k up to sqrt(H), plus the gcd of the elements).  Negative direction: up
    to ``budget`` greedy restarts, restart r from the r-th non-member >= 1,
    grow generators ``g_1 < g_2 < ...`` whose finite-sums set avoids A: one
    mask marks each t with t or t + (a subset sum) in A, and the next
    generator is the first unmarked t past the last.  A witness with at
    least :func:`witness_floor` generators falsifies.  Anything else is
    inconclusive: finite horizons cannot decide the dual family, so no
    positive claim is made beyond the arithmetic certificate.
    """
    if budget < 1:
        raise ConfigurationError("budget must be >= 1")
    k = arithmetic_certificate(window)
    if k is not None:
        return IpProbeResult("arithmetic", certificate_k=k)

    h = window.horizon
    mask = window.mask
    floor = witness_floor(h)
    non_members = np.nonzero(~mask[1:])[0] + 1      # candidates start at 1
    used = 0
    best: tuple[int, ...] = ()
    for used, g0 in enumerate(non_members[:budget].tolist(), start=1):
        gens = [g0]
        # blocked[t]: t + s in A for s = 0 or a sum of distinct generators;
        # exact for t <= h - sum(gens), the only t ever read
        blocked = mask.copy()
        blocked[:-g0] |= mask[g0:]
        while len(gens) < floor:
            lo = gens[-1] + 1
            free = ~blocked[lo:h - sum(gens) + 1]
            if not free.any():
                break
            g = lo + int(free.argmax())
            gens.append(g)
            blocked[:-g] |= blocked[g:]
        if len(gens) > len(best):
            best = tuple(gens)
        if len(gens) >= floor:
            return IpProbeResult("falsified", witness=tuple(gens), budget_used=used)
    return IpProbeResult("inconclusive", witness=best, budget_used=used)


# ---------------------------------------------------------------------------
# cut-shift-and-paste
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetPredicate:
    """A storable index predicate: residue classes mod m, union of intervals.

    ``n`` matches when ``n % modulus in residues`` or ``lo <= n <= hi`` for
    some span.  Residue classes and interval unions cover every partition
    used by the transform's consumers while staying serializable.
    """

    modulus: int = 1
    residues: frozenset = frozenset()
    spans: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if any(r < 0 or r >= self.modulus for r in self.residues):
            raise ValueError("residues must lie in [0, modulus)")
        if any(lo > hi or lo < 0 for lo, hi in self.spans):
            raise ValueError("spans must be ordered pairs of naturals")

    @staticmethod
    def everything() -> "SetPredicate":
        return SetPredicate(1, frozenset({0}), ())

    @staticmethod
    def residue_class(modulus: int, *residues: int) -> "SetPredicate":
        return SetPredicate(modulus, frozenset(residues), ())

    @staticmethod
    def intervals(*spans: tuple[int, int]) -> "SetPredicate":
        return SetPredicate(1, frozenset(), tuple(spans))

    def __contains__(self, n: int) -> bool:
        if self.residues and n % self.modulus in self.residues:
            return True
        return any(lo <= n <= hi for lo, hi in self.spans)

    def mask(self, horizon: int) -> np.ndarray:
        m = np.zeros(horizon + 1, dtype=bool)
        for r in self.residues:
            m[r::self.modulus] = True
        for lo, hi in self.spans:
            if lo <= horizon:
                m[lo:min(hi, horizon) + 1] = True
        return m


@dataclass(frozen=True)
class CutShiftPaste:
    """A covering family ``I_1..I_q`` of index predicates with shifts ``n_1..n_q``.

    Applying the instance to A yields ``union_j (n_j + A & I_j)``.
    """

    pieces: tuple[SetPredicate, ...]
    shifts: tuple[int, ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.shifts) or not self.pieces:
            raise ValueError("need q >= 1 pieces with matching shifts")
        if any(s < 0 for s in self.shifts):
            raise ValueError("shifts must be naturals")

    @property
    def q(self) -> int:
        return len(self.pieces)

    @property
    def max_shift(self) -> int:
        return max(self.shifts)


def cut_shift_paste(window: IndexWindow, inst: CutShiftPaste) -> IndexWindow:
    """``A -> union_j (n_j + A & I_j)`` on the extended window ``[0, H + max shift]``.

    The pieces must cover ``[0, H]`` (they may overlap); the result is exact
    on the extended horizon.
    """
    h = window.horizon
    pieces = [pred.mask(h) for pred in inst.pieces]
    if not np.logical_or.reduce(pieces).all():
        raise ConfigurationError("pieces do not cover [0, horizon]")
    out = np.zeros(h + inst.max_shift + 1, dtype=bool)
    for piece, shift in zip(pieces, inst.shifts):
        out[shift:shift + h + 1] |= window.mask & piece
    return IndexWindow.from_mask(out)


def dilate(window: IndexWindow, p: int) -> IndexWindow:
    """``A -> {p*n : n in A}`` with horizon ``p*H``."""
    if p < 1:
        raise ConfigurationError("dilation factor must be >= 1")
    return IndexWindow(window.array * p, p * window.horizon)


def contract(window: IndexWindow, p: int) -> IndexWindow:
    """``A -> {n : p*n in A}`` with horizon ``H // p``."""
    if p < 1:
        raise ConfigurationError("contraction factor must be >= 1")
    a = window.array
    return IndexWindow(a[a % p == 0] // p, window.horizon // p)
