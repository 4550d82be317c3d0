"""Recurrence classification: return-set records to hierarchy labels.

A verdict is computed from return-set records over a decreasing epsilon grid
at one shared horizon.  Each record yields a stack of evidence predicates,
built cumulatively so the hierarchy chain

    periodic => dual-family certificate => bounded gaps => recurrent
    frequent => upper-frequent => reiterative => recurrent

holds on every emitted verdict by construction.  The label is the strongest
level whose evidence holds at every epsilon of the grid.  Exact periodicity
is claimed only from exact arithmetic; floating operators whose windows are
full arithmetic progressions are reported one level down with the
progression difference recorded as ``periodic_like``.

All predicates are monotone under window supersets (the upward closure that
makes a collection of return sets a Furstenberg-style family at finite
scale); recency in particular is an existential witness condition, so
enlarging a window can never destroy evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .families import (DensityReport, IndexWindow, SyndeticCertificate,
                       arithmetic_certificate, density_report,
                       syndetic_certificate)
from .operators import SparseVector, power_apply, BlockCycle
from .orbits import ReturnSetRecord
from .values import vabs

__all__ = [
    "Label", "Thresholds", "LevelEvidence", "RecurrenceVerdict", "classify",
    "RefutationCertificate", "blockcycle_rrec_refutation", "window_evidence",
]


class Label(IntEnum):
    NONE = 0
    RECURRENT = 1
    REITERATIVELY_RECURRENT = 2
    UPPER_FREQUENTLY_RECURRENT = 3
    FREQUENTLY_RECURRENT = 4
    UNIFORMLY_RECURRENT = 5
    IP_STAR_CERTIFIED = 6
    PERIODIC = 7


@dataclass(frozen=True)
class Thresholds:
    """Fixed, reported decision constants for the evidence predicates.

    The density cutoffs must satisfy ``delta_bd <= delta_up <= delta_low`` so
    the density chain stays coherent.  ``m_min`` is the minimum number of
    returns for a window to look infinite; recency demands the tail beyond
    the last return be at most ``censor_factor`` times a gap achievable by
    some (m_min+1)-element witness inside the window.
    """

    delta_low: float = 0.01
    delta_up: float = 0.01
    delta_bd: float = 0.01
    burn_in_frac: float = 0.1
    m_min: int = 20
    censor_factor: float = 2.0
    gap_cap_frac: float = 0.1

    def __post_init__(self):
        if not (0 < self.delta_bd <= self.delta_up <= self.delta_low):
            raise ValueError("need 0 < delta_bd <= delta_up <= delta_low")
        if self.m_min < 1 or self.censor_factor <= 0:
            raise ValueError("m_min >= 1 and censor_factor > 0 required")

    def burn_in(self, horizon: int) -> int:
        return min(horizon - 1, int(horizon * self.burn_in_frac))

    def gap_cap(self, horizon: int) -> int:
        return max(1, int(horizon * self.gap_cap_frac))


@dataclass(frozen=True)
class LevelEvidence:
    """Per-epsilon evidence stack with its supporting artifacts."""

    epsilon: Fraction
    recurrent: bool
    reiterative: bool
    upper_frequent: bool
    frequent: bool
    uniform: bool
    ip_star: bool
    full_ap: Optional[int]          # difference d when the window is d*N0 exactly
    report: Optional[DensityReport]
    certificate: Optional[SyndeticCertificate]
    arithmetic_k: Optional[int]

    def holds(self, label: Label) -> bool:
        return {
            Label.NONE: True,
            Label.RECURRENT: self.recurrent,
            Label.REITERATIVELY_RECURRENT: self.reiterative,
            Label.UPPER_FREQUENTLY_RECURRENT: self.upper_frequent,
            Label.FREQUENTLY_RECURRENT: self.frequent,
            Label.UNIFORMLY_RECURRENT: self.uniform,
            Label.IP_STAR_CERTIFIED: self.ip_star,
            Label.PERIODIC: self.full_ap is not None,
        }[label]


def _recency_ok(window: IndexWindow, horizon: int, th: Thresholds) -> bool:
    """Existential recency witness: some (m_min+1)-return subset has a gap
    at least tail/censor_factor.  Monotone under supersets."""
    if window.count <= th.m_min:
        return False
    last, anchor = int(window.array[-1]), int(window.array[th.m_min - 1])
    return (horizon - last) <= th.censor_factor * (last - anchor)


def _full_ap_difference(window: IndexWindow) -> Optional[int]:
    """d when the window is exactly d*N0 on [0, horizon], else None."""
    a = window.array
    if a.size < 2 or a[0] != 0:
        return None
    d = int(np.gcd.reduce(a))
    return d if a.size == window.horizon // d + 1 else None


def window_evidence(window: IndexWindow, epsilon: Fraction,
                    th: Thresholds) -> LevelEvidence:
    """Evaluate the cumulative evidence stack on one return window."""
    horizon = window.horizon
    recurrent = _recency_ok(window, horizon, th)
    report = None
    cert = None
    arith = None
    reiterative = upper_frequent = frequent = uniform = ip_star = False
    if recurrent:
        cert = syndetic_certificate(window, gap_cap=th.gap_cap(horizon))
        arith = arithmetic_certificate(window)
        report = density_report(window, burn_in=th.burn_in(horizon))
        reiterative = report.banach_upper_est > th.delta_bd
        upper_frequent = reiterative and report.upper_est > th.delta_up
        frequent = upper_frequent and report.lower_est > th.delta_low
        # an arithmetic certificate k bounds every gap by k, so it is itself
        # syndetic evidence even when the observational gap cap balks
        uniform = cert.ok or arith is not None
        ip_star = uniform and arith is not None
    return LevelEvidence(
        epsilon=epsilon, recurrent=recurrent, reiterative=reiterative,
        upper_frequent=upper_frequent, frequent=frequent, uniform=uniform,
        ip_star=ip_star, full_ap=_full_ap_difference(window),
        report=report, certificate=cert, arithmetic_k=arith)


@dataclass(frozen=True)
class RecurrenceVerdict:
    """Classification of one (operator, vector) pair over an epsilon grid."""

    label: Label
    period: Optional[int]
    periodic_like: Optional[int]
    evidence: tuple[LevelEvidence, ...]
    thresholds: Thresholds
    horizon: int
    epsilon_grid: tuple[Fraction, ...]

    def meets(self, label: Label) -> bool:
        return self.label >= label


def classify(records: Sequence[ReturnSetRecord],
             thresholds: Thresholds = Thresholds()) -> RecurrenceVerdict:
    """Strongest hierarchy label whose evidence holds at every grid epsilon.

    The records must share one horizon and carry pairwise distinct epsilons;
    the grid is treated as a set (sorted internally, largest first).
    """
    if not records:
        raise ValueError("need at least one return-set record")
    horizon = records[0].horizon
    if any(r.horizon != horizon for r in records):
        raise ValueError("records must share one horizon")
    eps = [r.epsilon for r in records]
    if len(set(eps)) != len(eps):
        raise ValueError("epsilon grid must be strictly decreasing (distinct)")
    ordered = sorted(records, key=lambda r: r.epsilon, reverse=True)

    evidence = tuple(window_evidence(r.window, r.epsilon, thresholds)
                     for r in ordered)

    periods = {r.exact_period for r in ordered}
    exact_period = periods.pop() if len(periods) == 1 else None
    all_ap = all(e.full_ap is not None for e in evidence)
    periodic_like = evidence[-1].full_ap if all_ap else None

    label = Label.NONE
    for cand in (Label.RECURRENT, Label.REITERATIVELY_RECURRENT,
                 Label.UPPER_FREQUENTLY_RECURRENT, Label.FREQUENTLY_RECURRENT,
                 Label.UNIFORMLY_RECURRENT, Label.IP_STAR_CERTIFIED):
        if all(e.holds(cand) for e in evidence):
            label = max(label, cand)
    if exact_period is not None and all_ap and label >= Label.IP_STAR_CERTIFIED:
        label = Label.PERIODIC
    return RecurrenceVerdict(
        label=label,
        period=exact_period if label == Label.PERIODIC else None,
        periodic_like=periodic_like,
        evidence=evidence,
        thresholds=thresholds,
        horizon=horizon,
        epsilon_grid=tuple(e.epsilon for e in evidence),
    )


# ---------------------------------------------------------------------------
# block-cycle refutation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefutationCertificate:
    """Window-density obstruction for a block-cycle orbit.

    At block index j the orbit coordinate at ``2^j + k`` equals
    ``2^k x_(2^j)`` whenever ``n = l 2^j + k``; once that exceeds twice the
    ball radius, at most j of every 2^j consecutive exponents can return,
    so the Banach-type window density is at most ``j / 2^j < delta/2``.
    """

    j: int
    delta: Fraction
    epsilon: Fraction
    window_length: int
    max_returns_per_window: int
    density_bound: Fraction
    coordinate_floor: Fraction      # min over k of 2^k |x_(2^j)|
    verified_exponents: tuple[int, ...]


def blockcycle_rrec_refutation(x: SparseVector, delta, epsilon=Fraction(1, 2),
                               check_samples: int = 8) -> Optional[RefutationCertificate]:
    """Certificate that the orbit's return windows are too sparse for
    window density ``delta``, or None when no block index qualifies.

    Requires a block start coordinate ``|x_(2^j)| > 1/j`` with
    ``j/2^j < delta/2`` and ``2^j`` past the tail index beyond which all
    coordinates are below ``epsilon``.  The blow-up inequality
    ``2^k |x_(2^j)| > 2 epsilon`` is verified exactly for the extremal k and
    by exact iteration on sampled exponents.
    """
    delta = Fraction(delta)
    epsilon = Fraction(epsilon)
    if not x.entries or not x.exact:
        return None
    tail_index = 0
    for i, v in x.entries:
        if vabs(v) >= epsilon:
            tail_index = max(tail_index, i)
    top = x.entries[-1][0]
    op = BlockCycle(x.space)
    coords = x.as_dict
    for j in range(1, top.bit_length() + 1):
        start = 1 << j
        if start > top:
            break
        amp = coords.get(start)
        if amp is None:
            continue
        if not (Fraction(j, 1 << j) < delta / 2 and (1 << j) > tail_index
                and vabs(amp) > Fraction(1, j)):
            continue
        # extremal case k = j decides the whole range j <= k < 2^j
        if not (Fraction(2) ** j) * vabs(amp) > 2 * epsilon:
            continue
        verified = []
        block = 1 << j
        for t in range(check_samples):
            k = j + (t * max(1, (block - 1 - j) // max(1, check_samples - 1)))
            k = min(k, block - 1)
            n = (t % 3) * block + k
            state = power_apply(op, x, n)
            got = state.as_dict.get(start + k, Fraction(0))
            if vabs(got) != (Fraction(2) ** k) * vabs(amp):
                raise AssertionError("blow-up identity failed under exact iteration")
            verified.append(n)
        return RefutationCertificate(
            j=j, delta=delta, epsilon=epsilon, window_length=block,
            max_returns_per_window=j, density_bound=Fraction(j, block),
            coordinate_floor=(Fraction(2) ** j) * vabs(amp),
            verified_exponents=tuple(verified))
    return None
