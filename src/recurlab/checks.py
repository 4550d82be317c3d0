"""Theorem harness: finite-horizon checks with replayable outcomes.

Each check packages one computable statement about the zoo (a return-set
identity, a criterion-versus-simulation agreement, a closure property, a
series dichotomy) and reports Pass, Fail with a replayable witness, or
Skipped with a reason.  Sampling is always driven by an explicit seed that
the outcome embeds; rerunning a Fail with its inputs reproduces it.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .families import (CutShiftPaste, IndexWindow, SetPredicate, contract,
                       cut_shift_paste, density_report, ip_star_probe,
                       syndetic_certificate)
from .classify import Label, Thresholds, classify, window_evidence
from .operators import (Diagonal, Matrix, NumericalFailure, Operator, Power,
                        Scaled, SequenceLp, SparseVector, Vector,
                        WeightedBackwardShift, apply, diff_seminorm,
                        eigen_structure, power_apply, seminorm,
                        state_exact_eq)
from .orbits import (ReturnSetRecord, fractional_turns, growth_schedule,
                     periodic_orbit, return_sets)
from .rules import Rule
from .values import Phase, log2_abs, to_complex, vabs

__all__ = [
    "CheckOutcome", "kronecker_return_check", "matrix_criterion_check",
    "diagonal_criterion_check", "eigenvector_span_check",
    "power_consistency_check", "scaling_consistency_check",
    "shift_series_check", "cut_shift_paste_check",
    "minimality_separation_check", "translation_invariance_check",
    "kronecker_window", "Family", "named_families", "f_recurrence_check",
]

PASS, FAIL, SKIP = "pass", "fail", "skipped"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    status: str
    metrics: dict
    witness: Optional[dict] = None
    reason: Optional[str] = None
    fingerprint: str = ""
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.status == PASS


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


def _outcome(name, ok, metrics, witness=None, seed=None, parts=()):
    return CheckOutcome(
        name=name, status=PASS if ok else FAIL, metrics=metrics,
        witness=None if ok else (witness or {}),
        fingerprint=_fingerprint(name, *parts), seed=seed)


def _skip(name, reason, parts=(), seed=None):
    return CheckOutcome(name=name, status=SKIP, metrics={}, reason=reason,
                        fingerprint=_fingerprint(name, *parts), seed=seed)


# ---------------------------------------------------------------------------
# simultaneous-rotation return sets
# ---------------------------------------------------------------------------

def kronecker_window(turns: Sequence, eps: float, N: int) -> IndexWindow:
    """``{n <= N : max_j |lambda_j^n - 1| < eps}`` for λ_j = e^(2 pi i t_j).

    Rational angles are reduced in integer arithmetic (exact zeros); float
    angles go through one reduction per n, never iterated products.
    """
    members = np.ones(N + 1, dtype=bool)
    n = np.arange(N + 1, dtype=np.int64)
    for t in turns:
        if isinstance(t, Fraction):
            resid = (n * (t.numerator % t.denominator)) % t.denominator
            frac = resid / t.denominator
        else:
            frac = fractional_turns(n, float(t))
        dist = 2.0 * np.abs(np.sin(np.pi * frac))
        members &= dist < eps
    return IndexWindow.from_mask(members)


def kronecker_return_check(turns: Sequence, eps: float, N: int,
                           gap_cap: Optional[int] = None,
                           probe_budget: int = 2) -> CheckOutcome:
    """Return set of a unimodular tuple: bounded gaps and never falsified.

    For all-rational tuples with eps below the smallest nonzero distance the
    window must equal exactly the multiples of the combined order.
    """
    window = kronecker_window(turns, eps, N)
    cert = syndetic_certificate(window, gap_cap=gap_cap)
    probe = ip_star_probe(window, budget=probe_budget)
    ok = cert.ok and not probe.is_falsified
    metrics = {
        "count": window.count,
        "max_gap": cert.largest_interior_gap,
        "tail_gap": cert.tail_gap,
        "density": window.count / (N + 1),
        "probe": probe.verdict,
        "certificate_k": probe.certificate_k,
    }
    exact_d = None
    if all(isinstance(t, Fraction) for t in turns):
        d = math.lcm(*((t % 1).denominator for t in turns))
        min_nonzero = min((2.0 * abs(math.sin(math.pi * k / d))
                           for k in range(1, d)), default=2.0)
        if eps < min_nonzero:
            exact_d = d
            ok = ok and window == IndexWindow.residue(d, 0, N)
            metrics["exact_multiple"] = d
    witness = {"turns": [str(t) for t in turns], "eps": eps, "N": N,
               "window_head": window.elements[:8]}
    return _outcome("kronecker-return", ok, metrics, witness,
                    parts=(tuple(str(t) for t in turns), eps, N, exact_d))


# ---------------------------------------------------------------------------
# criterion-versus-simulation checks
# ---------------------------------------------------------------------------

def matrix_criterion_check(mat: Matrix, eps_grid: Sequence, N: int,
                           tolerance: float = 1e-10,
                           thresholds: Thresholds = Thresholds()) -> CheckOutcome:
    """Diagonalizable-with-unimodular-spectrum criterion versus simulation.

    The simulation side demands every basis vector classify at least
    uniformly recurrent; the two verdicts must agree.
    """
    parts = (mat.rows, tuple(map(str, eps_grid)), N, tolerance)
    try:
        eig = eigen_structure(mat, tolerance=tolerance)
    except NumericalFailure as err:
        return _skip("matrix-criterion", f"eigen failure: {err}", parts)
    criterion = eig.diagonalizable and eig.all_unimodular
    # one label per basis vector
    labels = [classify(return_sets(mat, SparseVector.unit(mat.space, k), eps_grid,
                                   (0,), N), thresholds).label
              for k in range(1, mat.n + 1)]
    simulated = all(lab >= Label.UNIFORMLY_RECURRENT for lab in labels)
    metrics = {
        "criterion": criterion,
        "diagonalizable": eig.diagonalizable,
        "unimodular": eig.all_unimodular,
        "eigenvalues": [f"{z:.6g}" for z in eig.eigenvalues],
        "labels": [lab.name for lab in labels],
    }
    witness = {"matrix": [[f"{z}" for z in row] for row in mat.rows]}
    return _outcome("matrix-criterion", criterion == simulated, metrics,
                    witness, parts=parts)


def diagonal_criterion_check(diag: Diagonal, sample_size: int,
                             eps_grid: Sequence, N: int,
                             tolerance: float = 1e-10,
                             thresholds: Thresholds = Thresholds()) -> CheckOutcome:
    """All-unimodular-entries criterion versus classification of finitely
    supported vectors (units and their sum)."""
    parts = (repr(diag), sample_size, tuple(map(str, eps_grid)), N)
    unimodular = True
    for k in range(1, sample_size + 1):
        lam = diag.entry(k)
        m = vabs(lam)
        if isinstance(m, Fraction):
            if m != 1:
                unimodular = False
        elif abs(float(m) - 1.0) > tolerance:
            unimodular = False
    space = diag.space
    vectors = [SparseVector.unit(space, k) for k in (1, 2, 3)]
    vectors.append(SparseVector.from_pairs(
        space, [(k, Fraction(1)) for k in (1, 2, 3)]))
    labels = []
    for x in vectors:
        recs = return_sets(diag, x, eps_grid, (0,), N)
        labels.append(classify(recs, thresholds).label)
    simulated = all(lab >= Label.UNIFORMLY_RECURRENT for lab in labels)
    metrics = {"criterion": unimodular, "labels": [lab.name for lab in labels]}
    return _outcome("diagonal-criterion", unimodular == simulated, metrics,
                    {"rule": repr(diag)}, parts=parts)


def eigenvector_span_check(op: Operator, eigenpairs: Sequence, coefficients,
                           eps_grid: Sequence, N: int,
                           tolerance: float = 1e-9,
                           thresholds: Thresholds = Thresholds()) -> CheckOutcome:
    """Sums of unimodular eigenvectors recur uniformly, and their return
    windows contain the simultaneous-rotation window at the budgeted radius.

    The budget comes from ``T^n x - x = sum (lambda_j^n - 1) a_j v_j``: once
    every eigenvalue power is within ``eps / sum |a_j| |v_j|`` of 1, the
    orbit point is within eps of x.
    """
    parts = (repr(op), tuple(map(str, coefficients)),
             tuple(map(str, eps_grid)), N)
    space = op.space
    lams, vecs = [], []
    for lam, v in eigenpairs:
        resid = diff_seminorm(space, 0, apply(op, v),
                              v.scale(lam))
        norm_v = float(seminorm(space, 0, v))
        if float(resid) > tolerance * max(norm_v, 1.0):
            return _skip("eigenvector-span",
                         f"eigenpair residual {float(resid):.3g}", parts)
        lams.append(lam)
        vecs.append(v)
    x = vecs[0].scale(coefficients[0])
    for a, v in zip(coefficients[1:], vecs[1:]):
        x = x.add(v.scale(a))
    budgetScale = sum(abs(to_complex(a)) * float(seminorm(space, 0, v))
                      for a, v in zip(coefficients, vecs))
    turns = [_turns_of(lam) for lam in lams]
    records = return_sets(op, x, eps_grid, (0,), N)
    verdict = classify(records, thresholds)
    contain_counts = []
    for rec in records:
        eps_prime = float(rec.epsilon) / budgetScale * (1 - 1e-9)
        kw = kronecker_window(turns, eps_prime, N)
        missing = int(np.count_nonzero(kw.mask & ~rec.window.mask))
        contain_counts.append((float(rec.epsilon), kw.count, missing))
    contained = all(lost == 0 for _, _, lost in contain_counts)
    ok = verdict.label >= Label.UNIFORMLY_RECURRENT and contained
    metrics = {"label": verdict.label.name, "containment": contain_counts,
               "budget_scale": budgetScale}
    return _outcome("eigenvector-span", ok, metrics,
                    {"coefficients": [str(c) for c in coefficients]}, parts=parts)


def _turns_of(lam) -> object:
    if isinstance(lam, Phase) and isinstance(lam.turns, Fraction):
        return lam.turns
    c = to_complex(lam)
    return math.atan2(c.imag, c.real) / (2 * math.pi) % 1.0


# ---------------------------------------------------------------------------
# power and scaling consistency
# ---------------------------------------------------------------------------

def power_consistency_check(op: Operator, x: Vector, p: int,
                            eps_grid: Sequence, N: int,
                            seminorms=(0,),
                            thresholds: Thresholds = Thresholds()) -> CheckOutcome:
    """Two layers: the exact window identity of taking operator powers, and
    class-level agreement of the verdicts.

    Layer one is the arithmetic identity ``(T^p)^n = T^(pn)``: the return
    window of the p-fold operator at horizon N//p must equal the p-contraction
    of the base window, element by element, at every epsilon.
    """
    parts = (repr(op), repr(x)[:80], p, tuple(map(str, eps_grid)), N)
    pop = Power(op, p)
    identity_ok = True
    mismatch = None
    recs_t = return_sets(op, x, eps_grid, seminorms, N)
    recs_tp = return_sets(pop, x, eps_grid, seminorms, N // p)
    for k, (rt, rtp) in enumerate(zip(recs_t, recs_tp)):
        expected = contract(rt.window, p)
        if rtp.window != expected:
            identity_ok = False
            got, want = rtp.window.array, expected.array
            mismatch = {"eps": str(eps_grid[k]),
                        "extra": np.setdiff1d(got, want)[:5].tolist(),
                        "missing": np.setdiff1d(want, got)[:5].tolist()}
            # the verdicts compare only the radii up to the first mismatch
            recs_t, recs_tp = recs_t[:k + 1], recs_tp[:k + 1]
            break
    label_t = classify(recs_t, thresholds).label
    label_tp = classify(recs_tp, thresholds).label
    labels_ok = label_t == label_tp
    metrics = {"identity": identity_ok, "label_T": label_t.name,
               "label_Tp": label_tp.name, "p": p}
    return _outcome("power-consistency", identity_ok and labels_ok, metrics,
                    mismatch or {"labels": (label_t.name, label_tp.name)},
                    parts=parts)


def scaling_consistency_check(op: Operator, x: Vector, factor,
                              eps_grid: Sequence, N: int,
                              seminorms=(0,),
                              thresholds: Thresholds = Thresholds()) -> CheckOutcome:
    """Class-level agreement of x under T and under a unimodular multiple.

    Exact periods may differ legitimately (a root-of-unity factor changes the
    period, an irrational one dissolves it into uniform recurrence), so the
    comparison accepts equality or both sides at least uniformly recurrent.
    """
    parts = (repr(op), repr(x)[:80], str(factor), tuple(map(str, eps_grid)), N)
    m = vabs(factor)
    if not (isinstance(m, Fraction) and m == 1) and abs(float(m) - 1.0) > 1e-12:
        return _skip("scaling-consistency", "factor is not unimodular", parts)
    recs_t = return_sets(op, x, eps_grid, seminorms, N)
    recs_s = return_sets(Scaled(op, factor), x, eps_grid, seminorms, N)
    lab_t = classify(recs_t, thresholds).label
    lab_s = classify(recs_s, thresholds).label
    ok = (lab_t == lab_s) or (lab_t >= Label.UNIFORMLY_RECURRENT
                              and lab_s >= Label.UNIFORMLY_RECURRENT)
    metrics = {"label_T": lab_t.name, "label_scaled": lab_s.name}
    return _outcome("scaling-consistency", ok, metrics,
                    {"factor": str(factor)}, parts=parts)


# ---------------------------------------------------------------------------
# weighted shift series
# ---------------------------------------------------------------------------

_FLOAT_MIN = sys.float_info.min        # the least normal float


def _log2_weight(w) -> float:
    """``log2 |w|``: ``math.log2`` of the float weight while that is a
    normal float, else ``log2_abs`` of the exact weight."""
    try:
        f = abs(float(w))
    except OverflowError:
        return log2_abs(w)
    return math.log2(f) if _FLOAT_MIN <= f < math.inf else log2_abs(w)


def shift_series_check(weights: Rule, support: IndexWindow,
                       divergence_threshold: float = 10.0,
                       tail_tol: float = 1e-9) -> CheckOutcome:
    """Dichotomy of ``sum over A of 1/(w_1 ... w_n)`` in log-safe arithmetic.

    A weight outside the normal float range enters through the log2 of its
    exact value, and the terms are capped so that no partial sum overflows.

    Diverging: partial sums cross the threshold inside the horizon.
    Converging: the last-half increment is below the tail tolerance; then the
    truncated vector ``x_A`` is built exactly (for exact weight rules) and,
    when A is the full index range, the backward-shift fixed-point residual
    must sit below the certified extrapolated tail.
    """
    parts = (weights.source, support.horizon, support.count,
             divergence_threshold)
    idx = support.array
    if not idx.size or idx[0] < 1:
        return _skip("shift-series", "support must lie in [1, H]", parts)
    top = int(idx[-1])
    try:
        w = weights.values(1, top)
    except (ArithmeticError, ValueError):
        w = None
    log2w = np.zeros(top + 1)
    if w is not None and np.all((np.abs(w, out=w) >= _FLOAT_MIN) & (w < math.inf)):
        log2w[1:] = np.fromiter(map(math.log2, w), np.float64, top)
    else:
        # walk n by n: a vanishing weight skips unless an error comes first
        for nu in range(1, top + 1):
            wv = weights(nu)
            if wv == 0:
                return _skip("shift-series", f"weight w_{nu} vanishes", parts)
            log2w[nu] = _log2_weight(wv)
    cumlog = np.cumsum(log2w)
    # no term above 2^cap: the partial sums of the terms stay finite
    cap = 1020 - len(idx).bit_length()
    terms = np.power(2.0, np.clip(-cumlog[idx], -1020, cap))
    sums = np.cumsum(terms)
    crossing = None
    over = np.nonzero(sums > divergence_threshold)[0]
    if over.size:
        crossing = int(idx[over[0]])
    half = len(terms) // 2
    tail_increment = float(sums[-1] - sums[half - 1]) if half >= 1 else float(sums[-1])
    metrics = {
        "partial_sum": float(sums[-1]),
        "tail_increment": tail_increment,
        "crossing_n": crossing,
        "terms": len(terms),
        "curve": [(int(idx[i]), float(sums[i]))
                  for i in range(0, len(terms), max(1, len(terms) // 32))],
    }
    if crossing is not None:
        metrics["verdict"] = "diverging"
        return _outcome("shift-series", True, metrics, parts=parts)
    if tail_increment >= tail_tol:
        metrics["verdict"] = "undecided"
        return _outcome("shift-series", False, metrics,
                        {"reason": "neither crossing nor Cauchy tail"}, parts=parts)
    metrics["verdict"] = "converging"
    ratios = terms[1:] / terms[:-1]
    r = float(np.max(ratios[-max(1, len(ratios) // 4):])) if ratios.size else 0.0
    r = min(r, 0.999)
    certified_tail = float(terms[-1]) * (r / (1.0 - r) if r > 0 else 1.0)
    certified_tail = max(certified_tail, float(terms[-1]))
    metrics["certified_tail"] = certified_tail
    # exact truncated vector and its fixed-point residual
    if weights.is_exact:
        members = support.mask
        prods = accumulate((Fraction(weights(nu)) for nu in range(1, top + 1)),
                           operator.mul)                # w_1 ... w_n
        pairs = [(nu, 1 / p) for nu, p in enumerate(prods, 1) if members[nu]]
    else:
        pairs = [(nu, 2.0 ** float(-cumlog[nu])) for nu in idx.tolist()]
    space = SequenceLp(2)
    x = SparseVector.from_pairs(space, pairs)
    shift = WeightedBackwardShift(weights)
    residual = float(diff_seminorm(space, 0, apply(shift, x), x))
    metrics["fixed_point_residual"] = residual
    full_range = support.count == top      # every n in [1, top] belongs
    ok = True
    if full_range:
        ok = residual <= certified_tail * (1 + 1e-12)
    return _outcome("shift-series", ok, metrics,
                    {"residual": residual, "tail": certified_tail}, parts=parts)


# ---------------------------------------------------------------------------
# Furstenberg families and their cut-shift-paste closure
# ---------------------------------------------------------------------------

def _sample_infinite(rng: np.random.Generator, horizon: int) -> IndexWindow:
    # sparse but horizon-spanning
    step = int(rng.integers(20, 120))
    jitter = rng.integers(0, step, size=horizon // step + 2)
    elems = [0] + [min(horizon, i * step + int(j))
                   for i, j in enumerate(jitter)]
    return IndexWindow.from_iterable(elems + [horizon], horizon)


def _sample_syndetic(rng: np.random.Generator, horizon: int) -> IndexWindow:
    g = int(rng.integers(2, 40))
    gaps = rng.integers(1, g + 1, size=2 * horizon // g + 4)
    elems = np.cumsum(gaps)
    return IndexWindow.from_iterable(
        [0, *elems[elems <= horizon].tolist()], horizon)


def _sample_lower(rng: np.random.Generator, horizon: int) -> IndexWindow:
    delta = float(rng.uniform(0.3, 0.6))
    mask = rng.random(horizon + 1) < delta
    mask[0] = True
    return IndexWindow.from_mask(mask)


def _sample_upper(rng: np.random.Generator, horizon: int) -> IndexWindow:
    delta = float(rng.uniform(0.4, 0.7))
    mask = rng.random(horizon + 1) < delta / 8
    head = rng.random(horizon // 3 + 1) < delta
    mask[: horizon // 3 + 1] |= head
    mask[[0, -1]] = True
    return IndexWindow.from_mask(mask)


def _sample_banach(rng: np.random.Generator, horizon: int) -> IndexWindow:
    delta = float(rng.uniform(0.3, 0.6))
    mask = np.zeros(horizon + 1, dtype=bool)
    block = max(1, int(horizon ** 0.75)) + int(rng.integers(0, horizon // 8))
    starts = rng.choice(max(1, horizon - block), size=3, replace=False)
    for s in starts:
        seg = rng.random(block) < delta
        mask[s: s + block] |= seg
    mask[[0, -1]] = True
    return IndexWindow.from_mask(mask)


def _infinite_violation(a, out, inst, slack):
    margin = out.count - a.count / inst.q
    ev = window_evidence(out, Fraction(0), Thresholds())
    return not (margin >= 0 and ev.recurrent), margin


def _syndetic_violation(a, out, inst, slack):
    s = inst.max_shift
    g = syndetic_certificate(a).largest_interior_gap or 0
    b = out.array
    interior = b[(b >= a.array[0] + s) & (b <= a.array[-1])]
    worst = int(np.diff(interior).max()) if interior.size > 1 else 0
    margin = (g + s) - worst
    return worst > g + s, margin


def _density_violation(field, a, out, inst, slack):
    pre_v = getattr(density_report(a), field)
    post_v = getattr(density_report(out), field)
    floor = pre_v / (2 * inst.q) - slack
    return post_v < floor, post_v - floor


@dataclass(frozen=True)
class Family:
    """A Furstenberg family at finite scale: a window is a member when the
    classifier's evidence holds at ``level`` (so the family is upward
    closed); ``sample`` draws members and ``violation`` measures how far a
    cut-shift-paste image falls out of it, as ``(violated, margin)``."""

    name: str
    level: Label
    sample: Callable[[np.random.Generator, int], IndexWindow]
    violation: Callable[[IndexWindow, IndexWindow, CutShiftPaste, float],
                        tuple[bool, float]]

    def __call__(self, window: IndexWindow, thresholds: Thresholds) -> bool:
        return window_evidence(window, Fraction(0), thresholds).holds(self.level)


def named_families() -> dict[str, Family]:
    """The one table of the five named families, by name."""
    return {f.name: f for f in (
        Family("infinite", Label.RECURRENT, _sample_infinite, _infinite_violation),
        Family("syndetic", Label.UNIFORMLY_RECURRENT, _sample_syndetic,
               _syndetic_violation),
        Family("lower-density", Label.FREQUENTLY_RECURRENT, _sample_lower,
               partial(_density_violation, "lower_est")),
        Family("upper-density", Label.UPPER_FREQUENTLY_RECURRENT, _sample_upper,
               partial(_density_violation, "upper_est")),
        Family("banach-density", Label.REITERATIVELY_RECURRENT, _sample_banach,
               partial(_density_violation, "banach_upper_est")))}


def f_recurrence_check(records: Sequence[ReturnSetRecord], family: Family,
                       thresholds: Thresholds = Thresholds()):
    """True iff the family's membership holds for every record's window."""
    rows = [(r.epsilon, family(r.window, thresholds)) for r in records]
    return all(ok for _, ok in rows), tuple(rows)


def _sample_instance(rng: np.random.Generator, horizon: int,
                     max_shift: int = 50) -> CutShiftPaste:
    q = int(rng.integers(1, 5))
    style = rng.integers(0, 2)
    if style == 0 or q == 1:
        pieces = tuple(SetPredicate.residue_class(q, r) for r in range(q))
    else:
        cuts = sorted(int(c) for c in rng.integers(1, horizon, size=q - 1))
        bounds = [0, *cuts, horizon]
        pieces = tuple(SetPredicate.intervals((bounds[i], bounds[i + 1]))
                       for i in range(q))
    shifts = tuple(int(s) for s in rng.integers(0, max_shift + 1, size=q))
    return CutShiftPaste(pieces, shifts)


def cut_shift_paste_check(family: str, trials: int, seed: int,
                          horizon: int = 20_000,
                          slack: float = 0.02) -> CheckOutcome:
    """Randomized closure check of one named family under cut-shift-paste.

    Violations counted: a syndetic member whose image has an interior gap
    above ``g + max_shift``; a density member whose image estimate drops
    below ``pre/(2q) - slack``; an infinite member whose image loses the
    horizon-spanning evidence.  The identity instance (q=1, shift 0) is
    verified to reproduce the input exactly on every trial.
    """
    fam = named_families().get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}")
    rng = np.random.default_rng(seed)
    violations = 0
    witness = None
    margins = []
    for trial in range(trials):
        a = fam.sample(rng, horizon)
        inst = _sample_instance(rng, horizon)
        out = cut_shift_paste(a, inst)
        ident = cut_shift_paste(a, CutShiftPaste((SetPredicate.everything(),), (0,)))
        if ident != a:
            violations += 1
            witness = {"trial": trial, "kind": "identity"}
            continue
        bad, margin = _csp_violation(fam, a, out, inst, slack)
        margins.append(margin)
        if bad:
            violations += 1
            if witness is None:
                witness = {"trial": trial, "kind": "closure", "q": inst.q,
                           "shifts": inst.shifts, "margin": margin}
    metrics = {"trials": trials, "violations": violations,
               "min_margin": min(margins) if margins else None}
    return _outcome(f"cut-shift-paste[{family}]", violations == 0, metrics,
                    witness, seed=seed, parts=(family, trials, seed, horizon))


def _csp_violation(family: Family, a: IndexWindow, out: IndexWindow,
                   inst: CutShiftPaste, slack: float):
    # every closure measure runs through here: perfbench/tracing.py times it by name
    return family.violation(a, out, inst, slack)


# ---------------------------------------------------------------------------
# separation of uniformly recurrent orbits from periodic points
# ---------------------------------------------------------------------------

def minimality_separation_check(op: Operator, x: Vector, y: Vector, N: int,
                                seminorm_index: int = 0,
                                floor: float = 1e-9) -> CheckOutcome:
    """The orbit of a (uniformly recurrent) vector never accumulates on a
    periodic orbit it does not already live on: the sampled distance floor
    must stay strictly positive."""
    parts = (repr(op), repr(x)[:60], repr(y)[:60], N)
    orbit = periodic_orbit(op, y)
    if orbit is None:
        return _skip("minimality-separation", "reference point is not exactly periodic",
                     parts)
    if any(state_exact_eq(x, z) for z in orbit):
        return _skip("minimality-separation", "x lies on the periodic orbit", parts)
    space = x.space
    best = math.inf
    arg = None
    for n in growth_schedule(N):
        z = power_apply(op, x, n)
        for r, w in enumerate(orbit):
            d = float(diff_seminorm(space, seminorm_index, z, w))
            if d < best:
                best, arg = d, (n, r)
    metrics = {"floor": best, "argmin": arg, "period": len(orbit)}
    return _outcome("minimality-separation", best > floor, metrics,
                    {"floor": best}, parts=parts)


# ---------------------------------------------------------------------------
# translation invariance of the density estimates
# ---------------------------------------------------------------------------

def translation_invariance_check(window: IndexWindow, m: int) -> CheckOutcome:
    """Shifting a window by m preserves its Banach-type window estimate
    exactly and its upper estimate up to the derived boundary slack.

    This is the set-arithmetic step that lets a return set inherited through
    ``N(x,V) + m`` keep its density class.
    """
    parts = (window.horizon, window.count, m)
    if window.horizon < 10 or window.count == 0:
        return _skip("translation-invariance", "degenerate window", parts)
    pre = density_report(window)
    shifted = window.translate(m)
    post = density_report(shifted, burn_in=pre.burn_in + m,
                          schedule=pre.schedule)
    raw_equal = post.banach_raw == pre.banach_raw
    slack = pre.upper_est * m / (pre.burn_in + m + 1) + 1e-12
    upper_ok = (post.upper_est <= pre.upper_est + 1e-15
                and post.upper_est >= pre.upper_est - slack)
    metrics = {
        "banach_pre": pre.banach_raw, "banach_post": post.banach_raw,
        "upper_pre": pre.upper_est, "upper_post": post.upper_est,
        "slack": slack,
    }
    return _outcome("translation-invariance", raw_equal and upper_ok, metrics,
                    {"m": m}, parts=parts)
