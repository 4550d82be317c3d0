"""The four workloads: seeded inputs, the calls into recurlab, and their checks.

A workload is a list of tasks.  Each task has

* ``run``: the timed part, which builds the program's objects from plain
  seeded parameters and calls the program;
* ``extract``: turns the program's output into plain data (untimed);
* ``check``: compares that plain data with an independent computation from
  :mod:`oracles` and raises ``CheckFailed`` on a mismatch (untimed).

Task sizes (block indices, horizons, support sizes) are fixed per task
slot; the seed only draws values inside a slot (offsets, coefficients,
angles, densities), so a pass costs about the same for every seed.

Program functions are always looked up on the ``recurlab`` modules at call
time, so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import shutil
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as orc
from oracles import expect

import recurlab as rl
from recurlab import cli as rl_cli
from recurlab import config as rl_config
from recurlab import families as rl_fam

@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    extract: Callable[[Any], Any]
    check: Callable[[Any], None]


class Workload:
    """A fixed list of tasks; one pass runs each task once, in order."""

    def __init__(self, tasks: list[Task]):
        self.tasks = tasks

    @property
    def operations(self) -> int:
        return len(self.tasks)

    def before_pass(self) -> None:
        pass

    def run_pass(self, reference: Callable[[], float]):
        """Run every task once, each right after ``reference()``.

        Returns (outputs, per-task CPU seconds, errors, reference seconds).
        """
        outputs, times, errors, refs = [], [], [], []
        clock = time.process_time
        for task in self.tasks:
            refs.append(reference())
            t0 = clock()
            try:
                out = task.run()
            except Exception as err:        # a failed operation is counted, not fatal
                out = None
                errors.append(f"{task.name}: {type(err).__name__}: {err}")
            times.append(clock() - t0)
            outputs.append(out)
        return outputs, times, errors, refs

    def extract(self, outputs) -> list:
        return [None if out is None else task.extract(out)
                for task, out in zip(self.tasks, outputs)]

    def check(self, extracted) -> list[str]:
        problems = []
        for task, data in zip(self.tasks, extracted):
            if data is None:
                continue
            try:
                task.check(data)
            except orc.CheckFailed as err:
                problems.append(f"{task.name}: {err}")
        return problems


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

L2 = rl.SequenceLp(2)

# rule text -> the same rule written in Python (float steps in the same order
# as the rule language evaluates them)
RULES = {
    "2": lambda n: Fraction(2),
    "3/2": lambda n: Fraction(3, 2),
    "(n+1)/n": lambda n: Fraction(n + 1, n),
    "1+1/n^2": lambda n: 1 + Fraction(1, n * n),
    "1/2^n": lambda n: Fraction(1, 2 ** n),
    "sqrt(2)*n": lambda n: math.sqrt(2.0) * float(n),
    "sqrt(3)*n": lambda n: math.sqrt(3.0) * float(n),
    "sqrt(5)*n": lambda n: math.sqrt(5.0) * float(n),
    "sqrt(7)*n/3": lambda n: math.sqrt(7.0) * float(n) / 3.0,
    "sqrt(11)*n/5": lambda n: math.sqrt(11.0) * float(n) / 5.0,
}


def rand_fraction(rng: random.Random, top: int = 9) -> Fraction:
    f = Fraction(rng.randint(1, top), rng.randint(1, top))
    return -f if rng.random() < 0.5 else f


def record_data(recs):
    return [(r.epsilon, r.window.elements, r.window.horizon, r.exact, r.exact_period)
            for r in recs]


def verdict_data(v):
    return (v.label.name, v.period, v.periodic_like)


def records_and_verdict(op, x, eps_list, seminorms, horizon):
    recs = [rl.return_set(op, x, e, seminorms, horizon) for e in eps_list]
    return recs, rl.classify(recs)


def extract_records(out):
    recs, verdict = out
    return record_data(recs), verdict_data(verdict)


def check_periodic(period: int):
    """Windows are exactly period*N0, decided exactly, labelled PERIODIC(period)."""
    def check(data):
        recs, (label, vperiod, _) = data
        for eps, elements, horizon, exact, exact_period in recs:
            expect(exact, f"eps={eps}: profile not exact")
            expect(exact_period == period,
                   f"eps={eps}: exact period {exact_period}, theory {period}")
            expect(elements == orc.multiples(period, horizon),
                   f"eps={eps}: window is not {period}*N0")
        orc.check_monotone([r[1] for r in recs])
        expect(label == "PERIODIC" and vperiod == period,
               f"verdict {label}/{vperiod}, theory PERIODIC/{period}")
    return check


def check_trivial_window(data):
    recs, (label, vperiod, _) = data
    for eps, elements, *_ in recs:
        expect(elements == (0,), f"eps={eps}: window {elements[:5]} is not {{0}}")
    expect(label != "PERIODIC", "a window {0} cannot be periodic")


# ---------------------------------------------------------------------------
# exact-orbits
# ---------------------------------------------------------------------------

def _bc_return_task(name, pairs, eps_list, horizon):
    period = orc.lcm(orc.block_size(i) for i, _ in pairs)

    def run():
        x = rl.SparseVector.from_pairs(L2, pairs)
        return records_and_verdict(rl.BlockCycle(), x, eps_list, (0,), horizon)
    return Task(name, run, extract_records, check_periodic(period))


def _bc_loop_task(name, step_pairs, apply_pairs):
    """Criterion-01 style: step and apply around whole block periods."""
    def run():
        bc = rl.BlockCycle()
        steps = []
        for k in step_pairs:
            idx, val, first = k, Fraction(1), None
            for s in range(1, orc.block_size(k) + 1):
                idx, w = bc.step(idx)
                val = val * w
                if first is None and idx == k:
                    first = s
            steps.append((k, first, idx, val))
        applies = []
        for k in apply_pairs:
            x = rl.SparseVector.unit(L2, k)
            y = x
            for _ in range(orc.block_size(k)):
                y = rl.apply(bc, y)
            applies.append((k, y.entries, rl.state_exact_eq(y, x)))
        return steps, applies

    def check(data):
        steps, applies = data
        for k, first, idx, val in steps:
            expect(first == orc.block_size(k) and idx == k and val == 1,
                   f"e_{k}: first return {first}, weight {val}")
        for k, entries, same in applies:
            expect(entries == ((k, Fraction(1)),) and same,
                   f"e_{k}: apply^period gave {entries[:2]}")
    return Task(name, run, lambda out: out, check)


def _period_search_task(name, vectors):
    def run():
        bc = rl.BlockCycle()
        return [rl.exact_state_period(bc, rl.SparseVector.from_pairs(L2, pairs))
                for pairs in vectors]

    def check(periods):
        for pairs, got in zip(vectors, periods):
            want = orc.lcm(orc.block_size(i) for i, _ in pairs)
            expect(got == want, f"support {[i for i, _ in pairs]}: period {got}, theory {want}")
    return Task(name, run, lambda out: out, check)


def _shift_task(name, rule_text, pairs, eps_list, horizon, sample_ns):
    weight = RULES[rule_text]
    coeffs = dict(pairs)

    def run():
        op = rl.WeightedBackwardShift(rl.Rule(rule_text))
        x = rl.SparseVector.from_pairs(L2, pairs)
        recs, verdict = records_and_verdict(op, x, eps_list, (0,), horizon)
        powers = []
        for n in sample_ns:
            y = x
            for _ in range(n):
                y = rl.apply(op, y)
            powers.append((n, rl.power_apply(op, x, n).entries, y.entries))
        return recs, verdict, powers

    def extract(out):
        recs, verdict, powers = out
        return record_data(recs), verdict_data(verdict), powers

    def check(data):
        recs, _, powers = data
        top = max(coeffs)
        dist2 = [orc.shift_orbit_distance2(coeffs, weight, n) for n in range(top + 1)]
        for eps, elements, horizon_, _, _ in recs:
            want = tuple(n for n in range(horizon_ + 1)
                         if dist2[min(n, top)] < eps * eps)
            expect(elements == want, f"eps={eps}: window differs from the exact "
                                     f"Fraction evaluation")
        orc.check_monotone([r[1] for r in recs])
        for n, by_power, by_steps in powers:
            want = orc.shift_power_entries(coeffs, weight, n)
            expect(by_power == by_steps == want, f"T^{n} x: power_apply, n-fold apply "
                                                 f"and the exact product disagree")
    return Task(name, run, extract, check)


def _rational_diag_task(name, rule_text, turns, pairs, horizon):
    orders = {i: (turns(i) % 1).denominator for i, _ in pairs}
    period = orc.lcm(orders.values())
    gaps = [abs(c) * 2 * math.sin(math.pi / orders[i]) for i, c in pairs if orders[i] > 1]
    top_eps = Fraction(0.9 * min(gaps)).limit_denominator(10 ** 6) if gaps else Fraction(1, 2)
    eps_list = [top_eps, top_eps / 3]

    def run():
        op = rl.Diagonal(turns=rl.Rule(rule_text))
        x = rl.SparseVector.from_pairs(L2, pairs)
        return records_and_verdict(op, x, eps_list, (0,), horizon)
    return Task(name, run, extract_records, check_periodic(period))


def _affine_task(name, p, q, b, degree_cap, coeffs, horizon):
    top = max(coeffs)
    top_eps = Fraction(0.9 * abs(float(coeffs[top])) * 2 * math.sin(math.pi / q))
    top_eps = top_eps.limit_denominator(10 ** 6)
    eps_list = [top_eps, top_eps / 4]

    def run():
        space = rl.EntireCoefficients(degree_cap)
        op = rl.AffineComposition(rl.rot(Fraction(p, q)), b, space)
        x = rl.SparseVector.from_pairs(space, coeffs.items())
        return records_and_verdict(op, x, eps_list, (0,), horizon)
    # the top coefficient moves by |a^(n d) - 1| >= 2 sin(pi/q) unless q | n
    return Task(name, run, extract_records, check_periodic(q))


def _refutation_task(name, amps, delta):
    pairs = [(1 << j, Fraction(a, j)) for j, a in amps]
    epsilon = Fraction(1, 2)
    tail = max(i for i, c in pairs if abs(c) >= epsilon)
    want_j = next(j for j, a in amps
                  if Fraction(j, 1 << j) < delta / 2 and (1 << j) > tail
                  and Fraction(a, j) > Fraction(1, j)
                  and (1 << j) * Fraction(a, j) > 2 * epsilon)

    def run():
        x = rl.SparseVector.from_pairs(L2, pairs)
        return rl.blockcycle_rrec_refutation(x, delta, epsilon, check_samples=8)

    def extract(cert):
        return (cert.j, cert.window_length, cert.max_returns_per_window,
                cert.density_bound, cert.coordinate_floor, cert.verified_exponents)

    def check(data):
        j, length, max_returns, density, floor, exponents = data
        amp = dict(pairs)[1 << want_j]
        expect(j == want_j, f"certificate at block {j}, theory {want_j}")
        expect(length == 1 << j and max_returns == j
               and density == Fraction(j, 1 << j) < delta / 2,
               "certificate constants disagree with j/2^j")
        expect(floor == (1 << j) * abs(amp), "coordinate floor is not 2^j |x_(2^j)|")
        expect(len(exponents) == 8 and all(n % (1 << j) >= j for n in exponents),
               "verified exponents outside the blow-up range")
    return Task(name, run, extract, check)


def exact_orbits(seed: int) -> Workload:
    rng = random.Random(seed)
    tasks = []
    # block-cycle unit vectors, one per block size
    for j in (9, 10, 11):
        k = (1 << j) + rng.randrange(1 << j)
        tasks.append(_bc_return_task(f"bc-unit-j{j}", [(k, Fraction(1))],
                                     [Fraction(1, 2), Fraction(1, 10)], 25 << j))
    # mixed vectors: one index per block, so the period is the lcm of block sizes
    for slot, blocks in enumerate(((0, 3, 7, 10), (2, 5, 9))):
        pairs = [((1 << j) + rng.randrange(1 << j), rand_fraction(rng)) for j in blocks]
        low = min(abs(c) for _, c in pairs)
        period = orc.lcm(orc.block_size(i) for i, _ in pairs)
        tasks.append(_bc_return_task(f"bc-mixed-{slot}", pairs, [low, low / 3],
                                     25 * period))
    tasks.append(_bc_loop_task(
        "bc-step-loops",
        [(1 << j) + rng.randrange(1 << j) for j in (8, 9, 10, 10, 11, 11)],
        [(1 << j) + rng.randrange(1 << j) for j in (6, 7, 8)]))
    tasks.append(_period_search_task("period-search", [
        [((1 << j) + rng.randrange(1 << (j - 4)), Fraction(1))] for j in (18, 21, 24)
    ] + [[((1 << j) + rng.randrange(1 << j), rand_fraction(rng)) for j in (3, 12, 20)]]))
    for slot, rule in enumerate(("3/2", "(n+1)/n", "1+1/n^2")):
        support = sorted(rng.sample(range(1, 11), 4))
        pairs = [(i, rand_fraction(rng)) for i in support]
        eps_list = [Fraction(rng.randint(5, 20), 10), Fraction(rng.randint(1, 4), 10)]
        tasks.append(_shift_task(f"shift-{slot}", rule, pairs, eps_list, 1500,
                                 sorted(rng.sample(range(1, 13), 3))))
    # rational rotations: order 64 from 1/2^n at index 6, order 360 from k*n/360
    pairs = [(6, rand_fraction(rng))] + [(i, rand_fraction(rng))
                                         for i in sorted(rng.sample(range(1, 6), 2))]
    tasks.append(_rational_diag_task("diag-dyadic", "1/2^n", RULES["1/2^n"], pairs, 64 * 40))
    k = rng.choice([1, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    pairs = [(1, rand_fraction(rng)), (rng.randint(2, 9), rand_fraction(rng))]
    tasks.append(_rational_diag_task("diag-360", f"{k}*n/360",
                                     lambda n: Fraction(k * n, 360), pairs, 360 * 30))
    for slot, q in enumerate((7, 11)):
        p = rng.randrange(1, q)
        degree = rng.randint(2, 5)
        coeffs = {d: rand_fraction(rng) for d in range(degree + 1)}
        tasks.append(_affine_task(f"affine-{slot}", p, q, rand_fraction(rng), 6,
                                  coeffs, 20000))
    amps = [(j, rng.choice((2, 3))) for j in range(1, 12)]
    tasks.append(_refutation_task("rrec-refutation", amps,
                                  rng.choice((Fraction(1, 10), Fraction(1, 16),
                                              Fraction(1, 20)))))
    return Workload(tasks)


# ---------------------------------------------------------------------------
# float-orbits
# ---------------------------------------------------------------------------

def _irrational_diag_task(name, rule_text, pairs, eps_list, horizon):
    turns = RULES[rule_text]

    def run():
        op = rl.Diagonal(turns=rl.Rule(rule_text))
        x = rl.SparseVector.from_pairs(L2, pairs)
        return records_and_verdict(op, x, eps_list, (0,), horizon)

    def check(data):
        recs, (label, _, _) = data
        dist = orc.diagonal_distances([turns(i) for i, _ in pairs],
                                      [c for _, c in pairs], horizon)
        # the program reduces n*theta in float64, an error that grows with n
        band = 1e-9 * max(1.0, horizon / 1e5)
        for eps, elements, _, _, _ in recs:
            orc.check_window_against(elements, dist, float(eps), band, f"eps={eps}")
        orc.check_monotone([r[1] for r in recs])
        expect(label != "PERIODIC", "float data labelled PERIODIC")
    return Task(name, run, extract_records, check)


def _conjugated_task(name, S, thetas, x_pairs, eps_list, horizon):
    dim = S.shape[0]
    D = np.diag([np.exp(2j * np.pi * t) for t in thetas])
    arr = S @ D @ np.linalg.inv(S)
    rows = tuple(tuple(complex(v) for v in row) for row in arr)

    def run():
        op = rl.Matrix(rows)
        x = rl.SparseVector.from_pairs(rl.FiniteDim(dim), x_pairs)
        return records_and_verdict(op, x, eps_list, (0,), horizon)

    def check(data):
        recs, (label, _, _) = data
        x = np.zeros(dim, dtype=np.complex128)
        for i, c in x_pairs:
            x[i - 1] = float(c)
        dist = orc.conjugated_distances(S, thetas, x, horizon)
        for eps, elements, _, _, _ in recs:
            # eig of the rounded matrix moves each angle by ~1e-15 turns, which
            # n <= 10^6 steps amplify to ~1e-9; the band covers that
            orc.check_window_against(elements, dist, float(eps), 1e-6, f"eps={eps}")
        orc.check_monotone([r[1] for r in recs])
        expect(label != "PERIODIC", "float data labelled PERIODIC")
    return Task(name, run, extract_records, check)


def _jordan_task(name, lam, b, eps_list, horizon):
    def run():
        op = rl.Matrix(((complex(lam), 1 + 0j), (0j, complex(lam))))
        x = rl.SparseVector.from_pairs(rl.FiniteDim(2), [(2, b)])
        return records_and_verdict(op, x, eps_list, (0,), horizon)
    # (T^n x - x)_1 = n lam^(n-1) b, so every n >= 1 is at distance >= |b| > eps
    return Task(name, run, extract_records, check_trivial_window)


def _row_rotation_task(name, seminorms, eps_list, horizon):
    def run():
        return records_and_verdict(rl.RowRotation(), rl.RowState(0), eps_list,
                                   seminorms, horizon)

    def check(data):
        recs, _ = data
        dist = [max(orc.row_pattern_distance(n, i) for i in seminorms)
                for n in range(horizon + 1)]
        for eps, elements, _, _, _ in recs:
            want = tuple(n for n, d in enumerate(dist) if d < eps)
            expect(elements == want, f"eps={eps}: window differs from the exact "
                                     f"seminorm evaluation")
        orc.check_monotone([r[1] for r in recs])
    return Task(name, run, extract_records, check)


def _growth_task(name, index, horizon):
    def run():
        return rl.orbit_growth(rl.RowRotation(), rl.RowState(0), index, horizon)

    def check(data):
        samples, growing = data
        for n, v in samples:
            expect(v == orc.row_pattern_seminorm(n, index),
                   f"p_{index}(T^{n} x) = {v}, exact {orc.row_pattern_seminorm(n, index)}")
        expect(growing, "row-rotation orbit not reported as growing")
    return Task(name, run, lambda g: (g.samples, g.growing), check)


def _power_bound_task(name, rule_text, vectors, jordan_b, horizon):
    def run():
        diag = rl.Diagonal(turns=rl.Rule(rule_text))
        iso = rl.power_bounded_probe(
            diag, [rl.SparseVector.from_pairs(L2, v) for v in vectors], horizon)
        jordan = rl.Matrix(((1 + 0j, 1 + 0j), (0j, 1 + 0j)))
        x = rl.SparseVector.from_pairs(rl.FiniteDim(2), [(2, jordan_b)])
        grow = rl.power_bounded_probe(jordan, [x], horizon)
        return iso, grow

    def extract(out):
        return [(v.equibounded, v.bound, v.witness_n, v.witness_index) for v in out]

    def check(data):
        (iso_ok, iso_bound, _, _), (grow_ok, grow_bound, wn, wi) = data
        expect(iso_ok and iso_bound == 1.0, "a unimodular diagonal is an isometry")
        # |T^n x| / |x| = sqrt(n^2 + 1) increases, so the argmax is the horizon
        expect(not grow_ok and wn == horizon and wi == 0
               and abs(grow_bound - math.sqrt(horizon ** 2 + 1)) <= 1e-9 * grow_bound,
               f"Jordan witness n={wn}, ratio {grow_bound}")
    return Task(name, run, extract, check)


def _net_task(name, jordan_b, jordan_n, q, p, rot_n):
    jordan_eps = [0.5 * abs(float(jordan_b)), 0.9 * abs(float(jordan_b))]
    chord = 2 * math.sin(math.pi / q)
    rot_eps = [0.3 * chord, 0.8 * chord]
    angle = 2 * math.pi * p / q

    def run():
        jordan = rl.Matrix(((1 + 0j, 1 + 0j), (0j, 1 + 0j)))
        x = rl.SparseVector.from_pairs(rl.FiniteDim(2), [(2, jordan_b)])
        spread = rl.totally_bounded_probe(jordan, x, jordan_n, jordan_eps)
        c, s = math.cos(angle), math.sin(angle)
        rot = rl.Matrix(((complex(c), complex(-s)), (complex(s), complex(c))))
        e1 = rl.SparseVector.unit(rl.FiniteDim(2), 1)
        compact = rl.totally_bounded_probe(rot, e1, rot_n, rot_eps)
        return spread, compact

    def check(data):
        spread, compact = data
        # Jordan orbit points are |b| apart: every point opens a new center
        for _, rows in spread:
            expect(all(count == n + 1 for n, count in rows), f"Jordan net {rows}")
        # a rotation of order q visits q points, 2 sin(pi/q) apart
        for _, rows in compact:
            expect(all(count == min(n + 1, q) for n, count in rows),
                   f"order-{q} rotation net {rows}")
    return Task(name, run, lambda out: tuple(r.counts for r in out), check)


# eigenvector bases, fixed per slot so that the window density depends on
# the radius and not on the seed (condition numbers about 1.5 and 2.1)
BASES = {2: np.array([[3, 1], [-1, 2]], dtype=np.complex128),
         3: np.array([[3, 1, 0], [1, 4, -1], [0, 2, 3]], dtype=np.complex128)}


def float_orbits(seed: int) -> Workload:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    irrational = ("sqrt(2)*n", "sqrt(3)*n", "sqrt(5)*n", "sqrt(7)*n/3", "sqrt(11)*n/5")
    tasks = []
    # amplitudes fixed per slot: the window density then depends on the
    # radius only, not on the (seeded) irrational angle
    for slot, (amps, horizon) in enumerate((({1: 1, 2: Fraction(1, 2)}, 1_000_000),
                                            ({2: 1, 3: Fraction(3, 4), 5: Fraction(1, 2)},
                                             300_000))):
        rule = rng.choice(irrational)
        pairs = sorted(amps.items())
        norm = math.sqrt(sum(float(c) ** 2 for _, c in pairs))
        eps_list = [Fraction(norm * 0.6).limit_denominator(1000),
                    Fraction(norm * 0.3).limit_denominator(1000)]
        tasks.append(_irrational_diag_task(f"diag-irrational-{slot}", rule, pairs,
                                           eps_list, horizon))
    for slot, (dim, horizon) in enumerate(((2, 1_000_000), (3, 200_000))):
        thetas = [float(t) for t in nrng.random(dim)]
        x_pairs = [(1, Fraction(1))]
        tasks.append(_conjugated_task(f"matrix-unimodular-{slot}", BASES[dim], thetas,
                                      x_pairs, [Fraction(1, 2), Fraction(1, 5)], horizon))
    for slot, lam in enumerate((1, -1)):
        b = Fraction(rng.choice((1, 3, 5, 7)), 4)
        tasks.append(_jordan_task(f"jordan-{slot}", lam, b, [b / 2, b / 5], 4000))
    seminorms = tuple(sorted(rng.sample((1, 2, 3, 4, 5), 2)))
    tasks.append(_row_rotation_task("row-rotation", seminorms,
                                    [Fraction(3, 32), Fraction(3, 512)], 1 << 15))
    tasks.append(_growth_task("row-growth", rng.randint(1, 5), 200_000))
    vectors = [[(i, rand_fraction(rng)) for i in sorted(rng.sample(range(1, 8), 3))]
               for _ in range(3)]
    tasks.append(_power_bound_task("power-bounded", rng.choice(irrational), vectors,
                                   Fraction(rng.choice((1, 3, 5)), 2), 2000))
    q = rng.choice((5, 6, 8, 9, 10, 12))
    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
    tasks.append(_net_task("nets", Fraction(rng.choice((1, 3, 5)), 4), 360, q, p, 600))
    return Workload(tasks)


# ---------------------------------------------------------------------------
# window-calculus
# ---------------------------------------------------------------------------

def _structured(kind: str, param: int, nrng: np.random.Generator,
                horizon: int) -> list[int]:
    """A seeded window of a fixed shape; ``param`` fixes its density."""
    if kind in ("sparse", "dense"):         # param: expected members per 1000
        mask = nrng.random(horizon + 1) < param / 1000
    elif kind == "residue":                 # param: modulus; 0 mod param plus one class
        mask = np.zeros(horizon + 1, dtype=bool)
        mask[::param] = True
        mask[int(nrng.integers(1, param))::param] = True
    else:                                   # gap-sampled, param: largest gap
        elems = np.cumsum(nrng.integers(1, param + 1, size=horizon))
        mask = np.zeros(horizon + 1, dtype=bool)
        mask[elems[elems <= horizon]] = True
    mask[0] = True
    return np.nonzero(mask)[0].tolist()


def _random_pieces(nrng: np.random.Generator, horizon: int):
    q = int(nrng.integers(2, 5))
    if nrng.random() < 0.5:
        pieces = [("residue", (q, frozenset({r}))) for r in range(q)]
    else:
        cuts = sorted(int(c) for c in nrng.integers(1, horizon, size=q - 1))
        bounds = [0, *cuts, horizon]
        pieces = [("spans", ((bounds[i], bounds[i + 1]),)) for i in range(q)]
    shifts = [int(s) for s in nrng.integers(0, 51, size=q)]
    return pieces, shifts


def _to_predicate(piece):
    kind, data = piece
    if kind == "residue":
        modulus, residues = data
        return rl.SetPredicate.residue_class(modulus, *sorted(residues))
    return rl.SetPredicate.intervals(*data)


def _window_task(name, elements, horizon, pieces, shifts, factor):
    def run():
        w = rl.IndexWindow.from_iterable(elements, horizon)
        report = rl.density_report(w)
        cert = rl.syndetic_certificate(w)
        probe = rl.ip_star_probe(w, budget=3)
        inst = rl_fam.CutShiftPaste(tuple(_to_predicate(p) for p in pieces), tuple(shifts))
        pasted = rl.cut_shift_paste(w, inst)
        return (w, report, cert, probe, pasted, rl.dilate(w, factor),
                rl.contract(w, factor))

    def extract(out):
        w, rep, cert, probe, pasted, dil, con = out
        return (w.elements, (rep.lower_est, rep.upper_est, rep.banach_upper_est,
                             rep.burn_in, rep.banach_curve, rep.running_density_curve),
                (cert.ok, cert.largest_interior_gap, cert.tail_gap, cert.gap_cap),
                (probe.verdict, probe.certificate_k, probe.witness, probe.budget_used),
                (pasted.elements, pasted.horizon), (dil.elements, dil.horizon),
                (con.elements, con.horizon))

    def check(data):
        elems, rep, cert, probe, pasted, dil, con = data
        expect(elems == tuple(sorted(set(elements))), "window elements")
        lower, upper, banach, burn_in, curve, running = rep
        expect(lower <= upper <= banach, "density chain lower <= upper <= banach broken")
        lo, hi = orc.running_extrema(elems, horizon, burn_in)
        expect((lower, upper) == (lo, hi), f"running extrema {lower, upper}, recount {lo, hi}")
        for n, value in running:
            expect(value == orc.prefix_count(elems, n) / (n + 1), f"running density at {n}")
        for length, value in curve:
            expect(value == orc.window_max_density(elems, horizon, length),
                   f"window density at length {length}")
        expect(banach == max(dict(curve)[max(dict(curve))], upper), "banach estimate")
        ok, interior, tail, cap = cert
        gap_list, tail_gap = orc.gaps(elems, horizon)
        expect(interior == (max(gap_list) if gap_list else None) and tail == tail_gap
               and ok == (bool(gap_list) and max(gap_list) <= cap), "gap certificate")
        verdict, k, witness, used = probe
        members = set(elems)
        if verdict == "arithmetic":
            expect(all(m in members for m in range(0, horizon + 1, k)),
                   f"k={k}: k*N0 is not inside the window")
            smaller = [d for d in range(1, min(k, math.isqrt(horizon) + 1))
                       if all(m in members for m in range(0, horizon + 1, d))]
            expect(not smaller, f"certificate {k} is not the smallest: {smaller} work")
        elif verdict == "falsified":
            floor = max(8, math.isqrt(horizon) // 2)
            expect(len(witness) >= floor and list(witness) == sorted(set(witness)),
                   "falsifying witness too short or not increasing")
            sums = orc.subset_sum_bits(witness, horizon)
            expect(sum(witness) <= horizon and not sums & orc.set_bits(elems, horizon),
                   "a finite sum of the witness lands in the window")
        else:
            expect(verdict == "inconclusive" and 1 <= used <= 3, f"probe {verdict}/{used}")
        expect(pasted == (orc.cut_shift_paste(elems, pieces, shifts), horizon + max(shifts)),
               "cut-shift-paste differs from the element-wise union")
        expect(dil == (tuple(factor * e for e in elems), factor * horizon), "dilation")
        expect(con == (tuple(e // factor for e in elems if e % factor == 0),
                       horizon // factor), "contraction")
    return Task(name, run, extract, check)


def _csp_check_task(name, family, trials, seed, horizon):
    def run():
        return rl.cut_shift_paste_check(family, trials, seed, horizon)

    def check(data):
        status, metrics = data
        expect(status == "pass" and metrics["violations"] == 0
               and metrics["trials"] == trials, f"closure check {status}: {metrics}")
    return Task(name, run, lambda out: (out.status, out.metrics), check)


def _kronecker_task(name, turns, eps_list, horizon):
    exact = all(isinstance(t, Fraction) for t in turns)

    def run():
        return [(rl.kronecker_window(turns, e, horizon),
                 rl.kronecker_return_check(turns, e, horizon)) for e in eps_list]

    def extract(out):
        return [(w.elements, o.status, o.metrics) for w, o in out]

    def check(data):
        n = np.arange(horizon + 1, dtype=np.int64)
        dist = np.zeros(horizon + 1)
        for t in turns:
            if isinstance(t, Fraction):
                f = (n * t.numerator % t.denominator) / t.denominator
            else:
                f = orc.turn_fraction_exact(t, n)
            dist = np.maximum(dist, orc.chord(f))
        for eps, (elements, status, metrics) in zip(eps_list, data):
            orc.check_window_against(elements, dist, eps, 1e-9, f"eps={eps}")
            gap_list, tail = orc.gaps(elements, horizon)
            expect(metrics["count"] == len(elements) and metrics["tail_gap"] == tail
                   and metrics["max_gap"] == (max(gap_list) if gap_list else None),
                   "check metrics disagree with the window")
            expect(status == "pass" and metrics["probe"] != "falsified",
                   f"rotation return set not certified: {status} {metrics['probe']}")
            if exact:
                d = orc.lcm(t.denominator for t in turns)
                if eps < min(2 * math.sin(math.pi * k / d) for k in range(1, d)):
                    expect(elements == orc.multiples(d, horizon)
                           and metrics.get("exact_multiple") == d,
                           f"window is not {d}*N0")
        orc.check_monotone([d[0] for d in data])
    return Task(name, run, extract, check)


_QUADRATIC = (math.sqrt(2) % 1, math.sqrt(3) % 1, math.sqrt(5) % 1,
              (1 + math.sqrt(5)) / 2 % 1, math.sqrt(7) % 1)


WINDOW_SHAPES = (("sparse", 20), ("dense", 500), ("residue", 6), ("gap-sampled", 30),
                 ("sparse", 20), ("dense", 300), ("residue", 10), ("gap-sampled", 12),
                 ("sparse", 20))


def window_calculus(seed: int) -> Workload:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    tasks = []
    horizon = 20_000
    for slot, (kind, param) in enumerate(WINDOW_SHAPES):
        elements = _structured(kind, param, nrng, horizon)
        pieces, shifts = _random_pieces(nrng, horizon)
        tasks.append(_window_task(f"window-{kind}-{slot}", elements, horizon, pieces,
                                  shifts, rng.randint(2, 5)))
    for family in ("infinite", "syndetic", "lower-density", "upper-density",
                   "banach-density"):
        tasks.append(_csp_check_task(f"csp-{family}", family, 40,
                                     rng.randrange(1 << 30), 10_000))
    # Return sets of rotations meet every finite-sums set, so the IP* probe
    # must not falsify; by pigeonhole on partial sums, any witness with at
    # least witness_floor(H) generators has a block sum in the window when
    # the combined order d is at most that floor (111 at H = 50000) ...
    for slot in range(2):
        rational = [Fraction(rng.randint(1, 9), rng.randint(2, 10)) for _ in range(2)]
        tasks.append(_kronecker_task(f"kronecker-rational-{slot}", rational,
                                     [0.5, 0.05], 50_000))
    # ... or, for one irrational turn, when 2 pi / floor < eps (158 at 10^5).
    # The quadratic irrationals are badly approximable, so their windows are
    # syndetic at every radius; the seed moves the radii and the horizon.
    for slot, turn in enumerate(_QUADRATIC):
        eps = [0.5 * rng.uniform(0.95, 1.05), 0.1 * rng.uniform(0.95, 1.05)]
        tasks.append(_kronecker_task(f"kronecker-quadratic-{slot}", [turn], eps,
                                     rng.randint(90_000, 100_000)))
    return Workload(tasks)


# ---------------------------------------------------------------------------
# zoo: the committed config through the CLI, in process
# ---------------------------------------------------------------------------

def _read_config(text: str):
    """[kind name] sections of key = value lines, '#' comments."""
    sections = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            head = line[1:-1].split(None, 1)
            sections.append((head[0], head[1] if len(head) > 1 else "", {}))
        else:
            key, value = line.split("=", 1)
            sections[-1][2][key.strip()] = value.strip()
    return sections


def _sparse_pairs(literal: str):
    body = literal.strip()[len("vec(sparse:"):-1]
    return [(int(i), Fraction(v)) for i, v in
            (item.split(":") for item in body.split(",") if item.strip())]


def _read_window(text: str):
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("horizon="))
    return int(lines[start].split("=")[1]), tuple(int(v) for v in lines[start + 1:])


def _read_fields(text: str) -> dict:
    return dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln)


class Zoo(Workload):
    """``recurlab run demos/configs/zoo.cfg --out <tmp> --workers 1``, in process.

    One operation is one experiment or suite of the config; its time is
    taken around ``cli.execute_experiment`` / ``cli.execute_suite``.
    """

    def __init__(self, root: Path, scratch: Path):
        self.config_path = root / "demos" / "configs" / "zoo.cfg"
        text = self.config_path.read_text()
        self.config = rl_config.parse_config(text)
        self.sections = _read_config(text)
        self.scratch = scratch
        self.item_times: list[float] = []
        self.ref_times: list[float] = []
        self.reference = None
        self.out_dir = None
        self.passes = 0
        self.tasks = []
        for attr in ("execute_experiment", "execute_suite"):
            setattr(rl_cli, attr, self._timed(getattr(rl_cli, attr)))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            self.ref_times.append(self.reference())
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.item_times.append(time.process_time() - t0)
        return timed

    @property
    def operations(self) -> int:
        return len(self.config.experiments) + len(self.config.suites)

    def before_pass(self):
        self.passes += 1
        self.out_dir = self.scratch / f"zoo-pass-{self.passes}"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.item_times = []
        self.ref_times = []

    def run_pass(self, reference):
        self.reference = reference
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = rl_cli.main(["run", str(self.config_path), "--out", str(self.out_dir),
                                  "--workers", "1"])
        summary = buf.getvalue()
        errors = [f"zoo: {ln}" for ln in summary.splitlines()
                  if ln.split()[2:3] not in (["ok"], ["pass"])]
        if status != 0 and not errors:
            errors.append(f"zoo: exit status {status}")
        return [(status, summary)], list(self.item_times), errors, list(self.ref_times)

    def extract(self, outputs):
        status, summary = outputs[0]
        files = {str(p.relative_to(self.out_dir)): p.read_bytes()
                 for p in sorted(self.out_dir.rglob("*")) if p.is_file()}
        shutil.rmtree(self.out_dir, ignore_errors=True)
        # summary.txt is the only artifact allowed to name the run itself
        return [(status, summary, files)]

    def check(self, extracted):
        status, summary, files = extracted[0]
        problems = []
        if status != 0:
            problems.append(f"zoo: exit status {status}")
        for kind, name, fields in self.sections:
            try:
                if kind == "experiment":
                    self._check_experiment(name, fields, files)
                elif kind == "suite":
                    self._check_suite(name, fields, files)
            except (orc.CheckFailed, KeyError, ValueError) as err:
                problems.append(f"zoo {name}: {type(err).__name__}: {err}")
        return problems

    def _check_suite(self, name, fields, files):
        out = _read_fields(files[f"suites/{name}.txt"].decode())
        expect(out["status"] == "pass", f"status {out['status']}")
        check = fields["check"]
        if check == "cut-shift-paste":
            expect(out["metric.violations"] == "0"
                   and out["metric.trials"] == fields["trials"], "closure violations")
        elif check == "kronecker":
            horizon = int(fields["horizon"])
            eps = float(Fraction(fields["epsilon"]))
            n = np.arange(horizon + 1, dtype=np.int64)
            t = fields["turns"]
            m = re.fullmatch(r"sqrt\((\d+)\)", t)
            f = (orc.turn_fraction_exact(math.sqrt(float(m.group(1))) % 1.0, n) if m
                 else (n * Fraction(t).numerator % Fraction(t).denominator)
                 / Fraction(t).denominator)
            inside, near = orc.window_from_distances(orc.chord(f), eps, 1e-9)
            count = int(out["metric.count"])
            expect(len(inside - near) <= count <= len(inside | near),
                   f"count {count}, independent {len(inside)}")
        elif check == "shift-series" and fields["weights"] == "(n+1)/n":
            # w_1...w_n = n+1, so the partial sums are harmonic numbers minus 1
            total, crossing = 0.0, None
            for k in range(1, int(fields["horizon"]) + 1):
                total += 1.0 / (k + 1)
                if total > float(fields["threshold"]):
                    crossing = k
                    break
            expect(out["metric.crossing_n"] == str(crossing), "harmonic crossing point")
        elif check == "shift-series":
            expect(out["metric.verdict"] == "converging", "geometric series must converge")

    def _check_experiment(self, name, fields, files):
        base = f"experiments/{name}/"
        verdict = _read_fields(files[base + "verdict.txt"].decode())
        eps = sorted((Fraction(e) for e in fields["epsilons"].split(",")), reverse=True)
        windows = [_read_window(files[f"{base}window_{i}.txt"].decode())
                   for i in range(len(eps))]
        horizon = int(fields["horizon"])
        expect(all(h == horizon for h, _ in windows), "window horizon")
        orc.check_monotone([w for _, w in windows])
        op, vec = fields["operator"], fields["vector"]

        def periodic(period):
            for (_, w), e in zip(windows, eps):
                expect(w == orc.multiples(period, horizon), f"eps={e}: window is not "
                                                            f"{period}*N0")
            expect(verdict["label"] == "PERIODIC" and verdict["period"] == str(period),
                   f"verdict {verdict['label']}/{verdict['period']}, theory {period}")

        def trivial():
            expect(all(w == (0,) for _, w in windows), "window is not {0}")

        if op == "blockcycle":
            pairs = _sparse_pairs(vec)
            blocks = [orc.block_size(i) for i, _ in pairs]
            expect(len(set(blocks)) == len(blocks) and eps[0] <= min(abs(c) for _, c in pairs),
                   "config outside the block-size theory")
            periodic(orc.lcm(blocks))
        elif op.startswith("diag(rot(") and op[9:-2] in RULES:
            turns = RULES[op[9:-2]]
            pairs = _sparse_pairs(vec)
            if all(isinstance(turns(i), Fraction) for i, _ in pairs):
                periodic(orc.lcm((turns(i) % 1).denominator for i, _ in pairs))
            else:
                dist = orc.diagonal_distances([turns(i) for i, _ in pairs],
                                              [c for _, c in pairs], horizon)
                for (_, w), e in zip(windows, eps):
                    orc.check_window_against(w, dist, float(e), 1e-9, f"eps={e}")
        elif op.startswith("diag("):
            lam = Fraction(op[5:-1])
            expect(abs(lam) >= 2, "expanding diagonal expected")
            trivial()
        elif op.startswith("comp("):
            m = re.fullmatch(r"comp\(a=rot\((\d+)/(\d+)\), b=[^,]+, deg=\d+\)", op)
            q = Fraction(int(m.group(1)), int(m.group(2))).denominator
            pairs = dict(_sparse_pairs(vec))
            top = max(pairs)
            expect(math.gcd(top, q) == 1
                   and float(eps[0]) < abs(float(pairs[top])) * 2 * math.sin(math.pi / q),
                   "config outside the symbol-order theory")
            periodic(q)
        elif op.startswith("matrix("):
            rows = [[float(v) for v in r.split(",")]
                    for r in re.findall(r"\[([^\[\]]+)\]", op)]
            if rows[0][1] == 1 and rows[1][0] == 0 and rows[0][0] == rows[1][1] == 1:
                trivial()                          # a Jordan block
            else:
                # a rotation by a rational turn p/q: returns at the residues r
                # mod q with |e^(2 pi i r p/q) - 1| |x| < eps
                turn = math.atan2(rows[1][0], rows[0][0]) / (2 * math.pi)
                order = Fraction(turn).limit_denominator(64).denominator
                expect(abs(turn * order - round(turn * order)) < 1e-12, "rational rotation")
                norm = math.sqrt(sum(float(c) ** 2 for _, c in _sparse_pairs(vec)))
                dist = orc.chord(np.arange(horizon + 1) * turn % 1.0) * norm
                for (_, w), e in zip(windows, eps):
                    orc.check_window_against(w, dist, float(e), 1e-9, f"eps={e}")
                full = [w == orc.multiples(order, horizon) for _, w in windows]
                expect(verdict["periodic_like"] == (str(order) if all(full) else "-")
                       and verdict["label"] != "PERIODIC",
                       "float rotation must be periodic_like, never PERIODIC")
        elif op == "shift(weights=2, side=uni)":
            coeffs = dict(_sparse_pairs(vec))
            top = max(coeffs)
            dist2 = [orc.shift_orbit_distance2(coeffs, RULES["2"], n)
                     for n in range(top + 1)]
            for (_, w), e in zip(windows, eps):
                want = tuple(n for n in range(horizon + 1) if dist2[min(n, top)] < e * e)
                expect(w == want, f"eps={e}: window differs from the exact tail norm")
        elif op == "rowrotation":
            seminorms = [int(s) for s in fields["seminorms"].split(",")]
            dist = [max(orc.row_pattern_distance(n, i) for i in seminorms)
                    for n in range(horizon + 1)]
            for (_, w), e in zip(windows, eps):
                expect(w == tuple(n for n, d in enumerate(dist) if d < e),
                       f"eps={e}: window differs from the exact seminorm evaluation")


def build(name: str, seed: int, root: Path, scratch: Path) -> Workload:
    seed %= 1 << 63                         # numpy seeds must be non-negative
    if name == "zoo":
        return Zoo(root, scratch)
    return {"exact-orbits": exact_orbits, "float-orbits": float_orbits,
            "window-calculus": window_calculus}[name](seed)
