"""The dyadic row rotation: uniform recurrence with an unbounded orbit.

The one-hot pattern returns within 2^-l of itself along every multiple of
2^l (an exact dyadic identity, evaluated blockwise without materializing a
single row), while the seminorm p_1 of the orbit grows past any bound along
the probe exponents 2^(k-1) - 1.  The classifier records both: a dual-family
arithmetic certificate and a growth witness.
"""

from fractions import Fraction

from recurlab import (Label, RowRotation, RowState, classify,
                      continuity_bound_constant, diff_seminorm, orbit_growth,
                      return_sets, seminorm)

rr = RowRotation()
x = RowState(0)
space = x.space

print("exact dyadic return identity: p_n(T^(nu 2^l) x - x)")
for l in (4, 10, 20):
    vals = [diff_seminorm(space, 2, RowState(nu * (1 << l)), x)
            for nu in (1, 3, 4)]
    print(f"  l={l:>2}: nu=1 -> {vals[0]}, nu=3 -> {vals[1]}, "
          f"nu=4 -> {vals[2]} (even nu digs one level per factor of 2)")

print("\nunbounded growth along the dyadic probes")
for k in (5, 10, 15, 20):
    m = (1 << (k - 1)) - 1
    print(f"  p_1(T^{m} x) = {seminorm(space, 1, RowState(m))} >= {k}")

growth = orbit_growth(rr, x, 1, 1 << 20)
print(f"  orbit growth verdict at N=2^20: {growth.verdict}")
print(f"  record tail: {growth.records[-3:]}")

print("\ncontinuity constants p_n(Tx) <= (1+(l-1)2^(l-1)) p_(n+1)(x)")
for n in (1, 2, 3, 4):
    l, c = continuity_bound_constant(n)
    print(f"  n={n}: l={l}, constant {c}")

grid = [Fraction(3, 32), Fraction(3, 512)]
records = return_sets(rr, x, grid, (1,), 40 * 256)
verdict = classify(records)
print(f"\nclassification: {verdict.label.name} "
      f"(windows are exact progressions, difference {verdict.periodic_like})")
for ev, rec in zip(verdict.evidence, records):
    print(f"  eps={ev.epsilon}: window = multiples of {ev.full_ap}, "
          f"{rec.window.count} returns, arithmetic certificate k={ev.arithmetic_k}")
