"""The block-cycle operator: dense periodicity next to orbit blow-up.

Every basis vector cycles exactly (weight product 1 around each dyadic
block), yet the intra-block magnitudes reach 2^(2^j - 1).  A vector with
heavy block-start coordinates therefore cannot return often: the refutation
certificate below pins a window length on which at most j of every 2^j
exponents can come back.
"""

from fractions import Fraction

from recurlab import (BlockCycle, Label, SequenceLp, SparseVector, Thresholds,
                      blockcycle_rrec_refutation, classify,
                      power_bounded_probe, return_sets)

L2 = SequenceLp(2)
bc = BlockCycle()

print("exact periods of basis vectors")
from recurlab import exact_state_period
for k in (1, 2, 5, 9, 17, 33):
    print(f"  e_{k}: period {exact_state_period(bc, SparseVector.unit(L2, k))}")

print("\nreturn windows of e_5")
grid = [Fraction(1, 2), Fraction(1, 10)]
for rec in return_sets(bc, SparseVector.unit(L2, 5), grid, (0,), 100):
    print(f"  eps={rec.epsilon}: window head {rec.window.elements[:6]} ... "
          f"(exact={rec.exact})")

records = return_sets(bc, SparseVector.unit(L2, 5), grid, (0,), 10_000)
verdict = classify(records, Thresholds())
print(f"  classified: {verdict.label.name} period={verdict.period}")

print("\norbits are nowhere near equibounded")
probe = power_bounded_probe(bc, [SparseVector.unit(L2, k) for k in range(2, 32)],
                            200)
print(f"  probe on e_2..e_31, N=200: {probe.verdict}")

print("\nrefutation certificate for the heavy-block-start vector")
x = SparseVector.from_pairs(L2, [(1 << j, Fraction(2, j)) for j in range(1, 21)])
cert = blockcycle_rrec_refutation(x, Fraction(1, 10))
print(f"  coordinates x_(2^j) = 2/j, target window density 1/10")
print(f"  certificate at block j={cert.j}: every {cert.window_length}-long "
      f"window holds at most {cert.max_returns_per_window} returns")
print(f"  density bound {cert.density_bound} = "
      f"{float(cert.density_bound):.5f} < delta/2 = 0.05")
print(f"  blow-up floor 2^j |x_(2^j)| = {cert.coordinate_floor} > "
      f"2 eps = {2 * cert.epsilon}")
print(f"  identity spot-checked by exact iteration at exponents "
      f"{cert.verified_exponents[:4]}...")
