"""Exact sector probabilities for n copies of the W state, two ways.

Route one counts joint sequence pairs (a rational sum over joint weights and
the free tensor components; `p_w_counting`, kept as a test oracle); route two
multiplies the squared norm eta^2 of the built Kronecker vector by the
fiducial-state norm Z, which is what `p_w` computes from a scalar eta^2
recurrence.  Both are exact rationals and agree term by term; the
distribution concentrates around the reduced spectrum (2/3, 1/3) as n grows.
"""

from fractions import Fraction

from wkron.kronstate import eta, khat_all
from wkron.partitions import reduced_entropy
from wkron.probw import p_w, p_w_counting
from wkron.protocol import all_partition_tuples, marginal_entropy, sample_outcomes
from wkron.wstates import w_normal_form, z_norm

w = w_normal_form(3)

print("n = 3 sector table (p via counting, via eta^2 Z, both exact):")
sectors = khat_all(3, 3)
total = Fraction(0)
for lams in all_partition_tuples(3, 3):
    p = p_w_counting(lams)
    total += p
    if p:
        p2 = eta(sectors[lams]).square() * z_norm(w, lams)
        print(f"  {lams}: p = {p} = {p2}  (agree: {p == p2})")
print("  total:", total)

print("\nconcentration: the most likely reduced second row approaches 1/3")
for n in (3, 6, 9, 12):
    best = max(all_partition_tuples(3, n), key=p_w)
    print(f"  n={n:2d}: mode {best}, p = {float(p_w(best)):.4f}, "
          f"lambda2/n = {[str(Fraction(l.lambda2, n)) for l in best]}")

print("\nper-copy entanglement yield at n = 12 (sampled):")
outs = sample_outcomes(w, 12, seed=2024, count=1500)
mean = sum(reduced_entropy(o[0]) for o in outs) / len(outs)
print(f"  mean H(lambda/n) = {mean:.4f} bits vs single-copy marginal entropy "
      f"{marginal_entropy(w, 0):.4f} bits")
