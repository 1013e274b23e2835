"""Build W-class Kronecker states from the one-step recurrence and check them
against the brute-force Schur-transform oracle.

The Kronecker state of a sector is the unique S_n-invariant unit vector in
the tensor product of the parties' permutation modules.  For W-class inputs
the recurrence computes its coefficients exactly (signed square roots of
rationals); the dense oracle transforms W^(x)n explicitly and finds each
sector equal to phi_hat(W) (x) khat cell by cell, so the comparison below is
an equality of exact scalars, not a tolerance check.
"""

import json

from wkron.kronstate import eta, khat, normalized, to_table_json, verify_lemma1
from wkron.partitions import kron_coeff, ptuple
from wkron.protocol import verify_case, verify_report
from wkron.wstates import w_normal_form

lams = ptuple((2, 1), (2, 1), (2, 1))
n = 3

print(f"sector {lams}, n = {n}, kron coefficient = {kron_coeff(lams)}")

kv = khat(3, n, lams)
print(f"\nrecurrence output (unnormalized), eta = {eta(kv)}:")
for qt, v in sorted(kv.coeffs.items()):
    labels = tuple("".join(map(str, q)) for q in qt)
    print(f"  q = {labels}: {v}")

print(f"\noracle output identical: {not verify_case(w_normal_form(3), n)['mismatches']}")

nk = normalized(kv)
print("\nnormalized squared magnitudes:", [str(v.square()) for v in nk.coeffs.values()])
print("maximal mixedness deviation per party:", [verify_lemma1(nk, i) for i in range(3)])

print("\nJSON table (the serialization behind the published coefficient tables):")
print(json.dumps(to_table_json(nk), indent=1)[:400], "...")

print("\nfull recurrence-vs-oracle sweep (N=3 n<=4, N=4 n<=3):")
rep = verify_report(cases=((3, 4), (4, 3)))
for case in rep["cases"]:
    print(
        f"  N={case['N']} n={case['n']}: {case['sectors']} sectors exact-equal, "
        f"{case['empty_checked']} empty sectors confirmed, "
        f"{len(case['mismatches'])} mismatches"
    )
print("all equal:", rep["ok"])
