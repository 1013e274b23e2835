"""Recursive single-party qubit Schur transform.

Basis labels are (lam, omega, q): lam a two-row partition of n, omega the
Hamming weight of the computational strings the vector lives on
(lambda1 >= omega >= lambda2), and q a binary path sequence recording which
row received a box at each growth step (q_1 = 0).  The transformation
coefficients B between the computational and Schur-Weyl bases satisfy a
one-step recurrence through the 2x2 Clebsch-Gordan matrix, one row of which
`_gamma_row` gives in integers; the sign convention of that matrix is fixed
once and for all here and nothing downstream is allowed to re-phase.

`party_columns` is the one stored form of B, read by the dense oracle, and
`standard_paths` lists a sector's path sequences.  The Clebsch-Gordan matrix
as SqrtRationals, B one entry at a time, the per-sector Schur blocks, the S_n
representation matrices, the permutation helpers and the path validators
that check the transform are test oracles and live with the tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import InconsistencyError, _squarefree
from .partitions import TwoRowPartition, list_partitions

PathSeq = tuple[int, ...]

# party_columns(n) took 0.7-1.1 s and 77 MB peak RSS at n = 11 and 3.3-4.6 s and
# 220 MB at n = 12 (fresh process, 2-core VM, Python 3.11.7); entries grow 3.7x
# per n, so n = 14 would need about 3 GB.  The dense oracle stops at n = 9.
SCHUR_SIZE_CAP = 12


def _gamma_row(l1: int, l2: int, omega: int, qn: int) -> tuple[tuple[int, int], int]:
    """Row qn of gamma((l1, l2), omega) as ((a0, a1), b): gamma[qn][sn] =
    sign(a_sn) * sqrt(|a_sn| / b).  Row 0 is all 0 (b = 0 too) when l1 == l2."""
    if qn == 0:
        return (l1 - omega, omega - l2), l1 - l2
    return (omega - l2 + 1, -(l1 - omega + 1)), l1 - l2 + 2


def standard_paths(lam: TwoRowPartition) -> list[PathSeq]:
    """All valid path sequences terminating at lam, lexicographically sorted.

    Grown one step at a time over the whole level, without recursion, so a
    path may be longer than the interpreter's recursion limit."""
    # (prefix, first-row length, second-row length); every prefix kept here
    # completes to lam, and extending a sorted level by 0 before 1 keeps the
    # next level sorted
    level = [((0,), 1, 0)] if lam.size else []
    for _ in range(lam.size - 1):
        grown = []
        for prefix, r1, r2 in level:
            if r1 < lam.lambda1:
                grown.append((prefix + (0,), r1 + 1, r2))
            if r2 < r1 and r2 < lam.lambda2:
                grown.append((prefix + (1,), r1, r2 + 1))
        level = grown
    return [prefix for prefix, _, _ in level]


# verify builds n <= 6 at N = 3 and again at N = 4; eight sizes keep them all
@lru_cache(maxsize=8)
def party_columns(n: int):
    """(cols, roots, D, labels): the nonzero B coefficients of n qubits in
    integers, grown depth-first over q with all weights at once, one gamma
    factor per step; only the prefixes of the current path are held.
    labels[j] = (lam, omega, q) lists the 2^n Schur labels by q, then omega.
    All nonzero B(j, s) of one label share one squarefree radical roots[j]
    (else InconsistencyError), so B(j, s) = K/D * sqrt(roots[j]) with D one
    common denominator and K an integer.  cols[s], indexed by the n-bit
    integer of s (copy 0 most significant), lists its (j, K) by ascending j."""
    if n > SCHUR_SIZE_CAP:
        raise ValueError(f"n={n} exceeds the n<={SCHUR_SIZE_CAP} size cap")
    # one partition object per shape; list_partitions refuses n < 1
    lams = {lam: lam for lam in list_partitions(n)}
    labels, roots, dens, split = [], [], set(), [[] for _ in range(2**n)]

    def grow(q, l1, l2, b, cols):
        # cols[omega - l2] lists (s, a) with B(lam, omega, q; s) =
        # sign(a) * sqrt(|a| / b), s the prefix string as an integer
        if len(q) == n:
            for omega, col in enumerate(cols, l2):
                j = len(labels)
                labels.append((lams[l1, l2], omega, q))
                found = set()
                for s, a in col:
                    den = b // math.gcd(a, b)  # |a|/b = num/den in lowest terms
                    m, d = _squarefree(abs(a) * den // b * den)  # num * den, as radical_parts
                    found.add(d)
                    dens.add(den)
                    split[s].append((j, m if a > 0 else -m, den))
                if len(found) != 1:
                    raise InconsistencyError(
                        f"Schur label {labels[j]} spans radicals {sorted(found)}")
                roots.append(found.pop())
            return
        for qn in (0, 1) if l2 < l1 else (0,):
            L1, L2 = l1 + 1 - qn, l2 + qn
            grown = []
            for omega in range(L2, L1 + 1):
                (a0, a1), c = _gamma_row(L1, L2, omega, qn)
                # a factor is zero exactly where its source weight, omega - 1
                # for s_k = 1 and omega for s_k = 0, lies outside [l2, l1]
                col = [(2 * s + 1, a * a1) for s, a in cols[omega - 1 - l2]] if a1 else []
                grown.append(col + [(2 * s, a * a0) for s, a in cols[omega - l2]] if a0 else col)
            grow(q + (qn,), L1, L2, b * c, grown)

    grow((0,), 1, 0, 1, [[(0, 1)], [(1, 1)]])
    D = math.lcm(*dens)
    for s, col in enumerate(split):
        split[s] = [(j, m * (D // den)) for j, m, den in col]
    return split, roots, D, labels

