"""Recursive single-party qubit Schur transform.

Basis labels are (lam, omega, q): lam a two-row partition of n, omega the
Hamming weight of the computational strings the vector lives on
(lambda1 >= omega >= lambda2), and q a binary path sequence recording which
row received a box at each growth step (q_1 = 0).  The transformation
coefficients B between the computational and Schur-Weyl bases satisfy a
one-step recurrence through the 2x2 Clebsch-Gordan matrix `gamma`; the sign
convention of that matrix is fixed once and for all here and nothing
downstream is allowed to re-phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import InconsistencyError, RadicalSum, SqrtRational, _squarefree
from .partitions import TwoRowPartition, list_partitions

PathSeq = tuple[int, ...]
BitString = tuple[int, ...]

# party_columns(n) took 0.7-1.1 s and 77 MB peak RSS at n = 11 and 3.3-4.6 s and
# 220 MB at n = 12 (fresh process, 2-core VM, Python 3.11.7); entries grow 3.7x
# per n, so n = 14 would need about 3 GB.  The dense oracle stops at n = 9.
SCHUR_SIZE_CAP = 12


@dataclass(frozen=True)
class SchurLabel:
    lam: TwoRowPartition
    omega: int
    q: PathSeq

    def __post_init__(self):
        if not (self.lam.lambda1 >= self.omega >= self.lam.lambda2):
            raise ValueError(f"weight {self.omega} outside [{self.lam.lambda2},{self.lam.lambda1}]")

    def to_json(self) -> dict:
        return {
            "lambda": [self.lam.lambda1, self.lam.lambda2],
            "omega": self.omega,
            "q": "".join(map(str, self.q)),
        }

    @staticmethod
    def from_json(d: dict) -> "SchurLabel":
        lam = TwoRowPartition(*d["lambda"])
        return SchurLabel(lam, int(d["omega"]), tuple(int(b) for b in d["q"]))


def _gamma_row(l1: int, l2: int, omega: int, qn: int) -> tuple[tuple[int, int], int]:
    """Row qn of gamma((l1, l2), omega) as ((a0, a1), b): gamma[qn][sn] =
    sign(a_sn) * sqrt(|a_sn| / b).  Row 0 is all 0 (b = 0 too) when l1 == l2."""
    if qn == 0:
        return (l1 - omega, omega - l2), l1 - l2
    return (omega - l2 + 1, -(l1 - omega + 1)), l1 - l2 + 2


def _signed_root(a: int, b: int) -> SqrtRational:
    """sign(a) * sqrt(|a| / b); zero when a == 0, whatever b is."""
    return SqrtRational((a > 0) - (a < 0), Fraction(abs(a), b or 1))


def gamma(lam: TwoRowPartition, omega: int):
    """2x2 Clebsch-Gordan matrix; rows indexed by q_n, columns by s_n.

    The first row is defined to be zero when lambda1 == lambda2.
    """
    l1, l2 = lam.lambda1, lam.lambda2
    if not (l1 >= omega >= l2):
        raise ValueError(f"weight {omega} outside [{l2},{l1}] for {lam}")
    rows = (_gamma_row(l1, l2, omega, qn) for qn in (0, 1))
    return [[_signed_root(a, b) for a in nums] for nums, b in rows]


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


def path_is_valid(q: PathSeq) -> bool:
    if not q or q[0] != 0:
        return False
    r1 = r2 = 0
    for b in q:
        r1, r2 = r1 + (1 - b), r2 + b
        if r2 > r1:
            return False
    return True


def path_terminal(q: PathSeq) -> TwoRowPartition:
    return TwoRowPartition(sum(1 - b for b in q), sum(q))


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
    lams = {lam.as_tuple(): lam for lam in list_partitions(n)}
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


def b_coeff(label: SchurLabel, s: BitString) -> SqrtRational:
    """Transformation coefficient <s|lam,omega,q>, one gamma factor per copy
    after the first; zero unless weight(s) == omega and q terminates at lam."""
    if len(label.q) != len(s):
        raise ValueError(f"sequence length {len(s)} != path length {len(label.q)}")
    a, b, l1, l2, omega = 1, 1, 0, 0, 0
    for k, (qk, sk) in enumerate(zip(label.q, s)):
        l1, l2, omega = l1 + 1 - qk, l2 + qk, omega + sk
        if not l1 >= omega >= l2:
            return SqrtRational.zero()
        if k:  # the first copy's factor is 1
            (a0, a1), c = _gamma_row(l1, l2, omega, qk)
            a, b = a * (a1 if sk else a0), b * c
    if (l1, l2, omega) != (label.lam.lambda1, label.lam.lambda2, label.omega):
        return SqrtRational.zero()
    return _signed_root(a, b)


class SchurBlock:
    """Row-orthonormal block of B coefficients for one sector lam, a view of
    `party_columns(n)`.  Rows are ordered by weight (ascending from lambda2
    to lambda1) and, within a weight, by lexicographic path order; this
    ordering is part of the serialization contract.
    """

    def __init__(self, lam: TwoRowPartition, n: int):
        if lam.size != n:
            raise ValueError(f"{lam} is not a partition of {n}")
        cols, roots, D, labels = party_columns(n)
        self.lam, self.n, self.paths = lam, n, standard_paths(lam)
        weights = range(lam.lambda2, lam.lambda1 + 1)
        self.rows = [SchurLabel(lam, om, q) for om in weights for q in self.paths]
        col_of = {(lam, r.omega, r.q): {} for r in self.rows}
        mine = {j: col_of[label] for j, label in enumerate(labels) if label in col_of}
        for s, col in enumerate(cols):
            bits = tuple((s >> (n - 1 - k)) & 1 for k in range(n))
            for j, K in col:
                if j in mine:
                    mine[j][bits] = _signed_root(K * abs(K) * roots[j], D * D)
        self._cols: list[dict[BitString, SqrtRational]] = list(col_of.values())

    def row_vector(self, label: SchurLabel) -> dict[BitString, SqrtRational]:
        return self._cols[self.rows.index(label)]

    def items(self):
        return zip(self.rows, self._cols)


# -- permutations ------------------------------------------------------------
#
# A permutation is a tuple p of length n mapping position k to p[k] (0-based).


def apply_perm(p: tuple[int, ...], s: BitString) -> BitString:
    out = [0] * len(s)
    for k, b in enumerate(s):
        out[p[k]] = b
    return tuple(out)


def compose(p1: tuple[int, ...], p2: tuple[int, ...]) -> tuple[int, ...]:
    """Composition acting as p1 after p2."""
    return tuple(p1[p2[k]] for k in range(len(p1)))


def perm_from_cycle_type(c, n: int | None = None) -> tuple[int, ...]:
    """Canonical permutation with the given cycle type on 0..n-1."""
    parts = sorted(c, reverse=True)
    n = n or sum(parts)
    if sum(parts) != n:
        raise ValueError("cycle type does not sum to n")
    p = list(range(n))
    a = 0
    for length in parts:
        for i in range(length):
            p[a + i] = a + (i + 1) % length
        a += length
    return tuple(p)


def perm_cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(p)
    out = []
    for k in range(len(p)):
        if seen[k]:
            continue
        length, j = 0, k
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


REP_SIZE_CAP = 8


def rep_matrix(lam: TwoRowPartition, perm: tuple[int, ...]) -> list[list[RadicalSum]]:
    """Orthogonal S_n representation matrix over paths q, with exact entries.

    Satisfies B[lam,om,q][perm.s] = sum_q' S[q][q'] B[lam,om,q'][s].
    """
    n = lam.size
    if n > REP_SIZE_CAP:
        raise ValueError(f"n={n} exceeds the n<={REP_SIZE_CAP} representation cap")
    if len(perm) != n:
        raise ValueError("permutation length mismatch")
    # the rows of the smallest weight, lambda2, in path order
    cols = [col for label, col in SchurBlock(lam, n).items() if label.omega == lam.lambda2]
    d = len(cols)
    out = [[RadicalSum.zero() for _ in range(d)] for _ in range(d)]
    for j in range(d):
        for s, v in cols[j].items():
            ps = apply_perm(perm, s)
            for i in range(d):
                w = cols[i].get(ps)
                if w is not None:
                    out[i][j] = out[i][j] + RadicalSum.from_sqrt(w * v)
    return out

