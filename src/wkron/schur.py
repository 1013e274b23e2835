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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import RadicalSum, SqrtRational
from .partitions import TwoRowPartition

PathSeq = tuple[int, ...]
BitString = tuple[int, ...]

# _b_table(n) took 78 MB peak RSS and 0.87 s at n = 10, 217 MB and 4.1 s at
# n = 11 and 764 MB and 12.2 s at n = 12 (one fresh process each, 2-core VM,
# Python 3.11.7).  Entries grow about 3.7x per n, so n = 14 would need about
# 10 GB.  The dense oracle never goes past n = 9.
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


def gamma(lam: TwoRowPartition, omega: int):
    """2x2 Clebsch-Gordan matrix; rows indexed by q_n, columns by s_n.

    The first row is defined to be zero when lambda1 == lambda2.
    """
    l1, l2 = lam.lambda1, lam.lambda2
    if not (l1 >= omega >= l2):
        raise ValueError(f"weight {omega} outside [{l2},{l1}] for {lam}")
    if l1 == l2:
        row0 = [SqrtRational.zero(), SqrtRational.zero()]
    else:
        row0 = [
            SqrtRational.sqrt(Fraction(l1 - omega, l1 - l2)),
            SqrtRational.sqrt(Fraction(omega - l2, l1 - l2)),
        ]
    row1 = [
        SqrtRational.sqrt(Fraction(omega - l2 + 1, l1 - l2 + 2)),
        -SqrtRational.sqrt(Fraction(l1 - omega + 1, l1 - l2 + 2)),
    ]
    return [row0, row1]


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


@lru_cache(maxsize=None)
def _b_table(n: int) -> dict:
    """All B coefficients for n qubits: {(lam, omega, q): {s: SqrtRational}}."""
    if n > SCHUR_SIZE_CAP:
        raise ValueError(f"n={n} exceeds the n<={SCHUR_SIZE_CAP} size cap")
    if n == 1:
        one = SqrtRational.one()
        lam = TwoRowPartition(1, 0)
        return {(lam, 0, (0,)): {(0,): one}, (lam, 1, (0,)): {(1,): one}}
    prev = _b_table(n - 1)
    table: dict = {}
    for (lam_p, om_p, q_p), col in prev.items():
        for qn in (0, 1):
            if qn == 0:
                lam = TwoRowPartition(lam_p.lambda1 + 1, lam_p.lambda2)
            else:
                if lam_p.lambda2 + 1 > lam_p.lambda1:
                    continue
                lam = TwoRowPartition(lam_p.lambda1, lam_p.lambda2 + 1)
            for sn in (0, 1):
                om = om_p + sn
                if not (lam.lambda1 >= om >= lam.lambda2):
                    continue
                g = gamma(lam, om)[qn][sn]
                if g.is_zero:
                    continue
                dest = table.setdefault((lam, om, q_p + (qn,)), {})
                for s, v in col.items():
                    dest[s + (sn,)] = v * g
    return table


def b_coeff(label: SchurLabel, s: BitString) -> SqrtRational:
    """Transformation coefficient <s|lam,omega,q>; zero unless the Hamming
    weight of s equals omega and q terminates at lam."""
    n = len(s)
    if len(label.q) != n:
        raise ValueError(f"sequence length {n} != path length {len(label.q)}")
    key = (label.lam, label.omega, label.q)
    return _b_table(n).get(key, {}).get(tuple(s), SqrtRational.zero())


class SchurBlock:
    """Row-orthonormal block of B coefficients for one sector lam.

    Rows are ordered by weight (ascending from lambda2 to lambda1) and, within
    a weight, by lexicographic path order; this ordering is part of the
    serialization contract.
    """

    def __init__(self, lam: TwoRowPartition, n: int):
        if lam.size != n:
            raise ValueError(f"{lam} is not a partition of {n}")
        if n > SCHUR_SIZE_CAP:
            raise ValueError(f"n={n} exceeds the n<={SCHUR_SIZE_CAP} size cap")
        self.lam = lam
        self.n = n
        self.paths = standard_paths(lam)
        self.rows = [
            SchurLabel(lam, om, q)
            for om in range(lam.lambda2, lam.lambda1 + 1)
            for q in self.paths
        ]
        tab = _b_table(n)
        self._cols = [dict(tab.get((lam, r.omega, r.q), {})) for r in self.rows]

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
    tab = _b_table(n)
    paths = standard_paths(lam)
    om = lam.lambda2  # smallest s-support among the available weights
    cols = [tab.get((lam, om, q), {}) for q in paths]
    d = len(paths)
    out = [[RadicalSum.zero() for _ in range(d)] for _ in range(d)]
    for j in range(d):
        for s, v in cols[j].items():
            ps = apply_perm(perm, s)
            for i in range(d):
                w = cols[i].get(ps)
                if w is not None:
                    out[i][j] = out[i][j] + RadicalSum.from_sqrt(w * v)
    return out

