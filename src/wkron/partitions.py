"""Two-row partition combinatorics: enumeration, irrep dimensions,
generalized Kronecker coefficients, and the W-class admissible set.

`kron_coeff` counts weight vectors of Sym^n(C^2 x ... x C^2) in one integer
sweep over vector partitions (Christandl, Doran and Walter, arXiv:1204.4379)
and keeps no table between calls.  The S_n character sum it replaced stays in
the tests as an oracle.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import add, itemgetter, not_

from .exact import InconsistencyError


class TwoRowPartition(tuple):
    """Integer partition (lambda1, lambda2) with lambda1 >= lambda2 >= 0: a
    tuple, so it compares and hashes as the plain pair (lambda1, lambda2)."""

    __slots__ = ()
    lambda1 = property(itemgetter(0))
    lambda2 = property(itemgetter(1))
    size = property(sum)

    def __new__(cls, lambda1: int, lambda2: int):
        if not (lambda1 >= lambda2 >= 0):
            raise ValueError(f"invalid two-row partition ({lambda1},{lambda2})")
        return super().__new__(cls, (lambda1, lambda2))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def nu(self) -> int:
        """Row difference lambda1 - lambda2 (twice the spin)."""
        return self[0] - self[1]

    def __repr__(self) -> str:
        return f"({self[0]},{self[1]})"


class PartitionTuple(tuple):
    """One two-row partition per party, all of the same size n: a tuple of
    TwoRowPartitions, so it compares and hashes as the plain tuple of
    (lambda1, lambda2) pairs."""

    __slots__ = ()
    num_parties = property(len)

    def __new__(cls, parts):
        self = super().__new__(cls, parts)
        if not self:
            raise ValueError("empty partition tuple")
        sizes = {p.size for p in self}
        if len(sizes) != 1:
            raise ValueError(f"parts must share one size, got {sizes}")
        return self

    @property
    def n(self) -> int:
        return self[0].size

    def __repr__(self) -> str:
        return "(" + ";".join(f"{l1},{l2}" for l1, l2 in self) + ")"


def ptuple(*pairs) -> PartitionTuple:
    """Build a PartitionTuple from (l1, l2) pairs."""
    return PartitionTuple(tuple(TwoRowPartition(l1, l2) for l1, l2 in pairs))


def parse_partition_tuple(s: str) -> PartitionTuple:
    """Parse a CLI string like "5,2;5,2;5,2"."""
    pairs = []
    for part in s.split(";"):
        nums = part.split(",")
        if len(nums) != 2:
            raise ValueError(f"bad partition {part!r}; expected 'l1,l2'")
        pairs.append((int(nums[0]), int(nums[1])))
    return ptuple(*pairs)


def list_partitions(n: int) -> list[TwoRowPartition]:
    """All two-row partitions of n, in descending lambda1 order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [TwoRowPartition(n - k, k) for k in range(n // 2 + 1)]


def dim_irrep(lam: TwoRowPartition) -> int:
    """Number of standard paths (standard Young tableaux) of shape lam."""
    n = lam.size
    return (lam.nu + 1) * math.comb(n, lam.lambda2) // (lam.lambda1 + 1)


# kron_coeff makes 7-13M cell updates per second on a 2-core Xeon VM (Python
# 3.11.7).  At the budget, (220,110)^3 (9.6M updates) took 1.3-2.0 s in 90 MB
# peak RSS, and one party with lambda2 = 9999998 (10M) took 1.9 s in 180 MB.
# The largest tuples the package passes fit well inside it:
# (12,12;14,10;16,8;18,6) needs 1.8M updates and (140,70)^3 needs 2.5M.
KRON_WORK_BUDGET = 10_000_000


def kron_coeff(t: PartitionTuple) -> int:
    """Generalized Kronecker coefficient g: the multiplicity of the product of
    the U(2) irreps lambda^(i) in Sym^n(C^2 x ... x C^2), which by Schur-Weyl
    duality is the dim of the S_n-invariant subspace of the tensor product of
    the [lambda^(i)].

    A basis vector of Sym^n is a multiset of n bit strings, one bit per party,
    and its weight is the tuple of column sums.  Let b be the second rows of
    the k parties with lambda2 > 0 (the others must keep weight 0, so they
    drop out) and m(w) the number of multisets of at most n nonzero k-bit
    strings with column sums w.  Taking highest weights party by party,
        g = sum over eps in {0,1}^k of (-1)^|eps| m(b - eps).
    m fills one flat list over the box prod_i [0, b_i], where strides turn a
    string into an index offset: for each nonzero string s, every cell whose
    nonzero coordinates cover s gains the cell one copy of s below it.  The
    bound of n strings binds only when T = sum b - n > 0, never for a
    W-admissible tuple.  Then each cell keeps T + 1 buckets of the slack
    min(T, sum over its strings of (weight - 1)), and m(b - eps) sums the
    buckets from T - |eps| up.

    The work is (2^k - 1) * prod_i (b_i + 1) * (T + 1) cell updates, so it
    grows exponentially in k, times T + 1, and polynomially in n: (140,70)^3
    takes 0.3-0.4 s, while (20,10)^5, with T = 20, needs 105M updates (8 s;
    Young's rule over the cycle types took 0.03 s).  Raises
    ValueError, before anything is allocated, when the work is over
    KRON_WORK_BUDGET.
    """
    b = [lam.lambda2 for lam in t if lam.lambda2]
    k, slack = len(b), max(0, sum(b) - t.n)
    size = math.prod(x + 1 for x in b)
    work = ((1 << k) - 1) * size * (slack + 1)
    if work > KRON_WORK_BUDGET:
        raise ValueError(
            f"kron_coeff of {t} needs about {work} cell updates, over the budget "
            f"of {KRON_WORK_BUDGET} (about 1-2 s)")
    strides = [1] * k
    for i in range(k - 1, 0, -1):
        strides[i - 1] = strides[i] * (b[i] + 1)
    # indexed by a k-bit string (bit i for party i): index offset, weight;
    # indexed by a cell: the bits of its zero coordinates
    offs, weights, zeros = [0], [0], [0]
    for i in range(k):
        offs += [o + strides[i] for o in offs]
        weights += [w + 1 for w in weights]
        zeros = [z | (0 if c else 1 << i) for z in zeros for c in range(b[i] + 1)]
    m = [[0] * (slack + 1) for _ in range(size)] if slack else [0] * size
    m[0] = [1] + [0] * slack if slack else 1
    for s in range(1, 1 << k):
        off, d = offs[s], min(weights[s] - 1, slack)
        cells = compress(range(size), map(not_, map(s.__and__, zeros)))
        if not slack:
            for x in cells:
                m[x] += m[x - off]
            continue
        for x in cells:
            row, src = m[x], m[x - off]
            row[d:] = map(add, row[d:], src)  # bucket j moves to j + d...
            row[slack] += sum(src[slack + 1 - d:])  # ...or to the top one
    g = 0
    for e in range(1 << k):
        cell = m[size - 1 - offs[e]]
        term = sum(cell[max(0, slack - weights[e]):]) if slack else cell
        g += -term if weights[e] % 2 else term
    if g < 0:
        raise InconsistencyError(f"kron coefficient of {t} is negative: {g}")
    return g


def _admissible(b, n: int) -> bool:
    """The W-class support on second rows b of n boxes:
    2*b_i <= sum_j b_j <= n for every party i."""
    s = sum(b)
    return s <= n and 2 * max(b) <= s


def w_admissible(t: PartitionTuple) -> bool:
    """Membership in the W-class support: for every party i,
    2*lambda2^(i) <= sum_j lambda2^(j) <= n."""
    return _admissible([lam.lambda2 for lam in t], t.n)


def admissible_rows(box, n: int) -> list[tuple[int, ...]]:
    """The one enumeration of the W-admissible set: the second-row tuples b
    of the box prod_i box[i] (a range per party) with 2*b_i <= sum b <= n,
    in lexicographic order.  A prefix of sum s is extended only by rows up
    to n - s, so the work follows the tuples with sum <= n, not the box."""
    rows = [((), 0)]
    for r in box:
        rows = [(b + (x,), s + x) for b, s in rows for x in range(r.start, min(r.stop, n - s + 1))]
    return [b for b, s in rows if 2 * max(b) <= s]


def w_admissible_tuples(num_parties: int, n: int):
    """The W-admissible partition tuples of num_parties parts of n, in the
    order of `protocol.all_partition_tuples`: the second-row tuples of
    `admissible_rows`, so no inadmissible tuple is visited."""
    parts = list_partitions(n)
    for b in admissible_rows([range(n // 2 + 1)] * num_parties, n):
        yield PartitionTuple(map(parts.__getitem__, b))


def reduced_entropy(lam: TwoRowPartition) -> float:
    """Shannon entropy H(lambda1/n, lambda2/n) in bits."""
    n = lam.size
    h = 0.0
    for part in (lam.lambda1, lam.lambda2):
        if part:
            p = part / n
            h -= p * math.log2(p)
    return h
