"""The W-class Kronecker states: one-step recurrence for the unnormalized
coefficients, the normalization eta, maximal-mixedness verification, and the
JSON table format behind the published coefficient tables.

Coefficients live on tuples of path sequences (one per party); a key that is
absent means exact zero.  The recurrence runs backward from the requested
sector: a sector at level n is assembled from its predecessors at level n-1,
so one sector costs only its down-set.  The recurrence assigns nonzero formal
values to sectors outside the W-class admissible set, whose physical amplitude
is zero; those are zeroed at every level before propagating.  Below a sector
it is keyed by ints, (second rows, level), over one box per level (`khat`).

One step of the recurrence has one rule, `_boxes`.  At level m each party,
with second row b, gives back one box: its last first-row box when 2b < m,
with share b of m - num and factor m - 2b of den, or its last second-row box
when b >= 1, with share m - b + 1 and factor m - 2b + 2.  The predecessor
reached by the boxes' rows qn contributes its coefficients, each path
extended by qn, times f = sign(num) * sqrt(num^2 / den), where num = m - the
sum of the shares and den the product of the factors; num = 0 drops it.

The squared norm eta^2 follows a scalar recurrence of its own, because the
pieces a sector gets from different predecessors are orthogonal.  Scaled by
the hook products H(a, c) = (a+1)! c! / (a-c+1) = m! / dim (a, c), it runs
in integers: E = eta^2 * prod_i H(lams_i) / m! obeys a recurrence with one
exact division per sector and level.  `eta_sq_table` sweeps E level by
level, sparse over the cells the walk visits, without recursion and without
building a coefficient, and forms a Fraction only for the sectors asked
for.  It is the one route to eta^2: every sector probability (`probw`, so
`wkron prob` and `sample`) and `wkron kron`'s `eta` and `p_w` fields go
through it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter

from .exact import InconsistencyError, SqrtRational, _times_root
from .partitions import (
    PartitionTuple, TwoRowPartition, admissible_rows, dim_irrep, w_admissible, w_admissible_tuples)
from .schur import standard_paths

QTuple = tuple[tuple[int, ...], ...]


@dataclass
class KroneckerVector:
    lams: PartitionTuple
    coeffs: dict[QTuple, SqrtRational]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def norm_sq(self) -> Fraction:
        # coefficients take few distinct values: square each once, times
        # the number of keys holding it
        counts = Counter(self.coeffs.values())
        return sum((v.square() * c for v, c in counts.items()), Fraction(0))


def _sector_coeffs(b: tuple[int, ...], n: int) -> dict[QTuple, SqrtRational]:
    """Coefficients of the admissible sector with second rows b at level n,
    built from its admissible predecessors (one box removed per party, see
    `_predecessors`), each extended by the removed boxes' rows qn and scaled
    by their factor f.  Not cached itself: only the lower levels are
    memoized, so the caller owns the returned dict.
    """
    if n == 1:
        return {((0,),) * len(b): SqrtRational.one()}
    out: dict[QTuple, SqrtRational] = {}
    values: dict[SqrtRational, SqrtRational] = {}
    for p, num, den in _predecessors(b, n):
        f = SqrtRational(1 if num > 0 else -1, Fraction(num * num, den))
        prev_coeffs = _memo_coeffs(p, n - 1)
        # one object per distinct path and value keeps a sector small
        def scale(v):
            v = v * f
            return values.setdefault(v, v)

        grown = _partywise([_extensions(n - 1, pi, bi - pi) for pi, bi in zip(p, b)], prev_coeffs)
        out.update(zip(grown, _per_value(prev_coeffs, scale)))
    return out


def _per_value(coeffs: dict, fn):
    """fn of each coefficient's value, lazily in key order; fn runs once per
    distinct value."""
    vals = coeffs.values()
    done = {v: fn(v) for v in set(vals)}
    return map(done.__getitem__, vals)


def _partywise(maps, keys, *more):
    """Lazily, for each key tuple: each party's part read through that
    party's map, followed by the next item of each iterable in more."""
    return zip(*(map(m.__getitem__, map(itemgetter(i), keys)) for i, m in enumerate(maps)), *more)


@lru_cache(maxsize=128)
def _extensions(m: int, b: int, q: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each path of (m - b, b), extended by one box in row q.  Every sector
    grown from it by q reads the same extended objects, so a sector holds
    one object per party path.  A level of the recurrence reads at most two
    maps per partition, so the bound holds a whole level up to n = 126."""
    return {p: p + (q,) for p in standard_paths(TwoRowPartition(m - b, b))}


# Lower levels of the recurrence, keyed by (second rows, level) and shared by
# every sector whose down-set holds them.  The cached dicts are read-only.
_memo_coeffs = lru_cache(maxsize=None)(_sector_coeffs)


def khat(num_parties: int, n: int, lams: PartitionTuple) -> KroneckerVector:
    """Unnormalized Kronecker vector for one sector; empty when the sector is
    inadmissible or its support vanishes.

    Only the down-set of lams is built, and only levels below n are
    memoized, so cost scales with that down-set, not with every sector at n.
    Below second rows t at level n, level m of the down-set is the admissible
    b with max(0, t_i - (n - m)) <= b_i <= min(t_i, m // 2): a party loses at
    most one box per level, and no step into an admissible predecessor has
    num = 0 (all first-row boxes: num = m - sum b >= 1; a second-row box of
    party j: num <= 2 b_j - sum b - 1 < 0).  The memo is filled over these
    boxes from level 1 upward, so nothing recurses, and it keeps the lower
    levels for the life of the process (118 MB after (9,3)^3).  On a 2-core
    Xeon VM with Python 3.11.7, (10,2)^3 at n=12 (22k coefficients) takes
    0.26 s and 38 MB peak RSS, (9,3)^3 (618k) 4.0 s and 214 MB, (8,4)^3
    (2.4M) 12.8 s and 646 MB.
    """
    if lams.num_parties != num_parties or lams.n != n:
        raise ValueError("partition tuple inconsistent with (N, n)")
    if not w_admissible(lams):
        return KroneckerVector(lams, {})
    t = tuple(lam.lambda2 for lam in lams)
    for m in range(1, n):
        for b in admissible_rows([range(max(0, x - n + m), min(x, m // 2) + 1) for x in t], m):
            _memo_coeffs(b, m)
    return KroneckerVector(lams, _sector_coeffs(t, n))


def khat_all(num_parties: int, n: int) -> dict[PartitionTuple, KroneckerVector]:
    """Unnormalized Kronecker vectors of every sector with nonzero support;
    only the admissible sectors are built."""
    kvs = (khat(num_parties, n, lams) for lams in w_admissible_tuples(num_parties, n))
    return {kv.lams: kv for kv in kvs if not kv.is_zero}


def eta_sq_table(sectors) -> dict[PartitionTuple, Fraction]:
    """Squared norm eta^2 = khat(...).norm_sq() of each sector, all of one
    (N, n), without building a coefficient.

    In `_sector_coeffs` every predecessor lams - qn is extended by its own
    final bit tuple qn, so the pieces are orthogonal and
        eta^2(lams) = sum_qn f(lams, qn)^2 * eta^2(lams - qn).
    Scaled by the hook products, E(lams) = eta^2(lams) * prod_i H(lams_i) / m!
    at level m, with H(a, c) = (a+1)! c! / (a-c+1) = m! / dim (a, c), this is
        E(b) = sum_qn num^2 * prod_i r_i * E(b - qn) / (m * prod_i (m - 2 b_i + 1))
    over the second-row tuple b: r_i = m - b_i + 1 when party i gives back a
    first-row box and b_i when it gives back a second-row box, and num is
    f's numerator (see `_boxes`).  Every E is an integer (observed on every
    sector the tests sweep, not proven), so each division is exact; one with
    a remainder raises InconsistencyError.  E = 1 at n = 1.

    The sweep is sparse, over the cells the walk visits: a dict per level,
    keyed by the index of a second-row tuple in the box prod_i [0, max over
    the targets of b_i], where a stride turns each predecessor shift into an
    index offset.  Level m holds only the nonzero admissible cells (sum b <=
    m, 2 max b <= sum b) that can still reach a target, so memory follows
    those cells, not the box, and eta^2 = E * prod_i dim(lams_i) / n!^(N-1)
    is formed only for the targets; inadmissible targets read 0.

    On a 2-core Xeon VM with Python 3.11.7, the table of every sector takes
    2.9 ms at N=4 n=8, 0.20 s at N=3 n=48, 0.24 s at N=4 n=24 and 2.4 s at
    N=4 n=40; the Fraction walk it replaced took 15.6 ms, 2.35 s, 3.0 s and
    about 43 s.  One sector at N=3 n=9 takes 0.2 ms (1.4 ms before).
    """
    sectors = list(sectors)
    if not sectors:
        return {}
    num_parties, n = sectors[0].num_parties, sectors[0].n
    if any(s.num_parties != num_parties or s.n != n for s in sectors):
        raise ValueError("sectors must share one (N, n)")
    tops = {tuple(lam.lambda2 for lam in s) for s in sectors if w_admissible(s)}
    if not tops:
        return {s: Fraction(0) for s in sectors}
    hi = [max(col) for col in zip(*tops)]
    low = [min(col) for col in zip(*tops)]
    strides = [1] * num_parties
    for i in range(num_parties - 1, 0, -1):
        strides[i - 1] = strides[i] * (hi[i] + 1)
    prev = {0: 1}
    for m in range(2, n + 1):
        cur = {}
        top = [min(h, m // 2) for h in hi]
        steps = [_party_steps(m, h, stride) for h, stride in zip(top, strides)]
        dens = [m - 2 * bi + 1 for bi in range(max(hi) + 1)]
        # a party's second row loses at most one box per level, so a cell
        # below low - (n - m) reaches no target
        lo = [max(0, x - n + m) for x in low]

        def walk(i, b, idx, total, terms):
            # b: the second rows of parties < i; terms: (index shift, prod r,
            # m - num) of each predecessor, over the boxes those parties give
            for bi in range(lo[i], top[i] + 1):
                if total + bi > m:
                    break
                cell = b + (bi,)
                at = idx + bi * strides[i]
                if i + 1 < num_parties:
                    grown = [(o + o2, r * r2, u + u2)
                             for o, r, u in terms for o2, r2, u2 in steps[i][bi]]
                    walk(i + 1, cell, at, total + bi, grown)
                elif 2 * max(cell) <= total + bi:
                    acc = 0
                    for o2, r2, u2 in steps[i][bi]:
                        for o, r, u in terms:
                            e = prev.get(at - o - o2)
                            if e and (k := m - u - u2):
                                acc += k * k * r * r2 * e
                    if acc:
                        den = m * math.prod(map(dens.__getitem__, cell))
                        q, rem = divmod(acc, den)
                        if rem:
                            raise InconsistencyError(
                                f"eta^2 at level {m}, second rows {cell}: the integer "
                                f"numerator is not divisible by {den}")
                        cur[at] = q

        walk(0, (), 0, 0, [(0, 1, 0)])
        prev = cur
    scale = math.factorial(n) ** (num_parties - 1)
    dims = [dim_irrep(TwoRowPartition(n - bi, bi)) for bi in range(max(hi) + 1)]
    out = {}
    for s in sectors:
        b = tuple(lam.lambda2 for lam in s)
        e = b in tops and prev.get(sum(map(int.__mul__, b, strides)))
        out[s] = Fraction(e * math.prod(map(dims.__getitem__, b)), scale) if e else Fraction(0)
    return out


def _party_steps(m: int, hi: int, stride: int) -> list[tuple[tuple[int, int, int], ...]]:
    """For each second row bi = 0..hi of one party at level m: (index shift,
    r, share of m - num) of each box the party can give back, r = m + 1 - share."""
    return [tuple(((bi - p) * stride, m + 1 - share, share) for p, share, _ in _boxes(bi, m))
            for bi in range(hi + 1)]


def _predecessors(b: tuple[int, ...], m: int):
    """(second-row tuple p, num, den) of each admissible sector at level m - 1
    from which the recurrence reaches b at level m with a nonzero factor
    f = sign(num) * sqrt(num^2 / den), the removed boxes' rows b - p in the
    order of `product((0, 1), repeat=N)`."""
    for step in product(*(_boxes(bi, m) for bi in b)):
        p, used, dens = zip(*step)
        s = sum(p)
        if s < m and 2 * max(p) <= s and (num := m - sum(used)):
            yield p, num, math.prod(dens)


def _boxes(bi: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """The step rule for one party with second row bi at level m: (second
    row before, share of m - num, factor of den) of each box it can give
    back, first row before second."""
    out = ()
    if 2 * bi < m:  # the last first-row box; the first row stays the longer
        out += ((bi, bi, m - 2 * bi),)
    if bi:  # the last second-row box
        out += ((bi - 1, m - bi + 1, m - 2 * bi + 2),)
    return out


def eta_sq(lams: PartitionTuple) -> Fraction:
    """eta^2 of one sector; sweeps only the box below its second rows."""
    return eta_sq_table([lams])[lams]


def eta(k: KroneckerVector) -> SqrtRational:
    """Norm of the unnormalized vector; the radicand is exact."""
    return SqrtRational.sqrt(k.norm_sq())


def normalized(k: KroneckerVector) -> KroneckerVector:
    e = eta(k)
    if e.is_zero:
        raise ValueError("cannot normalize the zero vector")
    # coefficients take few distinct values; divide each once
    return KroneckerVector(k.lams, dict(zip(k.coeffs, _per_value(k.coeffs, lambda v: v / e))))


def reduced_density(k: KroneckerVector, party: int) -> list[list[Fraction]]:
    """Exact single-party reduced density matrix over the party's paths, in
    lexicographic path order: rho[i][j] = sum of k(q_i, rest) * k(q_j, rest)
    over the other parties' paths rest.

    Each distinct coefficient value is split once into its squarefree class
    e and an integer numerator over one common denominator D, the lcm of the
    radicands' denominators.  An entry is then a sum of integers per class
    over D^2, added by `exact._times_root` with no product factored.  Within
    a sector all products share one radical class, so every entry is
    rational; one that is not raises ValueError.
    """
    paths = standard_paths(k.lams[party])
    index = {q: i for i, q in enumerate(paths)}
    d = len(paths)
    parts = {v: v.radical_parts() for v in set(k.coeffs.values()) if v.sign}
    den = math.lcm(*(q for _, _, q in parts.values()))
    split = {v: (e, num * (den // q)) for v, (e, num, q) in parts.items()}
    by_rest: dict[tuple, list[tuple[int, int, int]]] = {}
    for qt, v in k.coeffs.items():
        if v in split:
            rest = qt[:party] + qt[party + 1:]
            by_rest.setdefault(rest, []).append((index[qt[party]], *split[v]))
    acc: list[list[dict[int, int]]] = [[{} for _ in range(d)] for _ in range(d)]
    for entries in by_rest.values():
        for i, e, c in entries:
            row, cell = acc[i], {e: c}
            for j, e2, c2 in entries:
                _times_root(cell, c2, e2, row[j])
    if any(set(cell) - {1} for row in acc for cell in row):
        raise ValueError("reduced density entry is not rational")
    return [[Fraction(cell.get(1, 0), den * den) for cell in row] for row in acc]


def verify_lemma1(k: KroneckerVector, party: int) -> float:
    """Max deviation of the party's reduced density matrix from I/dim.

    Exact (rational) evaluation; 0.0 means exact maximal mixedness.
    """
    rho = reduced_density(k, party)
    d = len(rho)
    dev = Fraction(0)
    for i in range(d):
        for j in range(d):
            target = Fraction(1, d) if i == j else Fraction(0)
            dev = max(dev, abs(rho[i][j] - target))
    return float(dev)


# -- JSON table format --------------------------------------------------------
#
# {"N":..., "n":..., "lambdas":[[l1,l2],...],
#  "labels": {"1": ["0...", ...], ...},      path strings, lexicographic order
#  "entries":[{"q":[i1,...,iN], "sign":+-1, "num":..., "den":...}, ...]}
# where i_k is the 1-based ordinal of the path in the party's label list and
# the value is sign*sqrt(num/den).


def to_table_json(k: KroneckerVector) -> dict:
    lams = k.lams
    labels, ordinals = zip(*map(_path_index, lams))
    # one ordinal key per coefficient, built as the entry's "q" list with its
    # value, the record (sign, num, den), appended; the keys differ before
    # the value, so sorting never compares values, and popping it leaves "q"
    rows = list(map(list, _partywise(ordinals, k.coeffs, k.coeffs.values())))
    rows.sort()
    entries = []
    for q in rows:
        sign, num, den = q.pop()
        entries.append({"q": q, "sign": sign, "num": num, "den": den})
    return {
        "N": lams.num_parties,
        "n": lams.n,
        "lambdas": [[lam.lambda1, lam.lambda2] for lam in lams],
        "labels": {str(i + 1): list(party) for i, party in enumerate(labels)},
        "entries": entries,
    }


@lru_cache(maxsize=32)
def _path_index(lam: TwoRowPartition) -> tuple[tuple[str, ...], dict[tuple[int, ...], int]]:
    """The label of each path of lam, in lexicographic order, and each
    path's 1-based ordinal in that list."""
    paths = standard_paths(lam)
    return tuple("".join(map(str, q)) for q in paths), {q: j for j, q in enumerate(paths, 1)}


def from_table_json(d: dict) -> KroneckerVector:
    from .partitions import ptuple

    lams = ptuple(*[tuple(x) for x in d["lambdas"]])
    paths = []
    for i in range(lams.num_parties):
        paths.append([tuple(int(b) for b in s) for s in d["labels"][str(i + 1)]])
    coeffs = {}
    for e in d["entries"]:
        qt = tuple(paths[i][ordinal - 1] for i, ordinal in enumerate(e["q"]))
        coeffs[qt] = SqrtRational.from_json(e)
    return KroneckerVector(lams, coeffs)


def sector_dims(lams: PartitionTuple) -> list[int]:
    return [dim_irrep(lam) for lam in lams]
