"""Dense brute-force oracle and protocol simulator.

Builds the n-fold tensor power of a state explicitly, applies the multilocal
Schur transform party by party, projects sectors, extracts the residual
Schmidt structure, and samples measurement outcomes.  The oracle is exact.
The tensor power holds each amplitude as integers (d, num, den), the value
num/den * sqrt(d) with d squarefree; only the single-copy amplitudes are
split by `SqrtRational.radical_parts`, and a product takes its class from the
copies' classes by one gcd.  One party's transform comes from
`schur.party_columns`, which builds the B coefficients and checks that all
nonzero ones of one Schur label j share one squarefree radical u_j; with the
label radicals pulled out it is an integer matrix over a common denominator
D.  This module keeps only the contraction, and it runs on plain ints: each
term keeps its amplitude's class d beside its key, the terms of one key and
class sum to c with no radical arithmetic, and c * sqrt(d) * prod_i
sqrt(u_{j_i}) is split into a numerator and a class once per final cell.
Every cell shares one denominator, the lcm of the amplitude denominators
times D^N.  Sector blocks keep that form, nonzero cells only, so norms and
the rank-1 check run in integers and the recurrence is checked against them
with zero tolerance.  Sectors and their cells come in first-touch order: by
the first amplitude (in dict order) that reaches them, then by label indices,
the order in which a nested loop over amplitudes and then over each party's
columns would first touch them.  Sampling from a raw amplitude list draws
over that order.  The oracle is capped at EXACT_CAP qubits.  `sample_run`,
`residual_schmidt` and `SectorBlock.float_matrix` read floats from the exact
blocks; they stay until the residual spectra are exact.

Bit layout (part of the contract): amplitude index is an (N*n)-bit integer,
party-major, with party i's copy-k qubit at bit position i*n + k counted from
the most significant bit.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from operator import itemgetter

import numpy as np

from . import ghz as ghzmod
from . import probw
from .exact import InconsistencyError, SqrtRational
from .kronstate import KroneckerVector, khat, normalized
from .partitions import PartitionTuple, list_partitions, w_admissible
from .schur import party_columns, standard_paths
from .wstates import WClassState, phi_hat, w_normal_form

EXACT_CAP = 18

WeightTuple = tuple[int, ...]
QTuple = tuple[tuple[int, ...], ...]


class SizeCapError(ValueError):
    """Requested dense computation exceeds the documented size caps."""


@dataclass(frozen=True)
class GHZState:
    """sqrt(1-alpha)|0..0> + sqrt(alpha)|1..1> on num_parties qubits."""

    alpha: Fraction
    num_parties: int = 3

    def __post_init__(self):
        a = Fraction(self.alpha)
        object.__setattr__(self, "alpha", a)
        if not (0 < a < 1):
            raise ValueError("alpha must lie strictly between 0 and 1")


def _single_copy_amplitudes(state) -> dict[tuple[int, ...], SqrtRational]:
    """Exact amplitudes of one copy, keyed by the N-bit pattern tuple."""
    if isinstance(state, (list, tuple)):
        dim = len(state)
        if dim < 4:
            raise ValueError("a raw amplitude list needs at least two parties: length >= 4")
        N = dim.bit_length() - 1
        if 2**N != dim:
            raise ValueError("raw amplitude list length must be a power of two")
        if not all(isinstance(a, (SqrtRational, Fraction, int)) for a in state):
            raise ValueError("raw amplitudes must be exact (int, Fraction or SqrtRational)")
        out = {}
        for idx, a in enumerate(state):
            a = a if isinstance(a, SqrtRational) else SqrtRational.from_rational(a)
            if not a.is_zero:
                out[tuple((idx >> (N - 1 - j)) & 1 for j in range(N))] = a
        return out
    if isinstance(state, WClassState):
        N = state.num_parties
        out = {}
        if state.c[0]:
            out[(0,) * N] = SqrtRational.sqrt(state.c[0])
        for i in range(1, N + 1):
            if state.c[i]:
                bits = tuple(1 if j == i - 1 else 0 for j in range(N))
                out[bits] = SqrtRational.sqrt(state.c[i])
        return out
    if isinstance(state, GHZState):
        N = state.num_parties
        return {
            (0,) * N: SqrtRational.sqrt(1 - state.alpha),
            (1,) * N: SqrtRational.sqrt(state.alpha),
        }
    raise TypeError(f"unsupported state spec {state!r}")


def _num_parties(state) -> int:
    if isinstance(state, (WClassState, GHZState)):
        return state.num_parties
    if isinstance(state, (list, tuple)):
        return len(state).bit_length() - 1
    raise TypeError(f"unsupported state spec {state!r}")


@dataclass
class DenseState:
    """Exact amplitudes of psi^(x)n over {0,1}^(N*n), stored sparse as
    {index: (d, num, den)}, the nonzero value num/den * sqrt(d) as split by
    `SqrtRational.radical_parts`: d squarefree, den the square's denominator."""

    num_parties: int
    copies: int
    amplitudes: dict[int, tuple[int, int, int]]

    def norm_sq(self) -> Fraction:
        amps = self.amplitudes.values()
        return sum((Fraction(d * num * num, den * den) for d, num, den in amps), Fraction(0))


def tensor_power(state, n: int) -> DenseState:
    """Exact amplitudes of state^(x)n, at most EXACT_CAP qubits in total; a raw
    amplitude list (length 2^N, exact scalars) is accepted in place of a state
    object.  Amplitudes come in nested-loop order over the copies, the first
    outermost, each over the nonzero single-copy patterns in order."""
    single = _single_copy_amplitudes(state)
    N = _num_parties(state)
    if N * n > EXACT_CAP:
        raise SizeCapError(f"{N * n} qubits exceeds the {EXACT_CAP}-qubit dense cap")
    # per pattern: its bits one place above copy 0's (copy k's are these
    # shifted right by k + 1), sign, radicand P/Q as two integers and class;
    # a product's class is d1*d2/g^2 for g = gcd(d1, d2)
    pats = [
        (sum(b << (N - i) * n for i, b in enumerate(bits)), a.sign,
         a.radicand.numerator, a.radicand.denominator, a.radical_parts()[0])
        for bits, a in single.items()
    ]
    amps = {0: (1, 1, 1, 1)}
    for k in range(n):
        nxt = {}
        for idx, (s0, p0, q0, d0) in amps.items():
            for off, s, p, q, d in pats:
                g = math.gcd(d0, d)
                nxt[idx | off >> (k + 1)] = (s0 * s, p0 * p, q0 * q, (d0 // g) * (d // g))
        amps = nxt
    out = DenseState(N, n, {})
    for idx, (s, p, q, d) in amps.items():
        # P/Q in lowest terms, then sqrt(P/Q) = sqrt(P*Q)/Q = m/Q * sqrt(d)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        m = math.isqrt(p * q // d)
        if m * m * d != p * q:
            raise InconsistencyError(
                f"amplitude {idx}: radicand {Fraction(p, q)} is not in class {d}")
        out.amplitudes[idx] = (d, s * m, q)
    return out


@dataclass
class SectorBlock:
    """Nonzero cells of a sector's matrix over the (weight-tuple rows) x
    (q-tuple columns) of `sector_grid`: cells[(omega, qt)] = {d: c} is
    sum(c * sqrt(d)) / den over squarefree d, every c nonzero."""

    lams: PartitionTuple
    den: int
    cells: dict[tuple[WeightTuple, QTuple], dict[int, int]]

    def norm_sq(self) -> Fraction:
        total: dict[int, int] = {}
        for cell in self.cells.values():
            for e, k in cell.items():
                _times_root(cell, k, e, total)
        if set(total) - {1}:
            # amplitudes of mixed radical classes can leave Q; that is bad
            # input for an exact-rational distribution, not a contradiction
            raise ValueError(
                f"sector {self.lams}: squared norm is not rational "
                f"(radical classes {sorted(total)})"
            )
        return Fraction(total.get(1, 0), self.den**2)

    def float_matrix(self) -> np.ndarray:
        weights, qlabels = sector_grid(self.lams)
        m = np.zeros((len(weights), len(qlabels)))
        for (om, qt), cell in self.cells.items():
            # fsum: a cell's classes come in no fixed order
            x = math.fsum(float(Fraction(c, self.den)) * math.sqrt(d) for d, c in cell.items())
            m[weights.index(om), qlabels.index(qt)] = x
        return m


def _times_root(cell: dict[int, int], k: int, e: int, acc: dict[int, int]) -> dict[int, int]:
    """acc += cell * k * sqrt(e) in integers, e squarefree; zero classes drop out."""
    for d, c in cell.items():
        g = math.gcd(d, e)
        r = (d // g) * (e // g)
        t = acc.get(r, 0) + c * k * g
        if t:
            acc[r] = t
        else:
            del acc[r]
    return acc


def multilocal_schur(state: DenseState) -> dict[PartitionTuple, SectorBlock]:
    n, N = state.copies, state.num_parties
    cols, roots, D, labels = party_columns(n)
    mask = (1 << n) - 1
    A = math.lcm(*(den for _, _, den in state.amplitudes.values()))
    # A term (m, s, c) of class d under a key is c * sqrt(d) *
    # prod sqrt(roots[j]) / (A * D**parties_done), with s the string of the
    # party contracted next.  The key holds the label indices j of the
    # parties done and the strings of the parties after s; d is the
    # squarefree class of the amplitude the term came from, and classes
    # never mix because the labels' radicals stay outside until the end.
    # m is the least position (in dict order) of an amplitude whose terms
    # reach the key and s, in any class: a nested loop over the amplitudes
    # and then over each party's columns touches the final keys in order of
    # m and then label indices, and the sectors and cells keep that order.
    groups: dict[tuple, dict[int, list]] = {}
    for m, (idx, (d, num, den)) in enumerate(state.amplitudes.items()):
        key = tuple([(idx >> (N - 1 - i) * n) & mask for i in range(1, N)])
        term = (m, idx >> (N - 1) * n, num * (A // den))
        groups.setdefault(key, {}).setdefault(d, []).append(term)
    for i in range(N - 1):
        groups = _contract_party(groups, i, cols, last=False)
    final = _contract_party(groups, N - 1, cols, last=True)
    final.sort(key=itemgetter(0, 1))
    sectors: dict[tuple, dict] = {}
    for _, key, d, c in final:
        # c * sqrt(d) * prod sqrt(roots[j]) as one numerator and class
        for j in key:
            g = math.gcd(d, roots[j])
            d, c = (d // g) * (roots[j] // g), c * g
        lams, om, qt = zip(*[labels[j] for j in key])
        sectors.setdefault(lams, {}).setdefault((om, qt), {})[d] = c
    blocks = (SectorBlock(PartitionTuple(lams), A * D**N, c) for lams, c in sectors.items())
    return {block.lams: block for block in blocks}


def _contract_party(groups: dict, i: int, cols, last: bool):
    """Replace party i's string by each label index j.  The terms (m, s, c)
    of one key and class sum to sum c * K(j, s) for every j, in integers.
    A new key's m is the least m of the terms that reach it, in any class
    and whether or not its sum cancels; a (key, class) whose sum cancels is
    dropped.  Returns the groups for party i + 1, or after the last party
    the list of (m, key, d, c)."""
    out: dict | list = [] if last else {}
    for key, by_class in groups.items():
        head = key[:i]
        if not last:
            s_next, tail = key[i], key[i + 1 :]
        # per class, (j, sum, least m of a term reaching j) in the order a
        # loop over the terms by increasing m first reaches j
        sums = []
        for d, terms in by_class.items():
            if len(terms) == 1:
                ((m, s, c),) = terms
                sums.append((d, [(j, c * k, m) for j, k in cols[s]]))
                continue
            terms.sort()  # by m: no two terms of one key and class share it
            acc: dict[int, int] = {}
            firsts: list[int] = []
            for m, s, c in terms:
                for j, k in cols[s]:
                    if j in acc:
                        acc[j] += c * k
                    else:
                        acc[j] = c * k
                if len(acc) > len(firsts):
                    firsts += [m] * (len(acc) - len(firsts))
            sums.append((d, [(j, c, m) for (j, c), m in zip(acc.items(), firsts)]))
        if len(sums) > 1:
            # one m per new key, the least over its classes
            first: dict[int, int] = {}
            for _, col in sums:
                for j, _, m in col:
                    if m < first.get(j, m + 1):
                        first[j] = m
            sums = [(d, [(j, c, first[j]) for j, c, _ in col]) for d, col in sums]
        for d, col in sums:
            for j, c, m in col:
                if not c:
                    continue
                if last:
                    out.append((m, head + (j,), d, c))
                    continue
                nk = head + (j,) + tail
                by = out.get(nk)
                if by is None:
                    out[nk] = {d: [(m, s_next, c)]}
                elif d in by:
                    by[d].append((m, s_next, c))
                else:
                    by[d] = [(m, s_next, c)]
    return out


def sector_grid(lams: PartitionTuple) -> tuple[list[WeightTuple], list[QTuple]]:
    """Canonical row/column enumeration of a sector block: the full weight box
    and the full product of lexicographic path lists, both row-major."""
    weights = [
        tuple(om)
        for om in product(*(range(lam.lambda2, lam.lambda1 + 1) for lam in lams))
    ]
    qlabels = [tuple(qs) for qs in product(*(standard_paths(lam) for lam in lams))]
    return weights, qlabels


def residual_schmidt(block: SectorBlock) -> list[float]:
    """Singular values of the sector matrix, normalized to unit square sum."""
    m = block.float_matrix()
    sv = np.linalg.svd(m, compute_uv=False)
    total = float(np.sum(sv**2))
    if total <= 0:
        raise ValueError("zero sector block")
    return [float(s) / math.sqrt(total) for s in sv]


# verify_case asks for one (N, n) at a time, so one entry serves all its sectors
@lru_cache(maxsize=1)
def _w_sectors(num_parties: int, n: int):
    return multilocal_schur(tensor_power(w_normal_form(num_parties), n))


def oracle_khat(lams: PartitionTuple, n: int) -> KroneckerVector:
    """Exact q-side factor of the rank-1 sector of W^(x)n, scaled so the
    weight-side factor equals phi_hat(W).  Raises InconsistencyError when the
    sector fails to factorize (which would falsify the rank-1 claim)."""
    if lams.n != n:
        raise ValueError("partition tuple size mismatch")
    sector = _w_sectors(lams.num_parties, n).get(lams)
    phi = phi_hat(w_normal_form(lams.num_parties), lams)
    if sector is None:
        if phi.coeffs and w_admissible(lams):
            raise InconsistencyError(f"sector {lams} missing but fiducial support nonempty")
        return KroneckerVector(lams, {})
    if not phi.coeffs:
        raise InconsistencyError(f"sector {lams} present but fiducial support empty")
    ref = max(phi.coeffs, key=lambda om: abs(phi.coeffs[om].signed_square()))
    # rank-1 check over the nonzero cells: each is phi_omega * ref cell / phi_ref
    # with a one-class ref cell; for phi_omega = p/q * sqrt(d), in integers,
    # cell * p_ref * q * sqrt(d_ref) == ref cell * p * q_ref * sqrt(d)
    parts = {om: v.radical_parts() for om, v in phi.coeffs.items()}
    rd, rp, rq = parts[ref]
    kvals = {}
    for (om, qt), cell in sector.cells.items():
        if om not in parts:
            raise InconsistencyError(f"sector {lams}: weight {om} outside fiducial support")
        d, p, q = parts[om]
        ref_cell = sector.cells.get((ref, qt), {})
        lhs, rhs = _times_root(cell, rp * q, rd, {}), _times_root(ref_cell, p * rq, d, {})
        if len(ref_cell) != 1 or lhs != rhs:
            raise InconsistencyError(f"sector {lams} does not factorize at weight {om}, q {qt}")
        if om == ref:
            ((e, c),) = cell.items()
            v = SqrtRational.from_rational(Fraction(c, sector.den)) * SqrtRational.sqrt(e)
            kvals[qt] = v / phi.coeffs[ref]
    if len(sector.cells) != len(parts) * len(kvals):
        raise InconsistencyError(f"sector {lams}: a cell of supp phi x supp khat is zero")
    return KroneckerVector(lams, kvals)


def all_partition_tuples(num_parties: int, n: int):
    for combo in product(list_partitions(n), repeat=num_parties):
        yield PartitionTuple(tuple(combo))


def sector_distribution(state, n: int) -> list[tuple[PartitionTuple, Fraction]]:
    """Exact outcome distribution over partition tuples, nonzero entries only.

    W-class states use `probw.sector_probabilities` (Z * eta^2, one integer
    eta^2 sweep up to level n for every sector) and GHZ states the Louck-polynomial
    sum `ghz.sector_probability`, both closed forms with no size cap; this is
    the route of `wkron prob` and `wkron sample`.  Raw amplitude lists fall
    back to the exact dense oracle within its cap.
    """
    if isinstance(state, WClassState):
        sectors = list(all_partition_tuples(state.num_parties, n))
        out = zip(sectors, probw.sector_probabilities(state, sectors))
    elif isinstance(state, GHZState):
        out = [
            (lams, ghzmod.sector_probability(lams, state.alpha))
            for lams in all_partition_tuples(state.num_parties, n)
        ]
    elif isinstance(state, (list, tuple)):
        sectors = multilocal_schur(tensor_power(state, n))
        out = [(lams, b.norm_sq()) for lams, b in sectors.items()]
    else:
        raise TypeError("sector_distribution needs a WClassState, GHZState or amplitude list")
    return _nonzero_normalized(out)


def _nonzero_normalized(rows) -> list[tuple[PartitionTuple, Fraction]]:
    out = [(lams, p) for lams, p in rows if p > 0]
    total = sum(p for _, p in out)
    if total != 1:
        raise InconsistencyError(f"sector probabilities sum to {total}, not 1")
    return out


# Bound on a sector's support, the product of its dimensions, for which
# `wkron kron` and sample_run build the Kronecker vector.  Cost follows the
# product: the whole `wkron kron` call took 14 s and 396 MB peak RSS for
# (9,3)^3 at n=12 (product 3.65M, 618k coefficients; khat alone 4.0 s and
# 214 MB) and 21 s and 604 MB for (9,2)^4 at n=11 (3.75M), while khat alone
# took 12.8 s and 646 MB for (8,4)^3 (20.8M), on a 2-core VM with Python 3.11.
KRON_SUPPORT_CAP = 4_000_000
# Bound on n for `wkron kron`, checked before any dimension is formed.  Past
# it, stages outside the Kronecker coefficient run long even in a small
# support: (400,0)^3 spent 3.3 s in Z and (299,1;299,1;300,0) 5.6 s in khat,
# and the eta of (300,0)^10 has more digits than Python's 4300-digit
# int-to-str limit lets JSON write ((48,0)^80 already stops there).
KRON_N_CAP = 48


def sample_outcomes(state, n: int, seed: int, count: int) -> list[PartitionTuple]:
    """Deterministic batch sampling by inverse CDF over exact probabilities.

    The pseudorandom stream is Python's Mersenne Twister seeded with `seed`;
    each draw consumes 64 bits, u = getrandbits(64)/2^64, platform independent.
    """
    if count < 0:
        raise ValueError(f"cannot draw {count} samples")
    return _draw(sector_distribution(state, n), seed, count)


def _draw(dist, seed: int, count: int) -> list[PartitionTuple]:
    cdf = list(accumulate(p for _, p in dist))  # ends at exactly 1 > u
    rng = random.Random(seed)
    return [
        dist[bisect_right(cdf, Fraction(rng.getrandbits(64), 2**64))][0]
        for _ in range(count)
    ]


def sample_run(state, n: int, seed: int) -> dict:
    """One protocol run: measured sector plus the concentrated-state description.

    The outcome is the first draw of `sample_outcomes(state, n, seed, 1)`; for a
    raw amplitude list one dense oracle run gives both the distribution and the
    measured block."""
    if isinstance(state, (list, tuple)):
        sectors = multilocal_schur(tensor_power(state, n))
        dist = _nonzero_normalized((lams, b.norm_sq()) for lams, b in sectors.items())
    else:
        dist = sector_distribution(state, n)
    lams = _draw(dist, seed, 1)[0]
    desc: dict = {"outcome": lams}
    if isinstance(state, WClassState):
        from .kronstate import sector_dims

        desc["kind"] = "w-kronecker"
        dims = sector_dims(lams)
        desc["dims"] = dims
        if math.prod(dims) <= KRON_SUPPORT_CAP:
            desc["kron"] = normalized(khat(state.num_parties, n, lams))
        else:
            desc["kron"] = None
    elif isinstance(state, GHZState):
        desc["kind"] = "ghz-residual"
        g = ghzmod.gram(lams, state.alpha, n)
        desc["gram_spectrum"] = ghzmod.schmidt_spectrum(g) if g.weights else []
    else:
        desc["kind"] = "residual-ensemble"
        desc["schmidt"] = residual_schmidt(sectors[lams])
    return desc


def marginal_entropy(state, party: int) -> float:
    """Von Neumann entropy (bits) of one party's single-copy reduced state."""
    single = _single_copy_amplitudes(state)
    N = _num_parties(state)
    if not (0 <= party < N):
        raise ValueError("party index out of range")
    rho = np.zeros((2, 2))
    items = list(single.items())
    for p1, a1 in items:
        for p2, a2 in items:
            if p1[:party] + p1[party + 1 :] == p2[:party] + p2[party + 1 :]:
                rho[p1[party], p2[party]] += float(a1 * a2)
    vals = np.linalg.eigvalsh(rho)
    return float(-sum(v * math.log2(v) for v in vals if v > 1e-15))


def verify_case(num_parties: int, n: int) -> dict:
    """Exact oracle-vs-recurrence comparison of every sector at one (N, n)."""
    entry = {
        "N": num_parties,
        "n": n,
        "sectors": 0,
        "mismatches": [],
        "empty_checked": 0,
    }
    for lams in all_partition_tuples(num_parties, n):
        kv = khat(num_parties, n, lams)
        ov = oracle_khat(lams, n)
        if kv.is_zero:
            entry["empty_checked"] += 1
            if ov.coeffs:
                entry["mismatches"].append(
                    {"lams": str(lams), "why": "recurrence empty, oracle nonzero"}
                )
            continue
        entry["sectors"] += 1
        if kv.coeffs != ov.coeffs:
            bad = [
                str(qt)
                for qt in set(kv.coeffs) | set(ov.coeffs)
                if kv.coeffs.get(qt) != ov.coeffs.get(qt)
            ]
            entry["mismatches"].append({"lams": str(lams), "bad_keys": bad[:5]})
    return entry


def verify_report(cases=((3, 5), (4, 4))) -> dict:
    """Oracle-vs-recurrence master suite: exact comparison of every sector.

    Returns {"ok": bool, "cases": [...]}; mismatches list offending sectors.
    Each (N, nmax) is checked before any case runs: nmax 0 skips N, a
    negative nmax raises ValueError and N*nmax above EXACT_CAP raises
    SizeCapError.
    """
    for N, nmax in cases:
        if nmax < 0:
            raise ValueError(f"N={N}: nmax must be >= 0, got {nmax}")
        if N * nmax > EXACT_CAP:
            raise SizeCapError(
                f"N={N}, n={nmax}: {N * nmax} qubits exceeds the {EXACT_CAP}-qubit dense cap"
            )
    entries = [verify_case(N, n) for N, nmax in cases for n in range(1, nmax + 1)]
    ok = all(not e["mismatches"] for e in entries)
    return {"ok": ok, "cases": entries}
