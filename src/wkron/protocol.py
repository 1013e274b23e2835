"""Dense exact oracle, exact sector distributions and seeded outcome sampling.

Builds the n-fold tensor power of a state explicitly, applies the multilocal
Schur transform party by party and projects the sectors.  The oracle is exact.
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
with zero tolerance.  The order of the sectors and of their cells is not
part of the contract; `sector_distribution` lists every state's rows, a raw
amplitude list's included, in the order of `all_partition_tuples`, and
seeded samples draw over that order.  The oracle is capped at EXACT_CAP
qubits.  The only float here is `marginal_entropy`, read from the closed-form
eigenvalues of a 2x2 matrix.

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

from . import ghz as ghzmod
from . import probw
from .exact import InconsistencyError, SqrtRational, _times_root
from .kronstate import KroneckerVector, khat
from .partitions import PartitionTuple, list_partitions, w_admissible
from .schur import party_columns
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
        if self.num_parties < 2:
            raise ValueError(f"N >= 2 required, got {self.num_parties}")


def _single_copy_amplitudes(state) -> tuple[int, dict[tuple[int, ...], SqrtRational]]:
    """The number of parties N and the exact nonzero amplitudes of one copy,
    keyed by the N-bit pattern tuple."""
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
        return N, out
    if isinstance(state, WClassState):
        N = state.num_parties
        out = {}
        if state.c[0]:
            out[(0,) * N] = SqrtRational.sqrt(state.c[0])
        for i in range(1, N + 1):
            if state.c[i]:
                bits = tuple(1 if j == i - 1 else 0 for j in range(N))
                out[bits] = SqrtRational.sqrt(state.c[i])
        return N, out
    if isinstance(state, GHZState):
        N = state.num_parties
        return N, {
            (0,) * N: SqrtRational.sqrt(1 - state.alpha),
            (1,) * N: SqrtRational.sqrt(state.alpha),
        }
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
    N, single = _single_copy_amplitudes(state)
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
    """Nonzero cells of a sector's matrix, rows indexed by weight tuples
    omega and columns by tuples qt of standard paths: cells[(omega, qt)] =
    {d: c} is sum(c * sqrt(d)) / den over squarefree d, every c nonzero."""

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


def multilocal_schur(state: DenseState) -> dict[PartitionTuple, SectorBlock]:
    """The nonzero sector blocks of psi^(x)n after the multilocal Schur
    transform, in no promised order of sectors or cells."""
    n, N = state.copies, state.num_parties
    cols, roots, D, labels = party_columns(n)
    mask = (1 << n) - 1
    A = math.lcm(*(den for _, _, den in state.amplitudes.values()))
    # A term (s, c) of class d under a key is c * sqrt(d) * prod sqrt(roots[j])
    # / (A * D**parties_done), with s the string of the party contracted
    # next.  The key holds the label indices j of the parties done, then the
    # strings of the parties after s, then a 0 that stands for the string
    # after the last party; d is the squarefree class of the amplitude the
    # term came from, and classes never mix because the labels' radicals stay
    # outside until the end.
    groups: dict[tuple, dict[int, list]] = {}
    for idx, (d, num, den) in state.amplitudes.items():
        key = tuple([(idx >> (N - 1 - i) * n) & mask for i in range(1, N)] + [0])
        term = (idx >> (N - 1) * n, num * (A // den))
        groups.setdefault(key, {}).setdefault(d, []).append(term)
    for i in range(N):
        groups = _contract_party(groups, i, cols)
    sectors: dict[tuple, dict] = {}
    for key, by_class in groups.items():
        lams, om, qt = zip(*[labels[j] for j in key])
        cell = sectors.setdefault(lams, {}).setdefault((om, qt), {})
        for d, ((_, c),) in by_class.items():
            # c * sqrt(d) * prod sqrt(roots[j]) as one numerator and class
            for j in key:
                g = math.gcd(d, roots[j])
                d, c = (d // g) * (roots[j] // g), c * g
            cell[d] = c
    blocks = (SectorBlock(PartitionTuple(lams), A * D**N, c) for lams, c in sectors.items())
    return {block.lams: block for block in blocks}


def _contract_party(groups: dict, i: int, cols) -> dict:
    """Replace party i's string by each label index j: the terms (s, c) of
    one key and class sum to sum c * K(j, s) for every j, in integers, and a
    sum that cancels is dropped.  Returns the groups for party i + 1."""
    out: dict = {}
    for key, by_class in groups.items():
        head, s_next, tail = key[:i], key[i], key[i + 1 :]
        for d, terms in by_class.items():
            acc: dict[int, int] = {}
            for s, c in terms:
                for j, k in cols[s]:
                    acc[j] = acc.get(j, 0) + c * k
            for j, c in acc.items():
                if c:
                    out.setdefault(head + (j,) + tail, {}).setdefault(d, []).append((s_next, c))
    return out


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
    ref = max(phi.coeffs, key=lambda om: phi.coeffs[om].square())
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
    """Exact outcome distribution over partition tuples, nonzero entries only,
    in the order of `all_partition_tuples` for every kind of state.

    W-class states use `probw.sector_probabilities` (Z * eta^2, one integer
    eta^2 sweep up to level n for every sector) and GHZ states the Louck-polynomial
    sum `ghz.sector_probability`, both closed forms with no size cap; this is
    the route of `wkron prob` and `wkron sample`.  Raw amplitude lists fall
    back to the exact dense oracle within its cap, so a raw list that spells
    out a W-class or GHZ state gives that state's rows.
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
        out = _dense_sectors(state, n)
    else:
        raise TypeError("sector_distribution needs a WClassState, GHZState or amplitude list")
    out = [(lams, p) for lams, p in out if p > 0]
    total = sum(p for _, p in out)
    if total != 1:
        raise InconsistencyError(f"sector probabilities sum to {total}, not 1")
    return out


def _dense_sectors(state, n: int):
    """The dense oracle's rows (lams, squared norm) of state^(x)n, in the
    order of `all_partition_tuples`.  A state whose single copy does not
    have squared norm 1 is bad input, refused before the tensor power is
    built."""
    norm = sum(a.square() for a in _single_copy_amplitudes(state)[1].values())
    if norm != 1:
        raise ValueError(f"amplitudes have squared norm {norm}, not 1")
    dense = tensor_power(state, n)
    sectors = multilocal_schur(dense)
    return [(lams, sectors[lams].norm_sq())
            for lams in all_partition_tuples(dense.num_parties, n) if lams in sectors]


def sample_outcomes(state, n: int, seed: int, count: int) -> list[PartitionTuple]:
    """Deterministic batch sampling by inverse CDF over exact probabilities.

    The pseudorandom stream is Python's Mersenne Twister seeded with `seed`;
    each draw consumes 64 bits, u = getrandbits(64)/2^64, platform independent.
    A draw is the first row of `sector_distribution(state, n)`, in its
    `all_partition_tuples` order, whose cumulative probability exceeds u.
    """
    if count < 0:
        raise ValueError(f"cannot draw {count} samples")
    dist = sector_distribution(state, n)
    cdf = list(accumulate(p for _, p in dist))  # ends at exactly 1 > u
    rng = random.Random(seed)
    return [
        dist[bisect_right(cdf, Fraction(rng.getrandbits(64), 2**64))][0]
        for _ in range(count)
    ]


def marginal_entropy(state, party: int) -> float:
    """Von Neumann entropy (bits) of one party's single-copy reduced state."""
    N, single = _single_copy_amplitudes(state)
    if not (0 <= party < N):
        raise ValueError("party index out of range")
    rho = [[0.0, 0.0], [0.0, 0.0]]
    items = list(single.items())
    for p1, a1 in items:
        for p2, a2 in items:
            if p1[:party] + p1[party + 1 :] == p2[:party] + p2[party + 1 :]:
                rho[p1[party]][p2[party]] += float(a1 * a2)
    # the eigenvalues of a real symmetric 2x2 matrix, the smaller first
    mid = (rho[0][0] + rho[1][1]) / 2
    r = math.hypot((rho[0][0] - rho[1][1]) / 2, rho[0][1])
    return float(-sum(v * math.log2(v) for v in (mid - r, mid + r) if v > 1e-15))


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
