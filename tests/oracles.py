"""Second routes kept only as test oracles.

Each one computes a quantity the package computes by another route, the
slow and literal way, so tests can compare the two exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul

from wkron.covariants import MultiPoly
from wkron.exact import RadicalSum, SqrtRational, _sign
from wkron.ghz import GramMatrix, JointWeight
from wkron.kronstate import KroneckerVector, _down_set, _predecessors
from wkron.partitions import (
    PartitionTuple,
    TwoRowPartition,
    dim_irrep,
    list_partitions,
    w_admissible,
)
from wkron.protocol import SectorBlock, _num_parties, _single_copy_amplitudes
from wkron.schur import BitString, PathSeq, SchurBlock, SchurLabel, b_coeff, standard_paths
from wkron.wstates import a_factor


def collapse(x: RadicalSum) -> SqrtRational:
    """Exact conversion to a single SqrtRational; raises if >= 2 radical classes."""
    if not x.terms:
        return SqrtRational.zero()
    if len(x.terms) > 1:
        raise ValueError(f"not a single radical class: {x.terms}")
    (d, c), = x.terms.items()
    return SqrtRational(_sign(c), c * c * d)


def squared_magnitudes(k: KroneckerVector) -> list[Fraction]:
    """Multiset (sorted list) of squared coefficient values."""
    return sorted(v.square() for v in k.coeffs.values())


def trace(g: GramMatrix) -> Fraction:
    """Exact trace of a Gram matrix, whose diagonal entries are rational."""
    diag = [g.exact[i][i].as_rational() for i in range(len(g.weights))]
    if None in diag:
        raise AssertionError("diagonal Gram entry is not rational")
    return sum(diag, Fraction(0))


# -- paths, permutations and the S_n representation matrices -----------------
#
# A permutation is a tuple p of length n mapping position k to p[k] (0-based).


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


def row_vector(block: SchurBlock, label: SchurLabel) -> dict[BitString, SqrtRational]:
    """The B coefficients of one row of a Schur block, by computational string."""
    return dict(block.items())[label]


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


def all_cycle_types(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n (any number of parts), as descending tuples."""

    def gen(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - p, p):
                yield (p,) + rest

    return tuple(gen(n, n))


def class_size(c: tuple[int, ...]) -> int:
    """Number of permutations of the given cycle type: n!/z_c."""
    n = sum(c)
    z = 1
    mult: dict[int, int] = {}
    for p in c:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        z *= p**m * math.factorial(m)
    return math.factorial(n) // z


# -- S_n characters and the Young's-rule Kronecker coefficient ---------------
#
# Cycle types are canonicalized as tuples sorted in descending order.  For two
# rows, Young's rule gives M^(n-k,k) = S^(n) + S^(n-1,1) + ... + S^(n-k,k) for
# k <= n/2, where M^(n-k,k) permutes the k-subsets of {1..n}.  So
#     chi^(n-k,k)(sigma) = pi_k(sigma) - pi_(k-1)(sigma),
# where pi_k(sigma), the number of k-subsets sigma fixes, is the coefficient
# of t^k in the product over the cycles of sigma of (1 + t^length).


def cycle_type(parts) -> tuple[int, ...]:
    c = tuple(sorted((int(p) for p in parts), reverse=True))
    if any(p < 1 for p in c):
        raise ValueError(f"cycle parts must be positive, got {parts}")
    return c


def _times_cycle(fixed: list[int], p: int) -> list[int]:
    """fixed * (1 + t^p), truncated at the degree of fixed."""
    if p >= len(fixed):
        return fixed
    return fixed[:p] + [fixed[i] + fixed[i - p] for i in range(p, len(fixed))]


def character(lam: TwoRowPartition, c) -> int:
    """S_n irreducible character at the conjugacy class of cycle type c."""
    c = cycle_type(c)
    if sum(c) != lam.size:
        raise ValueError(f"cycle type of size {sum(c)} vs partition of size {lam.size}")
    k = lam.lambda2
    fixed = [1] + [0] * k  # fixed[j] = pi_j
    for p in c:
        fixed = _times_cycle(fixed, p)
    return fixed[k] - fixed[k - 1] if k else 1


def kron_coeff_young(t: PartitionTuple) -> int:
    """Generalized Kronecker coefficient as the character sum
    sum_c n!/z_c * prod_i chi^(i)(c) over the p(n) cycle types c of S_n, in
    one depth-first pass: parts of 2 and more are chosen in descending order
    with their multiplicities, carrying the class size and the fixed-subset
    polynomial truncated at degree max lambda2, and every node closes one
    cycle type with the parts of 1 that remain.  The cost grows with p(n),
    about 1 s at n = 48.
    """
    n = t.n
    powers = Counter(lam.lambda2 for lam in t)
    # r parts of 1 multiply the polynomial by (1 + t)^r, so chi^(n-k,k) is
    # sum_j fixed[j] * (C(r, k-j) - C(r, k-j-1)); ones[r][k] lists those
    # factors for j = 0..k
    ones = [
        {k: [math.comb(r, k - j) - math.comb(r, k - j - 1) if k > j else 1 for j in range(k + 1)]
         for k in powers}
        for r in range(n + 1)
    ]
    total = 0

    def visit(rem: int, maxpart: int, fixed: list[int], size: int):
        nonlocal total
        term = size // math.factorial(rem)
        for k, mult in powers.items():
            chi = sum(map(mul, fixed, ones[rem][k]))
            if not chi:
                break
            term *= chi**mult
        else:
            total += term
        for p in range(min(rem, maxpart), 1, -1):
            f, s = fixed, size
            for m in range(1, rem // p + 1):
                f = _times_cycle(f, p)
                s //= p * m  # z_c gains p^m * m!
                visit(rem - p * m, p - 1, f, s)

    visit(n, n, [1] + [0] * max(powers), math.factorial(n))
    k, r = divmod(total, math.factorial(n))
    if r or k < 0:
        raise AssertionError(f"kron coefficient not a nonnegative integer: {total}/{n}!")
    return k


def joint_weights(n: int, omega: int, omega_p: int):
    """All joint weights compatible with sequence weights (omega, omega_p)."""
    for t11 in range(max(0, omega + omega_p - n), min(omega, omega_p) + 1):
        yield JointWeight(n - omega - omega_p + t11, omega_p - t11, omega - t11, t11)


def multinomial_theta(theta: JointWeight) -> int:
    """Number of sequence pairs with the given joint weight."""
    return math.factorial(theta.n) // math.prod(map(math.factorial, theta))


def hahn_eberlein_3f2(lam: TwoRowPartition, omega_lt: int, omega_gt: int, x: int) -> Fraction:
    """Terminating 3F2(1) summed term by term in Fractions.

    Upper parameters (-lambda2, -x, lambda2 - n - 1), lower parameters
    (-omega_lt, omega_gt - n).  The sum terminates at k = min(lambda2, x).
    """
    n = lam.size
    a1, a2, a3 = -lam.lambda2, -x, lam.lambda2 - n - 1
    b1, b2 = -omega_lt, omega_gt - n
    total = Fraction(1)
    term = Fraction(1)
    k = 0
    while True:
        num = (a1 + k) * (a2 + k) * (a3 + k)
        if num == 0:
            return total
        den = (b1 + k) * (b2 + k) * (k + 1)
        if den == 0:
            raise ValueError("parameters outside the terminating range")
        term *= Fraction(num, den)
        total += term
        k += 1


def louck_bsum(lam: TwoRowPartition, omega: int, omega_p: int, theta: JointWeight) -> SqrtRational:
    """Louck value from its definition through the Schur coefficients, for
    one canonical representative pair; cross-checks the product formula."""
    if theta.weights() != (omega, omega_p):
        raise ValueError(f"{theta} incompatible with weights ({omega},{omega_p})")
    if not (lam.lambda1 >= omega >= lam.lambda2 and lam.lambda1 >= omega_p >= lam.lambda2):
        return SqrtRational.zero()
    s = (1,) * theta.t11 + (1,) * theta.t10 + (0,) * theta.t01 + (0,) * theta.t00
    sp = (1,) * theta.t11 + (0,) * theta.t10 + (1,) * theta.t01 + (0,) * theta.t00
    acc = RadicalSum.zero()
    for q in standard_paths(lam):
        b = b_coeff(SchurLabel(lam, omega, q), s) * b_coeff(SchurLabel(lam, omega_p, q), sp)
        acc = acc + RadicalSum.from_sqrt(b)
    return collapse(acc.scale(Fraction(1, dim_irrep(lam))))


def overlap_per_theta(lams: PartitionTuple, omega: int, omega_p: int) -> SqrtRational:
    """GHZ sector overlap <K_omega|K_omega'> with one Fraction product per
    joint weight theta: each party's Louck value is its prefactor times the
    term-by-term 3F2, and the weight-only radical is taken from the A factors."""
    n = lams.n
    for lam in lams:
        if not (lam.lambda1 >= omega >= lam.lambda2 and lam.lambda1 >= omega_p >= lam.lambda2):
            return SqrtRational.zero()
    olt, ogt = min(omega, omega_p), max(omega, omega_p)
    pref = Fraction(math.factorial(olt) * math.factorial(n - ogt), math.factorial(n))
    rad = Fraction(1)
    for lam in lams:
        rad *= a_factor(lam, olt) / a_factor(lam, ogt)
    total = Fraction(0)
    for theta in joint_weights(n, olt, ogt):
        term = Fraction(multinomial_theta(theta))
        for lam in lams:
            term *= pref * hahn_eberlein_3f2(lam, olt, ogt, theta.t10)
        total += term
    q = math.prod(dim_irrep(lam) for lam in lams) * total
    if q == 0:
        return SqrtRational.zero()
    return SqrtRational(1 if q > 0 else -1, q * q * rad)


def projective_transvectant(f: MultiPoly, g: MultiPoly, party: int, order: int) -> MultiPoly:
    """Single-party transvectant through the projective-coordinate formula,
    as an independent cross-check of the Omega route."""
    f._compatible(g)
    fd, gd = f.multidegree(), g.multidegree()
    N = f.num_parties
    out = MultiPoly(N, f.c, f.psi_degree + g.psi_degree, {})
    if fd is None or gd is None:
        return out
    fi, gi = fd[party], gd[party]
    if not (0 <= order <= min(fi, gi)):
        return out

    def deriv_p(p: MultiPoly, times: int) -> MultiPoly:
        # d/dp on the dehomogenized poly: x1 exponent down, x0 exponent up
        cur = p
        for _ in range(times):
            nxt = MultiPoly(N, p.c, p.psi_degree, {})
            for m, coeff in cur.terms.items():
                b = m[2 * party + 1]
                if b:
                    k = list(m)
                    k[2 * party + 1] -= 1
                    k[2 * party] += 1
                    MultiPoly._add_term(nxt.terms, tuple(k), (coeff[0] * b, coeff[1]))
            cur = nxt
        return cur

    for k in range(order + 1):
        coef = (
            math.factorial(order)
            * (-1) ** k
            * math.comb(fi - order + k, k)
            * math.comb(gi - k, order - k)
        )
        if coef == 0:
            continue
        part = deriv_p(f, order - k) * deriv_p(g, k)
        out = out + part.scale(coef)
    # re-homogenize from degree fi+gi down to fi+gi-2l in party's x0
    fixed = MultiPoly(N, f.c, out.psi_degree, {})
    for m, coeff in out.terms.items():
        k = list(m)
        k[2 * party] -= 2 * order
        if k[2 * party] < 0:
            raise ValueError("projective transvectant is not polynomial here")
        MultiPoly._add_term(fixed.terms, tuple(k), coeff)
    return fixed


def sector_cell(block, omega, qt) -> RadicalSum:
    """Exact value of one cell of a dense-oracle SectorBlock, read from its
    integer numerators; zero when the block (None) or the cell is absent."""
    if block is None:
        return RadicalSum.zero()
    cell = block.cells.get((omega, qt), {})
    return RadicalSum({d: Fraction(c, block.den) for d, c in cell.items()})


def table_json_per_entry(k: KroneckerVector) -> dict:
    """`kronstate.to_table_json` one entry at a time: each coefficient's
    ordinal tuple is formed in the sort key and again for its "q", and each
    entry reads its own value."""
    lams = k.lams
    labels = {}
    ordinals = []
    for i, lam in enumerate(lams):
        paths = standard_paths(lam)
        labels[str(i + 1)] = ["".join(map(str, q)) for q in paths]
        ordinals.append({q: j + 1 for j, q in enumerate(paths)})
    entries = []
    for qt in sorted(k.coeffs, key=lambda t: tuple(ordinals[i][q] for i, q in enumerate(t))):
        v = k.coeffs[qt]
        entries.append(
            {
                "q": [ordinals[i][q] for i, q in enumerate(qt)],
                "sign": v.sign,
                "num": v.radicand.numerator,
                "den": v.radicand.denominator,
            }
        )
    return {
        "N": lams.num_parties,
        "n": lams.n,
        "lambdas": [[lam.lambda1, lam.lambda2] for lam in lams],
        "labels": labels,
        "entries": entries,
    }


def norm_sq_per_coeff(k: KroneckerVector) -> Fraction:
    """Squared norm as one Fraction sum over the coefficients."""
    return sum((v.square() for v in k.coeffs.values()), Fraction(0))


def eta_sq_walk(sectors) -> dict[PartitionTuple, Fraction]:
    """eta^2 of each sector (all of one (N, n)) by the Fraction level walk
    eta^2(lams) = sum_qn f(lams, qn)^2 * eta^2(lams - qn), eta^2 = 1 at
    n = 1, over the union of the targets' down-sets; inadmissible targets
    read 0."""
    sectors = list(sectors)
    n = sectors[0].n
    levels = _down_set({tuple(lam.lambda2 for lam in s) for s in sectors if w_admissible(s)}, n)
    prev = {b: Fraction(1) for b in levels[0]}
    for m in range(2, n + 1):
        prev = {
            b: sum((Fraction(num * num, den) * prev[p] for p, num, den in _predecessors(b, m)),
                   Fraction(0))
            for b in levels[m - 1]
        }
    return {s: prev.get(tuple(lam.lambda2 for lam in s), Fraction(0)) for s in sectors}


@lru_cache(maxsize=None)
def _party_columns_per_class(n: int):
    """(cols, D, labels): cols maps each computational string s to its
    nonzero B coefficients as (j, d, K) with B = K/D * sqrt(d), d squarefree,
    D one common denominator and labels[j] = (lam, omega, q), lexicographic
    in q."""
    rows = sorted(
        (item for lam in list_partitions(n) for item in SchurBlock(lam, n).items()),
        key=lambda item: item[0].q,
    )
    labels = [(label.lam, label.omega, label.q) for label, _ in rows]
    split: dict[tuple[int, ...], list] = {}
    for j, (_, col) in enumerate(rows):
        for s, v in col.items():
            split.setdefault(s, []).append((j, *v.radical_parts()))
    D = math.lcm(*(den for col in split.values() for *_, den in col))
    cols = {
        s: [(j, d, num * (D // den)) for j, d, num, den in col] for s, col in split.items()
    }
    return cols, D, labels


def stuple_of(idx: int, num_parties: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per-party bit tuples of a dense amplitude index (party-major layout)."""
    bits = [(idx >> (num_parties * n - 1 - p)) & 1 for p in range(num_parties * n)]
    return tuple(tuple(bits[i * n : (i + 1) * n]) for i in range(num_parties))


def tensor_power_reference(state, n: int) -> dict[int, SqrtRational]:
    """Amplitudes of state^(x)n as one SqrtRational product each, keyed by
    per-party bit tuples grown copy by copy and packed into the party-major
    index at the end; the order is the one `protocol.tensor_power` keeps."""
    single = _single_copy_amplitudes(state)
    N = _num_parties(state)
    amps: dict[tuple[tuple[int, ...], ...], SqrtRational] = {((),) * N: SqrtRational.one()}
    for _ in range(n):
        amps = {
            tuple(key[i] + (pattern[i],) for i in range(N)): val * a
            for key, val in amps.items()
            for pattern, a in single.items()
        }
    return {_index_of(key): v for key, v in amps.items()}


def _index_of(stuple: tuple[tuple[int, ...], ...]) -> int:
    idx = 0
    for s in stuple:
        for b in s:
            idx = (idx << 1) | b
    return idx


def multilocal_schur_reference(state, n: int) -> dict[PartitionTuple, SectorBlock]:
    """`protocol.multilocal_schur(protocol.tensor_power(state, n))` from the
    SqrtRational tensor power, with the radicals inside the contraction:
    every amplitude is split by `radical_parts`, every value is a {radical
    class: numerator} dict and every (term, column) pair multiplies radicals
    through a gcd.  Keys are touched in nested-loop order (amplitudes in dict
    order, then columns in label order), which fixes the order of the sectors
    and of their cells."""
    N = _num_parties(state)
    cols, D, labels = _party_columns_per_class(n)
    # keys: per-party entries are raw bit tuples, replaced party by party with
    # label indices; a value {d: c} is sum(c * sqrt(d)) / (A * D**parties_done)
    parts = {
        stuple_of(idx, N, n): a.radical_parts()
        for idx, a in tensor_power_reference(state, n).items()
        if not a.is_zero
    }
    A = math.lcm(*(den for _, _, den in parts.values()))
    current = {key: {d: num * (A // den)} for key, (d, num, den) in parts.items()}
    for i in range(N):
        nxt: dict[tuple, dict[int, int]] = {}
        for key, val in current.items():
            for j, e, k in cols.get(key[i], ()):
                nk = key[:i] + (j,) + key[i + 1 :]
                acc = nxt.get(nk)
                if acc is None:
                    acc = nxt[nk] = {}
                for d, c in val.items():
                    g = math.gcd(d, e)
                    r = (d // g) * (e // g)
                    t = acc.get(r, 0) + c * k * g
                    if t:
                        acc[r] = t
                    else:
                        del acc[r]
        current = {k: v for k, v in nxt.items() if v}
    cells: dict[PartitionTuple, dict] = {}
    for key, val in current.items():
        lams, om, qt = zip(*(labels[j] for j in key))
        cells.setdefault(PartitionTuple(lams), {})[(om, qt)] = val
    return {lams: SectorBlock(lams, A * D**N, c) for lams, c in cells.items()}
