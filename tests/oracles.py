"""Second routes kept only as test oracles.

Each one computes a quantity the package computes by another route, the
slow and literal way, so tests can compare the two exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul
from typing import NamedTuple

import numpy as np

from wkron.covariants import Coeff, Monomial, MultiPoly, _weights, base_form
from wkron.exact import SqrtRational, _sign, _times_root
from wkron.ghz import GramMatrix, _louck_numerators, _radicand, _weight_pref
from wkron.kronstate import KroneckerVector, _predecessors
from wkron.partitions import (
    PartitionTuple,
    TwoRowPartition,
    dim_irrep,
    list_partitions,
    w_admissible,
)
from wkron.probw import WeightTuple, _z_count_cached
from wkron.protocol import DenseState, QTuple, SectorBlock, _single_copy_amplitudes
from wkron.schur import PathSeq, _gamma_row, party_columns, standard_paths
from wkron.wstates import PhiState, a_factor


class RadicalSum:
    """Exact Q-linear combination of sqrt(d) terms, d squarefree, as
    {d: nonzero Fraction}.  Supports +, - and *; a product of two classes
    goes through `exact._times_root`, the package's one class-product rule."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms = terms or {}

    @staticmethod
    def zero() -> "RadicalSum":
        return RadicalSum()

    @staticmethod
    def from_sqrt(x: SqrtRational) -> "RadicalSum":
        if x.sign == 0:
            return RadicalSum()
        d, num, den = x.radical_parts()
        return RadicalSum({d: Fraction(num, den)})

    @staticmethod
    def from_rational(q) -> "RadicalSum":
        q = Fraction(q)
        return RadicalSum({1: q}) if q else RadicalSum()

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        out = dict(self.terms)
        for d, c in other.terms.items():
            c2 = out.get(d, 0) + c
            if c2:
                out[d] = c2
            else:
                out.pop(d, None)
        return RadicalSum(out)

    def __sub__(self, other: "RadicalSum") -> "RadicalSum":
        return self + (-other)

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({d: -c for d, c in self.terms.items()})

    def __mul__(self, other: "RadicalSum") -> "RadicalSum":
        out: dict[int, Fraction] = {}
        for e, c in other.terms.items():
            _times_root(self.terms, c, e, out)
        return RadicalSum(out)

    def scale(self, q) -> "RadicalSum":
        q = Fraction(q)
        if not q:
            return RadicalSum()
        return RadicalSum({d: c * q for d, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, RadicalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def as_rational(self) -> Fraction | None:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {1}:
            return self.terms[1]
        return None

    def __float__(self) -> float:
        return float(sum(float(c) * math.sqrt(d) for d, c in self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*sqrt({d})" for d, c in sorted(self.terms.items()))


def collapse(x: RadicalSum) -> SqrtRational:
    """Exact conversion to a single SqrtRational; raises if >= 2 radical classes."""
    if not x.terms:
        return SqrtRational.zero()
    if len(x.terms) > 1:
        raise ValueError(f"not a single radical class: {x.terms}")
    (d, c), = x.terms.items()
    return SqrtRational(_sign(c), c * c * d)


def as_rational(x: SqrtRational) -> Fraction | None:
    """Exact rational value if the radicand is a perfect square, else None."""
    num, den = x.radicand.numerator, x.radicand.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return x.sign * Fraction(rn, rd)
    return None


def signed_square(x: SqrtRational) -> Fraction:
    """sign * radicand; convenient for tables printed with the root omitted."""
    return x.sign * x.radicand


def reduced_density_reference(k: KroneckerVector, party: int) -> list[list[Fraction]]:
    """`kronstate.reduced_density` one coefficient pair at a time: each
    product is a SqrtRational, factored into its class and added as a
    RadicalSum."""
    paths = standard_paths(k.lams[party])
    index = {q: i for i, q in enumerate(paths)}
    d = len(paths)
    acc = [[RadicalSum.zero() for _ in range(d)] for _ in range(d)]
    by_rest: dict[tuple, list[tuple[int, SqrtRational]]] = {}
    for qt, v in k.coeffs.items():
        rest = qt[:party] + qt[party + 1:]
        by_rest.setdefault(rest, []).append((index[qt[party]], v))
    for entries in by_rest.values():
        for i, vi in entries:
            for j, vj in entries:
                acc[i][j] = acc[i][j] + RadicalSum.from_sqrt(vi * vj)
    out = []
    for row in acc:
        vals = [x.as_rational() for x in row]
        if any(v is None for v in vals):
            raise ValueError("reduced density entry is not rational")
        out.append(vals)
    return out


def squared_magnitudes(k: KroneckerVector) -> list[Fraction]:
    """Multiset (sorted list) of squared coefficient values."""
    return sorted(v.square() for v in k.coeffs.values())


def phi_norm_sq(phi: PhiState) -> Fraction:
    """Z as the sum of the built fiducial state's squared coefficients; the
    package takes Z from `wstates.z_norms` without building the state."""
    return sum((v.square() for v in phi.coeffs.values()), Fraction(0))


def dense_norm_sq(state: DenseState) -> Fraction:
    """Squared norm of a dense tensor power, from its (d, num, den) amplitudes."""
    amps = state.amplitudes.values()
    return sum((Fraction(d * num * num, den * den) for d, num, den in amps), Fraction(0))


def trace(g: GramMatrix) -> Fraction:
    """Exact trace of a Gram matrix, whose diagonal entries are rational."""
    diag = [as_rational(g.exact[i][i]) for i in range(len(g.weights))]
    if None in diag:
        raise AssertionError("diagonal Gram entry is not rational")
    return sum(diag, Fraction(0))


# -- the Schur transform one entry at a time ----------------------------------
#
# `schur.party_columns` is the package's one stored form of B; these read the
# same gamma rows entry by entry, as SqrtRationals.

BitString = tuple[int, ...]


@dataclass(frozen=True)
class SchurLabel:
    lam: TwoRowPartition
    omega: int
    q: PathSeq

    def __post_init__(self):
        if not (self.lam.lambda1 >= self.omega >= self.lam.lambda2):
            raise ValueError(f"weight {self.omega} outside [{self.lam.lambda2},{self.lam.lambda1}]")


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

    def items(self):
        return zip(self.rows, self._cols)


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


# -- joint weights, Louck values and W-sector joint-sequence counts ----------


class JointWeight(NamedTuple):
    """2x2 joint sequence weight: t_ij counts positions where (s_t, s'_t) = (i, j)."""

    t00: int
    t01: int
    t10: int
    t11: int

    @property
    def n(self) -> int:
        return self.t00 + self.t01 + self.t10 + self.t11

    @property
    def x(self) -> int:
        return self.t01

    def weights(self) -> tuple[int, int]:
        """(weight of s, weight of s')."""
        return (self.t10 + self.t11, self.t01 + self.t11)

    def transpose(self) -> "JointWeight":
        return JointWeight(self.t00, self.t10, self.t01, self.t11)


def hahn_eberlein(lam: TwoRowPartition, omega_lt: int, omega_gt: int, x: int) -> Fraction:
    """Terminating 3F2(1) sum with upper parameters (-lambda2, -x,
    lambda2 - n - 1) and lower parameters (-omega_lt, omega_gt - n); exact
    rational M[x]/D from `_louck_numerators`.

    Defined for lambda2 <= omega_lt <= omega_gt <= lambda1, where no zero
    denominator is reached.  M is a polynomial of degree lambda2 in x, so an
    x outside the tabulated joint-weight range is read off the table's
    forward differences.
    """
    if not (lam.lambda2 <= omega_lt <= omega_gt <= lam.lambda1):
        raise ValueError("parameters outside the terminating range")
    m, d = _louck_numerators(lam, omega_lt, omega_gt)
    if 0 <= x < len(m):
        return Fraction(m[x], d)
    total, binom, diffs = 0, 1, list(m)
    for k in range(len(m)):
        total += diffs[0] * binom
        binom = binom * (x - k) // (k + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return Fraction(total, d)


def louck(lam: TwoRowPartition, omega: int, omega_p: int, theta: JointWeight) -> SqrtRational:
    """Louck polynomial value C(theta) for the weight pair (omega, omega_p).

    Equal by definition to (1/f) sum_q B^{lam,omega,q}_s B^{lam,omega_p,q}_s'
    over any sequence pair (s, s') of joint weight theta.
    """
    if theta.weights() != (omega, omega_p):
        raise ValueError(f"{theta} incompatible with weights ({omega},{omega_p})")
    if not (lam.lambda1 >= omega >= lam.lambda2 and lam.lambda1 >= omega_p >= lam.lambda2):
        return SqrtRational.zero()
    # canonicalize so the row index carries the lesser weight
    th = theta if omega <= omega_p else theta.transpose()
    olt, ogt = min(omega, omega_p), max(omega, omega_p)
    q = _weight_pref(lam.size, olt, ogt) * hahn_eberlein(lam, olt, ogt, th.t10)
    if q == 0:
        return SqrtRational.zero()
    return SqrtRational(1 if q > 0 else -1, q * q * _radicand(lam, olt, ogt))


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


def _validate(thetas: list[JointWeight], omega: WeightTuple) -> tuple[int, tuple[int, ...]]:
    if len(thetas) != len(omega):
        raise ValueError("one joint weight per party required")
    n = thetas[0].n
    xs = []
    for th, om in zip(thetas, omega):
        if th.n != n:
            raise ValueError("joint weights must share one total size")
        if th.t01 != th.t10:
            raise ValueError(f"{th}: W-sector joint weights need t01 == t10")
        if th.t10 + th.t11 != om:
            raise ValueError(f"{th} incompatible with weight {om}")
        xs.append(th.t01)
    if sum(omega) != n:
        raise ValueError(f"weights must sum to n={n}, got {sum(omega)}")
    return n, tuple(xs)


def z_count(thetas: list[JointWeight], omega: WeightTuple) -> int:
    """Number of W-compatible joint sequence pairs with the given per-party
    joint weights; direct count over the free tensor components."""
    n, xs = _validate(thetas, omega)
    return _z_count_cached(tuple(omega), xs, n)


def z_count_ct(thetas: list[JointWeight], omega: WeightTuple) -> int:
    """Constant-term route: coefficient extraction from an exact Laurent
    polynomial; equals z_count on every input."""
    n, xs = _validate(thetas, omega)
    if any(x < 0 or om - x < 0 for om, x in zip(omega, xs)):
        return 0
    n_parties = len(omega)
    # prod_i (sum_{k != i} z_k)^{x_i} expanded over integer exponent vectors
    poly: dict[tuple[int, ...], int] = {(0,) * n_parties: 1}
    for i, x in enumerate(xs):
        factor: dict[tuple[int, ...], int] = {}
        others = [k for k in range(n_parties) if k != i]

        # multinomial expansion of (sum_others z_k)^x
        def multi(pos, rem, expo):
            if pos == len(others):
                if rem == 0:
                    w = math.factorial(x)
                    for k in others:
                        w //= math.factorial(expo[k])
                    factor[tuple(expo)] = w
                return
            for v in range(rem + 1):
                expo[others[pos]] = v
                multi(pos + 1, rem - v, expo)
            expo[others[pos]] = 0

        multi(0, x, [0] * n_parties)
        nxt: dict[tuple[int, ...], int] = {}
        for e1, c1 in poly.items():
            for e2, c2 in factor.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        poly = nxt
    coeff = poly.get(tuple(xs), 0)
    z = Fraction(coeff * math.factorial(n))
    for om, x in zip(omega, xs):
        z /= math.factorial(om - x) * math.factorial(x)
    if z.denominator != 1:
        raise AssertionError(f"constant-term count not integral: {z}")
    return int(z)


def theta_for(omega: int, x: int, n: int) -> JointWeight:
    """W-sector joint weight with equal off-diagonal count x."""
    return JointWeight(n - omega - x, x, x, omega - x)


# -- the polynomial ring and the Omega process -------------------------------


def cmul(c: tuple[Fraction, ...], a: Coeff, b: Coeff) -> Coeff:
    """Product of two marker coefficients: sqrt(c_i)^2 = c_i."""
    f = a[0] * b[0]
    parity = []
    for i, (pa, pb) in enumerate(zip(a[1], b[1])):
        if pa and pb:
            f *= c[i]
        parity.append(pa ^ pb)
    return (f, tuple(parity))


def add_term(terms: dict, key, coeff: Coeff):
    """terms[key] += coeff, the one accumulation rule of every product, sum
    and Omega step: one marker class per key (else ValueError), and a
    coefficient that sums to zero drops out."""
    cur = terms.get(key)
    if cur is None:
        if coeff[0]:
            terms[key] = coeff
        return
    if cur[1] != coeff[1]:
        raise ValueError(f"marker classes collide on {key}: {cur[1]} vs {coeff[1]}")
    f = cur[0] + coeff[0]
    if f:
        terms[key] = (f, cur[1])
    else:
        del terms[key]


def compatible(f: MultiPoly, g: MultiPoly):
    if f.num_parties != g.num_parties or f.c != g.c:
        raise ValueError("polynomials belong to different states")


def multidegree(p: MultiPoly) -> tuple[int, ...] | None:
    """Per-party x-degrees; None for the zero polynomial.  Raises if the
    polynomial is not multihomogeneous."""
    if not p.terms:
        return None
    degs = None
    for m in p.terms:
        d = tuple(m[2 * i] + m[2 * i + 1] for i in range(p.num_parties))
        if degs is None:
            degs = d
        elif degs != d:
            raise ValueError(f"not multihomogeneous: {degs} vs {d}")
    return degs


def poly_add(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    compatible(f, g)
    if f.psi_degree != g.psi_degree:
        raise ValueError("cannot add polynomials of different state degree")
    out = MultiPoly(f.num_parties, f.c, f.psi_degree, dict(f.terms))
    for m, coeff in g.terms.items():
        add_term(out.terms, m, coeff)
    return out


def poly_mul(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    compatible(f, g)
    out = MultiPoly(f.num_parties, f.c, f.psi_degree + g.psi_degree, {})
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            add_term(out.terms, m, cmul(f.c, c1, c2))
    return out


def poly_scale(p: MultiPoly, q) -> MultiPoly:
    q = Fraction(q)
    out = MultiPoly(p.num_parties, p.c, p.psi_degree, {})
    if q:
        out.terms = {m: (f * q, par) for m, (f, par) in p.terms.items()}
    return out


def theorem2_by_products(state, n: int, nu) -> MultiPoly | None:
    """`theorem2_form` by ring products: the head monomial times w factors of
    the base form, with the same degree conditions."""
    weights = _weights(state)
    N = len(weights) - 1
    nu = tuple(int(v) for v in nu)
    if len(nu) != N:
        raise ValueError("one x-degree per party required")
    if n < 1 or min(nu) < 0:
        raise ValueError(f"need n >= 1 and x-degrees >= 0, got n = {n}, nu = {nu}")
    if any((v - n) % 2 for v in nu):
        return None
    w2 = sum(nu) - (N - 2) * n
    if w2 < 0 or w2 % 2:
        return None
    w = w2 // 2
    if any(v < w for v in nu) or any(v > n for v in nu):
        return None
    c = weights
    marker = [0] * (N + 1)
    rat = Fraction(1)
    for i in range(N):
        k = (n - nu[i]) // 2  # marker exponent of sqrt(c_(i+1))
        if c[i + 1] == 0 and k > 0:
            return MultiPoly(N, c, n, {})  # the formula itself is exactly zero
        rat *= c[i + 1] ** (k // 2)
        marker[i + 1] = k % 2
    out = MultiPoly(N, c, n - w, {})
    mono = [0] * (2 * N)
    for i in range(N):
        mono[2 * i] = nu[i] - w
    out.terms[tuple(mono)] = (rat, tuple(marker))
    a = base_form(state)
    for _ in range(w):
        out = poly_mul(out, a)
    return out


def _csquare(c: tuple[Fraction, ...], a: Coeff) -> Fraction:
    f = a[0] * a[0]
    for i, p in enumerate(a[1]):
        if p:
            f *= c[i]
    return f


def transvectant(f: MultiPoly, g: MultiPoly, orders) -> MultiPoly:
    """Iterated Omega process: apply Omega_i orders[i] times to F(x)G(x') and
    then set x' = x.  Vanishes naturally when an order exceeds a degree."""
    compatible(f, g)
    N = f.num_parties
    if len(orders) != N:
        raise ValueError("one transvection order per party required")
    c, add = f.c, add_term
    # doubled-variable polynomial {(mF, mG): coeff}
    pairs: dict[tuple[Monomial, Monomial], Coeff] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            pairs[(m1, m2)] = cmul(c, c1, c2)
    for i, li in enumerate(orders):
        i0, i1 = 2 * i, 2 * i + 1
        for _ in range(li):
            nxt: dict[tuple[Monomial, Monomial], Coeff] = {}
            for (m1, m2), coeff in pairs.items():
                # d/dx0 d/dx1' term
                if m1[i0] and m2[i1]:
                    k1, k2 = list(m1), list(m2)
                    k1[i0] -= 1
                    k2[i1] -= 1
                    add(nxt, (tuple(k1), tuple(k2)), (coeff[0] * m1[i0] * m2[i1], coeff[1]))
                # - d/dx1 d/dx0' term
                if m1[i1] and m2[i0]:
                    k1, k2 = list(m1), list(m2)
                    k1[i1] -= 1
                    k2[i0] -= 1
                    add(nxt, (tuple(k1), tuple(k2)), (-coeff[0] * m1[i1] * m2[i0], coeff[1]))
            pairs = nxt
    out = MultiPoly(N, c, f.psi_degree + g.psi_degree, {})
    for (m1, m2), coeff in pairs.items():
        add(out.terms, tuple(a + b for a, b in zip(m1, m2)), coeff)
    return out


def verify_proportional(f: MultiPoly, g: MultiPoly) -> Fraction | None:
    """Exact proportionality test F = r*G; returns the squared ratio r^2 as a
    rational, or None when the polynomials are not proportional."""
    compatible(f, g)
    if f.is_zero:
        return Fraction(0)
    if g.is_zero:
        return None
    if set(f.terms) != set(g.terms):
        return None
    m0 = next(iter(g.terms))
    f0, g0 = f.terms[m0], g.terms[m0]
    for m in f.terms:
        lhs = cmul(f.c, f.terms[m], g0)
        rhs = cmul(f.c, f0, g.terms[m])
        if lhs != rhs:
            return None
    return _csquare(f.c, f0) / _csquare(f.c, g0)


def projective_transvectant(f: MultiPoly, g: MultiPoly, party: int, order: int) -> MultiPoly:
    """Single-party transvectant through the projective-coordinate formula,
    as an independent cross-check of the Omega route."""
    compatible(f, g)
    fd, gd = multidegree(f), multidegree(g)
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
                    add_term(nxt.terms, tuple(k), (coeff[0] * b, coeff[1]))
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
        part = poly_mul(deriv_p(f, order - k), deriv_p(g, k))
        out = poly_add(out, poly_scale(part, coef))
    # re-homogenize from degree fi+gi down to fi+gi-2l in party's x0
    fixed = MultiPoly(N, f.c, out.psi_degree, {})
    for m, coeff in out.terms.items():
        k = list(m)
        k[2 * party] -= 2 * order
        if k[2 * party] < 0:
            raise ValueError("projective transvectant is not polynomial here")
        add_term(fixed.terms, tuple(k), coeff)
    return fixed


# -- the dense oracle and Kronecker tables, one entry at a time --------------


def sector_cell(block, omega, qt) -> RadicalSum:
    """Exact value of one cell of a dense-oracle SectorBlock, read from its
    integer numerators; zero when the block (None) or the cell is absent."""
    if block is None:
        return RadicalSum.zero()
    cell = block.cells.get((omega, qt), {})
    return RadicalSum({d: Fraction(c, block.den) for d, c in cell.items()})


def sector_grid(lams: PartitionTuple) -> tuple[list[WeightTuple], list[QTuple]]:
    """Canonical row/column enumeration of a sector block: the full weight box
    and the full product of lexicographic path lists, both row-major."""
    weights = [
        tuple(om)
        for om in product(*(range(lam.lambda2, lam.lambda1 + 1) for lam in lams))
    ]
    qlabels = [tuple(qs) for qs in product(*(standard_paths(lam) for lam in lams))]
    return weights, qlabels


def float_matrix(block: SectorBlock) -> np.ndarray:
    """A sector block as a dense float matrix over the rows and columns of
    `sector_grid`."""
    weights, qlabels = sector_grid(block.lams)
    m = np.zeros((len(weights), len(qlabels)))
    for (om, qt), cell in block.cells.items():
        # fsum: a cell's classes come in no fixed order
        x = math.fsum(float(Fraction(c, block.den)) * math.sqrt(d) for d, c in cell.items())
        m[weights.index(om), qlabels.index(qt)] = x
    return m


def residual_schmidt(block: SectorBlock) -> list[float]:
    """Singular values of the sector matrix, normalized to unit square sum;
    their squares are the GHZ residual spectrum `ghz.schmidt_spectrum` reads
    from the Gram matrix."""
    m = float_matrix(block)
    sv = np.linalg.svd(m, compute_uv=False)
    total = float(np.sum(sv**2))
    if total <= 0:
        raise ValueError("zero sector block")
    return [float(s) / math.sqrt(total) for s in sv]


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


def _down_set(top: set[tuple[int, ...]], n: int) -> list[set[tuple[int, ...]]]:
    """levels[m - 1]: the second-row tuples at level m from which the
    recurrence reaches a tuple of top (at level n) through nonzero factors;
    these are the sectors `_sector_coeffs` builds below the top.  A sector is
    keyed by its second-row lengths."""
    levels = [top]
    for m in range(n, 1, -1):
        levels.append({p for b in levels[-1] for p, _, _ in _predecessors(b, m)})
    levels.reverse()
    return levels


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
    N, single = _single_copy_amplitudes(state)
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
    through a gcd.  Sectors, denominators and cells are the same; neither
    function promises an order."""
    N = _single_copy_amplitudes(state)[0]
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
