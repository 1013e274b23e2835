"""GHZ-class residual structure: Louck and Hahn-Eberlein polynomials,
Kronecker-sector overlaps, the sector Gram matrix, and residual Schmidt
spectra.

The Louck values C(theta) = (1/f) sum_q B_s B_s' depend only on the joint
sequence weight theta of (s, s').  They factor as a rational Hahn-Eberlein
hypergeometric sum times a radical that depends on the weights only.  Each
3F2 is kept as integer numerators M[x] over one common denominator D per
(lambda, omega_lt, omega_gt), so an overlap sums integers over theta and
builds a single Fraction at the end; the Gram matrix computes each
symmetric pair once.  Floats enter only at the eigendecomposition, where
`schmidt_spectrum` hands the exact entries as floats to `exact.sym_eig`.

`louck_diag`, the diagonal Louck value at one joint weight, stays for the
joint-weight counting route in `probw`.  The Louck values of any weight
pair, the 3F2 read at any x, and the joint-weight enumeration and
multinomial that sum Louck values over every theta are test oracles and
live with the tests, as does the dense float route to residual spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import SqrtRational, sym_eig
from .partitions import PartitionTuple, TwoRowPartition, dim_irrep
from .wstates import a_factor


@lru_cache(maxsize=1024)
def _louck_numerators(lam: TwoRowPartition, olt: int, ogt: int) -> tuple[tuple[int, ...], int]:
    """Integers (M, D) with M[x]/D the terminating 3F2(1) sum with upper
    parameters (-lambda2, -x, lambda2 - n - 1) and lower parameters (-olt,
    ogt - n), for every joint-weight parameter x = t10 in 0..min(olt, n - ogt).
    Defined for lambda2 <= olt <= ogt <= lambda1.

    D = prod_{j<lambda2} (j - olt)(ogt - n + j)(j + 1) clears the
    denominators of all 3F2 terms; it is nonzero because lambda2 <= olt and
    lambda2 <= n - ogt.  The 3F2 is the Hahn polynomial
    Q_lambda2(x; -olt - 1, olt - n - 1, n - ogt), so M follows the Hahn
    difference equation in x (Koekoek, Lesky and Swarttouw, section 9.5):
        B(x) M[x+1] = (B(x) + C(x) - lambda2 (n + 1 - lambda2)) M[x] - C(x) M[x-1]
    with B(x) = (x - olt)(x - n + ogt) and C(x) = x(x - olt + ogt), starting
    from M[0] = D.  B(x) is nonzero below the end of the range, and each
    division is exact because D clears the denominator of the 3F2 at every x.
    """
    n, l2 = lam.size, lam.lambda2
    d = 1
    for j in range(l2):
        d *= (j - olt) * (ogt - n + j) * (j + 1)
    shift = l2 * (n + 1 - l2)
    table, prev = [d], 0
    for x in range(min(olt, n - ogt)):
        b = (x - olt) * (x - n + ogt)
        c = x * (x - olt + ogt)
        cur = table[-1]
        table.append(((b + c - shift) * cur - c * prev) // b)
        prev = cur
    return tuple(table), d


def _weight_pref(n: int, olt: int, ogt: int) -> Fraction:
    """Rational prefactor olt!(n-ogt)!/n! of one party's Louck value."""
    return Fraction(math.factorial(olt) * math.factorial(n - ogt), math.factorial(n))


def _radicand(lam: TwoRowPartition, olt: int, ogt: int) -> Fraction:
    """Weight-only radicand A_lt/A_gt of one party's Louck value."""
    return a_factor(lam, olt) / a_factor(lam, ogt)


def louck_diag(lam: TwoRowPartition, omega: int, x: int) -> Fraction:
    """Louck value C(theta) for omega' = omega, where the radical cancels, at
    the joint-weight parameter x = t10 in 0..min(omega, n - omega)."""
    if not (lam.lambda1 >= omega >= lam.lambda2):
        return Fraction(0)
    m, d = _louck_numerators(lam, omega, omega)
    return _weight_pref(lam.size, omega, omega) * Fraction(m[x], d)


def _overlap_parts(lams: PartitionTuple, omega: int, omega_p: int) -> tuple[Fraction, Fraction]:
    """(q, rad) with <K_omega|K_omega'> = q sqrt(rad); rad = 1 on the diagonal.

    The sum over theta runs in integers: multinomial(theta), updated by one
    ratio per step, times each party's numerator M_i[theta.t10].  The party
    prefactors olt!(n-ogt)!/n!, the common denominators D_i and f_all are
    applied once, as one Fraction.
    """
    n = lams.n
    olt, ogt = min(omega, omega_p), max(omega, omega_p)
    if any(not (lam.lambda2 <= olt and ogt <= lam.lambda1) for lam in lams):
        return Fraction(0), Fraction(1)
    parts = [_louck_numerators(lam, olt, ogt) for lam in lams]
    # theta = (t00, t01, t10, t11) = (n - ogt - x, ogt - olt + x, x, olt - x)
    mult = math.comb(n, ogt) * math.comb(ogt, olt)
    total = 0
    for x in range(min(olt, n - ogt) + 1):
        term = mult
        for m, _ in parts:
            term *= m[x]
        total += term
        mult = mult * (olt - x) * (n - ogt - x) // ((x + 1) * (ogt - olt + x + 1))
    if total == 0:
        return Fraction(0), Fraction(1)
    num_parties = lams.num_parties
    den = math.factorial(n) ** num_parties * math.prod(d for _, d in parts)
    num = math.prod(dim_irrep(lam) for lam in lams) * total
    num *= (math.factorial(olt) * math.factorial(n - ogt)) ** num_parties
    rad = Fraction(1)
    if olt != ogt:
        rad = math.prod((_radicand(lam, olt, ogt) for lam in lams), start=rad)
    return Fraction(num, den), rad


def overlap(lams: PartitionTuple, omega: int, omega_p: int) -> SqrtRational:
    """Exact overlap <K_omega|K_omega'> of the unnormalized GHZ sector states.

    Symmetric in (omega, omega_p).  One integer sum over the free joint-weight
    parameter gives the rational factor as a single Fraction; the radical
    sqrt(prod_i A_lt/A_gt) depends on the weights only.
    """
    q, rad = _overlap_parts(lams, omega, omega_p)
    if q == 0:
        return SqrtRational.zero()
    return SqrtRational(1 if q > 0 else -1, q * q * rad)


def _xi_sq_numerators(alpha: Fraction, n: int, weights) -> tuple[list[int], int]:
    """Squared GHZ amplitude weights xi^2(omega) = alpha^omega (1-alpha)^(n-omega)
    of each weight as integer numerators over one denominator: with
    alpha = p/q, q^n xi^2(omega) = p^omega (q-p)^(n-omega)."""
    p, q = alpha.numerator, alpha.denominator
    return [p**om * (q - p) ** (n - om) for om in weights], q**n


def _diagonal(lams: PartitionTuple, alpha: Fraction):
    """(weights, xi, q_n, diag, p) of a GHZ sector: its common weights
    max lambda2 .. min lambda1, their xi^2 numerators over q_n, the rational
    diagonal overlaps <K_omega|K_omega> and the sector probability
    p = sum_omega xi^2(omega) <K_omega|K_omega>."""
    weights = list(range(max(lam.lambda2 for lam in lams), min(lam.lambda1 for lam in lams) + 1))
    xi, q_n = _xi_sq_numerators(alpha, lams.n, weights)
    diag = [_overlap_parts(lams, om, om)[0] for om in weights]
    return weights, xi, q_n, diag, sum((x * v for x, v in zip(xi, diag)), Fraction(0)) / q_n


@dataclass
class GramMatrix:
    """Normalized overlap matrix of the GHZ sector vectors; symmetric,
    positive semidefinite, unit trace (when nonempty)."""

    weights: list[int]
    exact: list[list[SqrtRational]]


def gram(lams: PartitionTuple, alpha, n: int) -> GramMatrix:
    """Gram matrix of the residual V-side state for GHZ(alpha)^(x)n.

    The diagonal overlaps are rational; they give the normalizer, which is
    the sector probability, and are reused as the diagonal entries.  The
    overlap is symmetric in its two weights, so each off-diagonal entry is
    computed once, for the upper triangle, and shared with the lower one.

    Returns an empty matrix when the weight range is empty or the sector
    amplitude vanishes identically (degenerate case).
    """
    alpha = Fraction(alpha)
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie strictly in (0,1)")
    if lams.n != n:
        raise ValueError("partition tuple size mismatch")
    weights, xi, q_n, diag, den = _diagonal(lams, alpha)
    if den == 0:
        return GramMatrix([], [])
    inv_den = Fraction(1) / den
    entries = [[None] * len(weights) for _ in weights]
    for i, om in enumerate(weights):
        for j in range(i, len(weights)):
            omp = weights[j]
            ov = SqrtRational.from_rational(diag[i]) if i == j else overlap(lams, om, omp)
            num = SqrtRational.sqrt(Fraction(xi[i] * xi[j], q_n * q_n)) * ov
            entries[i][j] = entries[j][i] = num.scale(inv_den)
    return GramMatrix(weights, entries)


def schmidt_spectrum(g: GramMatrix) -> list[float]:
    """Eigenvalues of the Gram matrix, descending; they sum to 1."""
    return sym_eig([[float(x) for x in row] for row in g.exact])


def sector_probability(lams: PartitionTuple, alpha) -> Fraction:
    """Exact GHZ sector probability: sum over the weight range of
    xi^2(omega) <K_omega|K_omega>."""
    return _diagonal(lams, Fraction(alpha))[-1]


def typical_partition(n: int) -> TwoRowPartition:
    """lambda = (n - [n/3], [n/3]) with [] the nearest integer."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = int(math.floor(n / 3 + 0.5))
    return TwoRowPartition(n - k, k)


def spectrum_rows(ns, alpha) -> list[tuple[int, str, int, float]]:
    """CSV rows (n, lambda, rank_index, gamma) for the typical sectors.

    Rows carry the nonzero part of the spectrum only, so a rank-1 sector
    emits a single gamma = 1 row.
    """
    rows = []
    for n in ns:
        lam = typical_partition(n)
        lams = PartitionTuple((lam,) * 3)
        g = gram(lams, alpha, n)
        if not g.weights:
            continue
        r = 0
        for val in schmidt_spectrum(g):
            if val <= 1e-12:
                continue
            r += 1
            rows.append((n, f"{lam.lambda1},{lam.lambda2}", r, val))
    return rows
