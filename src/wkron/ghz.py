"""GHZ-class residual structure: Louck and Hahn-Eberlein polynomials,
Kronecker-sector overlaps, the sector Gram matrix, and residual Schmidt
spectra.

The Louck values C(theta) = (1/f) sum_q B_s B_s' depend only on the joint
sequence weight theta of (s, s').  They factor as a rational Hahn-Eberlein
hypergeometric sum times a radical that depends on the weights only, so Gram
entries stay exact; floats enter only at the eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exact import RadicalSum, SqrtRational, sym_eig
from .partitions import PartitionTuple, TwoRowPartition, dim_irrep
from .schur import SchurLabel, b_coeff, standard_paths
from .wstates import a_factor


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


def joint_weights(n: int, omega: int, omega_p: int):
    """All joint weights compatible with sequence weights (omega, omega_p)."""
    for t11 in range(max(0, omega + omega_p - n), min(omega, omega_p) + 1):
        yield JointWeight(n - omega - omega_p + t11, omega_p - t11, omega - t11, t11)


def multinomial_theta(theta: JointWeight) -> int:
    """Number of sequence pairs with the given joint weight."""
    return math.factorial(theta.n) // (
        math.factorial(theta.t00)
        * math.factorial(theta.t01)
        * math.factorial(theta.t10)
        * math.factorial(theta.t11)
    )


def hahn_eberlein(lam: TwoRowPartition, omega_lt: int, omega_gt: int, x: int) -> Fraction:
    """Terminating 3F2(1) sum; exact rational.

    Upper parameters (-lambda2, -x, lambda2 - n - 1), lower parameters
    (-omega_lt, omega_gt - n).  The sum terminates at k = min(lambda2, x);
    within the compatible parameter range no zero denominator is reached.
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


@lru_cache(maxsize=None)
def _louck_parts(lam: TwoRowPartition, omega: int, omega_p: int, x10: int):
    """(rational factor, radicand) with the radical sqrt(A_lt/A_gt) split off."""
    n = lam.size
    olt, ogt = min(omega, omega_p), max(omega, omega_p)
    pref = Fraction(math.factorial(olt) * math.factorial(n - ogt), math.factorial(n))
    rad = a_factor(lam, olt) / a_factor(lam, ogt)
    return pref * hahn_eberlein(lam, olt, ogt, x10), rad


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
    q, rad = _louck_parts(lam, omega, omega_p, th.t10)
    if q == 0:
        return SqrtRational.zero()
    return SqrtRational(1 if q > 0 else -1, q * q * rad)


def louck_diag(lam: TwoRowPartition, omega: int, x: int) -> Fraction:
    """Rational fast path for omega' = omega (the radical cancels)."""
    if not (lam.lambda1 >= omega >= lam.lambda2):
        return Fraction(0)
    q, _ = _louck_parts(lam, omega, omega, x)
    return q


def louck_bsum(lam: TwoRowPartition, omega: int, omega_p: int, theta: JointWeight) -> SqrtRational:
    """Independent definition through the Schur coefficients, for one
    canonical representative pair; cross-checks the product formula."""
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
    return acc.scale(Fraction(1, dim_irrep(lam))).collapse()


def overlap(lams: PartitionTuple, omega: int, omega_p: int) -> SqrtRational:
    """Exact overlap <K_omega|K_omega'> of the unnormalized GHZ sector states.

    Single sum over the free joint-weight parameter; the radical prefactor is
    weight-dependent only, so the sum itself is a rational accumulation.
    """
    n = lams.n
    for lam in lams:
        if not (lam.lambda1 >= omega >= lam.lambda2 and lam.lambda1 >= omega_p >= lam.lambda2):
            return SqrtRational.zero()
    f_all = math.prod(dim_irrep(lam) for lam in lams)
    pref = Fraction(1)
    rad = Fraction(1)
    total = Fraction(0)
    first = True
    for theta in joint_weights(n, min(omega, omega_p), max(omega, omega_p)):
        term = Fraction(multinomial_theta(theta))
        for lam in lams:
            q, r = _louck_parts(lam, omega, omega_p, theta.t10)
            term *= q
            if first:
                rad *= r
        first = False
        total += term
    q = f_all * total
    if q == 0:
        return SqrtRational.zero()
    return SqrtRational(1 if q > 0 else -1, q * q * rad)


def xi_sq(alpha: Fraction, omega: int, n: int) -> Fraction:
    """Squared GHZ amplitude weight: alpha^omega (1-alpha)^(n-omega)."""
    return alpha**omega * (1 - alpha) ** (n - omega)


@dataclass
class GramMatrix:
    """Normalized overlap matrix of the GHZ sector vectors; symmetric,
    positive semidefinite, unit trace (when nonempty)."""

    weights: list[int]
    exact: list[list[SqrtRational]]

    def float_matrix(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.exact])

    def trace(self) -> Fraction:
        total = Fraction(0)
        for i in range(len(self.weights)):
            v = self.exact[i][i].as_rational()
            if v is None:
                raise AssertionError("diagonal Gram entry is not rational")
            total += v
        return total


def gram(lams: PartitionTuple, alpha, n: int) -> GramMatrix:
    """Gram matrix of the residual V-side state for GHZ(alpha)^(x)n.

    Returns an empty matrix when the weight range is empty or the sector
    amplitude vanishes identically (degenerate case).
    """
    alpha = Fraction(alpha)
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie strictly in (0,1)")
    if lams.n != n:
        raise ValueError("partition tuple size mismatch")
    lo = max(lam.lambda2 for lam in lams)
    hi = min(lam.lambda1 for lam in lams)
    if lo > hi:
        return GramMatrix([], [])
    weights = list(range(lo, hi + 1))
    diag = {}
    for om in weights:
        v = overlap(lams, om, om).as_rational()
        if v is None:
            raise AssertionError("diagonal overlap is not rational")
        diag[om] = v
    den = sum((xi_sq(alpha, om, n) * diag[om] for om in weights), Fraction(0))
    if den == 0:
        return GramMatrix([], [])
    entries = []
    for om in weights:
        row = []
        for omp in weights:
            num = SqrtRational.sqrt(
                alpha ** (om + omp) * (1 - alpha) ** (2 * n - om - omp)
            ) * overlap(lams, om, omp)
            row.append(num.scale(Fraction(1) / den))
        entries.append(row)
    return GramMatrix(weights, entries)


def schmidt_spectrum(g: GramMatrix) -> list[float]:
    """Eigenvalues of the Gram matrix, descending; they sum to 1."""
    return sym_eig(g.float_matrix())


def sector_probability(lams: PartitionTuple, alpha) -> Fraction:
    """Exact GHZ sector probability: sum over the weight range of
    xi^2(omega) <K_omega|K_omega>."""
    alpha = Fraction(alpha)
    n = lams.n
    lo = max(lam.lambda2 for lam in lams)
    hi = min(lam.lambda1 for lam in lams)
    total = Fraction(0)
    for om in range(lo, hi + 1):
        v = overlap(lams, om, om).as_rational()
        if v is None:
            raise AssertionError("diagonal overlap is not rational")
        total += xi_sq(alpha, om, n) * v
    return total


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
