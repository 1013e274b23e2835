"""Exact scalar arithmetic: rationals, signed square roots of rationals,
a small dense symmetric eigensolver, and `InconsistencyError`, raised when an
exact check fails.

The one scalar is :class:`SqrtRational`, a value ``sign * sqrt(radicand)``
with ``radicand`` a nonnegative ``Fraction``.  The set of such values is closed
under multiplication and division, which is all the recurrences downstream
need.  Sums of SqrtRationals are deliberately *not* part of the ring.  Where
a sum crosses radical classes, the caller splits each value once into a
squarefree class d and an integer numerator over a common denominator
(:meth:`SqrtRational.radical_parts`, or `schur.party_columns` for the integer
B coefficients) and keeps one integer per class.  The private `_times_root`
is the one rule for such sums: sqrt(d) * sqrt(e) = g * sqrt(d e / g^2) with
g = gcd(d, e), so a product's class takes one gcd and no factoring.  The
dense oracle (`protocol`) and `kronstate.reduced_density` read it.  `sym_eig`
is the package's one use of numpy: `ghz.schmidt_spectrum` hands it a GHZ
sector's Gram matrix as floats, and it stays until the GHZ spectra are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

Rational = Fraction


class InconsistencyError(RuntimeError):
    """A computed result contradicts a structural claim: a dense sector that
    is not rank 1, or an exact recurrence whose division leaves a remainder."""


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class SqrtRational:
    """Exact value sign * sqrt(radicand), with radicand a reduced Fraction >= 0.

    Invariant: sign == 0 iff radicand == 0.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.radicand < 0:
            raise ValueError(f"radicand must be nonnegative, got {self.radicand}")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign == 0 iff radicand == 0 violated")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SqrtRational":
        return SqrtRational(0, Fraction(0))

    @staticmethod
    def one() -> "SqrtRational":
        return SqrtRational(1, Fraction(1))

    @staticmethod
    def sqrt(x) -> "SqrtRational":
        """The nonnegative square root of a rational x >= 0."""
        x = Fraction(x)
        if x < 0:
            raise ValueError(f"cannot take sqrt of negative rational {x}")
        return SqrtRational(_sign(x), x)

    @staticmethod
    def from_rational(x) -> "SqrtRational":
        """Exact embedding of a rational: x -> sign(x) * sqrt(x^2)."""
        x = Fraction(x)
        return SqrtRational(_sign(x), x * x)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        s = self.sign * other.sign
        if s == 0:
            return SqrtRational.zero()
        return SqrtRational(s, self.radicand * other.radicand)

    def __neg__(self) -> "SqrtRational":
        if self.sign == 0:
            return self
        return SqrtRational(-self.sign, self.radicand)

    def __truediv__(self, other: "SqrtRational") -> "SqrtRational":
        if other.sign == 0:
            raise ZeroDivisionError("division by zero SqrtRational")
        if self.sign == 0:
            return self
        return SqrtRational(self.sign * other.sign, self.radicand / other.radicand)

    def scale(self, q) -> "SqrtRational":
        """Multiply by an exact rational q."""
        return SqrtRational.from_rational(q) * self

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def square(self) -> Fraction:
        return self.radicand

    def signed_square(self) -> Fraction:
        """sign * radicand; convenient for tables printed with the root omitted."""
        return self.sign * self.radicand

    def as_rational(self) -> Fraction | None:
        """Exact rational value if the radicand is a perfect square, else None."""
        num, den = self.radicand.numerator, self.radicand.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return self.sign * Fraction(rn, rd)
        return None

    def radical_parts(self) -> tuple[int, int, int]:
        """(d, num, den) with self == num/den * sqrt(d), d squarefree and den
        the radicand's denominator; num/den need not be reduced.  Zero has no
        radical class and raises ValueError."""
        if self.sign == 0:
            raise ValueError("zero has no radical class")
        num, den = self.radicand.numerator, self.radicand.denominator
        m, d = _squarefree(num * den)  # sqrt(num/den) = sqrt(num*den)/den
        return d, self.sign * m, den

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.radicand.numerator / self.radicand.denominator)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "num": self.radicand.numerator,
            "den": self.radicand.denominator,
        }

    @staticmethod
    def from_json(d: dict) -> "SqrtRational":
        return SqrtRational(int(d["sign"]), Fraction(int(d["num"]), int(d["den"])))

    def __repr__(self) -> str:
        if self.sign == 0:
            return "0"
        pre = "-" if self.sign < 0 else ""
        return f"{pre}sqrt({self.radicand})"


@lru_cache(maxsize=None)
def _squarefree(n: int) -> tuple[int, int]:
    """Decompose n >= 1 as m*m*d with d squarefree; returns (m, d)."""
    if n <= 0:
        raise ValueError("positive integer required")
    m, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            m *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return m, d * n


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


def sym_eig(m) -> list[float]:
    """Eigenvalues of a dense symmetric real matrix, descending.

    Raises ValueError when the input is not symmetric within 1e-12 or the
    spectral reconstruction residual exceeds 1e-10 * ||m||.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12")
    vals, vecs = np.linalg.eigh(a)
    resid = float(np.abs(a - (vecs * vals) @ vecs.T).max())
    norm = float(np.linalg.norm(a))
    if resid > 1e-10 * max(norm, 1e-300):
        raise ValueError(f"eigendecomposition residual {resid} exceeds tolerance")
    return sorted((float(v) for v in vals), reverse=True)
