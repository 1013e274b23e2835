"""Exact scalar arithmetic: rationals, signed square roots of rationals,
a small dense symmetric eigensolver, and `InconsistencyError`, raised when an
exact check fails.

The one scalar is :class:`SqrtRational`, a value ``sign * sqrt(num/den)``
held as the int tuple ``(sign, num, den)`` in lowest terms, which it compares
and hashes as, so work done once per distinct value keys a dict by the value.
The set of such values is closed under multiplication and division, which is
all the recurrences downstream need.  Sums of SqrtRationals are deliberately
*not* part of the ring.  Where a sum crosses radical classes, the caller
splits each value once into a squarefree class d and an integer numerator
over a common denominator (:meth:`SqrtRational.radical_parts`, or
`schur.party_columns` for the integer B coefficients) and keeps one integer
per class.  The private `_times_root`
is the one rule for such sums: sqrt(d) * sqrt(e) = g * sqrt(d e / g^2) with
g = gcd(d, e), so a product's class takes one gcd and no factoring.  The
dense oracle (`protocol`) and `kronstate.reduced_density` read it.  `sym_eig`
is the package's one use of numpy: `ghz.schmidt_spectrum` hands it a GHZ
sector's Gram matrix as floats, and it stays until the GHZ spectra are exact.
Tests read a value's rational form and signed square through functions of
their own: the package never asks whether a SqrtRational is rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import numpy as np


class InconsistencyError(RuntimeError):
    """A computed result contradicts a structural claim: a Schur label whose
    coefficients span two radicals, or an exact recurrence whose division
    leaves a remainder."""


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class SqrtRational(tuple):
    """Exact value sign * sqrt(num/den): a tuple (sign, num, den) of ints
    with num/den in lowest terms and den >= 1, so it compares and hashes as
    that plain tuple.  Zero is (0, 0, 1).

    Invariant: sign == 0 iff num == 0.
    """

    __slots__ = ()
    sign = property(itemgetter(0))
    __add__ = __rmul__ = None  # no sums, and no tuple repetition by an int

    def __new__(cls, sign: int, radicand):
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        if radicand < 0:
            raise ValueError(f"radicand must be nonnegative, got {radicand}")
        if (sign == 0) != (radicand == 0):
            raise ValueError("sign == 0 iff radicand == 0 violated")
        radicand = Fraction(radicand)
        return super().__new__(cls, (int(sign), radicand.numerator, radicand.denominator))

    def __getnewargs__(self):
        return self.sign, self.radicand

    @property
    def radicand(self) -> Fraction:
        return Fraction(self[1], self[2])

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
    # one gcd reduces a product; a zero factor gives gcd(0, den) = den: (0, 0, 1)

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        (s, a, b), (t, c, d) = self, other
        g = math.gcd(a * c, b * d)
        return tuple.__new__(SqrtRational, (s * t, a * c // g, b * d // g))

    def __neg__(self) -> "SqrtRational":
        return tuple.__new__(SqrtRational, (-self[0], self[1], self[2]))

    def __truediv__(self, other: "SqrtRational") -> "SqrtRational":
        t, c, d = other
        if not t:
            raise ZeroDivisionError("division by zero SqrtRational")
        return self * tuple.__new__(SqrtRational, (t, d, c))  # 1/other

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def square(self) -> Fraction:
        return self.radicand

    def radical_parts(self) -> tuple[int, int, int]:
        """(d, num, den) with self == num/den * sqrt(d), d squarefree and den
        the radicand's denominator; num/den need not be reduced.  Zero has no
        radical class and raises ValueError."""
        sign, num, den = self
        if sign == 0:
            raise ValueError("zero has no radical class")
        m, d = _squarefree(num * den)  # sqrt(num/den) = sqrt(num*den)/den
        return d, sign * m, den

    def __float__(self) -> float:
        return self[0] * math.sqrt(self[1] / self[2])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return dict(zip(("sign", "num", "den"), self))

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
