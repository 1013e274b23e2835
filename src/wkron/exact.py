"""Exact scalar arithmetic: rationals, signed square roots of rationals,
a small dense symmetric eigensolver, and `InconsistencyError`, raised when an
exact check fails.

The workhorse scalar is :class:`SqrtRational`, a value ``sign * sqrt(radicand)``
with ``radicand`` a nonnegative ``Fraction``.  The set of such values is closed
under multiplication and division, which is all the recurrences downstream
need.  Sums of SqrtRationals are deliberately *not* part of the public ring:
every exact summation in the package is either provably rational or shares a
common radical that the caller factors out first.  The one internal exception
is :class:`RadicalSum`, a private accumulator over squarefree radicands used
by the S_n representation matrices and reduced density matrices; it collapses
back to a single SqrtRational (or raises) at module boundaries.  The
brute-force oracle keeps integer numerators per radical class instead, split
off by :meth:`SqrtRational.radical_parts` on single-copy amplitudes only and
by `schur.party_columns` on integer B coefficients, the two places that do.
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


class RadicalSum:
    """Internal exact accumulator: a Q-linear combination of sqrt(d) terms
    with d squarefree.  Supports +, -, * and collapses to a SqrtRational.

    Not part of the public scalar ring; used where the S_n representation
    matrices, the reduced density of a Kronecker vector and the tests must
    add cross-radical products exactly.
    """

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
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                g = math.gcd(d1, d2)
                d, c = (d1 // g) * (d2 // g), c1 * c2 * g
                cur = out.get(d, 0) + c
                if cur:
                    out[d] = cur
                else:
                    out.pop(d, None)
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

    def collapse(self) -> SqrtRational:
        """Exact conversion to a single SqrtRational; raises if >= 2 radical classes."""
        if not self.terms:
            return SqrtRational.zero()
        if len(self.terms) > 1:
            raise ValueError(f"not a single radical class: {self.terms}")
        (d, c), = self.terms.items()
        return SqrtRational(_sign(c), c * c * d)

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
