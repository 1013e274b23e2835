"""Two-row partition combinatorics: enumeration, irrep dimensions, S_n
characters, generalized Kronecker coefficients, and the W-class admissible set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True, order=True)
class TwoRowPartition:
    """Integer partition (lambda1, lambda2) with lambda1 >= lambda2 >= 0."""

    lambda1: int
    lambda2: int

    def __post_init__(self):
        if not (self.lambda1 >= self.lambda2 >= 0):
            raise ValueError(f"invalid two-row partition ({self.lambda1},{self.lambda2})")

    @property
    def size(self) -> int:
        return self.lambda1 + self.lambda2

    @property
    def nu(self) -> int:
        """Row difference lambda1 - lambda2 (twice the spin)."""
        return self.lambda1 - self.lambda2

    def as_tuple(self) -> tuple[int, int]:
        return (self.lambda1, self.lambda2)

    def __repr__(self) -> str:
        return f"({self.lambda1},{self.lambda2})"


@dataclass(frozen=True)
class PartitionTuple:
    """One two-row partition per party, all of the same size n."""

    parts: tuple[TwoRowPartition, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty partition tuple")
        sizes = {p.size for p in self.parts}
        if len(sizes) != 1:
            raise ValueError(f"parts must share one size, got {sizes}")

    @property
    def n(self) -> int:
        return self.parts[0].size

    @property
    def num_parties(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self) -> str:
        return "(" + ";".join(f"{p.lambda1},{p.lambda2}" for p in self.parts) + ")"


def ptuple(*pairs) -> PartitionTuple:
    """Build a PartitionTuple from (l1, l2) pairs."""
    return PartitionTuple(tuple(TwoRowPartition(l1, l2) for l1, l2 in pairs))


def parse_partition_tuple(s: str) -> PartitionTuple:
    """Parse a CLI string like "5,2;5,2;5,2"."""
    pairs = []
    for part in s.split(";"):
        nums = part.split(",")
        if len(nums) != 2:
            raise ValueError(f"bad partition {part!r}; expected 'l1,l2'")
        pairs.append((int(nums[0]), int(nums[1])))
    return ptuple(*pairs)


def list_partitions(n: int) -> list[TwoRowPartition]:
    """All two-row partitions of n, in descending lambda1 order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [TwoRowPartition(n - k, k) for k in range(n // 2 + 1)]


def dim_irrep(lam: TwoRowPartition) -> int:
    """Number of standard paths (standard Young tableaux) of shape lam."""
    n = lam.size
    return (lam.nu + 1) * math.comb(n, lam.lambda2) // (lam.lambda1 + 1)


# -- S_n characters ---------------------------------------------------------
#
# Cycle types are canonicalized as tuples sorted in descending order.


def cycle_type(parts) -> tuple[int, ...]:
    c = tuple(sorted((int(p) for p in parts), reverse=True))
    if any(p < 1 for p in c):
        raise ValueError(f"cycle parts must be positive, got {parts}")
    return c


@lru_cache(maxsize=None)
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


def _border_strip_removals(lam: tuple[int, ...], k: int):
    """Yield (smaller_partition, height) for border strips of size k.

    Generic over partitions with any number of rows; a strip is a connected
    skew shape with no 2x2 block, which for row i..j pins the intermediate
    row ends.
    """
    rows = len(lam)
    for top in range(rows):
        for bot in range(top, rows):
            # Connectivity plus the no-2x2 rule pin every intermediate row end:
            # mu[r] = lam[r+1] - 1 for top <= r < bot; only the bottom row is free.
            mu = list(lam)
            size = 0
            for r in range(top, bot):
                mu[r] = lam[r + 1] - 1
                size += lam[r] - mu[r]
            rem = k - size
            if rem < 1 or rem > lam[bot]:
                continue
            mu[bot] = lam[bot] - rem
            if any(mu[i] < mu[i + 1] for i in range(rows - 1)) or mu[-1] < 0:
                continue
            yield tuple(x for x in mu if x > 0), bot - top + 1


@lru_cache(maxsize=None)
def _mn_character(lam: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion; lam a descending partition tuple."""
    if not cycles:
        return 1 if not lam else 0
    k, rest = cycles[0], cycles[1:]
    total = 0
    for mu, height in _border_strip_removals(lam, k):
        total += (-1) ** (height - 1) * _mn_character(mu, rest)
    return total


def character(lam: TwoRowPartition, c) -> int:
    """S_n irreducible character at the conjugacy class of cycle type c."""
    c = cycle_type(c)
    if sum(c) != lam.size:
        raise ValueError(f"cycle type of size {sum(c)} vs partition of size {lam.size}")
    shape = (lam.lambda1, lam.lambda2) if lam.lambda2 else (lam.lambda1,)
    return _mn_character(shape, c)


def partition_counts(limit: int) -> tuple[int, ...]:
    """p(0), p(1), ..., p(k) for the longest run with every p(j) <= limit,
    by Euler's pentagonal-number recurrence."""
    p = [1]
    while True:
        n, total, k = len(p), 0, 1
        while (g := k * (3 * k - 1) // 2) <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - g]
            if (g2 := g + k) <= n:
                total += sign * p[n - g2]
            k += 1
        if total > limit:
            return tuple(p)
        p.append(total)


# kron_coeff costs 33-67 us per cycle type; p(48) = 147273 classes took
# 6-10 s and 135-243 MB at n=48 on a 2-core VM, Python 3.11.
KRON_CLASS_BUDGET = 150_000
_KRON_CLASS_COUNTS = partition_counts(KRON_CLASS_BUDGET)


def kron_coeff(t: PartitionTuple) -> int:
    """Generalized Kronecker coefficient: dim of the S_n-invariant subspace
    of the tensor product of the [lambda^(i)].

    Sums over cycle types with class sizes rather than over all of S_n.
    Raises ValueError when p(n), the number of cycle types, is over
    KRON_CLASS_BUDGET.
    """
    n = t.n
    if n >= len(_KRON_CLASS_COUNTS):
        raise ValueError(
            f"kron_coeff sums over the p({n}) cycle types of S_{n}; p({n}) exceeds "
            f"the budget of {KRON_CLASS_BUDGET} (p({len(_KRON_CLASS_COUNTS) - 1}) = "
            f"{_KRON_CLASS_COUNTS[-1]} takes about 10 s)"
        )
    total = 0
    for c in all_cycle_types(n):
        prod = class_size(c)
        for lam in t:
            prod *= character(lam, c)
            if prod == 0:
                break
        total += prod
    k = Fraction(total, math.factorial(n))
    if k.denominator != 1 or k < 0:
        raise AssertionError(f"kron coefficient not a nonnegative integer: {k}")
    return int(k)


def w_admissible(t: PartitionTuple) -> bool:
    """Membership in the W-class support: for every party i,
    2*lambda2^(i) <= sum_j lambda2^(j) <= n."""
    s = sum(lam.lambda2 for lam in t)
    if s > t.n:
        return False
    return all(2 * lam.lambda2 <= s for lam in t)


def reduced_entropy(lam: TwoRowPartition) -> float:
    """Shannon entropy H(lambda1/n, lambda2/n) in bits."""
    n = lam.size
    h = 0.0
    for part in (lam.lambda1, lam.lambda2):
        if part:
            p = part / n
            h -= p * math.log2(p)
    return h
