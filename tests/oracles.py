"""Second routes kept only as test oracles.

Each one computes a quantity the package computes by another route, the
slow and literal way, so tests can compare the two exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from wkron.exact import RadicalSum, SqrtRational
from wkron.ghz import JointWeight, joint_weights, multinomial_theta
from wkron.kronstate import KroneckerVector, _down_set, _predecessors
from wkron.partitions import PartitionTuple, TwoRowPartition, dim_irrep, w_admissible
from wkron.schur import SchurLabel, b_coeff, standard_paths
from wkron.wstates import a_factor


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
    return acc.scale(Fraction(1, dim_irrep(lam))).collapse()


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
