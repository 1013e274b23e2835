"""Second routes kept only as test oracles.

Each one computes a quantity the package computes by another route, the
slow and literal way, so tests can compare the two exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from wkron.exact import RadicalSum, SqrtRational
from wkron.ghz import JointWeight, joint_weights, multinomial_theta
from wkron.kronstate import KroneckerVector, _down_set, _predecessors
from wkron.partitions import (
    PartitionTuple,
    TwoRowPartition,
    dim_irrep,
    list_partitions,
    w_admissible,
)
from wkron.protocol import DenseState, SectorBlock
from wkron.schur import SchurBlock, SchurLabel, b_coeff, standard_paths
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


def multilocal_schur_reference(state: DenseState) -> dict[PartitionTuple, SectorBlock]:
    """`protocol.multilocal_schur` with the radicals inside the contraction:
    every value is a {radical class: numerator} dict and every (term, column)
    pair multiplies radicals through a gcd.  Keys are touched in nested-loop
    order (amplitudes in dict order, then columns in label order), which
    fixes the order of the sectors and of their cells."""
    n, N = state.copies, state.num_parties
    cols, D, labels = _party_columns_per_class(n)
    # keys: per-party entries are raw bit tuples, replaced party by party with
    # label indices; a value {d: c} is sum(c * sqrt(d)) / (A * D**parties_done)
    parts = {
        state.stuple_of(idx): a.radical_parts()
        for idx, a in state.amplitudes.items()
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
