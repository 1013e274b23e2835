"""Exact W-class sector probabilities.

A W-class sector factorises as phi_hat(psi) (x) khat(lams), so every sector
probability is p(psi, lams) = Z(psi, lams) * eta^2(lams): the fiducial norm
`wstates.z_norms` times the Kronecker-state norm `kronstate.eta_sq_table`.
That is the only route `p_w`, `p_psi` and `sector_probabilities` take.

The joint-weight counting route (`p_w_counting` over `_z_count_cached`,
with the constant-term identity `z_count_ct` as its own cross-check) has no
production caller; it stays here as a test oracle for `p_w`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .ghz import JointWeight, louck_diag
from .kronstate import eta_sq_table
from .partitions import PartitionTuple
from .wstates import WClassState, _weight_tuples, w_normal_form, z_norms

WeightTuple = tuple[int, ...]


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


def _count_offdiag(xs: tuple[int, ...]) -> Fraction:
    """sum over nonnegative off-diagonal matrices R with row and column sums
    xs of prod 1/R_ij!; depth-first with column-capacity propagation."""
    n_parties = len(xs)
    cols = list(xs)

    def rec(i: int) -> Fraction:
        if i == n_parties:
            return Fraction(1) if all(c == 0 for c in cols) else Fraction(0)
        if sum(cols) < xs[i]:
            return Fraction(0)
        slots = [j for j in range(n_parties) if j != i]

        def fill(pos: int, rem: int, weight: Fraction) -> Fraction:
            if pos == len(slots):
                return weight * rec(i + 1) if rem == 0 else Fraction(0)
            j = slots[pos]
            total = Fraction(0)
            for v in range(0, min(rem, cols[j]) + 1):
                cols[j] -= v
                total += fill(pos + 1, rem - v, weight / math.factorial(v))
                cols[j] += v
            return total

        return fill(0, xs[i], Fraction(1))

    return rec(0)


@lru_cache(maxsize=None)
def _z_count_cached(omega: WeightTuple, xs: tuple[int, ...], n: int) -> int:
    if any(x < 0 or om - x < 0 for om, x in zip(omega, xs)):
        return 0
    # canonical under simultaneous party permutation
    order = sorted(range(len(omega)), key=lambda i: (omega[i], xs[i]))
    key = (tuple(omega[i] for i in order), tuple(xs[i] for i in order))
    if key != (omega, xs):
        return _z_count_cached(key[0], key[1], n)
    total = _count_offdiag(xs)
    for om, x in zip(omega, xs):
        total /= math.factorial(om - x)
    z = total * math.factorial(n)
    if z.denominator != 1:
        raise AssertionError(f"joint-sequence count not integral: {z}")
    return int(z)


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


def p_w_counting(lams: PartitionTuple) -> Fraction:
    """p_w by joint-weight counting over Louck values; a test oracle."""
    from .partitions import dim_irrep

    n = lams.n
    num_parties = lams.num_parties
    f_all = math.prod(dim_irrep(lam) for lam in lams)
    total = Fraction(0)
    for omega in _weight_tuples(lams):
        if sum(omega) != n:
            continue
        xmax = [min(om, n - om) for om in omega]
        c_vals = [
            [louck_diag(lams[i], omega[i], x) for x in range(xmax[i] + 1)]
            for i in range(num_parties)
        ]

        def rec(i, xs, cprod):
            nonlocal total
            if i == num_parties:
                z = _z_count_cached(omega, xs, n)
                if z:
                    total += z * cprod
                return
            for x in range(xmax[i] + 1):
                c = c_vals[i][x]
                if c:
                    rec(i + 1, xs + (x,), cprod * c)

        rec(0, (), Fraction(1))
    return Fraction(f_all, num_parties**n) * total


def sector_probabilities(state: WClassState, sectors) -> list[Fraction]:
    """p(psi, lams) = Z(psi, lams) * eta^2(lams) of each sector, all of one
    (N, n): one eta^2 sweep and one set of party polynomials serve them all,
    and Z is computed only where eta^2 is nonzero."""
    sectors = list(sectors)
    if any(s.num_parties != state.num_parties for s in sectors):
        raise ValueError("party count mismatch")
    eta2 = eta_sq_table(sectors)
    live = [s for s in sectors if eta2[s]]
    z = dict(zip(live, z_norms(state, live)))
    return [z[s] * eta2[s] if s in z else Fraction(0) for s in sectors]


def p_w(lams: PartitionTuple) -> Fraction:
    """Exact probability of projecting W^(x)n onto the sector lams."""
    return sector_probabilities(w_normal_form(lams.num_parties), [lams])[0]


def p_psi(state: WClassState, lams: PartitionTuple) -> Fraction:
    """Probability of the sector lams for a W-class state; the eta^2 sweep
    covers only the box below the sector's second rows."""
    return sector_probabilities(state, [lams])[0]
