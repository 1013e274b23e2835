"""Multihomogeneous polynomials for the SLOCC covariants of W-class states,
and their closed form.

Coefficients live in the ring Q[r_0..r_N]/(r_i^2 - c_i) where r_i stands for
sqrt(c_i) and the c_i are the state's concrete rational weights.  Every
polynomial in the family generated from a W-class base form is parity graded:
the marker content of a coefficient is determined by its monomial, so each
coefficient is a single rational multiple of one marker monomial.

`theorem2_form` is the closed form `wkron covariant` prints, and the
package's one route to a covariant; it writes each term by the multinomial
theorem, so the package multiplies no polynomials.  The polynomial ring
(where a sum that would mix marker monomials on one x-monomial raises), the
ring-product route to the closed form and the Omega process that checks it
are test oracles and live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

Monomial = tuple[int, ...]  # (x0^(1), x1^(1), ..., x0^(N), x1^(N)) exponents
Coeff = tuple[Fraction, tuple[int, ...]]  # rational * prod_i sqrt(c_i)^parity_i


@dataclass
class MultiPoly:
    """Multihomogeneous polynomial in the 2N auxiliary variables, with exact
    marker coefficients and the degree in the state tracked alongside."""

    num_parties: int
    c: tuple[Fraction, ...]
    psi_degree: int
    terms: dict[Monomial, Coeff] = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _weights(state) -> tuple[Fraction, ...]:
    """Weight vector (c0..cN) from a state object or a raw sequence."""
    if hasattr(state, "c"):
        return tuple(state.c)
    return tuple(Fraction(x) for x in state)


def base_form(state) -> MultiPoly:
    """Multilinear base form of a normal-form state: one marker monomial per
    computational-basis amplitude.  Accepts a W-class state or a raw weight
    sequence (so degenerate inputs like a pure product state work too)."""
    c = _weights(state)
    N = len(c) - 1
    p = MultiPoly(N, c, 1, {})
    all_x0 = tuple(1 if k % 2 == 0 else 0 for k in range(2 * N))
    if c[0]:
        parity = (1,) + (0,) * N
        p.terms[all_x0] = (Fraction(1), parity)
    for i in range(1, N + 1):
        if c[i]:
            m = list(all_x0)
            m[2 * (i - 1)] = 0
            m[2 * (i - 1) + 1] = 1
            parity = tuple(1 if j == i else 0 for j in range(N + 1))
            p.terms[tuple(m)] = (Fraction(1), parity)
    return p


# Bound on `theorem2_form`'s work: terms times about 30(N + 10) + d + d^2/600
# steps of 25-40 ns for d digits of coefficient (per-party work, products,
# quadratic gcd and int-to-str).  On a 2-core VM with Python 3.11 the largest
# admitted `wkron covariant` of each shape took 1.5-2.8 s and <= 150 MB: W at
# N = 2, n = 5707 (far below n = 14,300, where a coefficient passes the
# 4300-digit int-to-str limit); N = 3, n = 430; N = 8, n = 14; N = 16, n = 6.
COVARIANT_WORK_BUDGET = 80_000_000


def theorem2_form(state, n: int, nu) -> MultiPoly | None:
    """Closed form of the unique W-class covariant of multidegree (n, nu),
    or None when the multidegree vanishes by the parity/positivity conditions.

    An x0 monomial times (base form)^w, w = (sum(nu) - (N-2)n)/2: one term
    per k on the parties with c_i > 0 (c_0 included), sum(k) = w, with
    e_i = (n - nu_i)/2 + k_i (e_0 = k_0), coefficient
    w!/prod(k_i!) * prod(c_i^floor(e_i/2)), marker prod(sqrt(c_i)^(e_i % 2))
    and monomial prod(x0(i)^(nu_i - k_i) * x1(i)^k_i).  Raises ValueError,
    before any term is built, when the work is over COVARIANT_WORK_BUDGET."""
    c = _weights(state)
    N = len(c) - 1
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
    if any(v < w for v in nu):
        return None
    if any(v > n for v in nu):
        # would need negative powers of the weights; no such covariant
        return None
    h = (0, *((n - v) // 2 for v in nu))
    support = [i for i, ci in enumerate(c) if ci]
    if not support or any(hi and not ci for hi, ci in zip(h, c)):
        return MultiPoly(N, c, n, {})  # the formula itself is exactly zero
    L = len(support)
    num_terms = math.comb(w + L - 1, L - 1)
    # digits of one coefficient, at most: w*log10(L) for the multinomial, and
    # sum(floor(e_i/2)) <= (sum(h) + w)/2 factors of a weight
    try:
        digits = math.ceil(1 + w * math.log10(L) + (sum(h) + w) / 2 * max(
            math.log10(abs(c[i].numerator) * c[i].denominator) for i in support))
    except OverflowError:  # n past a float's range is over any budget
        digits = COVARIANT_WORK_BUDGET
    work = num_terms * (30 * (N + 10) + digits + digits * digits // 600)
    if work > COVARIANT_WORK_BUDGET:
        raise ValueError(f"covariant ({n}, {nu}) needs about 10^{math.log10(work):.1f} steps "
                         f"of work, over the budget of {COVARIANT_WORK_BUDGET:,}")
    out = MultiPoly(N, c, n, {})
    all_x0 = [e for v in nu for e in (v, 0)]
    # stars and bars: L - 1 bars among w + L - 1 slots split w into k
    for bars in combinations(range(w + L - 1), L - 1):
        mono, parity = all_x0[:], [0] * (N + 1)
        num, den, rest = 1, 1, w  # w!/prod(k_i!) as a product of binomials
        for i, left, right in zip(support, (-1, *bars), (*bars, w + L - 1)):
            k = right - left - 1
            e = h[i] + k
            num *= math.comb(rest, k) * c[i].numerator ** (e // 2)
            den *= c[i].denominator ** (e // 2)
            rest -= k
            parity[i] = e % 2
            if i:
                mono[2 * i - 2] -= k
                mono[2 * i - 1] = k
        out.terms[tuple(mono)] = (Fraction(num, den), tuple(parity))
    return out


def format_poly(p: MultiPoly) -> str:
    """Human-readable rendering, monomials in sorted order."""
    if p.is_zero:
        return "0"
    chunks = []
    for m in sorted(p.terms):
        f, parity = p.terms[m]
        bits = []
        if any(parity):
            roots = "*".join(f"c{i}" for i, b in enumerate(parity) if b)
            bits.append(f"({f})*sqrt({roots})" if f != 1 else f"sqrt({roots})")
        else:
            bits.append(str(f))
        for i in range(p.num_parties):
            for off, name in ((0, "x0"), (1, "x1")):
                e = m[2 * i + off]
                if e == 1:
                    bits.append(f"{name}({i + 1})")
                elif e > 1:
                    bits.append(f"{name}({i + 1})^{e}")
        chunks.append("*".join(bits))
    return " + ".join(chunks)
