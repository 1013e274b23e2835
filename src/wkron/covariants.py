"""Exact multihomogeneous polynomial algebra with the Omega process, for
generating SLOCC covariants of W-class states and verifying their closed form.

Coefficients live in the ring Q[r_0..r_N]/(r_i^2 - c_i) where r_i stands for
sqrt(c_i) and the c_i are the state's concrete rational weights.  Every
polynomial in the family generated from a W-class base form is parity graded:
the marker content of a coefficient is determined by its monomial, so each
coefficient is a single rational multiple of one marker monomial.  Sums that
would mix marker monomials on one x-monomial cannot occur and raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

Monomial = tuple[int, ...]  # (x0^(1), x1^(1), ..., x0^(N), x1^(N)) exponents
Coeff = tuple[Fraction, tuple[int, ...]]  # rational * prod_i sqrt(c_i)^parity_i


def _cmul(c: tuple[Fraction, ...], a: Coeff, b: Coeff) -> Coeff:
    f = a[0] * b[0]
    parity = []
    for i, (pa, pb) in enumerate(zip(a[1], b[1])):
        if pa and pb:
            f *= c[i]
        parity.append(pa ^ pb)
    return (f, tuple(parity))


def _csquare(c: tuple[Fraction, ...], a: Coeff) -> Fraction:
    f = a[0] * a[0]
    for i, p in enumerate(a[1]):
        if p:
            f *= c[i]
    return f


@dataclass
class MultiPoly:
    """Multihomogeneous polynomial in the 2N auxiliary variables, with exact
    marker coefficients and the degree in the state tracked alongside."""

    num_parties: int
    c: tuple[Fraction, ...]
    psi_degree: int
    terms: dict[Monomial, Coeff] = field(default_factory=dict)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def multidegree(self) -> tuple[int, ...] | None:
        """Per-party x-degrees; None for the zero polynomial.  Raises if the
        polynomial is not multihomogeneous."""
        if not self.terms:
            return None
        degs = None
        for m in self.terms:
            d = tuple(m[2 * i] + m[2 * i + 1] for i in range(self.num_parties))
            if degs is None:
                degs = d
            elif degs != d:
                raise ValueError(f"not multihomogeneous: {degs} vs {d}")
        return degs

    def _compatible(self, other: "MultiPoly"):
        if self.num_parties != other.num_parties or self.c != other.c:
            raise ValueError("polynomials belong to different states")

    def _add_term(self, m: Monomial, coeff: Coeff):
        cur = self.terms.get(m)
        if cur is None:
            if coeff[0]:
                self.terms[m] = coeff
            return
        if cur[1] != coeff[1]:
            raise ValueError(f"marker classes collide on {m}: {cur[1]} vs {coeff[1]}")
        f = cur[0] + coeff[0]
        if f:
            self.terms[m] = (f, cur[1])
        else:
            del self.terms[m]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._compatible(other)
        if self.psi_degree != other.psi_degree:
            raise ValueError("cannot add polynomials of different state degree")
        out = MultiPoly(self.num_parties, self.c, self.psi_degree, dict(self.terms))
        for m, coeff in other.terms.items():
            out._add_term(m, coeff)
        return out

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._compatible(other)
        out = MultiPoly(
            self.num_parties, self.c, self.psi_degree + other.psi_degree, {}
        )
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out._add_term(m, _cmul(self.c, c1, c2))
        return out

    def scale(self, q) -> "MultiPoly":
        q = Fraction(q)
        out = MultiPoly(self.num_parties, self.c, self.psi_degree, {})
        if q:
            out.terms = {m: (f * q, p) for m, (f, p) in self.terms.items()}
        return out

    def power(self, k: int) -> "MultiPoly":
        out = poly_const(self.num_parties, self.c, Fraction(1), psi_degree=0)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.c == other.c
            and self.terms == other.terms
        )


def poly_const(num_parties: int, c, value, psi_degree: int = 0) -> MultiPoly:
    p = MultiPoly(num_parties, tuple(Fraction(x) for x in c), psi_degree, {})
    value = Fraction(value)
    if value:
        p.terms[(0,) * (2 * num_parties)] = (value, (0,) * len(p.c))
    return p


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


def transvectant(f: MultiPoly, g: MultiPoly, orders) -> MultiPoly:
    """Iterated Omega process: apply Omega_i orders[i] times to F(x)G(x') and
    then set x' = x.  Vanishes naturally when an order exceeds a degree."""
    f._compatible(g)
    N = f.num_parties
    if len(orders) != N:
        raise ValueError("one transvection order per party required")
    c = f.c
    # doubled-variable polynomial {(mF, mG): coeff}
    pairs: dict[tuple[Monomial, Monomial], Coeff] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            pairs[(m1, m2)] = _cmul(c, c1, c2)
    for i, li in enumerate(orders):
        i0, i1 = 2 * i, 2 * i + 1
        for _ in range(li):
            nxt: dict[tuple[Monomial, Monomial], Coeff] = {}

            def add(key, coeff):
                cur = nxt.get(key)
                if cur is None:
                    if coeff[0]:
                        nxt[key] = coeff
                    return
                if cur[1] != coeff[1]:
                    raise ValueError("marker classes collide in Omega step")
                s = cur[0] + coeff[0]
                if s:
                    nxt[key] = (s, cur[1])
                else:
                    del nxt[key]

            for (m1, m2), coeff in pairs.items():
                # d/dx0 d/dx1' term
                if m1[i0] and m2[i1]:
                    k1, k2 = list(m1), list(m2)
                    k1[i0] -= 1
                    k2[i1] -= 1
                    add((tuple(k1), tuple(k2)), (coeff[0] * m1[i0] * m2[i1], coeff[1]))
                # - d/dx1 d/dx0' term
                if m1[i1] and m2[i0]:
                    k1, k2 = list(m1), list(m2)
                    k1[i1] -= 1
                    k2[i0] -= 1
                    add((tuple(k1), tuple(k2)), (-coeff[0] * m1[i1] * m2[i0], coeff[1]))
            pairs = nxt
    out = MultiPoly(N, c, f.psi_degree + g.psi_degree, {})
    for (m1, m2), coeff in pairs.items():
        out._add_term(tuple(a + b for a, b in zip(m1, m2)), coeff)
    return out


def theorem2_form(state, n: int, nu) -> MultiPoly | None:
    """Closed form of the unique W-class covariant of multidegree (n, nu),
    or None when the multidegree vanishes by the parity/positivity conditions."""
    weights = _weights(state)
    N = len(weights) - 1
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
    c = weights
    marker = [0] * (N + 1)
    rat = Fraction(1)
    for i in range(N):
        k = (n - nu[i]) // 2  # marker exponent of sqrt(c_(i+1))
        if c[i + 1] == 0 and k > 0:
            return MultiPoly(N, c, n, {})  # the formula itself is exactly zero
        rat *= c[i + 1] ** (k // 2)
        marker[i + 1] = k % 2
    head = MultiPoly(N, c, n - w, {})
    mono = [0] * (2 * N)
    for i in range(N):
        mono[2 * i] = nu[i] - w
    head.terms[tuple(mono)] = (rat, tuple(marker))
    return head * base_form(state).power(w)


def verify_proportional(f: MultiPoly, g: MultiPoly) -> Fraction | None:
    """Exact proportionality test F = r*G; returns the squared ratio r^2 as a
    rational, or None when the polynomials are not proportional."""
    f._compatible(g)
    if f.is_zero:
        return Fraction(0)
    if g.is_zero:
        return None
    if set(f.terms) != set(g.terms):
        return None
    m0 = next(iter(g.terms))
    f0, g0 = f.terms[m0], g.terms[m0]
    for m in f.terms:
        lhs = _cmul(f.c, f.terms[m], g0)
        rhs = _cmul(f.c, f0, g.terms[m])
        if lhs != rhs:
            return None
    return _csquare(f.c, f0) / _csquare(f.c, g0)


def projective_transvectant(f: MultiPoly, g: MultiPoly, party: int, order: int) -> MultiPoly:
    """Single-party transvectant through the projective-coordinate formula,
    as an independent cross-check of the Omega route."""
    f._compatible(g)
    fd, gd = f.multidegree(), g.multidegree()
    N = f.num_parties
    out = MultiPoly(N, f.c, f.psi_degree + g.psi_degree, {})
    if fd is None or gd is None:
        return out
    fi, gi = fd[party], gd[party]
    if not (0 <= order <= min(fi, gi)):
        return out

    def deriv_p(p: MultiPoly, times: int) -> MultiPoly:
        # d/dp on the dehomogenized poly: x1 exponent down, x0 exponent up
        cur = p
        for _ in range(times):
            nxt = MultiPoly(N, p.c, p.psi_degree, {})
            for m, coeff in cur.terms.items():
                b = m[2 * party + 1]
                if b:
                    k = list(m)
                    k[2 * party + 1] -= 1
                    k[2 * party] += 1
                    nxt._add_term(tuple(k), (coeff[0] * b, coeff[1]))
            cur = nxt
        return cur

    for k in range(order + 1):
        coef = (
            factorial(order)
            * (-1) ** k
            * comb(fi - order + k, k)
            * comb(gi - k, order - k)
        )
        if coef == 0:
            continue
        part = deriv_p(f, order - k) * deriv_p(g, k)
        out = out + part.scale(coef)
    # re-homogenize from degree fi+gi down to fi+gi-2l in party's x0
    fixed = MultiPoly(N, f.c, out.psi_degree, {})
    for m, coeff in out.terms.items():
        k = list(m)
        k[2 * party] -= 2 * order
        if k[2 * party] < 0:
            raise ValueError("projective transvectant is not polynomial here")
        fixed._add_term(tuple(k), coeff)
    return fixed


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
