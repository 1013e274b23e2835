"""W-class normal-form states, the factorial weight factors, the fiducial
(unnormalized) weight-side states of the sector decomposition, and their
squared norm Z, which `z_norms` takes from polynomial products without
building the states.  That is the one route to Z; summing a built state's
squared coefficients is a test oracle.

A W-class state is stored through its probability weights c^(0..N): the state
is sqrt(c0)|0..0> + sum_i sqrt(ci)|1_i>.  Keeping the squares rational makes
every fiducial coefficient an exact SqrtRational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import SqrtRational
from .partitions import PartitionTuple, TwoRowPartition, w_admissible

WeightTuple = tuple[int, ...]


@dataclass(frozen=True)
class WClassState:
    """Weights c^(0)..c^(N); all >= 0, summing to 1, with at least two of
    c^(1..N) positive (a genuinely W-class state)."""

    c: tuple[Fraction, ...]

    def __post_init__(self):
        c = tuple(Fraction(x) for x in self.c)
        object.__setattr__(self, "c", c)
        if len(c) < 3:
            raise ValueError("need at least two parties (N >= 2)")
        if any(x < 0 for x in c):
            raise ValueError("weights must be nonnegative")
        if sum(c) != 1:
            raise ValueError(f"weights must sum to 1, got {sum(c)}")
        if sum(1 for x in c[1:] if x > 0) < 2:
            raise ValueError("at least two single-excitation weights must be positive")

    @property
    def num_parties(self) -> int:
        return len(self.c) - 1


def w_normal_form(num_parties: int) -> WClassState:
    """The N-party W state: c0 = 0 and ci = 1/N.

    The stored weights are probabilities (squared amplitudes), the unique
    normalization with equal amplitudes 1/sqrt(N).
    """
    if num_parties < 2:
        raise ValueError("N >= 2 required")
    return WClassState((Fraction(0),) + (Fraction(1, num_parties),) * num_parties)


def parse_w_state(s: str) -> WClassState:
    """Parse a CLI weight list "c0,c1,...,cN" of rationals like "1/3"."""
    return WClassState(tuple(Fraction(tok) for tok in s.split(",")))


def a_factor(lam: TwoRowPartition, omega: int) -> Fraction:
    """Exact factorial ratio (lambda1-omega)!/(omega-lambda2)!."""
    if not (lam.lambda1 >= omega >= lam.lambda2):
        raise ValueError(f"weight {omega} outside [{lam.lambda2},{lam.lambda1}] for {lam}")
    return Fraction(math.factorial(lam.lambda1 - omega), math.factorial(omega - lam.lambda2))


@dataclass(frozen=True)
class PhiState:
    """Unnormalized weight-side state: map from weight tuples (omega^(1..N))
    to SqrtRational coefficients.  omega^(0) = n - sum_i omega^(i) is implicit."""

    lams: PartitionTuple
    coeffs: dict[WeightTuple, SqrtRational]


def _weight_tuples(lams: PartitionTuple):
    """All per-party weight tuples within the lambda box bounds with
    sum_i omega^(i) <= n (the deficit is omega^(0))."""
    n = lams.n

    def rec(i, remaining):
        if i == lams.num_parties:
            yield ()
            return
        lam = lams[i]
        lo = lam.lambda2
        hi = min(lam.lambda1, remaining)
        for om in range(lo, hi + 1):
            for rest in rec(i + 1, remaining - om):
                yield (om,) + rest

    return rec(0, n)


def phi_hat(state: WClassState, lams: PartitionTuple) -> PhiState:
    """Expansion of the fiducial state over the weight lattice.

    The coefficient at omega is (c0^(w0/2)/w0!) * prod_i ci^(wi/2) *
    sqrt(prod_i A_i); tuples whose coefficient vanishes are absent.
    Inadmissible sectors return an empty map: there the generating covariant
    vanishes identically even though the raw weight sum would not.
    """
    if state.num_parties != lams.num_parties:
        raise ValueError("party count mismatch")
    if not w_admissible(lams):
        return PhiState(lams, {})
    n = lams.n
    out: dict[WeightTuple, SqrtRational] = {}
    for omegas in _weight_tuples(lams):
        om0 = n - sum(omegas)
        rad = Fraction(1, math.factorial(om0) ** 2) * state.c[0] ** om0
        if rad == 0:
            continue
        for i, om in enumerate(omegas):
            rad *= state.c[i + 1] ** om * a_factor(lams[i], om)
            if rad == 0:
                break
        if rad == 0:
            continue
        out[omegas] = SqrtRational.sqrt(rad)
    return PhiState(lams, out)


def z_norm(state: WClassState, lams: PartitionTuple) -> Fraction:
    """Exact squared norm of the fiducial state, sum_omega |phi_hat_omega|^2."""
    return z_norms(state, [lams])[0]


def z_norms(state: WClassState, sectors) -> list[Fraction]:
    """z_norm of each sector, all of one n, from polynomial products.

    Z(psi, lams) = sum_omega c0^w0/w0!^2 * prod_i ci^wi * A(lams_i, wi) is
    the coefficient sum of c0^(n-k)/(n-k)!^2 against [t^k] of the product of
    the party polynomials P_i(t) = sum_w ci^w * A(lams_i, w) * t^w, truncated
    at degree n: O(N n^2) per sector.  With ci = ai/D, A(lam, w) * nu! =
    (nu - j)! * nu!/j! (nu = lambda1 - lambda2, j = w - lambda2) and
    c0^k/k!^2 * n!^2 = a0^k * (n!/k!)^2 times D^-k, every coefficient is an
    integer.  The c0 series is divided by its gcd g first, so the common
    denominator D^n * n!^2 / g * prod_i nu_i! is divided out once per
    sector.  Each party polynomial, and each product over all parties but
    the last, is built once per call.  Inadmissible sectors read 0, as
    phi_hat is empty there.
    """
    sectors = list(sectors)
    if not sectors:
        return []
    if any(s.num_parties != state.num_parties for s in sectors):
        raise ValueError("party count mismatch")
    n = sectors[0].n
    if any(s.n != n for s in sectors):
        raise ValueError("sectors must share one n")
    den_c = math.lcm(*(x.denominator for x in state.c))
    a = [x.numerator * (den_c // x.denominator) for x in state.c]
    fn = math.factorial(n)
    # g divides the k = 0 term n!^2, and is all of it when c0 = 0; every head
    # is an integer combination of the series, so each sheds g exactly
    c0 = [a[0] ** k * (fn // math.factorial(k)) ** 2 for k in range(n + 1)]
    g = math.gcd(*c0)
    polys: dict[tuple[int, TwoRowPartition], list[int]] = {}
    heads: dict[tuple[TwoRowPartition, ...], list[int]] = {(): [x // g for x in c0]}

    def poly(i: int, lam: TwoRowPartition) -> list[int]:
        p = polys.get((i, lam))
        if p is None:
            nu = lam.nu
            p = polys[(i, lam)] = [0] * lam.lambda2 + [
                a[i + 1] ** (lam.lambda2 + j)
                * math.factorial(nu - j)
                * (math.factorial(nu) // math.factorial(j))
                for j in range(nu + 1)
            ]
        return p

    def head(parts: tuple[TwoRowPartition, ...]) -> list[int]:
        # the c0 series times the polynomials of parts, truncated at degree n
        h = heads.get(parts)
        if h is None:
            prev, p = head(parts[:-1]), poly(len(parts) - 1, parts[-1])
            h = heads[parts] = [
                sum(p[j] * prev[k - j] for j in range(min(k, len(p) - 1) + 1))
                for k in range(n + 1)
            ]
        return h

    den_n = den_c**n * fn**2 // g
    out = []
    for s in sectors:
        if not w_admissible(s):
            out.append(Fraction(0))
            continue
        h, p = head(s[:-1]), poly(s.num_parties - 1, s[-1])
        num = sum(pj * h[n - j] for j, pj in enumerate(p))
        out.append(Fraction(num, den_n * math.prod(math.factorial(lam.nu) for lam in s)))
    return out
