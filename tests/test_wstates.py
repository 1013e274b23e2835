import math
from fractions import Fraction
from itertools import product

import pytest

from oracles import phi_norm_sq
from wkron.covariants import theorem2_form
from wkron.exact import SqrtRational
from wkron.partitions import (
    PartitionTuple,
    TwoRowPartition,
    list_partitions,
    ptuple,
    w_admissible,
)
from wkron.wstates import (
    WClassState,
    a_factor,
    parse_w_state,
    phi_hat,
    w_normal_form,
    z_norm,
    z_norms,
)


def sq(x):
    return SqrtRational.sqrt(Fraction(x))


def test_w_normal_form():
    for num_parties in (2, 3, 4):
        w = w_normal_form(num_parties)
        assert w.c[0] == 0
        assert all(ci == Fraction(1, num_parties) for ci in w.c[1:])


def test_state_validation():
    with pytest.raises(ValueError):
        WClassState((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        WClassState((Fraction(0), Fraction(1, 2), Fraction(1, 3)))
    parsed = parse_w_state("0,1/3,1/3,1/3")
    assert parsed == w_normal_form(3)


def test_a_factor_examples():
    assert a_factor(TwoRowPartition(2, 0), 0) == 2
    assert a_factor(TwoRowPartition(2, 1), 1) == 1
    assert a_factor(TwoRowPartition(2, 0), 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        a_factor(TwoRowPartition(2, 1), 0)


def test_phi_hat_single_copy_is_the_state():
    w = w_normal_form(3)
    ph = phi_hat(w, ptuple((1, 0), (1, 0), (1, 0)))
    assert ph.coeffs == {
        (1, 0, 0): sq("1/3"),
        (0, 1, 0): sq("1/3"),
        (0, 0, 1): sq("1/3"),
    }


def test_phi_hat_empty_lattice():
    w = w_normal_form(3)
    assert phi_hat(w, ptuple((1, 1), (1, 1), (1, 1))).coeffs == {}


def test_phi_hat_single_term():
    w = w_normal_form(3)
    ph = phi_hat(w, ptuple((2, 0), (1, 1), (1, 1)))
    assert ph.coeffs == {(0, 1, 1): sq("2/9")}


def test_z_norm_examples():
    w = w_normal_form(3)
    assert z_norm(w, ptuple((2, 0), (2, 0), (2, 0))) == Fraction(4, 3)
    assert z_norm(w, ptuple((2, 0), (1, 1), (1, 1))) == Fraction(2, 9)
    assert z_norm(w, ptuple((1, 1), (1, 1), (1, 1))) == 0


def test_z_norm_equals_phi_hat_norm():
    # the polynomial route against the explicit vector, zero weights included
    states = {
        2: [w_normal_form(2), WClassState((Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)))],
        3: [
            w_normal_form(3),
            WClassState((Fraction(1, 8), Fraction(5, 24), Fraction(1, 3), Fraction(1, 3))),
            WClassState((Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))),
        ],
        4: [WClassState((Fraction(1, 12), Fraction(1, 4), Fraction(1, 6), Fraction(1, 3),
                         Fraction(1, 6)))],
    }
    for num_parties, nmax in ((2, 8), (3, 6), (4, 4)):
        for state in states[num_parties]:
            for n in range(1, nmax + 1):
                sectors = [PartitionTuple(c) for c in product(list_partitions(n), repeat=num_parties)]
                zs = z_norms(state, sectors)
                for lams, z in zip(sectors, zs):
                    assert z == phi_norm_sq(phi_hat(state, lams)) == z_norm(state, lams), lams


def test_z_norms_validates_input():
    w = w_normal_form(3)
    assert z_norms(w, []) == []
    with pytest.raises(ValueError):
        z_norms(w, [ptuple((1, 0), (1, 0))])
    with pytest.raises(ValueError):
        z_norms(w, [ptuple((1, 0), (1, 0), (1, 0)), ptuple((2, 0), (2, 0), (2, 0))])


def test_support_empty_iff_inadmissible_or_lattice_empty():
    w = w_normal_form(3)
    for n in range(1, 6):
        for combo in product(list_partitions(n), repeat=3):
            lams = ptuple(*combo)
            ph = phi_hat(w, lams)
            if ph.coeffs:
                assert w_admissible(lams), lams
            else:
                lattice = [
                    om
                    for om in product(*(range(l.lambda2, l.lambda1 + 1) for l in lams))
                    if sum(om) == lams.n
                ]
                assert not w_admissible(lams) or not lattice, lams


def test_z_norm_positive_on_admissible_positive_weights():
    state = WClassState((Fraction(1, 10), Fraction(3, 10), Fraction(3, 10), Fraction(3, 10)))
    for n in range(1, 6):
        for combo in product(list_partitions(n), repeat=3):
            lams = ptuple(*combo)
            if w_admissible(lams):
                assert z_norm(state, lams) > 0, lams


def test_phi_hat_matches_covariant_coefficients():
    # weight map: the fiducial coefficient equals the covariant monomial
    # coefficient times sqrt((l1-om)!(om-l2)!) per party over w!
    states = [
        w_normal_form(3),
        WClassState((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))),
        WClassState((Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
    ]
    for state in states:
        for n in range(1, 5):
            for combo in product(list_partitions(n), repeat=3):
                lams = ptuple(*combo)
                nu = tuple(lam.nu for lam in lams)
                w = n - sum(lam.lambda2 for lam in lams)
                poly = theorem2_form(state, n, nu)
                ph = phi_hat(state, lams)
                if poly is None:
                    # conditions ii & iii are exactly admissibility here
                    assert not w_admissible(lams)
                    assert not ph.coeffs
                    continue
                if poly.is_zero:
                    assert not ph.coeffs
                    continue
                for omegas, coeff in ph.coeffs.items():
                    mono = []
                    for i, lam in enumerate(lams):
                        mono.extend([lam.lambda1 - omegas[i], omegas[i] - lam.lambda2])
                    f, parity = poly.terms[tuple(mono)]
                    scale = Fraction(1)
                    for i, lam in enumerate(lams):
                        scale *= math.factorial(lam.lambda1 - omegas[i]) * math.factorial(
                            omegas[i] - lam.lambda2
                        )
                    rad = f * f * scale / Fraction(math.factorial(w)) ** 2
                    for j, p in enumerate(parity):
                        if p:
                            rad *= state.c[j]
                    expect = SqrtRational(1 if f > 0 else -1, rad) if f else SqrtRational.zero()
                    assert coeff == expect, (lams, omegas)
                # and every covariant monomial is hit by some weight tuple
                assert len(poly.terms) == len(ph.coeffs)
