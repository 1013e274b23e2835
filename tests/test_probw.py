import math
import random
from fractions import Fraction
from itertools import product

import pytest

from wkron.ghz import JointWeight
from wkron.kronstate import eta, khat_all
from wkron.partitions import ptuple
from wkron.probw import (
    p_psi,
    p_w,
    p_w_counting,
    sector_probabilities,
    theta_for,
    z_count,
    z_count_ct,
)
from wkron.protocol import all_partition_tuples, multilocal_schur, tensor_power
from wkron.wstates import WClassState, w_normal_form, z_norm


def test_z_count_single_sequence():
    th = [theta_for(1, 0, 1), theta_for(0, 0, 1), theta_for(0, 0, 1)]
    assert z_count(th, (1, 0, 0)) == 1


def test_z_count_x_zero_is_multinomial():
    for omega in [(2, 1, 0), (1, 1, 1), (3, 1, 0), (2, 2, 0)]:
        n = sum(omega)
        th = [theta_for(om, 0, n) for om in omega]
        expect = math.factorial(n)
        for om in omega:
            expect //= math.factorial(om)
        assert z_count(th, omega) == expect
        assert z_count_ct(th, omega) == expect


def test_z_count_two_element_case():
    th = [theta_for(1, 1, 2), theta_for(1, 1, 2), theta_for(0, 0, 2)]
    assert z_count(th, (1, 1, 0)) == 2
    assert z_count_ct(th, (1, 1, 0)) == 2


def test_z_count_validates_input():
    with pytest.raises(ValueError):
        z_count([JointWeight(0, 1, 0, 1), theta_for(0, 0, 2), theta_for(0, 0, 2)], (1, 0, 0))
    with pytest.raises(ValueError):
        z_count([theta_for(2, 0, 2), theta_for(1, 0, 2), theta_for(0, 0, 2)], (2, 1, 0))


def test_ct_infeasible_is_zero():
    # x exceeding the weight makes a joint-weight entry negative
    th = [theta_for(1, 2, 3), theta_for(1, 0, 3), theta_for(1, 0, 3)]
    assert z_count_ct(th, (1, 1, 1)) == 0


def test_ct_equals_direct_exhaustively():
    for num_parties in (3, 4):
        for n in range(1, 7):
            for omega in product(range(n + 1), repeat=num_parties):
                if sum(omega) != n:
                    continue
                xmax = [min(om, n - om) for om in omega]
                for xs in product(*(range(x + 1) for x in xmax)):
                    th = [theta_for(om, x, n) for om, x in zip(omega, xs)]
                    assert z_count(th, omega) == z_count_ct(th, omega), (omega, xs)


def test_p_w_examples():
    assert p_w(ptuple((2, 0), (2, 0), (2, 0))) == Fraction(2, 3)
    assert p_w(ptuple((2, 0), (1, 1), (1, 1))) == Fraction(1, 9)
    assert p_w(ptuple((1, 1), (1, 1), (1, 1))) == 0
    perms = [
        ptuple((2, 0), (1, 1), (1, 1)),
        ptuple((1, 1), (2, 0), (1, 1)),
        ptuple((1, 1), (1, 1), (2, 0)),
    ]
    assert sum(p_w(t) for t in perms) == Fraction(1, 3)


def test_p_w_sums_to_one():
    for num_parties, nmax in ((3, 5), (4, 4)):
        for n in range(1, nmax + 1):
            total = sum(p_w(lams) for lams in all_partition_tuples(num_parties, n))
            assert total == 1, (num_parties, n)


def test_p_w_equals_counting_route():
    for num_parties, nmax in ((3, 7), (4, 5)):
        for n in range(1, nmax + 1):
            for lams in all_partition_tuples(num_parties, n):
                assert p_w(lams) == p_w_counting(lams), lams


def test_sector_probabilities_equal_single_sector_calls():
    state = WClassState((Fraction(1, 8), Fraction(5, 24), Fraction(1, 3), Fraction(1, 3)))
    sectors = list(all_partition_tuples(3, 6))
    assert sector_probabilities(state, sectors) == [p_psi(state, lams) for lams in sectors]
    with pytest.raises(ValueError):
        sector_probabilities(state, [ptuple((2, 0), (2, 0))])


def test_p_w_equals_eta_sq_times_z():
    w = w_normal_form(3)
    for n in range(1, 5):
        for lams, kv in khat_all(3, n).items():
            assert p_w(lams) == eta(kv).square() * z_norm(w, lams), lams


def _random_w_state(rng, num_parties):
    while True:
        ks = [rng.randint(0, 6) for _ in range(num_parties + 1)]
        if sum(1 for k in ks[1:] if k) >= 2:
            s = sum(ks)
            return WClassState(tuple(Fraction(k, s) for k in ks))


def test_p_psi_equals_oracle_projection_norm():
    rng = random.Random(2718)
    states = [_random_w_state(rng, 3) for _ in range(5)]
    for state in states:
        for n in (1, 2, 3):
            sectors = multilocal_schur(tensor_power(state, n))
            for lams in all_partition_tuples(3, n):
                oracle_p = sectors[lams].norm_sq() if lams in sectors else Fraction(0)
                assert p_psi(state, lams) == oracle_p, (state, lams)


def test_p_psi_of_w_is_p_w():
    w = w_normal_form(3)
    for n in (2, 3):
        for lams in all_partition_tuples(3, n):
            assert p_psi(w, lams) == p_w(lams)


def test_p_psi_bell_state_vs_oracle():
    bell = WClassState((Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    for n in (2, 4):
        lams = ptuple((n, 0), (n, 0))
        sectors = multilocal_schur(tensor_power(bell, n))
        assert p_psi(bell, lams) == sectors[lams].norm_sq()


def test_p_psi_inadmissible_is_zero():
    state = WClassState((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)))
    assert p_psi(state, ptuple((2, 0), (2, 0), (1, 1))) == 0


def test_mode_location_n12():
    best = max(all_partition_tuples(3, 12), key=p_w)
    for lam in best:
        assert abs(Fraction(lam.lambda2, 12) - Fraction(1, 3)) <= Fraction(2, 12)
