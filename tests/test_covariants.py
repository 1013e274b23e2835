import random
from fractions import Fraction
from itertools import product

from oracles import projective_transvectant, transvectant, verify_proportional
from wkron.covariants import MultiPoly, base_form, format_poly, theorem2_form
from wkron.wstates import WClassState, w_normal_form

W3 = w_normal_form(3)
GENERIC = WClassState((Fraction(1, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 5)))


def test_base_form_w3():
    a = base_form(W3)
    assert a.psi_degree == 1
    assert a.multidegree() == (1, 1, 1)
    # three monomials, each carrying one sqrt(1/3) marker
    assert len(a.terms) == 3
    for m, (f, parity) in a.terms.items():
        assert f == 1 and sum(parity) == 1 and parity[0] == 0


def test_base_form_product_state_and_two_parties():
    # c0-only weights (a product state) give the pure x0 monomial
    p = base_form((Fraction(1), 0, 0, 0))
    assert len(p.terms) == 1
    (mono, (f, parity)), = p.terms.items()
    assert mono == (1, 0, 1, 0, 1, 0)
    assert f == 1 and parity == (1, 0, 0, 0)  # sqrt(c0) marker, value 1
    a2 = base_form(w_normal_form(2))
    assert a2.multidegree() == (1, 1)
    assert len(a2.terms) == 2


def test_zeroth_transvectant_is_product():
    a = base_form(W3)
    assert transvectant(a, a, (0, 0, 0)) == a * a


def test_transvectant_multidegree_bookkeeping():
    rng = random.Random(4242)
    for _ in range(20):
        n_parties = rng.choice((2, 3))
        cvec = (Fraction(1),) + (Fraction(0),) * n_parties

        def randpoly(deg):
            p = MultiPoly(n_parties, cvec, 1, {})
            for _ in range(4):
                mono = []
                for _i in range(n_parties):
                    b = rng.randint(0, deg)
                    mono.extend([deg - b, b])
                p.terms[tuple(mono)] = (Fraction(rng.randint(1, 5)), (0,) * (n_parties + 1))
            return p

        df, dg = rng.randint(1, 3), rng.randint(1, 3)
        f, g = randpoly(df), randpoly(dg)
        orders = tuple(rng.randint(0, min(df, dg)) for _ in range(n_parties))
        t = transvectant(f, g, orders)
        if not t.is_zero:
            assert t.multidegree() == tuple(
                df + dg - 2 * o for o in orders
            )


def test_omega_annihilates_x1_free_pairs():
    p = theorem2_form(W3, 3, (1, 1, 1))  # pure x0 monomial covariant
    assert transvectant(p, p, (1, 0, 0)).is_zero


def test_theorem2_form_examples():
    p = theorem2_form(W3, 3, (1, 1, 1))
    assert p.psi_degree == 3 and p.multidegree() == (1, 1, 1)
    assert len(p.terms) == 1
    (f, parity), = p.terms.values()
    assert parity == (0, 1, 1, 1)

    a = base_form(W3)
    p2 = theorem2_form(W3, 2, (2, 2, 2))
    assert verify_proportional(p2, a * a) == 1

    assert theorem2_form(W3, 2, (2, 2, 0)) is None  # condition iii
    assert theorem2_form(W3, 2, (1, 2, 2)) is None  # condition i
    assert theorem2_form(W3, 1, (3, 1, 1)) is None  # nu exceeds degree


def test_verify_proportional_examples():
    a = base_form(W3)
    assert verify_proportional(a.scale(2), a) == 4
    assert verify_proportional(a + a.scale(-1), a) == 0
    assert verify_proportional(a, a + a.scale(-1)) is None
    b = transvectant(a, a, (1, 1, 0))
    assert verify_proportional(a * a, b) is None


def test_closure_depth3_exhaustive():
    # every covariant reachable by <= 3 nested transvectants at psi-degree <= 3
    # is exactly proportional to the closed form of its multidegree
    for state in (W3, GENERIC, WClassState((Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)))):
        a = base_form(state)
        generation = [(a, 0)]
        seen = 0
        for _depth in range(3):
            new = []
            for f, df in generation:
                for g, dg in generation:
                    if f.psi_degree + g.psi_degree > 3:
                        continue
                    fd, gd = f.multidegree(), g.multidegree()
                    if fd is None or gd is None:
                        continue
                    for orders in product(*(range(min(a_, b_) + 1) for a_, b_ in zip(fd, gd))):
                        t = transvectant(f, g, orders)
                        seen += 1
                        n_t = f.psi_degree + g.psi_degree
                        nu_t = tuple(x + y - 2 * o for x, y, o in zip(fd, gd, orders))
                        closed = theorem2_form(state, n_t, nu_t)
                        if closed is None:
                            assert t.is_zero, (state, n_t, nu_t)
                        else:
                            assert verify_proportional(t, closed) is not None or (
                                t.is_zero and closed.is_zero
                            ), (state, n_t, nu_t)
                        if not t.is_zero:
                            new.append((t, max(df, dg) + 1))
            generation.extend((p, d) for p, d in new if d <= 3)
            # dedupe cheaply by (psi_degree, multidegree, terms)
            unique = []
            keys = set()
            for p, d in generation:
                key = (p.psi_degree, tuple(sorted(p.terms.items())))
                if key not in keys:
                    keys.add(key)
                    unique.append((p, d))
            generation = unique
        assert seen > 50


def test_projective_transvectant_matches_omega():
    for state in (W3, GENERIC):
        a = base_form(state)
        polys = [a, a * a, theorem2_form(state, 2, (2, 2, 2))]
        for f in polys:
            for g in polys:
                fd, gd = f.multidegree(), g.multidegree()
                for party in range(3):
                    for order in range(0, min(fd[party], gd[party]) + 1):
                        if order > 2:
                            continue
                        omega_route = transvectant(
                            f, g, tuple(order if i == party else 0 for i in range(3))
                        )
                        proj_route = projective_transvectant(f, g, party, order)
                        assert omega_route == proj_route, (party, order)


def test_format_poly_sorted():
    a = base_form(W3)
    s = format_poly(a)
    assert s.index("x1(1)") < s.index("x1(2)") < s.index("x1(3)")
    assert format_poly(MultiPoly(3, W3.c, 0, {})) == "0"
