import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RadicalSum, as_rational, collapse
from wkron.exact import SqrtRational, sym_eig


def sq(x):
    return SqrtRational.sqrt(Fraction(x))


def test_mul_examples():
    assert sq("1/2") * -sq("1/3") == -sq("1/6")
    assert sq("5/7") * SqrtRational.zero() == SqrtRational.zero()
    assert -sq("4/3") * -sq("1/2") == sq("2/3")


def test_square_examples():
    assert (-sq("2/3")).square() == Fraction(2, 3)
    assert SqrtRational.zero().square() == 0
    assert sq("8/3").square() == Fraction(8, 3)


def test_to_float_examples():
    assert float(sq("1/4")) == 0.5
    assert abs(float(-sq("2/3")) + 0.8164965809277260) < 1e-15
    assert float(SqrtRational.zero()) == 0.0


def test_from_rational_roundtrip():
    for q in (Fraction(3, 4), Fraction(-2, 7), Fraction(0)):
        assert as_rational(SqrtRational.from_rational(q)) == q


def test_invariants_reject_bad_values():
    with pytest.raises(ValueError):
        SqrtRational(1, Fraction(0))
    with pytest.raises(ValueError):
        SqrtRational(0, Fraction(1))
    with pytest.raises(ValueError):
        SqrtRational(1, Fraction(-1, 2))


def test_json_round_trip():
    x = -sq("18/5")
    assert SqrtRational.from_json(x.to_json()) == x
    assert x.to_json() == {"sign": -1, "num": 18, "den": 5}


def test_mul_commutative_associative_random():
    rng = random.Random(20240917)

    def rand():
        s = rng.choice([-1, 0, 1])
        if s == 0:
            return SqrtRational.zero()
        return SqrtRational(s, Fraction(rng.randint(1, 40), rng.randint(1, 40)))

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a * b).square() == a.square() * b.square()


def _value(sign, num, den):
    return SqrtRational(sign, Fraction(num, den) if sign else Fraction(0))


# small entries share factors often, so most products need reducing
_ints = st.integers(1, 60) | st.integers(1, 10**12)
_values = st.builds(_value, st.sampled_from((-1, 0, 1)), _ints, _ints)


def _assert_canonical(v):
    sign, num, den = v
    assert type(v) is SqrtRational and {type(x) for x in v} == {int}, v
    assert den >= 1 and math.gcd(num, den) == 1, v
    assert (sign == 0) == (num == 0), v
    assert v.is_zero == (v == (0, 0, 1)), v
    assert v == SqrtRational(v.sign, v.radicand)


@settings(max_examples=300, deadline=None)
@given(_values, _values, st.fractions(), st.fractions(min_value=0), _ints)
def test_every_value_is_canonical(a, b, q, r, k):
    # table records are the tuples themselves, so an unreduced product would
    # change the output bytes; commutativity, associativity and square()
    # all survive one
    unreduced = {"sign": a.sign, "num": a[1] * k, "den": a[2] * k}
    results = [a * b, -a, SqrtRational.sqrt(r), SqrtRational.from_rational(q),
               SqrtRational.from_json(a.to_json()), SqrtRational.from_json(unreduced)]
    if b.sign:
        results.append(a / b)
    for v in (a, b, *results):
        _assert_canonical(v)
    # equal values reached by different routes are equal and hash equal
    fq = SqrtRational.from_rational(q)
    routes = [
        (a * b, SqrtRational(a.sign * b.sign, a.radicand * b.radicand)),
        (-(-a), a),
        (SqrtRational.from_json(unreduced), a),
        (fq * fq, SqrtRational.sqrt(q**4)),
        (SqrtRational.sqrt(r) * SqrtRational.sqrt(r), SqrtRational.from_rational(r)),
        (tuple(json.loads(json.dumps(a))), a),
    ]
    if b.sign:
        routes.append(((a * b) / b, a))
    for x, y in routes:
        assert x == y and hash(x) == hash(y), (x, y)


def test_sums_and_int_products_raise():
    # a tuple would concatenate or repeat; a sum leaves the scalar set
    a, b = sq("1/2"), -sq("1/3")
    for bad in (lambda: a + b, lambda: 2 * a, lambda: a * 2):
        with pytest.raises(TypeError):
            bad()


def test_division_inverts_multiplication():
    a, b = -sq("3/5"), sq("7/2")
    assert (a * b) / b == a
    with pytest.raises(ZeroDivisionError):
        a / SqrtRational.zero()


def test_radical_sum_collapse_and_ring():
    a = RadicalSum.from_sqrt(sq("1/2"))
    b = RadicalSum.from_sqrt(sq("9/2"))
    total = a + b  # sqrt(1/2) + 3*sqrt(1/2) = 4 sqrt(1/2) = sqrt(8)
    assert collapse(total) == sq(8)
    assert collapse(a - a) == SqrtRational.zero()
    mixed = a + RadicalSum.from_sqrt(sq("1/3"))
    with pytest.raises(ValueError):
        collapse(mixed)
    prod = mixed * mixed  # (x+y)^2 = x^2+y^2 + 2xy: classes 1 and sqrt(6)
    assert prod.terms[1] == Fraction(1, 2) + Fraction(1, 3)
    assert prod.as_rational() is None
    assert abs(float(mixed) - (math.sqrt(0.5) + math.sqrt(1 / 3))) < 1e-14


def test_sym_eig_examples():
    assert sym_eig([[1, 0], [0, 0]]) == [1, 0]
    vals = sym_eig([[0.5, 0.5], [0.5, 0.5]])
    assert abs(vals[0] - 1) < 1e-12 and abs(vals[1]) < 1e-12


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig([[0, 1], [0.5, 0]])


def test_sym_eig_psd_trace():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(5, 5))
        p = m @ m.T
        vals = sym_eig(p)
        assert all(v >= -1e-10 for v in vals)
        assert abs(sum(vals) - np.trace(p)) < 1e-10 * max(1, np.trace(p))
