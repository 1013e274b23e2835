import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    JointWeight,
    RadicalSum,
    hahn_eberlein,
    hahn_eberlein_3f2,
    joint_weights,
    louck,
    louck_bsum,
    multinomial_theta,
    overlap_per_theta,
    sector_cell,
    sector_grid,
    trace,
)
from wkron.exact import SqrtRational
from wkron.ghz import (
    gram,
    overlap,
    schmidt_spectrum,
    sector_probability,
    typical_partition,
)
from wkron.partitions import PartitionTuple, TwoRowPartition, dim_irrep, list_partitions, ptuple
from wkron.schur import SchurBlock


def sq(x):
    return SqrtRational.sqrt(Fraction(x))


def test_hahn_eberlein_trivial():
    lam = TwoRowPartition(3, 2)
    assert hahn_eberlein(lam, 2, 3, 0) == 1
    lam0 = TwoRowPartition(4, 0)
    for x in range(5):
        assert hahn_eberlein(lam0, 1, 3, x) == 1


def test_louck_n1_is_matrix_unit():
    lam = TwoRowPartition(1, 0)
    for om in (0, 1):
        for omp in (0, 1):
            for th in joint_weights(1, om, omp):
                assert louck(lam, om, omp, th) == SqrtRational.one()


def test_louck_matches_bsum_single_case():
    lam = TwoRowPartition(2, 0)
    th = JointWeight(1, 0, 0, 1)  # s = s' of weight 1, x = 0
    assert louck(lam, 1, 1, th) == louck_bsum(lam, 1, 1, th)
    assert louck(lam, 1, 1, th) == sq("1/4")  # value 1/2
    # weights outside lam's range give zero in both definitions
    lam, th = TwoRowPartition(1, 1), JointWeight(1, 1, 0, 0)
    assert louck(lam, 0, 1, th) == louck_bsum(lam, 0, 1, th) == SqrtRational.zero()


def test_louck_identity_representation():
    # sum over diagonal joint weights reproduces D(identity) = identity
    for n in range(1, 6):
        for lam in list_partitions(n):
            for om in range(lam.lambda2, lam.lambda1 + 1):
                th = JointWeight(n - om, 0, 0, om)
                val = louck(lam, om, om, th)
                assert val.as_rational() * multinomial_theta(th) == 1


def test_louck_two_definitions_agree_exhaustively():
    for n in range(1, 6):
        for lam in list_partitions(n):
            for om in range(lam.lambda2, lam.lambda1 + 1):
                for omp in range(lam.lambda2, lam.lambda1 + 1):
                    for th in joint_weights(n, om, omp):
                        assert louck(lam, om, omp, th) == louck_bsum(lam, om, omp, th), (
                            lam,
                            om,
                            omp,
                            th,
                        )


def test_louck_incompatible_theta_raises():
    with pytest.raises(ValueError):
        louck(TwoRowPartition(2, 0), 1, 1, JointWeight(2, 0, 0, 0))


def test_louck_orthogonality():
    # sum_theta multinomial * C_{om,om2} C'_{om1,om3} = delta/f exactly
    for n in range(1, 6):
        lams = list_partitions(n)
        for lam in lams:
            for lamp in lams:
                wr = range(lam.lambda2, lam.lambda1 + 1)
                wrp = range(lamp.lambda2, lamp.lambda1 + 1)
                for om, om2 in product(wr, repeat=2):
                    for om1, om3 in product(wrp, repeat=2):
                        if (om, om2) != (om1, om3):
                            # C factors enforce weight matching; sum vanishes
                            continue
                        acc = RadicalSum.zero()
                        for th in joint_weights(n, om, om2):
                            prod_val = louck(lam, om, om2, th) * louck(lamp, om1, om3, th)
                            acc = acc + RadicalSum.from_sqrt(prod_val).scale(
                                multinomial_theta(th)
                            )
                        expect = (
                            Fraction(1, dim_irrep(lam)) if lam == lamp else Fraction(0)
                        )
                        assert acc.as_rational() == expect, (lam, lamp, om, om2)


def test_louck_completeness():
    # sum_{lam,om,om'} f * C(theta) C(theta') = delta * prod(theta!)/n!
    for n in range(1, 6):
        thetas = [
            JointWeight(t00, t01, t10, n - t00 - t01 - t10)
            for t00 in range(n + 1)
            for t01 in range(n + 1 - t00)
            for t10 in range(n + 1 - t00 - t01)
        ]
        for th in thetas:
            for thp in thetas:
                om, om2 = th.weights()
                if (om, om2) != thp.weights():
                    continue  # different weights never share (lam, om, om')
                acc = RadicalSum.zero()
                for lam in list_partitions(n):
                    if not (lam.lambda1 >= om >= lam.lambda2):
                        continue
                    if not (lam.lambda1 >= om2 >= lam.lambda2):
                        continue
                    prod_val = louck(lam, om, om2, th) * louck(lam, om, om2, thp)
                    acc = acc + RadicalSum.from_sqrt(prod_val).scale(dim_irrep(lam))
                if th == thp:
                    expect = Fraction(
                        math.factorial(th.t00)
                        * math.factorial(th.t01)
                        * math.factorial(th.t10)
                        * math.factorial(th.t11),
                        math.factorial(n),
                    )
                else:
                    expect = Fraction(0)
                assert acc.as_rational() == expect, (th, thp)


def _d_matrix_from_schur(lam, n, x_mat):
    """<lam,om,q| X^(x)n |lam,om',q> via the exact Schur block; also checks
    the q-diagonal structure."""
    block = SchurBlock(lam, n)
    rows = list(block.items())
    paths = [q for q in [lbl.q for lbl, _ in rows]]
    d = {}
    for lbl1, col1 in rows:
        for lbl2, col2 in rows:
            acc = RadicalSum.zero()
            for s1, v1 in col1.items():
                for s2, v2 in col2.items():
                    prod = Fraction(1)
                    for b1, b2 in zip(s1, s2):
                        prod *= x_mat[b1][b2]
                        if prod == 0:
                            break
                    if prod:
                        acc = acc + RadicalSum.from_sqrt(v1 * v2).scale(prod)
            if lbl1.q == lbl2.q:
                d.setdefault((lbl1.omega, lbl2.omega), []).append(acc)
            else:
                assert acc.is_zero, "off-diagonal in q must vanish"
    out = {}
    for key, vals in d.items():
        for v in vals[1:]:
            assert v == vals[0], "q-degenerate entries must agree"
        out[key] = vals[0]
    return out


def test_representation_expansion_matches_schur_conjugation():
    rng = random.Random(314)
    for n in range(1, 6):
        x_mat = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
            for _ in range(2)
        ]
        for lam in list_partitions(n):
            expected = _d_matrix_from_schur(lam, n, x_mat)
            wr = range(lam.lambda2, lam.lambda1 + 1)
            for om in wr:
                for omp in wr:
                    acc = RadicalSum.zero()
                    for th in joint_weights(n, om, omp):
                        prod = (
                            x_mat[0][0] ** th.t00
                            * x_mat[0][1] ** th.t01
                            * x_mat[1][0] ** th.t10
                            * x_mat[1][1] ** th.t11
                        )
                        if prod:
                            acc = acc + RadicalSum.from_sqrt(
                                louck(lam, om, omp, th)
                            ).scale(multinomial_theta(th) * prod)
                    assert acc == expected[(om, omp)], (lam, om, omp)


def test_overlap_examples():
    lams = ptuple((2, 0), (2, 0), (2, 0))
    assert overlap(lams, 0, 1) == sq("1/2")
    assert overlap(lams, 1, 1) == sq("1/4")
    assert overlap(lams, 0, 0) == SqrtRational.one()
    # all-zero / all-one sequences
    for n in (2, 3):
        lams_n = ptuple(*([(n, 0)] * 3))
        assert overlap(lams_n, n, n) == SqrtRational.one()
    # weight outside a party's range
    assert overlap(ptuple((2, 0), (1, 1), (1, 1)), 0, 0) == SqrtRational.zero()


def test_gram_rank1_sector():
    g = gram(ptuple((2, 0), (2, 0), (2, 0)), Fraction(1, 2), 2)
    assert trace(g) == 1
    spec = schmidt_spectrum(g)
    assert abs(spec[0] - 1) < 1e-12
    assert all(abs(v) < 1e-12 for v in spec[1:])


def test_gram_degenerate_all_singlet():
    g = gram(ptuple((1, 1), (1, 1), (1, 1)), Fraction(1, 3), 2)
    assert g.weights == []


def test_gram_sector_with_one_common_weight():
    # max lambda2 == min lambda1: the weight range holds one weight, and the
    # Gram matrix is [[1]] rather than empty
    from wkron.protocol import GHZState, multilocal_schur, tensor_power

    alpha = Fraction(1, 3)
    lams = ptuple((2, 2), (2, 2), (2, 2))
    g = gram(lams, alpha, 4)
    assert g.weights == [2]
    assert g.exact == [[SqrtRational.one()]]
    block = multilocal_schur(tensor_power(GHZState(alpha, 3), 4))[lams]
    assert sector_probability(lams, alpha) == block.norm_sq() == Fraction(4, 243)
    g = gram(ptuple((3, 3), (4, 2), (3, 3)), alpha, 6)
    assert g.weights == [3]
    assert g.exact == [[SqrtRational.one()]]


def test_gram_42_cubed():
    g = gram(ptuple((4, 2), (4, 2), (4, 2)), Fraction(1, 3), 6)
    spec = schmidt_spectrum(g)
    assert spec[0] < 1
    assert spec[1] > 0
    rank = sum(1 for v in spec if v > 1e-10)
    assert rank >= 2


def test_fig3_spectra_roughly_geometric():
    for n in (6, 9, 12):
        lam = typical_partition(n)
        g = gram(PartitionTuple((lam,) * 3), Fraction(1, 3), n)
        spec = [v for v in schmidt_spectrum(g) if v > 1e-13]
        assert spec[0] < 1 and len(spec) >= 2
        assert all(spec[i] > spec[i + 1] for i in range(len(spec) - 1))
        logsteps = [
            math.log(spec[i + 1]) - math.log(spec[i]) for i in range(len(spec) - 1)
        ]
        assert all(step < 0 for step in logsteps)
        if len(logsteps) >= 2:
            assert max(logsteps) - min(logsteps) < 1.0  # near-linear log decay


def test_sector_probabilities_sum_to_one():
    from wkron.protocol import all_partition_tuples

    for n in range(1, 5):
        total = sum(
            sector_probability(lams, Fraction(1, 3))
            for lams in all_partition_tuples(3, n)
        )
        assert total == 1, n


def test_gram_matches_dense_oracle():
    from wkron.protocol import GHZState, all_partition_tuples, multilocal_schur, tensor_power

    cases = [
        (alpha, parties, n)
        for alpha in (Fraction(1, 3), Fraction(2, 7))
        for parties in (3, 4)
        for n in range(2, 6 if parties == 3 else 5)
    ]
    for alpha, parties, n in cases:
        sectors = multilocal_schur(tensor_power(GHZState(alpha, parties), n))
        for lams in all_partition_tuples(parties, n):
            g = gram(lams, alpha, n)
            block = sectors.get(lams)
            # gram is nonempty exactly for the sectors the dense oracle lists
            assert bool(g.weights) == (block is not None), (alpha, lams)
            if block is None:
                continue
            norm = block.norm_sq()
            weights, qlabels = sector_grid(lams)
            rows = {
                om: [sector_cell(block, om, qt) for qt in qlabels]
                for om in weights
                if all(x == om[0] for x in om)
            }
            for i, om in enumerate(g.weights):
                for j, omp in enumerate(g.weights):
                    acc = RadicalSum.zero()
                    r1 = rows[(om,) * parties]
                    r2 = rows[(omp,) * parties]
                    for a, b in zip(r1, r2):
                        acc = acc + a * b
                    expect = acc.scale(Fraction(1) / norm)
                    assert RadicalSum.from_sqrt(g.exact[i][j]) == expect, (alpha, lams, om, omp)


def test_hahn_eberlein_equals_term_by_term_3f2():
    checked = 0
    for n in range(1, 16):
        for lam in list_partitions(n):
            for olt in range(lam.lambda2, lam.lambda1 + 1):
                for ogt in range(olt, lam.lambda1 + 1):
                    # the joint-weight range, and past it for small n
                    xs = range(min(olt, n - ogt) + 1) if n > 9 else range(n + 3)
                    for x in xs:
                        assert hahn_eberlein(lam, olt, ogt, x) == hahn_eberlein_3f2(
                            lam, olt, ogt, x
                        ), (lam, olt, ogt, x)
                        checked += x <= min(olt, n - ogt)
    assert checked == 7871


def test_hahn_eberlein_outside_terminating_range_raises():
    with pytest.raises(ValueError):
        hahn_eberlein(TwoRowPartition(3, 2), 1, 3, 0)  # omega_lt < lambda2
    with pytest.raises(ValueError):
        hahn_eberlein(TwoRowPartition(4, 1), 3, 2, 0)  # omega_lt > omega_gt


@st.composite
def _ghz_overlap_case(draw):
    parties = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(1, 14))
    lams = ptuple(*((n - l2, l2) for l2 in draw(
        st.lists(st.integers(0, n // 2), min_size=parties, max_size=parties)
    )))
    lo = max(lam.lambda2 for lam in lams)
    hi = min(lam.lambda1 for lam in lams)
    # mostly inside the common weight range, sometimes anywhere in 0..n
    wr = st.integers(lo, hi) if lo <= hi and draw(st.integers(0, 4)) else st.integers(0, n)
    return lams, draw(wr), draw(wr)


@settings(deadline=None)
@given(_ghz_overlap_case())
def test_overlap_equals_per_theta_oracle(case):
    lams, om, omp = case
    value = overlap(lams, om, omp)
    assert value == overlap_per_theta(lams, om, omp)
    assert value == overlap(lams, omp, om)
