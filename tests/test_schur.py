import math
import random
from fractions import Fraction

import pytest

from oracles import (
    RadicalSum,
    SchurBlock,
    SchurLabel,
    apply_perm,
    b_coeff,
    compose,
    gamma,
    path_is_valid,
    path_terminal,
    perm_cycle_type,
    perm_from_cycle_type,
    rep_matrix,
    row_vector,
)
from wkron.exact import SqrtRational
from wkron.partitions import TwoRowPartition, list_partitions
from wkron.schur import standard_paths


def sq(x):
    return SqrtRational.sqrt(Fraction(x))


def test_gamma_rows():
    g = gamma(TwoRowPartition(2, 1), 1)
    assert g[1] == [sq("1/3"), -sq("2/3")]
    g = gamma(TwoRowPartition(1, 1), 1)
    assert g[1] == [sq("1/2"), -sq("1/2")]
    g = gamma(TwoRowPartition(2, 2), 2)
    assert g[0] == [SqrtRational.zero(), SqrtRational.zero()]
    with pytest.raises(ValueError):
        gamma(TwoRowPartition(3, 1), 0)


def test_standard_paths_examples():
    assert standard_paths(TwoRowPartition(2, 1)) == [(0, 0, 1), (0, 1, 0)]
    assert standard_paths(TwoRowPartition(4, 0)) == [(0, 0, 0, 0)]
    assert standard_paths(TwoRowPartition(2, 2)) == [(0, 0, 1, 1), (0, 1, 0, 1)]


def test_paths_sorted_and_valid():
    for n in range(1, 9):
        for lam in list_partitions(n):
            paths = standard_paths(lam)
            assert paths == sorted(paths)
            for q in paths:
                assert path_is_valid(q)
                assert path_terminal(q) == lam


def test_b_coeff_base_case():
    for s1 in (0, 1):
        lbl = SchurLabel(TwoRowPartition(1, 0), s1, (0,))
        assert b_coeff(lbl, (s1,)) == SqrtRational.one()
        assert b_coeff(lbl, (1 - s1,)) == SqrtRational.zero()


def test_b_coeff_singlet():
    lbl = SchurLabel(TwoRowPartition(1, 1), 1, (0, 1))
    assert b_coeff(lbl, (1, 0)) == sq("1/2")
    assert b_coeff(lbl, (0, 1)) == -sq("1/2")


def test_b_coeff_one_recursion_step():
    lbl = SchurLabel(TwoRowPartition(2, 1), 1, (0, 1, 0))
    assert b_coeff(lbl, (1, 0, 0)) == sq("1/2")
    assert b_coeff(lbl, (0, 1, 0)) == -sq("1/2")
    assert b_coeff(lbl, (0, 0, 1)) == SqrtRational.zero()


def test_b_coeff_weight_selection_rule():
    # zero unless the Hamming weight of s equals omega, exhaustively n <= 8
    for n in range(1, 9):
        for lam in list_partitions(n):
            block = SchurBlock(lam, n)
            for label, col in block.items():
                for s in col:
                    assert sum(s) == label.omega


def test_schur_block_triplet_rows():
    block = SchurBlock(TwoRowPartition(2, 0), 2)
    vec = {lbl.omega: col for lbl, col in block.items()}
    assert vec[0] == {(0, 0): SqrtRational.one()}
    assert vec[1] == {(1, 0): sq("1/2"), (0, 1): sq("1/2")}
    assert vec[2] == {(1, 1): SqrtRational.one()}


def test_schur_block_identity_n1():
    block = SchurBlock(TwoRowPartition(1, 0), 1)
    assert [(lbl.omega, lbl.q, col) for lbl, col in block.items()] == [
        (0, (0,), {(0,): SqrtRational.one()}),
        (1, (0,), {(1,): SqrtRational.one()}),
    ]


def test_schur_block_refuses_sizes_over_the_cap():
    # n = 13 has about 6M nonzero B coefficients; refused before any is built
    with pytest.raises(ValueError, match="n=13 exceeds the n<=12 size cap"):
        SchurBlock(TwoRowPartition(7, 6), 13)


def _dot(col1, col2):
    acc = RadicalSum.zero()
    small, big = (col1, col2) if len(col1) <= len(col2) else (col2, col1)
    for s, v in small.items():
        w = big.get(s)
        if w is not None:
            acc = acc + RadicalSum.from_sqrt(v * w)
    return acc


def test_rows_orthonormal_within_sector():
    block = SchurBlock(TwoRowPartition(2, 1), 3)
    rows = list(block.items())
    assert len(rows) == 4  # 2 weights x 2 paths
    for i, (_, ci) in enumerate(rows):
        for j, (_, cj) in enumerate(rows):
            assert _dot(ci, cj).as_rational() == (1 if i == j else 0)


def test_completeness_exact():
    # rows across all sectors form an orthonormal basis of the 2^n space
    for n in range(1, 9):
        by_weight = {}
        for lam in list_partitions(n):
            for label, col in SchurBlock(lam, n).items():
                by_weight.setdefault(label.omega, []).append(col)
        total_rows = 0
        for om, cols in by_weight.items():
            assert len(cols) == math.comb(n, om)
            total_rows += len(cols)
            for i in range(len(cols)):
                for j in range(i, len(cols)):
                    expect = 1 if i == j else 0
                    assert _dot(cols[i], cols[j]).as_rational() == expect
        assert total_rows == 2**n


def test_rep_matrix_identity_and_sign():
    ident = rep_matrix(TwoRowPartition(2, 1), (0, 1, 2))
    assert [[x.as_rational() for x in row] for row in ident] == [[1, 0], [0, 1]]
    sgn = rep_matrix(TwoRowPartition(1, 1), (1, 0))
    assert [[x.as_rational() for x in row] for row in sgn] == [[-1]]


def test_rep_matrix_three_cycle_trace():
    s = rep_matrix(TwoRowPartition(2, 1), perm_from_cycle_type((3,)))
    tr = s[0][0] + s[1][1]
    assert tr.as_rational() == -1


def test_rep_matrix_defining_relation():
    # B[perm.s] = sum_q' S[q][q'] B[s] for all omega, s
    rng = random.Random(11)
    for n in (3, 4, 5):
        for lam in list_partitions(n):
            perm = tuple(rng.sample(range(n), n))
            s_mat = rep_matrix(lam, perm)
            paths = standard_paths(lam)
            block = SchurBlock(lam, n)
            for om in range(lam.lambda2, lam.lambda1 + 1):
                cols = [row_vector(block, SchurLabel(lam, om, q)) for q in paths]
                for s in cols[0].keys() | {k for c in cols for k in c}:
                    for i, q in enumerate(paths):
                        lhs = RadicalSum.from_sqrt(
                            cols[i].get(apply_perm(perm, s), SqrtRational.zero())
                        )
                        rhs = RadicalSum.zero()
                        for j in range(len(paths)):
                            rhs = rhs + s_mat[i][j] * RadicalSum.from_sqrt(
                                cols[j].get(s, SqrtRational.zero())
                            )
                        assert lhs == rhs


def test_rep_matrix_homomorphism_random_pairs():
    rng = random.Random(5150)
    for n in (3, 4, 5, 6):
        lam = list_partitions(n)[1]
        for _ in range(3):
            p1 = tuple(rng.sample(range(n), n))
            p2 = tuple(rng.sample(range(n), n))
            s1, s2 = rep_matrix(lam, p1), rep_matrix(lam, p2)
            s12 = rep_matrix(lam, compose(p1, p2))
            d = len(s1)
            for i in range(d):
                for j in range(d):
                    acc = RadicalSum.zero()
                    for k in range(d):
                        acc = acc + s1[i][k] * s2[k][j]
                    assert acc == s12[i][j]


def test_rep_matrix_orthogonal_exact():
    rng = random.Random(99)
    for n in (3, 4, 5):
        for lam in list_partitions(n):
            perm = tuple(rng.sample(range(n), n))
            s = rep_matrix(lam, perm)
            d = len(s)
            for i in range(d):
                for j in range(d):
                    acc = RadicalSum.zero()
                    for k in range(d):
                        acc = acc + s[k][i] * s[k][j]
                    assert acc.as_rational() == (1 if i == j else 0)


def test_perm_helpers():
    p = perm_from_cycle_type((3, 2))
    assert perm_cycle_type(p) == (3, 2)
    assert apply_perm((1, 0, 2), (1, 0, 0)) == (0, 1, 0)
    q = compose(p, p)
    assert perm_cycle_type(q) == (3, 1, 1)
