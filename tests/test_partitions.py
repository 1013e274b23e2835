import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_cycle_types, character, class_size, kron_coeff_young
from wkron.partitions import (
    PartitionTuple,
    TwoRowPartition,
    _admissible,
    admissible_rows,
    dim_irrep,
    kron_coeff,
    list_partitions,
    parse_partition_tuple,
    ptuple,
    reduced_entropy,
    w_admissible,
    w_admissible_tuples,
)
from wkron.protocol import all_partition_tuples


def test_list_partitions():
    assert list_partitions(3) == [(3, 0), (2, 1)]
    assert list_partitions(1) == [(1, 0)]
    assert list_partitions(7) == [(7, 0), (6, 1), (5, 2), (4, 3)]


def test_dim_irrep_examples():
    assert dim_irrep(TwoRowPartition(5, 2)) == 14
    for n in range(1, 10):
        assert dim_irrep(TwoRowPartition(n, 0)) == 1
    assert dim_irrep(TwoRowPartition(2, 1)) == 2


def test_dim_matches_path_count():
    from wkron.schur import standard_paths

    for n in range(1, 13):
        for lam in list_partitions(n):
            assert dim_irrep(lam) == len(standard_paths(lam))


def test_character_examples():
    assert character(TwoRowPartition(1, 1), (2,)) == -1
    assert character(TwoRowPartition(2, 1), (1, 1, 1)) == 2
    assert character(TwoRowPartition(2, 1), (3,)) == -1


def test_character_identity_class_is_dimension():
    for n in range(1, 9):
        for lam in list_partitions(n):
            assert character(lam, (1,) * n) == dim_irrep(lam)


def test_character_vs_rep_trace():
    # brute-force trace of the representation matrices, n <= 5
    from oracles import perm_from_cycle_type, rep_matrix
    from oracles import RadicalSum

    for n in range(2, 6):
        for lam in list_partitions(n):
            for c in all_cycle_types(n):
                s = rep_matrix(lam, perm_from_cycle_type(c))
                tr = RadicalSum.zero()
                for i in range(len(s)):
                    tr = tr + s[i][i]
                assert tr.as_rational() == character(lam, c), (lam, c)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(class_size(c) for c in all_cycle_types(n)) == math.factorial(n)


def test_character_row_orthogonality():
    # sum_c |C_c| chi^lam(c) chi^mu(c) = n! * delta(lam, mu)
    for n in range(1, 21):
        classes = all_cycle_types(n)
        sizes = [class_size(c) for c in classes]
        chars = {lam: [character(lam, c) for c in classes] for lam in list_partitions(n)}
        for lam, chi in chars.items():
            for mu, psi in chars.items():
                inner = sum(s * a * b for s, a, b in zip(sizes, chi, psi))
                assert inner == (math.factorial(n) if lam == mu else 0), (lam, mu)


def test_kron_coeff_examples():
    # explicit character sum: (2^3*1 + 3*0 + 2*(-1)^3)/6 = 1
    assert kron_coeff(ptuple((2, 1), (2, 1), (2, 1))) == 1
    assert kron_coeff(ptuple((5, 2), (5, 2), (5, 2))) == 2
    assert kron_coeff(ptuple((2, 0), (2, 0), (1, 1))) == 0


@pytest.mark.parametrize(
    "lams, coeff",
    [
        ("20,10;20,10;20,10", 6),
        ("16,8;16,8;16,8", 5),
        ("18,12;20,10;22,8", 4),
        ("15,15;20,10;25,5", 1),
        ("12,12;14,10;16,8;18,6", 281),
    ],
)
def test_kron_coeff_pinned_values(lams, coeff):
    # computed independently by a Murnaghan-Nakayama character sum
    assert kron_coeff(parse_partition_tuple(lams)) == coeff


@pytest.mark.parametrize("num_parties, nmax", [(2, 12), (3, 10), (4, 7), (5, 5)])
def test_kron_coeff_matches_young_rule_character_sum(num_parties, nmax):
    from itertools import product

    for n in range(1, nmax + 1):
        for combo in product(list_partitions(n), repeat=num_parties):
            lams = ptuple(*combo)
            assert kron_coeff(lams) == kron_coeff_young(lams), lams


@pytest.mark.parametrize("n, coeff", [(90, 16), (120, 21), (150, 26), (210, 36)])
def test_kron_coeff_ghz_typical_sectors(n, coeff):
    # the exact GHZ Gram ranks of the typical sector (2n/3, n/3)^3, far past
    # the character sum's reach
    assert kron_coeff(ptuple(*[(n - n // 3, n // 3)] * 3)) == coeff


def test_kron_coeff_refuses_work_over_budget():
    # (2^5 - 1) * 11^5 * 21 = 104844201 cell updates, about 8 s of work
    with pytest.raises(ValueError, match="104844201 cell updates, over the budget"):
        kron_coeff(ptuple(*[(20, 10)] * 5))
    for n in (10**6, 10**9):
        with pytest.raises(ValueError, match="over the budget"):
            kron_coeff(ptuple((n, n), (n, n), (2 * n, 0)))


def test_kron_coeff_symmetric_under_permutation():
    t1 = ptuple((3, 1), (2, 2), (4, 0))
    t2 = ptuple((2, 2), (4, 0), (3, 1))
    assert kron_coeff(t1) == kron_coeff(t2)


def test_kron_coeff_two_parties_is_delta():
    for n in range(1, 9):
        for lam in list_partitions(n):
            for mu in list_partitions(n):
                expect = 1 if lam == mu else 0
                assert kron_coeff(ptuple(lam, mu)) == expect


def test_kron_coeff_equals_invariant_nullity():
    # independent oracle: joint fixed space of the two standard generators;
    # its dimension is the nullity of sum_g (S(g)-1)^T (S(g)-1)
    from itertools import product

    import numpy as np

    from oracles import rep_matrix

    for num_parties in (3, 4):
        for n in range(2, 6):
            lams_iter = [
                ptuple(*combo)
                for combo in product(list_partitions(n), repeat=num_parties)
            ]
            swap = tuple([1, 0] + list(range(2, n)))
            cyc = tuple(list(range(1, n)) + [0])
            for lams in lams_iter:
                gram = None
                for perm in (swap, cyc):
                    big = np.ones((1, 1))
                    for lam in lams:
                        rep = [[float(x) for x in row] for row in rep_matrix(lam, perm)]
                        big = np.kron(big, rep)
                    a = big - np.eye(big.shape[0])
                    gram = a.T @ a if gram is None else gram + a.T @ a
                nullity = int(np.sum(np.linalg.eigvalsh(gram) < 1e-8))
                assert nullity == kron_coeff(lams), lams


def test_w_admissible_examples():
    assert not w_admissible(ptuple((2, 0), (2, 0), (1, 1)))
    assert w_admissible(ptuple((2, 0), (1, 1), (1, 1)))
    for n in (1, 3, 6):
        assert w_admissible(ptuple(*([(n, 0)] * 4)))


@pytest.mark.parametrize("num_parties", [2, 3, 4, 5])
def test_w_admissible_tuples_are_the_admissible_filter(num_parties):
    for n in range(1, 9):
        expect = [t for t in all_partition_tuples(num_parties, n) if w_admissible(t)]
        assert list(w_admissible_tuples(num_parties, n)) == expect, n
    with pytest.raises(ValueError):
        list(w_admissible_tuples(num_parties, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted), min_size=1, max_size=6),
       st.integers(0, 16))
def test_admissible_rows_equals_the_filter(bounds, n):
    # the prefix bound drops only tuples the filter drops, in the same order
    box = [range(lo, hi + 1) for lo, hi in bounds]
    assert admissible_rows(box, n) == [b for b in product(*box) if _admissible(b, n)]


def test_sectors_compare_as_plain_tuples():
    lam = TwoRowPartition(5, 2)
    assert lam == (5, 2) and hash(lam) == hash((5, 2))
    assert (lam.lambda1, lam.lambda2, lam.size, lam.nu, repr(lam)) == (5, 2, 7, 3, "(5,2)")
    t = ptuple((5, 2), (6, 1), (4, 3))
    assert t == ((5, 2), (6, 1), (4, 3)) and {((5, 2), (6, 1), (4, 3)): 1}[t] == 1
    assert (t.n, t.num_parties, repr(t), str(t)) == (7, 3, "(5,2;6,1;4,3)", "(5,2;6,1;4,3)")
    assert t[:-1] == ((5, 2), (6, 1)) and type(t[-1]) is TwoRowPartition
    with pytest.raises(ValueError, match=r"invalid two-row partition \(2,3\)"):
        TwoRowPartition(2, 3)
    with pytest.raises(ValueError, match="empty partition tuple"):
        PartitionTuple(())
    with pytest.raises(ValueError, match="parts must share one size"):
        PartitionTuple((TwoRowPartition(2, 1), TwoRowPartition(2, 0)))


def test_reduced_entropy():
    assert reduced_entropy(TwoRowPartition(9, 0)) == 0
    assert reduced_entropy(TwoRowPartition(1, 1)) == 1
    assert abs(reduced_entropy(TwoRowPartition(2, 1)) - 0.9182958340544896) < 1e-15


def test_dimension_entropy_bound_trend():
    # |log2(dim)/n - H| shrinks along the near-typical family
    prev = None
    for n in range(6, 49, 3):
        lam = TwoRowPartition(n - n // 3, n // 3)
        gap = abs(math.log2(dim_irrep(lam)) / n - reduced_entropy(lam))
        if prev is not None:
            assert gap < prev
        prev = gap


def test_parse_partition_tuple():
    t = parse_partition_tuple("5,2;5,2;5,2")
    assert t == ptuple((5, 2), (5, 2), (5, 2))
    with pytest.raises(ValueError):
        parse_partition_tuple("5;2")
    with pytest.raises(ValueError):
        parse_partition_tuple("2,1;3,1")  # mixed sizes


def test_invalid_partition_rejected():
    with pytest.raises(ValueError):
        TwoRowPartition(1, 2)
    with pytest.raises(ValueError):
        character(TwoRowPartition(2, 1), (2, 2))
