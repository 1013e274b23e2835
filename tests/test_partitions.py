import math

import pytest

from oracles import all_cycle_types, class_size
from wkron.partitions import (
    KRON_CLASS_BUDGET,
    TwoRowPartition,
    character,
    dim_irrep,
    kron_coeff,
    list_partitions,
    parse_partition_tuple,
    partition_counts,
    ptuple,
    reduced_entropy,
    w_admissible,
)


def test_list_partitions():
    assert [p.as_tuple() for p in list_partitions(3)] == [(3, 0), (2, 1)]
    assert [p.as_tuple() for p in list_partitions(1)] == [(1, 0)]
    assert [p.as_tuple() for p in list_partitions(7)] == [(7, 0), (6, 1), (5, 2), (4, 3)]


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
    from wkron.exact import RadicalSum
    from wkron.schur import perm_from_cycle_type, rep_matrix

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


def test_partition_counts_match_cycle_type_enumeration():
    counts = partition_counts(10**9)
    assert [len(all_cycle_types(n)) for n in range(1, 26)] == list(counts[1:26])
    assert counts[100] == 190569292
    # the run stops before the first count over the limit
    assert max(counts) <= 10**9 < partition_counts(10**12)[len(counts)]


def test_kron_coeff_refuses_cycle_types_over_budget():
    counts = partition_counts(KRON_CLASS_BUDGET)
    assert len(counts) - 1 == 48 and counts[-1] == 147273  # p(49) = 173525 is over
    for n in (49, 600, 10**9):
        with pytest.raises(ValueError, match=rf"p\({n}\) exceeds the budget"):
            kron_coeff(ptuple((n, 0), (n, 0), (n, 0)))


def test_kron_coeff_symmetric_under_permutation():
    t1 = ptuple((3, 1), (2, 2), (4, 0))
    t2 = ptuple((2, 2), (4, 0), (3, 1))
    assert kron_coeff(t1) == kron_coeff(t2)


def test_kron_coeff_two_parties_is_delta():
    for n in range(1, 9):
        for lam in list_partitions(n):
            for mu in list_partitions(n):
                expect = 1 if lam == mu else 0
                assert kron_coeff(ptuple(lam.as_tuple(), mu.as_tuple())) == expect


def test_kron_coeff_equals_invariant_nullity():
    # independent oracle: joint fixed space of the two standard generators;
    # its dimension is the nullity of sum_g (S(g)-1)^T (S(g)-1)
    from itertools import product

    import numpy as np

    from wkron.schur import rep_matrix

    for num_parties in (3, 4):
        for n in range(2, 6):
            lams_iter = [
                ptuple(*[x.as_tuple() for x in combo])
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
