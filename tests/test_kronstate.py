import json
import math
from fractions import Fraction

import pytest

from oracles import (
    RadicalSum,
    eta_sq_walk,
    norm_sq_per_coeff,
    reduced_density_reference,
    rep_matrix,
    squared_magnitudes,
    table_json_per_entry,
)
from wkron import cli, kronstate, protocol
from wkron.exact import InconsistencyError, SqrtRational
from wkron.kronstate import (
    KroneckerVector,
    eta,
    eta_sq,
    eta_sq_table,
    from_table_json,
    khat,
    khat_all,
    normalized,
    reduced_density,
    to_table_json,
    verify_lemma1,
)
from wkron.partitions import kron_coeff, ptuple, w_admissible
from wkron.probw import p_w, p_w_counting
from wkron.protocol import all_partition_tuples
from wkron.schur import standard_paths
from wkron.wstates import w_normal_form, z_norm


def sq(x):
    return SqrtRational.sqrt(Fraction(x))


def test_predecessors_give_the_papers_factors():
    # (2,1)^3 at n=3: f = -2/sqrt(3) for the all-second-row step; the
    # all-first-row step is absent because its factor is 0
    assert list(kronstate._predecessors((1, 1, 1), 3)) == [
        ((1, 1, 0), -2, 3), ((1, 0, 1), -2, 3), ((0, 1, 1), -2, 3), ((0, 0, 0), -6, 27)]
    # (2,0)^3 at n=2: f = sqrt(1/2), and no party has a second-row box
    assert list(kronstate._predecessors((0, 0, 0), 2)) == [((0, 0, 0), 2, 8)]


def test_khat_examples():
    kv = khat(3, 2, ptuple((2, 0), (2, 0), (2, 0)))
    assert kv.coeffs == {((0, 0),) * 3: sq("1/2")}

    kv = khat(3, 2, ptuple((2, 0), (1, 1), (1, 1)))
    assert kv.coeffs == {((0, 0), (0, 1), (0, 1)): -sq("1/2")}

    kv = khat(3, 3, ptuple((2, 1), (2, 1), (2, 1)))
    a, b = (0, 0, 1), (0, 1, 0)
    assert kv.coeffs == {
        (a, a, a): -sq("2/3"),
        (b, b, a): sq("2/3"),
        (b, a, b): sq("2/3"),
        (a, b, b): sq("2/3"),
    }


def test_khat_zeroes_inadmissible():
    assert khat(3, 2, ptuple((1, 1), (1, 1), (1, 1))).is_zero
    assert khat(3, 2, ptuple((2, 0), (2, 0), (1, 1))).is_zero


def test_eta_examples():
    assert eta(khat(3, 3, ptuple((2, 1), (2, 1), (2, 1)))) == sq("8/3")
    assert eta(khat(3, 2, ptuple((2, 0), (2, 0), (2, 0)))) == sq("1/2")
    assert eta(KroneckerVector(ptuple((1, 0), (1, 0)), {})) == SqrtRational.zero()


def test_normalized():
    nk = normalized(khat(3, 3, ptuple((2, 1), (2, 1), (2, 1))))
    assert squared_magnitudes(nk) == [Fraction(1, 4)] * 4
    nk = normalized(khat(3, 2, ptuple((2, 0), (2, 0), (2, 0))))
    assert list(nk.coeffs.values()) == [SqrtRational.one()]
    nk = normalized(khat(3, 2, ptuple((2, 0), (1, 1), (1, 1))))
    assert list(nk.coeffs.values()) == [-SqrtRational.one()]
    with pytest.raises(ValueError):
        normalized(KroneckerVector(ptuple((1, 1), (1, 1)), {}))


def test_lemma1_exact_small():
    nk = normalized(khat(3, 3, ptuple((2, 1), (2, 1), (2, 1))))
    for party in range(3):
        assert verify_lemma1(nk, party) == 0.0
    rho = reduced_density(nk, 0)
    assert rho == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    nk2 = normalized(khat(3, 2, ptuple((2, 0), (2, 0), (2, 0))))
    assert verify_lemma1(nk2, 0) == 0.0


def test_lemma1_exact_four_parties():
    for n in (2, 3, 4):
        for lams, kv in khat_all(4, n).items():
            nk = normalized(kv)
            for party in range(4):
                assert verify_lemma1(nk, party) == 0.0, (lams, party)


def test_lemma1_float_path_large_sector():
    lams = ptuple((5, 2), (5, 2), (5, 2))
    nk = normalized(khat(3, 7, lams))
    assert len(nk.coeffs) > 0
    for party in range(3):
        assert verify_lemma1(nk, party) == 0.0


@pytest.mark.parametrize("num_parties, nmax", [(3, 7), (4, 5), (5, 4)])
def test_reduced_density_equals_the_per_pair_reference(num_parties, nmax):
    for n in range(1, nmax + 1):
        for lams, kv in khat_all(num_parties, n).items():
            nk = normalized(kv)
            for party in range(num_parties):
                assert reduced_density(nk, party) == reduced_density_reference(nk, party), (
                    lams, party)


def test_lemma1_exact_on_the_17862_entry_table():
    lams = ptuple((6, 3), (6, 3), (6, 3))
    nk = normalized(khat(3, 9, lams))
    assert len(nk.coeffs) == 17862
    eye = [[Fraction(1, 48) if i == j else Fraction(0) for j in range(48)] for i in range(48)]
    for party in range(3):
        assert reduced_density(nk, party) == eye, party


def test_reduced_density_refuses_an_irrational_entry():
    # two paths of party 0 over the same paths of parties 1 and 2, in the
    # radical classes 2 and 3: rho_0[0][1] = sqrt(1/6) leaves Q
    lams = ptuple((2, 1), (3, 0), (3, 0))
    (a, b), r = standard_paths(lams[0]), (0, 0, 0)
    kv = KroneckerVector(lams, {(a, r, r): sq("1/2"), (b, r, r): sq("1/3")})
    for route in (reduced_density, reduced_density_reference):
        with pytest.raises(ValueError, match="not rational"):
            route(kv, 0)
    # the other parties see one path each, and one rational entry
    assert reduced_density(kv, 1) == [[Fraction(5, 6)]]


def test_probability_identity_eta_sq_times_z():
    # sum over admissible sectors of eta^2 * Z = 1, N=3, n <= 5
    w = w_normal_form(3)
    for n in range(1, 6):
        total = Fraction(0)
        sectors = khat_all(3, n)
        for lams, kv in sectors.items():
            total += eta(kv).square() * z_norm(w, lams)
        assert total == 1, n


def test_sn_invariance():
    # simultaneous rep action on all parties fixes the normalized vector
    import itertools

    for n in (2, 3, 4):
        for lams, kv in khat_all(3, n).items():
            nk = normalized(kv)
            paths = [standard_paths(lam) for lam in lams]
            index = [{q: i for i, q in enumerate(ps)} for ps in paths]
            for perm in itertools.permutations(range(n)):
                mats = [rep_matrix(lam, perm) for lam in lams]
                for qt_out in nk.coeffs:
                    acc = RadicalSum.zero()
                    for qt_in, v in nk.coeffs.items():
                        factor = RadicalSum.from_sqrt(v)
                        for i in range(3):
                            factor = factor * mats[i][index[i][qt_out[i]]][index[i][qt_in[i]]]
                        acc = acc + factor
                    assert acc == RadicalSum.from_sqrt(nk.coeffs[qt_out]), (lams, perm)


def test_table_json_round_trip():
    kv = normalized(khat(3, 3, ptuple((2, 1), (2, 1), (2, 1))))
    table = to_table_json(kv)
    text = json.dumps(table)
    back = from_table_json(json.loads(text))
    assert back.coeffs == kv.coeffs
    assert table["labels"]["1"] == ["001", "010"]
    assert all(e["q"][0] in (1, 2) for e in table["entries"])


def _contained(t, lams):
    return all(a.lambda1 <= b.lambda1 and a.lambda2 <= b.lambda2 for a, b in zip(t, lams))


def test_khat_memoizes_only_the_down_set():
    memo = kronstate._memo_coeffs
    lams = ptuple((5, 3), (6, 2), (6, 2))
    memo.cache_clear()
    assert not khat(3, 8, lams).is_zero
    held = memo.cache_info().currsize
    lower = [t for m in range(1, 8) for t in all_partition_tuples(3, m) if w_admissible(t)]
    # a probe is a hit exactly when its tuple was memoized by the call above
    found = 0
    for t in (t for t in lower if _contained(t, lams)):
        misses = memo.cache_info().misses
        memo(t)
        found += memo.cache_info().misses == misses
    assert 0 < held == found < len(lower)


def test_khat_deep_thin_sector_is_iterative():
    # 999 memoized levels, each reached from the one below: each
    # all-first-row step has f^2 = 1/m
    kronstate._memo_coeffs.cache_clear()
    kv = khat(3, 1000, ptuple((1000, 0), (1000, 0), (1000, 0)))
    assert [v.square() for v in kv.coeffs.values()] == [Fraction(1, math.factorial(1000))]
    assert kronstate._memo_coeffs.cache_info().currsize == 999
    kronstate._memo_coeffs.cache_clear()


def test_khat_single_sector_n12():
    # khat_all(3, 12) runs out of memory; one sector needs only its down-set
    lams = ptuple((10, 2), (10, 2), (10, 2))
    kronstate._memo_coeffs.cache_clear()
    kv = khat(3, 12, lams)
    assert eta(kv).square() * z_norm(w_normal_form(3), lams) == p_w(lams)


def test_khat_result_is_the_callers():
    small, big = ptuple((2, 0), (1, 1), (1, 1)), ptuple((2, 1), (2, 1), (2, 1))
    want_small, want_big = dict(khat(3, 2, small).coeffs), dict(khat(3, 3, big).coeffs)
    khat(3, 2, small).coeffs.clear()
    khat(3, 3, big).coeffs[((0, 0, 1),) * 3] = SqrtRational.one()
    assert khat(3, 2, small).coeffs == want_small
    assert khat(3, 3, big).coeffs == want_big


def test_khat_shares_paths_and_values():
    # one object per distinct value, and per predecessor one object per
    # extended path, keep a sector's memory close to its key tuples
    lams = ptuple((5, 3), (6, 2), (6, 2))
    kronstate._memo_coeffs.cache_clear()
    kv = khat(3, 8, lams)
    for coeffs in (kv.coeffs, normalized(kv).coeffs):
        assert len({id(v) for v in coeffs.values()}) == len(set(coeffs.values()))
    for i, lam in enumerate(lams):
        assert len({id(qt[i]) for qt in kv.coeffs}) <= len(standard_paths(lam))
    assert len(set(kv.coeffs.values())) * 4 < len(kv.coeffs)


def test_kronstate_caches_are_bounded():
    # each cache holds the whole walk of N=3 n=8 within its bound
    kronstate._memo_coeffs.cache_clear()
    kronstate._extensions.cache_clear()
    kronstate._path_index.cache_clear()
    for kv in khat_all(3, 8).values():
        to_table_json(kv)
    for cache in (kronstate._extensions, kronstate._path_index):
        info = cache.cache_info()
        assert 0 < info.currsize <= info.maxsize
        assert info.misses == info.currsize


def test_table_json_equals_per_entry_reference():
    def check(kv):
        assert to_table_json(kv) == table_json_per_entry(kv), kv.lams
        assert kv.norm_sq() == norm_sq_per_coeff(kv), kv.lams

    check(KroneckerVector(ptuple((2, 1), (2, 1), (2, 1)), {}))
    for num_parties, n in ((3, 7), (4, 6), (3, 8)):
        for kv in khat_all(num_parties, n).values():
            nk = normalized(kv)
            # rebuilt from text, the vector shares no value or path object
            back = from_table_json(json.loads(json.dumps(to_table_json(nk))))
            assert len({id(v) for v in back.coeffs.values()}) == len(back.coeffs)
            for vec in (kv, nk, back):
                check(vec)


def test_eta_sq_equals_khat_norm():
    for num_parties, nmax in ((2, 9), (3, 7), (4, 5)):
        for n in range(1, nmax + 1):
            sectors = list(all_partition_tuples(num_parties, n))
            table = eta_sq_table(sectors)
            for lams in sectors:
                assert table[lams] == khat(num_parties, n, lams).norm_sq(), lams
                assert eta_sq(lams) == table[lams], lams


def test_eta_sq_positive_iff_admissible_with_kronecker_support():
    count = positive = 0
    for num_parties, nmax in ((2, 10), (3, 8), (4, 6)):
        for n in range(1, nmax + 1):
            sectors = list(all_partition_tuples(num_parties, n))
            table = eta_sq_table(sectors)
            for lams in sectors:
                count += 1
                positive += table[lams] > 0
                assert (table[lams] > 0) == (w_admissible(lams) and kron_coeff(lams) >= 1), lams
    assert (count, positive) == (920, 354)


def test_eta_sq_deep_thin_sector_is_iterative():
    # one chain of 1000 levels: each all-first-row step has f^2 = 1/m
    lams = ptuple((1000, 0), (1000, 0), (1000, 0))
    assert eta_sq(lams) == Fraction(1, math.factorial(1000))


def test_eta_sq_table_validates_input():
    assert eta_sq_table([]) == {}
    with pytest.raises(ValueError):
        eta_sq_table([ptuple((2, 0), (2, 0), (2, 0)), ptuple((3, 0), (3, 0), (3, 0))])


def test_eta_sq_table_equals_fraction_walk():
    # the table raises on any division with a remainder, so returning at all
    # also pins E = eta^2 * prod H / n! integral at every level below
    for num_parties, nmax in ((2, 16), (3, 24), (4, 12), (5, 8)):
        for n in range(1, nmax + 1):
            sectors = list(all_partition_tuples(num_parties, n))
            assert eta_sq_table(sectors) == eta_sq_walk(sectors), (num_parties, n)


def test_eta_sq_table_of_a_subset_equals_fraction_walk():
    # scattered targets clip the box and the lower bound of the sweep
    lams = [ptuple((8, 4), (9, 3), (10, 2)), ptuple((11, 1), (7, 5), (9, 3)),
            ptuple((12, 0), (6, 6), (6, 6)), ptuple((6, 6), (6, 6), (6, 6))]
    table = eta_sq_table(lams)
    assert table == eta_sq_walk(lams)
    assert table[lams[3]] == 0 and table[lams[2]] > 0
    for one in lams:
        assert eta_sq(one) == table[one]


def _corrupt_first_row_step(monkeypatch):
    steps = kronstate._party_steps

    def corrupted(m, hi, stride):
        out = steps(m, hi, stride)
        # r of a first-row box at bi = 1 off by one
        if hi >= 1 and out[1][0][0] == 0:
            out[1] = ((0, out[1][0][1] + 1, out[1][0][2]),) + out[1][1:]
        return out

    monkeypatch.setattr(kronstate, "_party_steps", corrupted)


def test_eta_sq_table_raises_on_a_remainder(monkeypatch):
    _corrupt_first_row_step(monkeypatch)
    with pytest.raises(InconsistencyError, match="not divisible"):
        eta_sq_table(list(all_partition_tuples(3, 6)))


def test_cli_exits_1_on_a_remainder(monkeypatch, capsys):
    _corrupt_first_row_step(monkeypatch)
    assert cli.main(["prob", "--parties", "3", "--copies", "6"]) == 1
    assert "not divisible" in capsys.readouterr().err
    assert protocol.InconsistencyError is InconsistencyError


def test_kron_cross_checks_eta_sq(monkeypatch, capsys):
    # the stencil's eta^2 must equal the coefficients' squared norm
    monkeypatch.setattr(kronstate, "eta_sq", lambda lams: Fraction(2))
    argv = ["kron", "--lambda", "2,1;2,1;2,1"]
    with pytest.raises(InconsistencyError, match="by the stencil"):
        cli.cmd_kron(cli.build_parser().parse_args(argv))
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "internal inconsistency" in captured.err and not captured.out


def test_an_error_in_the_step_rule_fails_every_independent_route(monkeypatch, capsys):
    # coefficients, eta^2 and the down-set all read kronstate._boxes; the dense
    # oracle, the counting route of p_w and the stencil-vs-norm check must
    # each catch one wrong share
    boxes = kronstate._boxes

    def corrupted(bi, m):
        # the second-row share at b = 1 off by one
        return tuple((p, share + (bi == 1 and p < bi), den) for p, share, den in boxes(bi, m))

    kronstate._memo_coeffs.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(kronstate, "_boxes", corrupted)
            assert protocol.verify_case(3, 4)["mismatches"]
            assert cli.main(["kron", "--lambda", "2,1;2,1;2,1"]) == 1
            assert "by the stencil" in capsys.readouterr().err
            lams = ptuple((3, 1), (3, 1), (3, 1))
            assert p_w(lams) != p_w_counting(lams)
    finally:
        kronstate._memo_coeffs.cache_clear()
