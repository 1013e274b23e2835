import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    RadicalSum,
    float_matrix,
    multilocal_schur_reference,
    residual_schmidt,
    sector_cell,
    sector_grid,
    stuple_of,
    tensor_power_reference,
)

from wkron import ghz, protocol, schur
from wkron.cli import main as cli_main
from wkron.exact import SqrtRational
from wkron.kronstate import khat, normalized
from wkron.partitions import ptuple, reduced_entropy, w_admissible
from wkron.protocol import (
    GHZState,
    InconsistencyError,
    SizeCapError,
    all_partition_tuples,
    marginal_entropy,
    multilocal_schur,
    oracle_khat,
    sample_outcomes,
    sector_distribution,
    tensor_power,
    verify_report,
)
from wkron.schur import SchurLabel, b_coeff
from wkron.wstates import WClassState, phi_hat, w_normal_form


def sq(x):
    return SqrtRational.sqrt(Fraction(x))


def test_tensor_power_w_single_copy():
    # sqrt(1/3) = 1/3 * sqrt(3): (class, numerator, denominator) = (3, 1, 3)
    w = w_normal_form(3)
    d = tensor_power(w, 1)
    assert d.amplitudes == {0b100: (3, 1, 3), 0b010: (3, 1, 3), 0b001: (3, 1, 3)}


def test_tensor_power_w_two_copies():
    # sqrt(1/3)^2 = 1/3 = 3/9 * sqrt(1)
    w = w_normal_form(3)
    d = tensor_power(w, 2)
    assert len(d.amplitudes) == 9
    assert all(v == (1, 3, 9) for v in d.amplitudes.values())
    assert d.norm_sq() == 1


def test_tensor_power_ghz():
    g = GHZState(Fraction(1, 3), 3)
    d = tensor_power(g, 2)
    # patterns (00,00,00), (01,01,01), (10,10,10), (11,11,11) in party-major
    # bits, with the values 2/3, sqrt(2/9), sqrt(2/9), 1/3 = 6/9, 3/9 sqrt(2),
    # 3/9 sqrt(2), 3/9
    assert list(d.amplitudes.items()) == [
        (0b000000, (1, 6, 9)),
        (0b010101, (2, 3, 9)),
        (0b101010, (2, 3, 9)),
        (0b111111, (1, 3, 9)),
    ]
    assert d.norm_sq() == 1


def test_tensor_power_size_cap():
    with pytest.raises(SizeCapError):
        tensor_power(w_normal_form(3), 7)  # 21 qubits > 18
    # a float entry would otherwise become a binary fraction silently
    with pytest.raises(ValueError, match="exact"):
        tensor_power([0.5, SqrtRational.sqrt(Fraction(3, 4)), 0, 0], 1)


def test_tensor_power_rejects_a_wrong_single_copy_class(monkeypatch):
    # sqrt(1/3)^3 = sqrt(1/27) is not a rational times sqrt(1): m^2 * d != P * Q
    monkeypatch.setattr(SqrtRational, "radical_parts", lambda self: (1, 1, 1))
    with pytest.raises(InconsistencyError, match="not in class 1"):
        tensor_power(w_normal_form(3), 3)


def test_one_party_raw_list_is_refused_before_any_work():
    # one party would let the qubit cap admit 18 copies of one party's Schur table
    with pytest.raises(ValueError, match="at least two parties"):
        sector_distribution([1, 0], 12)
    with pytest.raises(ValueError, match="at least two parties"):
        tensor_power([1, 0], 1)


def test_bit_layout_party_major():
    # party i's copy-k qubit sits at bit i*n + k from the most significant of
    # the N*n bits, that is at shift (N - i)*n - 1 - k; amplitudes come copy
    # by copy, each over the single-copy patterns in order
    N, n = 3, 2
    d = tensor_power(WClassState((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), 0)), n)
    patterns = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    want = [
        sum(b << ((N - i) * n - 1 - k) for k, bits in enumerate(copies) for i, b in enumerate(bits))
        for copies in itertools.product(patterns, repeat=n)
    ]
    assert list(d.amplitudes) == want
    # copies (100), (010): party 0 reads "10", party 1 "01", party 2 "00"
    assert want[5] == 0b100100
    assert stuple_of(0b100100, N, n) == ((1, 0), (0, 1), (0, 0))


def test_multilocal_schur_w_sectors():
    w = w_normal_form(3)
    sectors = multilocal_schur(tensor_power(w, 2))
    expect = {
        ptuple((2, 0), (2, 0), (2, 0)),
        ptuple((2, 0), (1, 1), (1, 1)),
        ptuple((1, 1), (2, 0), (1, 1)),
        ptuple((1, 1), (1, 1), (2, 0)),
    }
    assert set(sectors) == expect
    assert sum(b.norm_sq() for b in sectors.values()) == 1


def test_multilocal_schur_product_state():
    raw = [SqrtRational.one(), SqrtRational.zero()] * 4
    raw = [SqrtRational.one()] + [SqrtRational.zero()] * 7  # |000>
    d = tensor_power(raw, 3)
    sectors = multilocal_schur(d)
    assert set(sectors) == {ptuple((3, 0), (3, 0), (3, 0))}
    assert sectors[ptuple((3, 0), (3, 0), (3, 0))].norm_sq() == 1


def test_mixed_radical_sector_norm_is_bad_input():
    # Sum |a|^2 = 1, yet the n=2 sector norms lie in Q(sqrt 2), not in Q
    raw = [SqrtRational.sqrt(Fraction(1, 2)), Fraction(1, 4), 0, Fraction(1, 4),
           SqrtRational.sqrt(Fraction(1, 8)), SqrtRational.sqrt(Fraction(1, 8)),
           Fraction(1, 4), Fraction(1, 4)]
    with pytest.raises(ValueError, match=r"radical classes \[1, 2\]") as exc:
        sector_distribution(raw, 2)
    assert not isinstance(exc.value, InconsistencyError)


@pytest.mark.parametrize("raw, norm", [([2, 0, 0, 0], 4), ([0, 0, 0, 0], 0)])
def test_unnormalized_raw_list_is_bad_input(raw, norm, monkeypatch):
    # refused before the tensor power is built, as bad input, not as a fault
    monkeypatch.setattr(protocol, "tensor_power", None)
    for call in (lambda: sector_distribution(raw, 2), lambda: sample_outcomes(raw, 2, 0, 3)):
        with pytest.raises(ValueError, match=f"squared norm {norm}, not 1") as exc:
            call()
        assert not isinstance(exc.value, InconsistencyError)


def test_mixed_radical_raw_ghz_list_keeps_rational_sectors():
    # amplitudes in the radical classes 35 and 14; every n=3 sector norm is rational
    raw = [SqrtRational.sqrt(Fraction(5, 7))] + [0] * 6 + [SqrtRational.sqrt(Fraction(2, 7))]
    dist = sector_distribution(raw, 3)
    assert sum(p for _, p in dist) == 1
    assert dist == sector_distribution(GHZState(Fraction(2, 7)), 3)


def test_block_norms_sum_to_one_exact():
    for state in (w_normal_form(3), GHZState(Fraction(2, 5), 3)):
        for n in (2, 3, 4):
            sectors = multilocal_schur(tensor_power(state, n))
            assert sum(b.norm_sq() for b in sectors.values()) == 1


@st.composite
def _w_class_case(draw):
    """Weights k/24 (c0 may be 0) with N in {3, 4} and N*n <= 12 qubits."""
    N = draw(st.sampled_from((3, 4)))
    cuts = sorted(draw(st.lists(st.integers(0, 24), min_size=N, max_size=N)))
    ks = [b - a for a, b in zip([0] + cuts, cuts + [24])]
    assume(sum(1 for k in ks[1:] if k) >= 2)
    return tuple(Fraction(k, 24) for k in ks), draw(st.integers(1, 12 // N))


def _raw_w_list(c) -> list:
    """The amplitude list of WClassState(c): sqrt(c0) at |0..0> and sqrt(ci)
    at the string with a 1 at party i only."""
    N = len(c) - 1
    raw = [0] * 2**N
    raw[0] = SqrtRational.sqrt(c[0])
    for i in range(1, N + 1):
        raw[1 << (N - i)] = SqrtRational.sqrt(c[i])
    return raw


@settings(max_examples=20, deadline=None)
@given(_w_class_case())
def test_dense_distribution_of_raw_list_equals_closed_form(case):
    c, n = case
    assert sector_distribution(_raw_w_list(c), n) == sector_distribution(WClassState(c), n)


@pytest.mark.parametrize(
    "c, n",
    [
        ((0, Fraction(1, 6), Fraction(5, 6)), 7),
        ((0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), 4),
        ((Fraction(1, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 5)), 4),
    ],
)
def test_raw_w_list_gives_the_rows_and_samples_of_its_state(c, n):
    # one row order for every state: a raw list's rows, and so its seeded
    # draws, are those of the WClassState it spells out
    raw, state = _raw_w_list(c), WClassState(c)
    assert sector_distribution(raw, n) == sector_distribution(state, n)
    for seed in (0, 7, 2024):
        assert sample_outcomes(raw, n, seed, 200) == sample_outcomes(state, n, seed, 200)


def _signed_root(k: int, negative: bool) -> SqrtRational:
    x = SqrtRational.sqrt(Fraction(k, 24))
    return -x if negative else x


_exact_amplitude = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(_signed_root, st.integers(0, 24), st.booleans()),
)


@st.composite
def _raw_case(draw):
    """A raw list of signed, unnormalized exact amplitudes, N in {2, 3} and
    N*n <= 9 qubits."""
    N = draw(st.sampled_from((2, 3)))
    raw = draw(st.lists(_exact_amplitude, min_size=2**N, max_size=2**N))
    return raw, draw(st.integers(1, 9 // N))


@settings(max_examples=25, deadline=None)
@given(_raw_case())
def test_multilocal_schur_equals_b_sum(case):
    # every sector entry is sum_s amp(s) * prod_i B(label_i, s_i), and the
    # sectors carry the whole norm (sum |a|^2)^n of the unnormalized input
    raw, n = case
    N = len(raw).bit_length() - 1
    sectors = multilocal_schur(tensor_power(raw, n))
    by_weights: dict = {}
    for idx, a in tensor_power_reference(raw, n).items():
        s = stuple_of(idx, N, n)
        by_weights.setdefault(tuple(map(sum, s)), []).append((s, a))
    total = RadicalSum.zero()
    for lams in all_partition_tuples(N, n):
        block = sectors.get(lams)
        weights, qlabels = sector_grid(lams)
        for om in weights:
            for qt in qlabels:
                labels = [SchurLabel(lam, w, q) for lam, w, q in zip(lams, om, qt)]
                direct = RadicalSum.zero()
                # B(label, s) vanishes unless s has the label's weight
                for s, a in by_weights.get(om, ()):
                    term = a
                    for label, si in zip(labels, s):
                        term = term * b_coeff(label, si)
                    direct = direct + RadicalSum.from_sqrt(term)
                got = sector_cell(block, om, qt)
                assert got == direct, (lams, om, qt)
                total = total + got * got
    one_copy = sum(
        (x.square() if isinstance(x, SqrtRational) else Fraction(x) ** 2 for x in raw),
        Fraction(0),
    )
    # one sector's norm may be irrational when radicals mix, so sum x*x over all
    assert total.as_rational() == one_copy**n


def _assert_same_blocks(got, want):
    """Equal sector blocks: the same sectors, denominators and cells."""
    assert set(got) == set(want)
    for lams, block in want.items():
        assert got[lams].den == block.den, lams
        assert got[lams].cells == block.cells, lams


_REFERENCE_CASES = [
    *((w_normal_form(3), n) for n in range(1, 7)),
    *((w_normal_form(4), n) for n in range(1, 5)),
    (w_normal_form(5), 3),
    (w_normal_form(6), 3),
    *((w_normal_form(2), n) for n in (7, 8, 9)),
    (WClassState((Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10))), 4),
    (GHZState(Fraction(1, 3), 3), 6),
    (GHZState(Fraction(2, 7), 4), 4),
    ([sq("1/2"), Fraction(1, 4), 0, Fraction(1, 4), sq("1/8"), sq("1/8"), Fraction(1, 4),
      Fraction(1, 4)], 2),
    ([sq("5/7")] + [0] * 6 + [sq("2/7")], 3),
    ([Fraction(v, 5) for v in (3, -2, 2, 0, 0, 2, 0, -2)], 4),
    ([sq("1/6"), -sq("1/2"), sq("1/3"), 0], 6),
    ([sq("1/6"), sq("1/2"), -sq("1/3"), sq("2/3"), Fraction(1, 2), 0, -sq("3/5"),
      sq("7/24")], 3),
    ([sq("1/6"), sq("1/2"), sq("1/3"), 0], 7),
    # a class cancels at keys where another survives, so a cell must drop
    # only the classes that cancel
    ([1, -sq(2), sq("1/2"), -sq(2), -1, 1, -1, -sq(2)], 3),
]


@pytest.mark.parametrize("state, n", _REFERENCE_CASES)
def test_multilocal_schur_equals_nested_loop_reference(state, n):
    got = multilocal_schur(tensor_power(state, n))
    _assert_same_blocks(got, multilocal_schur_reference(state, n))


def _assert_parts_of_reference(state, n):
    """tensor_power's (d, num, den) triples are radical_parts of the
    SqrtRational products, index order included."""
    got = tensor_power(state, n).amplitudes
    want = {idx: a.radical_parts() for idx, a in tensor_power_reference(state, n).items()}
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("state, n", _REFERENCE_CASES)
def test_tensor_power_equals_radical_parts_of_reference(state, n):
    _assert_parts_of_reference(state, n)


def _signed_sqrt(k: int, m: int, negative: bool) -> SqrtRational:
    x = SqrtRational.sqrt(Fraction(k, m))
    return -x if negative else x


@st.composite
def _mixed_radical_case(draw):
    """A raw list of entries +-sqrt(k/m), zeros included, N in {2, 3} and
    n <= 4.  The terms fall into the radical classes 1, 2, 3 and 6, and so
    few magnitudes make a class cancel at a key often while another survives."""
    N = draw(st.sampled_from((2, 3)))
    entry = st.builds(_signed_sqrt, st.integers(0, 3), st.integers(1, 2), st.booleans())
    return draw(st.lists(entry, min_size=2**N, max_size=2**N)), draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(_mixed_radical_case())
def test_multilocal_schur_equals_reference_on_mixed_radicals(case):
    raw, n = case
    got = multilocal_schur(tensor_power(raw, n))
    _assert_same_blocks(got, multilocal_schur_reference(raw, n))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_raw_case(), _mixed_radical_case()))
def test_tensor_power_equals_radical_parts_of_reference_on_raw_lists(case):
    _assert_parts_of_reference(*case)


def test_raw_list_with_a_semiprime_denominator_splits_one_copy_only():
    # trial division runs until its divisor squared passes what is left of
    # the radicand; p - 1 = 2 * 50080031 with 50080031 prime, so on a k-copy
    # radicand, which holds 50080031^j for j up to k, it runs up to 50080031
    # for j >= 2 (about 10 s at n = 4), and on one copy it stops near 10009
    p = 10007 * 10009
    raw = [0, SqrtRational.sqrt(Fraction(p - 1, p)), SqrtRational.sqrt(Fraction(1, p)), 0]
    start = time.perf_counter()
    dense = sector_distribution(raw, 4)
    assert time.perf_counter() - start < 1
    closed = sector_distribution(WClassState((0, Fraction(1, p), Fraction(p - 1, p))), 4)
    assert dict(dense) == dict(closed)


def test_party_columns_one_radical_per_label():
    # every B(j, s) = K/D * sqrt(roots[j]) with K a nonzero integer, and it
    # equals the gamma product b_coeff for every label and every string of
    # the label's weight, at every size the 18-qubit cap admits with two or
    # more parties
    for n in range(1, 10):
        cols, roots, D, labels = schur.party_columns(n)
        assert len(labels) == len(roots) == len(cols) == 2**n
        assert [(q, om) for _, om, q in labels] == sorted((q, om) for _, om, q in labels)
        by_weight: dict = {}
        for j, (lam, om, q) in enumerate(labels):
            by_weight.setdefault(om, []).append((j, SchurLabel(lam, om, q)))
        for s, col in enumerate(cols):
            bits = tuple((s >> (n - 1 - k)) & 1 for k in range(n))
            assert [j for j, _ in col] == sorted({j for j, _ in col})
            assert all(K for _, K in col)
            got = dict(col)
            for j, label in by_weight[sum(bits)]:
                # signed squares: K/D * sqrt(r) squares to K|K| r / D^2
                K = got.pop(j, 0)
                want = b_coeff(label, bits).signed_square()
                assert want == Fraction(K * abs(K) * roots[j], D * D), (n, bits, labels[j])
            assert not got  # no entry at a label of another weight


def test_party_columns_rejects_a_label_spanning_two_radicals(monkeypatch, capsys):
    real = schur._gamma_row

    def one_factor_times_sqrt2(l1, l2, omega, qn):
        # the factor of s_2 = 1 into the label ((2,0), 1, (0,0)) gains a
        # sqrt(2), so that label's column reads 1 at s = 01 and sqrt(1/2) at
        # s = 10, two radicals, which the labels grown from it at n = 3 keep
        (a0, a1), b = real(l1, l2, omega, qn)
        if (l1, l2, omega, qn) == (2, 0, 1, 0):
            a1 *= 2
        return (a0, a1), b

    schur.party_columns.cache_clear()
    protocol._w_sectors.cache_clear()
    monkeypatch.setattr(schur, "_gamma_row", one_factor_times_sqrt2)
    try:
        with pytest.raises(InconsistencyError, match="spans radicals"):
            schur.party_columns(3)
        assert cli_main(["verify", "--nmax3", "3", "--nmax4", "0"]) == 1
        assert "internal inconsistency" in capsys.readouterr().err
    finally:
        schur.party_columns.cache_clear()
        protocol._w_sectors.cache_clear()


def test_party_columns_cache_is_bounded():
    assert schur.party_columns.cache_info().maxsize is not None


def test_raw_list_of_one_amplitude_is_rejected():
    # length 1 would mean zero parties
    for call in (lambda: sector_distribution([SqrtRational.one()], 2),
                 lambda: tensor_power([1], 1)):
        with pytest.raises(ValueError, match="at least two parties"):
            call()


def test_residual_schmidt_w_rank1():
    w = w_normal_form(3)
    for n in (2, 3, 4):
        sectors = multilocal_schur(tensor_power(w, n))
        for lams, block in sectors.items():
            sv = residual_schmidt(block)
            assert abs(sv[0] - 1) < 1e-12
            assert all(v < 1e-12 for v in sv[1:])


def test_residual_schmidt_ghz_rank2():
    # (4,2)^3 is the first rank-2 sector of GHZ(1/3) for n = 3..6; its squared
    # singular values are the closed-form Gram spectrum
    alpha = Fraction(1, 3)
    lams = ptuple((4, 2), (4, 2), (4, 2))
    sectors = multilocal_schur(tensor_power(GHZState(alpha, 3), 6))
    sv = residual_schmidt(sectors[lams])
    assert sv[0] < 1
    assert sv[1] > 0.1
    spectrum = ghz.schmidt_spectrum(ghz.gram(lams, alpha, 6))
    spectrum += [0.0] * (len(sv) - len(spectrum))
    assert max(abs(s * s - g) for s, g in zip(sv, spectrum)) < 1e-12


def test_residual_schmidt_ghz_sector_rank1():
    g = GHZState(Fraction(1, 3), 3)
    sectors = multilocal_schur(tensor_power(g, 2))
    sv = residual_schmidt(sectors[ptuple((2, 0), (2, 0), (2, 0))])
    assert abs(sv[0] - 1) < 1e-12


def test_oracle_khat_examples():
    kv = oracle_khat(ptuple((2, 0), (2, 0), (2, 0)), 2)
    assert kv.coeffs == {((0, 0),) * 3: sq("1/2")}
    kv = oracle_khat(ptuple((2, 1), (2, 1), (2, 1)), 3)
    mags = sorted(v.square() for v in kv.coeffs.values())
    assert mags == [Fraction(2, 3)] * 4
    assert oracle_khat(ptuple((1, 1), (1, 1), (1, 1)), 2).is_zero


# 18 nonzero cells: |supp phi| = 6 rows of 45 and |supp khat| = 3 columns of 9,
# in the radical classes 1, 2 and 6
_MUTATED = ptuple((3, 1), (3, 1), (4, 0))


def _patch_w_sectors(monkeypatch, lams, n, edit):
    """Let oracle_khat read the W sector `lams` at n with its cells changed by
    edit(cells); the cached blocks stay as they are."""
    real = protocol._w_sectors
    sectors = real(lams.num_parties, n)
    cells = {key: dict(cell) for key, cell in sectors[lams].cells.items()}
    edit(cells)
    fake = {**sectors, lams: protocol.SectorBlock(lams, sectors[lams].den, cells)}
    monkeypatch.setattr(
        protocol, "_w_sectors", lambda N, m: fake if (N, m) == (lams.num_parties, n) else real(N, m)
    )


def _mutants(edit_one):
    """One edit per cell of _MUTATED at n=4: edit_one(cells, key) changes only
    that cell."""
    keys = list(protocol._w_sectors(3, 4)[_MUTATED].cells)
    assert len(keys) == 18
    return [lambda cells, key=key: edit_one(cells, key) for key in keys]


def test_oracle_khat_unchanged_cells_pass(monkeypatch):
    _patch_w_sectors(monkeypatch, _MUTATED, 4, lambda cells: None)
    assert oracle_khat(_MUTATED, 4).coeffs == khat(3, 4, _MUTATED).coeffs


def test_oracle_khat_rejects_a_changed_numerator(monkeypatch):
    def bump(cells, key):
        d = next(iter(cells[key]))
        cells[key][d] += 1

    for edit in _mutants(bump):
        with monkeypatch.context() as m:
            _patch_w_sectors(m, _MUTATED, 4, edit)
            with pytest.raises(InconsistencyError):
                oracle_khat(_MUTATED, 4)


def test_oracle_khat_rejects_a_missing_cell(monkeypatch):
    for edit in _mutants(lambda cells, key: cells.pop(key)):
        with monkeypatch.context() as m:
            _patch_w_sectors(m, _MUTATED, 4, edit)
            with pytest.raises(InconsistencyError):
                oracle_khat(_MUTATED, 4)


def test_oracle_khat_rejects_a_cell_outside_phi_support(monkeypatch):
    support = phi_hat(w_normal_form(3), _MUTATED).coeffs
    weights, qlabels = sector_grid(_MUTATED)
    outside = [om for om in weights if om not in support]
    assert len(outside) == 39
    for om in outside:
        with monkeypatch.context() as m:
            _patch_w_sectors(m, _MUTATED, 4, lambda cells: cells.update({(om, qlabels[0]): {1: 1}}))
            with pytest.raises(InconsistencyError, match="outside fiducial support"):
                oracle_khat(_MUTATED, 4)


def test_w_sector_cache_holds_one_case():
    protocol._w_sectors.cache_clear()
    assert verify_report(cases=((3, 3), (4, 2)))["ok"]
    assert protocol._w_sectors.cache_info().currsize <= 1


def test_master_oracle_equivalence_small():
    rep = verify_report(cases=((3, 4), (4, 3)))
    assert rep["ok"], rep


def test_master_oracle_equivalence_two_parties():
    # the two-party case: every sector pairs equal partitions and the
    # Kronecker vector is the maximally entangled one
    rep = verify_report(cases=((2, 6),))
    assert rep["ok"], rep
    from wkron.kronstate import khat_all

    for lams in khat_all(2, 4):
        assert lams[0] == lams[1]


def test_theorem1_universality_random_states():
    rng = random.Random(90210)

    def rand_state():
        while True:
            ks = [rng.randint(0, 6) for _ in range(4)]
            if sum(1 for k in ks[1:] if k) >= 2:
                s = sum(ks)
                return WClassState(tuple(Fraction(k, s) for k in ks))

    w_ref = w_normal_form(3)
    for _ in range(5):
        state = rand_state()
        for n in (2, 3, 4):
            sectors = multilocal_schur(tensor_power(state, n))
            for lams, block in sectors.items():
                m = float_matrix(block)
                sv = np.linalg.svd(m, compute_uv=False)
                if len(sv) > 1:
                    assert sv[1] <= 1e-10 * max(1, sv[0])
                # extracted q-side factor is the W Kronecker vector
                _, _, vt = np.linalg.svd(m)
                qvec = vt[0]
                kv = normalized(khat(3, n, lams))
                qlabels = sector_grid(lams)[1]
                ref = np.zeros(len(qlabels))
                for i, qt in enumerate(qlabels):
                    if qt in kv.coeffs:
                        ref[i] = float(kv.coeffs[qt])
                cos = abs(float(qvec @ ref))
                assert cos >= 1 - 1e-10, (state, lams, cos)


def test_sample_outcomes_deterministic():
    w = w_normal_form(3)
    a = sample_outcomes(w, 2, seed=7, count=50)
    b = sample_outcomes(w, 2, seed=7, count=50)
    assert a == b


@pytest.mark.parametrize(
    "state, n",
    [
        (w_normal_form(3), 3),
        (WClassState((Fraction(1, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 5))), 4),
        (GHZState(Fraction(2, 7), 3), 5),
        ([Fraction(v, 5) for v in (3, -2, 2, 0, 0, 2, 0, -2)], 3),
    ],
)
def test_sample_outcomes_equal_linear_scan(state, n):
    # the draws equal a per-draw linear scan of the same 64-bit stream
    dist = sector_distribution(state, n)
    for seed in (0, 1, 7, 2024, 31337):
        assert sample_outcomes(state, n, seed, 300) == _linear_scan(dist, seed, 300)


def _linear_scan(dist, seed: int, count: int) -> list:
    """count draws over dist, each the first row whose cumulative
    probability passes u = getrandbits(64) / 2^64."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        u = Fraction(rng.getrandbits(64), 2**64)
        acc = Fraction(0)
        for lams, p in dist:
            acc += p
            if u < acc:
                out.append(lams)
                break
    return out


def test_sample_frequencies_match_probability():
    w = w_normal_form(3)
    count = 100_000
    outs = sample_outcomes(w, 2, seed=31337, count=count)
    target = ptuple((2, 0), (2, 0), (2, 0))
    freq = sum(1 for o in outs if o == target) / count
    p = 2 / 3
    sigma = math.sqrt(p * (1 - p) / count)
    assert abs(freq - p) <= 3 * sigma


def test_sample_product_state_like_distribution():
    # distributions carry exactly the nonzero sectors
    w = w_normal_form(3)
    dist = sector_distribution(w, 2)
    assert sum(p for _, p in dist) == 1
    assert all(w_admissible(lams) for lams, _ in dist)


def test_sample_product_state_always_top_sector():
    product = [SqrtRational.one()] + [SqrtRational.zero()] * 7
    outs = sample_outcomes(product, 3, seed=1, count=10)
    assert all(o == ptuple((3, 0), (3, 0), (3, 0)) for o in outs)


def test_marginal_entropy_product_is_zero():
    product = [SqrtRational.one()] + [SqrtRational.zero()] * 7
    for party in range(3):
        assert marginal_entropy(product, party) == 0.0


def test_marginal_entropy_examples():
    w = w_normal_form(3)
    for party in range(3):
        assert abs(marginal_entropy(w, party) - 0.9182958340544896) < 1e-12
    g = GHZState(Fraction(1, 3), 3)
    assert abs(marginal_entropy(g, 0) - 0.9182958340544896) < 1e-12
    product = WClassState((Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    # two-qubit Bell state: marginal entropy 1 bit
    assert abs(marginal_entropy(product, 0) - 1.0) < 1e-12


def _eigvalsh_entropy(raw, party: int) -> float:
    """Entropy (bits) of one party's reduced state of a raw amplitude list,
    from numpy's eigvalsh of M M^T, M the amplitudes with the party's qubit
    as the row index."""
    N = len(raw).bit_length() - 1
    m = np.moveaxis(np.array([float(a) for a in raw]).reshape((2,) * N), party, 0).reshape(2, -1)
    return float(-sum(v * math.log2(v) for v in np.linalg.eigvalsh(m @ m.T) if v > 1e-15))


_QUARTERS = (Fraction(1, 4),) * 4
_RAW_3 = [Fraction(v, 5) for v in (3, -2, 2, 0, 0, 2, 0, -2)]


@pytest.mark.parametrize("state, raw", [(WClassState(_QUARTERS), _raw_w_list(_QUARTERS)),
                                        (_RAW_3, _RAW_3)])
def test_marginal_entropy_with_off_diagonal_rho(state, raw):
    # every party's rho has a nonzero off-diagonal entry here
    for party in range(3):
        assert abs(marginal_entropy(state, party) - _eigvalsh_entropy(raw, party)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(_w_class_case().filter(lambda case: case[0][0] > 0))
def test_marginal_entropy_of_w_class_weights_equals_eigvalsh(case):
    c = case[0]
    for party in range(len(c) - 1):
        got = marginal_entropy(WClassState(c), party)
        assert abs(got - _eigvalsh_entropy(_raw_w_list(c), party)) < 1e-12


def _yield_deviations(n: int) -> list[float]:
    """|mean per-copy yield - local entropy| per party over 2000 seeded runs."""
    w = w_normal_form(3)
    outs = sample_outcomes(w, n, seed=424242, count=2000)
    return [
        abs(sum(reduced_entropy(o[party]) for o in outs) / len(outs) - marginal_entropy(w, party))
        for party in range(3)
    ]


def test_per_copy_yield_n12():
    assert all(d < 0.15 for d in _yield_deviations(12))


def test_per_copy_yield_n24():
    # the yield approaches the local entropy as n grows: a tighter bound at n=24
    assert all(d < 0.09 for d in _yield_deviations(24))


def test_oracle_khat_validates_input():
    with pytest.raises(ValueError):
        oracle_khat(ptuple((2, 0), (2, 0), (2, 0)), 3)
