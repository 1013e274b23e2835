"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the emitted label-mapping reports.
"""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

from oracles import (
    JointWeight,
    float_matrix,
    joint_weights,
    louck,
    louck_bsum,
    multidegree,
    multinomial_theta,
    sector_grid,
    theta_for,
    transvectant,
    verify_proportional,
    z_count,
    z_count_ct,
)
from reference_tables import REFERENCE_TABLES, expand_orbits
from wkron.covariants import base_form, theorem2_form
from wkron.ghz import gram, schmidt_spectrum
from wkron.kronstate import eta, khat, khat_all, normalized, reduced_density, to_table_json
from wkron.partitions import dim_irrep, kron_coeff, list_partitions, ptuple
from wkron.probw import p_w
from wkron.protocol import (
    all_partition_tuples,
    multilocal_schur,
    sector_distribution,
    tensor_power,
    verify_report,
)
from wkron.schur import standard_paths
from wkron.wstates import WClassState, w_normal_form, z_norm


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_equivalence():
    rep = verify_report(cases=((3, 6), (4, 4)))
    sectors = sum(c["sectors"] for c in rep["cases"])
    empty = sum(c["empty_checked"] for c in rep["cases"])
    _report(
        1,
        rep["ok"],
        f"recurrence == dense oracle exactly on {sectors} sectors "
        f"(+{empty} empty), N=3 n<=6 and N=4 n<=4, zero tolerance",
    )


def test_criterion_02_table_reproduction():
    ok = True
    lines = []
    for table in REFERENCE_TABLES:
        full = expand_orbits(table)
        total = sum(abs(v) for v in full.values())
        lams = ptuple(*table["lams"])
        kv = normalized(khat(len(table["lams"]), table["n"], lams))
        mags = sorted(v.square() for v in kv.coeffs.values())
        printed = sorted(abs(v) / total for v in full.values())
        match = mags == printed
        ok = ok and match
        # label-level mapping and support comparison, emitted for audit
        ordinals = [
            {q: j + 1 for j, q in enumerate(standard_paths(lam))} for lam in lams
        ]
        support = {
            tuple(ordinals[i][q] for i, q in enumerate(qt)) for qt in kv.coeffs
        }
        mismatch = sorted(support ^ set(full))
        lines.append(
            f"  table {table['name']}: multiset {'OK' if match else 'MISMATCH'} "
            f"({len(full)} entries); support pattern "
            + ("identical" if not mismatch else f"differs at {mismatch}")
        )
        tbl = to_table_json(kv)
        for party, labels in tbl["labels"].items():
            lines.append(f"    party {party} path labels: {labels}")
    for line in lines:
        print(line)
    _report(2, ok, "squared-magnitude multisets match all reference tables exactly")


def test_criterion_03_lemma1_exact():
    checked = 0
    ok = True
    for n in range(1, 6):
        for lams, kv in khat_all(3, n).items():
            nk = normalized(kv)
            for party in range(3):
                rho = reduced_density(nk, party)
                d = len(rho)
                target = [
                    [Fraction(1, d) if i == j else Fraction(0) for j in range(d)]
                    for i in range(d)
                ]
                ok = ok and rho == target
                checked += 1
    _report(3, ok, f"all {checked} reduced density matrices exactly I/dim, N=3 n<=5")


def test_criterion_04_probability_consistency():
    ok = True
    # up to the benchmark prob workload's sizes
    for num_parties, nmax in ((3, 12), (4, 8)):
        for n in range(1, nmax + 1):
            total = sum(p_w(l) for l in all_partition_tuples(num_parties, n))
            ok = ok and total == 1
    w3, w4 = w_normal_form(3), w_normal_form(4)
    for num_parties, nmax, w in ((3, 5, w3), (4, 4, w4)):
        for n in range(1, nmax + 1):
            for lams, kv in khat_all(num_parties, n).items():
                ok = ok and p_w(lams) == eta(kv).square() * z_norm(w, lams)
    ok = ok and p_w(ptuple((2, 0), (2, 0), (2, 0))) == Fraction(2, 3)
    ok = ok and p_w(ptuple((2, 0), (1, 1), (1, 1))) == Fraction(1, 9)
    _report(
        4,
        ok,
        "sum p_w = 1 exactly (N=3 n<=12, N=4 n<=8); p_w = eta^2 Z exactly; "
        "spot values 2/3 and 1/9",
    )


def test_criterion_05_wclass_universality():
    rng = random.Random(160142)

    def rand_state():
        while True:
            ks = [rng.randint(0, 6) for _ in range(4)]
            if sum(1 for k in ks[1:] if k) >= 2:
                s = sum(ks)
                return WClassState(tuple(Fraction(k, s) for k in ks))

    ok = True
    worst_sv, worst_cos = 0.0, 1.0
    for _ in range(5):
        state = rand_state()
        for n in (1, 2, 3, 4):
            sectors = multilocal_schur(tensor_power(state, n))
            for lams, block in sectors.items():
                m = float_matrix(block)
                sv = np.linalg.svd(m, compute_uv=False)
                if len(sv) > 1:
                    worst_sv = max(worst_sv, sv[1])
                    ok = ok and sv[1] <= 1e-10
                _, _, vt = np.linalg.svd(m)
                kv = normalized(khat(3, n, lams))
                qlabels = sector_grid(lams)[1]
                ref = np.zeros(len(qlabels))
                for i, qt in enumerate(qlabels):
                    if qt in kv.coeffs:
                        ref[i] = float(kv.coeffs[qt])
                cos = abs(float(vt[0] @ ref))
                worst_cos = min(worst_cos, cos)
                ok = ok and cos >= 1 - 1e-10
    _report(
        5,
        ok,
        f"5 random rational W-class states: residual rank 1 "
        f"(max second s.v. {worst_sv:.2e}), q-factor aligned with the W "
        f"Kronecker vector (min |cos| = 1 - {1 - worst_cos:.2e})",
    )


def test_criterion_06_ghz_non_universality():
    lams = ptuple((4, 2), (4, 2), (4, 2))
    g = gram(lams, Fraction(1, 3), 6)
    spec = schmidt_spectrum(g)
    rank = sum(1 for v in spec if v > 1e-10)
    k = kron_coeff(lams)
    ok = spec[0] <= 0.95 and spec[1] >= 0.01
    _report(
        6,
        ok,
        f"GHZ(1/3) n=6 (4,2)^3: gamma1 = {spec[0]:.4f} <= 0.95, "
        f"gamma2 = {spec[1]:.4f} >= 0.01; computed rank {rank} vs "
        f"kron_coeff = {k}",
    )


def test_criterion_07_covariant_closure():
    states = [
        w_normal_form(3),
        WClassState((Fraction(1, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 5))),
    ]
    ok = True
    covariants_checked = 0
    for state in states:
        a = base_form(state)
        generation = [a]
        for _depth in range(3):
            new = []
            for f in generation:
                for g in generation:
                    if f.psi_degree + g.psi_degree > 3:
                        continue
                    fd, gd = multidegree(f), multidegree(g)
                    for orders in product(
                        *(range(min(x, y) + 1) for x, y in zip(fd, gd))
                    ):
                        t = transvectant(f, g, orders)
                        n_t = f.psi_degree + g.psi_degree
                        nu_t = tuple(
                            x + y - 2 * o for x, y, o in zip(fd, gd, orders)
                        )
                        closed = theorem2_form(state, n_t, nu_t)
                        covariants_checked += 1
                        if closed is None:
                            ok = ok and t.is_zero
                        elif closed.is_zero:
                            ok = ok and t.is_zero
                        else:
                            ok = ok and (
                                t.is_zero or verify_proportional(t, closed) is not None
                            )
                        if not t.is_zero:
                            new.append(t)
            seen = set()
            merged = []
            for p in generation + new:
                key = (p.psi_degree, tuple(sorted(p.terms.items())))
                if key not in seen:
                    seen.add(key)
                    merged.append(p)
            generation = merged
    _report(
        7,
        ok,
        f"{covariants_checked} nested transvectants (depth<=3, n<=3) all exactly "
        "proportional to the closed form; failed conditions imply exact zero",
    )


def test_criterion_08_louck_identities():
    ok = True
    pairs = 0
    for n in range(1, 6):
        lams = list_partitions(n)
        # the two definitions agree
        for lam in lams:
            wr = range(lam.lambda2, lam.lambda1 + 1)
            for om, omp in product(wr, repeat=2):
                for th in joint_weights(n, om, omp):
                    ok = ok and louck(lam, om, omp, th) == louck_bsum(lam, om, omp, th)
                    pairs += 1
        # orthogonality
        from oracles import RadicalSum

        for lam in lams:
            for lamp in lams:
                wr = range(lam.lambda2, lam.lambda1 + 1)
                wrp = range(lamp.lambda2, lamp.lambda1 + 1)
                for om, om2 in product(wr, repeat=2):
                    if not (lamp.lambda1 >= om >= lamp.lambda2):
                        continue
                    if not (lamp.lambda1 >= om2 >= lamp.lambda2):
                        continue
                    acc = RadicalSum.zero()
                    for th in joint_weights(n, om, om2):
                        acc = acc + RadicalSum.from_sqrt(
                            louck(lam, om, om2, th) * louck(lamp, om, om2, th)
                        ).scale(multinomial_theta(th))
                    expect = Fraction(1, dim_irrep(lam)) if lam == lamp else Fraction(0)
                    ok = ok and acc.as_rational() == expect
        # completeness
        thetas = [
            JointWeight(t00, t01, t10, n - t00 - t01 - t10)
            for t00 in range(n + 1)
            for t01 in range(n + 1 - t00)
            for t10 in range(n + 1 - t00 - t01)
        ]
        for th in thetas:
            for thp in thetas:
                if th.weights() != thp.weights():
                    continue
                om, om2 = th.weights()
                acc = RadicalSum.zero()
                for lam in lams:
                    if not (lam.lambda1 >= om >= lam.lambda2):
                        continue
                    if not (lam.lambda1 >= om2 >= lam.lambda2):
                        continue
                    acc = acc + RadicalSum.from_sqrt(
                        louck(lam, om, om2, th) * louck(lam, om, om2, thp)
                    ).scale(dim_irrep(lam))
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
                ok = ok and acc.as_rational() == expect
    # representation expansion vs exact Schur conjugation
    from test_ghz import _d_matrix_from_schur
    from oracles import RadicalSum

    rng = random.Random(55)
    for n in range(1, 6):
        x_mat = [
            [Fraction(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(2)]
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
                    ok = ok and acc == expected[(om, omp)]
    _report(
        8,
        ok,
        f"orthogonality, completeness, GL2 matrix expansion, and both "
        f"polynomial definitions agree exactly ({pairs} value pairs), n <= 5",
    )


def test_criterion_09_counting_identities():
    ok = True
    checked = 0
    for num_parties in (3, 4):
        for n in range(1, 7):
            for omega in product(range(n + 1), repeat=num_parties):
                if sum(omega) != n:
                    continue
                xmax = [min(om, n - om) for om in omega]
                for xs in product(*(range(x + 1) for x in xmax)):
                    th = [theta_for(om, x, n) for om, x in zip(omega, xs)]
                    z1, z2 = z_count(th, omega), z_count_ct(th, omega)
                    ok = ok and z1 == z2
                    checked += 1
                    if all(x == 0 for x in xs):
                        expect = math.factorial(n)
                        for om in omega:
                            expect //= math.factorial(om)
                        ok = ok and z1 == expect
    _report(9, ok, f"z_count == constant-term route on {checked} inputs, N in {{3,4}}, n <= 6")


def test_criterion_10_concentration_trend():
    best = max(all_partition_tuples(3, 12), key=p_w)
    devs = [abs(Fraction(lam.lambda2, 12) - Fraction(1, 3)) for lam in best]
    ok = all(d <= Fraction(2, 12) for d in devs)
    # at n=24 the mode sits exactly on lambda2/n = 1/3 for every party
    best24 = max(sector_distribution(w_normal_form(3), 24), key=lambda row: row[1])[0]
    ok = ok and best24 == ptuple((16, 8), (16, 8), (16, 8))
    _report(
        10,
        ok,
        f"p_w mode at n=12 is {best} with per-party |lambda2/n - 1/3| = "
        f"{[str(d) for d in devs]} (<= 2/12); at n=24 it is {best24}",
    )
