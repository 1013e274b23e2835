import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from oracles import kron_coeff_young

from wkron import covariants, kronstate
from wkron.cli import main
from wkron.kronstate import from_table_json
from wkron.partitions import kron_coeff, ptuple


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kron_table_small(capsys, tmp_path):
    out = tmp_path / "t.json"
    code = main(["kron", "--lambda", "2,1;2,1;2,1", "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())
    assert len(table["entries"]) == 4
    assert table["kron_coeff"] == 1
    assert table["p_w"] == "8/81"  # eta^2 * Z = (8/3)(1/27)
    mags = sorted(Fraction(e["num"], e["den"]) for e in table["entries"])
    assert mags == [Fraction(1, 4)] * 4
    kv = from_table_json(table)
    assert kv.lams == ptuple((2, 1), (2, 1), (2, 1))


def test_kron_round_trip_bit_identical(capsys, tmp_path):
    from wkron.kronstate import khat, normalized

    out = tmp_path / "t.json"
    assert main(["kron", "--lambda", "3,1;3,1;2,2", "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    kv = from_table_json(table)
    direct = normalized(khat(3, 4, ptuple((3, 1), (3, 1), (2, 2))))
    assert kv.coeffs == direct.coeffs


def test_kron_text_is_one_json_dumps(capsys, tmp_path):
    # the text is written in pieces; it must read as one json.dumps, on
    # stdout and in --out alike; (5,2)^3 spans several pieces
    from wkron.kronstate import eta, khat, normalized, to_table_json
    from wkron.partitions import kron_coeff
    from wkron.probw import p_w

    lams = ptuple((5, 2), (5, 2), (5, 2))
    kv = khat(3, 7, lams)
    table = to_table_json(normalized(kv))
    table.update(eta=eta(kv).to_json(), p_w=str(p_w(lams)), kron_coeff=kron_coeff(lams))
    code, out, _ = run(["kron", "--lambda", "5,2;5,2;5,2"], capsys)
    assert code == 0
    assert out == json.dumps(table, indent=1) + "\n"
    path = tmp_path / "t.json"
    assert main(["kron", "--lambda", "5,2;5,2;5,2", "--out", str(path)]) == 0
    assert path.read_text() == out


def test_kron_n7_table(capsys, tmp_path):
    out = tmp_path / "big.json"
    code = main(["kron", "--lambda", "5,2;5,2;5,2", "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())
    assert table["kron_coeff"] == 2
    assert all(len(labels) == 14 for labels in table["labels"].values())


def test_kron_coeff_field_matches_the_character_sum(capsys):
    # a coefficient of 7, so a field that drifts from kron_coeff only for
    # larger coefficients shows here
    code, out, _ = run(["kron", "--lambda", "5,2;5,2;5,2;6,1"], capsys)
    assert code == 0
    lams = ptuple((5, 2), (5, 2), (5, 2), (6, 1))
    assert json.loads(out)["kron_coeff"] == kron_coeff_young(lams) == 7


def test_kron_n4_four_parties(capsys, tmp_path):
    out = tmp_path / "t4.json"
    code = main(["kron", "--lambda", "3,1;3,1;3,1;3,1", "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())
    assert len(table["entries"]) == 29


def test_kron_inadmissible_exit_2(capsys):
    code, _, err = run(["kron", "--lambda", "2,0;2,0;1,1"], capsys)
    assert code == 2
    assert "inadmissible" in err


def test_kron_parties_mismatch_exit_2(capsys):
    code, _, err = run(["kron", "--parties", "4", "--lambda", "2,1;2,1;2,1"], capsys)
    assert code == 2
    assert "inconsistent" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sample", "--copies", "2", "--runs", "-1"], "-1 samples"),
        (["ghz-spectrum", "--copies", "0"], "n must be >= 1"),
        (["ghz-spectrum", "--copies", "6,0"], "n must be >= 1"),
        (["prob", "--parties", "3", "--state", "1/2,1/4,1/4", "--copies", "2"], "inconsistent"),
        (["sample", "--parties", "4", "--state", "0,1/3,1/3,1/3", "--copies", "2"],
         "inconsistent"),
        (["verify", "--nmax3", "-1"], "nmax must be >= 0"),
        # refused before the n <= 6 cases run
        (["verify", "--nmax3", "7", "--nmax4", "1"], "21 qubits exceeds the 18-qubit dense cap"),
        # refused by kron's n cap before any dimension is formed
        (["kron", "--lambda", "600,0;600,0;600,0"], "n = 600, over the cap of n <= 48"),
        (["kron", "--lambda", "200,0;200,0;200,0"], "n = 200, over the cap of n <= 48"),
        # refused by the support cap (4.4e9 and 5.9e16 slots) before khat runs
        (["kron", "--lambda", "10,5;10,5;10,5"], "support 4394826072 (the product"),
        (["kron", "--lambda", "16,8;16,8;16,8"], "over the cap of 4000000"),
        # state specs that are not states
        (["prob", "--state", "1/0,1", "--copies", "2"], "zero denominator"),
        (["sample", "--state", "1/0,1,1", "--copies", "2"], "zero denominator"),
        (["prob", "--state", "ghz:1/0", "--copies", "2"], "zero denominator"),
        (["covariant", "--state", "ghz:1/3", "--copies", "2", "--nu", "2,2,2"], "not a GHZ state"),
        (["prob", "--state", "ghz:1/2", "--parties", "1", "--copies", "2"], "N >= 2 required"),
        (["prob", "--state", "ghz:1/2", "--parties", "-2", "--copies", "2"], "N >= 2 required"),
        # an exponent parameter that is not a number
        (["ghz-spectrum", "--copies", "6", "--alpha", "1/0"], "zero denominator"),
        (["kron", "--lambda", "0,0;0,0"], "n must be >= 1"),
    ],
)
def test_out_of_range_input_exit_2(capsys, argv, reason):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert reason in err


@pytest.mark.parametrize("n", [49, 600, 10**6, 10**9])
def test_kron_refuses_n_over_cap_before_dimensions(monkeypatch, capsys, n):
    def no_dims(lams):
        raise AssertionError("sector_dims ran before the n cap")

    monkeypatch.setattr(kronstate, "sector_dims", no_dims)
    lam = f"{n - n // 3},{n // 3}"
    code, out, err = run(["kron", "--lambda", f"{lam};{lam};{lam}"], capsys)
    assert code == 2 and out == ""
    assert f"n = {n}, over the cap of n <= 48" in err


def test_parties_matching_weights_or_w(capsys):
    code, out, _ = run(["prob", "--parties", "2", "--state", "1/2,1/4,1/4", "--copies", "1"],
                       capsys)
    assert code == 0 and "(1,0;1,0)" in out
    code, out, _ = run(["prob", "--state", "W", "--copies", "1"], capsys)
    assert code == 0 and "(1,0;1,0;1,0)" in out
    code, out, _ = run(["prob", "--parties", "4", "--state", "W", "--copies", "1"], capsys)
    assert code == 0 and "(1,0;1,0;1,0;1,0)" in out


def test_prob_csv_cumulative_one(capsys):
    code, out, _ = run(["prob", "--copies", "2", "--state", "W"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1]["cumulative"] == "1"
    total = sum(Fraction(r["p"]) for r in rows)
    assert total == 1
    by_lam = {r["lambda"]: Fraction(r["p"]) for r in rows}
    assert by_lam["(2,0;2,0;2,0)"] == Fraction(2, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["--parties", "3", "--copies", "12"],
        ["--state", "1/10,1/5,3/10,2/5", "--copies", "8"],
        ["--state", "ghz:1/3", "--copies", "6"],
    ],
)
def test_prob_p_float_is_the_float_of_p(capsys, argv):
    code, out, _ = run(["prob", *argv], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) > 10
    for r in rows:
        assert float(r["p_float"]) == float(Fraction(r["p"])), r


@pytest.mark.parametrize("alpha", ["1/3", "2/7"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prob_ghz_equals_dense_oracle(capsys, alpha, n):
    from wkron.protocol import GHZState, multilocal_schur, tensor_power

    code, out, _ = run(["prob", "--copies", str(n), "--state", f"ghz:{alpha}"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    sectors = multilocal_schur(tensor_power(GHZState(Fraction(alpha), 3), n))
    oracle = {str(lams): Fraction(b.norm_sq()) for lams, b in sectors.items()}
    assert {r["lambda"]: Fraction(r["p"]) for r in rows} == {
        lam: p for lam, p in oracle.items() if p
    }
    assert all(r["source"] == "closed-form" for r in rows)
    assert rows[-1]["cumulative"] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--copies", "2", "--mode", "float"],
        ["prob", "--copies", "2", "--seed", "1"],
        ["verify", "--parties", "4"],
        ["ghz-spectrum", "--copies", "3", "--format", "json"],
        ["kron", "--lambda", "2,1;2,1;2,1", "--format", "csv"],
    ],
)
def test_unread_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_ghz_spectrum_rows(capsys):
    code, out, _ = run(["ghz-spectrum", "--copies", "6,9", "--alpha", "1/3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    n6 = [float(r["gamma"]) for r in rows if r["n"] == "6"]
    assert n6[0] < 1
    assert all(float(r["gamma"]) > 0 for r in rows)


def test_ghz_spectrum_rows_at_90_copies_lie_between_15_and_the_rank(capsys):
    # (60,30)^3 has Kronecker coefficient 16, so at most 16 nonzero Schmidt
    # coefficients; the two smallest printed today are 4.2e-10 and 2.7e-11,
    # so a threshold that drops either shows as fewer than 15 rows
    code, out, _ = run(["ghz-spectrum", "--copies", "90", "--alpha", "1/3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {(r["n"], r["lambda"]) for r in rows} == {("90", "60,30")}
    assert 15 <= len(rows) <= kron_coeff(ptuple((60, 30), (60, 30), (60, 30))) == 16
    assert all(float(r["gamma"]) > 1e-12 for r in rows)


@pytest.mark.parametrize("n, lam, rank", [(30, (20, 10), 6), (60, (40, 20), 11)])
def test_ghz_spectrum_rows_at_30_and_60_copies_equal_the_rank(capsys, n, lam, rank):
    # below n = 90 every nonzero Schmidt coefficient of the typical sector
    # is printed, so the row count is its Kronecker coefficient
    code, out, _ = run(["ghz-spectrum", "--copies", str(n), "--alpha", "1/3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {(r["n"], r["lambda"]) for r in rows} == {(str(n), f"{lam[0]},{lam[1]}")}
    assert len(rows) == kron_coeff(ptuple(lam, lam, lam)) == rank


def test_ghz_spectrum_rank1_single_row(capsys):
    code, out, _ = run(["ghz-spectrum", "--copies", "1", "--alpha", "1/3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert abs(float(rows[0]["gamma"]) - 1) < 1e-12


def test_covariant_command(capsys):
    code, out, _ = run(
        ["covariant", "--copies", "2", "--nu", "0,0,2", "--state", "W"], capsys
    )
    assert code == 0
    assert "x0(3)^2" in out
    code, out, _ = run(
        ["covariant", "--copies", "2", "--nu", "2,2,0", "--state", "W"], capsys
    )
    assert code == 0
    assert out.strip() == "vanishes"


@pytest.mark.parametrize("argv", [["--copies", "-1", "--nu", "1,1,1"],
                                  ["--copies", "2", "--nu", "1,1,-1"]])
def test_covariant_refuses_negative_sizes(capsys, argv):
    # like every other command, covariant refuses n < 1, with exit 2 and a reason
    code, out, err = run(["covariant", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("bad input: ")
    code, out, _ = run(["covariant", "--copies", "3", "--nu", "1,1,1"], capsys)
    assert (code, out) == (0, "sqrt(c1*c2*c3)*x0(1)*x0(2)*x0(3)\n")


@pytest.mark.parametrize("argv", [
    # two-party W: one past the largest admitted n, and n = 10^9
    "--parties 2 --copies 5708 --nu 5708,5708",
    "--parties 2 --copies 1000000000 --nu 1000000000,1000000000",
    # three-party W: 93,096 terms are admitted at n = 430, not 93,961 at 432
    "--copies 432 --nu 432,432,432",
    # an n past a float's range
    f"--copies {10**400} --nu {10**400},{10**400},{10**400}",
], ids=["N2-n5708", "N2-n1e9", "N3-n432", "N3-n1e400"])
def test_covariant_refuses_work_over_the_budget_before_any_term(monkeypatch, capsys, argv):
    def no_terms(*args):
        raise AssertionError("a term was built before the budget check")

    monkeypatch.setattr(covariants, "combinations", no_terms)
    code, out, err = run(["covariant", *argv.split()], capsys)
    assert (code, out) == (2, "")
    assert f"steps of work, over the budget of {covariants.COVARIANT_WORK_BUDGET:,}" in err


def test_covariant_admits_work_just_under_the_budget(capsys):
    # the largest two-party W request the budget admits (a few seconds)
    code, out, _ = run(["covariant", "--parties", "2", "--copies", "5707", "--nu", "5707,5707"],
                       capsys)
    assert code == 0
    assert out.count(" + ") == 5707


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str digit limit for one test, restored after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_covariant_formats_coefficients_past_the_digit_limit(capsys, default_digit_limit):
    # one term (w = 0) whose coefficient 1/3^20000 has 9,543 digits; the work
    # budget admits it, and the limit is lifted only while it is formatted
    code, out, err = run(["covariant", "--copies", "40000", "--nu", "40000,0,0"], capsys)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == default_digit_limit
    sys.set_int_max_str_digits(0)
    try:
        assert out.split("*")[0] == f"1/{3**20000}"
    finally:
        sys.set_int_max_str_digits(default_digit_limit)
    # a refusal leaves the limit as it found it too
    code, out, _ = run(["covariant", "--copies", "432", "--nu", "432,432,432"], capsys)
    assert (code, out) == (2, "")
    assert sys.get_int_max_str_digits() == default_digit_limit


def test_verify_command(capsys):
    code, out, _ = run(["verify", "--nmax3", "3", "--nmax4", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert all(not c["mismatches"] for c in report["cases"])


def test_closed_stdout_exits_141_without_a_traceback():
    # the (6,3)^3 table is 1.7 MB, far more than a pipe holds, so the writer
    # is still writing when the reader goes away after 10 bytes
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "wkron.cli", "kron", "--lambda", "6,3;6,3;6,3"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_verify_two_class_cell_exits_1(capsys, monkeypatch):
    # a W sector cell spanning the radical classes 1 and 2 is not the product
    # phi_hat (x) khat wherever it sits, a one-row sector's included: the
    # report names the sector and verify exits 1, not bad input
    from wkron import protocol
    from wkron.wstates import w_normal_form

    real = protocol.multilocal_schur
    sectors = real(protocol.tensor_power(w_normal_form(3), 2))
    for lams, block in sectors.items():
        for key, cell in block.cells.items():
            ((d, c),) = cell.items()
            assert d == 1
            cells = {**block.cells, key: {1: c, 2: c}}
            fake = {**sectors, lams: protocol.SectorBlock(lams, block.den, cells)}
            monkeypatch.setattr(
                protocol, "multilocal_schur",
                lambda dense, fake=fake: fake if (dense.num_parties, dense.copies) == (3, 2)
                else real(dense),
            )
            code, out, _ = run(["verify", "--nmax3", "2", "--nmax4", "0"], capsys)
            assert code == 1, (lams, key)
            (case,) = [c for c in json.loads(out)["cases"] if c["mismatches"]]
            assert [m["lams"] for m in case["mismatches"]] == [str(lams)]


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("sample --parties 3 --copies 10 --seed 7 --runs 50",
         "381e1435d91b0416ea23c1fcad055b2a363bffd3cbbbf4bd964cc373b837a1f0"),
        ("sample --state 1/12,1/4,1/3,1/3 --copies 6 --seed 3 --runs 40",
         "156cdbb5b0a07ad1eea59f006854c5ccca2f33603cb4840d34a7dc1a8780f9b6"),
        ("prob --state 1/12,1/4,1/3,1/3 --copies 8",
         "2bb408d303dac32a33eef8639030e3e61e01616ee421b1b8aef6f8920ca1601d"),
        ("prob --state 1/12,1/4,1/3,1/3 --copies 24",
         "ba584ade63a871226b6e8e3830770a61f3050832ec08ae1fc159d27afdd79adf"),
        ("prob --state ghz:2/7 --copies 6",
         "65daefcb56128ddaaedb2fb4b77d7ce58755b23266493c4c548b69773a4f1d8a"),
        ("covariant --state 1/12,1/4,1/3,1/3 --copies 4 --nu 2,2,2",
         "a4a414d94f7f21a099ac1f9f1987fe1a97b145295247530d8d367268c03e390e"),
        ("verify --nmax3 3 --nmax4 2",
         "6430150287a1036d006a4ea45c24cbed3e3de16c709d91a85c58420321ab25bb"),
        ("prob --parties 8 --copies 8",
         "29d7ecfdea603904ab4234fdf4bd41aaedd2470f1aea4ba95764d728b721487c"),
        ("prob --parties 10 --copies 6",
         "31fad56c69295069b8bbac42149506d05ede85336fb19c243f6c7c45fa2298fa"),
        ("sample --parties 8 --copies 8 --seed 7 --runs 1000",
         "f3381ed1610a0a3db6cd4ba2b3ff666fa804c2e8fd2bc683e86da487ac71fbf9"),
    ],
)
def test_stdout_matches_its_pinned_sha256(capsys, argv, digest):
    # every field printed here is exact or drawn from a seeded Mersenne
    # Twister, so the bytes are the same on every machine
    code, out, _ = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["kron", "--lambda", "2,1;2,1;2,1"],
    ["prob", "--copies", "3"],
    ["ghz-spectrum", "--copies", "6"],
    ["covariant", "--copies", "3", "--nu", "1,1,1"],
    ["sample", "--copies", "3", "--runs", "5"],
    ["verify", "--nmax3", "2", "--nmax4", "0"],
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_written_exits_2(capsys, tmp_path, argv):
    # the file cannot be opened: bad input with the path and the reason, not
    # a traceback and exit 1
    out = tmp_path / "missing" / "out"
    code, stdout, err = run([*argv, "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"bad input: cannot write {out}: No such file or directory\n"


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kron", "--unknown-flag", "1"])
    assert exc.value.code == 2
    code, _, err = run(["kron", "--lambda", "oops"], capsys)
    assert code == 2 and "bad input" in err


def test_bad_lambda_value_exit_2(capsys):
    code, _, err = run(["kron", "--lambda", "1,2;1,2;1,2"], capsys)
    assert code == 2


def test_sample_command_deterministic(capsys):
    code, out1, _ = run(
        ["sample", "--copies", "2", "--state", "W", "--seed", "9", "--runs", "20"], capsys
    )
    assert code == 0
    code, out2, _ = run(
        ["sample", "--copies", "2", "--state", "W", "--seed", "9", "--runs", "20"], capsys
    )
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 20


def test_deterministic_outputs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["prob", "--copies", "3", "--state", "0,1/2,1/4,1/4", "--out", str(a)]) == 0
    assert main(["prob", "--copies", "3", "--state", "0,1/2,1/4,1/4", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def _symmetric_p_w(num_parties: int, n: int) -> Fraction:
    """p_w of (n,0)^N by projecting every party onto its Dicke states:
    N^-n * sum over k_1+...+k_N = n of (n!/prod k_i!)^2 / prod C(n, k_i)."""
    total = Fraction(0)
    for ks in product(range(n + 1), repeat=num_parties):
        if sum(ks) == n:
            multi = math.factorial(n) // math.prod(math.factorial(k) for k in ks)
            total += Fraction(multi * multi, math.prod(math.comb(n, k) for k in ks))
    return total / num_parties**n


@pytest.mark.parametrize("lam, num_parties, n", [("24,0;24,0;24,0", 3, 24),
                                                 ("10,0;10,0;10,0;10,0", 4, 10)])
def test_kron_thin_sector_p_w_closed_form(capsys, lam, num_parties, n):
    code, out, err = run(["kron", "--lambda", lam], capsys)
    assert code == 0, err
    table = json.loads(out)
    assert len(table["entries"]) == 1
    assert Fraction(table["p_w"]) == _symmetric_p_w(num_parties, n)


def test_symmetric_p_w_closed_form_matches_counting_route():
    from wkron.probw import p_w_counting

    assert _symmetric_p_w(3, 12) == p_w_counting(ptuple((12, 0), (12, 0), (12, 0)))
    assert _symmetric_p_w(3, 12) == Fraction(30194, 52612659)
