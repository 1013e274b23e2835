"""The benchmark's workloads: seeded request lists, how a request enters
wkron, and the check each result must pass.

A request is a JSON-ready dict with an "op" (how it enters wkron), a "key"
(what it computes, independent of formatting; references are keyed by it)
and a "check" (which check its output must pass).  Requests enter through the
public entry points users call: `wkron.cli.main(argv)` for CLI traffic and
the public `kronstate` and `protocol` functions for library traffic.

Why these workloads:
  kron-one  cold single-sector `wkron kron` requests; the CLI's headline
            output, and every request today builds all sectors.
  kron-all  every nonzero sector's table at one (N, n), as when reproducing
            published tables; one shared recurrence serves many sectors.
  oracle    the exactness gate `wkron verify` plus dense-oracle
            cross-checks of random W-class weights; schur, protocol and
            exact arithmetic do the work.
  prob      CLI probability traffic: closed-form W-class rows, GHZ rows
            (dense oracle today), sampling, GHZ spectra and a covariant.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

WORKLOADS = ("kron-one", "kron-all", "oracle", "prob")

# Sizes per workload.  "smoke" runs every workload in seconds for the tests.
SIZES = {
    "full": {
        # (N, n, sectors drawn); two cheap sectors at each of (3,7) and (4,6)
        # and three at (3,8) put the median on the cheapest (3,8) draw, whose
        # cost is mostly the shared recurrence, not on a small sector whose
        # own table changes its cost by half
        "kron_one": [(3, 7, 2), (3, 8, 3), (3, 9, 1), (4, 6, 2), (4, 7, 1)],
        "kron_all": [(3, 8), (4, 7)],
        "verify": (6, 4),
        "cross": (3, 5, 6),  # N, n, cross-checks
        "prob": [(3, 10), (3, 11), (3, 12), (4, 8)],
        "ghz": [4, 5, 6],
        "sample": (3, 10, 200, 500),  # N, n, run-count range
        "spectrum": list(range(6, 31, 3)),
        "covariant": (3, 6, "4,4,4"),
    },
    "smoke": {
        "kron_one": [(3, 4, 1), (3, 5, 1), (4, 3, 1)],
        "kron_all": [(3, 5), (4, 4)],
        "verify": (3, 2),
        "cross": (3, 3, 2),
        "prob": [(3, 5), (4, 4)],
        "ghz": [3],
        "sample": (3, 4, 20, 50),
        "spectrum": [6, 9],
        "covariant": (3, 2, "2,2,2"),
    },
}

# Seconds budgeted per pass over a workload's request list.  A run repeats its
# request list floor(--seconds / this) times, at least once, so the same
# --seconds gives the same work on every commit.  At 24 s kron-all, whose two
# long requests vary least, makes 1 repeat and the others make 2, and a run
# takes 12-40 s on a 2-core Xeon VM whose cores run at half speed.
PASS_SECONDS = {
    "full": {"kron-one": 11.5, "kron-all": 13.0, "oracle": 10.0, "prob": 12.0},
    "smoke": {"kron-one": 1.0, "kron-all": 1.0, "oracle": 1.0, "prob": 1.0},
}

# Seeded inputs share one denominator, so that their exact arithmetic costs
# about the same on every seed.  Weights are k/WEIGHT_DENOMINATOR; GHZ
# parameters are a/7, whose roots sqrt(alpha) and sqrt(1 - alpha) carry
# distinct radicals.
WEIGHT_DENOMINATOR = 24
GHZ_DENOMINATOR = 7


def repeats(workload: str, size: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS[size][workload]))


def nonzero_sectors(num_parties: int, n: int) -> list[str]:
    """Sectors that are W-admissible with kron_coeff >= 1; at the benchmark's
    sizes this set is exactly the sectors with nonzero Kronecker support."""
    from wkron.partitions import kron_coeff, w_admissible
    from wkron.protocol import all_partition_tuples

    return [
        _lams_arg(lams)
        for lams in all_partition_tuples(num_parties, n)
        if w_admissible(lams) and kron_coeff(lams) >= 1
    ]


def _lams_arg(lams) -> str:
    return repr(lams)[1:-1]


def _weights(rng: random.Random, num_parties: int) -> list[str]:
    """Random rational W-class weights c0..cN: c0 may be 0, every other
    weight is positive, and they sum to 1."""
    ks = [0] + [1] * num_parties
    for _ in range(WEIGHT_DENOMINATOR - num_parties):
        ks[rng.randrange(num_parties + 1)] += 1
    return [str(Fraction(k, WEIGHT_DENOMINATOR)) for k in ks]


def _alpha(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, GHZ_DENOMINATOR - 1), GHZ_DENOMINATOR))


def _cli(argv: list[str], check: str, **extra) -> dict:
    return {"op": "cli", "argv": argv, "key": " ".join(argv), "check": check, **extra}


def kron_request(lam: str) -> dict:
    return _cli(["kron", "--lambda", lam], "kron-table", lams=lam)


def generate(workload: str, seed: int, size: str) -> list[dict]:
    """The run's distinct requests; the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    sz = SIZES[size]
    reqs: list[dict] = []
    if workload == "kron-one":
        for N, n, count in sz["kron_one"]:
            reqs.extend(kron_request(lam) for lam in rng.sample(nonzero_sectors(N, n), count))
    elif workload == "kron-all":
        for N, n in sz["kron_all"]:
            order = nonzero_sectors(N, n)
            rng.shuffle(order)
            reqs.append({"op": "tables", "N": N, "n": n, "sectors": order,
                         "key": f"tables N={N} n={n}", "check": "kron-tables"})
    elif workload == "oracle":
        n3, n4 = sz["verify"]
        reqs.append(_cli(["verify", "--nmax3", str(n3), "--nmax4", str(n4)], "verify",
                         cases=[[3, n3], [4, n4]]))
        N, n, count = sz["cross"]
        for _ in range(count):
            c = _weights(rng, N)
            reqs.append({"op": "dense", "weights": c, "n": n,
                         "key": f"dense n={n} c={','.join(c)}", "check": "dense"})
    elif workload == "prob":
        for N, n in sz["prob"]:
            reqs.append(_cli(["prob", "--parties", str(N), "--copies", str(n)], "prob"))
            c = ",".join(_weights(rng, N))
            reqs.append(_cli(["prob", "--state", c, "--copies", str(n)], "prob"))
        for n in sz["ghz"]:
            a = _alpha(rng)
            reqs.append(_cli(["prob", "--state", f"ghz:{a}", "--copies", str(n)],
                             "prob-ghz", alpha=a, n=n))
        N, n, lo, hi = sz["sample"]
        runs = rng.randint(lo, hi)
        reqs.append(_cli(["sample", "--parties", str(N), "--copies", str(n),
                          "--seed", str(rng.randrange(2**31)), "--runs", str(runs)],
                         "sample", N=N, n=n, runs=runs))
        reqs.append(_cli(["ghz-spectrum", "--copies", ",".join(map(str, sz["spectrum"])),
                          "--alpha", _alpha(rng)], "spectrum", ns=sz["spectrum"]))
        N, n, nu = sz["covariant"]
        c = ",".join(_weights(rng, N))
        reqs.append(_cli(["covariant", "--state", c, "--copies", str(n), "--nu", nu],
                         "covariant"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


# -- running one request --------------------------------------------------------


def prepare(req: dict):
    """Inputs built before the timed window; touches no wkron cache."""
    if req["op"] == "tables":
        from wkron.partitions import parse_partition_tuple

        return [parse_partition_tuple(s) for s in req["sectors"]]
    if req["op"] == "dense":
        from wkron.exact import SqrtRational

        c = [Fraction(x) for x in req["weights"]]
        N = len(c) - 1
        amps = [SqrtRational.zero()] * 2**N
        amps[0] = SqrtRational.sqrt(c[0])
        for i in range(1, N + 1):
            amps[1 << (N - i)] = SqrtRational.sqrt(c[i])
        return amps
    return None


def execute(req: dict, prepared):
    """The timed call: the public entry point a user would call."""
    op = req["op"]
    if op == "cli":
        from wkron import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(req["argv"])
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if op == "tables":
        from wkron import kronstate

        N, n = req["N"], req["n"]
        return [kronstate.to_table_json(kronstate.normalized(kronstate.khat(N, n, lams)))
                for lams in prepared]
    if op == "dense":
        from wkron import protocol

        return protocol.sector_distribution(prepared, req["n"])
    raise ValueError(f"unknown op {op!r}")


# -- checks ------------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond, why: str):
    if not cond:
        raise CheckFailed(why)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check(req: dict, result) -> tuple[str, int]:
    """Check one result by an independent route where wkron has one.

    Returns (semantic digest, coefficients output); raises CheckFailed.
    Digests cover values, never formatting columns such as `source`.
    """
    kind = req["check"]
    if req["op"] == "cli":
        _require(result["rc"] == 0, f"exit code {result['rc']}: {result['stderr'].strip()}")
    return CHECKS[kind](req, result)


def output_digest(req: dict, result) -> str:
    """Digest of a result as returned; later runs of a request must match it."""
    if req["op"] == "cli":
        return digest([result["rc"], result["stdout"]])
    if req["op"] == "dense":
        return digest(_dist_rows(result))
    return digest(result)


_TABLE_KEYS = ("N", "n", "lambdas", "labels", "entries")


def _check_table(table: dict, lams: str) -> int:
    from wkron import kronstate

    _require(";".join(f"{a},{b}" for a, b in table["lambdas"]) == lams,
             f"table is for {table['lambdas']}, not {lams}")
    kv = kronstate.from_table_json(table)
    again = kronstate.to_table_json(kv)
    _require(all(again[k] == table[k] for k in _TABLE_KEYS), f"{lams}: table does not round-trip")
    _require(kv.norm_sq() == 1, f"{lams}: squared magnitudes sum to {kv.norm_sq()}, not 1")
    return len(table["entries"])


def _check_kron_table(req, result):
    table = json.loads(result["stdout"])
    coeffs = _check_table(table, req["lams"])
    _require(table["kron_coeff"] >= 1, f"{req['lams']}: kron_coeff {table['kron_coeff']}")
    sem = {k: table[k] for k in _TABLE_KEYS + ("eta", "p_w", "kron_coeff")}
    return digest(sem), coeffs


def _check_kron_tables(req, tables):
    _require(len(tables) == len(req["sectors"]), "one table per sector expected")
    coeffs = sum(_check_table(t, lams) for t, lams in zip(tables, req["sectors"]))
    sem = sorted((json.dumps({k: t[k] for k in _TABLE_KEYS}, sort_keys=True) for t in tables))
    return digest(sem), coeffs


def _check_verify(req, result):
    report = json.loads(result["stdout"])
    _require(report["ok"] is True, "verify reports mismatches")
    want = [[N, n] for N, nmax in req["cases"] for n in range(1, nmax + 1)]
    got = [[c["N"], c["n"]] for c in report["cases"]]
    _require(got == want, f"verify covered {got}, not {want}")
    sem = [[c["N"], c["n"], c["sectors"], c["empty_checked"], len(c["mismatches"])]
           for c in report["cases"]]
    return digest(sem), 0


def _dist_rows(dist) -> list[list[str]]:
    return sorted([repr(lams), str(p)] for lams, p in dist)


def _check_dense(req, dist):
    from wkron import protocol
    from wkron.wstates import WClassState

    _require(sum(p for _, p in dist) == 1, "dense probabilities do not sum to 1")
    closed = protocol.sector_distribution(
        WClassState(tuple(Fraction(x) for x in req["weights"])), req["n"])
    _require(_dist_rows(dist) == _dist_rows(closed), "dense oracle differs from the closed form")
    return digest(_dist_rows(dist)), 0


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _exact_rational(s: str) -> Fraction:
    _require(all(ch.isdigit() or ch in "/-" for ch in s) and s, f"{s!r} is not an exact rational")
    return Fraction(s)


def _prob_rows(text: str) -> list[tuple[str, Fraction]]:
    rows = _csv_rows(text)
    _require(rows and rows[0][:4] == ["lambda", "p", "p_float", "cumulative"], "bad prob header")
    out = [(r[0], _exact_rational(r[1])) for r in rows[1:]]
    _require(out, "no probability rows")
    _require(all(p > 0 for _, p in out), "a listed probability is not positive")
    _require(sum(p for _, p in out) == 1, "probabilities do not sum to 1")
    _require(_exact_rational(rows[-1][3]) == 1, "cumulative column does not end at 1")
    return out


def _check_prob(req, result):
    rows = _prob_rows(result["stdout"])
    return digest([[lam, str(p)] for lam, p in rows]), 0


def _parse_lams(s: str):
    from wkron.partitions import parse_partition_tuple

    return parse_partition_tuple(s.strip("()"))


def _check_prob_ghz(req, result):
    from wkron import ghz
    from wkron.protocol import all_partition_tuples

    rows = _prob_rows(result["stdout"])
    alpha = Fraction(req["alpha"])
    for lam, p in rows:
        _require(p == ghz.sector_probability(_parse_lams(lam), alpha),
                 f"GHZ row {lam} differs from ghz.sector_probability")
    support = {repr(l) for l in all_partition_tuples(3, req["n"])
               if ghz.sector_probability(l, alpha) > 0}
    _require({lam for lam, _ in rows} == support, "GHZ rows miss a sector of the closed form")
    return digest([[lam, str(p)] for lam, p in rows]), 0


def _check_sample(req, result):
    from wkron import protocol
    from wkron.wstates import w_normal_form

    rows = _csv_rows(result["stdout"])
    _require(rows[0] == ["run", "lambda"], "bad sample header")
    outcomes = [r[1] for r in rows[1:]]
    _require(len(outcomes) == req["runs"], f"{len(outcomes)} outcomes for {req['runs']} runs")
    support = {repr(l) for l, _ in protocol.sector_distribution(w_normal_form(req["N"]), req["n"])}
    _require(set(outcomes) <= support, "a sampled sector has probability 0")
    return digest(outcomes), 0


def _check_spectrum(req, result):
    rows = _csv_rows(result["stdout"])
    _require(rows[0] == ["n", "lambda", "rank_index", "gamma"], "bad spectrum header")
    by_n: dict[int, list[float]] = {}
    for n, _, _, g in rows[1:]:
        by_n.setdefault(int(n), []).append(float(g))
    _require(sorted(by_n) == sorted(req["ns"]), f"spectra for {sorted(by_n)}, not {req['ns']}")
    for n, gs in by_n.items():
        _require(all(g > 0 for g in gs) and gs == sorted(gs, reverse=True),
                 f"n={n}: spectrum not positive and descending")
        _require(math.isclose(sum(gs), 1.0, abs_tol=1e-9), f"n={n}: spectrum sums to {sum(gs)}")
    return digest([[r[0], r[1], r[2], f"{float(r[3]):.9e}"] for r in rows[1:]]), 0


def _check_covariant(req, result):
    text = result["stdout"].strip()
    _require(text and text != "vanishes", "covariant vanishes")
    return digest(text), 0


CHECKS = {
    "kron-table": _check_kron_table,
    "kron-tables": _check_kron_tables,
    "verify": _check_verify,
    "dense": _check_dense,
    "prob": _check_prob,
    "prob-ghz": _check_prob_ghz,
    "sample": _check_sample,
    "spectrum": _check_spectrum,
    "covariant": _check_covariant,
}
