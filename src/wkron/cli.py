"""Command-line surface: emits the coefficient tables, sector probability
tables, and GHZ residual-spectrum data as JSON/CSV artifacts.

Exit codes: 0 success, 1 internal inconsistency (oracle mismatch),
2 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from fractions import Fraction
from itertools import accumulate, islice

from . import covariants, ghz, kronstate, probw, protocol
from .exact import InconsistencyError, SqrtRational
from .partitions import kron_coeff, parse_partition_tuple, w_admissible
from .wstates import parse_w_state, w_normal_form


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(header: list[str], rows, out: str | None):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write(buf.getvalue(), out)


def _write_json(obj, out: str | None, indent: int | None = None):
    """Write obj as JSON and a newline.  The text goes out in pieces of a few
    thousand chunks, so a large table's text is never held whole."""
    chunks = json.JSONEncoder(indent=indent).iterencode(obj)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        while piece := "".join(islice(chunks, 4096)):
            fh.write(piece)
        fh.write("\n")


def _parse_state(spec: str, parties: int | None):
    if spec in ("W", "w"):
        return w_normal_form(3 if parties is None else parties)
    if spec.startswith("ghz:"):
        return protocol.GHZState(Fraction(spec[4:]), 3 if parties is None else parties)
    state = parse_w_state(spec)
    if parties is not None and parties != state.num_parties:
        raise ValueError(f"--parties {parties} inconsistent with {state.num_parties}-party weights")
    return state


def cmd_kron(args) -> int:
    lams = parse_partition_tuple(args.lam)
    if lams.n > protocol.KRON_N_CAP:
        print(f"sector {lams} has n = {lams.n}, over the cap of n <= {protocol.KRON_N_CAP}",
              file=sys.stderr)
        return 2
    if args.parties is not None and args.parties != lams.num_parties:
        print(
            f"--parties {args.parties} inconsistent with {lams.num_parties}-party lambda",
            file=sys.stderr,
        )
        return 2
    if not w_admissible(lams):
        print(f"inadmissible partition tuple {lams}", file=sys.stderr)
        return 2
    support = math.prod(kronstate.sector_dims(lams))
    if support > protocol.KRON_SUPPORT_CAP:
        print(
            f"sector {lams} has support {support} (the product of its dimensions), "
            f"over the cap of {protocol.KRON_SUPPORT_CAP}",
            file=sys.stderr,
        )
        return 2
    k = kron_coeff(lams)
    kv = kronstate.khat(lams.num_parties, lams.n, lams)
    if kv.is_zero:
        print(f"sector {lams} carries no Kronecker support", file=sys.stderr)
        return 2
    # eta^2 by two routes: the integer stencil and the coefficients' sum
    eta_sq, norm_sq = kronstate.eta_sq(lams), kv.norm_sq()
    if eta_sq != norm_sq:
        raise InconsistencyError(
            f"sector {lams}: eta^2 is {eta_sq} by the stencil but {norm_sq} by the coefficients")
    # the unnormalized vector is dropped before the table is built
    kv = kronstate.normalized(kv)
    table = kronstate.to_table_json(kv)
    table["eta"] = SqrtRational.sqrt(eta_sq).to_json()
    table["p_w"] = str(probw.p_w(lams))
    table["kron_coeff"] = k
    _write_json(table, args.out, indent=1)
    return 0


def cmd_prob(args) -> int:
    """Exact sector probability table from `protocol.sector_distribution`:
    closed forms for W-class and GHZ states alike, nonzero rows only.  The
    `source` column stays for CSV readers and reads `closed-form` on every
    row."""
    state = _parse_state(args.state, args.parties)
    rows = sorted(protocol.sector_distribution(state, args.copies), key=lambda t: str(t[0]))
    cumulative = accumulate(p for _, p in rows)
    _write_csv(
        ["lambda", "p", "p_float", "cumulative", "source"],
        ([str(lams), str(p), float(p), str(acc), "closed-form"]
         for (lams, p), acc in zip(rows, cumulative)),
        args.out,
    )
    return 0


def cmd_ghz_spectrum(args) -> int:
    alpha = Fraction(args.alpha)
    ns = [int(tok) for tok in args.copies_list.split(",")]
    _write_csv(["n", "lambda", "rank_index", "gamma"], ghz.spectrum_rows(ns, alpha), args.out)
    return 0


def cmd_covariant(args) -> int:
    state = _parse_state(args.state, args.parties)
    nu = tuple(int(tok) for tok in args.nu.split(","))
    poly = covariants.theorem2_form(state, args.copies, nu)
    if poly is None:
        _write("vanishes\n", args.out)
    else:
        _write(covariants.format_poly(poly) + "\n", args.out)
    return 0


def cmd_sample(args) -> int:
    state = _parse_state(args.state, args.parties)
    outs = protocol.sample_outcomes(state, args.copies, args.seed, args.runs)
    _write_csv(["run", "lambda"], ([i, str(lams)] for i, lams in enumerate(outs)), args.out)
    return 0


def cmd_verify(args) -> int:
    report = protocol.verify_report(((3, args.nmax3), (4, args.nmax4)))
    _write_json(report, args.out, indent=1)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wkron",
        description="Exact W-class entanglement-concentration toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, state=False):
        p.add_argument("--out", default=None)
        if state:
            p.add_argument("--parties", type=int, default=None)
            p.add_argument("--state", default="W", help="W | ghz:ALPHA | c0,c1,...,cN")

    p = sub.add_parser("kron", help="Kronecker-state coefficient table (JSON)")
    common(p)
    p.add_argument("--parties", type=int, default=None)
    p.add_argument("--lambda", dest="lam", required=True, help='partition tuple "a,b;a,b;..."')
    p.set_defaults(func=cmd_kron)

    p = sub.add_parser("prob", help="sector probability table (CSV)")
    common(p, state=True)
    p.add_argument("--copies", type=int, required=True)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("ghz-spectrum", help="GHZ residual Schmidt spectra (CSV)")
    common(p)
    p.add_argument("--copies", dest="copies_list", required=True, help="comma list of n")
    p.add_argument("--alpha", default="1/3")
    p.set_defaults(func=cmd_ghz_spectrum)

    p = sub.add_parser("covariant", help="closed-form W-class covariant, pretty-printed")
    common(p, state=True)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--nu", required=True, help="comma list of per-party x-degrees")
    p.set_defaults(func=cmd_covariant)

    p = sub.add_parser("sample", help="sample measurement outcomes (CSV)")
    common(p, state=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--runs", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="oracle-vs-recurrence master suite (JSON report)")
    common(p)
    p.add_argument("--nmax3", type=int, default=5, help="max copies for N=3")
    p.add_argument("--nmax4", type=int, default=4, help="max copies for N=4")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except protocol.InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
