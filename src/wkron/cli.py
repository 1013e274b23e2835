"""Command-line surface: emits the coefficient tables, sector probability
tables, and GHZ residual-spectrum data as JSON/CSV artifacts.

Exit codes: 0 success, 1 internal inconsistency (oracle mismatch),
2 bad input, an --out that cannot be written included, 141 a reader that
closed stdout early.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from itertools import accumulate, chain, islice

from . import covariants, ghz, kronstate, probw, protocol
from .exact import InconsistencyError, SqrtRational
from .partitions import kron_coeff, parse_partition_tuple, w_admissible
from .wstates import parse_w_state, w_normal_form


def _write(pieces, out: str | None):
    """Write the text pieces to stdout, or to the file out.  A file that
    cannot be opened or written is bad input, named with the system's reason."""
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(pieces)
    except OSError as exc:
        if not out:
            raise
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _write_csv(header: list[str], rows, out: str | None):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write([buf.getvalue()], out)


def _write_json(obj, out: str | None):
    """Write obj as JSON with a one-space indent, and a newline.  The text
    goes out in pieces of a few thousand chunks, so a large table's text is
    never held whole."""
    chunks = json.JSONEncoder(indent=1).iterencode(obj)
    _write(chain(iter(lambda: "".join(islice(chunks, 4096)), ""), ["\n"]), out)


def _parse_state(spec: str, parties: int | None):
    if spec in ("W", "w"):
        return w_normal_form(3 if parties is None else parties)
    try:
        if spec.startswith("ghz:"):
            return protocol.GHZState(Fraction(spec[4:]), 3 if parties is None else parties)
        state = parse_w_state(spec)
    except ZeroDivisionError as exc:
        raise ValueError(f"state {spec!r} has a zero denominator") from exc
    if parties is not None and parties != state.num_parties:
        raise ValueError(f"--parties {parties} inconsistent with {state.num_parties}-party weights")
    return state


# Bound on a sector's support, the product of its dimensions, for which
# `wkron kron` builds the Kronecker vector.  Cost follows the product: the
# whole `wkron kron` call took 14 s and 396 MB peak RSS for (9,3)^3 at n=12
# (product 3.65M, 618k coefficients; khat alone 4.0 s and 214 MB) and 21 s
# and 604 MB for (9,2)^4 at n=11 (3.75M), while khat alone took 12.8 s and
# 646 MB for (8,4)^3 (20.8M), on a 2-core VM with Python 3.11.
KRON_SUPPORT_CAP = 4_000_000
# Bound on n for `wkron kron`, checked before any dimension is formed.  Past
# it, stages outside the Kronecker coefficient run long even in a small
# support: (400,0)^3 spent 3.3 s in Z and (299,1;299,1;300,0) 5.6 s in khat,
# and the eta of (300,0)^10 has more digits than Python's 4300-digit
# int-to-str limit lets JSON write ((48,0)^80 already stops there).
KRON_N_CAP = 48


def cmd_kron(args) -> int:
    lams = parse_partition_tuple(args.lam)
    if lams.n < 1:
        raise ValueError("n must be >= 1")
    if lams.n > KRON_N_CAP:
        raise ValueError(
            f"sector {lams} has n = {lams.n}, over the cap of n <= {KRON_N_CAP}")
    if args.parties is not None and args.parties != lams.num_parties:
        raise ValueError(
            f"--parties {args.parties} inconsistent with {lams.num_parties}-party lambda")
    if not w_admissible(lams):
        raise ValueError(f"inadmissible partition tuple {lams}")
    support = math.prod(kronstate.sector_dims(lams))
    if support > KRON_SUPPORT_CAP:
        raise ValueError(f"sector {lams} has support {support} (the product of its dimensions), "
                         f"over the cap of {KRON_SUPPORT_CAP}")
    k = kron_coeff(lams)
    kv = kronstate.khat(lams.num_parties, lams.n, lams)
    if kv.is_zero:
        raise ValueError(f"sector {lams} carries no Kronecker support")
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
    _write_json(table, args.out)
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
    try:
        alpha = Fraction(args.alpha)
    except ZeroDivisionError as exc:
        raise ValueError(f"alpha {args.alpha!r} has a zero denominator") from exc
    ns = [int(tok) for tok in args.copies_list.split(",")]
    _write_csv(["n", "lambda", "rank_index", "gamma"], ghz.spectrum_rows(ns, alpha), args.out)
    return 0


def cmd_covariant(args) -> int:
    state = _parse_state(args.state, args.parties)
    if isinstance(state, protocol.GHZState):
        raise ValueError("covariant takes a W-class state, not a GHZ state")
    nu = tuple(int(tok) for tok in args.nu.split(","))
    poly = covariants.theorem2_form(state, args.copies, nu)
    # the work budget has priced the coefficients' digits, so Python's
    # int-to-str limit (none before 3.10.7) is lifted while they are formatted
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        text = "vanishes" if poly is None else covariants.format_poly(poly)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    _write([text, "\n"], args.out)
    return 0


def cmd_sample(args) -> int:
    state = _parse_state(args.state, args.parties)
    outs = protocol.sample_outcomes(state, args.copies, args.seed, args.runs)
    _write_csv(["run", "lambda"], ([i, str(lams)] for i, lams in enumerate(outs)), args.out)
    return 0


def cmd_verify(args) -> int:
    report = protocol.verify_report(((3, args.nmax3), (4, args.nmax4)))
    _write_json(report, args.out)
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
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the interpreter's final
        # flush prints nothing; 141 is what a shell reports for a writer
        # that SIGPIPE ends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except protocol.InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
