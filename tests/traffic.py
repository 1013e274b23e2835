"""List the package's functions that no traffic calls.

    python tests/traffic.py

One process runs three sets of traffic under a `sys.setprofile` tracer:

- the benchmark's smoke requests for every workload on seeds 1 and 2,
  through `perfbench/workloads.py`'s `generate`, `prepare` and `execute`;
- every `wkron` command line that a CI step runs (`CI_ARGV`), and the three
  CI steps that call the library directly (`ci_library_steps`);
- the four demos, with their stdout discarded.

Every module-level function and method defined in `src/wkron` (found with
`ast`) that no traffic called is printed.  A function that only the tests
call is a second route or dead code, and belongs in `tests/oracles.py` or
nowhere.  The script exits 1 when an uncalled name is missing from
`ALLOWED`, or when an `ALLOWED` name is called or gone, and 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wkron"

# Uncalled by all of the traffic above, each kept in the package for its reason.
ALLOWED = {
    "probw.p_psi": "the benchmark's tracer counts calls to it by name",
    "exact.SqrtRational.__neg__": "arithmetic on the scalar, not a route to a quantity",
    "partitions.TwoRowPartition.__repr__": "the display form that error messages print",
    "partitions.TwoRowPartition.__getnewargs__":
        "pickle and copy call it; no CLI, benchmark or demo traffic pickles",
    "exact.SqrtRational.__getnewargs__":
        "pickle and copy call it; no CLI, benchmark or demo traffic pickles",
}

# The distinct argv of the `wkron` calls in .github/workflows/tests.yml, in step order.
CI_ARGV = [
    "verify --nmax3 6 --nmax4 4",
    "kron --lambda 48,0;48,0;48,0",
    "kron --lambda 600000,400000;600000,400000;800000,200000",
    "kron --lambda 6,3;6,3;6,3",
    "kron --lambda 5,2;5,2;5,2;6,1",
    "prob --parties 3 --copies 24",
    "prob --parties 4 --copies 24",
    "prob --parties 8 --copies 8",
    "prob --parties 10 --copies 6",
    "prob --parties 12 --copies 6",
    "prob --state ghz:1/3 --copies 24",
    "covariant --state 1/12,1/4,1/3,1/3 --copies 24 --nu 24,24,24",
    "covariant --parties 4 --copies 12 --nu 12,12,12,12",
    "ghz-spectrum --copies 30,60,90 --alpha 1/3",
]

SMOKE_SEEDS = (1, 2)


def defined() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.name" or "module.Class.name" for every
    module-level function and method; the first line is the first
    decorator's, as in a code object's co_firstlineno."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(path.stem, tree.body)]
        scopes += [(f"{path.stem}.{c.name}", c.body) for c in tree.body
                   if isinstance(c, ast.ClassDef)]
        for prefix, body in scopes:
            for f in body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                    out[(str(path), first)] = f"{prefix}.{f.name}"
    return out


def ci_library_steps(*table_texts: str):
    """The CI steps that check the dense oracle against the closed form at
    the two-party cap, and round-trip the (6,3)^3 and (5,2;5,2;5,2;6,1)
    tables given as text."""
    from wkron.exact import SqrtRational
    from wkron.kronstate import from_table_json, to_table_json, verify_lemma1
    from wkron.protocol import sector_distribution
    from wkron.wstates import WClassState

    raw = [SqrtRational.sqrt(Fraction(1, 6)), SqrtRational.sqrt(Fraction(1, 2)),
           SqrtRational.sqrt(Fraction(1, 3)), 0]
    sector_distribution(raw, 9)
    sector_distribution(WClassState((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))), 9)
    for text in table_texts:
        kv = from_table_json(json.loads(text))
        to_table_json(kv)
        kv.norm_sq()
        for party in range(kv.lams.num_parties):
            verify_lemma1(kv, party)


def run_traffic():
    from wkron import cli
    import workloads

    for workload in workloads.WORKLOADS:
        for seed in SMOKE_SEEDS:
            for req in workloads.generate(workload, seed, "smoke"):
                workloads.execute(req, workloads.prepare(req))
    stdout = {}
    for argv in CI_ARGV:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv.split())
        stdout[argv] = out.getvalue()
    ci_library_steps(stdout["kron --lambda 6,3;6,3;6,3"], stdout["kron --lambda 5,2;5,2;5,2;6,1"])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_traffic()
    finally:
        sys.setprofile(None)
    called = {(c.co_filename, c.co_firstlineno) for c in codes}
    names = defined()
    uncalled = sorted(name for key, name in names.items() if key not in called)
    for name in uncalled:
        print(f"uncalled: {name}: {ALLOWED.get(name, 'NOT ALLOWED')}")
    stale = sorted(set(ALLOWED) - set(uncalled))
    for name in stale:
        print(f"allowed but called or gone: {name}")
    return 1 if stale or set(uncalled) - set(ALLOWED) else 0


if __name__ == "__main__":
    sys.exit(main())
