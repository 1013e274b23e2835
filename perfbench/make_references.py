"""Record the reference digests the benchmark compares results against.

    python3 perfbench/make_references.py

Covers every request of the default seed (0) at both sizes, and every
nonzero sector of the kron-one sizes, so kron-one is compared on any seed.
Requests run warm in this one process; each result must pass its check
before its digest is recorded.  Rerun only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

DEFAULT_SEED = 0


def requests() -> dict[str, dict]:
    out = {}
    for size in workloads.SIZES:
        for w in workloads.WORKLOADS:
            for req in workloads.generate(w, DEFAULT_SEED, size):
                out.setdefault(req["key"], req)
    for N, n, _ in workloads.SIZES["full"]["kron_one"]:
        for lam in workloads.nonzero_sectors(N, n):
            req = workloads.kron_request(lam)
            out.setdefault(req["key"], req)
    return out


def main() -> int:
    refs = {}
    for key, req in sorted(requests().items()):
        result = workloads.execute(req, workloads.prepare(req))
        refs[key], _ = workloads.check(req, result)
    path = HERE / "references.json"
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
