"""Benchmark of wkron: one closed-loop client, one cold process per request.

    python3 perfbench/run.py --workload kron-one --seed 0 --seconds 24 --trace 0

Each request runs in its own process, forked from this one after `import
wkron` and before any wkron cache holds an entry, so it starts with every
package cache empty, as a CLI call does.  Requests run one at a time with
WKRON_WORKERS unset.  The run's requests are drawn from --seed, and the run
goes over them R = floor(--seconds / pass cost) times (see workloads.py).
Every result is checked after its timed window.  The first run of a
request gets the full check of workloads.py; each later run must reproduce
that run's output exactly.  A request fails if it raises, exits non-zero,
fails its check, starts with a warm cache, or differs from the recorded
reference or from its first run.

The host's speed per core swings by up to twice between quiet and loaded
spells lasting seconds, independently on each core, in CPU time as much as
in wall time.  So each set-up and request process is pinned to the core
that a short probe finds quickest at that moment, and while it runs this
process wakes every PROBE_EVERY_S on the same core to time a fixed bit of
work (SpeedLog).  Every time below is a measured time scaled to the
reference speed at which that work takes PROBE_REF_S: the measured span,
less the probes inside it, times the mean of PROBE_REF_S / probe time over
the probes from just before it to just after it.  A request's latency is
the fastest of its R cold runs.  The details line gives the unscaled times
and the median probe ratio, so that a run in a loaded spell shows as one.

--trace 0 prints the end-to-end metrics:
  setup_s         median over SETUP_REPEATS fresh interpreters of interpreter
                  start, `import wkron` and request generation
  wall_s          time to finish the request list: sum of request latencies
                  (process start-up and checks excluded)
  latency_p50_s   median request latency
  latency_tail_s  latency at the highest percentile with at least ten requests
                  beyond it; the maximum when a run has fewer than 21
                  requests
  (these four are times scaled to the reference speed, as above)
  peak_rss_mb     highest peak RSS of one request process
--trace 1 goes over the requests ceil(R / 2) times, each time once untraced
and once traced, and prints the per-layer metrics (means per traced request;
see tracer.py).  Spans go to perfbench/out/trace-<workload>-seed<seed>.jsonl.

Lines before the last give the run's details and provenance; the last line
is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
REQUEST_TIMEOUT_S = 150
DEFAULT_REFERENCES = HERE / "references.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_LAYERS = ("kronstate", "schur", "protocol", "probw", "wstates", "ghz",
                    "partitions", "covariants", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="wkron benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--references", type=Path, default=DEFAULT_REFERENCES)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_only(args) -> int:
    """Import wkron and print the request list; timed by the parent."""
    sys.path.insert(0, str(SRC))
    import wkron  # noqa: F401

    reqs = workloads.generate(args.workload, args.seed, args.size)
    print(json.dumps(reqs))
    return 0


# Speed probes: while a set-up or request process runs on this process's core,
# this process wakes every PROBE_EVERY_S and times _speed_work, 0.5-1 ms of
# the integer, Fraction and dict work wkron does.  PROBE_REF_S is that work's
# time on a quiet core of a 2-core Xeon VM; times are scaled to that speed.
PROBE_EVERY_S = 0.025
PROBE_REF_S = 0.00055


def _speed_work() -> int:
    x = 0
    for _ in range(3):
        s, d = Fraction(0), {}
        for i in range(1, 40):
            s += Fraction(i, i * i + 1)
            d[(i, s.denominator % 97)] = [i] * 4
            for j in range(20):
                x += i * j % 7
        x += len(d)
    return x


def pin_quickest_core(cores: list[int]) -> None:
    """Pin this process, and so the next process it starts, to the core that
    runs _speed_work fastest now."""
    timings = []
    for core in cores:
        os.sched_setaffinity(0, {core})
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _speed_work()
            best = min(best, time.perf_counter() - t0)
        timings.append((best, core))
    os.sched_setaffinity(0, {min(timings)[1]})


@dataclass
class SpeedLog:
    """(start, end) of each speed probe taken on the pinned core."""

    probes: list = field(default_factory=list)

    def probe(self) -> None:
        t0 = time.perf_counter()
        _speed_work()
        self.probes.append((t0, time.perf_counter()))

    def wait_probing(self, fd: int, timeout: float) -> bytes:
        """Read fd to its end, probing whenever it stays quiet PROBE_EVERY_S."""
        deadline = time.perf_counter() + timeout
        self.probe()
        chunks = []
        while True:
            ready, _, _ = select.select([fd], [], [], PROBE_EVERY_S)
            if not ready:
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"no end of output within {timeout} s")
                self.probe()
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
        self.probe()
        return b"".join(chunks)

    def scaled(self, t0: float, t1: float) -> float:
        """The span [t0, t1], less the probes inside it, at the reference speed."""
        busy = sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.probes)
        before = [i for i, (a, _) in enumerate(self.probes) if a <= t0]
        after = [i for i, (_, b) in enumerate(self.probes) if b >= t1]
        lo = before[-1] if before else 0
        hi = after[0] if after else len(self.probes) - 1
        window = self.probes[lo: hi + 1]
        ratio = statistics.fmean(PROBE_REF_S / (b - a) for a, b in window)
        return (t1 - t0 - busy) * ratio

    def median_ratio(self) -> float:
        return statistics.median(PROBE_REF_S / (b - a) for a, b in self.probes)


def measure_setup(args, cores, speed: SpeedLog) -> tuple[list[float], list[float], list[dict]]:
    """Scaled and unscaled set-up times, and the request list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    times, raw, out = [], [], b""
    for _ in range(SETUP_REPEATS):
        pin_quickest_core(cores)
        speed.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        try:
            out = speed.wait_probing(proc.stdout.fileno(), SETUP_TIMEOUT_S)
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{out.decode(errors='replace').strip()}")
        times.append(speed.scaled(t0, t1))
        raw.append(t1 - t0)
    return times, raw, json.loads(out.decode().splitlines()[-1])


# -- one request process ---------------------------------------------------------


@dataclass
class Context:
    mods: dict
    cache_map: dict
    span_path: Path
    cores: list[int]
    speed: SpeedLog


def run_request(req: dict, traced: bool, full_check: bool, ctx: Context) -> dict:
    """Fork, run one request cold in the child, return its report."""
    pin_quickest_core(ctx.cores)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            signal.alarm(REQUEST_TIMEOUT_S)
            report = _child(req, traced, full_check, ctx)
        except BaseException as exc:  # the child must always report
            report = {"ok": False, "why": f"{type(exc).__name__}: {exc}"}
        with os.fdopen(w, "wb") as fh:
            fh.write(json.dumps(report).encode())
        os._exit(0)
    os.close(w)
    try:
        data = ctx.speed.wait_probing(r, REQUEST_TIMEOUT_S + 10)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        _, status, _ = os.wait4(pid, 0)
    if not data:
        return {"ok": False, "why": f"request process ended with status {status}, no report"}
    rep = json.loads(data)
    if "t0" in rep:
        rep["raw_latency_s"] = rep["t1"] - rep["t0"]
        rep["latency_s"] = ctx.speed.scaled(rep["t0"], rep["t1"])
    return rep


def _child(req: dict, traced: bool, full_check: bool, ctx: Context) -> dict:
    tr = None
    if traced:
        tr = tracer.Tracer(ctx.mods)
        tr.install()
    prepared = workloads.prepare(req)
    before = tracer.cache_snapshot(ctx.cache_map)
    error = None
    if tr:
        tr.start()
    t0 = time.perf_counter()
    try:
        result = workloads.execute(req, prepared)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tr:
        tr.stop()
    report = {
        "t0": t0,
        "t1": t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold": all(info[3] == 0 for info in before.values()),
        "caches": tracer.cache_snapshot(ctx.cache_map),
        "ok": error is None,
        "coeffs_out": 0,
    }
    if error is not None:
        report["why"] = error
    else:
        try:
            report["output"] = workloads.output_digest(req, result)
            if full_check:
                report["digest"], report["coeffs_out"] = workloads.check(req, result)
        except Exception as exc:
            report.update(ok=False, why=f"check: {type(exc).__name__}: {exc}")
    if tr:
        report["layers"] = tr.layer_totals()
        report["counts"] = dict(tr.counts)
        tr.write_spans(ctx.span_path, req["id"])
    return report


# -- metrics -----------------------------------------------------------------------


def judge(req: dict, rep: dict, first: dict | None, refs: dict) -> None:
    """Mark a report failed where it breaks a rule; `first` is the request's
    first fully checked report, None when this report had the full check."""
    if rep["ok"] and not rep["cold"]:
        rep.update(ok=False, why="a wkron cache held entries before the request")
    elif rep["ok"] and first is None:
        if refs.get(req["key"], rep["digest"]) != rep["digest"]:
            rep.update(ok=False, why="result differs from the recorded reference")
    elif rep["ok"]:
        if rep["output"] != first["output"]:
            rep.update(ok=False, why="output differs from the first run of the request")
        rep["coeffs_out"] = first["coeffs_out"]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, requests beyond) at the highest percentile with
    at least ten requests beyond it.  Below 21 requests that percentile would
    lie under the median, so the maximum stands in for it."""
    xs = sorted(latencies)
    i = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def best_latencies(runs, key="latency_s") -> list[float]:
    """Per request, the fastest of its runs."""
    return [min(r[key] for r in reps if key in r) for reps in runs
            if any(key in r for r in reps)]


def end_to_end(setup_times, runs, speed: SpeedLog) -> tuple[dict, dict]:
    lat = best_latencies(runs)
    t, pct, beyond = tail(lat)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": t,
        "peak_rss_mb": max(r["peak_rss_mb"] for reps in runs for r in reps
                           if "peak_rss_mb" in r),
    }
    return values, {"speed_ratio_median": speed.median_ratio(),
                    "latency_tail_percentile": pct, "latency_tail_beyond": beyond,
                    "latency_samples": len(lat), "request_latencies_s": lat,
                    "request_latencies_unscaled_s": best_latencies(runs, "raw_latency_s")}


def _cache_totals(reports, cache_map, layer, part):
    names = [k for k in cache_map if k.startswith(layer + ".") and part in k]
    if not names:
        return None
    hits = misses = size = 0
    for r in reports:
        for k in names if "caches" in r else ():
            h, m, _, cur = r["caches"][k]
            hits, misses, size = hits + h, misses + m, size + cur
    return hits, misses, size


def per_layer(plain_runs, traced_runs, cache_map) -> tuple[dict, list[str]]:
    """Per-layer metrics: means per traced request, ratios over run totals."""
    traced = [r for reps in traced_runs for r in reps]
    n = len(traced)
    layers: dict = {}
    counts: dict = {}
    for r in traced:
        for layer, agg in r.get("layers", {}).items():
            tot = layers.setdefault(layer, {"self_s": 0.0, "calls": 0, "rss_growth_mb": 0.0})
            for k, v in agg.items():
                tot[k] += v
        for k, v in r.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v
    values: dict = {}
    zero = {"self_s": 0.0, "calls": 0, "rss_growth_mb": 0.0}
    for layer in PER_LAYER_LAYERS:
        agg = layers.get(layer, zero)
        values[f"{layer}.self_s"] = agg["self_s"] / n
        values[f"{layer}.calls"] = agg["calls"] / n
    for layer in ("kronstate", "schur", "protocol"):
        values[f"{layer}.rss_growth_mb"] = layers.get(layer, zero)["rss_growth_mb"] / n
    values["exact.calls"] = layers.get("exact", zero)["calls"] / n

    built = counts.get("kronstate.coeffs_built", 0)
    out = sum(r["coeffs_out"] for r in traced)
    kron_self = layers.get("kronstate", zero)["self_s"]
    values["kronstate.coeffs_out"] = out / n
    values["kronstate.coeffs_built"] = built / n
    values["kronstate.useful_ratio"] = out / built if built else 0.0
    values["kronstate.coeffs_per_s"] = built / kron_self if kron_self else 0.0
    values["protocol.sectors"] = counts.get("protocol.sectors", 0) / n
    values["protocol.dense_amplitudes"] = counts.get("protocol.dense_amplitudes", 0) / n
    calls = counts.get("probw.p_psi_calls", 0)
    values["probw.p_psi_calls"] = calls / n
    values["probw.nonzero_ratio"] = counts.get("probw.p_psi_nonzero", 0) / calls if calls else 0.0

    absent = []
    if any(k.startswith("schur.") for k in cache_map):
        values["schur.b_entries"] = counts.get("schur.b_entries", 0) / n
    else:
        absent.append("schur.b_entries")
    for layer, part, prefix in (("probw", "z_count", "probw.z"), ("ghz", "louck", "ghz.louck"),
                                ("exact", "squarefree", "exact.squarefree")):
        tot = _cache_totals(traced, cache_map, layer, part)
        names = [f"{prefix}_lookups", f"{prefix}_hit_ratio"]
        if layer == "exact":
            names.append("exact.squarefree_entries")
        if tot is None:
            absent.extend(names)
            continue
        hits, misses, size = tot
        values[f"{prefix}_lookups"] = (hits + misses) / n
        values[f"{prefix}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        if layer == "exact":
            values["exact.squarefree_entries"] = size / n

    values["trace.overhead_ratio"] = (sum(best_latencies(traced_runs))
                                      / sum(best_latencies(plain_runs)) - 1)
    return values, absent


PER_LAYER_UNITS = {
    "self_s": "s", "calls": "count", "rss_growth_mb": "MB", "coeffs_out": "count",
    "coeffs_built": "count", "useful_ratio": "ratio", "coeffs_per_s": "1/s",
    "sectors": "count", "dense_amplitudes": "count", "b_entries": "count",
    "p_psi_calls": "count", "nonzero_ratio": "ratio", "z_lookups": "count",
    "z_hit_ratio": "ratio", "louck_lookups": "count", "louck_hit_ratio": "ratio",
    "squarefree_lookups": "count", "squarefree_hit_ratio": "ratio",
    "squarefree_entries": "count", "overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER_UNITS[name.split(".", 1)[1]]


# -- provenance --------------------------------------------------------------------


def provenance(args, n_requests: int, n_repeats: int, cores: list[int]) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "wkron").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "requests": n_requests,
        "repeats": n_repeats,
        "nproc": os.cpu_count(),
        "cpus_usable": len(cores),
        "mem_total_gb": round(mem_kb / 2**20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# -- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    cores = sorted(os.sched_getaffinity(0))
    speed = SpeedLog()
    try:
        setup_times, setup_raw, reqs = measure_setup(args, cores, speed)
    except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    refs = json.loads(args.references.read_text()) if args.references.exists() else {}

    sys.path.insert(0, str(SRC))
    mods = tracer.wkron_modules()
    cache_map = tracer.caches(mods)
    os.environ.pop("WKRON_WORKERS", None)
    span_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    ctx = Context(mods, cache_map, span_path, cores, speed)

    n_repeats = workloads.repeats(args.workload, args.size, args.seconds)
    if args.trace:
        n_repeats = math.ceil(n_repeats / 2)
        span_path.parent.mkdir(exist_ok=True)
        span_path.write_text("")
    # request processes then leave the inherited heap alone when they collect
    gc.collect()
    gc.freeze()

    plain = [[] for _ in reqs]
    traced = [[] for _ in reqs]
    first: dict[int, dict] = {}
    failures = []
    for _ in range(n_repeats):
        for i, req in enumerate(reqs):
            for runs, on in ((plain, False), (traced, True))[: 1 + args.trace]:
                rep = run_request(req, on, i not in first, ctx)
                judge(req, rep, first.get(i), refs)
                if rep["ok"]:
                    first.setdefault(i, rep)
                else:
                    failures.append(f"request {i} ({req['key'][:80]}): {rep['why']}")
                runs[i].append(rep)

    reports = [r for reps in plain + traced for r in reps]
    failed = sum(not r["ok"] for r in reports)
    if args.trace:
        values, absent = per_layer(plain, traced, cache_map)
        extra = {"absent": absent, "spans": str(span_path.relative_to(ROOT))}
    else:
        values, extra = end_to_end(setup_times, plain, speed)
    details = {
        "failed_ratio": failed / len(reports),
        "setup_runs_s": setup_times,
        "setup_runs_unscaled_s": setup_raw,
        **extra,
        "failures": failures[:20],
    }
    print(json.dumps({"provenance": provenance(args, len(reqs), n_repeats, cores)}))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
