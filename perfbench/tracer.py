"""Layer tracing of the wkron package from outside its source.

Every wkron submodule is a layer.  `Tracer.install` replaces, at run time,
each module-level function binding held by any wkron module with a wrapper,
so calls between modules pass through the wrapper without any source edit.
A wrapper records a span only where a call crosses from one layer into
another (a layer boundary); calls inside a layer run through unrecorded.
The private scalar helpers of `exact` are left alone: they sit under the
SqrtRational and RadicalSum methods and would dominate the overhead.

A span is [name, start_ns, end_ns, parent, rss_start_kb, rss_end_kb], held in
memory per request.  Self time is a span's duration minus the duration of
its direct child spans; self RSS growth is the peak-RSS rise during the span
minus the rise during its children.

Counts of work come from returned values, read by the wrapper:
  kronstate.coeffs_built   coefficients of Kronecker vectors a kronstate call
                           built (not a cache hit, not a transform of a vector
                           passed in, not already counted by a nested call)
  protocol.sectors         sector blocks projected by the dense oracle
  protocol.dense_amplitudes  amplitudes of dense tensor powers built
  schur.b_entries          B coefficients stored by a schur cache on a miss
  probw.p_psi_calls / probw.p_psi_nonzero
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import time
from collections import Counter

ROOT_LAYER = "bench"


def wkron_modules() -> dict:
    """Every wkron submodule by layer name, imported."""
    import wkron

    mods = {}
    for info in pkgutil.iter_modules(wkron.__path__):
        if info.name != "__main__":
            mods[info.name] = importlib.import_module(f"wkron.{info.name}")
    return mods


def own_functions(layer: str, mod):
    """(name, function) for the module-level functions a module defines."""
    for name, obj in list(vars(mod).items()):
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if layer == "exact" and name.startswith("_"):
            continue
        yield name, obj


def caches(mods: dict) -> dict:
    """{"layer.name": lru_cache wrapper} for every function cache in wkron."""
    out = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) == mod.__name__ and hasattr(obj, "cache_info"):
                out[f"{layer}.{name}"] = obj
    return out


def cache_snapshot(cache_map: dict) -> dict:
    return {k: tuple(f.cache_info()) for k, f in cache_map.items()}


def _kron_count(res, kv_type):
    if kv_type is None:
        return None
    if isinstance(res, kv_type):
        return len(res.coeffs)
    if isinstance(res, dict) and res:
        first = next(iter(res.values()))
        if isinstance(first, kv_type):
            return sum(len(v.coeffs) for v in res.values())
    return None


def _sector_count(res, block_type):
    if block_type is not None and isinstance(res, dict) and res:
        if isinstance(next(iter(res.values())), block_type):
            return len(res)
    return None


def _dense_count(res, dense_type):
    if dense_type is not None and isinstance(res, dense_type):
        amps = res.amplitudes
        return len(amps) if isinstance(amps, dict) else int(amps.size)
    return None


def _table_entries(res):
    if isinstance(res, dict) and res:
        first = next(iter(res.values()))
        if isinstance(first, dict):
            return sum(len(v) for v in res.values())
    return None


class Tracer:
    """Spans and counters of one request process."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # per counted quantity: bumped on each count and on each cache hit in
        # its layer, so an enclosing call does not count the same vectors again
        self.marks: Counter = Counter()
        kron = mods.get("kronstate")
        proto = mods.get("protocol")
        self.counted = {
            "kronstate": [
                ("kronstate.coeffs_built",
                 lambda r, t=getattr(kron, "KroneckerVector", None): _kron_count(r, t)),
            ],
            "protocol": [
                ("protocol.sectors",
                 lambda r, t=getattr(proto, "SectorBlock", None): _sector_count(r, t)),
                ("protocol.dense_amplitudes",
                 lambda r, t=getattr(proto, "DenseState", None): _dense_count(r, t)),
            ],
        }
        self.kv_type = getattr(kron, "KroneckerVector", None)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, mod in self.mods.items():
            for name, fn in own_functions(layer, mod):
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        for mod in self.mods.values():
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        label = f"{layer}.{name}"
        call = self._counting_call(layer, name, fn)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            if spans[stack[-1]][0].startswith(layer + "."):
                return call(args, kwargs)
            idx = len(spans)
            spans.append([label, time.perf_counter_ns(), 0, stack[-1], _maxrss_kb(), 0])
            stack.append(idx)
            try:
                return call(args, kwargs)
            finally:
                stack.pop()
                span = spans[idx]
                span[2] = time.perf_counter_ns()
                span[5] = _maxrss_kb()

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def _counting_call(self, layer: str, name: str, fn):
        counts, marks = self.counts, self.marks
        cached = hasattr(fn, "cache_info")
        quantities = self.counted.get(layer, [])
        kv_type = self.kv_type

        if layer == "probw" and name == "p_psi":
            def call(args, kwargs):
                res = fn(*args, **kwargs)
                counts["probw.p_psi_calls"] += 1
                if res > 0:
                    counts["probw.p_psi_nonzero"] += 1
                return res
            return call

        if layer == "schur" and cached:
            def call(args, kwargs):
                misses = fn.cache_info().misses
                res = fn(*args, **kwargs)
                if fn.cache_info().misses != misses:
                    entries = _table_entries(res)
                    if entries is not None:
                        counts["schur.b_entries"] += entries
                return res
            return call

        if quantities:
            def call(args, kwargs):
                before = {q: marks[q] for q, _ in quantities}
                misses = fn.cache_info().misses if cached else None
                res = fn(*args, **kwargs)
                if cached and fn.cache_info().misses == misses:
                    for q, _ in quantities:
                        marks[q] += 1
                    return res
                if kv_type is not None and any(isinstance(a, kv_type) for a in args):
                    return res
                for q, count_of in quantities:
                    if marks[q] != before[q]:
                        continue
                    n = count_of(res)
                    if n is not None:
                        counts[q] += n
                        marks[q] += 1
                return res
            return call

        return lambda args, kwargs: fn(*args, **kwargs)

    # -- one request -----------------------------------------------------------

    def start(self) -> None:
        self.spans.append([f"{ROOT_LAYER}.request", time.perf_counter_ns(), 0, -1, _maxrss_kb(), 0])
        self.stack.append(0)
        self.active = True

    def stop(self) -> None:
        self.active = False
        root = self.spans[self.stack.pop()]
        root[2] = time.perf_counter_ns()
        root[5] = _maxrss_kb()

    def layer_totals(self) -> dict:
        """{layer: {"self_s", "calls", "rss_growth_mb"}} over this request."""
        child_ns = [0] * len(self.spans)
        child_kb = [0] * len(self.spans)
        for name, t0, t1, parent, r0, r1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
                child_kb[parent] += r1 - r0
        out: dict = {}
        for i, (name, t0, t1, parent, r0, r1) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            agg = out.setdefault(layer, {"self_s": 0.0, "calls": 0, "rss_growth_mb": 0.0})
            agg["self_s"] += (t1 - t0 - child_ns[i]) / 1e9
            agg["calls"] += 1
            agg["rss_growth_mb"] += (r1 - r0 - child_kb[i]) / 1024
        return out

    def write_spans(self, path, request_id: int) -> None:
        with open(path, "a") as fh:
            fh.write(json.dumps({"request": request_id, "spans": self.spans}) + "\n")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
