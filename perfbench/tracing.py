"""Spans recorded from outside the library, and the per-layer metrics.

The tracer wraps public functions at module boundaries, as bound in the
module that calls them, so no file under ``src/`` changes:

    sweep.g_bessel            -> span "counting.g_bessel"   (rows of a sweep)
    counting.bessel_j_half    -> span "specfun.bessel_j_half"
    xform.bromwich            -> span "xform.bromwich"
    trace.hyperbolic_trace    -> span "trace.hyperbolic_trace"
    trace.spectral_trace      -> span "trace.spectral_trace"
    hyperbolic.cylinder_trace -> span "hyperbolic.cylinder_trace"

Spans are kept in memory with their parent's id and written out when the
benchmark ends. A span opened on a thread with no open span (a sweep
row on a pool worker) takes the benchmark operation open in the caller
as its parent. Self time is a span's duration minus the part of it its
children cover.

Blind spot: fractional-weight rows call ``scipy.special.jv`` directly
from ``counting``, so ``specfun.terms`` does not count them and their
kernel time cannot be split from the series; only their total time is
reported (``counting.frac_rows_s``) until the library reports its own
counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import statistics
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: int | None = None  # benchmark op open in the caller

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else self._op
        rec = {"id": sid, "parent": parent, "name": name,
               "thread": threading.get_ident(), **attrs}
        stack.append(sid)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span for one benchmark operation."""
        with self.span("bench.op", label=label) as rec:
            self._op = rec["id"]
            try:
                yield rec
            finally:
                self._op = None

    def wrap(self, name, fn, attrs=None, result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})) as rec:
                out = fn(*args, **kwargs)
                if result:
                    rec.update(result(out))
                return out
        return traced


def _row_attrs(ps, w, T, *rest, **kw):
    return {"w": float(w), "T": float(T), "ells": ps.ells}


# (module, attribute, span name, attrs from call args, attrs from result)
_BOUNDARIES = (
    ("pinchtrace.sweep", "g_bessel", "counting.g_bessel", _row_attrs, None),
    ("pinchtrace.counting", "bessel_j_half", "specfun.bessel_j_half",
     lambda n, x, *a, **k: {"points": int(np.size(x))}, None),
    ("pinchtrace.xform", "bromwich", "xform.bromwich",
     None, lambda res: {"evaluations": int(res.evaluations)}),
    ("pinchtrace.trace", "hyperbolic_trace", "trace.hyperbolic_trace",
     lambda ls, z, *a, **k: {"nodes": int(np.size(z))}, None),
    ("pinchtrace.trace", "spectral_trace", "trace.spectral_trace",
     lambda sd, z, *a, **k: {"nodes": int(np.size(z))}, None),
    ("pinchtrace.hyperbolic", "cylinder_trace", "hyperbolic.cylinder_trace", None, None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the duration of the block, then restore."""
    saved = []
    try:
        for mod_name, attr, name, attrs, result in _BOUNDARIES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn, attrs, result))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ------------------------------------------------------------------ analysis

def _dur_ns(s) -> int:
    return s["end_ns"] - s["start_ns"]


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, cur_lo, cur_hi = 0, None, None
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], lo), min(c["end_ns"], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def _named(spans, prefix):
    return [s for s in spans if s["name"].startswith(prefix)]


def ell_exponent(rows: list[dict], deep: float) -> float:
    """Slope of log(time) against log(1/ell) over single-length rows with
    ell <= deep, pooled within each (w, T) series so that series with
    different constant factors share one slope."""
    groups: dict = {}
    for s in rows:
        if len(s["ells"]) == 1 and s["ells"][0] <= deep:
            groups.setdefault((s["w"], s["T"]), []).append(
                (math.log(1.0 / s["ells"][0]), math.log(_dur_ns(s) * 1e-9)))
    sxy = sxx = 0.0
    for pts in groups.values():
        if len(pts) < 2:
            continue
        mx = statistics.fmean(p[0] for p in pts)
        my = statistics.fmean(p[1] for p in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx > 0.0 else float("nan")


def series_metrics(spans: list[dict], deep: float) -> dict:
    """counting / specfun / sweep figures from a traced pinch_series pass."""
    selfs = self_times(spans)
    ops = {s["id"]: s for s in spans if s["name"] == "bench.op"}
    rows = _named(spans, "counting.g_bessel")
    whole = [s for s in rows if float(s["w"]).is_integer()]
    frac = [s for s in rows if not float(s["w"]).is_integer()]
    terms = sum(s["points"] for s in _named(spans, "specfun.bessel_j_half"))
    whole_self_ns = sum(selfs[s["id"]] for s in whole)
    deepest = min((s for s in rows if s["w"] == 2.0 and s["T"] == 1.0),
                  key=lambda s: s["ells"][0])
    wait_ns = sum(s["start_ns"] - ops[s["parent"]]["start_ns"]
                  for s in rows if s["parent"] in ops)
    return {
        "specfun.terms": terms,
        "counting.g_bessel_self_s": whole_self_ns * 1e-9,
        "counting.ns_per_term": whole_self_ns / terms,
        "counting.frac_rows_s": sum(_dur_ns(s) for s in frac) * 1e-9,
        "counting.deepest_row_s": _dur_ns(deepest) * 1e-9,
        "counting.ell_exponent": ell_exponent(rows, deep),
        "sweep.queue_wait_s": wait_ns * 1e-9,
    }


def contour_metrics(spans: list[dict]) -> dict:
    """xform / trace / hyperbolic figures from a traced dual_routes pass."""
    selfs = self_times(spans)
    brom = _named(spans, "xform.bromwich")
    traces = _named(spans, "trace.")
    nodes = sum(s["evaluations"] for s in brom)
    trace_nodes = sum(s["nodes"] for s in traces)
    trace_self_ns = sum(selfs[s["id"]] for s in traces)
    return {
        "xform.bromwich_self_s": sum(selfs[s["id"]] for s in brom) * 1e-9,
        "xform.nodes": nodes,
        "xform.nodes_per_inversion": nodes / len(brom),
        "trace.self_s": trace_self_ns * 1e-9,
        "trace.nodes": trace_nodes,
        "trace.ns_per_node": trace_self_ns / trace_nodes,
        "hyperbolic.cylinder_s": sum(
            _dur_ns(s) for s in _named(spans, "hyperbolic.cylinder_trace")) * 1e-9,
    }


# --------------------------------------------------------- import breakdown

IMPORT_GROUPS = ("numpy", "scipy.special", "scipy.integrate", "mpmath")


def parse_importtime(text: str, package: str = "pinchtrace") -> dict:
    """Split ``python -X importtime`` output for one package import.

    Returns the package's cumulative time in ms and the share of it
    spent in each of IMPORT_GROUPS (a module and everything it pulls in
    that was not loaded yet), in the package's own modules (self time
    only), and elsewhere. A subpackage reached through ``from x import
    y`` gets no line of its own, so a line is grouped by the nearest
    line, itself or an enclosing one, whose name falls in a group.
    """
    nodes = []  # (depth, name, self_us, cum_us, children)
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (depth, name.strip(), int(self_us), int(cum_us), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
        nodes.append(node)
    top = next(n for n in reversed(nodes) if n[1] == package)
    buckets = dict.fromkeys((*IMPORT_GROUPS, package, "other"), 0)

    def group_of(name):
        for g in IMPORT_GROUPS:
            if name == g or name.startswith(g + "."):
                return g
        return None

    def walk(node, inherited):
        _, name, self_us, _, children = node
        g = group_of(name) or inherited
        if g is None:
            own = name == package or name.startswith(package + ".")
            buckets[package if own else "other"] += self_us
        else:
            buckets[g] += self_us
        for c in children:
            walk(c, g)

    walk(top, None)
    total = top[3]
    return {"import_ms": total / 1000.0,
            "shares": {k: v / total for k, v in buckets.items()}}
