"""pinchtrace benchmark: three closed-loop workloads and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pinch_series --seed 1 --seconds 20 --trace 0

--trace 0 goes round the workload's operations for --seconds and prints
the end-to-end metrics. --trace 1 is the traced
run: it is the same for every workload. It runs each workload's
operations untraced and traced from outside the library and prints
every per-layer metric, with the tracing overhead of each workload; it
runs a fixed set of passes and does not use --seconds. The last line of stdout
is one JSON object with the keys correct, attempted, failed and
metrics. The line before it records the environment. Both lines and,
for a traced run, its spans also go to .perfbench_out/ at the root.
See perfbench/README.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
KERNEL_POINTS = 1 << 21
KERNEL_REPEATS = 3

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "ok_frac": "frac",
    "peak_rss_mb": "MB", "call_p50_s": "s",
}
PER_LAYER_UNITS = {
    "specfun.half_ns_per_term": "ns", "specfun.frac_ns_per_term": "ns",
    "specfun.terms": "count",
    "counting.g_bessel_self_s": "s", "counting.ns_per_term": "ns",
    "counting.frac_rows_s": "s", "counting.deepest_row_s": "s",
    "counting.ell_exponent": "slope",
    "sweep.speedup": "ratio", "sweep.queue_wait_s": "s", "sweep.rows_failed": "count",
    "xform.bromwich_self_s": "s", "xform.nodes": "count",
    "xform.nodes_per_inversion": "count",
    "trace.self_s": "s", "trace.nodes": "count", "trace.ns_per_node": "ns",
    "hyperbolic.cylinder_s": "s",
    "cli.import_ms": "ms", "cli.import_share_numpy": "frac",
    "cli.import_share_scipy_special": "frac", "cli.import_share_scipy_integrate": "frac",
    "cli.import_share_mpmath": "frac", "cli.import_share_pinchtrace": "frac",
    "cli.import_share_other": "frac", "cli.dispatch_ms": "ms",
    "tracing.overhead_pinch_series_s": "s", "tracing.overhead_dual_routes_s": "s",
    "tracing.overhead_cli_oneshot_s": "s",
}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _thread_env() -> int:
    """Keep the library's default sweep thread cap within this process's CPUs."""
    from pinchtrace import sweep

    allowed = len(os.sched_getaffinity(0))
    if sweep.thread_cap(1 << 10) > allowed:
        os.environ["SPECTRA_THREADS"] = str(allowed)
    return sweep.thread_cap(1 << 10)


def _setup_s(workload: str, seed: int) -> float:
    """Median over fresh processes of import pinchtrace plus input construction."""
    from workloads import child_env, run_child

    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             workload, str(seed), str(OUT / "inputs")]
    totals = []
    for _ in range(SETUP_REPEATS):
        _, code, out, err, _ = run_child(probe, ROOT, child_env(SRC))
        if code != 0:
            raise RuntimeError(f"setup probe failed: {err.decode(errors='replace')}")
        rec = json.loads(out)
        totals.append(rec["import_s"] + rec["build_s"])
    return statistics.median(totals)


def _metrics(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} missing or unlisted")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_workload(name: str, seed: int, seconds: float):
    import workloads

    setup_s = _setup_s(name, seed)
    wl = workloads.build(name, seed, OUT / "inputs")
    res = workloads.run_ops(wl.ops, seconds)
    if name == "cli_oneshot":
        peak = max(v[4] for vs in res.values for v in vs if v is not None)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": res.wall_s,
        "setup_s": setup_s,
        "ok_frac": 1.0 - res.failed / res.attempted,
        "peak_rss_mb": peak,
        "call_p50_s": statistics.median(w for ws in res.walls for w in ws),
    }
    extra = {"calls": sum(map(len, res.walls)), "op_walls_s": res.walls}
    attempted, failed = res.attempted, res.failed
    return attempted, failed, _metrics(values, END_TO_END_UNITS), extra


def _import_breakdown() -> dict:
    from tracing import parse_importtime
    from workloads import child_env, run_child

    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, err, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import pinchtrace"],
            ROOT, child_env(SRC))
        if code != 0:
            raise RuntimeError(f"import failed: {err.decode(errors='replace')}")
        runs.append(parse_importtime(err.decode()))
    med = lambda f: statistics.median(f(r) for r in runs)  # noqa: E731
    out = {"cli.import_ms": med(lambda r: r["import_ms"])}
    for group in runs[0]["shares"]:
        key = "cli.import_share_" + group.replace(".", "_")
        out[key] = med(lambda r: r["shares"][group])
    return out


def _kernel_ns_per_term() -> dict:
    """Fixed 2^21-point arrays through the half-integer and general-order kernels."""
    import numpy as np
    from pinchtrace import specfun

    x = np.linspace(0.0, 32.0, KERNEL_POINTS + 1)[1:]

    def best_of(fn):
        walls = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls) * 1e9 / KERNEL_POINTS

    return {
        "specfun.half_ns_per_term": best_of(lambda: specfun.bessel_j_half(2, x)),
        "specfun.frac_ns_per_term": best_of(lambda: specfun.bessel_j(1.2, x)),
    }


def run_traced(seed: int):
    import tracing
    import workloads

    attempted = failed = 0
    metrics, spans = {}, {}

    def count(*timings):
        nonlocal attempted, failed
        for t in timings:
            attempted += t.attempted
            failed += t.failed

    def traced_pass(name, ops):
        """Each op untraced, then traced, back to back, so that drift in the
        machine's speed mostly cancels in the overhead."""
        # the first pass in a process pays one-off costs (page faults on
        # fresh large arrays), so it only warms up
        count(workloads.run_ops(ops))
        tracer = tracing.Tracer()
        plain, traced = [], []
        for op in ops:
            plain.append(workloads.run_ops([op]))
            with tracing.installed(tracer):
                traced.append(workloads.run_ops([op], tracer=tracer))
        count(*plain, *traced)
        plain_s = sum(t.wall_s for t in plain)
        metrics[f"tracing.overhead_{name}_s"] = sum(t.wall_s for t in traced) - plain_s
        spans[name] = tracer.spans
        return plain, traced, plain_s

    pinch = workloads.build("pinch_series", seed, OUT / "inputs")
    _, traced, plain_s = traced_pass("pinch_series", pinch.ops)
    saved = os.environ.get("SPECTRA_THREADS")
    os.environ["SPECTRA_THREADS"] = "1"
    try:
        single = workloads.run_ops(pinch.ops)
    finally:
        if saved is None:
            del os.environ["SPECTRA_THREADS"]
        else:
            os.environ["SPECTRA_THREADS"] = saved
    count(single)
    metrics["sweep.speedup"] = single.wall_s / plain_s
    metrics["sweep.rows_failed"] = sum(
        row.error is not None for t in traced for vs in t.values for res in vs
        if res is not None for row in res.rows)
    metrics.update(tracing.series_metrics(spans["pinch_series"], workloads.DEEP_ELL))
    metrics.update(_kernel_ns_per_term())

    dual = workloads.build("dual_routes", seed, OUT / "inputs")
    traced_pass("dual_routes", dual.ops)
    metrics.update(tracing.contour_metrics(spans["dual_routes"]))

    oneshot = workloads.build("cli_oneshot", seed, OUT / "inputs")
    plain, _, _ = traced_pass("cli_oneshot", workloads.in_process_cli(oneshot.calls))
    metrics["cli.dispatch_ms"] = statistics.median(t.wall_s for t in plain) * 1e3
    metrics.update(_import_breakdown())
    return attempted, failed, metrics, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("pinch_series", "dual_routes", "cli_oneshot"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    if not (SRC / "pinchtrace" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'pinchtrace'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).parent)]
    import pinchtrace

    if Path(pinchtrace.__file__).resolve().parent != SRC / "pinchtrace":
        print(f"perfbench: imported pinchtrace from {pinchtrace.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **workloads.versions(),
        "caller_threads": 1, "sweep_threads": _thread_env(),
    }
    print(json.dumps({"env": env}), flush=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        attempted, failed, values, spans = run_traced(args.seed)
        metrics = _metrics(values, PER_LAYER_UNITS)
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans))
        extra = {}
    else:
        attempted, failed, metrics, extra = run_workload(args.workload, args.seed, args.seconds)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"run-{tag}.json").write_text(json.dumps({"env": env, **extra, **result}, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
