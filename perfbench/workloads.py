"""Inputs, timed operations and result checks for the three workloads.

Every workload is a closed loop: one caller runs its operations in order
and waits for each result. ``build(name, seed, workdir)`` makes the
inputs from the seed and computes every reference value up front, so
the timed region holds only the library calls under test. Each
operation checks every result it produced; the checks use references
that do not come from the code path being timed.

The library is reached through its modules (``sweep.run_sweep``,
``trace.degenerating_trace`` ...) rather than names copied at import,
so the tracer in ``tracing.py`` can wrap the module attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pinchtrace
from pinchtrace import cli, counting, hyperbolic, specfun, sweep, trace, xform
from pinchtrace.errors import UncertifiedTailWarning
from pinchtrace.policy import DEFAULT_POLICY
from pinchtrace.spectrum import LengthSpectrum, PinchingSet, SpectralData

ROOT = Path(__file__).resolve().parent.parent

# Limits R_w(T) of g - c_w(T) * log(1/ell) as ell -> 0 (ROADMAP item 2),
# computed with mpmath quadrature, independently of the series code.
# At ell <= 2^-12 the O(ell^2) remainder is below 2e-10.
R_LIMIT = {
    (0.0, 1.0): 0.2984030427,
    (2.0, 1.0): 0.1201772567,
    (0.0, 0.5): 0.2389645269,
    (0.7, 1.0): 0.2093638895,
}
DEEP_ELL = 2.0**-12
DEEP_TOL = 1e-8  # per pinching length

# (w, T, first length, rows): geometric ratio 0.5. The w = 2 and w = 0.7
# schedules start at the deep threshold so that every row they time has
# the R_limit check; the w = 0 rows above it are checked against the
# closed sine form instead.
PINCH_SCHEDULES = (
    (0.0, 1.0, 0.5, 18),
    (2.0, 1.0, DEEP_ELL, 7),
    (0.0, 0.5, 0.5, 18),
    (0.7, 1.0, DEEP_ELL, 3),
)

# Contour results may differ from the series by the inversion policy's
# tolerance (1e-7 relative); allow ten times that.
CONTOUR_TOL = 10.0 * xform.DEFAULT_INVERSION_POLICY.rel_tol
# The unfolded cylinder and the closed form each meet the series policy
# (1e-9 relative); allow a hundred times that.
CYLINDER_TOL = 100.0 * DEFAULT_POLICY.rel_tol


@dataclass(frozen=True)
class Op:
    """One timed call. ``check(value)`` returns one message per checked
    result, empty when the result is correct; ``results`` is how many
    results the call produces, all counted failed if it raises."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    results: int = 1


@dataclass
class Workload:
    ops: list
    # cli_oneshot only: (argv, expected exit code, expected stdout) per call
    calls: list | None = None


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _gap_msg(label: str, got: float, want: float, tol: float) -> str:
    gap = _rel_gap(got, want)
    return "" if gap <= tol else f"{label}: rel gap {gap:.3e} > {tol:.1e}"


# ---------------------------------------------------------------- pinch_series

def _pinch_series(rng: random.Random) -> Workload:
    ops = []
    for w, T, base, rows in PINCH_SCHEDULES:
        sch = sweep.Schedule.geometric(base * rng.uniform(0.97, 1.0), 0.5, rows)
        refs = []
        for ps in sch.points():
            if ps.sup <= DEEP_ELL:
                refs.append(("limit", len(ps) * R_LIMIT[(w, T)]))
            elif w == 0.0:
                refs.append(("sine", counting.g_sine_form(ps, T)))
            else:
                raise ValueError(f"no reference for w={w} at ell={ps.sup}")
        cw = counting.c_weight(w, T)

        def check(result, sch=sch, refs=refs, cw=cw, w=w, T=T):
            out = []
            for ps, row, (kind, ref) in zip(sch.points(), result.rows, refs):
                label = f"sweep w={w} T={T} ell={ps.sup:.3e}"
                if row.error is not None:
                    out.append(f"{label}: {row.error}")
                elif kind == "limit":
                    gap = abs(row.g_value - cw * ps.log_sum - ref)
                    tol = DEEP_TOL * len(ps)
                    out.append("" if gap <= tol else f"{label}: limit gap {gap:.3e} > {tol:.1e}")
                else:
                    tol = 2.0 * DEFAULT_POLICY.tol(ref) + 1e-12
                    gap = abs(row.g_value - ref)
                    out.append("" if gap <= tol else f"{label}: sine-form gap {gap:.3e} > {tol:.1e}")
            return out

        ops.append(Op(
            label=f"run_sweep w={w} T={T}",
            run=lambda sch=sch, w=w, T=T: sweep.run_sweep(sch, w, T),
            check=check,
            results=rows,
        ))
    return Workload(ops)


# ----------------------------------------------------------------- dual_routes

def _inversion_op(label, trace_fn, w, T, ref, tol=CONTOUR_TOL) -> Op:
    return Op(
        label=label,
        run=lambda: xform.weighted_inverse(trace_fn, w, T),
        check=lambda v: [_gap_msg(label, v, ref, tol)],
    )


def _dual_routes(rng: random.Random) -> Workload:
    ops = []
    # w <= 3/2 is the documented uncertified-tail path; w = 0 at ell = 0.1
    # takes about 88 s and is left out.
    for ell, w in ((0.3, 2.0), (0.1, 2.0), (0.03, 2.0), (0.01, 2.0), (0.1, 1.0)):
        ps = PinchingSet((ell * rng.uniform(0.985, 1.015),))
        ops.append(_inversion_op(
            f"invert degenerating ell={ps.sup:.4f} w={w}",
            lambda z, ps=ps: trace.degenerating_trace(ps, z),
            w, 1.0, counting.g_bessel(ps, w, 1.0),
        ))

    pairs = [(ell * rng.uniform(0.985, 1.015), m) for ell, m in ((0.3, 1), (0.6, 2), (1.1, 1))]
    ls = LengthSpectrum.of(pairs)
    # each (length, multiplicity) contributes multiplicity copies of the
    # single-length series
    flat = PinchingSet(tuple(ell for ell, m in ls.entries for _ in range(m)))
    ops.append(_inversion_op(
        "invert hyperbolic 3 lengths",
        lambda z: trace.hyperbolic_trace(ls, z),
        2.0, 1.0, counting.g_bessel(flat, 2.0, 1.0),
    ))

    # eigenvalues stay at least 0.1 away from every threshold T used
    base = ((0.0, 1), (0.13, 1), (0.37, 2), (0.71, 1), (0.86, 3), (1.4, 1), (1.77, 2))
    sd = SpectralData.of(
        [(lam + (rng.uniform(-0.02, 0.02) if lam else 0.0), m) for lam, m in base],
        volume=4.0 * math.pi,
    )
    for w in (1.0, 2.0, 3.0):
        for T in (0.5, 1.0, 2.0):
            ops.append(_inversion_op(
                f"invert spectral w={w} T={T}",
                lambda z: trace.spectral_trace(sd, z),
                w, T, counting.counting_direct(sd, w, T),
            ))

    # the fixed (ell, t) grid of acceptance criterion 03
    for ell in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            closed = trace.hyperbolic_trace(LengthSpectrum.of([(ell, 1)]), t)
            label = f"cylinder ell={ell} t={t}"
            ops.append(Op(
                label=label,
                run=lambda ell=ell, t=t: hyperbolic.cylinder_trace(ell, t),
                check=lambda v, label=label, closed=closed: [
                    _gap_msg(label, v, closed, CYLINDER_TOL)],
            ))
    return Workload(ops)


# ----------------------------------------------------------------- cli_oneshot

def _csv(header, rows) -> bytes:
    """The documented CSV output: header row, floats at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


def _write_doc(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_round(rng: random.Random, workdir: Path, tag: int) -> list:
    """One call per subcommand plus the two documented rejects."""
    calls = []

    def call(argv, rows=None, header=None, code=0):
        calls.append((argv, code, _csv(header, rows) if code == 0 else b""))

    lams = [(0.0, 1), (0.2 + rng.uniform(-0.02, 0.02), 1), (0.7 + rng.uniform(-0.02, 0.02), 2)]
    sd = SpectralData.of(lams, volume=4.0 * math.pi)
    eig = _write_doc(workdir, f"eig{tag}.json", {
        "version": 1,
        "eigenvalues": [{"lambda": lam, "multiplicity": m} for lam, m in sd.eigenvalues],
        "volume": sd.volume,
    })
    ps = PinchingSet((0.1 * rng.uniform(0.97, 1.03),))
    pinch = _write_doc(workdir, f"pinch{tag}.json", {"version": 1, "pinching": list(ps.ells)})
    sch = sweep.Schedule.geometric(0.5 * rng.uniform(0.97, 1.0), 0.5, 6)
    sched = _write_doc(workdir, f"sched{tag}.json", {
        "version": 1,
        "schedule": {"kind": "geometric", "start": sch.start, "ratio": 0.5, "count": 6},
    })
    reject = _write_doc(workdir, "pinch_reject.json", {"version": 1, "pinching": [0.05]})

    w, T = float(rng.choice((0, 1, 2))), rng.uniform(1.0, 1.5)
    call(["cweight", "--w", repr(w), "--T", repr(T)],
         [[w, T, counting.c_weight(w, T)]], ["w", "T", "value"])
    p, x = rng.choice((0.5, 1.5, 1.2)), rng.uniform(0.5, 20.0)
    call(["bessel", "--p", repr(p), "--x", repr(x)],
         [[p, x, specfun.bessel_j(p, x)]], ["p", "x", "value"])
    p, x = rng.choice((0.0, 0.5, 2.5)), rng.uniform(0.5, 10.0)
    call(["bessel", "--p", repr(p), "--x", repr(x), "--oracle"],
         [[p, x, specfun.bessel_j_oracle(p, x, 60)]], ["p", "x", "value"])
    w, T = float(rng.choice((1, 2))), rng.uniform(0.8, 1.2)
    call(["count", "--input", eig, "--w", repr(w), "--T", repr(T)],
         [[w, T, counting.counting_direct(sd, w, T)]], ["w", "T", "value"])
    t = rng.uniform(0.5, 2.0)
    call(["strace", "--input", eig, "--t", repr(t)],
         [[t, trace.spectral_trace(sd, t)]], ["t", "str"])
    t = rng.uniform(0.5, 2.0)
    call(["dtrace", "--input", pinch, "--t", repr(t)],
         [[t, trace.degenerating_trace(ps, t)]], ["t", "dtr"])
    w, T = float(rng.choice((0, 2))), rng.uniform(0.8, 1.2)
    call(["gfunc", "--input", pinch, "--w", repr(w), "--T", repr(T)],
         [[w, T, counting.g_bessel(ps, w, T)]], ["w", "T", "g"])
    w, T = float(rng.choice((0, 2))), rng.uniform(0.8, 1.2)
    call(["residual", "--input", pinch, "--w", repr(w), "--T", repr(T)],
         [[w, T, counting.g_bessel(ps, w, T), ps.log_sum, counting.g_residual(ps, w, T)]],
         ["w", "T", "g", "log_sum", "residual"])
    w, T = float(rng.choice((0, 2))), 1.0
    res = sweep.run_sweep(sch, w, T)
    call(["sweep", "--input", sched, "--w", repr(w), "--T", repr(T)],
         [[row.ell_sup, row.log_sum, row.g_value, row.residual, row.normalized]
          for row in res.rows],
         ["ell_sup", "log_sum", "g_value", "residual", "normalized"])
    # documented rejects: domain error exits 1, non-convergence exits 2
    call(["cweight", "--w", "0", "--T", "0.1"], code=1)
    call(["gfunc", "--input", reject, "--w", "0", "--T", "1", "--max-terms", "100"], code=2)
    return calls


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, cwd: Path, env: dict):
    """Run one fresh process; returns (wall s, exit code, stdout, stderr, max RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # outputs are a few hundred bytes, far below a pipe buffer, so reading
    # them one after the other cannot block the child
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, err, usage.ru_maxrss / 1024.0


def _cli_oneshot(rng: random.Random, workdir: Path) -> Workload:
    calls = _cli_round(rng, workdir, 0) + _cli_round(rng, workdir, 1)
    env = child_env(ROOT / "src")
    ops = []
    for argv, code, expected in calls:
        label = "pinchtrace " + " ".join(argv)

        def check(res, label=label, code=code, expected=expected):
            _, got_code, out, err, _ = res
            if got_code != code:
                return [f"{label}: exit {got_code}, expected {code}: {err.decode(errors='replace').strip()}"]
            if out != expected:
                return [f"{label}: stdout {out!r} != {expected!r}"]
            return [""]

        ops.append(Op(
            label=label,
            run=lambda argv=argv: run_child([sys.executable, "-m", "pinchtrace", *argv], ROOT, env),
            check=check,
        ))
    return Workload(ops, calls=calls)


def in_process_cli(calls: list) -> list:
    """Ops that run the same CLI mix through ``cli.main`` in this process."""
    ops = []
    for argv, code, expected in calls:
        label = "cli.main " + " ".join(argv)

        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = cli.main(argv)
            return got, out.getvalue().encode()

        def check(res, label=label, code=code, expected=expected):
            got, out = res
            ok = got == code and out == expected
            return ["" if ok else f"{label}: exit {got}, stdout {out!r}"]

        ops.append(Op(label=label, run=run, check=check))
    return ops


# ---------------------------------------------------------------------- common

def build(name: str, seed: int, workdir: Path) -> Workload:
    """Inputs and references for one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "pinch_series":
        return _pinch_series(rng)
    if name == "dual_routes":
        return _dual_routes(rng)
    if name == "cli_oneshot":
        workdir.mkdir(parents=True, exist_ok=True)
        return _cli_oneshot(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Timing:
    walls: list  # per op: the wall of every call
    values: list  # per op: every value returned (None where the call raised)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        """One typical pass: the sum over ops of each op's median wall.

        A slow spell on a shared machine hits some calls of some passes;
        the per-op median drops it where a median of pass sums cannot.
        """
        return sum(statistics.median(w) for w in self.walls)


def run_ops(ops: list, seconds: float = 0.0, tracer=None) -> Timing:
    """Run the ops in order, timing only each call, then check its result.

    Goes round the list until ``seconds`` have passed, and at least once,
    so a run lasts about ``seconds`` whatever the length of a pass.
    """
    res = Timing([[] for _ in ops], [[] for _ in ops])
    t_start = time.perf_counter()
    i = 0
    with warnings.catch_warnings():
        # the w <= 3/2 inversions warn by design; the check still applies
        warnings.simplefilter("ignore", UncertifiedTailWarning)
        while i < len(ops) or time.perf_counter() - t_start < seconds:
            k, i = i % len(ops), i + 1
            op = ops[k]
            scope = tracer.op(op.label) if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with scope:
                    value = op.run()
            except Exception as exc:  # a failed op is counted, the loop goes on
                res.walls[k].append(time.perf_counter() - t0)
                res.values[k].append(None)
                res.attempted += op.results
                res.failed += op.results
                print(f"perfbench: {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            res.walls[k].append(time.perf_counter() - t0)
            res.values[k].append(value)
            msgs = op.check(value)
            res.attempted += len(msgs)
            for msg in msgs:
                if msg:
                    res.failed += 1
                    print(f"perfbench: check failed: {msg}", file=sys.stderr)
    return res


def versions() -> dict:
    import numpy
    import scipy
    import mpmath

    return {
        "pinchtrace": pinchtrace.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }
