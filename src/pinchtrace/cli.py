"""Command-line front end.

One subcommand per public operation, JSON documents in, CSV (default) or
JSON rows out. Output is deterministic: identical inputs and flags give
byte-identical bytes on stdout; diagnostics go to stderr. Exit codes:
0 success, 1 validation or domain error, 2 numerical non-convergence,
64 usage error.

Input documents are versioned JSON objects carrying exactly one payload:

    {"version": 1, "length_spectrum": [{"length": 1.0, "multiplicity": 2}]}
    {"version": 1, "eigenvalues": [{"lambda": 0.0, "multiplicity": 1}],
     "volume": 12.566}
    {"version": 1, "pinching": [0.1, 0.2]}
    {"version": 1, "schedule": {"kind": "geometric", "start": 0.5,
     "ratio": 0.5, "count": 10}}

plus optional "policy" and "contour" override objects. Precedence is
flags over document overrides over built-in defaults; --print-config
dumps the effective merged configuration without running anything.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .counting import balance_epsilon, c_weight, counting_direct, g_bessel
from .errors import DomainError, NonConvergenceError, SchemaError
from .hyperbolic import cylinder_trace, heat_kernel, heat_kernel_origin
from .policy import ContourSpec, DEFAULT_POLICY, TruncationPolicy
from .specfun import bessel_j, bessel_j_oracle
from .spectrum import LengthSpectrum, PinchingSet, SpectralData
from .sweep import Schedule, run_sweep, thread_cap
from .trace import (
    degenerating_trace,
    hyperbolic_trace,
    regularized_trace,
    spectral_trace,
)
from .xform import DEFAULT_INVERSION_POLICY, weighted_inverse

__all__ = ["InputDocument", "parse_input", "dispatch", "main"]

_POLICY_FIELDS = ("rel_tol", "abs_tol", "max_terms", "max_quad_evals")
_CONTOUR_FIELDS = ("a", "s_max", "n_nodes")
_PAYLOAD_KINDS = ("length_spectrum", "eigenvalues", "pinching", "schedule")
_INVERSION_COMMANDS = frozenset({"invert", "gfunc", "sweep"})


@dataclass(frozen=True)
class InputDocument:
    """Validated input: exactly one payload plus optional overrides."""

    kind: str
    length_spectrum: LengthSpectrum | None = None
    spectral: SpectralData | None = None
    pinching: PinchingSet | None = None
    schedule: Schedule | None = None
    policy: dict = field(default_factory=dict)
    contour: dict = field(default_factory=dict)


def _num(value, path: str, *, minimum=None, strict=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "must be a number")
    x = float(value)
    if not math.isfinite(x):
        raise SchemaError(path, "must be finite")
    if minimum is not None:
        if strict and not x > minimum:
            raise SchemaError(path, f"must be > {minimum}, got {value}")
        if not strict and not x >= minimum:
            raise SchemaError(path, f"must be >= {minimum}, got {value}")
    return x


def _mult(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "must be an integer")
    if value < 1:
        raise SchemaError(path, f"must be >= 1, got {value}")
    return value


def parse_input(data: bytes) -> InputDocument:
    """Validate an input document; diagnostics name the offending field."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")

    allowed = set(_PAYLOAD_KINDS) | {"version", "volume", "policy", "contour"}
    for key in doc:
        if key not in allowed:
            raise SchemaError(key, "unknown field")
    if "version" not in doc:
        raise SchemaError("version", "required field is missing")
    if doc["version"] != 1:
        raise SchemaError("version", f"unsupported version {doc['version']!r}, expected 1")

    present = [k for k in _PAYLOAD_KINDS if k in doc]
    if len(present) > 1:
        raise SchemaError("$", f"multiple payloads: {', '.join(present)}")
    if not present:
        raise SchemaError("$", f"exactly one of {', '.join(_PAYLOAD_KINDS)} is required")
    kind = present[0]

    if "volume" in doc and kind != "eigenvalues":
        raise SchemaError("volume", "only valid alongside eigenvalues")

    policy = _parse_overrides(doc.get("policy"), "policy", _POLICY_FIELDS)
    contour = _parse_overrides(doc.get("contour"), "contour", _CONTOUR_FIELDS)

    if kind == "length_spectrum":
        items = doc[kind]
        if not isinstance(items, list) or not items:
            raise SchemaError(kind, "must be a non-empty array")
        pairs = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise SchemaError(f"{kind}[{i}]", "must be an object")
            if set(item) != {"length", "multiplicity"}:
                raise SchemaError(f"{kind}[{i}]", "needs exactly length and multiplicity")
            ell = _num(item["length"], f"{kind}[{i}].length", minimum=0.0, strict=True)
            m = _mult(item["multiplicity"], f"{kind}[{i}].multiplicity")
            pairs.append((ell, m))
        return InputDocument(kind=kind, length_spectrum=LengthSpectrum.of(pairs),
                             policy=policy, contour=contour)

    if kind == "eigenvalues":
        items = doc[kind]
        if not isinstance(items, list) or not items:
            raise SchemaError(kind, "must be a non-empty array")
        pairs = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise SchemaError(f"{kind}[{i}]", "must be an object")
            if set(item) != {"lambda", "multiplicity"}:
                raise SchemaError(f"{kind}[{i}]", "needs exactly lambda and multiplicity")
            lam = _num(item["lambda"], f"{kind}[{i}].lambda", minimum=0.0)
            m = _mult(item["multiplicity"], f"{kind}[{i}].multiplicity")
            pairs.append((lam, m))
        if "volume" not in doc:
            raise SchemaError("volume", "required alongside eigenvalues")
        vol = _num(doc["volume"], "volume", minimum=0.0, strict=True)
        return InputDocument(kind=kind, spectral=SpectralData.of(pairs, vol),
                             policy=policy, contour=contour)

    if kind == "pinching":
        items = doc[kind]
        if not isinstance(items, list) or not items:
            raise SchemaError(kind, "must be a non-empty array")
        ells = [_num(v, f"{kind}[{i}]", minimum=0.0, strict=True)
                for i, v in enumerate(items)]
        return InputDocument(kind=kind, pinching=PinchingSet(tuple(ells)),
                             policy=policy, contour=contour)

    spec = doc["schedule"]
    if not isinstance(spec, dict):
        raise SchemaError("schedule", "must be an object")
    sk = spec.get("kind")
    try:
        if sk == "geometric":
            extra = set(spec) - {"kind", "start", "ratio", "count"}
            if extra:
                raise SchemaError(f"schedule.{sorted(extra)[0]}", "unknown field")
            sch = Schedule.geometric(
                _num(spec.get("start"), "schedule.start", minimum=0.0, strict=True),
                _num(spec.get("ratio"), "schedule.ratio", minimum=0.0, strict=True),
                _mult(spec.get("count"), "schedule.count"),
            )
        elif sk == "explicit":
            extra = set(spec) - {"kind", "values"}
            if extra:
                raise SchemaError(f"schedule.{sorted(extra)[0]}", "unknown field")
            vals = spec.get("values")
            if not isinstance(vals, list) or not vals:
                raise SchemaError("schedule.values", "must be a non-empty array")
            sets = []
            for i, entry in enumerate(vals):
                if not isinstance(entry, list) or not entry:
                    raise SchemaError(f"schedule.values[{i}]", "must be a non-empty array")
                sets.append(tuple(
                    _num(v, f"schedule.values[{i}][{j}]", minimum=0.0, strict=True)
                    for j, v in enumerate(entry)
                ))
            sch = Schedule.explicit(sets)
        else:
            raise SchemaError("schedule.kind", "must be geometric or explicit")
    except DomainError as exc:
        raise SchemaError("schedule", str(exc)) from None
    return InputDocument(kind=kind, schedule=sch, policy=policy, contour=contour)


def _parse_overrides(obj, path: str, fields: tuple[str, ...]) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    out = {}
    for key, value in obj.items():
        if key not in fields:
            raise SchemaError(f"{path}.{key}", "unknown field")
        if key in ("max_terms", "max_quad_evals", "n_nodes"):
            out[key] = _mult(value, f"{path}.{key}")
        else:
            out[key] = _num(value, f"{path}.{key}", minimum=0.0, strict=True)
    return out


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    top = _Parser(prog="pinchtrace", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def cmd(name, help_text, *, needs_input=False, wt=False, time=False,
            contour=False):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON document")
        if wt:
            p.add_argument("--w", type=float, required=True, help="weight, w >= 0")
            p.add_argument("--T", type=float, required=True, help="threshold")
        if time:
            p.add_argument("--t", type=float, required=True, help="time, t > 0")
            p.add_argument("--s", type=float, default=0.0,
                           help="imaginary part of the evaluation time")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--print-config", action="store_true",
                       help="emit the effective configuration and exit")
        p.add_argument("--rel-tol", type=float, default=None)
        p.add_argument("--abs-tol", type=float, default=None)
        p.add_argument("--max-terms", type=int, default=None)
        p.add_argument("--max-quad-evals", type=int, default=None)
        if contour:
            p.add_argument("--contour-a", type=float, default=None)
            p.add_argument("--contour-smax", type=float, default=None)
            p.add_argument("--contour-nodes", type=int, default=None)
        return p

    p = cmd("bessel", "J-Bessel value (fast path or series oracle)")
    p.add_argument("--p", type=float, required=True, help="order, p >= -1/2")
    p.add_argument("--x", type=float, required=True, help="argument, x >= 0")
    p.add_argument("--oracle", action="store_true", help="use the series oracle")
    p.add_argument("--terms", type=int, default=60, help="oracle series terms")

    p = cmd("heatkernel", "plane heat kernel at time t, distance rho")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--rho", type=float, default=None,
                   help="distance; omit for the origin value")

    p = cmd("cylinder", "regularized cylinder trace by unfolding")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = cmd("trace", "geodesic heat trace of a length spectrum", needs_input=True,
            time=True)
    p.add_argument("--volume", type=float, default=None,
                   help="add volume * K(t, 0): the regularized trace (real t only)")

    cmd("dtrace", "degenerating heat trace of a pinching set", needs_input=True,
        time=True)
    cmd("strace", "spectral heat trace of an eigenvalue list", needs_input=True,
        time=True)
    cmd("invert", "weighted counting value by contour inversion of a trace",
        needs_input=True, wt=True, contour=True)
    cmd("count", "direct weighted eigenvalue count", needs_input=True, wt=True)
    cmd("cweight", "asymptotic constant c_w(T)", wt=True)

    p = cmd("gfunc", "degeneration counting series G_w(T)", needs_input=True,
            wt=True, contour=True)
    p.add_argument("--check-bromwich", action="store_true",
                   help="also invert the degenerating trace and report the gap")

    cmd("residual", "G_w(T) minus its logarithmic lead term", needs_input=True,
        wt=True)

    p = cmd("sweep", "counting series along a degeneration schedule",
            needs_input=True, wt=True, contour=True)
    p.add_argument("--bromwich", action="store_true",
                   help="compute rows by contour inversion (dual route)")

    p = cmd("balance", "error-balancing epsilon")
    p.add_argument("--f-ell", type=float, required=True)
    p.add_argument("--log-sum", type=float, required=True)

    return top


def _merged_policy(base: TruncationPolicy, doc: InputDocument, args) -> TruncationPolicy:
    vals = {f: getattr(base, f) for f in _POLICY_FIELDS}
    vals.update(doc.policy)
    for flag, name in (("rel_tol", "rel_tol"), ("abs_tol", "abs_tol"),
                       ("max_terms", "max_terms"), ("max_quad_evals", "max_quad_evals")):
        v = getattr(args, flag, None)
        if v is not None:
            vals[name] = v
    return TruncationPolicy(**vals)


def _merged_contour(doc: InputDocument, args) -> ContourSpec | None:
    vals = dict(doc.contour)
    for flag, name in (("contour_a", "a"), ("contour_smax", "s_max"),
                       ("contour_nodes", "n_nodes")):
        v = getattr(args, flag, None)
        if v is not None:
            vals[name] = v
    if not vals:
        return None
    T = getattr(args, "T", None)
    if "a" not in vals:
        if T is None or T <= 0:
            raise DomainError("contour abscissa missing and no threshold to derive it")
        vals["a"] = 1.0 / T
    if "s_max" not in vals:
        if T is None or T <= 0:
            raise DomainError("contour height missing and no threshold to derive it")
        vals["s_max"] = 16.0 / T
    if "n_nodes" not in vals:
        width = math.pi / (4.0 * T) if T else vals["s_max"] / 64.0
        vals["n_nodes"] = max(64, 16 * (int(2.0 * vals["s_max"] / width) + 1))
    return ContourSpec(**vals)


def _need(doc: InputDocument, kind: str, command: str):
    if doc.kind != kind:
        raise DomainError(f"{command} requires a {kind} document, got {doc.kind}")


def _complex_trace_rows(fn, args, label: str):
    if args.s == 0.0:
        return ["t", label], [[args.t, fn(args.t)]]
    val = fn(complex(args.t, args.s))
    return ["t", "s", f"{label}_re", f"{label}_im"], [[args.t, args.s, val.real, val.imag]]


def _run_command(args, doc: InputDocument | None) -> tuple[list[str], list[list]]:
    name = args.command
    if doc is None:
        doc = InputDocument(kind="none")
    base = DEFAULT_INVERSION_POLICY if name == "invert" else DEFAULT_POLICY
    policy = _merged_policy(base, doc, args)

    if name == "bessel":
        if args.oracle:
            value = bessel_j_oracle(args.p, args.x, args.terms)
        else:
            value = bessel_j(args.p, args.x)
        return ["p", "x", "value"], [[args.p, args.x, value]]

    if name == "heatkernel":
        if args.rho is None:
            return ["t", "rho", "value"], [[args.t, 0.0, heat_kernel_origin(args.t, policy)]]
        return ["t", "rho", "value"], [[args.t, args.rho, heat_kernel(args.t, args.rho, policy)]]

    if name == "cylinder":
        return ["ell", "t", "value"], [[args.ell, args.t, cylinder_trace(args.ell, args.t, policy)]]

    if name == "trace":
        _need(doc, "length_spectrum", name)
        ls = doc.length_spectrum
        if args.volume is not None:
            if args.s != 0.0:
                raise DomainError("regularized trace is defined for real time only")
            val = regularized_trace(ls, args.volume, args.t, policy)
            return ["t", "rtr"], [[args.t, val]]
        return _complex_trace_rows(lambda z: hyperbolic_trace(ls, z, policy), args, "htr")

    if name == "dtrace":
        _need(doc, "pinching", name)
        ps = doc.pinching
        return _complex_trace_rows(lambda z: degenerating_trace(ps, z, policy), args, "dtr")

    if name == "strace":
        _need(doc, "eigenvalues", name)
        sd = doc.spectral
        return _complex_trace_rows(lambda z: spectral_trace(sd, z), args, "str")

    if name == "invert":
        contour = _merged_contour(doc, args)
        series = _merged_policy(DEFAULT_POLICY, doc, args)
        if doc.kind == "length_spectrum":
            trace = lambda z: hyperbolic_trace(doc.length_spectrum, z, series)
        elif doc.kind == "pinching":
            trace = lambda z: degenerating_trace(doc.pinching, z, series)
        elif doc.kind == "eigenvalues":
            trace = lambda z: spectral_trace(doc.spectral, z)
        else:
            raise DomainError("invert requires a spectrum document, not a schedule")
        value = weighted_inverse(trace, args.w, args.T, contour=contour, policy=policy)
        return ["w", "T", "value"], [[args.w, args.T, value]]

    if name == "count":
        _need(doc, "eigenvalues", name)
        return ["w", "T", "value"], [[args.w, args.T, counting_direct(doc.spectral, args.w, args.T)]]

    if name == "cweight":
        return ["w", "T", "value"], [[args.w, args.T, c_weight(args.w, args.T)]]

    if name == "gfunc":
        _need(doc, "pinching", name)
        g = g_bessel(doc.pinching, args.w, args.T, policy)
        if not args.check_bromwich:
            return ["w", "T", "g"], [[args.w, args.T, g]]
        contour = _merged_contour(doc, args)
        inv = _merged_policy(DEFAULT_INVERSION_POLICY, doc, args)
        b = weighted_inverse(
            lambda z: degenerating_trace(doc.pinching, z, policy),
            args.w, args.T, contour=contour, policy=inv,
        )
        gap = abs(g - b) / max(abs(g), abs(b), 1e-300)
        return (["w", "T", "g", "bromwich", "rel_gap"],
                [[args.w, args.T, g, b, gap]])

    if name == "residual":
        _need(doc, "pinching", name)
        ps = doc.pinching
        if any(ell >= 1.0 for ell in ps.ells):
            raise DomainError("residual requires all pinching lengths < 1")
        if args.T < 0.25:
            raise DomainError(f"residual requires T >= 1/4, got {args.T}")
        g = g_bessel(ps, args.w, args.T, policy)
        res = g - c_weight(args.w, args.T) * ps.log_sum
        return (["w", "T", "g", "log_sum", "residual"],
                [[args.w, args.T, g, ps.log_sum, res]])

    if name == "sweep":
        _need(doc, "schedule", name)
        contour = _merged_contour(doc, args)
        override = any(getattr(args, f, None) is not None
                       for f in ("rel_tol", "abs_tol", "max_terms", "max_quad_evals"))
        pol = policy if (override or doc.policy) else None
        result = run_sweep(doc.schedule, args.w, args.T, policy=pol,
                           contour=contour, use_bromwich=args.bromwich)
        rows = []
        for row in result.rows:
            if row.error is not None:
                print(f"sweep row ell_sup={row.ell_sup:g} failed: {row.error}",
                      file=sys.stderr)
            rows.append([row.ell_sup, row.log_sum, row.g_value,
                         row.residual, row.normalized])
        return ["ell_sup", "log_sum", "g_value", "residual", "normalized"], rows

    if name == "balance":
        return (["f_ell", "log_sum", "epsilon"],
                [[args.f_ell, args.log_sum, balance_epsilon(args.f_ell, args.log_sum)]])

    raise DomainError(f"unknown subcommand {name!r}")


def _format_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit(header: list[str], rows: list[list], fmt: str, out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    else:
        objs = []
        for row in rows:
            obj = {}
            for key, v in zip(header, row):
                if isinstance(v, float) and not math.isfinite(v):
                    v = None
                obj[key] = v
            objs.append(obj)
        json.dump(objs, out, indent=2)
        out.write("\n")


def _print_config(args, doc: InputDocument | None, out) -> None:
    name = args.command
    base = DEFAULT_INVERSION_POLICY if name == "invert" else DEFAULT_POLICY
    d = doc if doc else InputDocument(kind="none")
    policy = _merged_policy(base, d, args)
    config = {
        "subcommand": name,
        "format": args.format,
        "policy": {f: getattr(policy, f) for f in _POLICY_FIELDS},
    }
    if name in _INVERSION_COMMANDS:
        inv = _merged_policy(DEFAULT_INVERSION_POLICY, d, args)
        config["inversion_policy"] = {f: getattr(inv, f) for f in _POLICY_FIELDS}
        contour = _merged_contour(d, args)
        config["contour"] = None if contour is None else {
            f: getattr(contour, f) for f in _CONTOUR_FIELDS}
    if name == "sweep":
        config["threads"] = thread_cap(
            len(d.schedule.points()) if d.schedule else 1)
    json.dump(config, out, indent=2)
    out.write("\n")


def dispatch(argv) -> int:
    """Parse argv, run the named operation, write rows to stdout."""
    args = _build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError("--" + name.replace("_", "-"), "must be finite")
    doc = None
    if getattr(args, "input", None) is not None:
        doc = parse_input(Path(args.input).read_bytes())
    if args.print_config:
        _print_config(args, doc, sys.stdout)
        return 0
    header, rows = _run_command(args, doc)
    _emit(header, rows, args.format, sys.stdout)
    return 0


def main(argv=None) -> int:
    try:
        return dispatch(argv)
    except (SchemaError, DomainError) as exc:
        print(f"pinchtrace: error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"pinchtrace: did not converge: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"pinchtrace: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
