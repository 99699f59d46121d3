"""Command-line front end.

One subcommand per public operation, JSON documents in, CSV (default) or
JSON rows out. Identical inputs and flags give byte-identical stdout;
diagnostics, warnings included, go to stderr one line each. Exit codes:
0 success, 1 validation or domain error, 2 numerical non-convergence,
64 usage error.

Input documents are versioned JSON objects carrying exactly one payload:

    {"version": 1, "length_spectrum": [{"length": 1.0, "multiplicity": 2}]}
    {"version": 1, "eigenvalues": [{"lambda": 0.0, "multiplicity": 1}],
     "volume": 12.566}
    {"version": 1, "pinching": [0.1, 0.2]}
    {"version": 1, "schedule": {"kind": "geometric", "start": 0.5,
     "ratio": 0.5, "count": 10}}

plus an optional "policy" override object. No document or flag sets the
contour of an inversion: weighted_inverse inverts on the line (w+1)/T.

Every subcommand is one row of _COMMANDS (name, help, flags, payload
kinds, handler returning (header, rows)), which builds the parser and
the dispatch. A call runs under the series policy (DEFAULT_POLICY),
traces on a contour included, and the inversion policy
(DEFAULT_INVERSION_POLICY); document overrides, then flags, apply to
both. --print-config checks the payload kind, then dumps the merged
configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

# numpy-free modules only: each handler imports the library function it
# runs, so closed-form calls and input errors never load numpy
from .closed import balance_epsilon, bessel_j_oracle, c_weight, counting_direct
from .errors import DomainError, SchemaError, TruncationBudgetError
from .policy import DEFAULT_INVERSION_POLICY, DEFAULT_POLICY, TruncationPolicy
from .spectrum import LengthSpectrum, PinchingSet, SpectralData

__all__ = ["InputDocument", "parse_input", "dispatch", "main"]

_POLICY_FIELDS = ("rel_tol", "abs_tol", "max_terms", "max_quad_evals")
_PAYLOAD_KINDS = ("length_spectrum", "eigenvalues", "pinching", "schedule")


@dataclass(frozen=True)
class InputDocument:
    """Validated input: one payload, of the type its kind names, plus policy
    overrides."""

    kind: str
    payload: LengthSpectrum | SpectralData | PinchingSet | Schedule
    policy: dict


def _num(value, path: str, *, strict=True) -> float:
    """A finite number > 0 (strict) or >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "must be a number")
    x = float(value)
    if not math.isfinite(x):
        raise SchemaError(path, "must be finite")
    if strict and not x > 0.0:
        raise SchemaError(path, f"must be > 0.0, got {value}")
    if not strict and not x >= 0.0:
        raise SchemaError(path, f"must be >= 0.0, got {value}")
    return x


def _mult(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "must be an integer")
    if value < 1:
        raise SchemaError(path, f"must be >= 1, got {value}")
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "must be a non-empty array")
    return value


def _pairs(items, kind: str, key: str, *, strict: bool) -> list:
    """(value, multiplicity) pairs from an array of {key, multiplicity} objects."""
    pairs = []
    for i, item in enumerate(_array(items, kind)):
        path = f"{kind}[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(path, "must be an object")
        if set(item) != {key, "multiplicity"}:
            raise SchemaError(path, f"needs exactly {key} and multiplicity")
        pairs.append((_num(item[key], f"{path}.{key}", strict=strict),
                      _mult(item["multiplicity"], f"{path}.multiplicity")))
    return pairs


def _schedule(spec) -> Schedule:
    from .sweep import Schedule

    if not isinstance(spec, dict):
        raise SchemaError("schedule", "must be an object")
    kind = spec.get("kind")
    if kind not in ("geometric", "explicit"):
        raise SchemaError("schedule.kind", "must be geometric or explicit")
    fields = {"kind", "start", "ratio", "count"} if kind == "geometric" else {"kind", "values"}
    extra = set(spec) - fields
    if extra:
        raise SchemaError(f"schedule.{sorted(extra)[0]}", "unknown field")
    try:
        if kind == "geometric":
            return Schedule.geometric(
                _num(spec.get("start"), "schedule.start"),
                _num(spec.get("ratio"), "schedule.ratio"),
                _mult(spec.get("count"), "schedule.count"),
            )
        return Schedule.explicit([
            tuple(_num(v, f"schedule.values[{i}][{j}]")
                  for j, v in enumerate(_array(entry, f"schedule.values[{i}]")))
            for i, entry in enumerate(_array(spec.get("values"), "schedule.values"))
        ])
    except DomainError as exc:
        raise SchemaError("schedule", str(exc)) from None


def _parse_policy(obj) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise SchemaError("policy", "must be an object")
    out = {}
    for key, value in obj.items():
        if key not in _POLICY_FIELDS:
            raise SchemaError(f"policy.{key}", "unknown field")
        check = _mult if key in ("max_terms", "max_quad_evals") else _num
        out[key] = check(value, f"policy.{key}")
    return out


def parse_input(data: bytes) -> InputDocument:
    """Validate an input document; diagnostics name the offending field."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")

    allowed = set(_PAYLOAD_KINDS) | {"version", "volume", "policy"}
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

    policy = _parse_policy(doc.get("policy"))

    if kind == "length_spectrum":
        payload = LengthSpectrum.of(_pairs(doc[kind], kind, "length", strict=True))
    elif kind == "eigenvalues":
        pairs = _pairs(doc[kind], kind, "lambda", strict=False)
        if "volume" not in doc:
            raise SchemaError("volume", "required alongside eigenvalues")
        payload = SpectralData.of(pairs, _num(doc["volume"], "volume"))
    elif kind == "pinching":
        payload = PinchingSet(tuple(
            _num(v, f"{kind}[{i}]") for i, v in enumerate(_array(doc[kind], kind))))
    else:
        payload = _schedule(doc[kind])
    return InputDocument(kind, payload, policy)


def _policies(doc: InputDocument | None, args) -> tuple[TruncationPolicy, TruncationPolicy]:
    """(series, inversion): defaults, then document overrides, then flags."""
    over = dict(doc.policy) if doc else {}
    over.update((f, getattr(args, f)) for f in _POLICY_FIELDS if getattr(args, f) is not None)
    return replace(DEFAULT_POLICY, **over), replace(DEFAULT_INVERSION_POLICY, **over)


def _htr(doc, z, pol):
    from .trace import hyperbolic_trace

    return hyperbolic_trace(doc.payload, z, pol)


def _dtr(doc, z, pol):
    from .trace import degenerating_trace

    return degenerating_trace(doc.payload, z, pol)


def _str(doc, z, pol):
    from .trace import spectral_trace

    return spectral_trace(doc.payload, z)


# payload kind -> (column label, heat trace of the payload at time z)
_TRACES = {"length_spectrum": ("htr", _htr), "pinching": ("dtr", _dtr),
           "eigenvalues": ("str", _str)}


def _time_rows(a, doc, series, inversion):
    label, trace = _TRACES[doc.kind]
    if a.s == 0.0:
        return ["t", label], [[a.t, trace(doc, a.t, series)]]
    val = trace(doc, complex(a.t, a.s), series)
    return ["t", "s", f"{label}_re", f"{label}_im"], [[a.t, a.s, val.real, val.imag]]


def _bessel(a, doc, series, inversion):
    if a.oracle:
        value = bessel_j_oracle(a.p, a.x, a.terms)
    else:
        from .specfun import bessel_j

        value = bessel_j(a.p, a.x)
    return ["p", "x", "value"], [[a.p, a.x, value]]


def _heatkernel(a, doc, series, inversion):
    from .hyperbolic import heat_kernel, heat_kernel_origin

    if a.rho is None:
        return ["t", "rho", "value"], [[a.t, 0.0, heat_kernel_origin(a.t, series)]]
    return ["t", "rho", "value"], [[a.t, a.rho, heat_kernel(a.t, a.rho, series)]]


def _cylinder(a, doc, series, inversion):
    from .hyperbolic import cylinder_trace

    return ["ell", "t", "value"], [[a.ell, a.t, cylinder_trace(a.ell, a.t, series)]]


def _invert(a, doc, series, inversion):
    from .xform import weighted_inverse

    trace = _TRACES[doc.kind][1]
    value = weighted_inverse(lambda z: trace(doc, z, series), a.w, a.T, inversion)
    return ["w", "T", "value"], [[a.w, a.T, value]]


def _gfunc(a, doc, series, inversion):
    from .counting import g_bessel

    g = g_bessel(doc.payload, a.w, a.T, series)
    if not a.check_bromwich:
        return ["w", "T", "g"], [[a.w, a.T, g]]
    from .xform import weighted_inverse

    b = weighted_inverse(lambda z: _dtr(doc, z, series), a.w, a.T, inversion)
    gap = abs(g - b) / max(abs(g), abs(b), 1e-300)
    return ["w", "T", "g", "bromwich", "rel_gap"], [[a.w, a.T, g, b, gap]]


def _residual(a, doc, series, inversion):
    ps = doc.payload
    if any(ell >= 1.0 for ell in ps.ells):
        raise DomainError("residual requires all pinching lengths < 1")
    if a.T < 0.25:
        raise DomainError(f"residual requires T >= 1/4, got {a.T}")
    from .counting import g_bessel

    g = g_bessel(ps, a.w, a.T, series)
    res = g - c_weight(a.w, a.T) * ps.log_sum
    return ["w", "T", "g", "log_sum", "residual"], [[a.w, a.T, g, ps.log_sum, res]]


def _sweep(a, doc, series, inversion):
    from .sweep import run_sweep

    result = run_sweep(doc.payload, a.w, a.T, series, inversion, a.bromwich)
    rows = []
    for row in result.rows:
        if row.error is not None:
            print(f"sweep row ell_sup={row.ell_sup:g} failed: {row.error}", file=sys.stderr)
        rows.append([row.ell_sup, row.log_sum, row.g_value, row.residual, row.normalized])
    return ["ell_sup", "log_sum", "g_value", "residual", "normalized"], rows


def _flag(name, type=float, **kw):
    return name, {"type": type, **kw}


def _switch(name, help_text):
    return name, {"action": "store_true", "help": help_text}


_WT = (_flag("--w", required=True, help="weight, w >= 0"),
       _flag("--T", required=True, help="threshold"))
_TIME = (_flag("--t", required=True, help="time, t > 0"),
         _flag("--s", default=0.0, help="imaginary part of the evaluation time"))


@dataclass(frozen=True)
class _Command:
    name: str
    help: str
    flags: tuple
    needs: tuple[str, ...]  # payload kinds accepted; empty means no --input
    run: object  # handler(args, doc, series, inversion) -> (header, rows)


_COMMANDS = (
    _Command("bessel", "J-Bessel value (fast path or series oracle)", (
        _flag("--p", required=True, help="order, p >= -1/2"),
        _flag("--x", required=True, help="argument, x >= 0"),
        _switch("--oracle", "use the series oracle"),
        _flag("--terms", int, default=60, help="oracle series terms"),
    ), (), _bessel),
    _Command("heatkernel", "plane heat kernel at time t, distance rho", (
        _flag("--t", required=True),
        _flag("--rho", help="distance; omit for the origin value"),
    ), (), _heatkernel),
    _Command("cylinder", "regularized cylinder trace by unfolding", (
        _flag("--ell", required=True), _flag("--t", required=True),
    ), (), _cylinder),
    _Command("trace", "geodesic heat trace of a length spectrum", _TIME,
             ("length_spectrum",), _time_rows),
    _Command("dtrace", "degenerating heat trace of a pinching set", _TIME,
             ("pinching",), _time_rows),
    _Command("strace", "spectral heat trace of an eigenvalue list", _TIME,
             ("eigenvalues",), _time_rows),
    _Command("invert", "weighted counting value by contour inversion of a trace",
             _WT, tuple(_TRACES), _invert),
    _Command("count", "direct weighted eigenvalue count", _WT, ("eigenvalues",),
             lambda a, doc, series, inversion: (
                 ["w", "T", "value"], [[a.w, a.T, counting_direct(doc.payload, a.w, a.T)]])),
    _Command("cweight", "asymptotic constant c_w(T)", _WT, (),
             lambda a, doc, series, inversion: (
                 ["w", "T", "value"], [[a.w, a.T, c_weight(a.w, a.T)]])),
    _Command("gfunc", "degeneration counting series G_w(T)", _WT + (
        _switch("--check-bromwich", "also invert the degenerating trace and report the gap"),
    ), ("pinching",), _gfunc),
    _Command("residual", "G_w(T) minus its logarithmic lead term", _WT,
             ("pinching",), _residual),
    _Command("sweep", "counting series along a degeneration schedule", _WT + (
        _switch("--bromwich", "compute rows by contour inversion (dual route)"),
    ), ("schedule",), _sweep),
    _Command("balance", "error-balancing epsilon", (
        _flag("--f-ell", required=True), _flag("--log-sum", required=True),
    ), (), lambda a, doc, series, inversion: (
        ["f_ell", "log_sum", "epsilon"],
        [[a.f_ell, a.log_sum, balance_epsilon(a.f_ell, a.log_sum)]])),
)

_COMMON = (
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    _switch("--print-config", "emit the effective configuration and exit"),
    _flag("--rel-tol"), _flag("--abs-tol"),
    _flag("--max-terms", int), _flag("--max-quad-evals", int),
)


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    top = _Parser(prog="pinchtrace", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(spec=cmd)
        if cmd.needs:
            p.add_argument("--input", required=True, help="input JSON document")
        for name, kw in cmd.flags + _COMMON:
            p.add_argument(name, **kw)
    return top


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


def _print_config(args, doc: InputDocument | None, series, inversion, out) -> None:
    config = {"subcommand": args.command, "format": args.format, "policy": asdict(series),
              "inversion_policy": asdict(inversion)}
    if args.command == "sweep":
        from .sweep import thread_cap

        config["threads"] = thread_cap(len(doc.payload.points()) if args.bromwich else 1)
    json.dump(config, out, indent=2)
    out.write("\n")


def dispatch(argv) -> int:
    """Parse argv, run the named operation, write rows to stdout."""
    args = _build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError("--" + name.replace("_", "-"), "must be finite")
    cmd = args.spec
    doc = None
    if cmd.needs:
        try:
            data = Path(args.input).read_bytes()
        except OSError as exc:  # missing, a directory, not readable
            raise SchemaError("--input", str(exc)) from None
        doc = parse_input(data)
        if doc.kind not in cmd.needs:
            raise DomainError(
                f"{cmd.name} requires a {' or '.join(cmd.needs)} document, got {doc.kind}")
    series, inversion = _policies(doc, args)
    if args.print_config:
        _print_config(args, doc, series, inversion, sys.stdout)
        return 0
    header, rows = cmd.run(args, doc, series, inversion)
    _emit(header, rows, args.format, sys.stdout)
    return 0


def main(argv=None) -> int:
    with warnings.catch_warnings():  # each warning as one line of the CLI's own
        warnings.showwarning = lambda message, *_: print(
            f"pinchtrace: warning: {message}", file=sys.stderr)
        try:
            return dispatch(argv)
        except (SchemaError, DomainError) as exc:
            print(f"pinchtrace: error: {exc}", file=sys.stderr)
            return 1
        except TruncationBudgetError as exc:
            print(f"pinchtrace: did not converge: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
