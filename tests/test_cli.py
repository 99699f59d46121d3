"""Input-document validation, subcommand output, and process exit codes."""

import contextlib
import csv
import importlib
import inspect
import io
import json
import math
import subprocess
import sys
import warnings

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchtrace
from pinchtrace import (
    DEFAULT_INVERSION_POLICY, DEFAULT_POLICY, LengthSpectrum, PinchingSet, Schedule,
    SchemaError, SpectralData, TruncationBudgetError, balance_epsilon, bessel_j, bromwich,
    c_weight, counting_direct, cylinder_trace, degenerating_trace, g_bessel, g_limit,
    g_residual, heat_kernel, hyperbolic_trace, run_sweep, spectral_trace, thread_cap,
    weighted_inverse,
)
from pinchtrace.cli import main, parse_input


def _doc(**kw):
    base = {"version": 1}
    base.update(kw)
    return json.dumps(base).encode()


class TestParseInput:
    def test_length_spectrum_roundtrip(self):
        doc = parse_input(_doc(length_spectrum=[
            {"length": 2.0, "multiplicity": 1}, {"length": 1.0, "multiplicity": 3}]))
        assert doc.kind == "length_spectrum"
        assert doc.payload.entries == ((1.0, 3), (2.0, 1))

    def test_eigenvalues_roundtrip(self):
        doc = parse_input(_doc(
            eigenvalues=[{"lambda": 0.0, "multiplicity": 1}], volume=6.28))
        assert doc.kind == "eigenvalues"
        assert doc.payload.volume == 6.28

    def test_pinching_roundtrip(self):
        doc = parse_input(_doc(pinching=[0.1, 0.2]))
        assert isinstance(doc.payload, PinchingSet)
        assert doc.payload.ells == (0.1, 0.2)

    def test_schedule_roundtrip(self):
        doc = parse_input(_doc(schedule={
            "kind": "geometric", "start": 0.5, "ratio": 0.5, "count": 3}))
        assert len(doc.payload.points()) == 3
        doc2 = parse_input(_doc(schedule={"kind": "explicit", "values": [[0.5], [0.2]]}))
        assert doc2.payload.points()[1].ells == (0.2,)

    def test_schedule_kind_checked(self):
        for kind in ("spiral", ["geometric"], None):
            with pytest.raises(SchemaError, match=r"schedule\.kind"):
                parse_input(_doc(schedule={"kind": kind, "values": [[0.5]]}))

    def test_version_required_and_checked(self):
        with pytest.raises(SchemaError, match="version"):
            parse_input(json.dumps({"pinching": [0.1]}).encode())
        with pytest.raises(SchemaError, match="version"):
            parse_input(_doc(version=2, pinching=[0.1]))

    def test_exactly_one_payload(self):
        with pytest.raises(SchemaError, match="multiple payloads"):
            parse_input(_doc(pinching=[0.1], eigenvalues=[
                {"lambda": 0.0, "multiplicity": 1}], volume=1.0))
        with pytest.raises(SchemaError, match="exactly one"):
            parse_input(_doc())

    def test_offending_field_is_named(self):
        with pytest.raises(SchemaError, match=r"pinching\[0\]"):
            parse_input(_doc(pinching=[-0.1]))
        with pytest.raises(SchemaError, match=r"length_spectrum\[1\]\.length"):
            parse_input(_doc(length_spectrum=[
                {"length": 1.0, "multiplicity": 1},
                {"length": -2.0, "multiplicity": 1}]))
        with pytest.raises(SchemaError, match=r"eigenvalues\[0\]\.multiplicity"):
            parse_input(_doc(eigenvalues=[{"lambda": 0.0, "multiplicity": 0}],
                             volume=1.0))
        # a last point start * ratio^4 that underflows is the schedule's fault
        with pytest.raises(SchemaError, match=r"^schedule: geometric start \* ratio"):
            parse_input(_doc(schedule={
                "kind": "geometric", "start": 0.5, "ratio": 1e-100, "count": 5}))

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError, match="extra"):
            parse_input(_doc(pinching=[0.1], extra=1))
        with pytest.raises(SchemaError, match=r"policy\.bogus"):
            parse_input(_doc(pinching=[0.1], policy={"bogus": 1.0}))

    def test_volume_pairing(self):
        with pytest.raises(SchemaError, match="volume"):
            parse_input(_doc(eigenvalues=[{"lambda": 0.0, "multiplicity": 1}]))
        with pytest.raises(SchemaError, match="volume"):
            parse_input(_doc(pinching=[0.1], volume=1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(SchemaError):
            parse_input(b'{"version": 1, "pinching": [1e999]}')

    def test_malformed_json(self):
        with pytest.raises(SchemaError, match="malformed"):
            parse_input(b"{not json")
        with pytest.raises(SchemaError, match="object"):
            parse_input(b"[1, 2]")

    def test_policy_override_carried(self):
        doc = parse_input(_doc(pinching=[0.1], policy={"rel_tol": 1e-6}))
        assert doc.policy == {"rel_tol": 1e-6}


# document fields, so fuzzed objects reach the nested validators
_KEYS = st.sampled_from([
    "version", "volume", "policy", "contour", "length_spectrum", "eigenvalues",
    "pinching", "schedule", "length", "lambda", "multiplicity", "kind", "start",
    "ratio", "count", "values", "rel_tol", "abs_tol", "max_terms", "a", "s_max", "n_nodes"])
_LEAF = (st.none() | st.booleans() | st.integers(-2, 5) | st.floats()
         | st.sampled_from(["geometric", "explicit", ""]))
_VALUE = st.recursive(
    _LEAF, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=12)
_FUZZ = st.one_of(
    st.binary(max_size=40),
    st.dictionaries(_KEYS, _VALUE, max_size=4).map(lambda d: json.dumps(d).encode()),
    st.dictionaries(_KEYS, _VALUE, max_size=3).map(
        lambda d: json.dumps({**d, "version": 1}).encode()),
)


@settings(max_examples=40)
@given(data=_FUZZ)
def test_parse_input_raises_only_schema_errors(data):
    try:
        parse_input(data)
    except SchemaError:
        pass


def _run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def _csv_rows(out):
    return list(csv.reader(io.StringIO(out)))


class TestMainInProcess:
    def test_bessel_matches_library(self, capsys):
        code, out = _run_main(["bessel", "--p", "0.5", "--x", "2.0"], capsys)
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["p", "x", "value"]
        assert float(rows[1][2]) == pytest.approx(bessel_j(0.5, 2.0), rel=1e-15)

    def test_cweight_matches_library(self, capsys):
        code, out = _run_main(["cweight", "--w", "1", "--T", "1.25"], capsys)
        assert code == 0
        assert float(_csv_rows(out)[1][2]) == pytest.approx(
            c_weight(1.0, 1.25), rel=1e-15)

    def test_count_matches_library(self, tmp_path, capsys):
        f = tmp_path / "eig.json"
        f.write_text(json.dumps({
            "version": 1,
            "eigenvalues": [{"lambda": 0.0, "multiplicity": 1},
                            {"lambda": 0.2, "multiplicity": 1}],
            "volume": 1.0}))
        code, out = _run_main(
            ["count", "--input", str(f), "--w", "1", "--T", "1"], capsys)
        assert code == 0
        sd = SpectralData.of([(0.0, 1), (0.2, 1)])
        assert float(_csv_rows(out)[1][2]) == counting_direct(sd, 1.0, 1.0)

    def test_json_format(self, capsys):
        code, out = _run_main(
            ["balance", "--f-ell", "0.01", "--log-sum", "4", "--format", "json"],
            capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["epsilon"] == pytest.approx(0.05, rel=1e-15)

    def test_print_config_merges_precedence(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({
            "version": 1, "pinching": [0.1],
            "policy": {"rel_tol": 1e-5, "abs_tol": 1e-12}}))
        code, out = _run_main(
            ["gfunc", "--input", str(f), "--w", "0", "--T", "1",
             "--rel-tol", "1e-3", "--print-config"], capsys)
        assert code == 0
        cfg = json.loads(out)
        # flag beats document override; document override beats default
        assert cfg["policy"]["rel_tol"] == 1e-3
        assert cfg["policy"]["abs_tol"] == 1e-12
        assert cfg["policy"]["max_terms"] == 100_000_000

    def test_bad_document_exits_one(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"version": 1, "pinching": [-0.5]}))
        code = main(["dtrace", "--input", str(f), "--t", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "pinching[0]" in err

    def test_domain_error_exits_one(self, capsys):
        assert main(["heatkernel", "--t", "-1"]) == 1

    def test_nonconvergence_exits_two(self, capsys):
        assert main(["cylinder", "--ell", "0.05", "--t", "1",
                     "--max-terms", "1"]) == 2

    def test_quadrature_budget_exits_two(self, capsys):
        assert main(["cylinder", "--ell", "0.5", "--t", "1",
                     "--max-quad-evals", "100"]) == 2
        assert capsys.readouterr().err.startswith("pinchtrace: did not converge:")

    def test_wrong_payload_kind_exits_one(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "pinching": [0.1]}))
        assert main(["count", "--input", str(f), "--w", "1", "--T", "1"]) == 1

    def test_missing_file_exits_one(self, capsys):
        assert main(["dtrace", "--input", "/nonexistent.json", "--t", "1"]) == 1

    def test_unreadable_input_exits_one(self, tmp_path, capsys):
        assert main(["dtrace", "--input", str(tmp_path), "--t", "1"]) == 1
        assert capsys.readouterr().err.startswith("pinchtrace: error:")

    def test_print_config_checks_payload_kind(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "version": 1, "schedule": {"kind": "explicit", "values": [[0.5]]}}))
        argv = ["invert", "--input", str(f), "--w", "2", "--T", "1"]
        assert main(argv) == 1
        plain = capsys.readouterr()
        assert main(argv + ["--print-config"]) == 1
        assert capsys.readouterr() == plain
        assert plain.out == ""

    def test_long_length_trace_is_zero(self, tmp_path, capsys):
        # sinh(ell/2) overflows a double at this length
        f = tmp_path / "ls.json"
        f.write_text(json.dumps({
            "version": 1, "length_spectrum": [{"length": 2000, "multiplicity": 1}]}))
        code = main(["trace", "--input", str(f), "--t", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert _csv_rows(captured.out) == [["t", "htr"], ["1", "0"]]

    @pytest.mark.parametrize("argv, row", [
        (["trace", "--input", "{long}", "--t", "1"], ["1", "0"]),
        (["dtrace", "--input", "{pinch}", "--t", "1e-300"], ["1e-300", "0"]),
        (["bessel", "--p", "1.2", "--x", "1e300"], None),
        (["dtrace", "--input", "{pinch}", "--t", "1e-310"], ["9.9999999999999694e-311", "0"]),
        (["heatkernel", "--t", "1", "--rho", "1e300"], ["1", "1.0000000000000001e+300", "0"]),
        (["heatkernel", "--t", "1e20"], ["1e+20", "0", "0"]),
        # 2x/pi is subnormal for J_{1/2}, and 2/(pi x) overflows for J_{-1/2}
        (["bessel", "--p", "0.5", "--x", "5e-324"],
         ["0.5", "4.9406564584124654e-324", "1.7735048886036274e-162"]),
        (["bessel", "--p", "-0.5", "--x", "5e-324"],
         ["-0.5", "4.9406564584124654e-324", "3.5896138570490509e+161"]),
        # 1/4z and the trace's prefactor pass the largest double on this contour
        (["invert", "--input", "{pinch}", "--w", "2", "--T", "9e-308"],
         "pinchtrace: error: bromwich: the integrand is not finite on the contour"
         " for T = 9e-308\n"),
        # |t|^2 overflows, so the Gaussian's decay rate Re(1/t) reads 0
        (["trace", "--input", "{long}", "--t", "1e200"], ["9.9999999999999997e+199", "0"]),
        # 2/ell and 1/ell pass the doubles, and at 5e-324 ell/4 rounds to 0
        (["gfunc", "--input", "{tiny}", "--w", "2", "--T", "1"], None),
        (["residual", "--input", "{tiny}", "--w", "2", "--T", "1"], None),
        (["gfunc", "--input", "{least}", "--w", "0", "--T", "1"], None),
        (["residual", "--input", "{least}", "--w", "0", "--T", "1"], None),
        # (e x/2p)^p underflows: J_p(x) is 0 with no recurrence run
        (["bessel", "--p", "3e305", "--x", "1e200"],
         ["2.9999999999999998e+305", "9.9999999999999997e+199", "0"]),
        # lambda Im z overflows where e^{-lambda Re z} underflows: that term adds 0
        (["strace", "--input", "{eig}", "--t", "1", "--s", "1e300"],
         ["1", "1.0000000000000001e+300", "1", "0"]),
        # lambda Im z overflows where e^{-lambda Re z} does not: no phase
        (["strace", "--input", "{eig}", "--t", "1e-300", "--s", "1e10"],
         "pinchtrace: error: eigenvalue 1e+300 times Im z passes the largest double\n"),
    ])
    def test_extreme_arguments_leak_no_runtime_warning(self, tmp_path, capsys, argv, row):
        # a RuntimeWarning is an error under the test configuration, so an
        # overflow in numpy fails the call rather than reaching stderr
        docs = {"long": {"length_spectrum": [{"length": 1e300, "multiplicity": 1}]},
                "pinch": {"pinching": [0.1]}, "tiny": {"pinching": [1e-310]},
                "least": {"pinching": [5e-324]},
                "eig": {"eigenvalues": [{"lambda": 0.0, "multiplicity": 1},
                                        {"lambda": 1e300, "multiplicity": 1}], "volume": 1.0}}
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps({"version": 1, **doc}))
        code = main([a.format(**{name: tmp_path / name for name in docs}) for a in argv])
        captured = capsys.readouterr()
        if isinstance(row, str):  # a documented error: exit 1 with its one line alone
            assert code == 1 and captured.err == row and captured.out == ""
            return
        assert code == 0 and captured.err == ""
        got = _csv_rows(captured.out)[1]
        if row is not None:
            assert got == row
        elif argv[0] == "bessel":  # J_1.2(1e300) lies within its envelope sqrt(2/(pi x))
            assert 0.0 < abs(float(got[2])) <= math.sqrt(2.0 / (math.pi * 1e300))
        else:
            assert all(math.isfinite(float(v)) for v in got)

    def test_lengths_at_both_ends_of_the_doubles_leak_no_runtime_warning(self, tmp_path, capsys):
        # 1 - e^{-ell/2} is subnormal at 1e-310, and the n = 1 bound of 10000 underflows
        f = tmp_path / "mixed.json"
        f.write_text(json.dumps({"version": 1, "pinching": [0.1, 1e-310, 10000]}))
        code = main(["dtrace", "--input", str(f), "--t", "0.5", "--max-terms", "100"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("pinchtrace: did not converge: cannot certify tolerance "
                                "within 100 terms (length 1e-310)\n")

    def test_spectral_inversion_at_tiny_time_leaks_no_runtime_warning(self, tmp_path, capsys):
        # lambda Re z overflows on the contour Re z = 1/T for lambda = 1e300
        f = tmp_path / "eig.json"
        f.write_text(json.dumps({"version": 1, "volume": 1.0, "eigenvalues": [
            {"lambda": 0.0, "multiplicity": 1}, {"lambda": 1e300, "multiplicity": 1}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pinchtrace.UncertifiedTailWarning)  # w = 0
            code = main(["invert", "--input", str(f), "--w", "0", "--T", "1e-300"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("pinchtrace: did not converge: bromwich: quadrature budget")
        assert captured.err.count("\n") == 1

    def test_sweep_header_contract(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "version": 1,
            "schedule": {"kind": "explicit", "values": [[0.5], [0.25]]}}))
        code, out = _run_main(
            ["sweep", "--input", str(f), "--w", "0", "--T", "1"], capsys)
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["ell_sup", "log_sum", "g_value", "residual", "normalized"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 0.5

    def test_sweep_failed_rows_emit_nan_and_stderr(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "version": 1,
            "schedule": {"kind": "explicit", "values": [[0.5]]},
            "policy": {"max_terms": 1}}))
        code = main(["sweep", "--input", str(f), "--w", "0", "--T", "1"])
        captured = capsys.readouterr()
        assert code == 0
        row = _csv_rows(captured.out)[1]
        assert row[2] == "nan"
        assert "failed" in captured.err

    @pytest.mark.parametrize("argv,flag", [
        (["cweight", "--w", "0", "--T", "inf"], "--T"),
        (["balance", "--f-ell", "inf", "--log-sum", "4"], "--f-ell"),
        (["bessel", "--p", "0.5", "--x", "inf"], "--x"),
        (["cweight", "--w", "nan", "--T", "1"], "--w"),
    ])
    def test_nonfinite_flag_exits_one(self, argv, flag, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may leak
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{flag}: must be finite" in captured.err

    def test_gamma_overflow_exits_one(self, capsys):
        code = main(["cweight", "--w", "200", "--T", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("pinchtrace: error:")

    def test_phi0_overflow_exits_two(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "pinching": [0.0625]}))
        code = main(["gfunc", "--input", str(f), "--w", "100", "--T", "4.5e4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("pinchtrace: did not converge: phi0")

    def test_argument_rounding_at_huge_threshold_exits_two(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "pinching": [1.0 / 64.0]}))
        code = main(["gfunc", "--input", str(f), "--w", "0", "--T", "1e300"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("pinchtrace: did not converge: argument rounding")

    def test_print_config_threads_are_the_sweep_workers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPECTRA_THREADS", "2")
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "version": 1, "schedule": {"kind": "geometric", "start": 0.5, "ratio": 0.5,
                                       "count": 6}}))
        argv = ["sweep", "--input", str(f), "--w", "2", "--T", "1", "--print-config"]
        code, out = _run_main(argv, capsys)
        assert code == 0 and json.loads(out)["threads"] == 1
        code, out = _run_main(argv + ["--bromwich"], capsys)
        assert code == 0 and json.loads(out)["threads"] == thread_cap(6)

    def test_deep_length_certified_within_default_budget(self, tmp_path, capsys):
        # 2^-30 needs ~6e10 direct terms, far past max_terms; the
        # expansion route certifies it with a fixed amount of work
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "pinching": [2.0**-30]}))
        code, out = _run_main(
            ["residual", "--input", str(f), "--w", "2", "--T", "1"], capsys)
        assert code == 0
        assert float(_csv_rows(out)[1][4]) == pytest.approx(g_limit(2.0, 1.0), abs=1e-9)

    def test_balance_beyond_the_quotient_range(self, capsys):
        # f_ell/log_sum overflows here; epsilon = 1e160 does not
        code, out = _run_main(["balance", "--f-ell", "1", "--log-sum", "1e-320"], capsys)
        assert code == 0
        assert float(_csv_rows(out)[1][2]) == balance_epsilon(1.0, 1e-320)
        assert float(_csv_rows(out)[1][2]) == pytest.approx(1e160, rel=1e-5)
        code = main(["balance", "--f-ell", "1e308", "--log-sum", "1e-320"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("pinchtrace: error:")

    def test_budget_still_enforced_on_shallow_lengths(self, tmp_path, capsys):
        # the expansion route is tried first, but R's direct sum at ell0 = 1/4
        # needs about 240 terms and the length's own about 720: both pass 100
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "pinching": [0.05]}))
        assert main(["gfunc", "--input", str(f), "--w", "0", "--T", "1",
                     "--max-terms", "100"]) == 2

    def test_trace_complex_columns(self, tmp_path, capsys):
        f = tmp_path / "ls.json"
        f.write_text(json.dumps({
            "version": 1,
            "length_spectrum": [{"length": 1.0, "multiplicity": 1}]}))
        code, out = _run_main(
            ["trace", "--input", str(f), "--t", "1", "--s", "0.5"], capsys)
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["t", "s", "htr_re", "htr_im"]

    @pytest.mark.parametrize("flag", [["--contour-smax", "1e-12"], ["--contour-nodes", "100000"],
                                      ["--contour-a", "1"]])
    def test_removed_contour_flags_are_usage_errors(self, docs, capsys, flag):
        # the line comes from the trace, the height and node count from the
        # integrand: no flag sets any of them
        for command, kind in (("invert", "eigenvalues"), ("gfunc", "pinching"),
                              ("sweep", "schedule")):
            with pytest.raises(SystemExit) as exc:
                main([command, "--input", docs[kind], "--w", "2", "--T", "1"] + flag)
            assert exc.value.code == 64
            assert capsys.readouterr().out == ""

    def test_trace_volume_is_a_usage_error(self, docs, capsys):
        # the geodesic trace plus volume * heat_kernel_origin(t) is two calls
        # away: no flag adds them
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--input", docs["length_spectrum"], "--t", "1", "--volume", "1"])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("field", ["a", "s_max", "n_nodes"])
    def test_removed_contour_fields_are_unknown(self, tmp_path, capsys, field):
        f = tmp_path / "eig.json"
        f.write_text(json.dumps({"version": 1, "volume": 1.0, "contour": {field: 1.0},
                                 "eigenvalues": [{"lambda": 0.0, "multiplicity": 1}]}))
        assert main(["invert", "--input", str(f), "--w", "2", "--T", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pinchtrace: error: contour: unknown field\n"

    def test_bad_sweep_threshold_exits_one(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "version": 1, "schedule": {"kind": "explicit", "values": [[0.5]]}}))
        code = main(["sweep", "--input", str(f), "--w", "1", "--T", "-1", "--bromwich"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "pinchtrace: error: threshold must be finite and >= 0, got -1.0\n"

    def test_contour_sweep_at_zero_threshold_exits_one(self, tmp_path, capsys):
        # the series takes T = 0, but no contour inverts there: no nan rows
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "version": 1, "schedule": {"kind": "explicit", "values": [[0.5]]}}))
        code = main(["sweep", "--input", str(f), "--w", "1", "--T", "0", "--bromwich"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "pinchtrace: error: inversion time must be > 0, got 0.0\n"

    def test_warning_is_one_line_in_the_cli_format(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "pinching": [0.1]}))
        argv = ["invert", "--input", str(f), "--w", "1", "--T", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ("pinchtrace: warning: weighted_inverse: tail not certified "
                                "for w = 1.0 <= 3/2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0
        assert capsys.readouterr().out == captured.out


@pytest.fixture(scope="module")
def eig_path(tmp_path_factory):
    return tmp_path_factory.mktemp("dual") / "eig.json"


@pytest.mark.filterwarnings("ignore::pinchtrace.UncertifiedTailWarning")
@settings(max_examples=60)
@given(eigs=st.lists(st.tuples(st.floats(0.0, 6.0), st.integers(1, 3)), min_size=1, max_size=6),
       w=st.floats(1.0, 60.0), T=st.floats(0.3, 3.0), forced=st.booleans())
def test_invert_agrees_with_count_or_exits_two(eig_path, eigs, w, T, forced):
    # the dual routes through the command line: an inversion that exits 0
    # is within ten times its tolerance of the direct count, on the line it
    # picks; forced, bromwich's default line 1/T must be right or raise;
    # w < 1 is left out, as there spectral inversions spend the whole node
    # budget
    eig_path.write_text(json.dumps({"version": 1, "volume": 1.0, "eigenvalues": [
        {"lambda": lam, "multiplicity": m} for lam, m in eigs]}))
    wt = ["--input", str(eig_path), "--w", repr(w), "--T", repr(T)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["count"] + wt) == 0
    want = float(_csv_rows(out.getvalue())[1][2])
    if forced:
        sd, g = SpectralData.of(eigs), math.gamma(w + 1.0)
        try:
            got = bromwich(lambda z: g * spectral_trace(sd, z) * z ** -(w + 1.0), T).value
        except TruncationBudgetError:
            return
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["invert"] + wt)
        assert code in (0, 2)
        if code == 2:
            return
        got = float(_csv_rows(out.getvalue())[1][2])
    assert abs(got - want) <= 10.0 * DEFAULT_INVERSION_POLICY.tol(want)


_LS = LengthSpectrum.of([(1.0, 1), (2.0, 2)])
_SD = SpectralData.of([(0.0, 1), (0.2, 1), (0.7, 2)], volume=4.0 * math.pi)
_PS = PinchingSet((0.1,))
_SCH = Schedule.explicit([(0.5,), (0.25,)])


@pytest.fixture
def docs(tmp_path):
    """Input documents for _LS, _SD, _PS and _SCH, keyed by payload kind."""
    bodies = {
        "length_spectrum": [{"length": ell, "multiplicity": m} for ell, m in _LS.entries],
        "eigenvalues": [{"lambda": lam, "multiplicity": m} for lam, m in _SD.eigenvalues],
        "pinching": list(_PS.ells),
        "schedule": {"kind": "explicit", "values": [[0.5], [0.25]]},
    }
    paths = {}
    for kind, body in bodies.items():
        doc = {"version": 1, kind: body}
        if kind == "eigenvalues":
            doc["volume"] = _SD.volume
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    return {kind: str(path) for kind, path in paths.items()}


def _documented_csv(header, rows) -> str:
    """Header row, then every value at 17 significant digits."""
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _complex_row(t, s, value):
    return [t, s, value.real, value.imag]


# subcommand -> (argv after the name, with an input kind in place of its
# path; header; the same rows from the library)
LIBRARY_CALLS = {
    "bessel": (["--p", "1.5", "--x", "2"], ["p", "x", "value"],
               lambda: [[1.5, 2.0, bessel_j(1.5, 2.0)]]),
    "heatkernel": (["--t", "1", "--rho", "0.5"], ["t", "rho", "value"],
                   lambda: [[1.0, 0.5, heat_kernel(1.0, 0.5)]]),
    "cylinder": (["--ell", "1", "--t", "1"], ["ell", "t", "value"],
                 lambda: [[1.0, 1.0, cylinder_trace(1.0, 1.0)]]),
    "trace": (["--input", "length_spectrum", "--t", "1"], ["t", "htr"],
              lambda: [[1.0, hyperbolic_trace(_LS, 1.0)]]),
    "dtrace": (["--input", "pinching", "--t", "1", "--s", "0.5"],
               ["t", "s", "dtr_re", "dtr_im"],
               lambda: [_complex_row(1.0, 0.5, degenerating_trace(_PS, 1.0 + 0.5j))]),
    "strace": (["--input", "eigenvalues", "--t", "2"], ["t", "str"],
               lambda: [[2.0, spectral_trace(_SD, 2.0)]]),
    "invert": (["--input", "eigenvalues", "--w", "2", "--T", "1"], ["w", "T", "value"],
               lambda: [[2.0, 1.0, weighted_inverse(lambda z: spectral_trace(_SD, z), 2.0, 1.0)]]),
    "count": (["--input", "eigenvalues", "--w", "1", "--T", "1"], ["w", "T", "value"],
              lambda: [[1.0, 1.0, counting_direct(_SD, 1.0, 1.0)]]),
    "cweight": (["--w", "0.7", "--T", "3"], ["w", "T", "value"],
                lambda: [[0.7, 3.0, c_weight(0.7, 3.0)]]),
    "gfunc": (["--input", "pinching", "--w", "2", "--T", "1"], ["w", "T", "g"],
              lambda: [[2.0, 1.0, g_bessel(_PS, 2.0, 1.0)]]),
    "residual": (["--input", "pinching", "--w", "0", "--T", "1"],
                 ["w", "T", "g", "log_sum", "residual"],
                 lambda: [[0.0, 1.0, g_bessel(_PS, 0.0, 1.0), _PS.log_sum,
                           g_residual(_PS, 0.0, 1.0)]]),
    "sweep": (["--input", "schedule", "--w", "0", "--T", "1"],
              ["ell_sup", "log_sum", "g_value", "residual", "normalized"],
              lambda: [[r.ell_sup, r.log_sum, r.g_value, r.residual, r.normalized]
                       for r in run_sweep(_SCH, 0.0, 1.0).rows]),
    "balance": (["--f-ell", "0.01", "--log-sum", "4"], ["f_ell", "log_sum", "epsilon"],
                lambda: [[0.01, 4.0, balance_epsilon(0.01, 4.0)]]),
}


def _argv(name, docs):
    return [name] + [docs.get(a, a) for a in LIBRARY_CALLS[name][0]]


class TestLibraryBytes:
    """Each subcommand prints exactly the rows of the direct library call."""

    @pytest.mark.parametrize("name", sorted(LIBRARY_CALLS))
    def test_csv_equals_library(self, name, docs, capsys):
        _, header, rows = LIBRARY_CALLS[name]
        code, out = _run_main(_argv(name, docs), capsys)
        assert code == 0
        assert out == _documented_csv(header, rows())

    def test_json_equals_library(self, docs, capsys):
        _, header, rows = LIBRARY_CALLS["dtrace"]
        code, out = _run_main(_argv("dtrace", docs) + ["--format", "json"], capsys)
        assert code == 0
        assert out == json.dumps([dict(zip(header, row)) for row in rows()], indent=2) + "\n"

    def test_sweep_bromwich_default_flag_changes_nothing(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({
            "version": 1, "schedule": {"kind": "explicit", "values": [[0.5]]}}))
        argv = ["sweep", "--input", str(f), "--w", "2", "--T", "1", "--bromwich"]
        plain = _run_main(argv, capsys)
        flagged = _run_main(argv + ["--max-terms", str(DEFAULT_POLICY.max_terms)], capsys)
        assert plain[0] == flagged[0] == 0
        assert flagged[1] == plain[1]
        g = tmp_path / "p.json"
        g.write_text(json.dumps({"version": 1, "pinching": [0.5]}))
        code, out = _run_main(["gfunc", "--input", str(g), "--w", "2", "--T", "1",
                               "--check-bromwich"], capsys)
        assert code == 0
        assert _csv_rows(plain[1])[1][2] == _csv_rows(out)[1][3]

    @pytest.mark.parametrize("name", ["invert", "gfunc", "sweep"])
    def test_print_config_shows_both_policies(self, name, docs, tmp_path, capsys):
        kind = "schedule" if name == "sweep" else "pinching"
        f = tmp_path / "over.json"
        doc = json.loads(open(docs[kind]).read())
        doc["policy"] = {"abs_tol": 1e-12}
        f.write_text(json.dumps(doc))
        code, out = _run_main(
            [name, "--input", str(f), "--w", "2", "--T", "1", "--rel-tol", "1e-6",
             "--print-config"], capsys)
        assert code == 0
        cfg = json.loads(out)
        over = {"rel_tol": 1e-6, "abs_tol": 1e-12}
        assert cfg["policy"] == asdict(replace(DEFAULT_POLICY, **over))
        assert cfg["inversion_policy"] == asdict(replace(DEFAULT_INVERSION_POLICY, **over))
        # the line is derived from the trace, not configured
        assert "contour" not in cfg

    @pytest.mark.parametrize("name", sorted(LIBRARY_CALLS))
    def test_print_config_is_the_same_keys_for_every_subcommand(self, name, docs, capsys):
        code, out = _run_main(_argv(name, docs) + ["--print-config"], capsys)
        assert code == 0
        cfg = json.loads(out)
        keys = ["subcommand", "format", "policy", "inversion_policy"]
        assert list(cfg) == keys + (["threads"] if name == "sweep" else [])
        assert cfg["policy"] == asdict(DEFAULT_POLICY)
        assert cfg["inversion_policy"] == asdict(DEFAULT_INVERSION_POLICY)


def test_each_public_name_lives_in_its_listed_module():
    # the lazy-import table names each name's home module, not a re-export,
    # and is the union of the modules' own __all__
    assert pinchtrace.__all__ == ["__version__", *pinchtrace._MODULES]
    for name, module in pinchtrace._MODULES.items():
        home = importlib.import_module(f"pinchtrace.{module}")
        value = getattr(pinchtrace, name)
        assert value is getattr(home, name), name
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == home.__name__, name
    for module in set(pinchtrace._MODULES.values()):
        mapped = {name for name, home in pinchtrace._MODULES.items() if home == module}
        assert mapped == set(importlib.import_module(f"pinchtrace.{module}").__all__), module


class TestSubprocess:
    CMD = [sys.executable, "-m", "pinchtrace"]

    def test_usage_error_is_64(self):
        proc = subprocess.run(self.CMD + ["frobnicate"], capture_output=True)
        assert proc.returncode == 64
        proc = subprocess.run(self.CMD, capture_output=True)
        assert proc.returncode == 64

    def test_entry_point_happy_path(self):
        proc = subprocess.run(
            self.CMD + ["cweight", "--w", "0", "--T", "1.25"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        val = float(proc.stdout.splitlines()[1].split(",")[2])
        assert val == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_gamma_overflow_is_1_without_traceback(self):
        proc = subprocess.run(self.CMD + ["cweight", "--w", "200", "--T", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("pinchtrace: error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, code, prefix", [
        (["cylinder", "--ell", "1e300", "--t", "1"], 0, ""),
        (["cylinder", "--ell", "1", "--t", "1e-300"], 0, ""),
        (["cylinder", "--ell", "1", "--t", "1e300"], 0, ""),
        (["count", "--input", "{eig}", "--w", "1e300", "--T", "2"], 1,
         "pinchtrace: error: N_w(T) overflows"),
        # the saddle line 3e300 makes Gamma(3) a^-3 underflow: G_2 is 0 below T = 1/4
        (["invert", "--input", "{pinch}", "--w", "2", "--T", "1e-300"], 0, ""),
        (["dtrace", "--input", "{pinch}", "--t", "1", "--s", "1e300"], 0, ""),
        (["cweight", "--w", "1", "--T", "1e300"], 1, "pinchtrace: error: c_w(T) overflows"),
        (["heatkernel", "--t", "1e-300", "--rho", "1"], 0, ""),
        (["heatkernel", "--t", "1e300", "--rho", "1"], 0, ""),
        (["heatkernel", "--t", "1e20"], 0, ""),
        (["sweep", "--input", "{sched}", "--w", "-1", "--T", "0.1"], 1,
         "pinchtrace: error: weight must be finite and >= 0"),
        (["invert", "--input", "{eig}", "--w", "1", "--T", "-1"], 1,
         "pinchtrace: error: inversion time must be > 0"),
        # 16/T is not a double
        (["invert", "--input", "{eig}", "--w", "2", "--T", "1e-320"], 1,
         "pinchtrace: error: inversion time must be finite with 16/T finite"),
        (["invert", "--input", "{pinch}", "--w", "2", "--T", "1e-320"], 1,
         "pinchtrace: error: inversion time must be finite with 16/T finite"),
        (["gfunc", "--input", "{pinch}", "--w", "2", "--T", "1e-320", "--check-bromwich"], 1,
         "pinchtrace: error: inversion time must be finite with 16/T finite"),
        (["sweep", "--input", "{sched}", "--w", "0", "--T", "1e-320", "--bromwich"], 1,
         "pinchtrace: error: inversion time must be finite with 16/T finite"),
        # Gamma(w+1) overflows before the Bessel series is built
        (["gfunc", "--input", "{pinch}", "--w", "1.7e308", "--T", "1"], 1,
         "pinchtrace: error: gamma(1.7e+308) overflows"),
        (["residual", "--input", "{pinch}", "--w", "1.7e308", "--T", "1"], 1,
         "pinchtrace: error: gamma(1.7e+308) overflows"),
        # 2/ell and 1/ell pass the doubles, and at 5e-324 ell/4 rounds to 0
        (["gfunc", "--input", "{tiny}", "--w", "2", "--T", "1"], 0, ""),
        (["residual", "--input", "{tiny}", "--w", "2", "--T", "1"], 0, ""),
        (["gfunc", "--input", "{least}", "--w", "0", "--T", "1"], 0, ""),
        (["residual", "--input", "{least}", "--w", "0", "--T", "1"], 0, ""),
        # 5e-324/2 underflows: no tail bound of a direct sum is finite
        (["dtrace", "--input", "{least}", "--t", "1"], 2, "pinchtrace: did not converge"),
        (["invert", "--input", "{least}", "--w", "2", "--T", "1"], 2,
         "pinchtrace: did not converge"),
        (["trace", "--input", "{shortest}", "--t", "1"], 2, "pinchtrace: did not converge"),
        # tol(R) times 1 - e^{-ell0/2} underflows to 0
        (["gfunc", "--input", "{short}", "--w", "43.7684217324403", "--T", "0.25000133793834134",
          "--rel-tol", "1e-6", "--abs-tol", "1e-300"], 2, "pinchtrace: did not converge"),
        # x sqrt(a) and 2 ell overflow: every term's bound underflows, and G is 0
        (["gfunc", "--input", "{huge}", "--w", "2", "--T", "1"], 0, ""),
        (["gfunc", "--input", "{huge}", "--w", "0.1", "--T", "1e8"], 0, ""),
        # Gamma(p + 1) overflows, and J_p underflows
        (["bessel", "--p", "3e305", "--x", "0"], 0, ""),
        (["bessel", "--p", "3e305", "--x", "1"], 0, ""),
    ])
    def test_extreme_arguments_exit_without_traceback(self, tmp_path, argv, code, prefix):
        # an unrepresentable argument is a domain error; values that
        # underflow are the closed form's 0
        docs = {"eig": {"eigenvalues": [{"lambda": 0.0, "multiplicity": 1}], "volume": 1.0},
                "pinch": {"pinching": [0.1]}, "tiny": {"pinching": [1e-310]},
                "least": {"pinching": [5e-324]}, "short": {"pinching": [0.00015]},
                "huge": {"pinching": [1.7976931348623157e308]},
                "shortest": {"length_spectrum": [{"length": 5e-324, "multiplicity": 1}]},
                "sched": {"schedule": {"kind": "explicit", "values": [[0.5]]}}}
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps({"version": 1, **doc}))
        zero = argv[0] in ("cylinder", "heatkernel", "invert", "bessel") or "{huge}" in argv
        argv = [a.format(**{name: tmp_path / name for name in docs}) for a in argv]
        proc = subprocess.run(self.CMD + argv, capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stderr.startswith(prefix) and "Traceback" not in proc.stderr
        if code == 0:
            assert proc.stderr == ""
            values = [float(v) for v in proc.stdout.splitlines()[1].split(",")]
            assert all(map(math.isfinite, values))
            if zero:
                assert values[-1] == 0.0

    def test_kernel_at_tiny_time_fits_a_double(self):
        # (4 pi t)^{3/2} underflows, K(t, 0) ~ 8e298 does not
        proc = subprocess.run(self.CMD + ["heatkernel", "--t", "1e-300", "--rho", "0"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        value = float(proc.stdout.splitlines()[1].split(",")[2])
        assert math.isfinite(value) and value > 1e298

    @pytest.mark.parametrize("argv, code, numpy_loaded", [
        (None, None, False),  # import pinchtrace alone
        (["cweight", "--w", "1", "--T", "1.2"], 0, False),
        (["count", "--input", "{eig}", "--w", "1", "--T", "1"], 0, False),
        (["balance", "--f-ell", "0.01", "--log-sum", "4"], 0, False),
        (["bessel", "--p", "2.5", "--x", "3", "--oracle"], 0, False),
        (["dtrace", "--input", "{bad}", "--t", "1"], 1, False),
        (["frobnicate"], 64, False),
        (["gfunc", "--input", "{pinch}", "--w", "2", "--T", "1"], 0, True),
    ])
    def test_closed_form_calls_never_load_numpy(self, tmp_path, argv, code, numpy_loaded):
        docs = {"eig": {"version": 1, "volume": 1.0,
                        "eigenvalues": [{"lambda": 0.0, "multiplicity": 1}]},
                "bad": {"version": 1, "pinching": []},
                "pinch": {"version": 1, "pinching": [0.1]}}
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        if argv is not None:
            argv = [a.format(**{n: tmp_path / n for n in docs}) for a in argv]
        script = (
            "import contextlib, io, json, sys\n"
            "import pinchtrace\n"
            "loaded = ['numpy' in sys.modules]\n"
            "argv = json.loads(sys.argv[1])\n"
            "code = None\n"
            "if argv is not None:\n"
            "    from pinchtrace import cli\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            code = cli.main(argv)\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "print(json.dumps([code, loaded]))\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got_code, loaded = json.loads(proc.stdout)
        assert got_code == code
        assert loaded[0] is False  # import pinchtrace
        assert loaded[-1] is numpy_loaded

    def test_lazy_package_resolves_every_public_name(self):
        script = (
            "import sys, pinchtrace\n"
            "listed = set(dir(pinchtrace))\n"
            "assert set(pinchtrace.__all__) <= listed, set(pinchtrace.__all__) - listed\n"
            "assert 'numpy' not in sys.modules\n"
            "for name in pinchtrace.__all__:\n"
            "    getattr(pinchtrace, name)\n"
            "ns = {}\n"
            "exec('from pinchtrace import *', ns)\n"
            "assert set(pinchtrace.__all__) <= set(ns)\n"
            "assert pinchtrace.c_weight is pinchtrace.counting.c_weight\n"
            "assert pinchtrace.bessel_j_oracle is pinchtrace.specfun.bessel_j_oracle\n"
            "assert pinchtrace.DEFAULT_INVERSION_POLICY is "
            "pinchtrace.xform.DEFAULT_INVERSION_POLICY\n"
            "try:\n"
            "    pinchtrace.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('unknown name resolved')\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_out_quadrature_and_mpmath(self):
        code = ("import sys, pinchtrace; print(sorted(m for m in "
                "('scipy.special', 'scipy.integrate', 'mpmath') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_calls_never_load_scipy_special(self, tmp_path):
        # every Bessel order, the Taylor bound and every subcommand are
        # computed with numpy: integer and fractional weights alike
        eig = tmp_path / "eig.json"
        eig.write_text(json.dumps({"version": 1, "eigenvalues": [
            {"lambda": 0.0, "multiplicity": 1}, {"lambda": 0.7, "multiplicity": 2}],
            "volume": 4.0 * math.pi}))
        pinch = tmp_path / "pinch.json"
        pinch.write_text(json.dumps({"version": 1, "pinching": [0.1]}))
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"version": 1, "schedule": {
            "kind": "geometric", "start": 0.5, "ratio": 0.5, "count": 6}}))
        calls = [["cweight", "--w", "1", "--T", "1.2"],
                 ["count", "--input", str(eig), "--w", "1", "--T", "1"],
                 ["strace", "--input", str(eig), "--t", "1"],
                 ["dtrace", "--input", str(pinch), "--t", "1"]]
        for w in ("0", "1", "2", "3", "4", "0.7"):
            calls += [["gfunc", "--input", str(pinch), "--w", w, "--T", "1"],
                      ["residual", "--input", str(pinch), "--w", w, "--T", "1"],
                      ["sweep", "--input", str(sched), "--w", w, "--T", "1"]]
        calls.append(["bessel", "--p", "1.2", "--x", "3.0"])
        code = (
            "import contextlib, io, json, sys\n"
            "from pinchtrace.cli import main\n"
            "report = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        exit_code = main(argv)\n"
            "    loaded = 'scipy.special' in sys.modules\n"
            "    report.append([argv[0], exit_code, loaded, out.getvalue()])\n"
            "print(json.dumps(report))\n")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert len(report) == len(calls)
        for name, exit_code, loaded, _ in report:
            assert exit_code == 0 and not loaded, name
        import mpmath

        got = float(report[-1][3].splitlines()[1].split(",")[2])
        assert got == pytest.approx(float(mpmath.besselj(1.2, 3.0)), rel=1e-15)

    def test_phi0_overflow_is_2_without_traceback(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "pinching": [0.0625]}))
        proc = subprocess.run(
            self.CMD + ["gfunc", "--input", str(f), "--w", "100", "--T", "4.5e4"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("pinchtrace: did not converge: phi0")
        assert "Traceback" not in proc.stderr

    def test_validation_failure_is_1(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"version": 1, "pinching": []}')
        proc = subprocess.run(
            self.CMD + ["dtrace", "--input", str(f), "--t", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "pinching" in proc.stderr
