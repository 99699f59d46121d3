"""Degeneration schedules, the sweep driver, and growth-exponent fits."""

import concurrent.futures
import math
import os
import threading

import numpy as np
import pytest

from pinchtrace import counting, sweep
from pinchtrace import (
    DomainError,
    LengthSpectrum,
    PinchingSet,
    Schedule,
    TruncationPolicy,
    c_weight,
    fit_growth_exponent,
    g_bessel,
    hyperbolic_trace,
    run_sweep,
    thread_cap,
)


# the g_value column of the four pinch_series-shaped sweeps, (w, T, start, rows),
# recorded before ell_star replaced the expansion route's 24-order gate
_SWEEP_PINS = [
    ((0.0, 1.0, 0.4925, 18), [
        '0x1.fa7203275747ep-2', '0x1.5eb23f346b677p-1', '0x1.c070216287cadp-1',
        '0x1.111f922c19ef1p+0', '0x1.4209377d5789bp+0', '0x1.72f365c007b59p+0',
        '0x1.a3ddb63ed215ep+0', '0x1.d4c80f4c9edc4p+0', '0x1.02d9353f15fcep+1',
        '0x1.1b4e631c54948p+1', '0x1.33c3910ab12e2p+1', '0x1.4c38befd55486p+1',
        '0x1.64adecf10b42bp+1', '0x1.7d231ae505b51p+1', '0x1.959848d911456p+1',
        '0x1.ae0d76cd211d3p+1', '0x1.c682a4c13206fp+1', '0x1.def7d2b543352p+1',
    ]),
    ((2.0, 1.0, 0.000240478515625, 7), [
        '0x1.9e5caefdf9bf8p-1', '0x1.bbb61955cfdf2p-1', '0x1.d90f83add4f1ep-1',
        '0x1.f668ee05e5c19p-1', '0x1.09e12c2efcc02p+0', '0x1.188de15b06fd8p+0',
        '0x1.273a968711524p+0',
    ]),
    ((0.0, 0.5, 0.4925, 18), [
        '0x1.68672d8bc0854p-2', '0x1.d9298d987f5a4p-2', '0x1.2509c2c004932p-1',
        '0x1.5d83b02dcd09ep-1', '0x1.95fed9e21642dp-1', '0x1.ce7a52a680053p-1',
        '0x1.037aef976cf86p+0', '0x1.1fb8b85417339p+0', '0x1.3bf681aee0b42p+0',
        '0x1.58344b3132054p+0', '0x1.747214bd654a8p+0', '0x1.90afde4c110cdp+0',
        '0x1.aceda7db5aee6p+0', '0x1.c92b716acc57bp+0', '0x1.e5693afa47a30p+0',
        '0x1.00d38244e2b35p+1', '0x1.0ef2670ca1e46p+1', '0x1.1d114bd461291p+1',
    ]),
    ((0.7, 1.0, 0.000240478515625, 3), [
        '0x1.94fd13d02aca3p+0', '0x1.b237d4da445e7p+0', '0x1.cf7295e49c3f6p+0',
    ]),
]


class TestSchedule:
    def test_geometric_points(self):
        sch = Schedule.geometric(0.5, 0.5, 4)
        pts = sch.points()
        assert len(pts) == 4
        assert [p.sup for p in pts] == pytest.approx([0.5, 0.25, 0.125, 0.0625])
        assert all(len(p) == 1 for p in pts)

    def test_explicit_points(self):
        sch = Schedule.explicit([(0.5, 0.4), (0.2,)])
        pts = sch.points()
        assert pts[0].ells == (0.4, 0.5) or set(pts[0].ells) == {0.5, 0.4}
        assert pts[1].ells == (0.2,)

    def test_geometric_validation(self):
        with pytest.raises(DomainError):
            Schedule.geometric(0.0, 0.5, 4)
        with pytest.raises(DomainError):
            Schedule.geometric(0.5, 1.0, 4)
        with pytest.raises(DomainError):
            Schedule.geometric(0.5, -0.1, 4)
        with pytest.raises(DomainError):
            Schedule.geometric(0.5, 0.5, 1)
        # the last point underflows to 0; a subnormal one stays legal
        with pytest.raises(DomainError, match=r"ratio\^\(count - 1\) must be > 0"):
            Schedule.geometric(0.5, 1e-100, 5)
        assert Schedule.geometric(0.5, 1e-103, 4).points()[-1].sup == 0.5 * 1e-103**3

    def test_explicit_validation(self):
        with pytest.raises(DomainError):
            Schedule.explicit([])
        # sup norms must strictly decrease along the schedule
        with pytest.raises(DomainError):
            Schedule.explicit([(0.2,), (0.3,)])
        with pytest.raises(DomainError):
            Schedule.explicit([(0.2,), (0.2,)])


class TestRunSweep:
    def test_geometric_trend(self):
        res = run_sweep(Schedule.geometric(0.5, 0.5, 8), 0.0, 1.0)
        assert len(res.rows) == 8
        g = [r.g_value for r in res.rows]
        norm = [r.normalized for r in res.rows]
        assert all(b > a for a, b in zip(g, g[1:]))
        assert all(b < a for a, b in zip(norm, norm[1:]))
        # residual settles: successive gaps shrink
        gaps = [abs(a.residual - b.residual) for a, b in zip(res.rows, res.rows[1:])]
        assert gaps[-1] < gaps[0]
        # and the tail of the normalized column approaches the constant
        cw = c_weight(0.0, 1.0)
        drift = [abs(n - cw) for n in norm]
        assert drift[-1] < drift[0]

    def test_rows_match_direct_evaluation(self):
        sch = Schedule.explicit([(0.5, 0.5), (0.125,)])
        res = run_sweep(sch, 1.0, 1.25)
        cw = c_weight(1.0, 1.25)
        for row, ells in zip(res.rows, [(0.5, 0.5), (0.125,)]):
            ps = PinchingSet.of(ells)
            assert row.ell_sup == ps.sup
            assert row.log_sum == pytest.approx(ps.log_sum, rel=1e-15)
            assert row.g_value == pytest.approx(g_bessel(ps, 1.0, 1.25), rel=1e-12)
            assert row.residual == pytest.approx(row.g_value - cw * row.log_sum, abs=1e-12)
            assert row.normalized == pytest.approx(row.g_value / row.log_sum, rel=1e-14)
            assert row.error is None

    def test_threshold_at_quarter_gives_zero_rows(self):
        res = run_sweep(Schedule.explicit([(0.5, 0.5)]), 0.0, 0.25)
        row = res.rows[0]
        assert row.g_value == 0.0
        assert row.residual == 0.0
        assert row.normalized == 0.0

    def test_bromwich_route_agrees(self):
        sch = Schedule.explicit([(0.4,)])
        direct = run_sweep(sch, 2.0, 1.0)
        dual = run_sweep(sch, 2.0, 1.0, use_bromwich=True)
        assert dual.rows[0].g_value == pytest.approx(direct.rows[0].g_value, rel=1e-3)

    def test_additivity_across_copies(self):
        single = run_sweep(Schedule.explicit([(0.25,)]), 0.0, 1.0).rows[0]
        double = run_sweep(Schedule.explicit([(0.25, 0.25)]), 0.0, 1.0).rows[0]
        assert double.g_value == pytest.approx(2.0 * single.g_value, rel=1e-12)

    def test_failed_rows_are_marked_not_raised(self):
        tight = TruncationPolicy(rel_tol=1e-9, abs_tol=1e-14, max_terms=1,
                                 max_quad_evals=2_000_000)
        res = run_sweep(Schedule.geometric(0.5, 0.5, 3), 0.0, 1.0, policy=tight)
        assert len(res.rows) == 3
        for row in res.rows:
            assert row.error is not None
            assert math.isnan(row.g_value)
            assert math.isnan(row.residual)
            # schedule geometry is still reported
            assert math.isfinite(row.ell_sup)

    def test_weight_domain(self):
        with pytest.raises(DomainError):
            run_sweep(Schedule.geometric(0.5, 0.5, 3), -1.0, 1.0)

    @pytest.mark.parametrize("w, T, what, use_bromwich", [
        pytest.param(w, T, what, use_bromwich, id=f"{w}-{T}-{what}-{use_bromwich}")
        for w, T, what in [(-1.0, 0.1, "weight"), (1.0, -1.0, "threshold"),
                           (math.nan, 1.0, "weight"), (1.0, math.inf, "threshold")]
        for use_bromwich in (False, True)
    ] + [
        # T = 0 is a threshold the series takes, but no contour inverts at it
        pytest.param(1.0, 0.0, "inversion time", True, id="T0-bromwich"),
        # nor at one where 16/T or the saddle line (w+1)/T overflows
        pytest.param(1.0, 1e-320, "16/T finite", True, id="T1e-320-bromwich"),
        pytest.param(170.0, 9e-307, "171/T finite", True, id="w170-T9e-307-bromwich"),
    ])
    def test_bad_weight_or_threshold_fails_before_any_row(self, monkeypatch, w, T, what,
                                                          use_bromwich):
        # below T = 1/4 no c_weight call checks w, and a failed row is only
        # recorded: the sweep must refuse the call itself
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(sweep, "g_bessel", no_row)
        monkeypatch.setattr(sweep, "weighted_inverse", no_row)
        with pytest.raises(DomainError, match=what):
            run_sweep(Schedule.geometric(0.5, 0.5, 3), w, T, use_bromwich=use_bromwich)


class TestSeriesCost:
    def _bessel_points(self, monkeypatch, rows):
        points = []
        kernel = counting.bessel_j_half

        def counted(n, x):
            points.append(np.size(x))
            return kernel(n, x)

        monkeypatch.setattr(counting, "bessel_j_half", counted)
        counting._series.cache_clear()
        res = run_sweep(Schedule.geometric(2.0**-12, 0.5, rows), 2.0, 1.0)
        assert all(row.error is None for row in res.rows)
        return sum(points)

    def test_deep_rows_evaluate_no_bessel_points(self, monkeypatch):
        # every row from 2^-12 down takes the expansion route, whose
        # constants are built once per (w, T, policy): 18 rows cost no
        # more kernel points than 3
        few = self._bessel_points(monkeypatch, 3)
        many = self._bessel_points(monkeypatch, 18)
        assert few == many > 0

    @pytest.mark.parametrize("key, column", _SWEEP_PINS)
    def test_pinch_series_columns_are_bit_for_bit_as_recorded(self, key, column):
        w, T, start, rows = key
        res = run_sweep(Schedule.geometric(start, 0.5, rows), w, T)
        assert [float.hex(row.g_value) for row in res.rows] == column

    def test_series_rows_read_no_thread_cap(self, monkeypatch):
        # one g_bessel call per row, and no worker count: a malformed cap
        # reaches contour sweeps only
        monkeypatch.setenv("SPECTRA_THREADS", "many")
        calls, inner = [], sweep.g_bessel
        monkeypatch.setattr(sweep, "g_bessel", lambda *args: calls.append(args) or inner(*args))
        res = run_sweep(Schedule.geometric(0.5, 0.5, 6), 0.0, 1.0)
        assert len(calls) == 6 and all(row.error is None for row in res.rows)
        with pytest.raises(DomainError, match="SPECTRA_THREADS"):
            run_sweep(Schedule.geometric(0.5, 0.5, 2), 2.0, 1.0, use_bromwich=True)

    def test_series_rows_run_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setenv("SPECTRA_THREADS", "4")
        seen = set()
        inner = sweep.g_bessel

        def recorded(*args, **kwargs):
            seen.add(threading.get_ident())
            return inner(*args, **kwargs)

        monkeypatch.setattr(sweep, "g_bessel", recorded)
        run_sweep(Schedule.geometric(0.5, 0.5, 6), 0.0, 1.0)
        assert seen == {threading.get_ident()}


class TestThreadCap:
    def test_cap_respects_env(self, monkeypatch):
        monkeypatch.setenv("SPECTRA_THREADS", "2")
        assert thread_cap(16) <= 2
        monkeypatch.setenv("SPECTRA_THREADS", "1")
        assert thread_cap(16) == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("SPECTRA_THREADS", "many")
        with pytest.raises(DomainError):
            thread_cap(4)

    def test_never_exceeds_jobs(self, monkeypatch):
        monkeypatch.delenv("SPECTRA_THREADS", raising=False)
        assert thread_cap(1) == 1
        assert thread_cap(3) <= 3

    def test_contour_rows_on_a_pool_give_the_serial_bytes(self, monkeypatch):
        # three contour rows, the last failing on max_terms: two workers give
        # the column and the errors of one, through a thread pool
        pools = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, **kwargs):
                pools.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        sch, policy = Schedule.geometric(0.9, 0.1, 3), TruncationPolicy(max_terms=300)
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SPECTRA_THREADS", threads)
            results.append(run_sweep(sch, 2.0, 1.0, policy, use_bromwich=True))
        serial, pooled = results
        assert pools == [{"max_workers": 2}] and [i for i, _ in serial.errors] == [2]
        assert pooled.g_packed == serial.g_packed and pooled.errors == serial.errors


class TestGrowthFit:
    def test_power_law_recovered_exactly(self):
        s = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        samples = [(x, (1.0 + x) ** 1.5) for x in s]
        C, beta = fit_growth_exponent(samples)
        assert beta == pytest.approx(1.5, abs=1e-12)
        assert C == pytest.approx(1.0, rel=1e-12)

    def test_flat_magnitudes_give_zero_exponent(self):
        s = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        C, beta = fit_growth_exponent([(x, 5.0) for x in s])
        assert beta == pytest.approx(0.0, abs=1e-12)
        assert C == pytest.approx(5.0, rel=1e-12)

    def test_design_requirements(self):
        good = [(float(2**k), 1.0) for k in range(8)]
        with pytest.raises(DomainError):
            fit_growth_exponent(good[:7])
        with pytest.raises(DomainError):
            fit_growth_exponent([(x, -1.0) for x, _ in good])
        # samples bunched in one decade cannot anchor a slope
        with pytest.raises(DomainError):
            fit_growth_exponent([(1.0 + 0.1 * k, 1.0) for k in range(8)])

    @pytest.mark.parametrize("entries", [
        [(1.0, 1)],
        [(0.4, 1), (0.9, 2), (1.5, 1), (2.2, 1), (3.0, 3)],
    ])
    def test_trace_magnitude_stays_under_ceiling(self, entries):
        ls = LengthSpectrum.of(entries)
        samples = []
        for k in range(8):
            s = float(2**k)
            samples.append((s, abs(hyperbolic_trace(ls, 1.0 + 1j * s))))
        _, beta = fit_growth_exponent(samples)
        assert beta <= 1.6
