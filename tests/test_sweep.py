"""Degeneration schedules, the sweep driver, and growth-exponent fits."""

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
        counting._expansion.cache_clear()
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
