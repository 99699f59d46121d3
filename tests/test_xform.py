"""Bromwich inversion and weighted counting inversion."""

import dataclasses
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from pinchtrace import (
    DEFAULT_INVERSION_POLICY,
    DomainError,
    InversionResult,
    PinchingSet,
    Schedule,
    SpectralData,
    TruncationBudgetError,
    UncertifiedTailWarning,
    bromwich,
    counting_direct,
    degenerating_trace,
    g_bessel,
    run_sweep,
    spectral_trace,
    weighted_inverse,
)
from pinchtrace import xform


# the eigenvalues of perfbench's dual_routes workload, unperturbed
_DUAL_EIGS = [(0.0, 1), (0.13, 1), (0.37, 2), (0.71, 1), (0.86, 3), (1.4, 1), (1.77, 2)]


class TestBromwich:
    def test_ramp(self):
        r = bromwich(lambda z: 1.0 / (z * z), 1.0)
        assert r.value == pytest.approx(1.0, rel=1e-6)
        assert isinstance(r, InversionResult)
        assert r.evaluations > 0
        assert float(r) == r.value

    def test_bessel_generating_transform(self):
        r = bromwich(lambda z: np.exp(-1.0 / z) / z**2, 1.0)
        assert r.value == pytest.approx(jv(1, 2.0), rel=1e-6)

    @pytest.mark.parametrize("b", [0.1, 0.4])
    def test_shifted_ramp(self, b):
        r = bromwich(lambda z: np.exp(-b * z) / z**2, 1.0)
        assert r.value == pytest.approx(1.0 - b, rel=1e-6)

    def test_shift_beyond_threshold_vanishes(self):
        r = bromwich(lambda z: np.exp(-0.4 * z) / z**2, 0.3)
        assert abs(r.value) <= 1e-7

    @pytest.mark.parametrize("w", [1.0, 2.0])
    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_power_round_trip(self, w, T):
        g = math.gamma(w + 1.0)
        r = bromwich(lambda z: g * z ** (-(w + 1.0)), T)
        assert r.value == pytest.approx(T**w, rel=1e-4)

    @pytest.mark.parametrize("mu", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_bessel_identity(self, mu, k):
        # L[(t/a)^{mu/2} J_mu(2 sqrt(a t))] = z^{-mu-1} e^{-a/z}, a = k^2
        a = k * k
        r = bromwich(lambda z: z ** (-(mu + 1.0)) * np.exp(-a / z), 1.0)
        want = a ** (-mu / 2.0) * jv(mu, 2.0 * k)
        assert r.value == pytest.approx(want, rel=1e-4)

    def test_slow_decay_is_detected(self):
        # z^{-1/2} decays too slowly along the contour for any height to
        # certify the discarded tail: the quadrature budget stops it.
        with pytest.raises(TruncationBudgetError, match="budget"):
            bromwich(lambda z: z**-0.5, 1.0)

    def test_weight_zero_runs_fifteen_extensions(self):
        # the w = 0 integrand at ell = 0.1 converges on the fifteenth
        # extension of the default height; the tail's panels widen, so
        # that takes well under the default budget
        ps = PinchingSet.of([0.1])
        r = bromwich(lambda z: degenerating_trace(ps, z) / z, 1.0)
        assert r.s_max == 16.0 * 2**14  # the starting height 16/T, doubled 14 times
        assert r.evaluations <= 1_000_000
        want = g_bessel(ps, 0.0, 1.0)
        assert abs(r.value - want) <= 10.0 * DEFAULT_INVERSION_POLICY.rel_tol * abs(want)

    @pytest.mark.parametrize("eigs, w, T, s_max, nodes", [
        (None, 2.0, 1.0, 1024.0, 2000),  # ell = 0.1: 2640 nodes with rules at L and 2L
        (_DUAL_EIGS, 1.0, 1.0, 32768.0, 32_000),  # 40,752 nodes with them
        (_DUAL_EIGS, 1.0, 2.0, 8192.0, 18_000),  # 22,320 nodes with them
    ])
    def test_one_kronrod_evaluation_per_extension(self, eigs, w, T, s_max, nodes):
        # each extension is evaluated once, on 33-node panels of width 2L,
        # and climbs to the height that separate 16-point rules at L and 2L did
        if eigs is None:
            ps = PinchingSet.of([0.1])
            r = bromwich(lambda z: 2.0 * degenerating_trace(ps, z) * z**-3.0, T)
        else:
            r = bromwich(_weighted_transform(eigs, w), T)
        assert r.s_max == s_max and r.evaluations <= nodes

    def test_height_past_the_doubles_raises(self):
        # 16/T is a double at T = 1e-307, but the second height 32/T is not
        with pytest.raises(TruncationBudgetError, match="height passes the doubles"):
            bromwich(lambda z: 0.0 * z, 1e-307)

    def test_explicit_contour_is_honored(self):
        r = bromwich(lambda z: 1.0 / z**2, 2.0, a=1.0)
        assert r.a == 1.0
        assert r.value == pytest.approx(2.0, rel=1e-5)

    def test_domain_errors(self):
        for T in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="inversion time"):
                bromwich(lambda z: 1.0 / z**2, T)
        # T = inf, and times at which the first height 16/T overflows
        for T in (math.inf, 1e-320, 8.8e-308):
            with pytest.raises(DomainError, match="inversion time must be finite with 16/T finite"):
                bromwich(lambda z: 1.0 / z**2, T)
        for a in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="abscissa"):
                bromwich(lambda z: 1.0 / z**2, 1.0, a=a)


def _weighted_transform(eigs, w):
    """z -> Gamma(w+1) trace(z) / z^{w+1} of an eigenvalue list, for bromwich."""
    sd, g = SpectralData.of(eigs), math.gamma(w + 1.0)
    return lambda z: g * spectral_trace(sd, z) * z ** -(w + 1.0)


class TestWeightedInverse:
    def test_single_ground_state(self):
        sd = SpectralData.of([(0.0, 1)])
        with pytest.warns(UncertifiedTailWarning):
            v = weighted_inverse(lambda z: spectral_trace(sd, z), 1.0, 1.0)
        assert v == pytest.approx(1.0, rel=1e-6)

    def test_two_levels_quadratic_weight(self):
        sd = SpectralData.of([(0.0, 1), (0.5, 1)])
        v = weighted_inverse(lambda z: spectral_trace(sd, z), 2.0, 1.0)
        assert v == pytest.approx(1.25, rel=1e-6)

    def test_low_weight_warns(self):
        sd = SpectralData.of([(0.0, 1)])
        with pytest.warns(UncertifiedTailWarning):
            weighted_inverse(lambda z: spectral_trace(sd, z), 1.5, 1.0)

    def test_high_weight_does_not_warn(self, recwarn):
        sd = SpectralData.of([(0.0, 1)])
        weighted_inverse(lambda z: spectral_trace(sd, z), 2.0, 1.0)
        assert not [w for w in recwarn if issubclass(w.category, UncertifiedTailWarning)]

    def test_negative_weight_rejected(self):
        sd = SpectralData.of([(0.0, 1)])
        with pytest.raises(DomainError):
            weighted_inverse(lambda z: spectral_trace(sd, z), -0.5, 1.0)

    @pytest.mark.parametrize("T, a", [(-1.0, None), (0.0, None), (math.inf, None),
                                      (1e-320, None), (1.0, 0.0), (1.0, -1.0)])
    def test_rejected_call_does_not_warn(self, T, a):
        # w = 1 warns on every inversion that runs, and on none that is refused;
        # a = None is weighted_inverse's own line, a forced line goes through
        # bromwich, which must refuse it before F meets z = 0
        sd = SpectralData.of([(0.0, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                if a is None:
                    weighted_inverse(lambda z: spectral_trace(sd, z), 1.0, T)
                else:
                    bromwich(_weighted_transform([(0.0, 1)], 1.0), T, a)

    @pytest.mark.parametrize("w", [math.inf, math.nan, -0.5])
    def test_rejected_weight_does_not_warn(self, w):
        sd = SpectralData.of([(0.0, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                weighted_inverse(lambda z: spectral_trace(sd, z), w, 1.0)

    def test_weight_is_checked_as_the_series_checks_it(self):
        # an infinite weight is refused as g_bessel refuses it, not on the contour
        sd = SpectralData.of([(0.0, 1)])
        with pytest.raises(DomainError, match=r"^weight must be finite and >= 0, got inf$"):
            weighted_inverse(lambda z: spectral_trace(sd, z), math.inf, 1.0)

    def test_returns_plain_float(self):
        sd = SpectralData.of([(0.0, 2), (0.3, 1)])
        v = weighted_inverse(lambda z: spectral_trace(sd, z), 2.0, 1.0)
        assert isinstance(v, float)
        assert v == pytest.approx(2.0 + 0.7**2, rel=1e-6)

    def test_weight_zero_contour_route_matches_series(self):
        # the dual route at w = 0 needs the longest contours of any weight
        ps = PinchingSet.of([0.1])
        with pytest.warns(UncertifiedTailWarning):
            v = weighted_inverse(lambda z: degenerating_trace(ps, z), 0.0, 1.0)
        want = g_bessel(ps, 0.0, 1.0)
        assert abs(v - want) <= 10.0 * DEFAULT_INVERSION_POLICY.rel_tol * abs(want)

    @pytest.mark.parametrize("w", [15.0, 30.0, 150.0])
    def test_large_weight_matches_direct_count(self, w):
        # on a = 1/T the terms would reach about Gamma(w+1) T^(w+1) and
        # cancel down to N_w(T); on the saddle line a = (w+1)/T they do not,
        # and at w = 150, where z^-(w+1) alone would underflow, the power is
        # taken of z/a
        sd = SpectralData.of([(0.0, 1), (0.2, 1)])
        v = weighted_inverse(lambda z: spectral_trace(sd, z), w, 1.0)
        want = counting_direct(sd, w, 1.0)
        assert abs(v - want) <= DEFAULT_INVERSION_POLICY.tol(want)

    def test_budget_is_the_only_stop(self):
        # the nodes a converged inversion took are a budget it meets, and
        # one node fewer is refused
        sd = SpectralData.of([(0.0, 1), (0.3, 1)])
        g = math.gamma(1.4)

        def F(z):
            return g * spectral_trace(sd, z) * z**-1.4

        r = bromwich(F, 1.0)
        want = counting_direct(sd, 0.4, 1.0)
        assert abs(r.value - want) <= DEFAULT_INVERSION_POLICY.tol(want)
        exact = dataclasses.replace(DEFAULT_INVERSION_POLICY, max_quad_evals=r.evaluations)
        assert bromwich(F, 1.0, policy=exact) == r
        short = dataclasses.replace(exact, max_quad_evals=r.evaluations - 1)
        with pytest.raises(TruncationBudgetError,
                           match=f"budget {r.evaluations - 1} exhausted"):
            bromwich(F, 1.0, policy=short)

    def test_rounding_on_the_forced_line_raises(self):
        # forced onto 1/T through bromwich, the terms cancel about 32 digits
        with pytest.raises(TruncationBudgetError, match="rounding"):
            bromwich(_weighted_transform([(0.0, 1), (0.2, 1)], 30.0), 1.0, a=1.0)

    def test_forced_line_at_large_weight_is_right_or_raises(self):
        # on a = 1/T at w = 100 the terms cancel about 158 digits: the first
        # width check fails on the rounding floor
        try:
            v = bromwich(_weighted_transform([(0.0, 1), (0.2, 1)], 100.0), 1.0, a=1.0).value
        except TruncationBudgetError:
            return
        want = 1.0 + 0.8**100
        assert abs(v - want) <= DEFAULT_INVERSION_POLICY.tol(want)

    def test_steep_power_is_resolved_or_raises(self):
        # N_16(0.406) is 0 for the one eigenvalue 3.612; panels of width
        # pi/4T near s = 0 returned -5.5e-9, and the width check narrows them
        sd = SpectralData.of([(3.612, 1)])
        try:
            v = weighted_inverse(lambda z: spectral_trace(sd, z), 16.0, 0.406)
        except TruncationBudgetError:
            return
        assert abs(v - counting_direct(sd, 16.0, 0.406)) <= DEFAULT_INVERSION_POLICY.tol(0.0)

    @pytest.mark.filterwarnings("ignore::pinchtrace.UncertifiedTailWarning")
    @pytest.mark.parametrize("w", [0.0, 1.0, 2.0, 30.0])
    def test_line_is_the_saddle_point(self, monkeypatch, w):
        # every inversion runs on a = (w+1)/T, and the trace is evaluated
        # only on bromwich's nodes
        sd, T = SpectralData.of(_DUAL_EIGS), 2.0
        seen, calls = [], []

        def trace(z):
            seen.append(z)
            return spectral_trace(sd, z)

        def spy(F, T, a=None, policy=DEFAULT_INVERSION_POLICY):
            assert not seen
            calls.append(a)
            z = np.array([a, a + 3.0j])
            want = math.gamma(w + 1.0) * spectral_trace(sd, z) * z ** -(w + 1.0)
            assert np.allclose(F(z), want, rtol=1e-13, atol=0.0)
            return InversionResult(0.0, 0.0, a, 0.0, 0)

        monkeypatch.setattr(xform, "bromwich", spy)
        weighted_inverse(trace, w, T)
        assert calls == [(w + 1.0) / T]

    def test_overflowing_prefactor_is_refused(self):
        # Gamma(101) (101/T)^-101 overflows at T = 1e4, as N_100(T) does
        sd = SpectralData.of([(0.0, 1)])
        with pytest.raises(DomainError, match="not finite"):
            weighted_inverse(lambda z: spectral_trace(sd, z), 100.0, 1e4)

    def test_saddle_line_out_of_range_is_refused(self):
        # 16/T is a double at T = 9e-307, but the saddle line 171/T is not
        sd = SpectralData.of([(0.0, 1)])
        with pytest.raises(DomainError, match="finite with 171/T finite"):
            weighted_inverse(lambda z: spectral_trace(sd, z), 170.0, 9e-307)


# CHANGES.md FOUND 57: the value is far below T^w, so the terms on the
# saddle line (w+1)/T cancel past the tolerance; on a line twice as far
# right they do not (ROADMAP items 8 and 13)
_FOUND_57 = ([(1.7736, 3), (2.4406, 1), (3.1890, 1)], 47.58976, 2.7746435)


def test_found_57_line_twice_as_far_right_returns_the_count():
    eigs, w, T = _FOUND_57
    want = counting_direct(SpectralData.of(eigs), w, T)
    r = bromwich(_weighted_transform(eigs, w), T, a=2.0 * (w + 1.0) / T)
    assert abs(r.value - want) <= 1e-14 * want


@pytest.mark.xfail(strict=True, raises=TruncationBudgetError,
                   reason="CHANGES.md FOUND 57: the saddle line rounds off here")
def test_found_57_saddle_line_returns_the_count():
    eigs, w, T = _FOUND_57
    sd = SpectralData.of(eigs)
    v = weighted_inverse(lambda z: spectral_trace(sd, z), w, T)
    want = counting_direct(sd, w, T)
    assert abs(v - want) <= DEFAULT_INVERSION_POLICY.tol(want)


@pytest.mark.filterwarnings("ignore::pinchtrace.UncertifiedTailWarning")
@settings(max_examples=200)
@given(eigs=st.lists(st.tuples(st.floats(0.0, 6.0), st.integers(1, 3)), min_size=1, max_size=7),
       w=st.floats(1.0, 20.0), T=st.floats(0.2, 3.0))
def test_spectral_inversion_matches_direct_count_or_raises(eigs, w, T):
    sd = SpectralData.of(eigs)
    want = counting_direct(sd, w, T)
    try:
        v = weighted_inverse(lambda z: spectral_trace(sd, z), w, T)
    except TruncationBudgetError:
        return
    assert abs(v - want) <= 10.0 * DEFAULT_INVERSION_POLICY.tol(want)


def _dual_spectral(w, T):
    sd = SpectralData.of(_DUAL_EIGS)
    return weighted_inverse(lambda z: spectral_trace(sd, z), w, T)


@pytest.mark.filterwarnings("ignore::pinchtrace.UncertifiedTailWarning")
def test_cold_and_warm_inversions_give_the_same_bits():
    ps = PinchingSet.of([0.1])
    calls = [lambda: _dual_spectral(1.0, 1.0), lambda: _dual_spectral(3.0, 0.5),
             lambda: weighted_inverse(lambda z: degenerating_trace(ps, z), 2.0, 1.0)]
    for call in calls:
        xform._kernels.clear()
        cold = call()
        assert xform._kernels.nodes > 0
        assert float.hex(call()) == float.hex(cold)


def test_kernel_lru_keeps_its_node_budget():
    def entry(panels):  # (centres, offsets, kernel) of 40 nodes a panel
        return np.zeros(panels), np.zeros(40), np.zeros((panels, 40), dtype=complex)

    kernels = xform._Kernels(100)
    for key in range(5):
        kernels.put(key, entry(1))
        assert kernels.nodes == sum(k.size for *_, k in kernels.entries.values()) <= 100
    assert list(kernels.entries) == [3, 4]
    assert kernels.get(3) is not None and list(kernels.entries) == [4, 3]  # 3 is now the newest
    kernels.put(5, entry(1))
    assert list(kernels.entries) == [3, 5]
    kernels.put(6, entry(3))  # more than the budget: never kept
    assert list(kernels.entries) == [3, 5] and kernels.get(6) is None
    assert not any(part.flags.writeable for part in kernels.get(3))


@pytest.mark.filterwarnings("ignore::pinchtrace.UncertifiedTailWarning")
def test_kernel_cache_filled_past_its_budget_stays_within_it(monkeypatch):
    # the nine dual_routes spectral inversions take about 110k nodes, and the
    # w = 0 inversion of ell = 0.1 some 237k more: the cache holds at most
    # 2^18 nodes, never an extension's kernel twice, and gives the same bits
    offered, put = [], xform._kernels.put

    def checked(key, entry):
        put(key, entry)
        offered.append(entry[-1].size)
        assert xform._kernels.nodes == sum(
            k.size for *_, k in xform._kernels.entries.values()) <= xform._KERNEL_NODES

    xform._kernels.clear()
    monkeypatch.setattr(xform._kernels, "put", checked)
    ps = PinchingSet.of([0.1])
    first = [_dual_spectral(w, T) for w in (1.0, 2.0, 3.0) for T in (0.5, 1.0, 2.0)]
    weighted_inverse(lambda z: degenerating_trace(ps, z), 0.0, 1.0)
    assert sum(offered) > xform._KERNEL_NODES
    again = [_dual_spectral(w, T) for w in (1.0, 2.0, 3.0) for T in (0.5, 1.0, 2.0)]
    assert list(map(float.hex, again)) == list(map(float.hex, first))


def test_sweep_threads_that_share_a_contour_keep_its_bits(monkeypatch):
    # four contour rows at one (w, T) share every extension's kernel: two
    # threads, switching often, fill and read the cache at once
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    sch = Schedule.geometric(0.4, 0.5, 4)
    monkeypatch.setenv("SPECTRA_THREADS", "1")
    xform._kernels.clear()
    serial = run_sweep(sch, 2.0, 1.0, use_bromwich=True)
    monkeypatch.setenv("SPECTRA_THREADS", "2")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            xform._kernels.clear()
            pooled = run_sweep(sch, 2.0, 1.0, use_bromwich=True)
            assert pooled.g_packed == serial.g_packed and not pooled.errors
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("T", [0.3, 0.5])
def test_rounding_charges_the_argument_of_the_exponential(T):
    # one extension at T = 0.3: the charge, the terms' sizes times _TERM_ULPS
    # + |zT|/2 at the extension's top, covers each term's own and is within
    # twice it; at T = 0.5, a power of two, fl(zT) is exact and not charged
    sd, w = SpectralData.of(_DUAL_EIGS), 1.0
    a, s_lo, s_hi, panels = (w + 1.0) / T, 64.0 / T, 128.0 / T, 37
    F = xform._Weighted(lambda z: spectral_trace(sd, z), w, a, math.gamma(w + 1.0) * a ** -(w + 1.0))
    (_, size), _ = xform._rule_sums(F, a, T, s_lo, s_hi, panels)
    centres, offsets, wk, _ = xform._grid(s_lo, s_hi, panels)
    z = a + 1j * (centres[:, None] + offsets)
    terms = np.abs(F(z) * np.exp(z * T) * wk)
    arg = np.abs(z) * T / 2.0 if T == 0.3 else 0.0
    own = float(np.sum(terms * (xform._TERM_ULPS + arg)))
    charged = size * xform._term_ulps(a, T, s_hi)
    assert own <= charged <= 2.0 * own
    assert (xform._term_ulps(a, T, s_hi) == xform._TERM_ULPS) == (T == 0.5)


def test_extensions_past_the_budget_are_summed_and_dropped(monkeypatch):
    # with room for 1000 nodes, the extensions of 198 to 792 nodes are kept
    # in turn and the last, of 1584, built 7 panels at a time and dropped,
    # with the same bits as a cache that keeps them all
    monkeypatch.setattr(xform, "_EVAL_BLOCK", 7)
    xform._kernels.clear()
    want = _dual_spectral(2.0, 1.0)
    monkeypatch.setattr(xform, "_kernels", xform._Kernels(1000))
    assert float.hex(_dual_spectral(2.0, 1.0)) == float.hex(want)
    assert 0 < xform._kernels.nodes <= 1000
    assert all(k.size <= 1000 for *_, k in xform._kernels.entries.values())
