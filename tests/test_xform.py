"""Bromwich inversion and weighted counting inversion."""

import dataclasses
import math
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
    SpectralData,
    TruncationBudgetError,
    UncertifiedTailWarning,
    bromwich,
    counting_direct,
    degenerating_trace,
    g_bessel,
    spectral_trace,
    weighted_inverse,
)
from pinchtrace.xform import _line


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

    def test_explicit_contour_is_honored(self):
        r = bromwich(lambda z: 1.0 / z**2, 2.0, a=1.0)
        assert r.a == 1.0
        assert r.value == pytest.approx(2.0, rel=1e-5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bromwich(lambda z: 1.0 / z**2, 0.0)
        with pytest.raises(DomainError):
            bromwich(lambda z: 1.0 / z**2, -1.0)
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

    @pytest.mark.parametrize("T, a", [(-1.0, None), (0.0, None), (1.0, 0.0), (1.0, -1.0)])
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
        # on a = 1/T the terms reach about Gamma(w+1) T^(w+1) and cancel
        # down to N_w(T): the line moves to the saddle point a = (w+1)/T,
        # where at w = 150 z^-(w+1) alone would underflow
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
        # weighted_inverse leaves 1/T here; forced onto it through bromwich,
        # the terms cancel about 32 digits
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

    @pytest.mark.parametrize("w", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_moderate_weights_keep_the_line(self, w, T):
        sd = SpectralData.of([(0.0, 1), (0.13, 1), (0.37, 2), (0.71, 1), (0.86, 3),
                              (1.4, 1), (1.77, 2)])
        assert _line(lambda z: spectral_trace(sd, z), w, T) == 1.0 / T


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
