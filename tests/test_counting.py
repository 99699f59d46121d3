"""Weighted counts, the asymptotic constant, and the degeneration series."""

import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

from pinchtrace import (
    DEFAULT_POLICY,
    DomainError,
    PinchingSet,
    PinchtraceError,
    SpectralData,
    TruncationBudgetError,
    TruncationPolicy,
    balance_epsilon,
    c_weight,
    counting_direct,
    g_bessel,
    g_expansion,
    g_limit,
    g_residual,
    g_sine_form,
    sandwich_check,
)
from pinchtrace import counting, specfun
from pinchtrace.counting import _BesselSeries, _j_envelope, _series


def test_counting_examples():
    sd = SpectralData.of([(0.0, 1), (0.2, 1)])
    assert counting_direct(sd, 1.0, 1.0) == pytest.approx(1.8, abs=1e-15)
    sd2 = SpectralData.of([(0.0, 1), (0.3, 2)])
    assert counting_direct(sd2, 2.0, 0.5) == pytest.approx(0.33, abs=1e-15)


def test_counting_zero_weight_counts_with_multiplicity():
    sd = SpectralData.of([(0.0, 1), (0.2, 3), (0.9, 2)])
    assert counting_direct(sd, 0.0, 0.5) == 4.0
    # an eigenvalue sitting exactly at the threshold contributes 0^0 = 1
    assert counting_direct(sd, 0.0, 0.2) == 4.0
    assert counting_direct(sd, 0.0, 0.19) == 1.0


def test_counting_below_bottom_is_zero():
    sd = SpectralData.of([(0.5, 1)])
    assert counting_direct(sd, 2.0, 0.4) == 0.0


def test_counting_monotone_in_threshold():
    sd = SpectralData.of([(0.0, 1), (0.3, 1), (0.8, 2)])
    vals = [counting_direct(sd, 1.0, T) for T in (0.1, 0.4, 0.9, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_counting_rejects_negative_weight():
    with pytest.raises(DomainError):
        counting_direct(SpectralData.of([(0.0, 1)]), -1.0, 1.0)


def test_c_weight_closed_forms():
    assert c_weight(0.0, 1.25) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert c_weight(1.0, 1.25) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)
    assert c_weight(3.0, 0.25) == 0.0


def test_weight_past_gamma_range_is_a_domain_error():
    # Gamma(w + 1) overflows a double for w > 170.6
    with pytest.raises(DomainError, match="overflows"):
        c_weight(200.0, 1.0)
    with pytest.raises(DomainError, match="overflows"):
        g_bessel([0.1], 200.0, 1.0)


@pytest.mark.parametrize("w", [1e300, 2.6e305, 1.7e308, sys.float_info.max])
def test_huge_weight_is_refused_before_the_series_is_built(w):
    # lgamma(w + 3/2) overflows from about 2.5e305: the Gamma check comes first
    for call in (lambda: g_bessel([0.1], w, 1.0), lambda: g_limit(w, 1.0),
                 lambda: g_expansion(w, 1.0, 2)):
        with pytest.raises(DomainError, match="overflows"):
            call()


def test_c_weight_below_quarter_rejected():
    with pytest.raises(DomainError):
        c_weight(1.0, 0.2)
    with pytest.raises(DomainError):
        c_weight(-0.5, 1.0)


def test_g_vanishes_at_and_below_quarter():
    ps = PinchingSet.of([0.3])
    assert g_bessel(ps, 1.0, 0.25) == 0.0
    assert g_bessel(ps, 1.0, 0.1) == 0.0
    assert g_bessel(ps, 0.0, 0.25) == 0.0


def test_sine_form_matches_bessel_route():
    ps = PinchingSet.of([1.0])
    assert g_sine_form(ps, 1.25) == pytest.approx(g_bessel(ps, 0.0, 1.25), rel=1e-9)
    ps2 = PinchingSet.of([0.4, 0.7])
    assert g_sine_form(ps2, 2.0) == pytest.approx(g_bessel(ps2, 0.0, 2.0), rel=1e-9)


def test_weight_zero_against_arctan_resummation():
    # Sum over odd powers of the half-length exponential: each winding
    # sum collapses to an arctangent, giving an independent route.
    ell, T = 0.3, 1.7
    b = math.sqrt(T - 0.25)
    acc, m = 0.0, 1
    while True:
        e = math.exp(-0.5 * m * ell)
        term = math.atan2(e * math.sin(ell * b), 1.0 - e * math.cos(ell * b))
        acc += term
        if abs(term) < 1e-17 and m > 9:
            break
        m += 2
    want = acc / math.pi
    assert g_bessel(PinchingSet.of([ell]), 0.0, T) == pytest.approx(want, rel=1e-9)


def test_g_additivity_over_lengths():
    w, T = 1.0, 1.5
    whole = g_bessel(PinchingSet.of([0.1, 0.2]), w, T)
    parts = g_bessel(PinchingSet.of([0.1]), w, T) + g_bessel(PinchingSet.of([0.2]), w, T)
    assert whole == pytest.approx(parts, rel=1e-12)


def test_residual_additivity():
    w, T = 0.0, 1.0
    whole = g_residual(PinchingSet.of([0.1, 0.2]), w, T)
    parts = g_residual(PinchingSet.of([0.1]), w, T) + g_residual(PinchingSet.of([0.2]), w, T)
    assert whole == pytest.approx(parts, abs=1e-12)


def test_residual_zero_at_quarter():
    assert g_residual(PinchingSet.of([0.1]), 1.0, 0.25) == 0.0


def test_residual_rejects_long_geodesics():
    with pytest.raises(DomainError):
        g_residual(PinchingSet.of([1.0]), 1.0, 1.0)
    with pytest.raises(DomainError):
        g_residual(PinchingSet.of([0.1]), 1.0, 0.2)


@pytest.mark.parametrize("w,T,cap", [(0.0, 1.0, 5e-6), (2.0, 0.5, 1e-7)])
def test_residual_stabilizes_as_lengths_shrink(w, T, cap):
    r_mid = g_residual(PinchingSet.of([2.0**-5]), w, T)
    r_deep = g_residual(PinchingSet.of([2.0**-15]), w, T)
    assert abs(r_mid - r_deep) <= cap


def test_sandwich_examples():
    lo, mid, hi = sandwich_check(SpectralData.of([(0.0, 1)]), 1.0, 1.0, 0.5)
    assert (lo, mid, hi) == pytest.approx((1.0, 1.25, 1.5), abs=1e-14)
    lo, mid, hi = sandwich_check(SpectralData.of([(0.0, 1), (0.9, 1)]), 1.0, 0.8, 0.2)
    assert (lo, mid, hi) == pytest.approx((0.8, 0.925, 1.1), abs=1e-14)


def test_sandwich_tightens_as_epsilon_shrinks():
    sd = SpectralData.of([(0.0, 1), (0.4, 2)])
    w, T = 2.0, 1.1
    at_T = counting_direct(sd, w, T)
    for eps in (0.5, 0.1, 0.01, 1e-4):
        lo, m, hi = sandwich_check(sd, w, T, eps)
        assert lo <= m <= hi
        assert lo == at_T
        assert hi == counting_direct(sd, w, T + eps)
    # the window average collapses onto the point value for smooth weight
    _, m, _ = sandwich_check(sd, w, T, 1e-8)
    assert m == pytest.approx(at_T, rel=1e-7)


@settings(max_examples=40)
@given(
    spectrum=st.lists(st.tuples(st.floats(0.0, 3.0), st.integers(1, 3)), min_size=1, max_size=12),
    w=st.floats(0.0, 3.0), T=st.floats(0.0, 3.5), eps=st.floats(1e-3, 1.0),
)
def test_sandwich_ordering_on_random_spectra(spectrum, w, T, eps):
    lo, mid, hi = sandwich_check(SpectralData.of(spectrum), w, T, eps)
    assert lo <= mid <= hi


def test_sandwich_rejects_bad_epsilon():
    with pytest.raises((DomainError, PinchtraceError)):
        sandwich_check(SpectralData.of([(0.0, 1)]), 1.0, 1.0, 0.0)


def test_balance_examples():
    assert balance_epsilon(0.01, 4.0) == pytest.approx(0.05, rel=1e-15)
    assert balance_epsilon(1e-6, 10.0) == pytest.approx(math.sqrt(1e-7), rel=1e-15)


@pytest.mark.parametrize("f_ell,log_sum", [(1.0, 1e-320), (1e300, 1e-300), (1e-320, 1e10),
                                           (1e-300, 1e300)])
def test_balance_where_the_quotient_leaves_the_normal_doubles(f_ell, log_sum):
    # f_ell/log_sum overflows or underflows, eps* itself does not
    with mpmath.workdps(30):
        want = float(mpmath.sqrt(mpmath.mpf(f_ell) / mpmath.mpf(log_sum)))
    assert balance_epsilon(f_ell, log_sum) == pytest.approx(want, rel=1e-15)


def test_balance_domain():
    with pytest.raises(DomainError):
        balance_epsilon(0.0, 4.0)
    with pytest.raises(DomainError):
        balance_epsilon(0.01, 0.0)
    with pytest.raises(DomainError):
        balance_epsilon(-1.0, 1.0)
    for f_ell, log_sum in ((1e308, 1e-320), (math.inf, 1.0)):
        with pytest.raises(DomainError, match="overflows"):
            balance_epsilon(f_ell, log_sum)


def test_counting_derivative_recursion():
    # d/dT N_{w+1}(T) = (w+1) N_w(T) away from eigenvalues
    sd = SpectralData.of([(0.0, 1), (0.2, 1), (0.8, 2)])
    h = 1e-4
    for w, T in [(1.0, 0.5), (2.0, 1.3)]:
        slope = (counting_direct(sd, w + 1.0, T + h)
                 - counting_direct(sd, w + 1.0, T - h)) / (2.0 * h)
        assert slope == pytest.approx((w + 1.0) * counting_direct(sd, w, T), rel=1e-5)


def test_c_weight_derivative_recursion():
    h = 1e-4
    for w in (0.0, 1.0, 2.0):
        for T in (0.5, 1.0, 2.0):
            slope = (c_weight(w + 1.0, T + h) - c_weight(w + 1.0, T - h)) / (2.0 * h)
            assert slope == pytest.approx((w + 1.0) * c_weight(w, T), rel=1e-6)


def test_g_derivative_recursion():
    ps = PinchingSet.of([0.1])
    h = 1e-3
    for w in (0.0, 1.0):
        for T in (0.5, 1.0):
            slope = (g_bessel(ps, w + 1.0, T + h) - g_bessel(ps, w + 1.0, T - h)) / (2.0 * h)
            assert slope == pytest.approx((w + 1.0) * g_bessel(ps, w, T), rel=1e-4)


# ------------------------------------------------- the two routes of g_bessel
#
# Each length's sum S(ell) is certified to policy.tol(S) by either route, so
# the routes may differ by at most the sum of their two tolerances. The
# expansion route is Euler-Maclaurin from x = 0 on g minus its pole part.

EM_GRID_W = (0.0, 0.7, 1.0, 2.0, 5.0)
EM_GRID_T = (0.3, 0.5, 1.0, 2.0, 10.0)
EM_GRID_K = (5, 8, 11, 14)

# R_w(T) = lim [G_w(T) - c_w(T) log(1/ell)] for one length, computed with
# mpmath quadrature independently of this package
R_LIMITS = {
    (0.0, 1.0): 0.2984030427,
    (2.0, 1.0): 0.1201772567,
    (0.0, 0.5): 0.2389645269,
    (0.7, 1.0): 0.2093638895,
}


def _direct(series, ell):
    """S(ell) by the direct route alone: a collar sum over the one length."""
    return counting._direct([ell], series.terms, series.envelope, series._tol,
                            series.policy.max_terms)


def _routes(w, T, ell, policy=DEFAULT_POLICY):
    series = _series(float(w), T - 0.25, policy)
    em = series.expansion(ell)
    return series, em, _direct(series, ell)[0]


@pytest.mark.parametrize("w", EM_GRID_W)
@pytest.mark.parametrize("T", EM_GRID_T)
def test_em_route_matches_direct_route(w, T):
    for k in EM_GRID_K:
        _, (em, bound), direct = _routes(w, T, 2.0**-k)
        assert bound <= DEFAULT_POLICY.tol(em)
        assert abs(em - direct) <= DEFAULT_POLICY.tol(em) + DEFAULT_POLICY.tol(direct)


@settings(max_examples=40)
@given(
    w=st.floats(0.0, 6.0),
    T=st.floats(0.26, 12.0),
    k=st.floats(5.0, 11.0),
)
def test_em_route_matches_direct_route_property(w, T, k):
    ell = 2.0**-k
    series, em, direct = _routes(w, T, ell)
    got = g_bessel(PinchingSet.of([ell]), w, T)
    chosen = em[0] if em[1] <= DEFAULT_POLICY.tol(em[0]) else direct
    assert got == series.pref * chosen
    assert abs(chosen - direct) <= DEFAULT_POLICY.tol(chosen) + DEFAULT_POLICY.tol(direct)


@settings(max_examples=60)
@given(
    w=st.floats(0.0, 6.0),
    T=st.floats(0.26, 12.0),
    ell=st.floats(2.0**-11, 2.0**-5),
)
@example(w=6.0, T=12.0, ell=2.0**-5)
@example(w=0.0, T=0.26, ell=2.0**-5)
@example(w=6.0, T=0.26, ell=2.0**-11)
def test_expansion_route_certifies_and_matches_direct_property(w, T, ell):
    # on this whole box the expansion route states a bound within tol(S),
    # g_bessel takes it, and it agrees with the term-by-term sum
    series, (em, bound), direct = _routes(w, T, ell)
    assert bound <= series._tol(em)
    assert g_bessel(PinchingSet.of([ell]), w, T) == series.pref * em
    assert abs(em - direct) <= series._tol(em) + series._tol(direct)


def test_expansion_cache_gives_the_cold_build_bit_for_bit():
    cases = [(0.0, 1.0), (2.0, 1.0), (0.7, 1.0), (5.0, 10.0)]
    ells = [2.0**-6, 2.0**-12, 2.0**-24]
    _series.cache_clear()
    cold = [g_bessel(PinchingSet.of([ell]), w, T) for w, T in cases for ell in ells]
    cold_limits = [g_limit(w, T) for w, T in cases]
    assert _series.cache_info().misses == len(cases)
    warm = [g_bessel(PinchingSet.of([ell]), w, T) for w, T in cases for ell in ells]
    assert warm == cold
    assert [g_limit(w, T) for w, T in cases] == cold_limits
    built = _series(0.0, 0.75, DEFAULT_POLICY)
    _series.cache_clear()
    fresh = _series(0.0, 0.75, DEFAULT_POLICY)
    assert (fresh.table, fresh.constant) == (built.table, built.constant)


def test_one_series_serves_every_call_at_a_threshold(monkeypatch):
    # g_bessel on a deep length, g_limit and g_expansion at one (w, T, policy)
    # build one series and sum R once, at ell0 = 1/4
    lengths, real = [], specfun._Collar.sum

    def spy(self, *args, **kwargs):  # the lengths of every collar sum
        lengths.extend(self.ell.tolist())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(specfun._Collar, "sum", spy)
    _series.cache_clear()
    g = g_bessel(PinchingSet.of([2.0**-12]), 2.0, 1.0)
    coef = g_expansion(2.0, 1.0, 3)
    assert g_limit(2.0, 1.0) == coef[1]
    assert _series.cache_info().misses == 1
    assert lengths == [0.25]
    assert g == pytest.approx(coef[0] * 12.0 * math.log(2.0) + coef[1], rel=1e-6)


@pytest.mark.parametrize("w,T", [(0.0, 1.0), (2.0, 1.0), (0.7, 1.0), (0.0, 0.5), (0.0, 10.0),
                                 (5.0, 3.0), (6.0, 12.0)])
def test_g_expansion_coefficients(w, T):
    coef = g_expansion(w, T, 8)
    assert len(coef) == 10
    assert coef[0] == pytest.approx(c_weight(w, T), rel=1e-14)
    assert coef[1] == g_limit(w, T)
    # truncated after ell^16, the series meets the direct route at ell = 1/4
    ell = 0.25
    series = coef[0] * math.log(1.0 / ell) + sum(
        a * ell ** (2 * j) for j, a in enumerate(coef[1:]))
    direct = g_bessel(PinchingSet.of([ell]), w, T)
    assert abs(series - direct) <= 2.0 * DEFAULT_POLICY.tol(direct)
    assert g_expansion(w, T, 3) == coef[:5]


def test_g_expansion_domain():
    assert g_expansion(1.0, 0.25, 2) == (0.0, 0.0, 0.0, 0.0)
    assert len(g_expansion(0.0, 1.0, 0)) == 2
    for order in (-1, 25, 2.0):
        with pytest.raises(DomainError):
            g_expansion(0.0, 1.0, order)
    with pytest.raises(DomainError):
        g_expansion(0.0, 0.2, 2)
    with pytest.raises(TruncationBudgetError):
        g_expansion(0.0, 1.0, 2, TruncationPolicy(max_terms=100))


@pytest.mark.parametrize("w,T", [(40.0, math.nextafter(0.25, 1.0)), (170.0, 0.3)])
def test_underflowing_phi0_gives_zero(w, T):
    # phi0 = a^nu/Gamma(nu+1) underflows to 0 here; the expansion route's
    # bounds are formed relative to it, so nothing takes log(0)
    assert g_bessel(PinchingSet.of([2.0**-10]), w, T) == 0.0
    assert g_limit(w, T) == 0.0
    assert g_expansion(w, T, 2) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("T", [1e16, 1e20, 1e300])
def test_argument_rounding_at_huge_threshold_raises(T):
    # x = n ell sqrt(a) is rounded by ~1e-16 x, far more than the value at
    # these T: G(1e300) read 20.23 and G at the next double 16.05
    ps = PinchingSet.of([1.0 / 64.0])
    with pytest.raises(TruncationBudgetError, match="rounding"):
        g_bessel(ps, 0.0, T)
    with pytest.raises(TruncationBudgetError, match="rounding"):
        g_sine_form(ps, T)


@pytest.mark.parametrize("w", [0.0, 2.0])
def test_large_threshold_value_is_stable_under_one_ulp(w):
    ps = PinchingSet.of([1.0 / 64.0])
    T = 1e6
    got = g_bessel(ps, w, T)
    nxt = g_bessel(ps, w, math.nextafter(T, math.inf))
    assert abs(got - nxt) <= DEFAULT_POLICY.tol(got)
    if w == 0.0:
        assert abs(got - g_sine_form(ps, T)) <= 2.0 * DEFAULT_POLICY.tol(got)


@settings(max_examples=40)
@given(w=st.floats(0.0, 5.0), T=st.floats(0.3, 40.0), ell=st.floats(0.05, 3.0))
@example(w=10.0, T=1.0, ell=0.5)
@example(w=40.0, T=1.0, ell=0.1)
@example(w=40.0, T=5.0, ell=0.5)
def test_direct_series_match_their_full_sums(w, T, ell):
    # at large T both sums can cancel far below their first term, so the
    # cut made for tol(env(1)) must be redone for the partial sum; at
    # large w S is tiny next to abs_tol (about 1e-54 at w = 40, T = 1),
    # so the tolerance must apply to pref * S, the length's share of G
    series = _BesselSeries(w, T - 0.25, DEFAULT_POLICY)
    n = np.arange(1.0, math.ceil(200.0 / ell))
    full = series.pref * math.fsum(series.terms(ell, n)[0])
    got = g_bessel(PinchingSet.of([ell]), w, T)
    assert abs(got - full) <= DEFAULT_POLICY.tol(full) + 1e-15
    sine = math.fsum(np.sin(n * ell * series.sa) / n / np.sinh(0.5 * n * ell))
    got = 2.0 * math.pi * g_sine_form(PinchingSet.of([ell]), T)
    assert abs(got - sine) <= DEFAULT_POLICY.tol(sine) + 1e-15


def test_sine_form_at_extreme_lengths():
    # at 5e-324 half the length underflows, so no tail bound is finite; at the
    # largest double every term's bound underflows, and so does the sum
    with pytest.raises(TruncationBudgetError):
        g_sine_form(PinchingSet.of([5e-324]), 1.0)
    assert g_sine_form(PinchingSet.of([1.7976931348623157e308]), 1.0) == 0.0


def test_length_whose_bound_underflows_keeps_no_term():
    # next to a shorter length, the largest double's n = 1 bound underflows and
    # its n ell sqrt(a) would pass the doubles: the sum is the shorter one's
    huge = 1.7976931348623157e308
    for call, ell in ((lambda ps: g_bessel(ps, 2.0, 1e8), 0.5),
                      (lambda ps: g_sine_form(ps, 1e8), 1.0)):
        alone = call(PinchingSet.of([ell]))
        assert call(PinchingSet.of([ell, huge])) == pytest.approx(
            alone, rel=DEFAULT_POLICY.rel_tol, abs=DEFAULT_POLICY.abs_tol)


def test_em_route_falls_back_when_its_bound_misses():
    # at large T the remainder grows like (ell sqrt(a)/pi)^2K, here with
    # ell sqrt(a) = 1.7, while R itself is certified: the remainder bound
    # misses, at every order, the tolerance of the largest |S| the envelope
    # allows, so the route gives up before R is summed and the length takes
    # the direct series
    ell, w, T = 2.0**-5, 0.0, 3000.0
    series, em, direct = _routes(w, T, ell)
    assert series.constant[1] <= 1e-3 * series._tol(direct)
    assert em is None
    assert g_bessel(PinchingSet.of([ell]), w, T) == series.pref * direct


def test_em_route_falls_back_when_the_summed_bound_misses():
    # at ell = 0.403, T = 1 the gate passes but no order's bound meets the
    # tolerance of the summed value: the route returns None, and the length's
    # value is the direct series', bit for bit
    series, em, direct = _routes(0.0, 1.0, 0.403)
    assert 0.403 <= series.ell_star and "constant" in vars(series)
    assert em is None
    assert g_bessel(PinchingSet.of([0.403]), 0.0, 1.0) == series.pref * direct


def test_em_route_serves_every_length_it_certifies():
    # no cap on the length: at ell = 1/4 the route certifies and is taken,
    # at 1/2 its remainder misses and the value is the direct sum's, bit for bit
    series, (em, bound), direct = _routes(0.0, 1.0, 0.25)
    assert bound <= series._tol(em)
    assert g_bessel(PinchingSet.of([0.25]), 0.0, 1.0) == series.pref * em
    assert abs(em - direct) <= series._tol(em) + series._tol(direct)
    series, em, direct = _routes(0.0, 1.0, 0.5)
    assert em is None
    assert g_bessel(PinchingSet.of([0.5]), 0.0, 1.0) == series.pref * direct


def test_shallow_length_at_large_threshold_builds_nothing(monkeypatch):
    # ell sqrt(a) = 50: the remainder bound shows that no order can certify,
    # so the one direct sum is the length's own, not R's at some ell0
    lengths, real = [], specfun._Collar.sum

    def spy(self, *args, **kwargs):  # the lengths of every collar sum
        lengths.extend(self.ell.tolist())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(specfun._Collar, "sum", spy)
    _series.cache_clear()
    g_bessel(PinchingSet.of([0.5]), 0.0, 1e4)
    assert lengths == [0.5]
    assert "constant" not in vars(_series(0.0, 1e4 - 0.25, DEFAULT_POLICY))


@settings(max_examples=60)
@given(log_ell=st.floats(math.log(2.0**-20), math.log(4.0)), w=st.floats(0.0, 40.0),
       log_t=st.floats(math.log(0.26), math.log(1e6)))
def test_gate_passes_every_length_the_remainder_bound_can_serve_property(log_ell, w, log_t):
    # the gate tests E_K ell^2K against the tolerance of the envelope of |S|;
    # wherever it refuses a length, no order's whole bound (E_K ell^2K, R's
    # bound and the rounding) meets the tolerance of the sum at that order
    ell, T = math.exp(log_ell), math.exp(log_t)
    series = _series(w, T - 0.25, DEFAULT_POLICY)
    c, b, b_mass, log_rem, rate = series.table
    ceiling = series._tol(counting._s_max(series.phi0, ell))
    assume(not any(counting._exp(lr + 2 * k * log_ell) <= ceiling
                   for k, lr in enumerate(log_rem, 1)))
    assert series.expansion(ell) is None
    assume(series.constant is not None)
    r, r_bound = series.constant
    pole = -c[0] * (math.log(-math.expm1(-ell)) + 0.5 * ell)
    s, size, rounding, power = pole + r, abs(pole) + abs(r), r_bound, 1.0
    for k, lr in enumerate(log_rem, 1):
        power *= ell * ell
        s -= b[k - 1] * power
        size += abs(b[k - 1] * power)
        rounding += b_mass[k - 1] * power
        assert not counting._exp(lr + 2 * k * log_ell) + rounding + rate * size <= series._tol(s)


def _gate(series, ell):
    """The 24-order gate that ell_star replaced: some order's E_K ell^2K meets
    the tolerance of the envelope of |S(ell)|."""
    log_ell = math.log(ell)
    ceiling = series._tol(counting._s_max(series.phi0, ell))
    return any(counting._exp(lr + 2 * k * log_ell) <= ceiling
               for k, lr in enumerate(series.table[3], 1))


@settings(max_examples=200, derandomize=True)
@given(w=st.floats(0.0, 40.0), log_t=st.floats(math.log(0.26), math.log(1e6)),
       log2_ell=st.floats(-40.0, 2.0))
@example(w=0.0, log_t=0.0, log2_ell=math.log2(0.403))
def test_threshold_routes_every_length_as_the_gate_did_property(w, log_t, log2_ell):
    # ell_star is the gate's last pass, and outside 4 ulps of it ell <= ell_star
    # routes a length as the 24-order gate does, also 2^-40 and 1e-9 from it
    series = _series(w, math.exp(log_t) - 0.25, DEFAULT_POLICY)
    star = series.ell_star
    assert _gate(series, star) and not _gate(series, math.nextafter(star, math.inf))
    near = [star * (1.0 + f) for f in (-1e-9, -2.0**-40, 2.0**-40, 1e-9)]
    for ell in [2.0**log2_ell] + near:
        if abs(ell - star) > 4.0 * math.ulp(star):
            assert (ell <= star) == _gate(series, ell)


def test_cold_table_finds_its_threshold_in_a_few_gates(monkeypatch):
    # secant steps on log ell, then one-ulp steps: at most 8 gates on the
    # pinch_series tables and at T = 20, about 8 on average over w and T
    calls, gate = [], _BesselSeries._gate
    monkeypatch.setattr(_BesselSeries, "_gate", lambda self, ell: calls.append(ell) or gate(self, ell))
    for w, T in ((0.0, 1.0), (2.0, 1.0), (0.0, 0.5), (0.7, 1.0), (5.0, 20.0)):
        calls.clear()
        _BesselSeries(w, T - 0.25, DEFAULT_POLICY).ell_star
        assert len(calls) <= 8
    rng, counts = np.random.default_rng(26), []
    for w, log_t in zip(rng.uniform(0.0, 40.0, 50), rng.uniform(math.log(0.26), math.log(1e6), 50)):
        calls.clear()
        _BesselSeries(float(w), math.exp(log_t) - 0.25, DEFAULT_POLICY).ell_star
        counts.append(len(calls))
    assert np.mean(counts) <= 9.0 and max(counts) <= 16


# float.hex(g_bessel) recorded before ell_star replaced the 24-order gate: per
# (w, T), just past ell_star (the gate refuses) and at 3/4 of it, at T = 1 also
# just below it (the gate passes, no order certifies), then deep and long lengths
_G_PINS = [
    (0.0, 0.5, 0.430680029666, '0x1.7e32adea99f95p-2'),  # direct
    (0.0, 0.5, 0.323010021926, '0x1.acfdabad51e51p-2'),  # expansion
    (0.0, 1.0, 0.407857857704, '0x1.17b0415ec8858p-1'),  # direct
    (0.0, 1.0, 0.40785785852, '0x1.17b0415a11549p-1'),  # direct
    (0.0, 1.0, 0.305893393584, '0x1.40262abf6782fp-1'),  # expansion
    (0.0, 20.0, 0.239616156936, '0x1.586ad3e715a9cp+0'),  # direct
    (0.0, 20.0, 0.179712117523, '0x1.be0c2987b36e2p+0'),  # expansion
    (0.0, 10000.0, 0.013182873788, '0x1.7cf639059f85fp+4'),  # direct
    (0.0, 10000.0, 0.00988715533115, '0x1.0502dbc3c45b4p+5'),  # expansion
    (0.7, 0.5, 0.430680803434, '0x1.bd35c9d6b12ccp-4'),  # direct
    (0.7, 0.5, 0.323010602252, '0x1.f10fee8b881c5p-4'),  # expansion
    (0.7, 1.0, 0.407857957953, '0x1.6df619f68cd45p-2'),  # direct
    (0.7, 1.0, 0.407857958769, '0x1.6df619f0e8823p-2'),  # direct
    (0.7, 1.0, 0.305893468771, '0x1.9e5b50734e218p-2'),  # expansion
    (0.7, 20.0, 0.239616149294, '0x1.3f97d8f2adce0p+3'),  # direct
    (0.7, 20.0, 0.179712111791, '0x1.8b1e1dd85b84ep+3'),  # expansion
    (0.7, 10000.0, 0.0131828737753, '0x1.c800d15cca4e9p+13'),  # direct
    (0.7, 10000.0, 0.00988715532156, '0x1.244f975cdf18ep+14'),  # expansion
    (2.0, 0.5, 0.430688622204, '0x1.bf5b34346e461p-7'),  # direct
    (2.0, 0.5, 0.32301646633, '0x1.f14bf8b616909p-7'),  # expansion
    (2.0, 1.0, 0.407858205016, '0x1.8e3e0673eb716p-3'),  # direct
    (2.0, 1.0, 0.407858205831, '0x1.8e3e066e41b3fp-3'),  # direct
    (2.0, 1.0, 0.305893654068, '0x1.bede58c568d92p-3'),  # expansion
    (2.0, 20.0, 0.239616147778, '0x1.afb633f94de7cp+8'),  # direct
    (2.0, 20.0, 0.179712110654, '0x1.01bc7e1858d34p+9'),  # expansion
    (2.0, 10000.0, 0.0131828737752, '0x1.0078ffab8b25fp+31'),  # direct
    (2.0, 10000.0, 0.00988715532154, '0x1.39c41cd1d20adp+31'),  # expansion
    (5.0, 0.5, 0.431481072184, '0x1.412856e682c16p-13'),  # direct
    (5.0, 0.5, 0.323610803814, '0x1.63c1455d0d12ep-13'),  # expansion
    (5.0, 1.0, 0.407859406758, '0x1.f551fa98e1175p-5'),  # direct
    (5.0, 1.0, 0.407859407574, '0x1.f551fa923f58bp-5'),  # direct
    (5.0, 1.0, 0.305894555375, '0x1.1717ca145bbb2p-4'),  # expansion
    (5.0, 20.0, 0.239616147734, '0x1.5860368c1979ap+21'),  # direct
    (5.0, 20.0, 0.179712110621, '0x1.8f3285e8dba17p+21'),  # expansion
    (5.0, 10000.0, 0.0131828737752, '0x1.99cc40833e5c3p+70'),  # direct
    (5.0, 10000.0, 0.00988715532154, '0x1.e283e899e7d89p+70'),  # expansion
    (0.0, 1.0, 0.49, '0x1.fbdf4b6364502p-2'),  # direct
    (2.0, 1.0, 0.000244140625, '0x1.9db8dbb7a830dp-1'),  # expansion
    (0.7, 1.0, 6.103515625e-05, '0x1.cecf6dc474ddcp+0'),  # expansion
    (0.0, 0.5, 3.814697265625e-06, '0x1.1cc279c961da7p+1'),  # expansion
    (5.0, 20.0, 3.0, '0x1.5ffb215d060cbp+9'),  # direct
    (0.0, 1.0, 0.25, '0x1.5c9118e443ad4p-1'),  # expansion
]


@pytest.mark.parametrize("w, T, ell, want", _G_PINS)
def test_g_bessel_is_bit_for_bit_as_recorded(w, T, ell, want):
    assert float.hex(g_bessel(PinchingSet.of([ell]), w, T)) == want


def _charged_direct(series, ells, bounds):
    """(value, stated bound) or the error message, and every cut, of
    counting._direct over ells with the given a priori bounds."""
    cuts, cut = [], specfun._Collar.cut
    with mock.patch.object(specfun._Collar, "cut", lambda *args: cuts.append(cut(*args)) or cuts[-1]):
        try:
            got = counting._direct(ells, series.terms, series.envelope, series._tol,
                                   series.policy.max_terms, bounds=bounds)
        except TruncationBudgetError as exc:
            got = str(exc)
    return got, [c[0].tolist() for c in cuts]


@settings(max_examples=80, derandomize=True)
@given(w=st.sampled_from([0.0, 0.7, 2.0, 5.5]), log_t=st.floats(math.log(0.3), math.log(1e5)),
       ells=st.lists(st.floats(0.05, 8.0), min_size=1, max_size=4))
@example(w=0.0, log_t=0.0, ells=[0.49])
@example(w=0.7, log_t=math.log(1.35e4), ells=[0.0545])
@example(w=0.0, log_t=math.log(1e12), ells=[0.5])
def test_a_priori_charge_keeps_the_value_and_the_cut_property(w, log_t, ells):
    # charged a priori, or per term where that misses half the room, the direct
    # route sums to the per-term charge's value at its cuts, bit for bit, and
    # states no smaller a bound; where the rounding fills the tolerance both raise
    series = _BesselSeries(w, math.exp(log_t) - 0.25, DEFAULT_POLICY)
    lazy, lazy_cuts = _charged_direct(series, ells, series.charges)
    eager, eager_cuts = _charged_direct(series, ells, None)
    assert lazy_cuts == eager_cuts
    if isinstance(eager, str):
        assert lazy == eager
    else:
        assert lazy[0] == eager[0] and lazy[1] >= eager[1]


@pytest.mark.parametrize("w, T, ell, a_priori", [(0.0, 1.0, 0.49, True), (0.0, 0.5, 0.49, True),
                                                 (0.7, 1.35e4, 0.0545, False)])
def test_direct_route_builds_per_term_charges_only_where_the_envelope_misses(
        w, T, ell, a_priori, monkeypatch):
    # the pinch_series direct rows fit the envelope's charge and build no
    # per-term sizes; at large T the cancelling sum leaves too little room
    scaled, scale = [], _BesselSeries._scale
    monkeypatch.setattr(_BesselSeries, "_scale", lambda *args: scaled.append(1) or scale(*args))
    g_bessel(PinchingSet.of([ell]), w, T)
    assert (not scaled) == a_priori


def test_deferred_charges_settle_past_one_block(monkeypatch):
    # with blocks of 16 terms and at most 16 held, the charges settle block by
    # block as they are summed: the same value and cuts as charged at once, and
    # at large T, where the a priori charge misses after many blocks, the same
    # bound too, for one length and for several
    monkeypatch.setattr(specfun, "_BLOCK", 16)
    monkeypatch.setattr(counting, "_BLOCK", 16)
    for w, T, ells in ((0.7, 1.35e4, [0.0545]), (0.0, 1e4, [0.05]), (0.0, 1e4, [0.05, 0.07, 0.3]),
                       (2.0, 1e5, [0.3, 1.0, 1.7]), (0.0, 1.0, [0.49])):
        series = _BesselSeries(w, T - 0.25, DEFAULT_POLICY)
        lazy, lazy_cuts = _charged_direct(series, ells, series.charges)
        eager, eager_cuts = _charged_direct(series, ells, None)
        assert lazy[0] == eager[0] and lazy_cuts == eager_cuts and lazy[1] >= eager[1]
        assert sum(lazy_cuts[0]) > 16 and (lazy[1] == eager[1]) == (T > 1e3)


@pytest.mark.parametrize("w, T, ells", [(100.0, 0.35, [0.5]), (100.0, 0.4, [0.2, 0.5, 1.0])])
def test_a_priori_charge_gives_way_where_the_terms_take_the_ascending_series(w, T, ells):
    # where the power (2 sqrt(a)/(n ell))^nu may overflow, charges has no bound
    # and the direct route is charged per term from the first round
    series = _BesselSeries(w, T - 0.25, DEFAULT_POLICY)
    assert series.charges(ells[0], ells[-1]) is None
    got = _charged_direct(series, ells, series.charges)
    assert got == _charged_direct(series, ells, None) and got[0][0] > 0.0


@settings(max_examples=40)
@given(log_ell=st.floats(math.log(1.0 / 32.0), 0.0), w=st.floats(0.0, 6.0),
       T=st.floats(0.3, 50.0))
@example(log_ell=math.log(0.35), w=0.0, T=1.0)
@example(log_ell=math.log(0.403), w=0.0, T=1.0)
@example(log_ell=math.log(0.25), w=2.0, T=5.0)
def test_routes_agree_wherever_the_expansion_is_taken_property(log_ell, w, T):
    # whichever route g_bessel takes, it agrees with the term-by-term sum and,
    # at w = 0, with the sine form, within the two certified tolerances
    ell = math.exp(log_ell)
    ps = PinchingSet.of([ell])
    series = _BesselSeries(w, T - 0.25, DEFAULT_POLICY)
    got = g_bessel(ps, w, T)
    direct = series.pref * _direct(series, ell)[0]
    assert abs(got - direct) <= DEFAULT_POLICY.tol(got) + DEFAULT_POLICY.tol(direct)
    got, sine = g_bessel(ps, 0.0, T), g_sine_form(ps, T)
    assert abs(got - sine) <= DEFAULT_POLICY.tol(got) + DEFAULT_POLICY.tol(sine)


def test_em_route_ignores_the_quadrature_budget_and_obeys_the_term_budget():
    # the route's one build is a direct sum at ell0 = 1/4 (about 240 terms at
    # T = 1), far shorter than the direct sum at this length (about 36/ell):
    # max_quad_evals does not bound it, and a max_terms that refuses it
    # refuses such a length on the direct route too
    ell, no_quad = 2.0**-10, TruncationPolicy(max_quad_evals=10)
    series, (em, bound), _ = _routes(0.0, 1.0, ell, no_quad)
    assert bound <= series._tol(em)
    assert g_bessel(PinchingSet.of([ell]), 0.0, 1.0, no_quad) == series.pref * em
    tight = TruncationPolicy(max_terms=100)
    assert _BesselSeries(0.0, 0.75, tight).expansion(ell) is None
    with pytest.raises(TruncationBudgetError):
        g_bessel(PinchingSet.of([ell]), 0.0, 1.0, tight)


def test_budget_still_raises_on_every_route():
    tight = TruncationPolicy(max_terms=1)
    for ell in (0.5, 0.05, 2.0**-10, 2.0**-20):
        with pytest.raises(TruncationBudgetError):
            g_bessel(PinchingSet.of([ell]), 0.0, 1.0, tight)


def test_overflowing_terms_raise_at_once():
    # G_100(3e4) is past the largest double, by its terms or by its prefactor
    with np.errstate(all="ignore"), pytest.raises(TruncationBudgetError, match="overflow"):
        g_bessel(PinchingSet.of([1.0 / 16.0]), 100.0, 3e4)


def test_phi0_overflow_is_a_documented_error():
    # phi0 = a^nu/Gamma(nu+1) is about e^713 here, past the largest double
    ps = PinchingSet.of([1.0 / 16.0])
    with pytest.raises(TruncationBudgetError, match="phi0"):
        g_bessel(ps, 100.0, 4.5e4)
    with pytest.raises(TruncationBudgetError, match="phi0"):
        g_limit(100.0, 4.5e4)


@pytest.mark.parametrize("T", [2e4, 4.5e4])
def test_em_bounds_past_a_double_fall_back_to_the_direct_route(T):
    # ell sqrt(a) is 2.2 and 3.3 here, so the expansion route's remainder
    # misses the tolerance and the length takes the direct route; g_limit
    # certifies, from its direct sum at a length near 1/sqrt(a)
    ps = PinchingSet.of([1.0 / 64.0])
    got = g_bessel(ps, 0.0, T)
    want = g_sine_form(ps, T)
    assert abs(got - want) <= 2.0 * DEFAULT_POLICY.tol(want)
    limit = g_limit(0.0, T)
    ref, ref_tol = _limit_reference(0.0, T)
    assert abs(limit - ref) <= DEFAULT_POLICY.tol(limit) + ref_tol


def test_tiny_abs_tol_certifies_at_large_weight():
    # abs_tol/pref is about 1e-381 here, below the smallest double: R's direct
    # sum and the bounds must certify on the relative tolerance alone
    ps = PinchingSet.of([1.0 / 64.0])
    tight = TruncationPolicy(abs_tol=1e-300)
    want = g_bessel(ps, 60.0, 100.0)
    assert g_bessel(ps, 60.0, 100.0, tight) == pytest.approx(want, rel=2e-9)


def _gl_integral(f, lo, hi, n=10):
    x, wts = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, wts))


@settings(max_examples=25)
@given(ell=st.floats(0.05, 1.0), w=st.integers(0, 5), T=st.floats(0.5, 3.0))
def test_g_derivative_recursion_property(ell, w, T):
    # d/dT G_{w+1} = (w+1) G_w in integrated form over [T - h, T + h]. G is
    # analytic there (its only singularity is at T = 1/4), so a 10-point
    # Gauss-Legendre rule is exact to ~1e-14; what is left is the policy
    # tolerance of each G. Lengths >= 0.05 take the direct route, and
    # w >= 3 sends the orders 4.5 and up through the Miller band of bessel_j_half
    ps, h = PinchingSet.of([ell]), 0.1
    hi, lo = g_bessel(ps, w + 1, T + h), g_bessel(ps, w + 1, T - h)
    rhs = (w + 1) * _gl_integral(lambda t: g_bessel(ps, w, t), T - h, T + h)
    scale = max(abs(g_bessel(ps, w, t)) for t in (T - h, T, T + h))
    tol = (DEFAULT_POLICY.tol(hi) + DEFAULT_POLICY.tol(lo)
           + (w + 1) * 2 * h * DEFAULT_POLICY.tol(scale))
    assert abs((hi - lo) - rhs) <= 2.0 * tol


@settings(max_examples=60)
@given(
    spectrum=st.lists(st.tuples(st.floats(0.0, 3.0), st.integers(1, 3)), min_size=1, max_size=12),
    w=st.integers(0, 5), T=st.floats(0.05, 3.5),
)
def test_counting_derivative_recursion_on_random_spectra(spectrum, w, T):
    # on an interval free of eigenvalues N_w is a polynomial of degree w, so
    # the integrated recursion holds up to rounding with a 10-point rule
    sd = SpectralData.of(spectrum)
    gap = min(abs(T - lam) for lam, _ in sd.eigenvalues)
    assume(gap >= 1e-3)
    h = min(0.1, 0.5 * gap, 0.5 * T)
    hi, lo = counting_direct(sd, w + 1, T + h), counting_direct(sd, w + 1, T - h)
    rhs = (w + 1) * _gl_integral(lambda t: counting_direct(sd, w, t), T - h, T + h)
    assert abs((hi - lo) - rhs) <= 1e-12 * (abs(hi) + abs(lo) + abs(rhs)) + 1e-300


def _full_sum(ell, w, T):
    series = _BesselSeries(w, T - 0.25, DEFAULT_POLICY)
    return series.pref * float(np.sum(series.terms(ell, np.arange(1.0, 200.0 / ell + 1.0))[0]))


@pytest.mark.parametrize("T", [1.0, 5.0])
@pytest.mark.parametrize("ell", [1.0 / 64.0, 2.0**-10])
def test_large_weight_em_route_meets_tolerance_of_g(ell, T):
    # abs_tol applies to G = pref S, and pref ~ 1e47 at w = 40
    series, (em, bound), _ = _routes(40.0, T, ell)
    assert bound <= series._tol(em)
    want = _full_sum(ell, 40.0, T)
    got = g_bessel(PinchingSet.of([ell]), 40.0, T)
    assert got == series.pref * em
    assert abs(got - want) <= DEFAULT_POLICY.tol(want)


def test_large_order_terms_stay_finite():
    # (sqrt(a)/(n ell/2))^nu overflows a double for nu = 100.5 at this length,
    # and J_nu underflows, while their product phi stays near phi(0)
    ell = 2.0**-10
    series = _BesselSeries(100.0, 0.75, DEFAULT_POLICY)
    with mpmath.workdps(40):
        for n in (1, 7, 300):
            nl2 = mpmath.mpf(ell) * n / 2
            x = 2 * nl2 * mpmath.sqrt(mpmath.mpf(0.75))
            want = (ell / mpmath.sinh(nl2) * (mpmath.sqrt(mpmath.mpf(0.75)) / nl2) ** 100.5
                    * mpmath.besselj(100.5, x))
            assert float(series.terms(ell, np.array([float(n)]))[0][0]) == pytest.approx(
                float(want), rel=1e-12)
    want = _full_sum(ell, 100.0, 1.0)
    got = g_bessel(PinchingSet.of([ell]), 100.0, 1.0)
    assert math.isfinite(got) and abs(got - want) <= DEFAULT_POLICY.tol(want)


def test_deep_lengths_certified_within_default_budget():
    # the direct route would need ~36/ell > max_terms terms here
    for w, T in R_LIMITS:
        for k in (24, 30):
            ps = PinchingSet.of([2.0**-k])
            residual = g_bessel(ps, w, T) - c_weight(w, T) * ps.log_sum
            assert residual == pytest.approx(R_LIMITS[(w, T)], abs=1e-9)


@pytest.mark.parametrize("ell", [1e-300, 1.1e-308, 1e-310, 5e-324])
@pytest.mark.parametrize("w", [0.0, 0.7, 2.0, 5.0])
def test_every_pinching_length_reaches_the_expansion(ell, w):
    # 2/ell passes the doubles below about 1.1e-308, and ell/4 rounds to 0 at
    # 5e-324: the gate's bound on |S(ell)| takes neither, and S(ell) is
    # c_0 log(1/ell) plus R up to terms that underflow
    got = g_bessel([ell], w, 1.0)
    want = g_limit(w, 1.0) - c_weight(w, 1.0) * math.log(ell)
    assert got == pytest.approx(want, rel=3e-15)


def test_log_sum_is_finite_at_every_length():
    # 1/ell overflows below about 5.6e-309; -log ell does not
    for ell in (1e-300, 1e-310, 5e-324):
        assert PinchingSet.of([ell, 0.5]).log_sum == -math.log(ell) - math.log(0.5)


def test_sine_form_stays_on_the_direct_series():
    # same policy: R's direct sum at ell0 = 1/4 (about 250 terms) fits 1000
    # terms, the sine form's term-by-term sum (about 36/ell terms) does not
    budget = TruncationPolicy(max_terms=1000)
    ps = PinchingSet.of([2.0**-10])
    g_bessel(ps, 0.0, 1.0, budget)
    with pytest.raises(TruncationBudgetError):
        g_sine_form(ps, 1.0, budget)


@pytest.mark.parametrize("T", (0.3, 1.0, 10.0))
def test_sine_form_checks_em_route(T):
    ps = PinchingSet.of([2.0**-12])
    series, (em, bound), _ = _routes(0.0, T, 2.0**-12)
    assert bound <= series._tol(em)
    assert g_bessel(ps, 0.0, T) == series.pref * em
    sine = g_sine_form(ps, T)
    pref = 1.0 / math.sqrt(16.0 * math.pi)
    tol = pref * 2.0 * DEFAULT_POLICY.tol(sine / pref) + 1e-15
    assert abs(g_bessel(ps, 0.0, T) - sine) <= tol


@pytest.mark.parametrize("w,T", sorted(R_LIMITS))
def test_g_limit_matches_independent_constants(w, T):
    assert g_limit(w, T) == pytest.approx(R_LIMITS[(w, T)], abs=1e-9)


def _limit_reference(w, T):
    """(R_w(T), its tolerance) from one term-by-term sum at a length that is
    not a power of two, less the log and ell^2j terms of g_expansion: the sine
    form at w = 0, the direct route elsewhere. At ell sqrt(a) <= 0.15 the
    24 terms leave a remainder far below the tolerance."""
    a = T - 0.25
    ell = min(3.0 / 16.0, 0.15 / math.sqrt(a))
    if w == 0.0:
        g = g_sine_form(PinchingSet.of([ell]), T)
    else:
        series = _BesselSeries(w, a, DEFAULT_POLICY)
        g = series.pref * _direct(series, ell)[0]
    coef = g_expansion(w, T, 24)
    powers = sum(aj * ell ** (2 * j) for j, aj in enumerate(coef[2:], 1))
    return g - coef[0] * math.log(1.0 / ell) - powers, DEFAULT_POLICY.tol(g)


@settings(max_examples=30)
@given(w=st.floats(0.0, 6.0), log_t=st.floats(math.log(0.26), math.log(1e4)))
@example(w=0.0, log_t=math.log(4000.0))
@example(w=0.0, log_t=math.log(5000.0))
@example(w=0.0, log_t=math.log(2e4))
@example(w=0.0, log_t=math.log(4.5e4))
@example(w=0.7, log_t=math.log(1e4))
@example(w=2.0, log_t=math.log(1e4))
def test_g_limit_certifies_and_matches_a_direct_sum_property(w, log_t):
    # T log-uniform over [0.26, 1e4], and beyond it at the examples: R's
    # direct sum moves to shorter lengths like 1/sqrt(a) and still certifies
    T = math.exp(log_t)
    got = g_limit(w, T)
    ref, ref_tol = _limit_reference(w, T)
    assert abs(got - ref) <= DEFAULT_POLICY.tol(got) + ref_tol


def test_g_limit_budget_error_states_the_limit_in_its_own_units():
    # the rounding of R's sum and pole part (about 6e-14 here) exceeds a
    # relative tolerance of 1e-16, so R's bound misses; the message gives
    # pref R, the number g_limit returns, not the unprefixed sum
    tight = TruncationPolicy(rel_tol=1e-16, abs_tol=1e-20)
    with pytest.raises(TruncationBudgetError, match="exceeds tolerance") as info:
        g_limit(0.0, 100.0, tight)
    stated = float(str(info.value).rsplit(" ", 1)[1])
    assert stated == pytest.approx(g_limit(0.0, 100.0), rel=1e-3)


# w = 0 threshold where R_0(T) changes sign, by bisection: there tol(R) is
# abs_tol alone, and R's bound must still fit it
_R_ZERO_T = 7.554539276085848


def test_g_limit_certifies_at_a_zero_of_the_limit():
    got = g_limit(0.0, _R_ZERO_T)
    assert abs(got) < 1e-12
    ref, ref_tol = _limit_reference(0.0, _R_ZERO_T)
    assert abs(got - ref) <= DEFAULT_POLICY.tol(got) + ref_tol
    series = _series(0.0, _R_ZERO_T - 0.25, DEFAULT_POLICY)
    r_bound = series.constant[1]
    assert series.pref * r_bound <= 0.95 * DEFAULT_POLICY.abs_tol


def test_g_limit_raises_near_a_zero_of_the_limit_where_g_bessel_certifies():
    # at w = 2 R's rounding allowance (6.7e-12 in g_limit's units) passes
    # tol(R) for T in [21.3020, 21.3038]; a length's tolerance is relative
    # to G, so g_bessel still takes the expansion route there
    w, T, ell = 2.0, 21.303, 2.0**-10
    with pytest.raises(TruncationBudgetError, match="g_limit bound"):
        g_limit(w, T)
    with pytest.raises(TruncationBudgetError, match="g_limit bound"):
        g_expansion(w, T, 2)
    series, (em, bound), direct = _routes(w, T, ell)
    assert bound <= series._tol(em)
    assert g_bessel(PinchingSet.of([ell]), w, T) == series.pref * em
    assert abs(em - direct) <= series._tol(em) + series._tol(direct)


def test_expansion_build_halves_ell0_when_the_sum_shows_a_smaller_tolerance(monkeypatch):
    # the remainder bound at ell0 = 1/4 passes against the largest |R| the
    # envelope allows, but not against 1e-5 of tol(R) once R is summed: the
    # build sums again at 1/8, where the remainder is negligible
    lengths, real = [], specfun._Collar.sum

    def spy(self, *args, **kwargs):  # the lengths of every collar sum
        lengths.extend(self.ell.tolist())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(specfun._Collar, "sum", spy)
    series = _BesselSeries(0.0, 4.020151088846724 - 0.25, DEFAULT_POLICY)
    r, r_bound = series.constant
    assert lengths == [0.25, 0.125]
    assert r_bound <= 5e-5 * series._tol(r)


def test_expansion_build_sums_nothing_where_no_length_can_serve(monkeypatch):
    # at T = 1e8 the remainder bound misses the tolerance at every ell0 >=
    # 2^-12 for any |S(ell0)| the envelope allows, so the build runs no sum
    calls, real = [], counting.bessel_j_half

    def counted(n, x):
        calls.append(len(x))
        return real(n, x)

    monkeypatch.setattr(counting, "bessel_j_half", counted)
    assert _BesselSeries(0.0, 1e8 - 0.25, DEFAULT_POLICY).constant is None
    assert calls == []
    with pytest.raises(TruncationBudgetError, match="no length"):
        g_limit(0.0, 1e8)
    assert calls == []


def test_expansion_route_serves_deep_lengths_at_large_threshold():
    # the direct route would need about 36/ell = 2.4e6 terms here
    ell, T = 2.0**-16, 5000.0
    series = _series(0.0, T - 0.25, DEFAULT_POLICY)
    em, bound = series.expansion(ell)
    assert bound <= series._tol(em)
    assert g_bessel(PinchingSet.of([ell]), 0.0, T) == series.pref * em


def test_g_limit_domain():
    assert g_limit(1.0, 0.25) == 0.0
    with pytest.raises(DomainError):
        g_limit(0.0, 0.2)
    with pytest.raises(DomainError):
        g_limit(-1.0, 1.0)
    with pytest.raises(DomainError):
        g_limit(0.0, math.inf)
    with pytest.raises(TruncationBudgetError, match="direct sum"):
        g_limit(0.0, 1.0, TruncationPolicy(max_terms=100))


def test_nonfinite_arguments_rejected():
    ps = PinchingSet.of([0.1])
    for w, T in ((0.0, math.inf), (math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(DomainError):
            g_bessel(ps, w, T)


@settings(max_examples=40)
@given(nu=st.floats(0.5, 60.0), x=st.floats(1e-3, 200.0))
@example(nu=2.5, x=3.0)
@example(nu=20.5, x=22.0)
@example(nu=50.5, x=53.0)
def test_bessel_envelope_dominates_forward_supremum(nu, x):
    # the old envelope min(1, 1.1 sqrt(2/(pi x))) fails at these examples
    y = np.linspace(x, x + 2.0 * nu + 100.0, 8001)
    sup = float(np.max(np.abs(special.jv(nu, y))))
    assert sup <= _j_envelope(nu, x)
    assert _j_envelope(nu, np.array([x]))[0] == pytest.approx(_j_envelope(nu, x), rel=1e-15)


@settings(max_examples=120, derandomize=True)
@given(w=st.sampled_from([0.0, 0.7, 1.0, 2.0, 5.5, 10.0, 30.0]), log_t=st.floats(-1.2, 8.0),
       log_ell=st.floats(-7.0, 1.0), frac=st.floats(0.0, 1.0))
def test_direct_terms_are_within_their_stated_errors(w, log_t, log_ell, frac):
    # each term of the direct route against 40 digits at the exact n ell:
    # its stated own error (kernel, 1/sinh and power) in eps plus the
    # argument rounding 2^-51 |x d/dx| cover the gap, as counting._direct charges
    T, ell = 0.25 + math.exp(log_t), math.exp(log_ell)
    series = _BesselSeries(w, T - 0.25, DEFAULT_POLICY)
    n = np.array([1.0, 2.0, 1.0 + math.floor(frac * 40.0 / ell)])
    terms, rest = series.terms(ell, n)
    slopes, sizes, errors = rest()
    assert np.all(np.abs(terms) <= sizes)
    with mpmath.workdps(40):
        a = mpmath.mpf(T) - mpmath.mpf(0.25)
        for k, t, slope, error in zip(n, terms, slopes, errors):
            h = mpmath.mpf(ell) * k / 2
            want = (ell / mpmath.sinh(h) * (mpmath.sqrt(a) / h) ** series.nu
                    * mpmath.besselj(series.nu, 2 * h * mpmath.sqrt(a)))
            assert abs(t - want) <= float(np.finfo(float).eps) * error + 2.0**-51 * slope


def _own_cut(log_env, ell, target, cap):
    """The smallest N >= 1 with env(N+1)/(1 - e^{-ell/2}) <= target, by doubling
    from 1, then bisection; TruncationBudgetError where N would pass cap."""
    limit = math.log(target * -math.expm1(-0.5 * ell))
    lo, n = 0, 1  # the answer lies in (lo, n] once n passes
    while n > cap or log_env(n + 1) > limit:
        if n >= cap:
            raise TruncationBudgetError(f"cannot certify tolerance within {cap} terms")
        lo, n = n, min(2 * n, cap)
    while n - lo > 1:
        mid = (lo + n) // 2
        lo, n = (lo, mid) if log_env(mid + 1) <= limit else (mid, n)
    return n


def _own_sum(ell, terms, log_env, tol, cap):
    """(sum, cut) of one length summed on its own, by the rule each length had
    before the collar's one cut: _own_cut for tol of env(1), again for tol of
    the partial sum while smaller, then for tol less the rounding charged,
    each time adding the new terms only (fewer than a block of them)."""
    target = tol(math.exp(log_env(1)))
    total = slope = mass = own = 0.0
    n0, blocks = 1, 0
    while True:
        ncut = _own_cut(log_env, ell, target, cap)
        if n0 <= ncut:
            t, rest = terms(ell, np.arange(n0, ncut + 1, dtype=np.float64))
            slopes, sizes, errors = rest()
            total += float(t.sum())
            slope += float(slopes.sum())
            mass += float(sizes.sum())
            own += float(errors.sum())
            n0, blocks = ncut + 1, blocks + 1
        if tol(total) < target:
            target = tol(total)
            continue
        rounding = 2.0**-51 * slope + specfun._rounding(mass, ncut, own / (mass or 1.0), blocks)
        if math.exp(log_env(ncut + 1)) / -math.expm1(-0.5 * ell) + rounding <= tol(total):
            return total, ncut
        if rounding >= tol(total):
            raise TruncationBudgetError("the rounding alone fills the tolerance")
        target = tol(total) - rounding


@settings(max_examples=150, derandomize=True, deadline=None)
@given(log_ell=st.floats(math.log(0.01), math.log(20.0)), w=st.sampled_from([0.0, 0.7, 2.0, 5.5]),
       log_t=st.floats(math.log(0.3), math.log(1e4)))
def test_one_length_sums_as_on_its_own(log_ell, w, log_t):
    # the collar cuts one length where the per-length rule did, and sums the
    # same terms in the same order: the same cut and the same value, bit for bit
    ell, T = math.exp(log_ell), math.exp(log_t)
    series = _BesselSeries(w, T - 0.25, DEFAULT_POLICY)
    nu, sa = series.nu, series.sa

    def log_env(n):
        nl2 = 0.5 * ell * n
        return math.log(ell) - specfun.log_sinh(nl2) + min(
            series.log_phi0, nu * math.log(sa / nl2) + math.log(_j_envelope(nu, 2.0 * nl2 * sa)))

    def sine_log_env(n):
        return math.log(min(1.0 / n, ell * sa)) - specfun.log_sinh(0.5 * ell * n)

    def sine_terms(ell, n):
        c = np.exp(-specfun.log_sinh(0.5 * ell * n))
        t = np.sin(n * ell * sa) / n * c
        lo, hi, size = 0.5 * ell * float(n[0]), 0.5 * ell * float(n[-1]), np.abs(t)
        ulps = 2.0 + 0.5 * (max(abs(math.log(lo)), abs(math.log(hi))) + hi)
        return t, lambda: (ell * sa * c, size, ulps * size)

    cuts, cut = [], specfun._Collar.cut
    cap = DEFAULT_POLICY.max_terms
    with mock.patch.object(specfun._Collar, "cut",
                           lambda *args: cuts.append(cut(*args)) or cuts[-1]):
        try:
            want = _own_sum(ell, series.terms, log_env, series._tol, cap)
        except TruncationBudgetError:
            with pytest.raises(TruncationBudgetError):
                _direct(series, ell)
        else:
            assert _direct(series, ell)[0] == want[0] and cuts[-1][0].tolist() == [want[1]]
        total = g_sine_form(PinchingSet.of([ell]), T)
        want = _own_sum(ell, sine_terms, sine_log_env, DEFAULT_POLICY.tol, cap)
        assert total == want[0] / (2.0 * math.pi) and cuts[-1][0].tolist() == [want[1]]


def _g_oracle(ells, w, T):
    """(G_w(T) at 30 digits, pref sum_ell |S(ell)|, the sine form's sum), each
    length summed until its terms' envelope phi0 ell/sinh(n ell/2) falls
    below 1e-25 phi0: far below every tolerance, as |S(ell)| <= 2 phi0."""
    with mpmath.workdps(30):
        a = mpmath.mpf(T) - mpmath.mpf(0.25)
        sa, nu = mpmath.sqrt(a), mpmath.mpf(w) + mpmath.mpf(0.5)
        phi0 = a**nu / mpmath.gamma(nu + 1)
        pref = mpmath.gamma(mpmath.mpf(w) + 1) / mpmath.sqrt(16 * mpmath.pi)
        total, size, sine = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
        for ell in map(mpmath.mpf, ells):
            s, sn, n = mpmath.mpf(0), mpmath.mpf(0), 1
            while ell / mpmath.sinh(n * ell / 2) >= 1e-25:
                x = n * ell
                s += ell / mpmath.sinh(x / 2) * (2 * sa / x) ** nu * mpmath.besselj(nu, x * sa)
                sn += mpmath.sin(x * sa) / (n * mpmath.sinh(x / 2))
                n += 1
            total, size, sine = total + s, size + abs(s), sine + sn
        return float(pref * total), float(pref * size), float(sine)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(short=st.lists(st.floats(0.05, 0.3), max_size=3),
       long=st.lists(st.floats(0.3, 20.0), max_size=37),
       w=st.sampled_from([0.0, 0.7, 2.0]), T=st.floats(0.3, 50.0))
@example(short=[0.05, 0.1, 0.2], long=[0.5, 1.0, 3.0, 19.0], w=2.0, T=1.0)
@example(short=[0.06, 0.25], long=[0.4, 0.9, 7.0] * 12 + [20.0], w=0.0, T=3.0)
def test_many_length_series_match_a_30_digit_sum(short, long, w, T):
    # expansion-route lengths each within tol of their S, the direct ones summed
    # by one collar within tol of their joint sum: G within the sum of those.
    # Short lengths (most terms of the oracle) take the expansion route at small T
    ells = short + long
    assume(ells)
    want, size, sine = _g_oracle(ells, w, T)
    ps = PinchingSet.of(ells)
    tol = DEFAULT_POLICY.rel_tol * size + (len(ells) + 1) * DEFAULT_POLICY.abs_tol
    assert abs(g_bessel(ps, w, T) - want) <= tol
    got = 2.0 * math.pi * g_sine_form(ps, T)
    assert abs(got - sine) <= DEFAULT_POLICY.tol(got)


@pytest.mark.parametrize("count", [1, 500])
def test_one_tail_cut_serves_every_direct_length(count, monkeypatch):
    # every direct-route length of a call is cut at one shared n ell
    ps = PinchingSet.of(np.random.default_rng(count).uniform(0.5, 2.0, count))
    g_bessel(ps, 2.0, 1.0)  # builds and caches R, if any length tries the expansion
    searches, search = [], specfun._Collar.cut
    monkeypatch.setattr(specfun._Collar, "cut", lambda *args: searches.append(args) or search(*args))
    g_bessel(ps, 2.0, 1.0)
    assert len(searches) == 1
