"""Weighted counts, the asymptotic constant, and the degeneration series."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
    g_limit,
    g_residual,
    g_sine_form,
    sandwich_check,
)
from pinchtrace.counting import _BesselSeries, _j_envelope


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


@settings(max_examples=40, deadline=None, derandomize=True)
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


def test_balance_domain():
    with pytest.raises(DomainError):
        balance_epsilon(0.0, 4.0)
    with pytest.raises(DomainError):
        balance_epsilon(0.01, 0.0)
    with pytest.raises(DomainError):
        balance_epsilon(-1.0, 1.0)


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
# the routes may differ by at most the sum of their two tolerances.

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


def _routes(w, T, ell, policy=DEFAULT_POLICY):
    series = _BesselSeries(float(w), T - 0.25, policy)
    em = series.euler_maclaurin(ell)
    return series, em, series.direct(ell)


@pytest.mark.parametrize("w", EM_GRID_W)
@pytest.mark.parametrize("T", EM_GRID_T)
def test_em_route_matches_direct_route(w, T):
    for k in EM_GRID_K:
        _, (em, bound), direct = _routes(w, T, 2.0**-k)
        assert bound <= DEFAULT_POLICY.tol(em)
        assert abs(em - direct) <= DEFAULT_POLICY.tol(em) + DEFAULT_POLICY.tol(direct)


@settings(max_examples=40, deadline=None, derandomize=True)
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


@settings(max_examples=40, deadline=None, derandomize=True)
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
    full = series.pref * math.fsum(series.term(ell, n))
    got = g_bessel(PinchingSet.of([ell]), w, T)
    assert abs(got - full) <= DEFAULT_POLICY.tol(full) + 1e-15
    sine = math.fsum(np.sin(n * ell * series.sa) / n / np.sinh(0.5 * n * ell))
    got = 2.0 * math.pi * g_sine_form(PinchingSet.of([ell]), T)
    assert abs(got - sine) <= DEFAULT_POLICY.tol(sine) + 1e-15


def test_em_route_falls_back_when_its_bound_misses():
    # at large T the Laurent sums at X = 64 ell cancel badly; the route
    # must hand such a length to the direct series, never return it
    ell, w, T = 2.0**-5, 0.0, 100.0
    series, (em, bound), direct = _routes(w, T, ell)
    assert bound > DEFAULT_POLICY.tol(em)
    assert g_bessel(PinchingSet.of([ell]), w, T) == series.pref * direct


def test_em_route_falls_back_when_quadrature_budget_is_short():
    tight = TruncationPolicy(max_quad_evals=10)
    ell = 2.0**-10
    series, em, direct = _routes(0.0, 1.0, ell, tight)
    assert em is None
    assert g_bessel(PinchingSet.of([ell]), 0.0, 1.0, tight) == series.pref * direct


def test_budget_still_raises_on_every_route():
    tight = TruncationPolicy(max_terms=1)
    for ell in (0.5, 0.05, 2.0**-10, 2.0**-20):
        with pytest.raises(TruncationBudgetError):
            g_bessel(PinchingSet.of([ell]), 0.0, 1.0, tight)


def test_overflowing_terms_raise_at_once():
    # G_100(3e4) is past the largest double, by its terms or by its prefactor
    with np.errstate(all="ignore"), pytest.raises(TruncationBudgetError, match="overflow"):
        g_bessel(PinchingSet.of([1.0 / 16.0]), 100.0, 3e4)


def _full_sum(ell, w, T):
    series = _BesselSeries(w, T - 0.25, DEFAULT_POLICY)
    return series.pref * float(np.sum(series.term(ell, np.arange(1.0, 200.0 / ell + 1.0))))


@pytest.mark.parametrize("T", [1.0, 5.0])
@pytest.mark.parametrize("ell", [1.0 / 64.0, 2.0**-10])
def test_large_weight_em_route_meets_tolerance_of_g(ell, T):
    # abs_tol applies to G = pref S, and pref ~ 1e47 at w = 40
    want = _full_sum(ell, 40.0, T)
    got = g_bessel(PinchingSet.of([ell]), 40.0, T)
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
            assert float(series.term(ell, np.array([float(n)]))[0]) == pytest.approx(
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


def test_sine_form_stays_on_the_direct_series():
    # same policy: the Euler-Maclaurin route fits 1000 terms, the sine
    # form's term-by-term sum (about 36/ell terms) does not
    budget = TruncationPolicy(max_terms=1000)
    ps = PinchingSet.of([2.0**-10])
    g_bessel(ps, 0.0, 1.0, budget)
    with pytest.raises(TruncationBudgetError):
        g_sine_form(ps, 1.0, budget)


@pytest.mark.parametrize("T", (0.3, 1.0, 10.0))
def test_sine_form_checks_em_route(T):
    ps = PinchingSet.of([2.0**-12])
    sine = g_sine_form(ps, T)
    pref = 1.0 / math.sqrt(16.0 * math.pi)
    tol = pref * 2.0 * DEFAULT_POLICY.tol(sine / pref) + 1e-15
    assert abs(g_bessel(ps, 0.0, T) - sine) <= tol


@pytest.mark.parametrize("w,T", sorted(R_LIMITS))
def test_g_limit_matches_independent_constants(w, T):
    assert g_limit(w, T) == pytest.approx(R_LIMITS[(w, T)], abs=1e-9)


def test_g_limit_domain():
    assert g_limit(1.0, 0.25) == 0.0
    with pytest.raises(DomainError):
        g_limit(0.0, 0.2)
    with pytest.raises(DomainError):
        g_limit(-1.0, 1.0)
    with pytest.raises(DomainError):
        g_limit(0.0, math.inf)
    with pytest.raises(TruncationBudgetError):
        g_limit(0.0, 1.0, TruncationPolicy(max_quad_evals=10))


def test_nonfinite_arguments_rejected():
    ps = PinchingSet.of([0.1])
    for w, T in ((0.0, math.inf), (math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(DomainError):
            g_bessel(ps, w, T)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nu=st.floats(0.5, 60.0), x=st.floats(1e-3, 200.0))
@example(nu=2.5, x=3.0)
@example(nu=20.5, x=22.0)
@example(nu=50.5, x=53.0)
def test_bessel_envelope_dominates_forward_supremum(nu, x):
    # the old envelope min(1, 1.1 sqrt(2/(pi x))) fails at these examples
    y = np.linspace(x, x + 2.0 * nu + 100.0, 8001)
    sup = float(np.max(np.abs(special.jv(nu, y))))
    assert sup <= _j_envelope(nu, x)
