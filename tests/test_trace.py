"""Geodesic, degenerating, spectral and regularized heat traces."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchtrace import trace
from pinchtrace import (
    DomainError,
    LengthSpectrum,
    PinchingSet,
    SpectralData,
    TruncationBudgetError,
    TruncationPolicy,
    degenerating_trace,
    heat_kernel_origin,
    hyperbolic_trace,
    regularized_trace,
    spectral_trace,
)
from pinchtrace.policy import DEFAULT_POLICY


def _direct_sum(entries, z, nmax):
    """Brute-force the defining double sum; nmax terms per length."""
    acc = 0.0j
    for ell, m in entries:
        for n in range(1, nmax + 1):
            acc += m * ell / math.sinh(0.5 * n * ell) * cmath.exp(-(n * ell) ** 2 / (4.0 * z))
    return cmath.exp(-z / 4.0) / cmath.sqrt(16.0 * math.pi * z) * acc


def test_single_geodesic_against_direct_sum():
    ls = LengthSpectrum.of([(1.0, 1)])
    want = _direct_sum([(1.0, 1)], 1.0, 50).real
    # policy certifies the tail at rel_tol = 1e-9; hold it to that
    assert hyperbolic_trace(ls, 1.0) == pytest.approx(want, rel=1e-8)


def test_multiplicity_is_linear():
    one = hyperbolic_trace(LengthSpectrum.of([(1.0, 1)]), 0.7)
    two = hyperbolic_trace(LengthSpectrum.of([(1.0, 2)]), 0.7)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_complex_time_magnitude_bound():
    # |e^{-x^2/4z}| <= e^{-x^2 Re(1/z)} term by term, so the modulus on a
    # vertical ray never exceeds the real-axis value at the same Re(1/z)...
    # the cheap sanity check: |HTr(1+5i)| <= HTr(1).
    ls = LengthSpectrum.of([(1.0, 1), (1.7, 2)])
    assert abs(hyperbolic_trace(ls, 1.0 + 5.0j)) <= hyperbolic_trace(ls, 1.0)


def test_complex_time_value():
    ls = LengthSpectrum.of([(1.2, 1)])
    z = 0.8 + 0.3j
    want = _direct_sum([(1.2, 1)], z, 80)
    got = hyperbolic_trace(ls, z)
    assert got == pytest.approx(want, rel=1e-8)


def test_vectorized_evaluation_matches_scalars():
    ls = LengthSpectrum.of([(0.9, 1), (1.4, 3)])
    zs = np.array([0.5 + 0.0j, 1.0 + 1.0j, 2.0 - 0.5j])
    vec = hyperbolic_trace(ls, zs)
    assert vec.shape == zs.shape
    for zi, vi in zip(zs, vec):
        assert vi == pytest.approx(hyperbolic_trace(ls, complex(zi)), rel=1e-10)


def test_trace_decreases_in_length():
    vals = [hyperbolic_trace(LengthSpectrum.of([(ell, 1)]), 1.0)
            for ell in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_longer_spectrum_dominates_subset():
    small = hyperbolic_trace(LengthSpectrum.of([(1.0, 1)]), 1.0)
    big = hyperbolic_trace(LengthSpectrum.of([(1.0, 1), (2.0, 1)]), 1.0)
    assert big > small


def test_pinching_subset_bounded_by_full_trace():
    # the degenerating trace keeps only the pinching lengths, so at real
    # time it can never exceed the full geodesic trace
    ls = LengthSpectrum.of([(0.2, 1), (0.5, 2), (1.3, 1)])
    ps = PinchingSet.of([0.2, 0.5])
    for t in (0.3, 1.0, 4.0):
        assert degenerating_trace(ps, t) <= hyperbolic_trace(ls, t)


def test_repeat_evaluation_is_bit_stable():
    ls = LengthSpectrum.of([(0.3, 2), (0.9, 1), (2.2, 4)])
    a = hyperbolic_trace(ls, 0.8 + 0.4j)
    b = hyperbolic_trace(ls, 0.8 + 0.4j)
    assert a == b


def test_degenerating_is_unit_multiplicity_trace():
    ps = PinchingSet.of([0.1, 0.2])
    ls = LengthSpectrum.of([(0.1, 1), (0.2, 1)])
    assert degenerating_trace(ps, 0.9) == pytest.approx(hyperbolic_trace(ls, 0.9), rel=1e-15)


def test_degenerating_additivity():
    t = 1.3
    both = degenerating_trace(PinchingSet.of([0.1, 0.2]), t)
    parts = (degenerating_trace(PinchingSet.of([0.1]), t)
             + degenerating_trace(PinchingSet.of([0.2]), t))
    assert both == pytest.approx(parts, rel=1e-13)


def test_short_length_against_direct_sum():
    # ell = 0.01 needs thousands of winding terms; the implementation must
    # agree with an overkill direct sum.
    t = 1.0
    n = np.arange(1, 20001, dtype=float)
    x = 0.01 * n
    want = (math.exp(-t / 4.0) / math.sqrt(16.0 * math.pi * t)
            * float(np.sum(0.01 / np.sinh(0.5 * x) * np.exp(-x * x / (4.0 * t)))))
    got = degenerating_trace(PinchingSet.of([0.01]), t)
    assert got == pytest.approx(want, rel=1e-8)


def test_long_length_underflows_to_zero():
    # sinh(ell/2) overflows a double here; the trace itself is 0 in doubles
    long = LengthSpectrum.of([(1500.0, 1)])
    assert hyperbolic_trace(long, 1.0) == 0.0
    assert hyperbolic_trace(long, complex(1.0, 2.0)) == 0.0
    mixed = LengthSpectrum.of([(1.0, 1), (1500.0, 1)])
    assert hyperbolic_trace(mixed, 1.0) == hyperbolic_trace(LengthSpectrum.of([(1.0, 1)]), 1.0)


def test_spectral_trace_examples():
    sd = SpectralData.of([(0.0, 1), (0.25, 2)])
    assert spectral_trace(sd, 2.0) == pytest.approx(1.0 + 2.0 * math.exp(-0.5), rel=1e-15)
    sd2 = SpectralData.of([(0.1, 1)])
    got = spectral_trace(sd2, 1.0 + 1.0j)
    want = math.exp(-0.1) * complex(math.cos(0.1), -math.sin(0.1))
    assert got == pytest.approx(want, rel=1e-15)


def test_spectral_trace_real_for_real_time():
    sd = SpectralData.of([(0.0, 1), (0.3, 2)])
    assert isinstance(spectral_trace(sd, 1.5), float)


def test_regularized_is_sum_of_addends():
    ls = LengthSpectrum.of([(1.0, 2)])
    vol, t = 2.0 * math.pi, 0.8
    want = hyperbolic_trace(ls, t) + vol * heat_kernel_origin(t)
    assert regularized_trace(ls, vol, t) == pytest.approx(want, rel=1e-14)


def test_regularized_volume_linearity():
    ls = LengthSpectrum.of([(1.0, 1)])
    t = 1.0
    lo = regularized_trace(ls, 2.0 * math.pi, t)
    hi = regularized_trace(ls, 4.0 * math.pi, t)
    assert hi - lo == pytest.approx(2.0 * math.pi * heat_kernel_origin(t), rel=1e-12)


@pytest.mark.parametrize("t", [1e20, 1e300])
def test_regularized_trace_underflows_to_zero(t):
    # e^{-t/4} underflows: both addends are 0, not a quadrature failure
    assert regularized_trace(LengthSpectrum.of([(1.0, 2)]), 1.0, t) == 0.0


def test_budget_exhaustion_is_reported():
    tight = TruncationPolicy(rel_tol=1e-9, abs_tol=1e-14, max_terms=1,
                             max_quad_evals=2_000_000)
    with pytest.raises(TruncationBudgetError):
        hyperbolic_trace(LengthSpectrum.of([(0.1, 1)]), 1.0, tight)


def test_domain_errors():
    ls = LengthSpectrum.of([(1.0, 1)])
    with pytest.raises(DomainError):
        hyperbolic_trace(ls, 0.0)
    with pytest.raises(DomainError):
        hyperbolic_trace(ls, -1.0 + 2.0j)
    with pytest.raises(DomainError):
        regularized_trace(ls, 2.0 * math.pi, 1.0 + 0.5j)
    with pytest.raises(DomainError):
        regularized_trace(ls, 2.0 * math.pi, -1.0)
    with pytest.raises(DomainError):
        regularized_trace(ls, 0.0, 1.0)
    with pytest.raises(DomainError):
        spectral_trace(SpectralData.of([(0.0, 1)]), 0.0)


def test_spectrum_validation():
    with pytest.raises(DomainError):
        LengthSpectrum.of([])
    with pytest.raises(DomainError):
        LengthSpectrum.of([(0.0, 1)])
    with pytest.raises(DomainError):
        LengthSpectrum.of([(1.0, 0)])
    with pytest.raises(DomainError):
        PinchingSet.of([])
    with pytest.raises(DomainError):
        SpectralData.of([(-0.1, 1)])
    with pytest.raises(DomainError):
        SpectralData.of([(0.0, 1)], volume=0.0)


def test_spectrum_sorted_and_logsum():
    ls = LengthSpectrum.of([(2.0, 1), (1.0, 3)])
    assert ls.entries == ((1.0, 3), (2.0, 1))
    ps = PinchingSet.of([0.5, 0.1])
    assert ps.sup == 0.5
    assert ps.log_sum == pytest.approx(math.log(2.0) + math.log(10.0), rel=1e-15)


def _routes(entries, zs, policy=DEFAULT_POLICY, max_cost=1e8):
    """(Taylor route or None, direct route, per-node target) on one node block."""
    log_env, target, cap = trace._plan(entries, zs, policy)
    direct = trace._term_sum(entries, zs, trace._cuts(entries, log_env, target, cap))
    return trace._taylor_sum(entries, zs, log_env, target, cap, max_cost), direct, target


@settings(max_examples=30)
@given(
    a=st.floats(0.05, 20.0),
    doublings=st.integers(-1, 8),  # -1: the band [0, 16/a]; k: [S, 2S] with S = 2^k 16/a
    entries=st.lists(st.tuples(st.floats(1e-3, 3.0), st.integers(1, 4)), min_size=1,
                     max_size=4, unique_by=lambda e: e[0]),
)
def test_taylor_route_matches_direct_route_on_contour_blocks(a, doublings, entries):
    lo = 0.0 if doublings < 0 else 2.0**doublings * 16.0 / a
    hi = 16.0 / a if doublings < 0 else 2.0 * lo
    zs = a + 1j * np.linspace(lo, hi, 64)
    entries = LengthSpectrum.of(entries).entries
    taylor, direct, target = _routes(entries, zs)
    if taylor is None:  # no centre certifies: the call falls back, bit for bit
        assert np.array_equal(trace._geodesic_sum(entries, zs, DEFAULT_POLICY), direct)
    else:  # each route is within target of the series
        assert float(np.max(np.abs(taylor - direct))) <= 2.0 * target


def test_taylor_route_serves_contour_extensions():
    entries = ((0.01, 1),)
    zs = 1.0 + 1j * np.linspace(16.0, 32.0, 2000)
    taylor, direct, target = _routes(entries, zs)
    assert taylor is not None
    assert np.array_equal(trace._geodesic_sum(entries, zs, DEFAULT_POLICY), taylor)
    assert float(np.max(np.abs(taylor - direct))) <= 2.0 * target


@pytest.mark.parametrize("z", [1.3, np.array([0.5 + 0.0j, 1.0 + 1.0j, 2.0 - 0.5j])])
def test_scalars_and_small_arrays_take_the_direct_route(z):
    entries = LengthSpectrum.of([(0.9, 1), (1.4, 3)]).entries
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    _, direct, _ = _routes(entries, zs)
    assert np.array_equal(trace._geodesic_sum(entries, zs, DEFAULT_POLICY), direct)


@pytest.mark.parametrize("ell", [1500.0, 2000.0, 1e300])
def test_long_length_on_a_contour_gives_zero(ell):
    zs = 1.0 + 1j * np.linspace(0.0, 64.0, 1000)
    assert np.all(hyperbolic_trace(LengthSpectrum.of([(ell, 1)]), zs) == 0.0)


def test_budget_exhaustion_is_reported_on_a_contour():
    tight = TruncationPolicy(max_terms=1)
    zs = 1.0 + 1j * np.linspace(0.0, 64.0, 1000)
    with pytest.raises(TruncationBudgetError):
        hyperbolic_trace(LengthSpectrum.of([(0.1, 1)]), zs, tight)


def test_large_abscissa_overflows_nothing():
    ls = LengthSpectrum.of([(0.01, 1), (0.3, 2)])
    for lo, hi in ((0.0, 320.0), (320.0, 640.0), (20480.0, 40960.0)):
        zs = 20.0 + 1j * np.linspace(lo, hi, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hyperbolic_trace(ls, zs)
            taylor, direct, target = _routes(ls.entries, zs)
        assert np.all(np.isfinite(got)) and taylor is not None
        assert float(np.max(np.abs(taylor - direct))) <= 2.0 * target


@settings(max_examples=300)
@given(
    terms=st.lists(st.tuples(st.floats(-700.0, 3.0), st.floats(0.0, 200.0)), min_size=1,
                   max_size=40),
    v0=st.tuples(st.floats(0.0, 3.0), st.one_of(st.just(0.0), st.floats(-3.0, 3.0))),
    rho=st.floats(1e-3, 3.0),
    log10_share=st.floats(-16.0, 0.0),
)
def test_taylor_certificate_bounds_the_true_truncation(terms, v0, rho, log10_share):
    # the running remainder picks K; whatever its rounding, the exact
    # sum w P(K, y rho) plus the coefficients' and Horner's allowance
    # 8 eps (K + log2 N) sum w stays within budget. w is |t| as the build
    # forms it: the terms' own data, like c, whatever rounded into them
    from scipy.special import gammainc

    log_c, y = (np.array(col) for col in zip(*terms))
    v0 = complex(*v0)
    w = np.abs(np.exp(log_c - y * v0 + y * rho))
    budget = 10.0**log10_share * math.fsum(w)
    if not budget > 0.0:
        return
    coeffs = trace._coefficients(log_c, y, v0, rho, budget, 400)
    if coeffs is None:
        return
    k = len(coeffs)
    truncation = math.fsum(w * gammainc(k, y * rho))
    assert truncation + 8.0 * trace._EPS * (k + math.log2(y.size)) * math.fsum(w) <= budget
