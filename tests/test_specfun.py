"""Special-function layer: gamma wrapper and the two Bessel routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchtrace import (
    DomainError, TruncationBudgetError, bessel_j, bessel_j_half, bessel_j_oracle, gamma,
)
from pinchtrace.specfun import log_sinh, tail_cut


def test_gamma_known_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma(1.0) == 1.0
    assert gamma(2.5) == pytest.approx(1.3293403881791370, rel=1e-14)
    assert gamma(2.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-15)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-15)


def test_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-1.5)


def test_gamma_overflow_is_a_domain_error():
    assert math.isfinite(gamma(171.5))
    with pytest.raises(DomainError, match="overflows"):
        gamma(172.0)


@pytest.mark.parametrize("x", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 30.0, 400.0])
def test_log_sinh_against_mpmath(x):
    import mpmath

    with mpmath.workdps(40):
        want = float(mpmath.log(mpmath.sinh(mpmath.mpf(x))))
    assert abs(float(log_sinh(x)) - want) <= 1e-15 * max(1.0, abs(want))
    assert abs(float(log_sinh(np.array([x]))[0]) - want) <= 1e-15 * max(1.0, abs(want))


def _sine_envelope(ell, sa):
    """log of min(1, n ell sa)/(n sinh(n ell/2)), which bounds the w = 0 term
    |sin(n ell sa)|/(n sinh(n ell/2)) and every later one geometrically."""
    return lambda n: math.log(min(1.0 / n, ell * sa)) - log_sinh(0.5 * n * ell)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ell=st.floats(0.05, 3.0), sa=st.floats(0.1, 4.0), log_target=st.floats(-32.0, -2.0))
def test_tail_cut_is_the_smallest_certified_cut(ell, sa, log_target):
    target = math.exp(log_target)
    log_env = _sine_envelope(ell, sa)
    n = tail_cut(log_env, ell, target, 10**6)
    limit = math.log(target * -math.expm1(-0.5 * ell))
    assert log_env(n + 1) <= limit
    assert n == 1 or log_env(n) > limit
    # the true tail, summed until e^{-m ell/2} is below 1e-35
    m = np.arange(n + 1.0, n + 2.0 + math.ceil(160.0 / ell))
    tail = np.sum(np.abs(np.sin(m * ell * sa)) / m * np.exp(-log_sinh(0.5 * m * ell)))
    assert tail <= target


def test_tail_cut_raises_past_its_cap():
    log_env = _sine_envelope(0.05, 1.0)
    n = tail_cut(log_env, 0.05, 1e-10, 10**6)
    assert tail_cut(log_env, 0.05, 1e-10, n) == n
    for cap in (0, 1, n // 2, n - 1):
        with pytest.raises(TruncationBudgetError):
            tail_cut(log_env, 0.05, 1e-10, cap)


def test_half_order_collapses_to_cosine():
    # J_{-1/2}(x) = sqrt(2/(pi x)) cos x, exact up to rounding
    for x in np.linspace(0.1, 50.0, 197):
        want = math.sqrt(2.0 / (math.pi * x)) * math.cos(x)
        assert abs(bessel_j(-0.5, x) - want) <= 1e-10 * (1.0 + abs(math.cos(x)))


def test_collapse_example():
    assert bessel_j(-0.5, math.pi) == pytest.approx(-math.sqrt(2.0) / math.pi, rel=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.5, 2.5])
def test_large_argument_envelope(p):
    for x in np.linspace(10.0, 200.0, 97):
        assert abs(bessel_j(p, x)) <= 1.1 * math.sqrt(2.0 / (math.pi * x))


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
def test_small_argument_power_law(p):
    for x in (1e-3, 1e-4, 1e-6, 1e-8):
        lead = (0.5 * x) ** p / gamma(p + 1.0)
        assert bessel_j(p, x) == pytest.approx(lead, rel=1e-4)


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
@pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 5.0, 15.0, 30.0])
def test_fast_path_matches_series_oracle(p, x):
    fast = bessel_j(p, x)
    slow = bessel_j_oracle(p, x)
    assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)


def test_oracle_is_deterministic():
    a = bessel_j_oracle(1.5, 7.25)
    b = bessel_j_oracle(1.5, 7.25)
    assert a == b


def test_zero_argument_conventions():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0
    assert bessel_j_oracle(0.0, 0.0) == 1.0
    assert bessel_j_oracle(2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        bessel_j(-0.5, 0.0)


def test_domain_rejections():
    with pytest.raises(DomainError):
        bessel_j(-0.75, 1.0)
    with pytest.raises(DomainError):
        bessel_j(1.0, -0.5)
    with pytest.raises(DomainError):
        bessel_j_oracle(1.0, 31.0)
    with pytest.raises(DomainError):
        bessel_j_oracle(1.0, 1.0, terms=5)


def test_half_integer_dispatch_is_seamless():
    # p = 3/2 goes through the spherical fast path; p = 1.5 + 1e-9 does not.
    # Both must land on the same function value.
    on = bessel_j(1.5, 4.0)
    off = bessel_j(1.5 + 1e-9, 4.0)
    assert on == pytest.approx(off, rel=1e-6)


def test_vectorized_half_order():
    x = np.array([0.5, 1.0, 2.0, 10.0])
    vals = bessel_j_half(0, x)
    assert vals.shape == x.shape
    for xi, vi in zip(x, vals):
        assert vi == pytest.approx(bessel_j(0.5, float(xi)), rel=1e-13)
