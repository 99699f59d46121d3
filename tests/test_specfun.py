"""Special-function layer: gamma wrapper, the Bessel routes and the shared helpers."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchtrace import DomainError, TruncationBudgetError, bessel_j, bessel_j_oracle, gamma
from pinchtrace import specfun
from pinchtrace.specfun import ascending_series, bessel_j_half, kronrod, leggauss, log_sinh


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


def _sine_envelope(sa):
    """G(x) = log sinh(x/2) - log min(1/x, sa): at weight ell, ell e^{-G(n ell)}
    = min(1/n, ell sa)/sinh(n ell/2) bounds the w = 0 term |sin(n ell sa)|/
    (n sinh(n ell/2)) and every later one geometrically."""
    return lambda x: log_sinh(0.5 * x) - np.log(np.minimum(1.0 / x, sa))


def _sine_collar(ells, sa):
    ells = np.sort(np.asarray(ells, dtype=float))
    return specfun._Collar(ells, ells, _sine_envelope(sa))


def _sine_tail(ells, cuts, sa):
    """The true tails of the w = 0 terms past each length's cut, summed until
    e^{-m ell/2} is below 1e-35."""
    total = 0.0
    for ell, cut in zip(ells, cuts):
        m = np.arange(cut + 1.0, cut + 2.0 + math.ceil(160.0 / ell))
        total += np.sum(np.abs(np.sin(m * ell * sa)) / m * np.exp(-log_sinh(0.5 * m * ell)))
    return total


@settings(max_examples=40)
@given(ell=st.floats(0.05, 3.0), sa=st.floats(0.1, 4.0), log_target=st.floats(-32.0, -2.0),
       ells=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=40))
def test_tail_cut_is_the_smallest_certified_cut(ell, sa, log_target, ells):
    target = math.exp(log_target)
    env = _sine_envelope(sa)

    def log_env(n):
        return math.log(ell) - env(n * ell)

    (n,), _ = _sine_collar([ell], sa).cut(target, 10**6)
    limit = math.log(target * -math.expm1(-0.5 * ell))
    assert log_env(n + 1) <= limit
    assert n == 1 or log_env(n) > limit
    assert _sine_tail([ell], [n], sa) <= target
    # many lengths: the least passing point on the shortest length's grid,
    # and every length's true tail summed within target
    collar = _sine_collar(ells, sa)
    cuts, _ = collar.cut(target, 10**6)
    ell0, n, lengths = min(ells), int(cuts[0]), np.array(ells)
    d0 = -math.expm1(-0.5 * ell0)
    log_w = math.log(float(np.sum(lengths * (d0 / -np.expm1(-0.5 * lengths)))))
    limit = math.log(target * d0)
    assert log_w - env((n + 1) * ell0) <= limit
    assert n == 1 or log_w - env(n * ell0) > limit
    assert _sine_tail(collar.ell, cuts, sa) <= target


def test_tail_cut_raises_past_its_cap():
    collar = _sine_collar([0.05], 1.0)
    (n,), _ = collar.cut(1e-10, 10**6)
    assert collar.cut(1e-10, n)[0].tolist() == [n]
    for cap in (0, 1, n // 2, n - 1):
        with pytest.raises(TruncationBudgetError):
            collar.cut(1e-10, cap)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(counts=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=12),
       block=st.integers(1, 50))
def test_collar_blocks_hold_the_table_in_order(counts, block):
    # the terms lo_i < n <= hi_i of every length, lengths in order and n
    # ascending, in blocks of at most _BLOCK terms: the whole table, once
    # a re-cut may add no terms to some lengths: lo_i = hi_i, never past it
    hi = np.array([max(a, b, 1) for a, b in counts])
    lo = np.minimum([min(a, b) for a, b in counts], hi - (hi == hi.max()))
    ell = np.arange(1.0, lo.size + 1.0)
    collar = specfun._Collar(ell, 10.0 * ell, lambda x: 0.5 * x)
    want = [(k, i + 1.0) for i in range(lo.size) for k in range(lo[i] + 1, hi[i] + 1)]
    with mock.patch.object(specfun, "_BLOCK", block):
        for start in (lo, 0 * lo):
            got = list(collar.blocks(start, hi))
            assert all(0 < part[0].size <= block for part in got)
            n, e, w = (np.concatenate([np.broadcast_to(part[i], part[0].shape) for part in got])
                       for i in range(3))
            table = want if start is lo else [(k, i + 1.0) for i in range(lo.size)
                                             for k in range(1, hi[i] + 1)]
            assert n.tolist() == [k for k, _ in table] and e.tolist() == [x for _, x in table]
            assert w.tolist() == [10.0 * x for _, x in table]


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


_EPS = float(np.finfo(float).eps)


def _mp_besselj(p, x):
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.besselj(p, x))


@settings(max_examples=300)
@given(n=st.integers(0, 12), x=st.floats(0.0, 200.0))
@example(n=0, x=0.0)
@example(n=3, x=3.0)                          # x = n: the last series point
@example(n=3, x=float(np.nextafter(3.0, 4.0)))  # the first recurrence point
@example(n=4, x=math.sqrt(11.0))              # the series edge x^2 = 2n + 3
@example(n=4, x=float(np.nextafter(math.sqrt(11.0), 4.0)))  # first Miller point
@example(n=12, x=12.0)
@example(n=12, x=math.sqrt(27.0))
@example(n=5, x=1e-3)
@example(n=1, x=0.93)
def test_bessel_j_half_matches_mpmath(n, x):
    # the recurrence (x > n) comes within 4 eps max(1, |J|) and the series
    # (x <= n, x^2 <= 2n + 3) within 4 eps of J itself, as the counting
    # series scales J up by (2 sqrt(a)/x)^nu there; the band between them
    # is Miller's recurrence, good to a few eps |J|
    got = float(bessel_j_half(n, np.array([x]))[0])
    want = _mp_besselj(n + 0.5, x)
    if x > n:
        assert abs(got - want) <= 4.0 * _EPS * max(1.0, abs(want))
    elif x * x <= 2 * n + 3:
        assert abs(got - want) <= 4.0 * _EPS * abs(want)
    else:
        assert abs(got - want) <= 8.0 * _EPS * abs(want)


def test_bessel_j_half_scalar_and_large_order():
    with pytest.raises(DomainError):
        bessel_j_half(-1, 1.0)
    assert isinstance(bessel_j_half(2, 3.0), float)
    assert bessel_j_half(2, np.array(3.0)).shape == ()
    # Gamma(n + 3/2) overflows a double past n = 169: the series lead goes by logs
    for n, x in ((200, 1.0), (200, 5.0)):
        want = _mp_besselj(n + 0.5, x)
        assert float(bessel_j_half(n, x)) == pytest.approx(want, rel=1e-12)


def test_bessel_j_half_recurs_upward_only_above_its_order(monkeypatch):
    # the upward recurrence runs n steps even on no points: 2 s at
    # n = 10^6, and no end at p = 1e300
    orders = []

    def spy(n, x):
        orders.append(n)
        return upward(n, x)

    upward = specfun._upward
    monkeypatch.setattr(specfun, "_upward", spy)
    assert bessel_j_half(10**6, 1.0) == 0.0
    assert orders == []
    assert bessel_j(1e300, 1.0) == 0.0
    assert orders == []
    got = bessel_j_half(3, np.array([1.0, 5.0]))
    assert orders == [3]
    assert got[0] == pytest.approx(_mp_besselj(3.5, 1.0), rel=1e-14)
    assert got[1] == pytest.approx(_mp_besselj(3.5, 5.0), rel=1e-14)


@settings(max_examples=300)
@given(p=st.floats(-0.49, 40.0), x=st.floats(0.0, 200.0))
@example(p=1.2, x=math.sqrt(4.4))                       # series edge x^2 = 2(p + 1)
@example(p=1.2, x=float(np.nextafter(math.sqrt(4.4), 3.0)))  # first Miller point
@example(p=0.7, x=25.0)                                 # first Hankel point
@example(p=0.7, x=float(np.nextafter(25.0, 0.0)))       # last Miller point
@example(p=30.3, x=30.3)                                # Hankel, 30 steps up
@example(p=30.3, x=float(np.nextafter(30.3, 0.0)))      # Miller at x just below p
@example(p=-0.3, x=1e-3)
@example(p=1e-9, x=7.0)
@example(p=15.963677371876086, x=3.0)  # p + 1 rounds: Gamma(p + 1) needs its correction
@example(p=0.5, x=5e-324)   # 2x/pi is subnormal
@example(p=0.5, x=1e-310)
@example(p=-0.5, x=5e-324)  # 2/(pi x) overflows
@example(p=-0.5, x=3e-309)  # pi x is subnormal
def test_bessel_j_matches_mpmath_at_every_order(p, x):
    # where J oscillates (x > p) the error is a few eps of its envelope,
    # elsewhere a few eps of J, plus one eps per recurrence step above
    # round(p): what the ratios of the upward and the Miller recurrence add
    if p < 0.0 and x == 0.0:
        return
    got = bessel_j(p, x)
    want = _mp_besselj(p, x)
    scale = max(abs(want), min(1.0, math.sqrt(2.0 / (math.pi * x)))) if x > p else abs(want)
    assert abs(got - want) <= (8.0 + p) * _EPS * scale


def test_bessel_j_arrays_and_extremes():
    x = np.array([0.0, 1e-300, 0.5, 24.9, 25.0, 1e3, 1e7, np.inf, np.nan])
    got = bessel_j(1.2, x)
    assert got.shape == x.shape and got[0] == 0.0 and got[-2] == 0.0 and np.isnan(got[-1])
    for xi, gi in zip(x[1:-2], got[1:-2]):
        assert gi == pytest.approx(_mp_besselj(1.2, float(xi)), rel=1e-14, abs=1e-300)
    assert isinstance(bessel_j(1.2, 3.0), float)
    with pytest.raises(DomainError, match="diverges"):
        bessel_j(-0.3, np.array([1.0, 0.0]))
    # every order is 0 at inf, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (-0.5, 0.0, 0.5, 1.2, 1.5, 2.5):
            assert bessel_j(p, np.array([np.inf]))[0] == 0.0 and bessel_j(p, np.inf) == 0.0
            assert np.isnan(bessel_j(p, np.array([np.nan]))[0])
        assert bessel_j_half(2, np.inf) == 0.0


def test_kronrod_extends_the_sixteen_point_rule():
    # 33 nodes and positive weights; the embedded rule is leggauss(16) bit
    # for bit, and the whole rule integrates x^d, d <= 49, to rounding
    x, w, gauss = kronrod(16)
    xg, wg = leggauss(16)
    assert x.size == w.size == gauss.size == 33 and np.all(w > 0.0)
    assert np.array_equal(x[1::2], xg) and np.array_equal(gauss[1::2], wg)
    assert not np.any(gauss[::2])
    for d in range(50):
        terms = w * x**d
        exact = 0.0 if d % 2 else 2.0 / (d + 1.0)
        assert abs(math.fsum(terms) - exact) <= 4.0 * _EPS * math.fsum(np.abs(terms))



@pytest.mark.parametrize("p, x", [(3e305, 1e200), (1e300, 1e299), (400.3, 30.0), (1e308, 1e200)])
def test_bessel_j_is_zero_where_its_bound_underflows(p, x):
    # |J_p(x)| <= (e x/2p)^p (DLMF 10.14.4), and so the sharper DLMF 10.14.5
    # bound the mask reads, is below 2^-1075: 0 before any
    # recurrence (mpmath gives 9.1e-400 at p = 400.3); at p = 1e308, 2(p + 1)
    # overflows, and x^2 = inf lies past it
    assert bessel_j(p, x) == 0.0

def _debye_edge(nu: float) -> float:
    """The y at which e^{-nu (atanh s - s)}, s = sqrt(1 - y^2), is 2^-1075, by mpmath."""
    import mpmath

    with mpmath.workdps(30):
        def excess(y):
            s = mpmath.sqrt(1 - y * y)
            return nu * (mpmath.atanh(s) - s) - 1075 * mpmath.log(2)

        return float(mpmath.findroot(excess, (mpmath.mpf("1e-3"), 1 - mpmath.mpf("1e-12")),
                                     solver="bisect"))


@pytest.mark.parametrize("p", [1500.0, 2000.5, 5000.3, 20000.0])
def test_bessel_j_is_zero_where_the_debye_bound_underflows(p, monkeypatch):
    # |J_p(p y)| <= e^{-p (atanh s - s)} (DLMF 10.14.5) is below 2^-1075 just inside
    # its edge, past where (e x/2p)^p is: 0 with no recurrence run, and mpmath,
    # its limits raised, finds |J| < 2^-1075 there. Just outside, Miller runs.
    import mpmath

    x = p * _debye_edge(p)
    inside, outside = x * (1.0 - 1e-9), x * (1.0 + 1e-6)
    assert inside > 2.0 / math.e * p * 2.0 ** (-1075.0 / p)
    with mpmath.workdps(30):
        want = mpmath.besselj(p, inside, maxterms=10**6, maxprec=10**6)
    assert abs(want) < mpmath.mpf(2) ** -1075
    runs, miller = [], specfun._miller
    monkeypatch.setattr(specfun, "_miller", lambda *args: runs.append(1) or miller(*args))
    assert bessel_j(p, inside) == 0.0 and not runs
    bessel_j(p, outside)
    assert runs


@pytest.mark.parametrize("x", [1e308, 1.7e308])
@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5, 1.2, 1.5])
def test_bessel_j_near_the_largest_double(p, x):
    # 2x and pi x pass the largest double there: every order stays within
    # a few eps of J's envelope, with no overflow on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = bessel_j(p, x)
    want = _mp_besselj(p, x)
    assert abs(got - want) <= (8.0 + p) * _EPS * math.sqrt(2.0 / math.pi) / math.sqrt(x)


@settings(max_examples=100)
@given(nu=st.floats(0.5, 60.0), frac=st.floats(0.0, 1.0))
def test_ascending_series_equals_the_fixed_sixty_term_sum(nu, frac):
    # terms past the stop are below half an ulp of the sum, so the early
    # stop reproduces the 60-term loop it replaced bit for bit
    x = frac * np.sqrt(2.0 * (nu + 1.0)) * np.linspace(0.0, 1.0, 17)
    s = -0.25 * x**2
    part, acc = np.ones_like(s), np.ones_like(s)
    for m in range(1, 60):
        part *= s / (m * (m + nu))
        acc += part
    assert np.array_equal(ascending_series(nu, x), acc)


def _region_error(region, p, x):
    """bessel_j's error at (p, x) over the _J_ULPS bound of its region."""
    want = _mp_besselj(p, x)
    scale = abs(want)
    if x > p - 0.5 and p != 0.5:  # past the turning region: of J's envelope
        scale = max(scale, min(1.0, math.sqrt(2.0 / (math.pi * x))))
    a, b = specfun._J_ULPS[region]
    return abs(bessel_j(p, x) - want) / ((a + b * p) * _EPS * scale + 2.0**-1070)


_ORDERS = st.one_of(st.floats(-0.49, 120.0), st.integers(0, 120).map(lambda n: n + 0.5))


@settings(max_examples=150, derandomize=True)
@given(p=_ORDERS, frac=st.floats(5e-324, 1.0))
def test_series_region_error_is_its_stated_ulps(p, frac):
    n = specfun._half_integer_index(p)
    edge = math.sqrt(2.0 * (p + 1.0))
    if n is not None:  # the series serves J_{1/2} only below _TINY_X
        edge = min(edge, max(n, specfun._TINY_X))
    assert _region_error("series", p, frac * edge) <= 1.0


@settings(max_examples=150, derandomize=True)
@given(n=st.integers(0, 120), step=st.floats(5e-324, 200.0))
def test_upward_region_error_is_its_stated_ulps(n, step):
    assert _region_error("upward", n + 0.5, n + step) <= 1.0


@settings(max_examples=150, derandomize=True)
@given(p=st.floats(-0.49, 120.0), step=st.floats(0.0, 200.0))
def test_hankel_region_error_is_its_stated_ulps(p, step):
    if specfun._half_integer_index(p) is None:
        assert _region_error("hankel", p, max(25.0, p) + step) <= 1.0


@settings(max_examples=150, derandomize=True)
@given(p=_ORDERS, frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_miller_region_error_is_its_stated_ulps(p, frac):
    n = specfun._half_integer_index(p)
    lo = math.sqrt(2.0 * (p + 1.0))
    hi = max(25.0, p) if n is None else n
    if lo < hi:  # the band is empty for half orders up to 7/2
        assert _region_error("miller", p, lo + frac * (hi - lo)) <= 1.0
