"""Heat kernel, origin value, displacement and the cylinder trace."""

import contextlib
import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from pinchtrace import (
    DEFAULT_POLICY,
    DomainError,
    LengthSpectrum,
    TruncationBudgetError,
    TruncationPolicy,
    cylinder_trace,
    heat_kernel,
    heat_kernel_origin,
    hyperbolic_trace,
)
from pinchtrace import hyperbolic, specfun


def _mp_kernel(t: float, rho: float) -> float:
    """Slow oracle: 40-digit tanh-sinh quadrature of the defining integral.

    Uses the product identity cosh u - cosh rho =
    2 sinh((u+rho)/2) sinh((u-rho)/2) so the denominator stays exact
    near the singular endpoint.
    """
    with mp.workdps(40):
        t_, r_ = mp.mpf(t), mp.mpf(rho)

        def f(v):
            u = r_ + v * v
            den = mp.sqrt(2 * mp.sinh(r_ + v * v / 2) * mp.sinh(v * v / 2))
            return 2 * v * u * mp.e ** (-u * u / (4 * t_)) / den

        pref = mp.sqrt(2) * mp.e ** (-t_ / 4) / (4 * mp.pi * t_) ** mp.mpf("1.5")
        vmax = mp.sqrt(mp.sqrt(r_ * r_ + 4 * t_ * 60) - r_)
        return float(pref * mp.quad(f, [0, vmax / 3, vmax]))


def _origin_oracle(t: float) -> float:
    # tanh(pi r) = 1 - 2/(e^{2 pi r}+1) splits K(t,0) into the flat-space
    # lead e^{-t/4}/(4 pi t) minus a rapidly convergent correction.
    lead = math.exp(-t / 4.0) / (4.0 * math.pi * t)
    corr, _ = integrate.quad(
        lambda r: math.exp(-(0.25 + r * r) * t) * r / (math.exp(2.0 * math.pi * r) + 1.0),
        0.0, 40.0, epsabs=1e-16, epsrel=1e-13, limit=200,
    )
    return lead - corr / math.pi


@pytest.mark.parametrize("t,rho", [(0.5, 1.0), (1.0, 0.5), (2.0, 3.0), (0.1, 0.2), (5.0, 1.0)])
def test_kernel_matches_high_precision_oracle(t, rho):
    assert heat_kernel(t, rho) == pytest.approx(_mp_kernel(t, rho), rel=1e-10)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_origin_matches_decomposition_oracle(t):
    assert heat_kernel_origin(t) == pytest.approx(_origin_oracle(t), rel=1e-10)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_kernel_at_zero_distance_equals_origin_value(t):
    assert heat_kernel(t, 0.0) == pytest.approx(heat_kernel_origin(t), rel=1e-4)


@pytest.mark.parametrize("rho", [3e-9, 1e-8])
@pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 2.0, 3.0, 10.0])
def test_kernel_near_zero_distance_equals_origin_value(t, rho):
    # K is even in rho, so K(t, rho) - K(t, 0) is O(rho^2): far below tol.
    # The substitution u = rho + v^2 put branch points at v = +-i sqrt(2 rho),
    # next to the end v = 0, and two agreeing mesh levels missed by 1-8 tol
    origin = heat_kernel_origin(t)
    assert abs(heat_kernel(t, rho) - origin) <= DEFAULT_POLICY.tol(origin)


@contextlib.contextmanager
def _stated_bounds():
    """Record the bound of every rule gauss_rule builds for hyperbolic, and
    the tail e^{log_tail(c)} past each cut _least_cut sets."""
    bounds, tails = [], []
    real_rule, real_cut = hyperbolic.gauss_rule, hyperbolic._least_cut

    def spy(*args):
        rule = real_rule(*args)
        bounds.append(rule[2])
        return rule

    def cut_spy(log_tail, target):
        c = real_cut(log_tail, target)
        tails.append(math.exp(log_tail(c)))
        return c

    hyperbolic.gauss_rule, hyperbolic._least_cut = spy, cut_spy
    try:
        yield bounds, tails
    finally:
        hyperbolic.gauss_rule, hyperbolic._least_cut = real_rule, real_cut


def _mp_kernel_v(t: float, rho: float):
    """30-digit McKean v-form, u = rho + v^2, split at sqrt(2 rho) 4^k.

    Its integrand has branch points at v = +-i sqrt(2 rho), so the splits
    keep every piece's nearest singularity a piece-width away.
    """
    with mp.workdps(30):
        t_, r_ = mp.mpf(t), mp.mpf(rho)

        def f(v):
            u = r_ + v * v
            den = mp.sqrt(2 * mp.sinh(r_ + v * v / 2) * mp.sinh(v * v / 2))
            return 2 * v * u * mp.exp(-u * u / (4 * t_)) / den

        vmax = mp.sqrt(mp.sqrt(r_ * r_ + 4 * t_ * 80) - r_)
        pts, b = [mp.mpf(0)], max(mp.sqrt(2 * r_), mp.mpf("1e-12"))
        while b < vmax:
            pts.append(b)
            b *= 4
        pref = mp.sqrt(2) * mp.exp(-t_ / 4) / (4 * mp.pi * t_) ** mp.mpf("1.5")
        return pref * mp.quad(f, pts + [vmax])


def _mp_origin_tanh(t: float):
    """30-digit (1/2 pi) int_0^inf e^{-(1/4 + r^2) t} tanh(pi r) r dr."""
    with mp.workdps(30):
        t_ = mp.mpf(t)
        rmax = mp.sqrt(80 / t_) + 2
        pts = [mp.mpf(0)] + [mp.mpf(2) ** k for k in range(-2, 12) if 2**k < rmax] + [rmax]
        val = mp.quad(lambda r: mp.exp(-(mp.mpf(1) / 4 + r * r) * t_) * mp.tanh(mp.pi * r) * r, pts)
        return val / (2 * mp.pi)


_LOG_T = st.floats(math.log(1e-3), math.log(100.0))


@settings(max_examples=40)
@given(log_t=_LOG_T, log_rho=st.one_of(st.none(), st.floats(math.log(1e-300), math.log(10.0))))
def test_kernel_within_stated_bound_property(log_t, log_rho):
    t, rho = math.exp(log_t), 0.0 if log_rho is None else math.exp(log_rho)
    with _stated_bounds() as (bounds, tails):
        got = heat_kernel(t, rho)
    want = _mp_kernel_v(t, rho)
    err = float(abs(got - want))
    assert err <= DEFAULT_POLICY.tol(float(want))
    if bounds:  # else K underflowed before any rule was built
        assert err <= bounds[0] + tails[0]
    else:
        assert got == 0.0 and want < 1e-300


@settings(max_examples=30)
@given(log_t=_LOG_T)
def test_origin_within_stated_bound_property(log_t):
    t = math.exp(log_t)
    with _stated_bounds() as (bounds, _):
        got = heat_kernel_origin(t)
    want = _mp_origin_tanh(t)
    err = float(abs(got - want))
    assert err <= DEFAULT_POLICY.tol(float(want))
    # the lead's rounding rides outside the rule, within 4 eps of it
    assert err <= bounds[0] + 4.0 * 2.0**-52 * math.exp(-t / 4.0) / (4.0 * math.pi * t)


def test_gaussian_decay_bound():
    # K(t, rho) <= C e^{-rho^2/4t}; at t=1, rho=10 the plain e^{-25}
    # already dominates by nearly three orders.
    assert heat_kernel(1.0, 10.0) <= math.exp(-25.0)


@pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 4.0, 20.0])
def test_kernel_below_closed_form_bound(t):
    # cosh u - cosh rho >= (u^2 - rho^2)/2 gives K <= e^{-t/4 - rho^2/4t}/(4 pi t),
    # the bound heat_kernel tests for underflow before its quadrature
    for rho in (0.0, 0.1, 1.0, 3.0, 8.0):
        bound = math.exp(-t / 4.0 - rho * rho / (4.0 * t)) / (4.0 * math.pi * t)
        assert heat_kernel(t, rho) <= bound * (1.0 + 1e-9)


@pytest.mark.parametrize("t, rho", [(1.0, 1e300), (1e-300, 1.0), (1e300, 1.0), (1.0, 60.0)])
def test_kernel_underflows_to_zero(t, rho):
    assert heat_kernel(t, rho) == 0.0


@pytest.mark.parametrize("t", [1e20, 1e300])
def test_origin_underflows_to_zero(t):
    # K(t, 0) <= e^{-t/4}/(4 pi t), which underflows: both routes give 0
    assert heat_kernel_origin(t) == 0.0
    assert heat_kernel(t, 0.0) == 0.0


def test_kernel_positive_and_decreasing_in_distance():
    t = 0.7
    prev = heat_kernel(t, 0.05)
    assert prev > 0.0
    for rho in (0.3, 0.8, 1.5, 3.0, 6.0):
        cur = heat_kernel(t, rho)
        assert 0.0 < cur < prev
        prev = cur


def test_origin_small_time_flat_limit():
    t = 0.01
    flat = math.exp(-t / 4.0) / (4.0 * math.pi * t)
    assert heat_kernel_origin(t) == pytest.approx(flat, rel=0.02)


def test_origin_large_time_bound():
    t = 10.0
    assert heat_kernel_origin(t) <= 1.2 * math.exp(-t / 4.0) / (4.0 * math.pi * t)


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        heat_kernel(0.0, 1.0)
    with pytest.raises(DomainError):
        heat_kernel(-1.0, 1.0)
    with pytest.raises(DomainError):
        heat_kernel(1.0, -0.1)
    # (4 pi t)^{3/2} underflows a double here, but K(t, 0) ~ 8e298 does not
    origin = heat_kernel_origin(1e-300)
    assert abs(heat_kernel(1e-300, 0.0) - origin) <= DEFAULT_POLICY.tol(origin)
    with pytest.raises(DomainError):
        heat_kernel_origin(0.0)


def _displacement(ell, n, v):
    """d_n(v), sinh(d/2) = sinh(n ell/2) sqrt(1 + v^2), through cylinder_trace's
    overflow-free hyperbolic._half_distance."""
    log_y = float(specfun.log_sinh(0.5 * n * ell)) + 0.5 * math.log1p(v * v)
    return 2.0 * float(hyperbolic._half_distance(log_y))


def test_displacement_at_core():
    assert _displacement(1.0, 3, 0.0) == pytest.approx(3.0, rel=1e-15)
    assert _displacement(0.4, 5, 0.0) == pytest.approx(2.0, rel=1e-15)


def test_displacement_closed_form():
    # cosh d_1(1) at ell=1 collapses to e + 1/e - 1
    d = _displacement(1.0, 1, 1.0)
    assert math.cosh(d) == pytest.approx(math.e + 1.0 / math.e - 1.0, rel=1e-14)
    # generic point against the defining relation
    for ell, n, v in [(0.5, 2, 0.7), (1.3, 1, 2.0), (0.1, 10, 0.3)]:
        d = _displacement(ell, n, v)
        want = 1.0 + 2.0 * math.sinh(n * ell / 2.0) ** 2 * (1.0 + v * v)
        assert math.cosh(d) == pytest.approx(want, rel=1e-12)


def test_displacement_floor_and_monotonicity():
    ell, n = 0.8, 2
    prev = _displacement(ell, n, 0.0)
    assert prev == pytest.approx(n * ell, rel=1e-15)
    for v in (0.1, 0.5, 1.0, 4.0, 20.0):
        d = _displacement(ell, n, v)
        assert d > prev
        prev = d
    # huge offsets stay finite through the log branch
    d = _displacement(2.0, 400, 1e6)
    assert math.isfinite(d) and d > 800.0


@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_cylinder_positive(ell, t):
    assert cylinder_trace(ell, t) > 0.0


@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_cylinder_blocks_change_no_bit(ell, t, monkeypatch):
    # each n-row's sum and the final sum are the same calls whatever the
    # block, so one block (the whole grid at once) and one row per block
    # give the default's bits on the criterion-03 grid
    value = cylinder_trace(ell, t)
    for points in (1 << 62, 1):
        monkeypatch.setattr(hyperbolic, "_BLOCK_POINTS", points)
        assert cylinder_trace(ell, t) == value


@pytest.mark.parametrize("ell", [0.05, 0.1])
@pytest.mark.parametrize("t", [2.0, 10.0])
def test_cylinder_short_lengths_match_closed_form(ell, t):
    # stopping at the first term under tolerance misses the tail here by
    # 2.7e-9 to 1.35e-8 relative; the geometric tail bound does not
    closed = hyperbolic_trace(LengthSpectrum.of([(ell, 1)]), t)
    assert abs(cylinder_trace(ell, t) - closed) <= 2.0 * DEFAULT_POLICY.tol(closed)


def test_cylinder_long_length_is_zero():
    # sinh(ell/2) overflows a double here; the envelope lives in log space
    assert cylinder_trace(1500.0, 1.0) == 0.0


def test_cylinder_decreases_at_large_time():
    vals = [cylinder_trace(1.0, t) for t in (5.0, 10.0, 20.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_cylinder_short_length_guard():
    with pytest.raises(DomainError):
        cylinder_trace(0.04, 1.0)
    # boundary value is accepted
    assert cylinder_trace(0.05, 1.0) > 0.0


@settings(max_examples=30)
@given(log_ell=st.floats(math.log(0.05), math.log(5.0)),
       log_t=st.floats(math.log(0.1), math.log(20.0)))
@example(log_ell=1.1015625, log_t=0.0)
def test_cylinder_within_stated_bounds_property(log_ell, log_t):
    ell, t = math.exp(log_ell), math.exp(log_t)
    with _stated_bounds() as (bounds, tails):
        got = cylinder_trace(ell, t)
    # the closed form to 1e-12: at the default policy its own error, up to
    # tol(closed), would be charged to the cylinder (at ell = 3, t = 1 it is
    # 1.03e-11, the cylinder's 2.5e-16)
    closed = hyperbolic_trace(LengthSpectrum.of([(ell, 1)]), t,
                              TruncationPolicy(rel_tol=1e-12, abs_tol=1e-300))
    err, tol = abs(got - closed), DEFAULT_POLICY.tol(closed)
    assert err <= tol
    # the two rules' stated bounds and the tails past their cuts, plus the half
    # of the tolerance the n-cut takes, the sixteenth the dropped points take
    # and the rounding of the one sum over the kept points
    assert err <= (sum(bounds) + sum(tails) + (0.5 + 0.0625) * tol
                   + specfun._rounding(1.001 * closed + 0.25 * tol, 10**9))


def test_cylinder_quadrature_budget():
    # even the least outer rule, 8 nodes, on each of the n-rows passes 100 evaluations
    with pytest.raises(TruncationBudgetError):
        cylinder_trace(0.5, 1.0, TruncationPolicy(max_quad_evals=100))


def test_cylinder_budget_exhaustion():
    tight = TruncationPolicy(rel_tol=1e-9, abs_tol=1e-14, max_terms=1,
                             max_quad_evals=2_000_000)
    with pytest.raises(TruncationBudgetError):
        cylinder_trace(0.05, 1.0, tight)


def test_cylinder_outer_rounding_counts_the_rows():
    # the outer rule's rounding is charged against the closed-form sum of
    # the rows, not the bound L/(1 - e^{-ell/2}) on the trace (40 L here)
    fine = TruncationPolicy(rel_tol=1e-11, abs_tol=1e-300)
    closed = hyperbolic_trace(LengthSpectrum.of([(0.05, 1)]), 2.0, fine)
    assert abs(cylinder_trace(0.05, 2.0, fine) - closed) <= fine.tol(closed)


@pytest.mark.parametrize("ell, t", [(0.05, 2.0), (1.0, 1.0), (3.0, 20.0)])
def test_cylinder_cuts_its_rows_by_one_collar_search(ell, t, monkeypatch):
    # the rows' n-cut is the one search of every geodesic n-sum, run once a call
    cut_calls, cut = [], specfun._Collar.cut
    monkeypatch.setattr(specfun._Collar, "cut", lambda *args: cut_calls.append(args) or cut(*args))
    cylinder_trace(ell, t)
    assert len(cut_calls) == 1


def test_cylinder_domain_errors():
    with pytest.raises(DomainError):
        cylinder_trace(1.0, 0.0)
    with pytest.raises(DomainError):
        cylinder_trace(-1.0, 1.0)


def _terms_within_stated_ulps(t, d):
    """At heat_kernel's own s-rule nodes, the smallest (r -> 0) included, each
    term errs by at most the rule's ulps eps of its envelope w G(d) e^{-s^2}/
    sqrt(sinhc d), which sums to the rule's mass: formed as heat_kernel forms
    it (G sqrt(pi)/2 in the exponent, the term scaled back) and as
    cylinder_trace does (a one-point array), against 50-digit mpmath through
    cosh u - cosh d = 2 sinh((u + d)/2) sinh(r^2/2(u + d)) (and 2^-1074 where a
    term is subnormal)."""
    rules, ulps = [], []
    kernel_rule, gauss_rule = hyperbolic._kernel_rule, hyperbolic.gauss_rule
    hyperbolic._kernel_rule = lambda *args: rules.append(kernel_rule(*args)) or rules[-1]
    hyperbolic.gauss_rule = lambda *args: ulps.append(args[4]) or gauss_rule(*args)
    try:
        heat_kernel(t, d)
    finally:
        hyperbolic._kernel_rule, hyperbolic.gauss_rule = kernel_rule, gauss_rule
    (s, w, _), = rules
    log_g, half = hyperbolic._log_g(t, d), hyperbolic._HALF_SQRT_PI
    formed = (hyperbolic._terms(t, log_g + math.log(half), d, s, w) / half,
              hyperbolic._terms(t, np.array([log_g]), np.array([d]), s, w)[0])
    eps = 2.0**-52
    with mp.workdps(50):
        t_, d_ = mp.mpf(t), mp.mpf(d)
        sinhc = mp.sinh(d_) / d_ if d > 0.0 else mp.mpf(1)
        g = mp.exp(-t_ / 4 - d_ * d_ / (4 * t_)) / (2 * mp.pi**1.5 * t_)
        for i in range(s.size):
            s_, w_ = mp.mpf(s[i]), mp.mpf(w[i])
            r = 2 * mp.sqrt(t_) * s_
            up = mp.sqrt(d_ * d_ + r * r) + d_
            want = w_ * g * mp.exp(-s_ * s_) * r / mp.sqrt(4 * mp.sinh(up / 2)
                                                           * mp.sinh(r * r / (2 * up)))
            envelope = w_ * g * mp.exp(-s_ * s_) / mp.sqrt(sinhc)
            for got in formed:
                assert abs(got[i] - want) <= ulps[0] * eps * envelope + 2.0**-1074


@pytest.mark.parametrize("t, d", [
    (t, d) for t in (0.001, 0.05, 1.0, 10.0, 40.0, 600.0)
    for d in (0.0, 1e-6, 0.5, 6.0, 10.0, 40.0) if d * d / (4.0 * t) < 600.0
])
def test_kernel_rule_term_error_is_its_stated_ulps(t, d):
    _terms_within_stated_ulps(t, d)


@settings(max_examples=60)
@given(log_t=st.floats(math.log(1e-3), math.log(600.0)),
       frac=st.floats(0.0, 1.0, exclude_max=True))
@example(log_t=0.0, frac=0.0)
@example(log_t=math.log(1e-300), frac=0.0)
def test_kernel_terms_within_stated_ulps_property(log_t, frac):
    # t log-uniform on [1e-3, 600] and d on [0, 40] with d^2/4t < 600; d = 0
    # and t = 1e-300 at d = 0 as examples
    t = math.exp(log_t)
    _terms_within_stated_ulps(t, frac * min(40.0, math.sqrt(2400.0 * t)))


def test_found_44_cylinder_certifies_at_rel_tol_1e_11():
    # the s-rule's per-term charge at (0.05, 10) was 958.6 ulps, above half its
    # 1.83e-14 target; the linear form has no sinhc terms and the kept points
    # reach a shorter distance
    fine = TruncationPolicy(rel_tol=1e-11, abs_tol=1e-300)
    closed = hyperbolic_trace(LengthSpectrum.of([(0.05, 1)]), 10.0,
                              TruncationPolicy(rel_tol=1e-12, abs_tol=1e-300))
    assert abs(cylinder_trace(0.05, 10.0, fine) - closed) <= fine.tol(closed)


@lru_cache(maxsize=None)
def _mp_cylinder(ell: float, t: float) -> float:
    """30-digit closed form e^{-t/4} (16 pi t)^{-1/2} sum_n ell e^{-(n ell)^2/4t}/sinh(n ell/2)."""
    with mp.workdps(30):
        t_, ell_ = mp.mpf(t), mp.mpf(ell)
        total, n = mp.mpf(0), 1
        while True:
            term = ell_ * mp.exp(-(n * ell_) ** 2 / (4 * t_)) / mp.sinh(n * ell_ / 2)
            total += term
            if term < total * mp.mpf(10) ** -35:
                return float(mp.exp(-t_ / 4) / mp.sqrt(16 * mp.pi * t_) * total)
            n += 1


# the cut follows the target: at its floor c = 1 where abs_tol is half, near
# it at rel_tol 0.5, and past 25 where rel_tol is 1e-13 or abs_tol 1e-12 leads
_CUT_POLICIES = {
    "floor": TruncationPolicy(rel_tol=0.5, abs_tol=0.5),
    "rel_tol 0.5": TruncationPolicy(rel_tol=0.5),
    "rel_tol 1e-13": TruncationPolicy(rel_tol=1e-13, abs_tol=1e-300),
    "abs_tol dominates": TruncationPolicy(rel_tol=1e-300, abs_tol=1e-12),
}


@pytest.mark.parametrize("name", list(_CUT_POLICIES))
@pytest.mark.parametrize("ell, t", [(0.5, 1.0), (1.0, 2.0), (2.0, 0.5), (0.05, 2.0)])
def test_cylinder_cut_from_the_policy_meets_it(name, ell, t):
    policy, want = _CUT_POLICIES[name], _mp_cylinder(ell, t)
    with _stated_bounds() as (_, tails):
        if name == "rel_tol 1e-13":  # the rounding passes the target, as before the cut moved
            with pytest.raises(TruncationBudgetError):
                cylinder_trace(ell, t, policy)
            return
        got = cylinder_trace(ell, t, policy)
    assert abs(got - want) <= policy.tol(want)
    assert len(tails) == 2 and max(tails) <= 0.0625 * policy.tol(want)


@pytest.mark.parametrize("name", list(_CUT_POLICIES))
@pytest.mark.parametrize("t, rho", [(0.1, 0.2), (1.0, 0.5), (5.0, 1.0), (1.0, 0.0)])
def test_kernel_cut_from_the_policy_meets_it(name, t, rho, monkeypatch):
    policy, want = _CUT_POLICIES[name], float(_mp_kernel_v(t, rho))
    cuts, least_cut = [], hyperbolic._least_cut
    monkeypatch.setattr(hyperbolic, "_least_cut", lambda *args: cuts.append(least_cut(*args))
                        or cuts[-1])
    if name == "rel_tol 1e-13" and t >= 1.0:  # the rounding passes the target, as before
        with pytest.raises(TruncationBudgetError):
            heat_kernel(t, rho, policy)
        return
    assert abs(heat_kernel(t, rho, policy) - want) <= policy.tol(want)
    # at t = 0.1 the tail past c = 1, about K/5 = 0.14, passes any sixteenth of a tolerance
    assert (cuts == [1.0]) == (name == "floor" and t >= 1.0)
