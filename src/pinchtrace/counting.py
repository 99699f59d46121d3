"""Weighted counting functions and the degeneration Bessel series.

The direct count of an eigenvalue list is N_w(T) = sum_{lambda <= T}
m(lambda) (T - lambda)^w, 0^0 = 1. Its degenerating-surface analogue is

    G_w(T) = Gamma(w+1)/(16 pi)^{1/2}
             * sum_{n>=1} sum_k ell_k/sinh(n ell_k/2)
               * (sqrt(a)/(n ell_k/2))^{w+1/2} J_{w+1/2}(n ell_k sqrt(a))

with a = T - 1/4, zero for T <= 1/4. As the lengths pinch, G_w(T) =
c_w(T) sum_k log(1/ell_k) + O(1): c_weight, g_residual, its limit per
length g_limit, and g_expansion in powers of ell^2. The closed forms
live in the numpy-free module closed and are re-exported here.

With nu = w + 1/2, phi(x) = (2 sqrt(a)/x)^nu J_nu(sqrt(a) x) and
g(x) = phi(x)/sinh(x/2), a length contributes pref S(ell), pref =
Gamma(w+1)/(16 pi)^{1/2}, S(ell) = sum_{n>=1} ell g(n ell). phi is even
and entire, |phi(z)| <= phi0 e^{sqrt(a) |Im z|} with phi0 = a^nu/Gamma(nu+1),
and |sinh(z/2)| >= sinh(Re z/2). S(ell) is certified to tol(S) =
policy.tol(pref S)/pref by the expansion route where its bound meets
tol(S), else by the direct route.

Direct route. Term n is at most env(n) = ell/sinh(n ell/2) min(phi0,
(2 sqrt(a)/(n ell))^nu B(n ell sqrt(a))), B(x) = min(1, sqrt(2/(pi x)))
for nu = 1/2, else min(1, 0.674886 nu^{-1/3}, 0.785747 x^{-1/3}) (Landau,
J. London Math. Soc. 61, 2000). specfun.tail_cut cuts where the tail
env(N+1)/(1 - e^{-ell/2}) meets tol(env(1)), and again while tol of the
partial sum is smaller; g_sine_form does the same with min(1, n ell
sqrt(a))/(n sinh(n ell/2)). Rounding x = n ell sqrt(a) (2^-51 relative)
moves a term by at most 2^-51 ell/sinh(n ell/2) min(phi0 x^2/(2 nu + 2),
(2a/x)^nu x B_{nu+1}(x)), as x d/dx (x^-nu J_nu) = -x^-nu x J_{nu+1}.
That and the sum's rounding (specfun._rounding, with the kernel's
_J_ULPS and the factors' errors) join the tail; a sum raises where they
alone exceed the tolerance (at w = 0 from about T = 1e12, ell = 0.05).

Expansion route. With x g(x) = sum_{j<=24} c_j x^2j, h = g - c_0 e^{-x}/x
is analytic in |Im z| < 2 pi, and Euler-Maclaurin from x = 0 gives

    S(ell) = -c_0 log(1 - e^{-ell}) - c_0 ell/2 + R
             - sum_{k<=K} (B_2k/2k)(c_k - c_0/(2k)!) ell^2k + R_K.

- |R_K| <= |B_2K|/(2K)! ell^2K int |h^(2K)|, and by Cauchy's estimate on
  circles of radius r < 2 pi/3 int |h^(2K)| <= (2K)! r^-2K [2r H(3r) +
  2 phi0 e^{sqrt(a) r} log coth(r/4) + c_0 E_1(r)], H(rho) = phi0
  e^{sqrt(a) rho}/sin(rho/2) + c_0 e^rho/rho >= |h| on |z| = rho.
- R = int_0^inf h comes from the same identity at ell0, the largest of
  1/4, 1/8, ..., 2^-12 where the bound on |R_K(ell0)| is 1e-5 of tol(R),
  with S(ell0) summed directly to that share; none is summed where that
  share misses the tolerance of |R - S(ell0)| + phi0 (ell0/sinh(ell0/2)
  + 2 log coth(ell0/4)) >= |R|. R's bound adds the tail, the roundings
  and the remainder bound.

These depend only on (w, T, policy): one cached build serves every
length, which then costs O(K) float operations, K the least order whose
bounds meet tol(S); where R's sum misses max_terms the direct route
serves. R_K grows like (ell sqrt(a)/pi)^2K, so the route certifies up to
ell of about 0.4 at T = 1, 0.3 at T = 5, 0.12 at T = 100, and none past
T = 1e7. Before any build a length is tested against a closed-form lower
bound on E_K ell^2K: 2 phi0 |B_2K| ell^2K e^{3 sqrt(a) r} r^{1-2K} at r =
min(2, (2K - 1)/(3 sqrt(a))), as the grid's radii are at most 2; where
no order meets the tolerance of phi0 (ell/sinh(ell/2) + 2 log coth(ell/4))
>= |S(ell)|, the length takes the direct route with nothing built.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .closed import _check, balance_epsilon, c_weight, counting_direct, gamma
from .errors import DomainError, PinchtraceError, TruncationBudgetError
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import (
    _j_ulps, _rounding, ascending_series, bessel_j, bessel_j_half, log_sinh, tail_cut,
)
from .spectrum import PinchingSet, SpectralData

__all__ = [
    "counting_direct", "c_weight", "g_bessel", "g_sine_form", "g_residual", "g_limit",
    "g_expansion", "sandwich_check", "balance_epsilon",
]

_BLOCK = 1 << 21

# Landau's uniform bounds |J_nu(x)| <= b nu^{-1/3} and <= c x^{-1/3},
# constants rounded up
_LANDAU_NU = 0.674886
_LANDAU_X = 0.785747

_CAUCHY_RADII = tuple(2.0 * 2.0 ** (-0.5 * i) for i in range(48))  # all < 2 pi/3
_R_SHARE = 1e-5  # of tol(R), for the direct sum and the remainder that fix R
_ELL0_MIN = 2.0**-12  # R's last direct sum, about 1e5 terms: T up to about 1e7
_ARG_ROUNDING = 2.0**-51  # relative rounding of x = n ell sqrt(a): three roundings
_LOG_POWER_MAX = 600.0      # a larger power leaves J_nu too close to underflow
_LOG_DBL_MAX = math.log(np.finfo(float).max)

# Bernoulli numbers B_2, B_4, ..., B_48
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6),
    (-26315271553053477373, 1919190), (2929993913841559, 6),
    (-261082718496449122051, 13530), (1520097643918070802691, 1806),
    (-27833269579301024235023, 690), (596451111593912163277961, 282),
    (-5609403368997817686249127547, 46410),
)
_LAURENT_TERMS = len(_BERNOULLI)  # J
# coefficients of x^2k in (x/2)/sinh(x/2), k = 0..J
_CSCH = (1.0,) + tuple(
    (2.0 ** (1 - 2 * k) - 1.0) * (num / (den * math.factorial(2 * k)))
    for k, (num, den) in enumerate(_BERNOULLI, 1)
)
_LOG_2 = math.log(2.0)
# (2K - 1, log |B_2K|, (2K - 1)(1 - log(2K - 1))) from K = J down, so that
# a deep length passes _may_certify at the first order it tries
_GATE_ORDERS = tuple(
    (2 * k - 1, math.log(abs(num / den)), (2 * k - 1) * (1.0 - math.log(2 * k - 1)))
    for k, (num, den) in reversed(list(enumerate(_BERNOULLI, 1))))


def _exp(x: float) -> float:
    """e^x, inf where it passes a double: for bounds that then fail to certify."""
    return math.exp(x) if x <= _LOG_DBL_MAX else math.inf


def _log_coth(y: float) -> float:
    return math.log1p(math.exp(-2.0 * y)) - math.log(-math.expm1(-2.0 * y))


def _series_sum(ell: float, term_fn, log_env, tol, cap: int, charge: bool = True):
    """Sum over n >= 1 of term_fn's terms, certified within cap terms:
    (sum, its tail bound plus its rounding).

    term_fn(n) -> (terms, bounds on |x d/dx| of each in its argument x,
    on their sizes, on their own errors in eps); log_env(n) -> log of a
    bound with |term(m)| <= env(n) e^{-(m-n) ell/2} for m >= n. Cuts again
    while tol of the sum is below the target, or the tail and the rounding
    (the argument's and _rounding's) exceed tol. With charge False the
    tail alone must meet tol, and the caller counts a rounding measured
    tight: each block's np.sum against fsum."""
    target = tol(math.exp(log_env(1)))
    total = slope = mass = own = drift = 0.0
    n0, blocks = 1, 0
    while True:
        ncut = tail_cut(log_env, ell, target, cap)
        while n0 <= ncut:
            n1 = min(ncut, n0 + _BLOCK - 1)
            n = np.arange(n0, n1 + 1, dtype=np.float64)
            terms, slopes, sizes, errors = term_fn(n)
            part = float(terms.sum())
            if not charge and math.isfinite(part):
                drift += abs(part - math.fsum(terms))
            total += part
            slope += float(slopes.sum())
            mass += float(sizes.sum())
            own += float(errors.sum())
            n0, blocks = n1 + 1, blocks + 1
        if not math.isfinite(total):
            raise TruncationBudgetError(f"series terms overflow a double (length {ell})")
        if tol(total) < target:
            target = tol(total)
            continue
        n, parts = (min(ncut, _BLOCK), blocks) if charge else (1, blocks + 1)
        rounding = _ARG_ROUNDING * slope + drift + _rounding(mass, n, own / (mass or 1.0), parts)
        charged = rounding if charge else 0.0
        tail = math.exp(log_env(ncut + 1)) / -math.expm1(-0.5 * ell)
        if tail + charged <= tol(total):
            return total, tail + rounding
        if charged >= tol(total):
            raise TruncationBudgetError(f"argument rounding plus the sum's, {rounding:.3e}, "
                                        f"exceeds tolerance {tol(total):.3e} (length {ell})")
        target = tol(total) - charged


def _j_envelope(nu: float, x: float) -> float:
    """Bound on |J_nu(y)| for all y >= x > 0, non-increasing in x (nu >= 1/2)."""
    if nu <= 0.5:
        return min(1.0, math.sqrt(2.0 / (math.pi * x)))
    return min(1.0, _LANDAU_NU * nu ** (-1.0 / 3.0), _LANDAU_X * x ** (-1.0 / 3.0))


class _BesselSeries:
    """The per-length sums S(ell) of G_w(T) at one (w, a = T - 1/4 > 0)."""

    def __init__(self, w: float, a: float, policy: TruncationPolicy):
        self.policy, self.w, self.a = policy, w, a
        self.pref = gamma(w + 1.0) / math.sqrt(16.0 * math.pi)  # first: it refuses huge w
        self.sa = math.sqrt(a)
        self.nu = w + 0.5
        self.log_phi0 = self.nu * math.log(a) - math.lgamma(self.nu + 1.0)
        if self.log_phi0 > _LOG_DBL_MAX:
            raise TruncationBudgetError(
                f"phi0 = a^nu/Gamma(nu+1) overflows a double (w = {w}, a = {a})")
        self.phi0 = math.exp(self.log_phi0)
        self.spherical = int(w) if w.is_integer() else None

    def terms(self, ell: float, n):
        """(ell g(n ell), bounds on its |x d/dx| at x = n ell sqrt(a), on its size
        and on its own error in eps), vectorized.

        The size is J's _J_ULPS scale times the other factors, the error
        _j_ulps of it plus, of the term, 1 + (|log nl2| + nl2)/2 for
        e^{-log_sinh(nl2)} and the product, and the power's (or phi0's),
        pinned against mpmath by the tests. Where the power could overflow
        or J_nu underflow, phi is phi0 times the ascending series.
        """
        nl2 = 0.5 * ell * n
        x = 2.0 * nl2 * self.sa
        coef = ell * np.exp(-log_sinh(nl2))
        log_sa, log_nl2 = math.log(self.sa), np.log(nl2)
        nu1 = self.nu + 1.0
        ulps = (_j_ulps(self.nu) + 1.0 + self.nu * (0.625 + abs(log_sa))
                + (0.5 + self.nu) * np.abs(log_nl2) + 0.5 * nl2)
        with np.errstate(over="ignore", divide="ignore"):
            slope = self.phi0 / (2.0 * nu1) * x * x
            landau = np.minimum(min(1.0, _LANDAU_NU * nu1 ** (-1.0 / 3.0)), _LANDAU_X / np.cbrt(x))
            if self.nu * (log_sa - math.log(float(np.min(nl2)))) <= _LOG_POWER_MAX + min(
                    0.0, self.log_phi0):
                power = np.exp(self.nu * (log_sa - log_nl2))
                slope = np.minimum(slope, power * x * landau)
                bessel, slope = self._bessel(x), coef * slope
                coef *= power
                size = coef * self._scale(bessel, x)
                return coef * bessel, slope, size, size * ulps
            near = x * x <= 2.0 * (self.nu + 1.0)
            far = ~near
            phi = np.empty_like(x)
            power = np.exp(self.nu * (log_sa - log_nl2[far]))
            bessel = self._bessel(x[far])
            phi[far] = power * bessel
            phi[near] = self.phi0 * ascending_series(self.nu, x[near])
            slope[far] = np.minimum(slope[far], power * x[far] * landau[far])
            size = coef * np.abs(phi)
            size[far] = coef[far] * power * self._scale(bessel, x[far])
            return coef * phi, coef * slope, size, size * (ulps + self.phi0_ulps())

    def phi0_ulps(self) -> float:
        """phi0's error in eps: eps/2 of its exponent's parts three times, and e^."""
        return 1.5 * (self.nu * abs(math.log(self.a)) + abs(math.lgamma(self.nu + 1.0))) + 1.0

    def _scale(self, bessel, x):  # |J|, and its envelope past the turning region (_J_ULPS)
        if self.w == 0.0:  # the sine errs relative to |J|
            return np.abs(bessel)
        envelope = np.maximum(np.abs(bessel), np.minimum(1.0, np.sqrt(2.0 / np.pi / x)))
        return np.where(x > self.w, envelope, np.abs(bessel))

    def _bessel(self, x):
        if self.spherical is not None:
            return bessel_j_half(self.spherical, x)
        return bessel_j(self.nu, x)

    def length_sum(self, ell: float) -> float:
        """S(ell) by the expansion route where it certifies, else directly."""
        route = self.expansion(ell)
        if route is not None and route[1] <= self._tol(route[0]) < math.inf:
            return route[0]
        return self.direct(ell)[0]

    def _tol(self, s: float) -> float:
        """Tolerance on S: abs_tol bounds the error of pref S, not of S,
        which is tiny at large w."""
        return self.policy.tol(self.pref * s) / self.pref

    def direct(self, ell: float, tol=None, charge: bool = True):
        """S(ell) summed term by term to tol(S) (default _tol), as _series_sum
        returns it; raises TruncationBudgetError past max_terms."""
        nu, sa, log_phi0 = self.nu, self.sa, self.log_phi0

        def log_env(n):
            # |phi| <= phi0 on the reals, and past that the Bessel envelope
            nl2 = 0.5 * ell * n
            return math.log(ell) - log_sinh(nl2) + min(
                log_phi0, nu * math.log(sa / nl2) + math.log(_j_envelope(nu, 2.0 * nl2 * sa)))

        return _series_sum(ell, lambda n: self.terms(ell, n), log_env, tol or self._tol,
                           self.policy.max_terms, charge)

    def expansion(self, ell: float):
        """(S(ell), stated error bound) at the smallest order K whose bound
        meets tol(S), else at K = J; None where the route cannot run: where
        _may_certify rules the length out, before anything is built, or where
        R's direct sum certifies at no ell0."""
        log_ell = math.log(ell)
        if not self._may_certify(ell, log_ell):
            return None
        e = _expansion(self.w, self.a, self.policy)
        if e is None:
            return None
        c, r, r_bound, b, b_mass, log_rem, rate = e
        pole = -c[0] * (math.log(-math.expm1(-ell)) + 0.5 * ell)
        s = pole + r
        size = abs(pole) + abs(r)  # of the terms summed so far, for their rounding
        rounding, power = r_bound, 1.0
        for k in range(1, _LAURENT_TERMS + 1):
            power *= ell * ell
            term = b[k - 1] * power
            s -= term
            size += abs(term)
            rounding += b_mass[k - 1] * power
            bound = _exp(log_rem[k - 1] + 2 * k * log_ell) + rounding + rate * size
            if bound <= self._tol(s):
                break
        return s, bound

    def _may_certify(self, ell: float, log_ell: float) -> bool:
        """False where, by the closed-form lower bound on E_K ell^2K of the
        module docstring, no order can meet the tolerance of the envelope of
        |S(ell)|."""
        ceiling = self._tol(_s_max(self.phi0, ell))
        base, log_3sa, six_sa = self.log_phi0 + _LOG_2, math.log(3.0 * self.sa), 6.0 * self.sa
        for m, log_b, inner in _GATE_ORDERS:  # m = 2K - 1
            # e^{3 sqrt(a) r} r^{-m} at r = m/(3 sqrt(a)), or at r = 2 past it
            x = inner + m * log_3sa if m <= six_sa else six_sa - m * _LOG_2
            if _exp(log_b + x + base + (m + 1) * log_ell) <= ceiling:
                return True
        return False


def _s_max(phi0: float, ell: float) -> float:
    """phi0 (ell/sinh(ell/2) + 2 log coth(ell/4)) >= phi0 sum_n ell/sinh(n ell/2) >= |S(ell)|."""
    return phi0 * (ell * math.exp(-log_sinh(0.5 * ell)) + 2.0 * _log_coth(0.25 * ell))


@lru_cache(maxsize=128)
def _expansion(w: float, a: float, policy: TruncationPolicy):
    """(c_0..c_J, R, bound on R, b_1..b_J, their rounding bounds, log E_1..E_J,
    rounding per unit size of the terms pole, R and b_k ell^2k), b_k =
    (B_2k/2k)(c_k - c_0/(2k)!), |R_K| <= E_K ell^2K; None when R's direct
    sum certifies at no ell0. Pure, so one build serves every call. Each
    sum here adds at most J + 2 terms in turn, off by phi0's error, by the
    recurrence's 2 eps a step, or by the k + 1 roundings of ell^2k."""
    series = _BesselSeries(w, a, policy)
    sa, nu, phi0, log_phi0 = series.sa, series.nu, series.phi0, series.log_phi0
    J, u0 = _LAURENT_TERMS, series.phi0_ulps()
    rate = _rounding(1.0, 1, u0 + J / 2 + 3.0, J + 2)

    # c_j, and the absolute size of the alternating sum behind it
    p = [phi0]
    for m in range(1, J + 1):
        p.append(p[-1] * (-0.25 * a) / (m * (m + nu)))
    products = [[p[m] * _CSCH[j - m] for m in range(j + 1)] for j in range(J + 1)]
    c = [2.0 * sum(t) for t in products]
    mass = [2.0 * sum(map(abs, t)) for t in products]

    b, b_mass = [], []
    for k, (num, den) in enumerate(_BERNOULLI, 1):
        tail = c[0] / math.factorial(2 * k)
        factor = num / (den * 2 * k)
        b.append(factor * (c[k] - tail))
        # the k + 1 products behind c_k and c_0's tail, added in turn
        b_mass.append(_rounding(abs(factor) * (mass[k] + tail), 1,
                                u0 + 2 * k + 4, k + 2))

    # bracket(r)/phi0 of the Cauchy estimate, over the radius grid (c_0 = 2 phi0)
    log_brackets = []
    for rc in _CAUCHY_RADII:
        h_max = _exp(3.0 * sa * rc) / math.sin(1.5 * rc) + 2.0 * math.exp(3.0 * rc) / (3.0 * rc)
        bracket = (2.0 * rc * h_max + 2.0 * _exp(sa * rc) * _log_coth(0.25 * rc)
                   + 2.0 * math.exp(-rc) * math.log1p(1.0 / rc))
        log_brackets.append((math.log(rc), math.log(bracket)))
    log_rem = tuple(
        math.log(abs(num / den)) + log_phi0 + min(lb - 2 * k * lr for lr, lb in log_brackets)
        for k, (num, den) in enumerate(_BERNOULLI, 1))

    # R = S(ell0) + c_0 log(1 - e^-ell0) + c_0 ell0/2 + sum_k b_k ell0^2k - R_K(ell0),
    # at the largest ell0 = 2^-m >= 2^-12 whose E_K ell0^2K is a share of tol(R).
    # No sum is run where that share misses even the tolerance of |offset|
    # plus phi0 sum_n ell0/sinh(n ell0/2) >= |S(ell0)|.
    if phi0 == 0.0:  # g underflows, and so R
        return (tuple(c), 0.0, 0.0, tuple(b), tuple(b_mass), log_rem, rate)
    ell0 = 0.25
    while ell0 >= _ELL0_MIN:
        e, order = min((_exp(lr + 2 * k * math.log(ell0)), k) for k, lr in enumerate(log_rem, 1))
        powers = [ell0 ** (2 * k) for k in range(1, order + 1)]
        pole = c[0] * (math.log(-math.expm1(-ell0)) + 0.5 * ell0)
        offset = pole + sum(bk * pk for bk, pk in zip(b, powers))
        if e <= _R_SHARE * series._tol(abs(offset) + _s_max(phi0, ell0)):
            try:
                s, err = series.direct(
                    ell0, lambda t: _R_SHARE * series._tol(t + offset), charge=False)
            except TruncationBudgetError:
                return None
            if e <= _R_SHARE * series._tol(s + offset):
                # the b_k ell0^2k added in turn, the pole part's own error, and
                # the two additions that make offset and R
                small = sum(abs(bk * pk) for bk, pk in zip(b, powers))
                err += (e + sum(m * pk for m, pk in zip(b_mass, powers))
                        + _rounding(small, 1, order / 2 + 1.0, order)
                        + _rounding(abs(pole), 1, u0 + 2.5)
                        + _rounding(abs(s) + abs(pole) + small, 1, 0.0, 3))
                return (tuple(c), s + offset, err, tuple(b), tuple(b_mass), log_rem, rate)
        ell0 *= 0.5
    return None


def g_bessel(ps, w: float, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The degeneration counting series G_w(T); zero for T <= 1/4."""
    ps = PinchingSet.of(ps)
    w = _check(w, "weight")
    T = _check(T, "threshold")
    a = T - 0.25
    if a <= 0.0:
        return 0.0
    series = _BesselSeries(w, a, policy)
    g = series.pref * sum(series.length_sum(ell) for ell in ps.ells)
    if not math.isfinite(g):
        raise TruncationBudgetError(f"G_{w}({T}) overflows a double")
    return g


def g_limit(w: float, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """R_w(T), the limit of G_w(T) - c_w(T) log(1/ell) for one length ell -> 0.

    Certified to policy.tol(R), else TruncationBudgetError; zero at T = 1/4.
    Near a zero of R the rounding of its sums, whose terms are far larger
    than R, passes tol(R), and it raises, g_expansion with it: at w = 0.7
    for T in [12.3262, 12.3271], at w = 2 in [21.3020, 21.3038]. g_bessel
    still certifies there, its tolerance relative to G.
    """
    w = _check(w, "weight")
    T = _check(T, "threshold")
    if T < 0.25:
        raise DomainError(f"g_limit requires T >= 1/4, got {T}")
    if T == 0.25:
        return 0.0
    series = _BesselSeries(w, T - 0.25, policy)
    e = _expansion(w, series.a, policy)
    if e is None:
        raise TruncationBudgetError(
            "g_limit: R's direct sum certifies at no length from 1/4 to 2^-12")
    _, r, r_bound, *_ = e
    if not r_bound <= series._tol(r) < math.inf:
        raise TruncationBudgetError(
            f"g_limit bound {series.pref * r_bound:.3e} exceeds tolerance at value "
            f"{series.pref * r:.6g}")
    return series.pref * r


def g_expansion(w: float, T: float, order: int,
                policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[float, ...]:
    """(L, a_0, ..., a_order) with G_w(T) ~ L log(1/ell) + sum_j a_j ell^2j
    for one length: L = pref c_0 = c_weight(w, T), a_0 = g_limit(w, T)
    (certified as it is) and a_j = -pref c_j B_2j/(2j), order <= 24.

    The series is asymptotic, its terms growing like (2j)! (ell/(4
    pi^2))^2j; g_bessel's expansion route bounds each truncation.
    """
    if not (isinstance(order, int) and 0 <= order <= _LAURENT_TERMS):
        raise DomainError(f"order must be an integer in [0, {_LAURENT_TERMS}], got {order!r}")
    a0 = g_limit(w, T, policy)
    if float(T) == 0.25:
        return (0.0,) * (order + 2)
    series = _BesselSeries(float(w), float(T) - 0.25, policy)
    c = _expansion(series.w, series.a, policy)[0]
    out = (series.pref * c[0], a0) + tuple(
        -series.pref * c[j] * num / (den * 2 * j)
        for j, (num, den) in enumerate(_BERNOULLI[:order], 1))
    if not all(map(math.isfinite, out)):
        raise TruncationBudgetError(f"expansion coefficients of G_{w}({T}) overflow a double")
    return out


def g_sine_form(ps, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Weight-zero collapse of g_bessel: as J_{1/2}(x) = sqrt(2/(pi x)) sin x,
    (1/2 pi) sum_{n>=1} sum_k sin(n ell_k sqrt(a)) / (n sinh(n ell_k/2)),
    always summed term by term: an independent check on both routes."""
    ps = PinchingSet.of(ps)
    T = _check(T, "threshold")
    if T < 0.25:
        raise DomainError(f"g_sine_form requires T >= 1/4, got {T}")
    a = T - 0.25
    if a == 0.0:
        return 0.0
    sa = math.sqrt(a)

    def one_length(ell: float) -> float:
        def terms(n):  # and |x cos x|/(n sinh(n ell/2)) at x = n ell sqrt(a)
            c = np.exp(-log_sinh(0.5 * ell * n))
            t = np.sin(n * ell * sa) / n * c
            # off as a direct term's 1/sinh at worst in the block, and by the sine and quotient
            lo, hi, size = 0.5 * ell * float(n[0]), 0.5 * ell * float(n[-1]), np.abs(t)
            ulps = 2.0 + 0.5 * (max(abs(math.log(lo)), abs(math.log(hi))) + hi)
            return t, ell * sa * c, size, ulps * size

        def log_env(n):  # |sin y| <= min(1, y)
            return math.log(min(1.0 / n, ell * sa)) - log_sinh(0.5 * ell * n)

        return _series_sum(ell, terms, log_env, policy.tol, policy.max_terms)[0]

    return sum(one_length(ell) for ell in ps.ells) / (2.0 * math.pi)


def g_residual(ps, w: float, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """O(1) remainder g_bessel(ps, w, T) - c_weight(w, T) * sum_k log(1/ell_k).

    Requires every pinching length below 1 (the log-sum normalizer must
    be positive) and T >= 1/4.
    """
    ps = PinchingSet.of(ps)
    if any(ell >= 1.0 for ell in ps.ells):
        raise DomainError("g_residual requires all pinching lengths < 1")
    w = _check(w, "weight")
    if T < 0.25:
        raise DomainError(f"g_residual requires T >= 1/4, got {T}")
    return g_bessel(ps, w, T, policy) - c_weight(w, T) * ps.log_sum


def sandwich_check(
    sd: SpectralData, w: float, T: float, eps: float
) -> tuple[float, float, float]:
    """Difference-quotient sandwich of the counting recursion.

    Returns (N_w(T), [N_{w+1}(T+eps) - N_{w+1}(T)] / [eps (w+1)],
    N_w(T+eps)) and verifies the non-decreasing ordering; the middle
    term is an average of N_w over [T, T+eps], so monotonicity pins it
    between the endpoints.
    """
    if not eps > 0.0:
        raise DomainError(f"sandwich_check requires eps > 0, got {eps}")
    w = _check(w, "weight")
    lo = counting_direct(sd, w, T)
    hi = counting_direct(sd, w, T + eps)
    mid = (
        counting_direct(sd, w + 1.0, T + eps) - counting_direct(sd, w + 1.0, T)
    ) / (eps * (w + 1.0))
    slack = 1e-12 * max(1.0, abs(lo), abs(mid), abs(hi))
    if not (lo <= mid + slack and mid <= hi + slack):
        raise PinchtraceError(
            f"sandwich ordering violated: {lo} <= {mid} <= {hi} fails"
        )
    # rounding in the difference quotient can land mid an ulp outside the
    # bracket; the slack check above vouched for it, so pin the ordering
    mid = min(max(mid, lo), hi)
    return (lo, mid, hi)

