"""Weighted counting functions and the degeneration Bessel series.

The direct count of an eigenvalue list is N_w(T) = sum_{lambda <= T}
m(lambda) (T - lambda)^w, 0^0 = 1. Its degenerating-surface analogue is

    G_w(T) = Gamma(w+1)/(16 pi)^{1/2}
             * sum_{n>=1} sum_k ell_k/sinh(n ell_k/2)
               * (sqrt(a)/(n ell_k/2))^{w+1/2} J_{w+1/2}(n ell_k sqrt(a))

with a = T - 1/4, zero for T <= 1/4. As the lengths pinch, G_w(T) =
c_w(T) sum_k log(1/ell_k) + O(1): c_weight, g_residual, its limit per
length g_limit, and g_expansion in powers of ell^2. c_weight and the
direct count live in the numpy-free module closed.

With nu = w + 1/2, phi(x) = (2 sqrt(a)/x)^nu J_nu(sqrt(a) x) and
g(x) = phi(x)/sinh(x/2), a length contributes pref S(ell), pref =
Gamma(w+1)/(16 pi)^{1/2}, S(ell) = sum_{n>=1} ell g(n ell). phi is even
and entire, |phi(z)| <= phi0 e^{sqrt(a) |Im z|} with phi0 = a^nu/Gamma(nu+1),
and |sinh(z/2)| >= sinh(Re z/2). S(ell) is certified to tol(S) =
policy.tol(pref S)/pref by the expansion route where its bound meets
tol(S); the lengths it does not serve take the direct route together,
their joint S certified to tol of it.

Direct route. One specfun._Collar sum, whose term n of a length is at most
ell e^{-G(n ell)}, e^{-G(x)} = min(phi0, (2 sqrt(a)/x)^nu B(x
sqrt(a)))/sinh(x/2), B(x) = min(1, sqrt(2/(pi x))) for nu = 1/2, else
min(1, 0.674886 nu^{-1/3}, 0.785747 x^{-1/3}) (Landau, J. London Math.
Soc. 61, 2000); in g_sine_form e^{-G(x)} = min(1/x, sqrt(a))/sinh(x/2),
as |sin y| <= min(1, y). Rounding x = n ell sqrt(a) (2^-51 relative)
moves a term by at most 2^-51 ell/sinh(n ell/2) min(phi0 x^2/(2 nu + 2),
(2a/x)^nu x B_{nu+1}(x)), as x d/dx (x^-nu J_nu) = -x^-nu x J_{nu+1}.
That and the sum's rounding (specfun._rounding, with the kernel's
_J_ULPS and the factors' errors) join the tail; a sum raises where they
alone exceed the tolerance (at w = 0 from about T = 1e12, ell = 0.05).
The collar cuts and sums; _direct charges them, a priori first: a term's
|x d/dx| and size are within factors of its envelope fixed by the largest
n ell sqrt(a), its own error within the ulps at the ends of the n ell
range, and the collar's geometric mass sum_k ell_k e^{-G(ell_k)}/(1 -
e^{-ell_k/2}) bounds the envelopes' sum. Once that misses half the room
left by the tail (a cancelling sum at large T), and in the tests' oracle,
the per-term bounds serve; the value and the cut are theirs either way.
R's sum is cut on its tail alone, then charged per term.

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

These depend only on (w, T, policy): one cached _BesselSeries per triple
holds them, its table (c_j, b_k, their rounding bounds and log E_K) built
on first use and R summed on first need. A length then costs O(K) float
operations, K the least order whose bounds meet tol(S), and one
certification: where no order's bound meets it, the direct route serves.
Its gate is one comparison, ell <= ell_star. Where E_K ell^2K misses, at
every order, the tolerance of phi0 (ell/sinh(ell/2) + 2 log coth(ell/4))
>= |S(ell)|, no order can certify, so the length takes the direct route
and R is not summed for it. Each E_K ell^2K rises with ell and that
tolerance does not, so the lengths the gate passes are those up to
ell_star, which the table finds once, in about eight evaluations of the
24-order test: secant steps on log ell, then steps of an ulp. Where R's sum
misses max_terms the direct route serves too. R_K grows like (ell
sqrt(a)/pi)^2K, so the route certifies up to ell of about 0.4 at T = 1,
0.3 at T = 5, 0.12 at T = 100, and none past T = 1e7.
"""

from __future__ import annotations

import math
import struct
from functools import cached_property, lru_cache

import numpy as np

from .closed import _check, c_weight, counting_direct, gamma
from .errors import DomainError, PinchtraceError, TruncationBudgetError
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import (
    _BLOCK, _Collar, _j_ulps, _rounding, ascending_series, bessel_j, bessel_j_half, log_sinh,
)
from .spectrum import PinchingSet, SpectralData

__all__ = ["g_bessel", "g_sine_form", "g_residual", "g_limit", "g_expansion", "sandwich_check"]

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
_ELL_TINY = 1.2e-308  # _s_max's closed form overflows below about 1.1e-308
_SECANT_STEPS = 8  # ell_star's secant steps before the gate's own search
_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")
_BITS_INF = 0x7FF0000000000000  # inf's bits: a positive double's bits order as it does

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


def _exp(x: float) -> float:
    """e^x, inf where it passes a double: for bounds that then fail to certify."""
    return math.exp(x) if x <= _LOG_DBL_MAX else math.inf


def _bits(x: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _double(bits: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


def _log_coth(y: float) -> float:
    return math.log1p(math.exp(-2.0 * y)) - math.log(-math.expm1(-2.0 * y))


def _direct(ells, terms, env, tol, cap: int, charge: bool = True, bounds=None):
    """The _Collar sum over the lengths ells, weights ell, of terms(ell, n) ->
    (terms, a call that gives bounds on |x d/dx| of each in its argument x,
    on their sizes, on their own errors in eps), charged the argument's
    rounding and np.sum's of each block; or (charge False) cut on the tail
    alone, then charged the argument's rounding, the terms' own errors, each
    block's np.sum against fsum and the additions of the blocks.

    With bounds(x_lo, x_hi) -> (slope, size, ulps), or None, a charged sum
    charges first a priori: where each term with n ell in [x_lo, x_hi] has its
    |x d/dx| and size within slope and size times its envelope ell e^{-G(n ell)},
    and its own error within ulps eps of its size, the collar's geometric mass
    bounds their sums. Once that misses half the room (at once, bounds None),
    the per-term charge serves; its arrays are built in block order, deferred
    for one block of terms at most, and the value and cut are its either way."""
    deferred, held, blocks = [], 0, 0  # the calls yet to make, their terms, the blocks summed
    slope = mass = own = drift = 0.0  # the per-term sums of the calls made, the fsum drift
    missed = bounds is None  # once set, the per-term charge serves

    def block(n, ell, _):
        nonlocal held, blocks, drift
        t, rest = terms(ell, n)
        part = float(t.sum())
        if not charge and math.isfinite(part):
            drift += abs(part - math.fsum(t))
        deferred.append(rest)
        held, blocks = held + n.size, blocks + 1
        if held > _BLOCK:
            settle()
        return part

    def settle():
        nonlocal held, slope, mass, own
        for rest in deferred:
            slopes, sizes, errors = (float(a.sum()) for a in rest())
            slope, mass, own = slope + slopes, mass + sizes, own + errors
        deferred.clear()
        held = 0

    def per_term(n, parts):
        settle()
        return _ARG_ROUNDING * slope + drift + _rounding(mass, n, own / (mass or 1.0), parts)

    def rounding(cuts, sizes, room):
        nonlocal missed
        if not charge:
            return 0.0
        if not missed:
            factors = bounds(collar.ell0, float((cuts * collar.ell).max()))
            if factors is not None:
                arg, size, ulps = factors
                r = (_ARG_ROUNDING * arg * collar.mass
                     + _rounding(size * collar.mass, max(sizes), ulps, len(sizes)))
                if r <= 0.5 * room:
                    return r
            missed = True
        return per_term(max(sizes), len(sizes))

    ell = np.array(sorted(ells))
    collar = _Collar(ell, ell, env)  # where every term's bound underflows, so does the sum
    if collar.log_w == -math.inf:
        return 0.0, 0.0
    total, bound = collar.sum(block, tol, rounding, cap)
    return total, bound if charge else bound + per_term(1, blocks + 1)


def _j_envelope(nu: float, x):
    """Bound on |J_nu(y)| for all y >= x > 0, non-increasing in x (nu >= 1/2);
    x a float or an array."""
    if isinstance(x, float):
        if nu <= 0.5:
            return min(1.0, math.sqrt(2.0 / (math.pi * x)))
        return min(1.0, _LANDAU_NU * nu ** (-1.0 / 3.0), _LANDAU_X * x ** (-1.0 / 3.0))
    if nu <= 0.5:
        return np.minimum(1.0, np.sqrt(2.0 / (math.pi * x)))
    return np.minimum(min(1.0, _LANDAU_NU * nu ** (-1.0 / 3.0)), _LANDAU_X / np.cbrt(x))


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
        """(ell g(n ell), a call that gives bounds on its |x d/dx| at x = n ell
        sqrt(a), on its size and on its own error in eps), vectorized.

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
        with np.errstate(over="ignore", divide="ignore"):
            if self.nu * (log_sa - math.log(float(np.min(nl2)))) <= _LOG_POWER_MAX + min(
                    0.0, self.log_phi0):
                power = np.exp(self.nu * (log_sa - log_nl2))
                bessel, scaled = self._bessel(x), coef * power
                t = scaled * bessel

                def rest():
                    with np.errstate(over="ignore", divide="ignore"):
                        slope = np.minimum(self.phi0 / (2.0 * nu1) * x * x,
                                           power * x * _j_envelope(nu1, x))
                        size = scaled * self._scale(bessel, x)
                    return coef * slope, size, size * self._ulps(log_nl2, nl2)
            else:
                near = x * x <= 2.0 * (self.nu + 1.0)
                far = ~near
                phi = np.empty_like(x)
                power = np.exp(self.nu * (log_sa - log_nl2[far]))
                bessel = self._bessel(x[far])
                phi[far] = power * bessel
                phi[near] = self.phi0 * ascending_series(self.nu, x[near])
                t = coef * phi

                def rest():
                    with np.errstate(over="ignore", divide="ignore"):
                        slope = self.phi0 / (2.0 * nu1) * x * x
                        slope[far] = np.minimum(slope[far],
                                                power * x[far] * _j_envelope(nu1, x[far]))
                        size = coef * np.abs(phi)
                        size[far] = coef[far] * power * self._scale(bessel, x[far])
                    return (coef * slope, size,
                            size * (self._ulps(log_nl2, nl2) + self.phi0_ulps()))
        return t, rest

    def _ulps(self, log_nl2, nl2):
        """The error in eps of a term at nl2 = n ell/2, relative to its size, but phi0's."""
        return (_j_ulps(self.nu) + 1.0 + self.nu * (0.625 + abs(math.log(self.sa)))
                + (0.5 + self.nu) * abs(log_nl2) + 0.5 * nl2)

    def charges(self, x_lo: float, x_hi: float):
        """(slope, size, ulps) of _direct's a priori charge on the terms with n ell
        in [x_lo, x_hi], None where terms takes the ascending series. At X = n ell
        sqrt(a), a term's |x d/dx| is at most X^2/(2 nu + 2) times its envelope
        where that is phi0, so below X = 2 Gamma(nu + 1)^(1/nu), and else at most
        X max(1, X^1/6) times it, as B_{nu+1} <= B_nu (at nu = 1/2, <= X^1/6 B_nu). Its
        size is at most the envelope at w = 0 and at X <= w; past that, with
        m(X) = min(1, sqrt(2/(pi X))) and X' = max(w, the least X), at most
        max(m(X)/B_nu(X) <= max(1.1, m(X') nu^1/3/0.674886), (2/X')^nu Gamma(nu+1))
        times it. Its own error is at most terms' ulps at an end."""
        lo, hi, nu = 0.5 * x_lo, 0.5 * x_hi, self.nu
        if nu * (math.log(self.sa) - math.log(lo)) > _LOG_POWER_MAX + min(0.0, self.log_phi0):
            return None
        top = x_hi * self.sa
        turn = min(top, 2.0 * math.exp(math.lgamma(nu + 1.0) / nu))
        slope = max(turn * turn / (2.0 * nu + 2.0), top * max(1.0, top ** (1.0 / 6.0)))
        size = 1.0
        if self.w > 0.0:
            least = max(self.w, x_lo * self.sa)
            size = max(1.1, min(1.0, math.sqrt(2.0 / (math.pi * least))) * nu ** (1.0 / 3.0)
                       / _LANDAU_NU, _exp(nu * math.log(2.0 / least) + math.lgamma(nu + 1.0)))
        return slope, size, max(self._ulps(math.log(lo), lo), self._ulps(math.log(hi), hi))

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

    def _tol(self, s: float) -> float:
        """Tolerance on S: abs_tol bounds the error of pref S, not of S,
        which is tiny at large w."""
        return self.policy.tol(self.pref * s) / self.pref

    def envelope(self, x):
        """G(x) of the module docstring: term n of a length ell is at most ell e^{-G(n ell)}."""
        h, nu, sa = 0.5 * x, self.nu, self.sa
        if isinstance(x, float):
            bessel = _j_envelope(nu, x * sa)
            if bessel == 0.0:  # x sqrt(a) overflows: so would G
                return math.inf
            return log_sinh(h) - min(self.log_phi0, nu * math.log(sa / h) + math.log(bessel))
        return log_sinh(h) - np.minimum(self.log_phi0, nu * np.log(sa / h)
                                        + np.log(_j_envelope(nu, x * sa)))

    def expansion(self, ell: float):
        """(S(ell), stated error bound) at the smallest order K whose bound
        meets tol(S); None where no order's does, where ell > ell_star (before
        R is summed), or where R's direct sum certifies at no ell0."""
        if ell > self.ell_star or self.constant is None:
            return None
        c, _, _, _, rate = self.table
        r, r_bound = self.constant
        pref, rel_tol, abs_tol = self.pref, self.policy.rel_tol, self.policy.abs_tol
        log_ell, ell2 = math.log(ell), ell * ell
        pole = -c[0] * (math.log(-math.expm1(-ell)) + 0.5 * ell)
        s = pole + r
        size = abs(pole) + abs(r)  # of the terms summed so far, for their rounding
        rounding, power = r_bound, 1.0
        for b, b_mass, log_rem, two_k in self.orders:
            power *= ell2
            term = b * power
            s -= term
            size += abs(term)
            rounding += b_mass * power
            log_e = log_rem + two_k * log_ell
            remainder = math.exp(log_e) if log_e <= _LOG_DBL_MAX else math.inf  # _exp, inline
            bound = remainder + rounding + rate * size
            tol = (rel_tol * abs(pref * s) + abs_tol) / pref  # self._tol(s), inline
            if bound <= tol:
                return (s, bound) if tol < math.inf else None
        return None

    def _gate(self, ell: float):
        """(whether some order's E_K ell^2K meets the tolerance of the envelope
        phi0 (ell/sinh(ell/2) + 2 log coth(ell/4)) >= |S(ell)|, log ell less the
        log of the longest length at which an order meets the tolerance at ell)."""
        log_ell, log_rem = math.log(ell), self.table[3]
        ceiling = self._tol(_s_max(self.phi0, ell))
        passes = any(_exp(lr + 2 * k * log_ell) <= ceiling for k, lr in enumerate(log_rem, 1))
        log_c = math.log(ceiling) if ceiling > 0.0 else -math.inf
        return passes, log_ell - max((log_c - lr) / (2 * k) for k, lr in enumerate(log_rem, 1))

    @cached_property
    def ell_star(self) -> float:
        """The longest length the gate passes (0 where it passes none). Each
        E_K ell^2K rises with ell and the tolerance of the envelope does not, so
        the gate passes exactly the lengths up to it. At a fixed tolerance C,
        order K passes up to (C/E_K)^(1/2K); secant steps on log ell find where
        the longest of those meets the tolerance at ell, to within rounding
        (about five gates), then the gate itself steps to its last pass, in
        doubling then halving steps of one ulp (about three)."""
        lo, hi = 0, _BITS_INF  # the bits of a length known to pass, of one known to fail
        ell, last = 0.25, None
        for _ in range(_SECANT_STEPS):
            passes, gap = self._gate(ell)
            lo, hi = (_bits(ell), hi) if passes else (lo, _bits(ell))
            u = math.log(ell)
            if not math.isfinite(gap) or (last is not None and gap == last[1]):
                break
            step = gap if last is None else gap * (u - last[0]) / (gap - last[1])
            last, ell = (u, gap), math.exp(min(u - step, _LOG_DBL_MAX))
            if not lo < _bits(ell) < hi:  # where the step rounds to a gated length
                break
        up, width = passes, 1  # 1, 2, 4, ... ulps on from the last gate until it turns
        while hi - lo > 1:
            if width:
                bits = min(lo + width, hi - 1) if up else max(hi - width, lo + 1)
            else:
                bits = (lo + hi) // 2
            passed = self._gate(_double(bits))[0]
            lo, hi = (bits, hi) if passed else (lo, bits)
            width = 2 * width if width and passed == up else 0
        return _double(lo)

    @cached_property
    def table(self):
        """(c_0..c_J, b_1..b_J, their rounding bounds, log E_1..E_J, rounding
        per unit size of the terms pole, R and b_k ell^2k), b_k = (B_2k/2k)(c_k
        - c_0/(2k)!), |R_K| <= E_K ell^2K. Each sum here adds at most J + 2
        terms in turn, off by phi0's error, by the recurrence's 2 eps a step,
        or by the k + 1 roundings of ell^2k."""
        a, sa, nu, phi0, log_phi0 = self.a, self.sa, self.nu, self.phi0, self.log_phi0
        J, u0 = _LAURENT_TERMS, self.phi0_ulps()
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
        return tuple(c), tuple(b), tuple(b_mass), log_rem, rate

    @cached_property
    def orders(self):
        """(b_k, its rounding bound, log E_k, 2k) for k = 1..J, in turn."""
        _, b, b_mass, log_rem, _ = self.table
        return tuple(zip(b, b_mass, log_rem, range(2, 2 * _LAURENT_TERMS + 1, 2)))

    @cached_property
    def constant(self):
        """(R, bound on its error), summed on first need; None where R's direct
        sum certifies at no ell0."""
        # R = S(ell0) + c_0 log(1 - e^-ell0) + c_0 ell0/2 + sum_k b_k ell0^2k - R_K(ell0),
        # at the largest ell0 = 2^-m >= 2^-12 whose E_K ell0^2K is a share of tol(R).
        # No sum is run where that share misses even the tolerance of |offset|
        # plus phi0 sum_n ell0/sinh(n ell0/2) >= |S(ell0)|.
        if self.phi0 == 0.0:  # g underflows, and so R
            return 0.0, 0.0
        c, b, b_mass, log_rem, _ = self.table
        u0 = self.phi0_ulps()
        ell0 = 0.25
        while ell0 >= _ELL0_MIN:
            e, order = min((_exp(lr + 2 * k * math.log(ell0)), k)
                           for k, lr in enumerate(log_rem, 1))
            powers = [ell0 ** (2 * k) for k in range(1, order + 1)]
            pole = c[0] * (math.log(-math.expm1(-ell0)) + 0.5 * ell0)
            offset = pole + sum(bk * pk for bk, pk in zip(b, powers))
            if e <= _R_SHARE * self._tol(abs(offset) + _s_max(self.phi0, ell0)):
                try:
                    s, err = _direct((ell0,), self.terms, self.envelope,
                                     lambda t: _R_SHARE * self._tol(t + offset),
                                     self.policy.max_terms, False)
                except TruncationBudgetError:
                    return None
                if e <= _R_SHARE * self._tol(s + offset):
                    # the b_k ell0^2k added in turn, the pole part's own error, and
                    # the two additions that make offset and R
                    small = sum(abs(bk * pk) for bk, pk in zip(b, powers))
                    err += (e + sum(m * pk for m, pk in zip(b_mass, powers))
                            + _rounding(small, 1, order / 2 + 1.0, order)
                            + _rounding(abs(pole), 1, u0 + 2.5)
                            + _rounding(abs(s) + abs(pole) + small, 1, 0.0, 3))
                    return s + offset, err
            ell0 *= 0.5
        return None


def _s_max(phi0: float, ell: float) -> float:
    """phi0 (ell/sinh(ell/2) + 2 log coth(ell/4)) >= phi0 sum_n ell/sinh(n ell/2) >= |S(ell)|;
    below _ELL_TINY, where 2/ell overflows and ell/4 may round to 0, the bracket is
    at most 2 + 2 log(4/ell) + ell^2/24, and ell^2 underflows."""
    if ell < _ELL_TINY:
        return phi0 * (2.0 + 4.0 * _LOG_2 - 2.0 * math.log(ell))
    return phi0 * (ell * math.exp(-log_sinh(0.5 * ell)) + 2.0 * _log_coth(0.25 * ell))


# one series per (w, a, policy): every call at a (w, T, policy) shares its table and R
_series = lru_cache(maxsize=128)(_BesselSeries)


def g_bessel(ps, w: float, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The degeneration counting series G_w(T); zero for T <= 1/4."""
    ps = PinchingSet.of(ps)
    w = _check(w, "weight")
    T = _check(T, "threshold")
    a = T - 0.25
    if a <= 0.0:
        return 0.0
    series = _series(w, a, policy)
    parts, direct = [], []
    for ell in ps.ells:  # S(ell) by the expansion route where it certifies, else directly
        route = series.expansion(ell)
        if route is None:
            direct.append(ell)
        else:
            parts.append(route[0])
    if direct:
        parts.append(_direct(direct, series.terms, series.envelope, series._tol,
                             policy.max_terms, bounds=series.charges)[0])
    g = series.pref * sum(parts)
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
    series = _series(w, T - 0.25, policy)
    if series.constant is None:
        raise TruncationBudgetError(
            "g_limit: R's direct sum certifies at no length from 1/4 to 2^-12")
    r, r_bound = series.constant
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
    series = _series(float(w), float(T) - 0.25, policy)
    c = series.table[0]
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

    def terms(ell, n):  # and |x cos x|/(n sinh(n ell/2)) at x = n ell sqrt(a)
        nl2 = 0.5 * ell * n
        c = np.exp(-log_sinh(nl2))
        t = np.sin(n * ell * sa) / n * c

        def rest():
            # off as a direct term's 1/sinh at worst in the block, and by the sine and quotient
            lo, hi = (nl2[0], nl2[-1]) if isinstance(ell, float) else (nl2.min(), nl2.max())
            size = np.abs(t)
            return ell * sa * c, size, ulps(float(lo), float(hi)) * size
        return t, rest

    def ulps(lo, hi):  # of a term with n ell/2 in [lo, hi], relative to its size
        return 2.0 + 0.5 * (max(abs(math.log(lo)), abs(math.log(hi))) + hi)

    def env(x):  # |sin y| <= min(1, y): a term is at most ell min(1/x, sqrt(a))/sinh(x/2)
        if isinstance(x, float):
            return log_sinh(0.5 * x) - math.log(min(1.0 / x, sa))
        return log_sinh(0.5 * x) - np.log(np.minimum(1.0 / x, sa))

    def charges(x_lo, x_hi):  # |x cos x| <= max(1, x sqrt(a)) times the envelope
        return max(1.0, x_hi * sa), 1.0, ulps(0.5 * x_lo, 0.5 * x_hi)

    return _direct(ps.ells, terms, env, policy.tol, policy.max_terms,
                   bounds=charges)[0] / (2.0 * math.pi)


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

