"""Gamma and J-Bessel functions of real order p >= -1/2, in numpy.

Half-integer orders p = n + 1/2, the counting series' at integer weights,
are elementary (DLMF 10.49): upward recurrence of the spherical Bessel
function from j_0 = sin x/x and j_1 = (j_0 - cos x)/x for x > n, then
J_{n+1/2}(x) = sqrt(2x/pi) j_n(x); the ascending series, whose terms at
least halve, for x <= n with x^2 <= 2(p + 1); Miller's backward
recurrence in the band between them, empty for n <= 3. Other orders take
the ascending series near 0, Hankel's expansion at mu = p - round(p) and
mu + 1 then upward recurrence where x >= max(25, p), and Miller's
recurrence, normalized with DLMF 10.23.15, elsewhere; p = -1/2 is
sqrt(2/(pi x)) cos x. No order loads scipy.special. The 50-digit series
oracle and gamma live in the numpy-free module closed.

The module also holds the helpers the other modules share: log_sinh, the
sum over lengths _Collar, whose cut is the one n-cut search of every
geodesic sum, ascending_series, the cached Gauss-Legendre
rule leggauss and its Kronrod extension kronrod, gauss_rule, which sizes
leggauss from a bound on the integrand, and _rounding, the one rounding
model of every certified sum.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add

import numpy as np

from .closed import _check_order, bessel_j_oracle  # read as specfun.bessel_j_oracle
from .errors import DomainError, TruncationBudgetError

__all__ = ["bessel_j", "bessel_j_half"]

_EPS = float(np.finfo(float).eps)
_LOG_2 = math.log(2.0)
_BLOCK = 1 << 19  # terms a _Collar walk evaluates at once, so that its memory stays flat
_SERIES_DROP = 2.0**-56  # terms below this add nothing to a sum in [1/2, 1]
_HANKEL_X = 25.0         # Hankel's expansion reaches eps at orders <= 3/2 from here
_MILLER_LOG_TOP = math.log(2.0**-60)  # Miller starts where J has fallen this far
# bessel_j's error per region, (a, b): (a + b p) eps of |J| or, where x > p - 1/2
# and p != 1/2, of max(|J|, min(1, sqrt(2/(pi x)))), for every x > 0, plus
# 2^-1070 where J is subnormal; the tests pin each against mpmath
_J_ULPS = {"series": (6.0, 0.0), "upward": (4.0, 0.5), "hankel": (4.0, 0.5),
           "miller": (12.0, 1.0 / 6.0)}
# below this x, 2x/pi nears the subnormals and 2/(pi x) overflows: J_{1/2}
# takes the series there, and J_{-1/2} scales x by 2^200 (by 1/4 elsewhere,
# so that pi x stays finite up to the largest double)
_TINY_X = 2.0**-1000


def log_sinh(x):
    """log(sinh x) for x > 0, overflow-free and accurate as x -> 0.

    A Python float takes the scalar math route, an array numpy's.
    """
    if isinstance(x, float):
        return x - _LOG_2 + math.log(-math.expm1(-2.0 * x))
    return x - _LOG_2 + np.log(-np.expm1(-2.0 * x))


def _rounding(mass, n: int, ulps=0.0, parts: int = 1):
    """Bound (ulps + c(n) + (parts - 1)/2) eps mass on the rounding of a sum.

    mass bounds the terms' absolute sum and ulps eps mass their own errors
    (ulps may be an array). np.sum of n terms sums a block of k <= 128 in 8
    lanes that meet in a 3-level tree before its k mod 8 leftovers come one
    by one (k < 8 in turn), and splits a longer run in two, the first part
    a multiple of 8: a term passes floor(k/8) + 2 + k mod 8 additions of a
    block (24 at k = 127) and one a split, and as a split leaves at most
    (k + 15)/2 terms a part, 24 + L need 112 2^L + 15 terms. So at most
    min(n - 1, log2 n + 17.2) additions, each off by eps/2 of its result:
    c(n) is half that, for each part of a complex sum (no deeper) too. Python
    adding up parts such sums (or a BLAS product) adds parts - 1 additions.
    """
    adds = min(n - 1.0, math.log2(max(n, 1)) + 17.2) + parts - 1
    return (ulps + 0.5 * adds) * _EPS * mass


class _Collar:
    """sum_i sum_{n>=1} term(n, ell_i) over lengths ell_i (an ascending array),
    |term(n, ell_i)| <= weight_i e^{-G(n ell_i)}, G = env (floats or arrays)
    with G(x + ell) >= G(x) + ell/2, cut at one x = (N + 1) ell_0: each length
    keeps its terms with n ell < x (one at least where its n = 1 bound does not
    underflow), and the tails add up to at
    most W e^{-G(x)}/(1 - e^{-ell_0/2}), W = sum weight_i (1 - e^{-ell_0/2})/
    (1 - e^{-ell_i/2}) over the lengths whose n = 1 bound does not underflow.
    shell is the n = 1 bounds' sum, mass that of their geometric sums."""

    def __init__(self, ell: np.ndarray, weight: np.ndarray, env):
        self.ell, self.weight, self.env = ell, weight, env
        self.ell0 = ell0 = float(ell[0])
        self.d0 = -math.expm1(-0.5 * ell0)
        if self.d0 == 0.0:  # ell_0/2 underflows: no geometric tail bound is finite
            raise TruncationBudgetError(f"cannot certify tolerance at length {ell0}")
        if ell.size == 1:  # in floats: a one-length call pays for no arrays
            log_w, g = math.log(float(weight[0])), env(ell0)
            self.shell = math.exp(log_w - g)
            self.log_w = log_w if self.shell > 0.0 else -math.inf
            self.mass, self.top = self.shell / self.d0, self.log_w - g
            return
        d = -np.expm1(-0.5 * ell)  # subnormal where ell is: first/d may pass the doubles
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            first = np.exp(np.log(weight) - env(ell))
            self.mass = float((first / d).sum())
        self.live = first > 0.0  # a NaN bound has no share
        w = float((weight * (self.d0 / d))[self.live].sum())
        self.log_w = math.log(w) if w > 0.0 else -math.inf
        self.shell = float(first.sum())
        self.top = self.log_w - env(ell0)  # log W e^{-G(ell_0)}

    def cut(self, target: float, cap: int):
        """(cuts, tail) at the least x = (N + 1) ell_0, N >= 1, with W e^{-G(x)}/
        (1 - e^{-ell_0/2}) <= target: the search runs on the shortest length's
        grid (so one length is cut as on its own), doubling N from a cut known
        to pass, then bisecting (a target that underflows passes a vanishing tail
        only). Raises TruncationBudgetError past cap terms in all."""
        ell0, log_w, env = self.ell0, self.log_w, self.env
        limit = math.log(target * self.d0) if target * self.d0 > 0.0 else -math.inf
        # as G((n + 1) ell_0) >= G(ell_0) + n ell_0/2, this many terms pass;
        # N lies in (lo, n] once n passes
        steps = (self.top - limit) / (0.5 * ell0)
        lo, n = 0, math.ceil(min(steps, cap)) if steps > 1.0 else 1
        while n > cap or log_w - env((n + 1) * ell0) > limit:
            if n >= cap:
                raise TruncationBudgetError(
                    f"cannot certify tolerance within {cap} terms (length {ell0})")
            lo, n = n, min(2 * n, cap)
        while n - lo > 1:
            mid = (lo + n) // 2
            lo, n = (lo, mid) if log_w - env((mid + 1) * ell0) <= limit else (mid, n)
        tail = math.exp(log_w - env((n + 1) * ell0)) / self.d0
        if self.ell.size == 1:
            return np.array([n]), tail
        cuts = np.maximum(np.ceil((n + 1) * (ell0 / self.ell)).astype(int) - 1, self.live)
        if cuts.sum() > cap:
            raise TruncationBudgetError(
                f"cannot certify tolerance within {cap} terms (length {ell0})")
        return cuts, tail

    def blocks(self, lo, hi):
        """(n, ell, weight) of the terms lo_i < n <= hi_i (lo may be 0), lengths in
        order and n ascending, at most _BLOCK a block; ell and weight per term,
        or the one length's floats."""
        count = hi - lo
        if self.ell.size == 1:
            top, w0 = int(hi[0]), float(self.weight[0])
            for n0 in range(top - int(count[0]), top, _BLOCK):
                yield np.arange(n0 + 1.0, min(n0 + _BLOCK, top) + 1.0), self.ell0, w0
            return
        ends = count.cumsum()
        total = int(ends[-1])
        for s in range(0, total, _BLOCK):
            e = min(s + _BLOCK, total)
            # each length's terms in [s, e) of the table, and n less the table index + 1
            k = count if e - s == total else np.clip(ends, s, e) - np.clip(ends - count, s, e)
            n = np.arange(s + 1.0, e + 1.0) + (lo + count - ends).repeat(k)
            yield n, self.ell.repeat(k), self.weight.repeat(k)

    def sum(self, terms, tol, rounding, cap: int, charge: bool = True, cut=None):
        """(total, its tail bound plus its rounding) within tol(total), from
        terms(n, ell, weight) -> a block's (sum, tuple of side sums) and
        rounding(side sums, rounds, block sizes, room = tol less the tail),
        rounds the (from, to) cuts of every round of blocks so far. The
        first cut (or cut, the caller's) is for tol of the n = 1 shell; while
        tol of the sum is smaller, or the tail and the rounding (not charged
        with charge False) pass it, it cuts again, for tol, else for tol less
        the rounding with one more block, and adds the new terms only. Raises
        where that rounding fills tol, or where tol of the sum is not finite."""
        target = tol(self.shell)
        cuts, tail = cut or self.cut(target, cap)
        done, total, side, sizes, rounds = 0, 0.0, (), [], []
        while True:
            rounds.append((done, cuts))
            for block in self.blocks(done, cuts):
                part, more = terms(*block)
                total, side = total + part, tuple(map(add, side, more)) if side else more
                sizes.append(block[0].size)
            limit = tol(total)
            if not math.isfinite(limit):
                raise TruncationBudgetError(f"series terms overflow a double (length {self.ell0})")
            if limit < target:
                target = limit
            else:
                r = rounding(side, rounds, sizes, limit - tail)
                if tail + (r if charge else 0.0) <= limit:
                    return total, tail + r
                r = rounding(side, rounds, sizes + [0], limit - tail) if charge else 0.0
                if not r < limit:
                    raise TruncationBudgetError(
                        f"argument rounding plus the sum's, {r:.3e}, exceeds tolerance "
                        f"{limit:.3e} (length {self.ell0})")
                target = limit - r
            done = cuts
            cuts, tail = self.cut(target, cap)


@lru_cache(maxsize=32)
def leggauss(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Cached and read-only, since every caller shares the same arrays.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=4)
def kronrod(n: int):
    """Nodes, weights and embedded Gauss weights of the (2n+1)-point
    Gauss-Kronrod rule on [-1, 1], exact for degree 3n + 1 at even n.

    Laurie's algorithm (Math. Comp. 66, 1997), as in Gautschi's r_kronrod,
    extends the Legendre recurrence (a_k = 0, as for every symmetric
    weight, b_0 = 2 and b_k = k^2/(4k^2 - 1)) to the Jacobi-Kronrod matrix,
    whose eigenvalues are the nodes. Every other node is a Gauss node:
    those are leggauss(n)'s own, and its weights, 0 at the other n + 1
    nodes, make the third array, so that sum is leggauss(n)'s rule bit for
    bit. The weights, b_0 times the eigenvectors' first components squared
    (tens of ulps off near the ends), take one step of refinement on the
    moment equations sum_i w_i P_k(x_i) = 2 [k = 0], k <= 2n, which leaves
    them a few ulps off. Cached and read-only, like leggauss.
    """
    b = np.zeros(2 * n + 1)
    k = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[0], b[1:k.size + 1] = 2.0, k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for i in range(n - 1):
        k = np.arange((i + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[i - k] * s[k + 1])
        s, t = t, s
    s[1:n // 2 + 2] = s[:n // 2 + 1]
    for i in range(n - 1, 2 * n - 2):
        k = np.arange(i + 1 - n, (i - 1) // 2 + 1)
        j = n - 1 - (i - k)
        s[j + 1] = np.cumsum(b[i - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if i % 2:
            b[(i + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    off = np.diag(np.sqrt(b[1:]), 1)
    x, v = np.linalg.eigh(off + off.T)
    x = 0.5 * (x - x[::-1])  # the rule is symmetric
    xg, wg = leggauss(n)
    x[1::2] = xg
    w = b[0] * v[0] ** 2
    moments = np.polynomial.legendre.legvander(x, 2 * n).T
    residual = moments @ w
    residual[0] -= b[0]  # the integral of P_k is 2 at k = 0, else 0
    w -= np.linalg.solve(moments, residual)
    w = 0.5 * (w + w[::-1])
    embedded = np.zeros_like(w)
    embedded[1::2] = wg
    for arr in (x, w, embedded):
        arr.flags.writeable = False
    return x, w, embedded


def gauss_rule(a: float, b: float, log_bound, mass: float, ulps: float, beta_max: float,
               target: float, cap: int):
    """Nodes, weights and error bound of the least Gauss-Legendre rule on [a, b],
    in multiples of 8 points, certified within target.

    log_bound(beta) bounds log|f| on the box |Im z| <= beta holding the
    ellipse of foci a, b and semi-minor axis beta, 0 < beta < beta_max.
    With h = (b - a)/2 and log rho = asinh(beta/h), the n-point rule errs
    by at most h (64/15) e^{log_bound} rho^{2-2n}/(rho^2 - 1) (Trefethen,
    SIAM Rev. 50, 2008, Thm 4.5). That at the best beta and the caller's
    np.sum of the n terms, _rounding(mass, n, ulps) for mass >= sum |w_i
    f(x_i)| and terms off by ulps, take half the target each;
    TruncationBudgetError past cap points.
    """
    h = 0.5 * (b - a)
    beta = beta_max * 2.0 ** (-np.arange(1, 25) / 4.0)
    log_rho = np.arcsinh(beta / h)
    # the quadrature bound is e^{log_c} rho^{-2n}
    log_c = (math.log(64.0 / 15.0 * h) + log_bound(beta)
             + 2.0 * log_rho - np.log(np.expm1(2.0 * log_rho)))
    need = np.min((log_c - math.log(0.5 * target)) / (2.0 * log_rho)) if target > 0.0 else np.inf
    n = 8 * math.ceil(min(max(float(need), 2.0), cap + 1.0) / 8.0)
    rounding = _rounding(mass, n, ulps)
    if n > cap or not rounding <= 0.5 * target:
        raise TruncationBudgetError(f"cannot certify {target:.3g} within {cap} quadrature nodes")
    x, w = leggauss(n)
    bound = math.exp(float(np.min(log_c - 2.0 * n * log_rho))) + rounding
    return a + h * (x + 1.0), h * w, bound


@lru_cache(maxsize=64)
def _j_ulps(p: float) -> float:
    """The largest _J_ULPS bound of the regions that serve order p."""
    n = _half_integer_index(p)
    regions = ("series", "hankel", "miller") if n is None else ("series", "upward", "miller")[
        :2 if n <= 3 else 3]
    return max(a + b * p for a, b in map(_J_ULPS.get, regions))


def _half_integer_index(p: float) -> int | None:
    """Return n if p == n + 1/2 for an integer n >= 0, else None."""
    n = p - 0.5
    if n >= 0.0 and n == int(n):
        return int(n)
    return None


def ascending_series(nu: float, x):
    """sum_m (-x^2/4)^m / (m! (nu+1)_m) = Gamma(nu+1) (2/x)^nu J_nu(x), vectorized.

    For x^2 <= 2(nu + 1), where each term is at most half the one before,
    so the sum lies in [1/2, 1] with no cancellation. Summing stops once
    a bound on the next terms is below 2^-56, where they could no longer
    change it.
    """
    s = -0.25 * x**2
    q = float(np.max(-s, initial=0.0))
    part = np.ones_like(s)
    acc = np.ones_like(s)
    m, bound = 0, 1.0
    while bound > _SERIES_DROP:
        m += 1
        part *= s / (m * (m + nu))
        acc += part
        bound *= q / (m * (m + nu))
    return acc


def _power_over_gamma(nu: float, x):
    """(x/2)^nu / Gamma(nu+1), in logs where Gamma overflows.

    x is not halved first: at subnormal x that would round it. Gamma is
    corrected to first order, psi(y) ~ log y - 1/(2y), for the rounding of
    y = nu + 1 (up to psi(y) ulp(y)/2 relative, 24 eps at nu = 16).
    """
    if nu < 170.0:
        y = nu + 1.0
        gam = math.gamma(y) * (1.0 + (nu - (y - 1.0)) * (math.log(y) - 0.5 / y))
        return np.power(x, nu) * (2.0**-nu / gam)
    try:
        log_gamma = math.lgamma(nu + 1.0)
    except OverflowError:  # past nu = 2.5e305 J_nu underflows wherever x^2 <= 2(nu + 1)
        return np.zeros_like(x)
    with np.errstate(divide="ignore"):
        return np.exp(nu * (np.log(x) - math.log(2.0)) - log_gamma)


def _upward(n: int, x):
    """sqrt(2x/pi) j_n(x) by upward recurrence, for x > n.

    j_{k+1} = (2k+1)/x j_k - j_{k-1}, in place to spare the allocations.
    """
    s0 = np.sin(x)
    s0 /= x
    if n > 0:
        s1 = np.cos(x)
        np.subtract(s0, s1, out=s1)
        s1 /= x
        tmp = np.empty_like(s0)
        for k in range(1, n):
            np.multiply(s1, 2 * k + 1, out=tmp)
            tmp /= x
            np.subtract(tmp, s0, out=s0)
            s0, s1 = s1, s0
        s0 = s1
    f = x / np.pi  # then doubled: 2x would overflow near the largest double
    f *= 2.0
    np.sqrt(f, out=f)
    s0 *= f
    return s0


def _hankel(mu: float, x):
    """(J_mu(x), J_{mu+1}(x)) for |mu| <= 1/2 and x >= 25 by Hankel's expansion.

    J_m(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - (m/2 + 1/4) pi
    (DLMF 10.17.3), with cos chi and sin chi taken from cos x and sin x so
    the phase keeps full accuracy at large x. P and Q stop at the first
    term below eps/8 at the smallest x; at x >= 25 that comes near the
    20th, long before the divergent series turns round near the 2x-th.
    """
    x_min = float(np.min(x))
    z = 1.0 / x
    w = -z * z
    cx, sx = np.cos(x), np.sin(x)
    amp = np.sqrt(2.0 / np.pi * z)
    out = []
    for m in (mu, mu + 1.0):
        m4, coef, a, bound, k = 4.0 * m * m, [1.0], 1.0, 1.0, 0
        while bound >= 0.125 * _EPS:
            k += 1
            a *= (m4 - (2 * k - 1) ** 2) / (8.0 * k)
            bound = abs(a) * x_min**-k
            coef.append(a)
        p, q = np.zeros_like(x), np.zeros_like(x)
        for c in coef[-1 - (len(coef) - 1) % 2::-2]:  # a_2j, highest first
            p *= w
            p += c
        for c in coef[-1 - len(coef) % 2:0:-2]:  # a_2j+1, highest first
            q *= w
            q += c
        q *= z
        phase = (0.5 * m + 0.25) * math.pi
        c, s = math.cos(phase), math.sin(phase)
        out.append(amp * (p * (cx * c + sx * s) - q * (sx * c - cx * s)))
    return out


def _miller(mu: float, k: int, x):
    """J_{mu+k}(x) for -1/2 <= mu < 1/2, integer k >= 0 and x > 0, by Miller's
    backward recurrence (Gautschi, SIAM Review 9, 1967).

    The ratios t_j = J_{mu+j+1}/J_{mu+j} recur downward from t = 0 past
    an order where (x/2)^m/Gamma(m+1) is below 2^-60 of both 1 and of the
    same lead at mu + k, at the largest x; the error of the ratios falls
    as the square of that. The normalization (x/2)^mu = sum_i c_i
    J_{mu+2i}(x), c_i = (mu+2i) Gamma(mu+i)/i! (DLMF 10.23.15), is
    accumulated relative to the current order, so nothing overflows.
    """
    x_max = float(np.max(x))
    h = math.log(0.5 * x_max)

    def log_lead(j):
        return (mu + j) * h - math.lgamma(mu + j + 1.0)

    floor = _MILLER_LOG_TOP + min(0.0, log_lead(k))
    top = max(k, math.ceil(x_max)) + 1
    while log_lead(top) > floor:
        top += 1
    g = math.gamma(mu + 1.0)  # Gamma(mu+i)/i! at i = 1
    c = [g]
    for i in range(1, top // 2 + 1):
        c.append((mu + 2 * i) * g)
        g *= (mu + i) / (i + 1)
    t, u, ratio, tmp = np.zeros_like(x), np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    for j in range(top, -1, -1):
        np.multiply(x, t, out=tmp)
        np.subtract(2.0 * (mu + j + 1.0), tmp, out=tmp)
        np.divide(x, tmp, out=t)
        u *= t
        if j % 2 == 0:
            u += c[j // 2]
        if j < k:
            ratio *= t
    ratio *= np.power(0.5 * x, mu)
    ratio /= u
    return ratio


def _jv(nu: float, x):
    """J_nu(x) for real nu > -1/2 and a 1-d array x >= 0 (NaN passes through).

    The ascending series where x^2 <= 2(nu + 1); Hankel's expansion at
    the order mu = nu - round(nu) and mu + 1, then upward recurrence, where
    x >= 25 and x >= nu; 0 where J's bound underflows, and Miller's
    backward recurrence everywhere else.
    """
    k = math.floor(nu + 0.5)
    mu = nu - k
    out = np.full_like(x, np.nan)
    with np.errstate(over="ignore"):  # x^2 = inf is not near (2(nu + 1) is inf past 9e307)
        near = 0.5 * (x * x) <= nu + 1.0
    xn = x[near]
    out[near] = _power_over_gamma(nu, xn) * ascending_series(nu, xn)
    if near.all():
        return out
    out[x == np.inf] = 0.0
    far = ~near & (x >= max(_HANKEL_X, nu)) & (x < np.inf)
    if far.any():
        xf = x[far]
        a, b = _hankel(mu, xf)
        for m in range(1, k):
            a, b = b, (2.0 * (mu + m) / xf) * b - a
        out[far] = b if k else a
    mid = ~(near | far) & (x < np.inf)
    # |J_nu(nu y)| <= e^{-nu (atanh s - s)}, s = sqrt(1 - y^2), 0 < y <= 1 (DLMF
    # 10.14.5): 0 where that is below 2^-1075. atanh s - s = log((1 + s)/y) - s,
    # and below s = 1/4 its series, cut short; 1 - y = (nu - x)/nu keeps s exact.
    # The bound rises with y: where it does not underflow at the band's least
    # x, sqrt(2 (nu + 1)), it does nowhere, and no x is tested
    y0 = math.sqrt(2.0) * math.sqrt(nu + 1.0) / nu if nu > 1.0 else 1.0
    s0 = math.sqrt((1.0 - y0) * (1.0 + y0)) if y0 < 1.0 else 0.0
    if nu * (math.log1p(s0) - math.log(min(y0, 1.0)) - s0) > 1075.0 * _LOG_2:
        gone = mid & (x < nu)
        xg = x[gone]
        d = (nu - xg) / nu
        s = np.sqrt(d * (2.0 - d))
        s2 = s * s
        gap = np.where(s < 0.25, s * s2 * (1.0 / 3.0 + s2 * (0.2 + s2 / 7.0)),
                       np.log1p(s) - np.log(xg / nu) - s)
        with np.errstate(over="ignore"):
            gone[gone] = nu * gap > 1075.0 * _LOG_2
        out[gone], mid = 0.0, mid & ~gone
    if mid.any():
        out[mid] = _miller(mu, k, x[mid])
    return out


def bessel_j_half(n: int, x):
    """J_{n+1/2}(x) for integer n >= 0, vectorized over x >= 0.

    The hot path of the counting series. Upward recurrence where x > n
    (and x > _TINY_X) is finite, else _jv: there 0 at x = inf, the
    ascending series where x^2 <= 2n + 3, and Miller's backward
    recurrence in the band left between them (n >= 4 only).
    """
    if not n >= 0:
        raise DomainError(f"bessel_j_half needs n >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x)
    up = (xs > max(n, _TINY_X)) & (xs < np.inf)  # _jv gives 0 at inf and NaN at NaN
    if up.all():
        return _upward(n, xs).reshape(x.shape)[()]
    out = np.empty_like(xs)
    if up.any():  # the recurrence runs n steps even on no points
        out[up] = _upward(n, xs[up])
    out[~up] = _jv(n + 0.5, xs[~up])
    return out.reshape(x.shape)[()]


def bessel_j(p: float, x: float) -> float:
    """J-Bessel function of the first kind J_p(x), p >= -1/2, x >= 0 (> 0 for
    p < 0); an array x is mapped elementwise. At x = 0 it is 1 for p = 0
    and 0 for p > 0."""
    p = _check_order(p)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise DomainError("bessel_j requires x >= 0")
    if p < 0.0 and np.any(xa == 0.0):
        raise DomainError(f"J_{p} diverges at x = 0")

    n = _half_integer_index(p)
    if n is not None:
        out = bessel_j_half(n, xa)
    elif p == -0.5:
        scale = np.where(xa < _TINY_X, 2.0**200, 0.25)  # powers of 4: exact, and so is their root
        # cos is taken at 0 in place of inf, where the amplitude is 0
        out = (np.sqrt(2.0 / (np.pi * (xa * scale))) * np.sqrt(scale)
               * np.cos(np.where(xa < np.inf, xa, 0.0)))
    else:
        out = _jv(p, np.atleast_1d(xa)).reshape(xa.shape)
    if np.ndim(x) == 0:
        return float(out)
    return out

