"""Heat kernel on the hyperbolic plane and cylinder geometry.

At distance rho the kernel is the classical integral (time always comes first)

    K(t, rho) = sqrt(2) e^{-t/4} / (4 pi t)^{3/2}
                * int_rho^inf u e^{-u^2/4t} du / sqrt(cosh u - cosh rho).

With u = sqrt(rho^2 + r^2) and s = r/(2 sqrt t) it is G(rho) int_0^inf
e^{-s^2} S^{-1/2} ds, G(rho) = e^{-t/4 - rho^2/4t}/(2 pi^{3/2} t), where
S = 2 (cosh u - cosh rho)/r^2 = sinhc((u + rho)/2) sinhc(r^2/2(u + rho)) is
entire. Each integral takes one Gauss-Legendre rule, specfun.gauss_rule,
sized from these facts (sinc x = sin(x)/x), and sums it in log space:

(a) |sinhc z| >= F(Re z^2) > 0 if Re z^2 > -pi^2, F(q) = prod_k (1 + q/(k pi)^2),
    as each factor has modulus at least its real part. F increases, F(-y^2)
    = sinc y, and log F is concave: F(q - c) >= F(q) F(-c) for q, c >= 0.
(b) The principal u has |Im u| <= |Im r| for real rho, <= |Im rho| for
    real r: |S^{-1/2}| <= 1/sinc(b/2) if |Im r| <= b < 2 pi or |Im rho| <= b/2.
(c) Where |Im r| <= b < 2 pi/sqrt 3, Re((u + rho)^2/4) >= rho^2 - 3 b^2/4,
    so |S^{-1/2}| <= (sinhc(rho) sinc(sqrt(3) b/2) sinc(b/2))^{-1/2}.
(d) On the reals sinhc(rho) <= S <= sinhc(rho) e^r, so sqrt(sinhc rho) times
    the s-integral lies in [(1 - 1/e)/(1 + sqrt t), sqrt(pi)/2] (s^2 <= s
    on [0, 1]), and times its tail past s = 7 in [0, e^{-49}/14].
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import _rounding, gauss_rule, log_sinh, tail_cut

__all__ = [
    "heat_kernel",
    "heat_kernel_origin",
    "cylinder_displacement",
    "cylinder_trace",
]

# e^{-GAUSS_CUT} is the neglected Gaussian mass; 49 keeps the truncated
# tail far below any policy tolerance in (0, 1)
_GAUSS_CUT = 49.0
_S_CUT = math.sqrt(_GAUSS_CUT)
_S_TAIL = math.exp(-_GAUSS_CUT) / (2.0 * _S_CUT)  # int_7^inf e^{-s^2} ds, at most

# kernel grid points per block of cylinder_trace (64k doubles = 512 kB a temporary)
_BLOCK_POINTS = 1 << 16


def _log_sinhc(x):
    """log(sinh(x)/x) for x >= 0, continuous through 0."""
    small = x < 1e-8
    xs = np.where(small, 1.0, x)
    return np.where(small, np.log1p(x * x / 6.0), log_sinh(xs) - np.log(xs))


def _half_distance(log_y):
    """asinh(e^log_y), overflow-free: d/2 where sinh(d/2) = e^log_y."""
    big = np.maximum(log_y, 0.0)
    return np.where(log_y > 0.0, big + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * big))),
                    np.arcsinh(np.exp(np.minimum(log_y, 0.0))))


def _log_g(t: float, d):
    return -0.25 * t - d * d / (4.0 * t) - math.log(2.0 * math.pi**1.5 * t)


def _log_integrand(t: float, d, s):
    """log(e^{-s^2} S^{-1/2}) at distances d and nodes s > 0, broadcast."""
    r = 2.0 * math.sqrt(t) * s
    up = np.hypot(d, r) + d  # u + d
    return -s * s - 0.5 * (_log_sinhc(0.5 * up) + _log_sinhc(0.5 * r * r / up))


def _kernel_rule(t: float, d_max: float, log_plain: float, log_norm: float, target: float,
                 cap: int):
    """The s-rule on [0, 7] for sum_i c_i G(d_i) e^{-s^2} S(d_i)^{-1/2}, c_i >= 0, d_i <= d_max,
    from the logs of sum c_i G(d_i) and sum c_i G(d_i)/sqrt(sinhc d_i). A term's exponent
    errs by 2 eps per unit size of its parts: |log w| <= 32, G's, and those of e^{-s^2}
    S^{-1/2} <= 1/sqrt(sinhc d), which by x e^{-x} <= 1/e weigh below 8 (d + 1) sums. So
    a term errs by ulps eps of its envelope w G(d) e^{-s^2}/sqrt(sinhc d) at most, as
    the tests check against mpmath; the envelopes sum to the rule's mass."""
    rt = math.sqrt(t)

    def log_bound(beta):  # e^{beta^2} times the better of (b) and (c), b = 2 sqrt(t) beta
        x = rt * beta / math.pi  # below 1
        y = np.where(x < 1.0 / math.sqrt(3.0), math.sqrt(3.0) * x, 0.0)
        norm = np.where(y > 0.0, log_norm - 0.5 * np.log(np.sinc(x) * np.sinc(y)), np.inf)
        return beta * beta + np.minimum(log_plain - np.log(np.sinc(x)), norm)

    ulps = 2.0 * (36.0 + 0.25 * t + d_max * d_max / (4.0 * t) + 4.0 * d_max
                  + abs(math.log(2.0 * math.pi**1.5 * t)))
    mass = math.exp(log_norm) * 0.5 * math.sqrt(math.pi) + target  # by (d)
    return gauss_rule(0.0, _S_CUT, log_bound, mass, ulps, min(math.pi / rt, _S_CUT), target, cap)


def heat_kernel(t: float, rho: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Hyperbolic heat kernel K(t, rho) at time t > 0 and distance rho >= 0.

    One s-rule keeps error, tail and rounding within policy.tol of the lower
    bound (d) on K. K is returned wherever its bound G sqrt(pi)/2 fits a
    double: 0 where that underflows, DomainError where it overflows.
    """
    if not t > 0.0:
        raise DomainError(f"heat_kernel requires t > 0, got {t}")
    if not rho >= 0.0:
        raise DomainError(f"heat_kernel requires rho >= 0, got {rho}")
    t, rho = float(t), float(rho)
    log_g = _log_g(t, rho)
    log_top = log_g + math.log(0.5 * math.sqrt(math.pi))
    if log_top < -1075.0 * math.log(2.0):  # below half the smallest subnormal
        return 0.0
    if log_top > math.log(sys.float_info.max):
        raise DomainError(f"heat_kernel: K(t, rho) may overflow a double at t = {t}")
    log_norm = log_g - 0.5 * float(_log_sinhc(rho))
    low = math.exp(log_norm + math.log(-math.expm1(-1.0) / (1.0 + math.sqrt(t))))
    target = policy.tol(low) - math.exp(log_norm + math.log(_S_TAIL))
    s, w, _ = _kernel_rule(t, rho, log_g, log_norm, target, policy.max_quad_evals)
    return float(np.sum(np.exp(np.log(w) + log_g + _log_integrand(t, rho, s))))


def heat_kernel_origin(t: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """K(t, 0) by the on-diagonal spectral integral, a route apart from heat_kernel.

    As tanh(pi r) = 1 - 2/(e^{2 pi r} + 1), (1/2 pi) int_0^inf e^{-(1/4 + r^2) t}
    tanh(pi r) r dr is e^{-t/4}/(4 pi t) less (1/pi) int_0^inf e^{-(1/4 + r^2) t}
    r dr/(e^{2 pi r} + 1) <= e^{-t/4} min(1/4 pi^2, 1/2t)/pi, cut at R = min(9,
    7/sqrt t) with a tail below e^{-t/4 - R^2 t - 2 pi R}(2 pi R + 1)/(4 pi^3).
    On |Im r| <= beta < 1/2, |e^{2 pi r} + 1| >= sin(2 pi max(beta, 1/4)) and
    |r| <= R + 1. Error, tail and rounding (of exponents below t/4 + 49 and
    58, then specfun._rounding of lead - rem/pi) stay within policy.tol of
    K(t, 0) >= e^{-t/4 - 1/2} tanh(pi/sqrt(2t))/(4 pi t), as tanh(pi r) >=
    tanh(pi r0) past r0 = 1/sqrt(2t).
    """
    if not t > 0.0:
        raise DomainError(f"heat_kernel_origin requires t > 0, got {t}")
    lead = math.exp(-0.25 * t) / (4.0 * math.pi * t)
    if lead == 0.0:  # K(t, 0) <= lead underflows with it
        return 0.0
    if not math.isfinite(lead):
        raise DomainError(f"heat_kernel_origin: K(t, 0) overflows a double at t = {t}")
    cut = min(9.0, _S_CUT / math.sqrt(t))
    tail = (math.exp(-0.25 * t - cut * cut * t - 2.0 * math.pi * cut)
            * (2.0 * math.pi * cut + 1.0) / (4.0 * math.pi**3))
    low = math.exp(-0.5) * math.tanh(math.pi / math.sqrt(2.0 * t)) * lead
    rest = math.exp(-0.25 * t) / math.pi * min(0.25 / math.pi**2, 0.5 / t)  # >= rem/pi
    # lead's exponential, product and quotient, or rem's quotient by pi, off
    # by 2.5 ulps at most, and the one subtraction
    target = policy.tol(low) - tail - _rounding(lead + rest, 2, 2.5)
    log_pref = -0.25 * t + math.log((cut + 1.0) / math.pi)
    r, w, _ = gauss_rule(
        0.0, cut, lambda beta: log_pref + beta * beta * t
        - np.log(np.sin(2.0 * math.pi * np.maximum(beta, 0.25))),
        rest + target, 0.5 * t + 224.0, 0.5, target, policy.max_quad_evals)
    rem = np.sum(w * np.exp(-(0.25 + r * r) * t) * r / (np.exp(2.0 * math.pi * r) + 1.0))
    return lead - float(rem) / math.pi


def cylinder_displacement(ell: float, n: int, v: float) -> float:
    """Orbit displacement on the hyperbolic cylinder of core length ell.

    The n-th generator power moves the cross-section point with
    parameter v (v = cot theta in the upper half-plane) by d >= |n| ell:

        sinh(d/2) = sinh(|n| ell/2) sqrt(1 + v^2),

    that is cosh d = 1 + 2 sinh^2(n ell/2)(1 + v^2), taken in log space.
    """
    if not ell > 0.0:
        raise DomainError(f"cylinder requires ell > 0, got {ell}")
    if n == 0:
        raise DomainError("displacement is defined for nonzero powers only")
    v2 = float(v) * float(v)
    if v2 == 0.0:
        return abs(n) * ell  # on-axis: translation length exactly
    d = 2.0 * float(_half_distance(log_sinh(0.5 * abs(n) * ell) + 0.5 * math.log1p(v2)))
    return max(d, abs(n) * ell)


def cylinder_trace(ell: float, t: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Regularized heat trace of the hyperbolic cylinder by unfolding.

    Computes (1/2) ell int_R sum_{n != 0} K(t, d_n(v)) dv, d_n(v) the
    cylinder_displacement, as 2 ell sum_{n >= 1} int_0^inf K(t, d_n) cosh
    sigma dsigma with v = sinh sigma, sinh(d_n/2) = sinh(n ell/2) cosh sigma.
    Of policy.tol(L), L the closed-form n = 1 term, half goes to the n-cut
    of the envelope ell/sinh(n ell/2) e^{-(n ell)^2/4t}, and a quarter each
    to one s-rule for all distances and one outer rule on [0, Sigma] for
    all rows. Past d_1 = D = sqrt(ell^2 + 196 t), (d) leaves a row within
    2 sqrt(t/pi) coth(Sigma) (2 D tanh(D/2))^{-1/2} e^{-49} of itself. On
    |Im sigma| <= beta < pi/2, |Im d| <= 2 beta, Re d >= 2 asinh(k cosh Re
    sigma), k = sinh(n ell/2) cos beta, and (a), (b) give |K(t, d)| <=
    e^{-t/4 - Re(d^2)/4t}/(4 pi t sinc|Im d|): row n is below 2 ell e^{-t/4
    + beta^2/t + P}/(4 pi t sinc 2 beta), P the peak of log y - asinh(k y)^2/t
    on y >= 1, at y = 1 if 2k asinh k >= t sqrt(1 + k^2), else below t/4 -
    log 2k.

    ell below 0.05 is rejected: the pre-decay sum length ~2/ell would
    blow the quadrature budget, and the closed-form route in the trace
    module has no such limit.
    """
    if not t > 0.0:
        raise DomainError(f"cylinder_trace requires t > 0, got {t}")
    if not ell > 0.0:
        raise DomainError(f"cylinder requires ell > 0, got {ell}")
    if ell < 0.05:
        raise DomainError(f"cylinder_trace guard: ell >= 0.05 required, got {ell}")

    # a product, not ** 2, so that a huge n ell gives inf rather than OverflowError
    def log_env(n):
        return math.log(ell) - log_sinh(0.5 * n * ell) - (n * ell) * (n * ell) / (4.0 * t)

    # the trace is the closed form e^{-t/4} (16 pi t)^{-1/2} sum_n env(n), at
    # most its n = 1 term over 1 - e^{-ell/2}: where that underflows, so does it
    log_c = -0.25 * t - 0.5 * math.log(16.0 * math.pi * t)
    top = math.exp(log_env(1) + log_c - math.log(-math.expm1(-0.5 * ell)))
    if top == 0.0:
        return 0.0
    tol = policy.tol(math.exp(log_env(1) + log_c))
    count = tail_cut(log_env, ell, 0.5 * tol * math.exp(min(-log_c, 700.0)),
                     min(100_000, policy.max_terms))
    n = np.arange(1, count + 1, dtype=float)
    log_s = log_sinh(0.5 * ell * n)
    # the outer integrand is positive: over [0, inf) its rows sum to their closed form
    whole = float(np.sum(np.exp(log_c + math.log(ell) - log_s - (n * ell) ** 2 / (4.0 * t))))
    dcut = math.sqrt(ell * ell + 4.0 * t * _GAUSS_CUT)
    lift = log_sinh(0.5 * dcut) - float(log_s[0])  # cosh Sigma = e^lift
    sig = lift + math.log1p(math.sqrt(-math.expm1(-2.0 * lift)))
    tail = (2.0 * math.sqrt(t / math.pi) / math.tanh(sig) * math.exp(-_GAUSS_CUT)
            * math.sqrt(0.5 / (dcut * math.tanh(0.5 * dcut))) * top)
    log_pref = math.log(2.0 * ell / (4.0 * math.pi * t)) - 0.25 * t

    def log_bound(beta):  # every row's strip bound, summed
        k = np.exp(log_s[:, None]) * np.cos(beta)
        ak = np.arcsinh(k)
        peak = np.where(2.0 * k * ak >= t * np.hypot(1.0, k), -ak * ak / t,
                        0.25 * t - np.log(2.0 * k))
        return (log_pref + np.logaddexp.reduce(peak, axis=0) + beta * beta / t
                - np.log(np.sinc(2.0 * beta / math.pi)))

    # the outer rule's share also pays for the final np.sum of the count rows
    sg, wg, _ = gauss_rule(0.0, sig, log_bound, whole + 0.25 * tol, 64.0, 0.5 * math.pi,
                           0.25 * tol - tail - _rounding(whole + 0.25 * tol, count),
                           policy.max_quad_evals // count)

    d = 2.0 * _half_distance(log_s[:, None] + np.logaddexp(sg, -sg) - math.log(2.0))
    lg = _log_g(t, d)
    weight = 2.0 * ell * wg * np.cosh(sg)
    plain = float(np.logaddexp.reduce(lg + np.log(weight), axis=None))
    norm = float(np.logaddexp.reduce(lg + np.log(weight) - 0.5 * _log_sinhc(d), axis=None))
    s, w, _ = _kernel_rule(t, float(d.max()), plain, norm, 0.25 * tol - math.exp(norm) * _S_TAIL,
                           policy.max_quad_evals)
    rows = np.empty(count)
    # blocks of n-rows keep every temporary near _BLOCK_POINTS doubles,
    # so the allocator reuses them rather than mapping fresh pages
    step = max(1, _BLOCK_POINTS // (sg.size * s.size))
    for i in range(0, count, step):
        blk = slice(i, i + step)
        kern = np.sum(w * np.exp(lg[blk, :, None] + _log_integrand(t, d[blk, :, None], s)), axis=2)
        rows[blk] = np.sum(weight * kern, axis=1)
    return float(np.sum(rows))
