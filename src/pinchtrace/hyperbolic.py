"""Heat kernel on the hyperbolic plane and the heat trace of the hyperbolic cylinder.

At distance rho the kernel is the classical integral (time always comes first)

    K(t, rho) = sqrt(2) e^{-t/4} / (4 pi t)^{3/2}
                * int_rho^inf u e^{-u^2/4t} du / sqrt(cosh u - cosh rho).

With u = sqrt(rho^2 + r^2) and s = r/(2 sqrt t) it is G(rho) int_0^inf
e^{-s^2} S^{-1/2} ds, G(rho) = e^{-t/4 - rho^2/4t}/(2 pi^{3/2} t), where
S = 2 (cosh u - cosh rho)/r^2 = sinhc((u + rho)/2) sinhc(r^2/2(u + rho)) is
entire. As cosh u - cosh rho = 2 sinh((u + rho)/2) sinh((u - rho)/2) and
(u + rho)(u - rho) = r^2, the integrand takes a linear form with no logs:

    e^{-s^2} S^{-1/2} = r e^{-s^2 - u/2} / sqrt(expm1(-(u + rho)) expm1(-r^2/(u + rho))).

Each integral takes one Gauss-Legendre rule, specfun.gauss_rule, sized
from these facts (sinc x = sin(x)/x):

(a) |sinhc z| >= F(Re z^2) > 0 if Re z^2 > -pi^2, F(q) = prod_k (1 + q/(k pi)^2),
    as each factor has modulus at least its real part. F increases, F(-y^2)
    = sinc y, and log F is concave: F(q - c) >= F(q) F(-c) for q, c >= 0.
(b) The principal u has |Im u| <= |Im r| for real rho, <= |Im rho| for
    real r: |S^{-1/2}| <= 1/sinc(b/2) if |Im r| <= b < 2 pi or |Im rho| <= b/2.
(c) Where |Im r| <= b < 2 pi/sqrt 3, Re((u + rho)^2/4) >= rho^2 - 3 b^2/4,
    so |S^{-1/2}| <= (sinhc(rho) sinc(sqrt(3) b/2) sinc(b/2))^{-1/2}.
(d) On the reals sinhc(rho) <= S <= sinhc(rho) e^r, so sqrt(sinhc rho) times
    the s-integral lies in [(1 - 1/e)/(1 + sqrt t), sqrt(pi)/2] (s^2 <= s
    on [0, 1]), and times its tail past s = sqrt(c) in [0, e^{-c}/(2 sqrt c)].

The rule runs on [0, sqrt(c)], c the least cut >= 1 (_least_cut) at which
that tail, times the summed envelopes G/sqrt(sinhc rho), fits a fixed share
of the call's target. cylinder_trace first drops the (n, sigma) points of
least envelope w G(d) (sqrt(pi)/2)/sqrt(sinhc d), the bound (d) puts on a
point's s-integral, while their sum stays within a sixteenth of its
tolerance, and charges that sum to its certificate.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import _Collar, _rounding, gauss_rule, log_sinh

__all__ = [
    "heat_kernel",
    "heat_kernel_origin",
    "cylinder_trace",
]

# kernel grid points per block of cylinder_trace (64k doubles = 512 kB a temporary)
_BLOCK_POINTS = 1 << 16
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)


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


def _least_cut(log_tail, target: float) -> float:
    """A cut c >= 1 with e^{log_tail(c)} <= target, for log_tail(c) + c falling in c.

    Then c -> max(1, c + log_tail(c) - log target) does not rise with c, and
    its iterates from 1 alternate about the least such cut, which it fixes:
    the third is at or above that cut.
    """
    c = 1.0
    for _ in range(3):
        c = max(1.0, c + log_tail(c) - math.log(target))
    return c


def _s_tail(log_norm: float):
    """log of e^{log_norm} int_{sqrt c}^inf e^{-s^2} ds, at most, by (d): a function of c."""
    return lambda c: log_norm - c - math.log(2.0 * math.sqrt(c))


def _terms(t: float, lg, d, s, w):
    """w e^{lg - s^2} S^{-1/2} at distances d (lg, of d's shape, in place of log G)
    and the s-rule's nodes s and weights w, on a new last axis, in linear form."""
    lg, d = np.asarray(lg)[..., None], np.asarray(d)[..., None]
    r = 2.0 * math.sqrt(t) * s
    r2 = r * r
    u = np.sqrt(d * d + r2)
    x = -0.5 * u
    x += lg
    x -= s * s
    mup = -d - u  # -(u + d)
    den = np.expm1(mup)
    den *= np.expm1(np.divide(r2, mup, out=mup), out=mup)
    np.sqrt(den, out=den)
    np.exp(x, out=x)
    x *= w * r
    x /= den
    return x


def _kernel_rule(t: float, d_max: float, c: float, log_plain: float, log_norm: float,
                 target: float, cap: int):
    """The s-rule on [0, sqrt(c)] for sum_i c_i G(d_i) e^{-s^2} S(d_i)^{-1/2}, c_i >= 0,
    d_i <= d_max, from the logs of sum c_i G(d_i) and sum c_i G(d_i)/sqrt(sinhc d_i).

    _terms forms w e^x F, x = lg - s^2 - u/2 and F = r/sqrt(expm1(-(u + d))
    expm1(-r^2/(u + d))). x errs by 2 eps per unit size of its parts: G's,
    s^2 <= c and u/2 = d/2 + y, y = (u - d)/2; as S = sinhc((u + d)/2) sinhc(y)
    >= sinhc(d) sinhc(y), the term is its envelope w G(d) e^{-s^2}/sqrt(sinhc d)
    times at most sinhc(y)^{-1/2}, so y weighs below y^{3/2}/sqrt(sinh y) < 1.7
    envelopes. F's expm1 factors pass on no more than their arguments'
    relative errors, as x e^{-x}/(1 - e^{-x}) <= 1; F, r, the exponential,
    the products and heat_kernel's scaling add 16 ulps (14.2 by a count of
    their roundings). So a term errs by ulps eps of its envelope at most, as
    the tests check against mpmath; the envelopes sum to the rule's mass.
    """
    rt, cut = math.sqrt(t), math.sqrt(c)

    def log_bound(beta):  # e^{beta^2} times the better of (b) and (c), b = 2 sqrt(t) beta
        x = rt * beta / math.pi  # below 1
        y = np.where(x < 1.0 / math.sqrt(3.0), math.sqrt(3.0) * x, 0.0)
        norm = np.where(y > 0.0, log_norm - 0.5 * np.log(np.sinc(x) * np.sinc(y)), np.inf)
        return beta * beta + np.minimum(log_plain - np.log(np.sinc(x)), norm)

    ulps = 16.0 + 2.0 * (0.25 * t + d_max * d_max / (4.0 * t) + 0.5 * d_max + c
                         + abs(math.log(2.0 * math.pi**1.5 * t)))
    mass = math.exp(log_norm) * _HALF_SQRT_PI + target  # by (d)
    return gauss_rule(0.0, cut, log_bound, mass, ulps, min(math.pi / rt, cut), target, cap)


def heat_kernel(t: float, rho: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Hyperbolic heat kernel K(t, rho) at time t > 0 and distance rho >= 0.

    Of policy.tol of the lower bound (d) on K, the s-tail past sqrt(c) takes
    a sixteenth at most and one s-rule's error and rounding the rest. K is
    returned wherever its bound G sqrt(pi)/2 fits a double: 0 where that
    underflows, DomainError where it overflows.
    """
    if not t > 0.0:
        raise DomainError(f"heat_kernel requires t > 0, got {t}")
    if not rho >= 0.0:
        raise DomainError(f"heat_kernel requires rho >= 0, got {rho}")
    t, rho = float(t), float(rho)
    log_g = _log_g(t, rho)
    log_top = log_g + math.log(_HALF_SQRT_PI)
    if log_top < -1075.0 * math.log(2.0):  # below half the smallest subnormal
        return 0.0
    if log_top > math.log(sys.float_info.max):
        raise DomainError(f"heat_kernel: K(t, rho) may overflow a double at t = {t}")
    log_norm = log_g - 0.5 * float(_log_sinhc(rho))
    tol = policy.tol(math.exp(log_norm + math.log(-math.expm1(-1.0) / (1.0 + math.sqrt(t)))))
    tail = _s_tail(log_norm)
    c = _least_cut(tail, 0.0625 * tol)
    s, w, _ = _kernel_rule(t, rho, c, log_g, log_norm, tol - math.exp(tail(c)),
                           policy.max_quad_evals)
    # terms scaled by sqrt(pi)/2, as G may overflow where G sqrt(pi)/2 does not
    return float(np.sum(_terms(t, log_top, rho, s, w))) / _HALF_SQRT_PI


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
    cut = min(9.0, 7.0 / math.sqrt(t))
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


def cylinder_trace(ell: float, t: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Regularized heat trace of the hyperbolic cylinder by unfolding.

    Computes (1/2) ell int_R sum_{n != 0} K(t, d_n(v)) dv, d_n(v) the distance
    the n-th generator power moves the section point v = cot theta, as 2 ell
    sum_{n >= 1} int_0^inf K(t, d_n) cosh sigma dsigma with v = sinh sigma,
    sinh(d_n/2) = sinh(n ell/2) cosh sigma (in log space: _half_distance).
    Of policy.tol(L), L the closed-form n = 1 term, half goes to the n-cut
    of a one-length specfun._Collar, weight ell and G(x) = log sinh(x/2) +
    x^2/4t (the trace's at c_min = 1/t), and a quarter each to one outer
    rule on [0, Sigma] for all rows and to one s-rule for all kept points.
    Each quarter gives at most a sixteenth of policy.tol(L) to its tails:
    the outer one sets its cut c (_least_cut); past d_1 = D = sqrt(ell^2 +
    4tc), (d) leaves a row within 2 sqrt(t/pi) coth(Sigma) (2 D tanh(D/2))^{-1/2}
    e^{-c} of itself. The s-rule's quarter pays, in turn, its own cut's
    tail, the envelopes of the points it drops (a sixteenth at most) and
    the rounding of the one np.sum over the kept points. On |Im sigma| <=
    beta < pi/2, |Im d| <= 2 beta, Re d >= 2 asinh(k cosh Re sigma), k =
    sinh(n ell/2) cos beta, and (a), (b) give |K(t, d)| <= e^{-t/4 -
    Re(d^2)/4t}/(4 pi t sinc|Im d|): row n is below 2 ell e^{-t/4 + beta^2/t
    + P}/(4 pi t sinc 2 beta), P the peak of log y - asinh(k y)^2/t on y >=
    1, at y = 1 if 2k asinh k >= t sqrt(1 + k^2), else below t/4 - log 2k.

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

    # the trace is e^{log_c} sum_n ell e^{-G(n ell)}, at most e^{log_c} collar.mass:
    # where that underflows, so does it (x * x, not ** 2: a huge x gives inf)
    collar = _Collar(np.array([ell]), np.array([ell]),
                     lambda x: log_sinh(0.5 * x) + x * x / (4.0 * t))
    log_c = -0.25 * t - 0.5 * math.log(16.0 * math.pi * t)
    top = collar.mass * math.exp(log_c)
    if top == 0.0:
        return 0.0
    tol = policy.tol(collar.shell * math.exp(log_c))
    count = int(collar.cut(0.5 * tol * math.exp(min(-log_c, 700.0)),
                           min(100_000, policy.max_terms))[0][0])
    n = np.arange(1, count + 1, dtype=float)
    log_s = log_sinh(0.5 * ell * n)
    # the outer integrand is positive: over [0, inf) its rows sum to their closed form
    whole = float(np.sum(np.exp(log_c + math.log(ell) - log_s - (n * ell) ** 2 / (4.0 * t))))
    log_top = math.log(top)

    def outer(c):  # Sigma at the cut c, and the log of the outer tail past it
        dcut = math.sqrt(ell * ell + 4.0 * t * c)
        lift = log_sinh(0.5 * dcut) - float(log_s[0])  # cosh Sigma = e^lift
        sig = lift + math.log1p(math.sqrt(-math.expm1(-2.0 * lift)))
        return sig, (math.log(2.0 * math.sqrt(t / math.pi) / math.tanh(sig)) - c + log_top
                     + 0.5 * math.log(0.5 / (dcut * math.tanh(0.5 * dcut))))

    sixteenth = 0.0625 * tol
    sig, log_tail = outer(_least_cut(lambda c: outer(c)[1], sixteenth))
    log_pref = math.log(2.0 * ell / (4.0 * math.pi * t)) - 0.25 * t

    def log_bound(beta):  # every row's strip bound, summed
        k = np.exp(log_s[:, None]) * np.cos(beta)
        ak = np.arcsinh(k)
        peak = np.where(2.0 * k * ak >= t * np.hypot(1.0, k), -ak * ak / t,
                        0.25 * t - np.log(2.0 * k))
        return (log_pref + np.logaddexp.reduce(peak, axis=0) + beta * beta / t
                - np.log(np.sinc(2.0 * beta / math.pi)))

    sg, wg, _ = gauss_rule(0.0, sig, log_bound, whole + 0.25 * tol, 64.0, 0.5 * math.pi,
                           0.25 * tol - math.exp(log_tail), policy.max_quad_evals // count)

    d = 2.0 * _half_distance(log_s[:, None] + np.logaddexp(sg, -sg) - math.log(2.0))
    lg = _log_g(t, d).ravel()
    weight = np.tile(2.0 * ell * wg * np.cosh(sg), count)
    lw = lg + np.log(weight)
    log_env = lw - 0.5 * _log_sinhc(d.ravel())  # each point's envelope, over sqrt(pi)/2
    # drop the least envelopes while they sum within a sixteenth of tol, but
    # not all; a 2^-20 margin covers their rounding and that of their running sum
    peak = float(log_env.max())
    rel = np.exp(log_env - peak)
    order = np.argsort(rel)
    run = np.cumsum(rel[order])
    room = math.log(sixteenth / _HALF_SQRT_PI) - peak
    cut = min(int(np.searchsorted(run, (1.0 - 2.0**-20) * math.exp(min(room, 700.0)),
                                  side="right")), run.size - 1)
    dropped = (math.exp(peak) * _HALF_SQRT_PI * (1.0 + 2.0**-20) * float(run[cut - 1])
               if cut else 0.0)
    keep = np.sort(order[cut:])
    top_lw = float(lw.max())
    plain = top_lw + math.log(float(np.sum(np.exp(lw[keep] - top_lw))))
    norm = peak + math.log(float(np.sum(rel[keep])))
    tail = _s_tail(norm)
    c = _least_cut(tail, sixteenth)
    lg, d, weight = lg[keep], d.ravel()[keep], weight[keep]
    s, w, _ = _kernel_rule(t, float(d.max()), c, plain, norm,
                           0.25 * tol - math.exp(tail(c)) - dropped
                           - _rounding(whole + 0.25 * tol, keep.size), policy.max_quad_evals)
    kern = np.empty(keep.size)
    # blocks of points keep every temporary near _BLOCK_POINTS doubles,
    # so the allocator reuses them rather than mapping fresh pages
    step = max(1, _BLOCK_POINTS // s.size)
    for i in range(0, keep.size, step):
        blk = slice(i, i + step)
        kern[blk] = np.sum(_terms(t, lg[blk], d[blk], s, w), axis=1)
    return float(np.sum(weight * kern))
