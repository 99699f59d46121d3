"""Heat kernel on the hyperbolic plane and cylinder geometry.

The kernel at distance rho is the classical integral

    K(t, rho) = sqrt(2) e^{-t/4} / (4 pi t)^{3/2}
                * int_rho^inf u e^{-u^2/4t} du / sqrt(cosh u - cosh rho)

with an integrable inverse-square-root singularity at u = rho. The
substitution u = rho + v^2 removes it exactly:

    cosh u - cosh rho = 2 sinh(rho + v^2/2) sinh(v^2/2)

so the dv-integrand is smooth and Gaussian-decaying. All sinh factors are
evaluated in log space; the direct product overflows for large rho while
the kernel itself is tiny.

Time is always the first argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import leggauss, log_sinh, tail_cut

__all__ = [
    "heat_kernel",
    "heat_kernel_origin",
    "cylinder_displacement",
    "cylinder_trace",
]

# e^{-GAUSS_CUT} is the neglected Gaussian mass; 49 keeps the truncated
# tail far below any policy tolerance in (0, 1).
_GAUSS_CUT = 49.0

# mesh refinement ladder for the fixed-order Gauss-Legendre rules
_GROWTH = 1.5

# kernel grid points per block of cylinder_trace (64k doubles = 512 kB a temporary)
_BLOCK_POINTS = 1 << 16

# log of half the smallest subnormal: a value below e^this rounds to 0
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)


def _log_sinhc(x):
    """log(sinh(x)/x) for x >= 0, continuous through 0."""
    small = x < 1e-8
    xs = np.where(small, 1.0, x)
    return np.where(small, np.log1p(x * x / 6.0), log_sinh(xs) - np.log(xs))


def _kernel_grid(t: float, rho: np.ndarray, nn: int) -> np.ndarray:
    """K(t, .) on an array of distances with an nn-node rule per point."""
    rho = np.asarray(rho, dtype=float)
    amp = math.sqrt(2.0) * math.exp(-t / 4.0) / (4.0 * math.pi * t) ** 1.5
    vmax = np.sqrt(np.sqrt(rho * rho + 4.0 * t * _GAUSS_CUT) - rho)
    xg, wg = leggauss(nn)
    v = 0.5 * vmax[:, None] * (xg[None, :] + 1.0)
    wv = 0.5 * vmax[:, None] * wg[None, :]
    u = rho[:, None] + v * v
    # g(v) = 2 u e^{-u^2/4t} / sqrt(sinh(rho + v^2/2) * sinhc(v^2/2) * v^2 ...)
    # assembled in log space; the 1/sqrt(v^2) piece cancels into sinhc.
    lg = (
        np.log(2.0 * u)
        - u * u / (4.0 * t)
        - 0.5 * (log_sinh(rho[:, None] + 0.5 * v * v) + _log_sinhc(0.5 * v * v))
    )
    return amp * np.sum(wv * np.exp(lg), axis=1)


def _refine(levels, evaluate, policy: TruncationPolicy, label: str,
            cost=lambda level: level) -> float:
    """Run `evaluate` over a mesh ladder until two levels agree.

    Each level charges cost(level) quadrature nodes against max_quad_evals.
    """
    spent = 0
    prev = None
    for level in levels:
        spent += cost(level)
        if spent > policy.max_quad_evals:
            raise NonConvergenceError(
                f"{label}: quadrature budget {policy.max_quad_evals} exhausted"
            )
        cur = evaluate(level)
        if prev is not None and abs(cur - prev) <= policy.tol(cur):
            return cur
        prev = cur
    raise NonConvergenceError(f"{label}: mesh refinement did not converge")


def _ladder(start: int, count: int = 9):
    nn = start
    for _ in range(count):
        yield nn
        nn = int(math.ceil(nn * _GROWTH))


def heat_kernel(t: float, rho: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Hyperbolic heat kernel K(t, rho) at time t > 0 and distance rho >= 0.

    Gauss-Legendre on the desingularized integrand, with the node count
    increased by half until two successive levels agree within policy
    tolerance.
    """
    if not t > 0.0:
        raise DomainError(f"heat_kernel requires t > 0, got {t}")
    if not rho >= 0.0:
        raise DomainError(f"heat_kernel requires rho >= 0, got {rho}")
    t, rho = float(t), float(rho)
    # K(t, rho) <= e^{-t/4 - rho^2/4t}/(4 pi t), as cosh u - cosh rho >= (u^2 - rho^2)/2:
    # where that underflows, so does K, and the quadrature's range would overflow
    if -0.25 * t - rho * rho / (4.0 * t) - math.log(4.0 * math.pi * t) < _LOG_UNDERFLOW:
        return 0.0
    if not (4.0 * math.pi * t) ** 1.5 > 0.0:
        raise DomainError(f"heat_kernel: (4 pi t)^(3/2) underflows a double at t = {t}")
    arr = np.array([rho])
    return _refine(
        _ladder(64),
        lambda nn: float(_kernel_grid(t, arr, nn)[0]),
        policy,
        "heat_kernel",
    )


def heat_kernel_origin(t: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """K(t, 0) via the on-diagonal spectral integral.

    (1/2 pi) int_0^inf e^{-(1/4 + r^2) t} tanh(pi r) r dr, truncated where
    the Gaussian tail falls below tolerance.
    """
    if not t > 0.0:
        raise DomainError(f"heat_kernel_origin requires t > 0, got {t}")
    rmax = math.sqrt(_GAUSS_CUT / t) + 2.0

    def evaluate(nn: int) -> float:
        xg, wg = leggauss(nn)
        r = 0.5 * rmax * (xg + 1.0)
        w = 0.5 * rmax * wg
        f = np.exp(-(0.25 + r * r) * t) * np.tanh(math.pi * r) * r
        return float(np.sum(w * f)) / (2.0 * math.pi)

    return _refine(_ladder(96), evaluate, policy, "heat_kernel_origin")


def cylinder_displacement(ell: float, n: int, v: float) -> float:
    """Orbit displacement on the hyperbolic cylinder of core length ell.

    The n-th generator power moves the cross-section point with
    parameter v (v = cot theta in the upper half-plane) by d >= |n| ell:

        cosh d = 1 + 2 sinh^2(n ell / 2) (1 + v^2)
    """
    if not ell > 0.0:
        raise DomainError(f"cylinder requires ell > 0, got {ell}")
    if n == 0:
        raise DomainError("displacement is defined for nonzero powers only")
    half = 0.5 * abs(n) * ell
    v2 = float(v) * float(v)
    if v2 == 0.0:
        return abs(n) * ell  # on-axis: translation length exactly
    if half > 300.0:
        # acosh(y) ~ log(2y) once cosh overflows
        return abs(n) * ell + math.log1p(v2) + 2.0 * math.log1p(-math.exp(-2.0 * half))
    s = math.sinh(half)
    d = math.acosh(1.0 + 2.0 * s * s * (1.0 + v2))
    return max(d, abs(n) * ell)


def cylinder_trace(ell: float, t: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Regularized heat trace of the hyperbolic cylinder by unfolding.

    Computes (1/2) ell int_R sum_{n != 0} K(t, d_n(v)) dv where d_n(v) is
    cylinder_displacement. The v-integral uses the substitution
    v = e^w - 1 so the far field (where d ~ 2 log v) becomes Gaussian in
    w; symmetry reduces everything to n >= 1, v >= 0 with a factor 4.

    The n-sum is certified: it is cut where the geometric tail of the
    closed-form term envelope ell/sinh(n ell/2) e^{-(n ell)^2/4t} falls
    within tolerance of the n = 1 term, with a hard cap of 1e5 terms.
    ell below 0.05 is rejected: the pre-decay sum length ~2/ell would
    blow the quadrature budget, and the closed-form route in the trace
    module has no such limit.
    """
    if not t > 0.0:
        raise DomainError(f"cylinder_trace requires t > 0, got {t}")
    if not ell > 0.0:
        raise DomainError(f"cylinder requires ell > 0, got {ell}")
    if ell < 0.05:
        raise DomainError(
            f"cylinder_trace guard: ell >= 0.05 required, got {ell}"
        )

    # n-cut from the closed-form envelope of the unfolded terms; a product,
    # not ** 2, so that a huge n ell gives inf rather than OverflowError
    def log_env(n):
        return math.log(ell) - log_sinh(0.5 * n * ell) - (n * ell) * (n * ell) / (4.0 * t)

    # the trace is the closed form e^{-t/4} (16 pi t)^{-1/2} sum_n env(n), at
    # most its n = 1 term over 1 - e^{-ell/2}: where that underflows, so does it
    if math.exp(log_env(1) - 0.25 * t - 0.5 * math.log(16.0 * math.pi * t)
                - math.log(-math.expm1(-0.5 * ell))) == 0.0:
        return 0.0
    count = tail_cut(log_env, ell, policy.tol(math.exp(log_env(1))),
                     min(100_000, policy.max_terms))
    narr = np.arange(1, count + 1, dtype=float)

    # per-n outer range: displacements beyond D contribute below the
    # Gaussian cut, so v_max solves cosh d(v_max) = cosh D
    dcut = np.sqrt((narr * ell) ** 2 + 4.0 * t * _GAUSS_CUT)
    log_vmax = log_sinh(0.5 * dcut) - log_sinh(0.5 * narr * ell)
    wmax = np.log1p(np.exp(np.minimum(log_vmax, 700.0)))

    def evaluate(level) -> float:
        outer_nn, inner_nn = level
        xg, wg = leggauss(outer_nn)
        rows = np.empty(count)
        # blocks of n-rows keep every temporary near _BLOCK_POINTS doubles,
        # so the allocator reuses them rather than mapping fresh pages
        step = max(1, _BLOCK_POINTS // (outer_nn * inner_nn))
        for i in range(0, count, step):
            blk = slice(i, i + step)
            wn = 0.5 * wmax[blk, None] * (xg[None, :] + 1.0)
            ww = 0.5 * wmax[blk, None] * wg[None, :]
            v = np.expm1(wn)
            # log(cosh d - 1) = log(2 sinh^2(n ell/2) (1 + v^2)); overflow-safe
            lc = (math.log(2.0) + 2.0 * log_sinh(0.5 * narr[blk, None] * ell)
                  + np.log1p(v * v))
            d = np.where(
                lc > 40.0,
                lc + math.log(2.0),
                np.arccosh(1.0 + np.exp(np.minimum(lc, 41.0))),
            )
            kern = _kernel_grid(t, d.ravel(), inner_nn).reshape(d.shape)
            rows[blk] = np.sum(ww * kern * (v + 1.0), axis=1)  # dv = (1+v) dw
        return 2.0 * ell * float(np.sum(rows))

    return _refine(((96, 64), (160, 96), (288, 160), (512, 288)), evaluate, policy,
                   "cylinder_trace", cost=lambda level: count * level[0])
