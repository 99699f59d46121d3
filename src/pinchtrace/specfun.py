"""Gamma and J-Bessel functions of real order p >= -1/2.

The fast path delegates to compiled library code; the ascending power
series oracle is an independent high-precision implementation used by the
test suite to validate the fast path. Orders below -1/2 are rejected:
the series here only ever need w + 1/2 with w >= 0, plus the collapse
case p = -1/2.

Half-integer orders p = n + 1/2 are routed through the spherical Bessel
function, J_{n+1/2}(x) = sqrt(2x/pi) * j_n(x). This is both much faster
than the general real-order routine (the counting series evaluates
hundreds of millions of such terms) and accurate to machine precision
for all x >= 0, including x -> 0 where naive trig closed forms cancel.

The module also holds the numerical helpers the other modules share:
log_sinh, the geometric-tail cut tail_cut and the cached Gauss-Legendre
rule leggauss.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import DomainError, TruncationBudgetError

__all__ = ["gamma", "bessel_j", "bessel_j_half", "bessel_j_oracle"]

_ORACLE_XMAX = 30.0  # ascending series trusted only at moderate argument
_ORACLE_DPS = 50     # worst-case cancellation at x=30 is ~1e11; 50 digits is ample


def gamma(x: float) -> float:
    """Gamma function for 0 < x <= 171.6, where it fits a double.

    Relative error of the libm implementation is a few ulp, well inside
    the 1e-12 contract on (0, 50]. Larger x raises DomainError.
    """
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x}) overflows a double") from None


def log_sinh(x):
    """log(sinh x) for x > 0, overflow-free and accurate as x -> 0.

    A Python float takes the scalar math route, an array numpy's.
    """
    if isinstance(x, float):
        return x - math.log(2.0) + math.log(-math.expm1(-2.0 * x))
    return x - math.log(2.0) + np.log(-np.expm1(-2.0 * x))


def tail_cut(log_env, ell: float, target: float, cap: int) -> int:
    """Smallest N >= 1 with env(N+1)/(1 - e^{-ell/2}) <= target.

    log_env(n) is the log of a non-increasing envelope with
    |term(m)| <= env(n) e^{-(m-n) ell/2} for all m >= n, so the tail
    past N is at most that geometric sum. Doubling, then bisection;
    raises TruncationBudgetError when N would exceed cap.
    """
    limit = math.log(target * -math.expm1(-0.5 * ell))
    lo, n = 0, 1  # the answer lies in (lo, n] once n passes
    while n > cap or log_env(n + 1) > limit:
        if n >= cap:
            raise TruncationBudgetError(
                f"cannot certify tolerance within {cap} terms (length {ell})")
        lo, n = n, min(2 * n, cap)
    while n - lo > 1:
        mid = (lo + n) // 2
        if log_env(mid + 1) <= limit:
            n = mid
        else:
            lo = mid
    return n


@lru_cache(maxsize=32)
def leggauss(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Cached and read-only, since every caller shares the same arrays.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _check_order(p: float) -> float:
    p = float(p)
    if not p >= -0.5:
        raise DomainError(f"Bessel order must be >= -1/2, got {p}")
    return p


def _half_integer_index(p: float) -> int | None:
    """Return n if p == n + 1/2 for an integer n >= 0, else None."""
    n = p - 0.5
    if n >= 0.0 and n == int(n):
        return int(n)
    return None


def bessel_j_half(n: int, x):
    """J_{n+1/2}(x) for integer n >= 0, vectorized over x >= 0.

    Spherical-Bessel route; the hot path of the counting series.
    """
    x = np.asarray(x, dtype=float)
    return _sp.spherical_jn(n, x) * np.sqrt(2.0 * x / np.pi)


def bessel_j(p: float, x: float) -> float:
    """J-Bessel function of the first kind, order p >= -1/2, argument x >= 0.

    Parameters
    ----------
    p : float
        Order, p >= -1/2. For p = -1/2 the argument must be positive.
    x : float
        Argument, x >= 0. Arrays are accepted and mapped elementwise.

    Returns
    -------
    float or ndarray
        J_p(x); at x = 0 this is 1 for p = 0 and 0 for p > 0.
    """
    p = _check_order(p)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise DomainError("bessel_j requires x >= 0")
    if p == -0.5 and np.any(xa == 0.0):
        raise DomainError("J_{-1/2} diverges at x = 0")

    n = _half_integer_index(p)
    if n is not None:
        out = bessel_j_half(n, xa)
    else:
        out = _sp.jv(p, xa)
        if p == 0.0:
            out = np.where(xa == 0.0, 1.0, out)
        elif p > 0.0:
            out = np.where(xa == 0.0, 0.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def bessel_j_oracle(p: float, x: float, terms: int = 60) -> float:
    """Ascending power series for J_p(x), evaluated in 50-digit arithmetic.

    sum_{m=0}^{terms-1} (-1)^m (x/2)^{2m+p} / (m! Gamma(m+p+1))

    Independent of the fast path above; used to validate it. The series
    is only trusted at moderate argument (x <= 30), where `terms` partial
    sums at 50 digits absorb the alternating-series cancellation that
    would destroy a double-precision evaluation.

    Deterministic: fixed summation order, fixed precision.
    """
    p = _check_order(p)
    x = float(x)
    if x < 0.0 or x > _ORACLE_XMAX:
        raise DomainError(f"oracle trusted only on 0 <= x <= {_ORACLE_XMAX}, got {x}")
    if terms < 10:
        raise DomainError(f"oracle needs terms >= 10, got {terms}")
    if x == 0.0:
        if p == -0.5:
            raise DomainError("J_{-1/2} diverges at x = 0")
        return 1.0 if p == 0.0 else 0.0
    import mpmath  # only the oracle needs it; kept off the package import

    with mpmath.workdps(_ORACLE_DPS):
        half = mpmath.mpf(x) / 2
        acc = mpmath.mpf(0)
        for m in range(terms):
            term = (-1) ** m * half ** (2 * m + p) / (
                mpmath.factorial(m) * mpmath.gamma(m + p + 1)
            )
            acc += term
        return float(acc)
