"""The closed forms that need no arrays, kept apart from numpy.

gamma, the direct count N_w(T), the asymptotic constant c_w(T), the
error-balancing epsilon and the 50-digit Bessel series oracle are a few
float (or mpmath) operations each. This module imports neither numpy
nor any module that does, so a CLI call that runs only these pays for
no array library at start-up; counting and specfun import what they use.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .spectrum import SpectralData

__all__ = ["gamma", "counting_direct", "c_weight", "balance_epsilon", "bessel_j_oracle"]

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


def _check(x: float, what: str) -> float:
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{what} must be finite and >= 0, got {x}")
    return x


def counting_direct(sd: SpectralData, w: float, T: float) -> float:
    """N_w(T): weighted eigenvalue count below (and at) the threshold."""
    if not isinstance(sd, SpectralData):
        sd = SpectralData.of(sd)
    w = _check(w, "weight")
    T = _check(T, "threshold")
    total = 0.0
    try:
        for lam, mult in sd.eigenvalues:
            if lam > T:
                break  # ascending order
            total += mult * (T - lam) ** w
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise DomainError(f"N_w(T) overflows a double at w = {w}, T = {T}")
    return total


def c_weight(w: float, T: float) -> float:
    """Asymptotic constant Gamma(w+1)(T-1/4)^{w+1/2}/(sqrt(4 pi) Gamma(w+3/2)).

    A value past the largest double is a DomainError.
    """
    w = _check(w, "weight")
    T = _check(T, "threshold")
    if T < 0.25:
        raise DomainError(f"c_weight requires T >= 1/4, got {T}")
    try:
        c = gamma(w + 1.0) * (T - 0.25) ** (w + 0.5) / (
            math.sqrt(4.0 * math.pi) * gamma(w + 1.5)
        )
    except OverflowError:
        c = math.inf
    if c == math.inf:
        raise DomainError(f"c_w(T) overflows a double at w = {w}, T = {T}")
    return c


def balance_epsilon(f_ell: float, log_sum: float) -> float:
    """Minimizer of max(eps * log_sum, f_ell / eps): eps* = sqrt(f_ell/log_sum).

    Both error terms equal sqrt(f_ell * log_sum) at the balance point.
    Where the quotient leaves the normal doubles, eps* is sqrt(f_ell)/sqrt(log_sum);
    an eps* past the largest double is a DomainError.
    """
    if not f_ell > 0.0:
        raise DomainError(f"f_ell must be > 0, got {f_ell}")
    if not log_sum > 0.0:
        raise DomainError(f"log_sum must be > 0, got {log_sum}")
    q = f_ell / log_sum
    eps = (math.sqrt(q) if sys.float_info.min <= q < math.inf
           else math.sqrt(f_ell) / math.sqrt(log_sum))
    if not eps < math.inf:
        raise DomainError(f"epsilon = sqrt({f_ell}/{log_sum}) overflows a double")
    return eps


def _check_order(p: float) -> float:
    p = float(p)
    if not p >= -0.5:
        raise DomainError(f"Bessel order must be >= -1/2, got {p}")
    return p


def bessel_j_oracle(p: float, x: float, terms: int = 60) -> float:
    """sum_{m<terms} (-1)^m (x/2)^{2m+p} / (m! Gamma(m+p+1)) in 50 digits, J_p(x).

    Independent of specfun's fast path, which it validates; trusted for
    x <= 30, where 50 digits absorb the alternating series' cancellation.
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
