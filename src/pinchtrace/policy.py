"""Truncation and contour policies.

TruncationPolicy governs every infinite series and improper integral in the
package; ContourSpec pins the vertical line and quadrature resolution used
by the inverse Laplace transform. Both are frozen dataclasses so they can
be shared freely across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["TruncationPolicy", "ContourSpec", "DEFAULT_POLICY", "DEFAULT_INVERSION_POLICY",
           "default_contour"]


@dataclass(frozen=True)
class TruncationPolicy:
    """Tolerances and caps for series and quadrature truncation.

    rel_tol and abs_tol must lie in (0, 1); the caps must be >= 1.
    A computation stops once its certified tail bound drops below
    rel_tol * |partial sum| + abs_tol, and raises if the relevant cap
    is hit first.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_terms: int = 100_000_000
    max_quad_evals: int = 2_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if not (0.0 < self.abs_tol < 1.0):
            raise DomainError(f"abs_tol must be in (0, 1), got {self.abs_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.max_quad_evals < 1:
            raise DomainError(f"max_quad_evals must be >= 1, got {self.max_quad_evals}")

    def tol(self, scale: float) -> float:
        """Absolute stopping threshold for a partial sum of magnitude `scale`."""
        return self.rel_tol * abs(scale) + self.abs_tol


@dataclass(frozen=True)
class ContourSpec:
    """Vertical Bromwich line Re(z) = a, truncated at |Im z| <= s_max.

    n_nodes counts quadrature nodes over the full symmetric interval
    [-s_max, s_max]; it must be even (conjugate-symmetry folding halves
    it) and at least 64.
    """

    a: float
    s_max: float
    n_nodes: int

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise DomainError(f"contour abscissa must be > 0, got {self.a}")
        if not self.s_max > 0.0:
            raise DomainError(f"s_max must be > 0, got {self.s_max}")
        if self.n_nodes < 64 or self.n_nodes % 2:
            raise DomainError(
                f"n_nodes must be even and >= 64, got {self.n_nodes}"
            )


DEFAULT_POLICY = TruncationPolicy()

# Inversion tolerances are looser than series tolerances: contour tails
# decay polynomially and each halving of the error doubles the cost.
DEFAULT_INVERSION_POLICY = TruncationPolicy(
    rel_tol=1e-7, abs_tol=1e-10, max_terms=100_000_000, max_quad_evals=20_000_000
)

# the contour sum's rounding, in units of eps times the integrand's size at
# s = 0 times the line's abscissa: log2 of a few million nodes plus a few
# roundings per node, times the width of the peak in units of a
_LINE_ROUNDING = 32.0


def default_contour(T: float, a: float | None = None, s_max: float | None = None,
                    n_nodes: int | None = None, w: float = 0.0, trace=None) -> ContourSpec:
    """Contour for inversion at time T, deriving every field not given.

    a = 1/T balances the e^{aT} growth factor against decay along the
    line, unless the trace shows that the contour sum would round off
    too much there. The sum's terms peak at s = 0, near
    Gamma(w+1) |trace(a)| a^{-(w+1)} e^{aT}, over a width of about a, so
    its rounding is about eps times that times a: on a = 1/T it grows
    like Gamma(w+1) T^w, and the sum cancels it down to the value. Given
    the trace, one evaluation at z = 1/T predicts this charge, and where
    it exceeds DEFAULT_INVERSION_POLICY.abs_tol, the tolerance of a zero
    value, a moves to (w+1)/T, the saddle point of e^{zT} z^{-(w+1)}:
    there the terms do not cancel. s_max = 16/T is a deliberately low
    initial height, later doubled adaptively until two refinements
    agree. The node count matches 16-point panels of width pi/(4T) over
    [-s_max, s_max].
    """
    if not T > 0.0:
        raise DomainError(f"inversion time must be > 0, got {T}")
    if a is None:
        a = 1.0 / T
        if trace is not None and _line_charge(trace, w, a, T) > DEFAULT_INVERSION_POLICY.abs_tol:
            a = (w + 1.0) / T
    s_max = 16.0 / T if s_max is None else s_max
    if n_nodes is None:
        n_nodes = max(64, 16 * (int(2.0 * s_max / (3.141592653589793 / (4.0 * T))) + 1))
    return ContourSpec(a=a, s_max=s_max, n_nodes=n_nodes)


def _line_charge(trace, w: float, a: float, T: float) -> float:
    """Predicted rounding of the contour sum on Re z = a: eps times
    Gamma(w+1) |trace(a)| a^{-w} e^{aT}, in logs so that nothing overflows."""
    size = abs(complex(trace(a)))
    if not size > 0.0:  # a trace that underflows there, or is not finite
        return 0.0 if size == 0.0 else math.inf
    log_charge = (math.log(_LINE_ROUNDING * sys.float_info.epsilon * size)
                  + math.lgamma(w + 1.0) - w * math.log(a) + a * T)
    return math.exp(min(log_charge, 709.0))
