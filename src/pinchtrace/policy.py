"""Truncation policies.

TruncationPolicy governs every infinite series, improper integral and
contour inversion in the package. It is a frozen dataclass so it can be
shared freely across threads. The contour itself is chosen by the
inversion (xform), from the transform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = ["TruncationPolicy", "DEFAULT_POLICY", "DEFAULT_INVERSION_POLICY"]


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


DEFAULT_POLICY = TruncationPolicy()

# Inversion tolerances are looser than series tolerances: contour tails
# decay polynomially and each halving of the error doubles the cost. The
# budget is about 25 times the slowest-decaying inversion in the tests, w = 0
# at ell = 0.1: 15 extensions of bromwich's height, 312,432 nodes.
DEFAULT_INVERSION_POLICY = TruncationPolicy(
    rel_tol=1e-7, abs_tol=1e-10, max_terms=100_000_000, max_quad_evals=8_000_000
)
