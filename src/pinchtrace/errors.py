"""Exception hierarchy shared by every module.

Domain violations (bad arguments, bad schemas) and numerical failures
(budgets exhausted, tails that cannot be certified) are kept on separate
branches so the CLI can map them to distinct exit codes.
"""

__all__ = [
    "PinchtraceError",
    "DomainError",
    "SchemaError",
    "TruncationBudgetError",
    "UncertifiedTailWarning",
]


class PinchtraceError(Exception):
    """Base class for everything raised deliberately by this package."""


class DomainError(PinchtraceError, ValueError):
    """An argument is outside the documented domain of an operation."""


class SchemaError(PinchtraceError, ValueError):
    """An input document failed validation.

    The message names the first offending field as a path plus a reason,
    e.g. ``pinching[0]: must be > 0``.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class TruncationBudgetError(PinchtraceError, RuntimeError):
    """A tail bound or rounding allowance could not certify tolerance within
    the policy's budget (max_terms terms or max_quad_evals nodes)."""


class UncertifiedTailWarning(UserWarning):
    """weighted_inverse at w <= 3/2, where the integrand decays slowest and the
    two-extension tail estimate, the only one any inversion has, is weakest."""
