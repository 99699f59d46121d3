"""Bromwich-contour inversion of Laplace transforms.

Inversion runs along the vertical line Re z = a with composite
Gauss-Legendre panels narrow enough (width <= pi/4T) to resolve the e^{isT}
oscillation, doubling the truncation height s_max until two successive
extensions agree or the policy's quadrature budget is spent; panels are
appended, never recomputed, so refinement is incremental and deterministic.

Every transform inverted here is that of a real function, so conjugate
symmetry F(conj z) = conj F(z) holds: the sum runs over the upper half-line
only and takes twice its real part.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed import gamma
from .errors import DomainError, TruncationBudgetError, UncertifiedTailWarning
from .policy import DEFAULT_INVERSION_POLICY, ContourSpec, TruncationPolicy, default_contour
from .specfun import leggauss

__all__ = [
    "bromwich",
    "weighted_inverse",
    "InversionResult",
    "ContourSpec",
    "DEFAULT_INVERSION_POLICY",
]

_PANEL_NODES = 16
_EVAL_BLOCK = 262_144
_EPS = float(np.finfo(float).eps)
_TERM_ROUNDINGS = 4  # per term: the exponential and the products w F e^{zT}
_LOG_POWER_MAX = 600.0  # |log| of a power kept well inside the doubles


@dataclass(frozen=True)
class InversionResult:
    """Outcome of a contour inversion.

    value is the real inverse; tail_bound estimates the truncation error
    from the last two height doublings, plus the rounding allowance.
    """

    value: float
    tail_bound: float
    a: float
    s_max: float
    evaluations: int

    def __float__(self) -> float:
        return self.value


def _panel_nodes(edges_lo: float, edges_hi: float, width_cap: float):
    """Gauss-Legendre nodes and weights covering [edges_lo, edges_hi]."""
    span = edges_hi - edges_lo
    n_panels = max(1, int(math.ceil(span / width_cap)))
    edges = np.linspace(edges_lo, edges_hi, n_panels + 1)
    xg, wg = leggauss(_PANEL_NODES)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return s, w


def _sums(terms: np.ndarray) -> tuple[complex, float]:
    """(sum of terms, sum of |terms|). Overwrites terms, so that no block is
    allocated, and drops them on return, before the next block is made."""
    total = complex(np.sum(terms))
    np.abs(terms, out=terms)
    return total, float(np.sum(terms.real))


def bromwich(
    F,
    T: float,
    contour: ContourSpec | None = None,
    policy: TruncationPolicy = DEFAULT_INVERSION_POLICY,
) -> InversionResult:
    """Invert a Laplace transform at time T > 0 along a vertical contour.

    F must be vectorized over a complex ndarray and be the transform of a
    real function. The line and starting height come from `contour` (or
    default_contour(T)); the height is doubled until the two most recent
    extensions both land inside tolerance. The reported tail bound is the
    sum of their magnitudes plus a rounding allowance of (log2 N + 4) eps
    times the sum of the N terms' absolute values (over pi, as the value).
    TruncationBudgetError is raised where an extension would take the
    nodes past policy.max_quad_evals, and where the allowance alone passes
    tol(value), as it can on a line where the terms cancel down to a far
    smaller value. The error of F itself is F's to bound.
    """
    if not T > 0.0:
        raise DomainError(f"bromwich requires T > 0, got {T}")
    width_cap = math.pi / (4.0 * T)
    if contour is None:
        contour = default_contour(T)
    elif contour.n_nodes > default_contour(T, s_max=contour.s_max).n_nodes:
        # honor a finer node density than the default derives for this height
        width_cap = 2.0 * contour.s_max / (contour.n_nodes / _PANEL_NODES)
    a, s_hi = contour.a, contour.s_max

    evals = 0
    acc = 0.0 + 0.0j
    mass = 0.0  # sum of the terms' absolute values
    deltas: list[float] = []
    s_lo = 0.0
    while True:
        s, w = _panel_nodes(s_lo, s_hi, width_cap)
        if evals + s.size > policy.max_quad_evals:
            last = f", tail estimate {deltas[-1]:.3e}" if deltas else ""
            raise TruncationBudgetError(
                f"bromwich: quadrature budget {policy.max_quad_evals} "
                f"exhausted at s_max = {s_hi:.3e}{last}"
            )
        chunk = 0.0 + 0.0j
        # keep peak memory flat: late extensions hold millions of nodes
        for lo in range(0, s.size, _EVAL_BLOCK):
            z = a + 1j * s[lo:lo + _EVAL_BLOCK]
            part, size = _sums(w[lo:lo + _EVAL_BLOCK] * np.asarray(F(z), dtype=complex)
                               * np.exp(z * T))
            chunk += part
            mass += size
        evals += s.size
        acc += chunk
        value = acc.real / math.pi
        try:
            deltas.append(abs(chunk) / math.pi)
        except OverflowError:
            deltas.append(math.inf)
        if not math.isfinite(deltas[-1]):
            raise DomainError(f"bromwich: the integrand is not finite on the contour for T = {T}")
        if len(deltas) >= 2 and max(deltas[-1], deltas[-2]) <= policy.tol(value):
            break
        s_lo, s_hi = s_hi, 2.0 * s_hi

    rounding = (math.log2(evals) + _TERM_ROUNDINGS) * _EPS * mass / math.pi
    if not rounding < policy.tol(value):
        raise TruncationBudgetError(
            f"bromwich: rounding allowance {rounding:.3e} of the contour sum exceeds "
            f"tolerance {policy.tol(value):.3e} on the line Re z = {a:.6g}"
        )
    return InversionResult(
        value=value, tail_bound=deltas[-1] + deltas[-2] + rounding,
        a=a, s_max=s_hi, evaluations=evals,
    )


def weighted_inverse(
    trace,
    w: float,
    T: float,
    contour: ContourSpec | None = None,
    policy: TruncationPolicy = DEFAULT_INVERSION_POLICY,
) -> float:
    """Weighted counting value at threshold T from a trace on the contour.

    Inverts z -> Gamma(w+1) trace(z) / z^{w+1}. No weight has a closed
    tail certificate: the tail is bromwich's two-extension estimate at every
    w, weakest at small w, where the integrand decays slowest along the
    line, so for w <= 3/2 the call emits UncertifiedTailWarning. Without a
    contour, default_contour(T, w=w, trace=trace) picks the line: a = 1/T,
    or the saddle line (w+1)/T where one trace evaluation predicts that
    1/T would round off too much.
    """
    if not w >= 0.0:
        raise DomainError(f"weight must be >= 0, got {w}")
    if w <= 1.5:
        warnings.warn(
            f"weighted_inverse: tail not certified for w = {w} <= 3/2",
            UncertifiedTailWarning,
            stacklevel=2,
        )
    g, unit = gamma(w + 1.0), 1.0
    if contour is None:
        contour = default_contour(T, w=w, trace=trace)
    log_a = math.log(contour.a)
    log_g = math.lgamma(w + 1.0) - (w + 1.0) * log_a
    if (w + 1.0) * abs(log_a) > _LOG_POWER_MAX >= abs(log_g):
        # z^-(w+1) nears the end of the doubles where Gamma(w+1) a^-(w+1) does
        # not (on the saddle line of a large weight): take the power of z/a
        g, unit = math.exp(log_g), contour.a

    def F(z):
        value = g * np.asarray(trace(z), dtype=complex)
        with np.errstate(all="ignore"):  # bromwich rejects inf and NaN
            return value * (z / unit) ** (-(w + 1.0))

    return bromwich(F, T, contour=contour, policy=policy).value
