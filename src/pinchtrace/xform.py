"""Bromwich-contour inversion of Laplace transforms.

Inversion runs along the vertical line Re z = a with composite
Gauss-Legendre panels narrow enough (width <= pi/4T) to resolve the e^{isT}
oscillation, doubling the truncation height s_max until two successive
extensions agree; panels are appended, never recomputed, so refinement is
incremental and deterministic.

Conjugate symmetry F(conj z) = conj F(z) holds for every transform of a
real function, so the default path integrates the upper half-line only and
doubles the real part. fold=False integrates both half-lines and measures
the imaginary residue instead; use it to diagnose a suspect contour or a
non-real inverse.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed import gamma
from .errors import (
    DomainError,
    ImaginaryResidueError,
    TailEstimateError,
    TruncationBudgetError,
    UncertifiedTailWarning,
)
from .policy import DEFAULT_INVERSION_POLICY, ContourSpec, TruncationPolicy, default_contour
from .specfun import leggauss

__all__ = [
    "bromwich",
    "weighted_inverse",
    "InversionResult",
    "ContourSpec",
    "DEFAULT_INVERSION_POLICY",
]

_MAX_DOUBLINGS = 14
_PANEL_NODES = 16
_EVAL_BLOCK = 262_144
_EPS = float(np.finfo(float).eps)
_TERM_ROUNDINGS = 4  # per term: the exponential and the products w F e^{zT}
_LOG_POWER_MAX = 600.0  # |log| of a power kept well inside the doubles


@dataclass(frozen=True)
class InversionResult:
    """Outcome of a contour inversion.

    value is the real inverse; tail_bound estimates the truncation error
    from the last two height doublings; imag_residue is only measured on
    the unfolded path (0.0 when folded).
    """

    value: float
    tail_bound: float
    imag_residue: float
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
    fold: bool = True,
) -> InversionResult:
    """Invert a Laplace transform at time T > 0 along a vertical contour.

    F must be vectorized over a complex ndarray. The line and starting
    height come from `contour` (or default_contour(T)); the height is
    doubled until the two most recent extensions both land inside
    tolerance. The reported tail bound is the sum of their magnitudes
    plus a rounding allowance of (log2 N + 4) eps times the sum of the
    N terms' absolute values (over pi, as the value): on a line where
    the terms cancel down to a far smaller value, the allowance alone
    can pass tol(value), and then the call raises TruncationBudgetError.
    The error of F itself is F's to bound.
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
    share = 1.0 if fold else 0.5  # of each half-line in the value

    evals = 0
    acc = 0.0 + 0.0j
    mass = 0.0  # sum of the terms' absolute values
    deltas: list[float] = []
    s_lo = 0.0
    for _ in range(_MAX_DOUBLINGS + 1):
        s, w = _panel_nodes(s_lo, s_hi, width_cap)
        if evals + s.size * (1 if fold else 2) > policy.max_quad_evals:
            raise TruncationBudgetError(
                f"bromwich: quadrature budget {policy.max_quad_evals} "
                f"exhausted at s_max = {s_hi:.3e}"
            )
        chunk = 0.0 + 0.0j
        # keep peak memory flat: late extensions hold millions of nodes
        for lo in range(0, s.size, _EVAL_BLOCK):
            sb, wb = s[lo:lo + _EVAL_BLOCK], w[lo:lo + _EVAL_BLOCK]
            z = a + 1j * sb
            up, size = _sums(wb * np.asarray(F(z), dtype=complex) * np.exp(z * T))
            mass += share * size
            if fold:
                chunk += up
            else:
                zm = a - 1j * sb
                dn, size = _sums(wb * np.asarray(F(zm), dtype=complex) * np.exp(zm * T))
                mass += share * size
                chunk += 0.5 * (up + dn)
        if not fold:
            evals += s.size
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
    else:
        raise TailEstimateError(
            f"bromwich: tail estimate {deltas[-1]:.3e} still above tolerance "
            f"at s_max = {s_hi:.3e}"
        )

    rounding = (math.log2(evals) + _TERM_ROUNDINGS) * _EPS * mass / math.pi
    if not rounding < policy.tol(value):
        raise TruncationBudgetError(
            f"bromwich: rounding allowance {rounding:.3e} of the contour sum exceeds "
            f"tolerance {policy.tol(value):.3e} on the line Re z = {a:.6g}"
        )
    tail = deltas[-1] + deltas[-2] + rounding
    imag = abs(acc.imag) / math.pi if not fold else 0.0
    if not fold and imag > 10.0 * policy.tol(value):
        raise ImaginaryResidueError(
            f"bromwich: imaginary residue {imag:.3e} signals a non-real "
            f"inverse or a bad contour"
        )
    return InversionResult(
        value=value, tail_bound=tail, imag_residue=imag,
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

    Inverts z -> Gamma(w+1) trace(z) / z^{w+1}. Weights w <= 3/2 carry no
    closed tail certificate from the generic contour decay bound, so the
    call emits UncertifiedTailWarning and relies on the adaptive height
    refinement alone; geodesic and eigenvalue traces decay termwise fast
    enough in practice. Without a contour, default_contour(T, w=w,
    trace=trace) picks the line: a = 1/T, or the saddle line (w+1)/T
    where one trace evaluation predicts that 1/T would round off too much.
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
