"""Bromwich-contour inversion of Laplace transforms.

A contour is its line Re z = a. Inversion runs along it with composite
33-point Gauss-Kronrod panels, doubling the height from 16/T until two
successive extensions agree or the quadrature budget is spent. Each
extension is one evaluation of the transform on panels of width 2L: the
Kronrod sum is its value, and its difference from the 16-point
Gauss-Legendre rule embedded in the same panels, the error of that rule
at width 2L, is charged to the tail bound. A difference above a small
share of the tolerance redoes the extension at half the panel width, one
well inside it hands 2L on. So panels are narrow where z^{-(w+1)} is
steep near s = 0 and wide in the tail. Extensions are appended, never
recomputed.

Every transform here is that of a real function, F(conj z) = conj F(z):
the sum runs over the upper half-line and takes twice its real part.
weighted_inverse always inverts on a = (w+1)/T, the saddle point of
e^{zT} z^{-(w+1)}; bromwich, the primitive for hand-built transforms,
takes 1/T unless given a line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed import _check, gamma
from .errors import DomainError, TruncationBudgetError, UncertifiedTailWarning
from .policy import DEFAULT_INVERSION_POLICY, TruncationPolicy
from .specfun import _rounding, kronrod

__all__ = [
    "bromwich",
    "weighted_inverse",
    "InversionResult",
]

_GAUSS_NODES = 16  # per panel, embedded in the Kronrod rule's 33
_PANEL_NODES = 2 * _GAUSS_NODES + 1
_EVAL_BLOCK = 262_144
_TERM_ULPS = 4.0  # per term: the exponential and the products w F e^{zT}
_WIDTH_SHARE = 1.0 / 16.0  # of tol(value), for one extension's width check
_WIDEN_MARGIN = 1.0 / 64.0  # of that share: a check passed by this much widens
_START_HEIGHT = 16.0  # times 1/T: a deliberately low first height, doubled as needed
# first L = 2 (16/T) / 41: panels of width pi/(4T) counted over [-16/T, 16/T]
# make 41 panels, whatever T is
_START_PANELS = 41.0


@dataclass(frozen=True)
class InversionResult:
    """Outcome of a contour inversion: value, and tail_bound, its error
    estimate (the last two extensions' magnitudes, every extension's
    Kronrod-Gauss difference and the rounding allowance); evaluations
    counts the transform's nodes, failed width checks included."""

    value: float
    tail_bound: float
    a: float
    s_max: float
    evaluations: int

    def __float__(self) -> float:
        return self.value


def _panel_nodes(s_lo: float, s_hi: float, panels: int):
    """Gauss-Kronrod nodes of n equal panels on [s_lo, s_hi], with their
    Kronrod weights and those of the embedded Gauss rule (0 off its nodes)."""
    x, wk, wg = kronrod(_GAUSS_NODES)
    edges = np.linspace(s_lo, s_hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * wk).ravel(), (half * wg).ravel()


def _rule_sums(F, a: float, T: float, s_lo: float, s_hi: float, panels: int):
    """[(sum, sum of |terms|)] of the terms w F(z) e^{zT}, z = a + is, on
    _panel_nodes, for the Kronrod and then the Gauss weights. One F call per
    block of _EVAL_BLOCK nodes, so F sees one contour block, and peak memory
    is flat: a block holds F's values and one rule's terms at a time, whose
    |terms| overwrite them."""
    s, *weights = _panel_nodes(s_lo, s_hi, panels)
    out = [[0j, 0.0] for _ in weights]
    for lo in range(0, s.size, _EVAL_BLOCK):
        z = a + 1j * s[lo:lo + _EVAL_BLOCK]
        f = np.asarray(F(z), dtype=complex) * np.exp(z * T)
        for acc, w in zip(out, weights):
            terms = w[lo:lo + _EVAL_BLOCK] * f
            acc[0] += complex(np.sum(terms))
            acc[1] += float(np.sum(np.abs(terms, out=terms).real))
    return [tuple(acc) for acc in out]


def _size(x: complex) -> float:
    """|x| / pi, or inf where that does not fit a double."""
    try:
        return abs(x) / math.pi
    except OverflowError:
        return math.inf


def _check_line(T: float, w: float = 0.0) -> None:
    """Refuse T unless it is finite and > 0, and the first height 16/T and
    the saddle line (w+1)/T are finite doubles."""
    if not T > 0.0:
        raise DomainError(f"inversion time must be > 0, got {T}")
    top = max(_START_HEIGHT, w + 1.0)
    if not (T < math.inf and top / T < math.inf):
        raise DomainError(f"inversion time must be finite with {top:g}/T finite, got {T}")


def bromwich(
    F,
    T: float,
    a: float | None = None,
    policy: TruncationPolicy = DEFAULT_INVERSION_POLICY,
) -> InversionResult:
    """Invert a Laplace transform at time T > 0 along the line Re z = a.

    F must be vectorized over a complex ndarray and be the transform of a
    real function. The line defaults to a = 1/T; a must be > 0. The first
    extension reaches height 16/T with L = 2 (16/T) / 41. Each extension
    takes panels of width at most 2L, each with the 33 nodes of the
    Gauss-Kronrod rule: the Kronrod sum is the value, and its difference
    from the embedded 16-point Gauss sum, that rule's error at width 2L, is
    the width check. An extension whose check passes _WIDTH_SHARE of
    tol(value) is redone at half the panel width; one passed by
    _WIDEN_MARGIN of that share hands 2L on as L. The height doubles until
    the two latest extensions land inside tolerance. The tail bound is
    their magnitudes, plus the width checks' differences, plus
    specfun._rounding of the value's terms (4 ulps each, np.sum over
    blocks of at most _EVAL_BLOCK nodes, added in turn).

    DomainError is raised at once for a <= 0, for T <= 0, T = inf or a T
    at which 16/T overflows, and where the integrand is not finite.
    TruncationBudgetError is raised where a width check fails while the
    rounding of both rules' sums passes it too, as no narrower panel can
    then be shown to pass; where the rounding passes tol(value), as on a
    line where the terms cancel down to a far smaller value; where the
    nodes would pass policy.max_quad_evals; and where the height would
    pass the largest double. The error of F itself is F's to bound.
    """
    _check_line(T)
    if a is not None and not a > 0.0:
        raise DomainError(f"contour abscissa must be > 0, got {a}")
    a = 1.0 / T if a is None else a
    s_hi = _START_HEIGHT / T
    width = 2.0 * s_hi / _START_PANELS

    evals = 0
    acc = 0.0 + 0.0j
    mass = 0.0  # sum of the value's terms' absolute values
    charge = 0.0  # sum of the width checks' differences
    deltas: list[float] = []
    s_lo = 0.0
    while True:
        panels = max(1, math.ceil((s_hi - s_lo) / (2.0 * width)))  # of width <= 2L
        narrowed = False
        while True:
            nodes = _PANEL_NODES * panels
            if evals + nodes > policy.max_quad_evals:
                last = f", tail estimate {deltas[-1]:.3e}" if deltas else ""
                raise TruncationBudgetError(
                    f"bromwich: quadrature budget {policy.max_quad_evals} "
                    f"exhausted at s_max = {s_hi:.3e}{last}"
                )
            (chunk, size), (rough, rough_size) = _rule_sums(F, a, T, s_lo, s_hi, panels)
            evals += nodes
            if not math.isfinite(_size(chunk) + _size(rough)):
                raise DomainError(
                    f"bromwich: the integrand is not finite on the contour for T = {T}")
            diff = _size(chunk - rough)
            limit = _WIDTH_SHARE * policy.tol((acc + chunk).real / math.pi)
            if diff <= limit:
                break
            floor = _rounding(size + rough_size, min(nodes, _EVAL_BLOCK), _TERM_ULPS,
                              nodes // _EVAL_BLOCK + 1) / math.pi
            if floor >= limit:
                raise TruncationBudgetError(
                    f"bromwich: rounding allowance {floor:.3e} of the contour sum exceeds "
                    f"tolerance {limit:.3e} of its width check on the line Re z = {a:.6g}"
                )
            panels, narrowed = 2 * panels, True
        widen = not narrowed and diff <= _WIDEN_MARGIN * limit
        width = (1.0 if widen else 0.5) * (s_hi - s_lo) / panels
        acc += chunk
        mass += size
        charge += diff
        value = acc.real / math.pi
        deltas.append(_size(chunk))
        if len(deltas) >= 2 and max(deltas[-1], deltas[-2]) <= policy.tol(value):
            break
        if not 2.0 * s_hi < math.inf:
            raise TruncationBudgetError(
                f"bromwich: the height passes the doubles at s_max = {s_hi:.3e}, "
                f"tail estimate {deltas[-1]:.3e}")
        s_lo, s_hi = s_hi, 2.0 * s_hi

    parts = len(deltas) + evals // _EVAL_BLOCK  # an extension spans <= nodes // block + 1 blocks
    rounding = _rounding(mass, min(evals, _EVAL_BLOCK), _TERM_ULPS, parts) / math.pi
    if not rounding < policy.tol(value):
        raise TruncationBudgetError(
            f"bromwich: rounding allowance {rounding:.3e} of the contour sum exceeds "
            f"tolerance {policy.tol(value):.3e} on the line Re z = {a:.6g}"
        )
    return InversionResult(
        value=value, tail_bound=deltas[-1] + deltas[-2] + charge + rounding,
        a=a, s_max=s_hi, evaluations=evals,
    )


def weighted_inverse(
    trace,
    w: float,
    T: float,
    policy: TruncationPolicy = DEFAULT_INVERSION_POLICY,
) -> float:
    """Weighted counting value at threshold T from a trace on the contour.

    Inverts z -> Gamma(w+1) trace(z) / z^{w+1} along the line Re z = a =
    (w+1)/T, the saddle point of e^{zT} z^{-(w+1)} and the steepest-descent
    choice (Weideman & Trefethen, Math. Comp. 76, 2007), as Gamma(w+1)
    a^{-(w+1)} trace(z) (z/a)^{-(w+1)}: the power is at most 1 on the line,
    and a prefactor that overflows makes the integrand inf, which bromwich
    refuses. The trace is evaluated only on bromwich's nodes. The tail is
    bromwich's two-extension estimate, weakest where the integrand decays
    slowest: for w <= 3/2 the call emits UncertifiedTailWarning once w and
    T have passed their checks.
    """
    w = _check(w, "weight")
    _check_line(T, w)
    log_g = math.log(gamma(w + 1.0))  # gamma refuses a weight whose Gamma(w+1) overflows
    if w <= 1.5:
        warnings.warn(
            f"weighted_inverse: tail not certified for w = {w} <= 3/2",
            UncertifiedTailWarning,
            stacklevel=2,
        )
    a = (w + 1.0) / T
    with np.errstate(over="ignore"):
        g = np.exp(log_g - (w + 1.0) * math.log(a))

    def F(z):
        value = np.asarray(trace(z), dtype=complex)
        with np.errstate(all="ignore"):  # bromwich rejects inf and NaN
            return g * value * (z / a) ** (-(w + 1.0))

    return bromwich(F, T, a, policy).value
