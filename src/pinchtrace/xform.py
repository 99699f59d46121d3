"""Bromwich-contour inversion of Laplace transforms.

A contour is its line Re z = a; everything else follows from the
integrand. Inversion runs along the line with composite 16-point
Gauss-Legendre panels, doubling the truncation height from 16/T until
two successive extensions agree or the policy's quadrature budget is
spent. Each extension is summed at two panel widths, L and 2L, in one
evaluation of the transform; their difference is charged to the tail
bound, a difference above a small share of the tolerance redoes the
extension at L/2, and one well inside it hands 2L to the next extension.
So the width follows the integrand: narrow where z^{-(w+1)} is steep near
s = 0, wide in the tail, where a few slow oscillations multiply a smooth
power. Extensions are appended, never recomputed, so refinement is
incremental and deterministic.

Every transform inverted here is that of a real function, so conjugate
symmetry F(conj z) = conj F(z) holds: the sum runs over the upper half-line
only and takes twice its real part. weighted_inverse alone chooses a line
from the transform (_line); bromwich takes 1/T unless it is given one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed import gamma
from .errors import DomainError, TruncationBudgetError, UncertifiedTailWarning
from .policy import DEFAULT_INVERSION_POLICY, TruncationPolicy
from .specfun import leggauss

__all__ = [
    "bromwich",
    "weighted_inverse",
    "InversionResult",
    "DEFAULT_INVERSION_POLICY",
]

_PANEL_NODES = 16
_EVAL_BLOCK = 262_144
_EPS = float(np.finfo(float).eps)
_TERM_ROUNDINGS = 4  # per term: the exponential and the products w F e^{zT}
_LOG_POWER_MAX = 600.0  # |log| of a power kept well inside the doubles
_WIDTH_SHARE = 1.0 / 16.0  # of tol(value), for one extension's width check
_WIDEN_MARGIN = 1.0 / 64.0  # of that share: a check passed by this much widens
_START_HEIGHT = 16.0  # times 1/T: a deliberately low first height, doubled as needed
# first panel width 2 (16/T) / 41: 16-node panels of width pi/(4T) counted over
# [-16/T, 16/T] make 41 panels, whatever T is
_START_PANELS = 41.0
# the contour sum's rounding, in units of eps times the integrand's size at
# s = 0 times the line's abscissa: log2 of a few million nodes plus a few
# roundings per node, times the width of the peak in units of a
_LINE_ROUNDING = 32.0


@dataclass(frozen=True)
class InversionResult:
    """Outcome of a contour inversion.

    value is the real inverse; tail_bound estimates its error: the last two
    height extensions' magnitudes, plus every extension's width charge (the
    difference between its sums at panel widths L and 2L), plus the
    rounding allowance.
    """

    value: float
    tail_bound: float
    a: float
    s_max: float
    evaluations: int

    def __float__(self) -> float:
        return self.value


def _panel_nodes(s_lo: float, s_hi: float, panels: tuple[int, ...]):
    """Gauss-Legendre nodes and weights of n equal panels on [s_lo, s_hi] for
    each n in panels, one rule after the other."""
    xg, wg = leggauss(_PANEL_NODES)
    s, w = [], []
    for n in panels:
        edges = np.linspace(s_lo, s_hi, n + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        s.append((mid[:, None] + half[:, None] * xg[None, :]).ravel())
        w.append((half[:, None] * wg[None, :]).ravel())
    return np.concatenate(s), np.concatenate(w)


def _rule_sums(F, a: float, T: float, s_lo: float, s_hi: float, panels: tuple[int, ...]):
    """[(sum, sum of |terms|)] of the terms w F(z) e^{zT}, z = a + is, for each
    rule of _panel_nodes. All rules go through one F call per block of
    _EVAL_BLOCK nodes, so F sees one contour block, and peak memory is flat:
    |terms| overwrites the terms, so a block allocates nothing more."""
    s, w = _panel_nodes(s_lo, s_hi, panels)
    bounds = _PANEL_NODES * np.cumsum((0,) + panels)
    out = [[0j, 0.0] for _ in panels]
    for lo in range(0, s.size, _EVAL_BLOCK):
        z = a + 1j * s[lo:lo + _EVAL_BLOCK]
        terms = w[lo:lo + _EVAL_BLOCK] * np.asarray(F(z), dtype=complex) * np.exp(z * T)
        for acc, start, stop in zip(out, bounds, bounds[1:]):
            part = terms[max(start - lo, 0):max(stop - lo, 0)]
            acc[0] += complex(np.sum(part))
            acc[1] += float(np.sum(np.abs(part, out=part).real))
    return [tuple(acc) for acc in out]


def _size(x: complex) -> float:
    """|x| / pi, or inf where that does not fit a double."""
    try:
        return abs(x) / math.pi
    except OverflowError:
        return math.inf


def _check_line(T: float, a: float | None) -> None:
    if not T > 0.0:
        raise DomainError(f"inversion time must be > 0, got {T}")
    if a is not None and not a > 0.0:
        raise DomainError(f"contour abscissa must be > 0, got {a}")


def bromwich(
    F,
    T: float,
    a: float | None = None,
    policy: TruncationPolicy = DEFAULT_INVERSION_POLICY,
) -> InversionResult:
    """Invert a Laplace transform at time T > 0 along the line Re z = a.

    F must be vectorized over a complex ndarray and be the transform of a
    real function. The line defaults to a = 1/T, which balances the e^{aT}
    growth factor against decay along it; a must be > 0. The first
    extension reaches height 16/T with panels of width L = 2 (16/T) / 41.

    Each extension of the height is summed at widths L and 2L, and the
    difference is charged to the tail bound. Past _WIDTH_SHARE of
    tol(value) the extension is redone at L/2, checked against the width-L
    sum; a first check passed by _WIDEN_MARGIN of that share hands 2L to
    the next extension. The height is doubled until the two most recent
    extensions both land inside tolerance. The tail bound is their
    magnitudes, plus the width charges, plus a rounding allowance of
    (log2 N + 4) eps times the sum of the value's terms' absolute values
    (over pi, as the value), N the nodes evaluated.

    DomainError is raised at once for T <= 0 or a <= 0, and where the
    integrand is not finite. TruncationBudgetError is raised where a width
    check fails while the extension's rounding floor, 4 eps times both
    rules' sums of absolute values, passes the check too, since no
    narrower panel can then pass it; where the rounding allowance passes
    tol(value), as it can on a line where the terms cancel down to a far
    smaller value; and where the next sum would take the nodes past
    policy.max_quad_evals. The error of F itself is F's to bound.
    """
    _check_line(T, a)
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
        # panel counts: fine of width <= L, fine // 2 of twice that width
        fine = 2 * max(1, math.ceil((s_hi - s_lo) / (2.0 * width)))
        coarse = None  # the wider rule's (sum, mass), once known
        while True:
            panels = (fine,) if coarse else (fine, fine // 2)
            nodes = _PANEL_NODES * sum(panels)
            if evals + nodes > policy.max_quad_evals:
                last = f", tail estimate {deltas[-1]:.3e}" if deltas else ""
                raise TruncationBudgetError(
                    f"bromwich: quadrature budget {policy.max_quad_evals} "
                    f"exhausted at s_max = {s_hi:.3e}{last}"
                )
            sums = _rule_sums(F, a, T, s_lo, s_hi, panels)
            evals += nodes
            (chunk, size), (rough, rough_size) = sums[0], coarse or sums[1]
            if not math.isfinite(_size(chunk) + _size(rough)):
                raise DomainError(
                    f"bromwich: the integrand is not finite on the contour for T = {T}")
            diff = _size(chunk - rough)
            limit = _WIDTH_SHARE * policy.tol((acc + chunk).real / math.pi)
            if diff <= limit:
                break
            floor = _TERM_ROUNDINGS * _EPS * (size + rough_size) / math.pi
            if floor >= limit:
                raise TruncationBudgetError(
                    f"bromwich: rounding allowance {floor:.3e} of the contour sum exceeds "
                    f"tolerance {limit:.3e} of its width check on the line Re z = {a:.6g}"
                )
            coarse, fine = sums[0], 2 * fine
        widen = coarse is None and diff <= _WIDEN_MARGIN * limit
        width = (2.0 if widen else 1.0) * (s_hi - s_lo) / fine
        acc += chunk
        mass += size
        charge += diff
        value = acc.real / math.pi
        deltas.append(_size(chunk))
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
        value=value, tail_bound=deltas[-1] + deltas[-2] + charge + rounding,
        a=a, s_max=s_hi, evaluations=evals,
    )


def _line(trace, w: float, T: float) -> float:
    """The line Re z = a for inverting Gamma(w+1) trace(z) / z^{w+1} at T.

    a = 1/T, unless the trace shows that the contour sum would round off
    too much there. The sum's terms peak at s = 0, near
    Gamma(w+1) |trace(a)| a^{-(w+1)} e^{aT}, over a width of about a, so
    its rounding is about eps times that times a: on a = 1/T it grows
    like Gamma(w+1) T^w, and the sum cancels it down to the value. One
    trace evaluation at z = 1/T predicts this charge (in logs, so that
    nothing overflows), and where it exceeds DEFAULT_INVERSION_POLICY's
    abs_tol, the tolerance of a zero value, a moves to (w+1)/T, the
    saddle point of e^{zT} z^{-(w+1)}: there the terms do not cancel.
    """
    a = 1.0 / T
    size = abs(complex(trace(a)))
    if not size > 0.0:  # one that underflows there keeps 1/T, inf or NaN moves it
        return a if size == 0.0 else (w + 1.0) / T
    log_charge = (math.log(_LINE_ROUNDING * _EPS * size)
                  + math.lgamma(w + 1.0) - w * math.log(a) + a * T)
    charge = math.exp(min(log_charge, 709.0))
    return (w + 1.0) / T if charge > DEFAULT_INVERSION_POLICY.abs_tol else a


def weighted_inverse(
    trace,
    w: float,
    T: float,
    a: float | None = None,
    policy: TruncationPolicy = DEFAULT_INVERSION_POLICY,
) -> float:
    """Weighted counting value at threshold T from a trace on the contour.

    Inverts z -> Gamma(w+1) trace(z) / z^{w+1} along Re z = a. No weight
    has a closed tail certificate: the tail is bromwich's two-extension
    estimate at every w, weakest at small w, where the integrand decays
    slowest along the line, so for w <= 3/2 the call emits
    UncertifiedTailWarning once w, T and a have passed their checks.
    Without a, _line picks it from the trace: 1/T, or the saddle line
    (w+1)/T where one trace evaluation predicts that 1/T would round off
    too much.
    """
    if not w >= 0.0:
        raise DomainError(f"weight must be >= 0, got {w}")
    _check_line(T, a)
    g, unit = gamma(w + 1.0), 1.0
    if a is None:
        a = _line(trace, w, T)
    if w <= 1.5:
        warnings.warn(
            f"weighted_inverse: tail not certified for w = {w} <= 3/2",
            UncertifiedTailWarning,
            stacklevel=2,
        )
    log_a = math.log(a)
    log_g = math.lgamma(w + 1.0) - (w + 1.0) * log_a
    if (w + 1.0) * abs(log_a) > _LOG_POWER_MAX >= abs(log_g):
        # z^-(w+1) nears the end of the doubles where Gamma(w+1) a^-(w+1) does
        # not (on the saddle line of a large weight): take the power of z/a
        g, unit = math.exp(log_g), a

    def F(z):
        value = g * np.asarray(trace(z), dtype=complex)
        with np.errstate(all="ignore"):  # bromwich rejects inf and NaN
            return value * (z / unit) ** (-(w + 1.0))

    return bromwich(F, T, a, policy).value
