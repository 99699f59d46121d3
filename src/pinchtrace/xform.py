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
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

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
_EVAL_BLOCK = 262_144 // _PANEL_NODES  # panels (rows of 33 nodes) per F call
_KERNEL_NODES = 1 << 18  # the kernel cache's budget: 4 MiB of complex nodes
# per term, in eps: the exponential (2), the weight and its product (1), the
# kernel's factor and F's value (a complex product each, sqrt5/2); the
# argument of e^{zT} adds |zT|/2 unless T is a power of two (_term_ulps)
_TERM_ULPS = 2.0 + 1.0 + math.sqrt(5.0)
_GAUSS_ULPS = 1.0  # more per Gauss term: the weight ratio and its product
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


@lru_cache(maxsize=1)
def _gauss_columns():
    """The embedded Gauss rule's columns and their weight ratios wg/wk."""
    _, wk, wg = kronrod(_GAUSS_NODES)
    gauss = np.flatnonzero(wg)
    return gauss, wg[gauss] / wk[gauss]


def _grid(s_lo: float, s_hi: float, panels: int):
    """The Gauss-Kronrod nodes of n equal panels on [s_lo, s_hi] as an exact
    grid: s = c_p + d_k, c_p the panel's centre and d_k the column's offset,
    both rounded to the binary grid of q = ulp(s_hi), so that every sum is
    exact and each row is an exact shift of the others. A node moves from
    the exact rule's by the rounding of its centre's arithmetic and of both
    parts to the grid, a few q at most (1.43 q at most on 300 random
    extensions). With the Kronrod and the embedded Gauss weights (0 off its
    columns), one per column."""
    x, wk, wg = kronrod(_GAUSS_NODES)
    q, half = math.ulp(s_hi), 0.5 * (s_hi - s_lo) / panels
    centres = np.round((s_lo + half * (2.0 * np.arange(panels) + 1.0)) / q) * q
    return centres, np.round(half * x / q) * q, half * wk, half * wg


class _Weighted:
    """The transform Gamma(w+1) trace(z) z^{-(w+1)}, taken as trace(z) times
    the factor g (z/a)^{-(w+1)}, g = Gamma(w+1) a^{-(w+1)}: called, it is the
    whole integrand; bromwich puts the factor in its cached kernel and calls
    trace alone."""

    def __init__(self, trace, w: float, a: float, g: float):
        self.trace, self.w, self.a, self.g = trace, w, a, g

    def factor(self, z):
        return self.g * (z / self.a) ** (-(self.w + 1.0))

    def __call__(self, z):
        value = np.asarray(self.trace(z), dtype=complex)
        with np.errstate(all="ignore"):  # bromwich rejects inf and NaN
            return value * self.factor(z)


class _Kernels:
    """Extension kernels, w e^{zT} times _Weighted's factor, one complex per
    node, each with its grid's centres and offsets, in a thread-safe LRU of
    at most budget nodes, on (a, T, w or None, s_lo, s_hi, panels): an
    extension's kernel depends on its line alone. An extension larger than
    the budget is never kept. The budget counts nodes, not contours, so a
    caller who cycles through more contours than a count cap would allow
    still finds each one."""

    def __init__(self, budget: int):
        self.budget, self.nodes = budget, 0
        self.entries: OrderedDict = OrderedDict()
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            kernel = self.entries.get(key)
            if kernel is not None:
                self.entries.move_to_end(key)
            return kernel

    def put(self, key, entry: tuple) -> None:
        """Keep entry, (centres, offsets, kernel), read-only."""
        if entry[-1].size > self.budget:
            return
        for part in entry:
            part.flags.writeable = False  # shared by every later call
        with self.lock:
            old = self.entries.pop(key, None)
            self.nodes += entry[-1].size - (0 if old is None else old[-1].size)
            self.entries[key] = entry
            while self.nodes > self.budget:
                self.nodes -= self.entries.popitem(last=False)[1][-1].size

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.nodes = 0


_kernels = _Kernels(_KERNEL_NODES)


def _rule_sums(F, a: float, T: float, s_lo: float, s_hi: float, panels: int):
    """[(sum, sum of |terms|)] of the terms w F(z) e^{zT}, z = a + is, on
    _grid's nodes, for the Kronrod and then the Gauss weights.

    F sees the nodes as a (panels, 33) array, a block of at most _EVAL_BLOCK
    rows at a time, so peak memory is flat, and its value is raveled. Each
    term is F's value times the extension's kernel, w e^{zT} (times the
    factor of a _Weighted F, which is then called for its trace alone),
    taken with the grid from _kernels or built block by block and kept
    there (an extension past the cache's budget is built and dropped block
    by block); a Gauss term is a Kronrod term times the column's weight
    ratio wg/wk. Both rules are summed by np.sum over each block, in turn."""
    weighted = isinstance(F, _Weighted)
    key = (a, T, F.w if weighted else None, s_lo, s_hi, panels)
    cached = _kernels.get(key)
    if cached is None:
        centres, offsets, wk, wg = _grid(s_lo, s_hi, panels)
        kernel = np.empty((panels, _PANEL_NODES), dtype=complex) \
            if panels * _PANEL_NODES <= _kernels.budget else None
    else:
        centres, offsets, kernel = cached
    gauss, ratio = _gauss_columns()
    out = [[0j, 0.0], [0j, 0.0]]
    for lo in range(0, panels, _EVAL_BLOCK):
        rows = slice(lo, lo + _EVAL_BLOCK)
        z = np.empty((centres[rows].size, _PANEL_NODES), dtype=complex)
        z.real, z.imag = a, centres[rows, None] + offsets
        value = np.asarray(F.trace(z) if weighted else F(z), dtype=complex).ravel()
        with np.errstate(all="ignore"):  # bromwich rejects inf and NaN
            k = np.empty_like(z) if kernel is None else kernel[rows]
            if cached is None:
                np.exp(z * T, out=k)
                k *= wk
                if weighted:
                    k *= F.factor(z)
            terms = value * k.ravel()
            rough = terms.reshape(-1, _PANEL_NODES)[:, gauss] * ratio
        for acc, t in zip(out, (terms, rough)):
            acc[0] += complex(np.sum(t))
            acc[1] += float(np.sum(np.abs(t, out=t).real))
    if cached is None and kernel is not None:
        _kernels.put(key, (centres, offsets, kernel))
    return [tuple(acc) for acc in out]


def _term_ulps(a: float, T: float, s_hi: float) -> float:
    """Each term's rounding in eps: _TERM_ULPS, and fl(z T)'s error of up to
    |z T| eps/2, which moves e^{zT} by as much relative, unless T is a power
    of two, where z T is exact (or off by a subnormal's half ulp)."""
    exact = math.frexp(T)[0] == 0.5
    return _TERM_ULPS + (0.0 if exact else 0.5 * math.hypot(a * T, s_hi * T))


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
    specfun._rounding of the value's terms (np.sum over blocks of at most
    _EVAL_BLOCK rows, added in turn).

    An extension is a grid (_grid): F gets its nodes a + i(c_p + d_k) as a
    (panels, 33) array, one row per panel, every row an exact shift of the
    others, and its value is raveled, so any elementwise F serves. A term
    is F's value times the extension's kernel, w e^{zT} (w the Kronrod
    weight) times, for weighted_inverse's transform, its factor g
    (z/a)^{-(w+1)}. The kernel depends on the line alone, so it is kept in
    a thread-safe LRU of 2^18 nodes on (a, T, w or None, s_lo, s_hi,
    panels), and a repeated extension costs F and one complex product per
    node. A term's rounding, in eps of its size: fl(zT) errs by |zT|/2 and
    moves e^{zT} by as much relative (0 where T is a power of two), the
    complex exponential adds 2, w's rounding and its product with e^{zT}
    1, and the products with the factor and with F's value sqrt5/2 each:
    _TERM_ULPS + |zT|/2 with |z| <= |a + i s_hi|. A Gauss term, a Kronrod
    term times the rounded ratio wg/wk, adds 1.

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
    mass = own = 0.0  # sum of the value's terms' absolute values, and weighted by their ulps
    parts = 0  # the blocks whose sums make up the value
    charge = 0.0  # sum of the width checks' differences
    deltas: list[float] = []
    s_lo = 0.0
    while True:
        panels = max(1, math.ceil((s_hi - s_lo) / (2.0 * width)))  # of width <= 2L
        narrowed = False
        ulps = _term_ulps(a, T, s_hi)
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
            n, blocks = min(nodes, _EVAL_BLOCK * _PANEL_NODES), -(-panels // _EVAL_BLOCK)
            floor = (_rounding(size, n, ulps, blocks)
                     + _rounding(rough_size, n, ulps + _GAUSS_ULPS, blocks)) / math.pi
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
        own += size * ulps
        parts += -(-panels // _EVAL_BLOCK)
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

    rounding = _rounding(mass, min(evals, _EVAL_BLOCK * _PANEL_NODES), own / (mass or 1.0),
                         parts) / math.pi
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
    refuses. The trace is evaluated only on bromwich's nodes, a (panels,
    33) array of one extension's rows at a time (a spectral trace sums such
    a grid by rows and columns). bromwich gets the transform as a _Weighted,
    whose factor g (z/a)^{-(w+1)} it keeps in each extension's cached
    kernel, so a repeated contour costs the trace and one product a node.
    The tail is bromwich's two-extension estimate, weakest where the
    integrand decays slowest: for w <= 3/2 the call emits
    UncertifiedTailWarning once w and T have passed their checks.
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
    return bromwich(_Weighted(trace, w, a, float(g)), T, a, policy).value
