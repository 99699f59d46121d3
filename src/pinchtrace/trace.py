"""Heat-trace series over length spectra, pinching sets, and eigenvalues.

The geodesic trace at complex time z (Re z > 0), principal square root, is

    HTr(z) = e^{-z/4} / (16 pi z)^{1/2}
             * sum_{n>=1} sum_ell m_ell ell / sinh(n ell / 2) e^{-(n ell)^2 / 4z}.

As |e^{-x/z}| = e^{-x Re(1/z)}, term n of a length ell of multiplicity m is
at most m ell e^{-g(n ell)}, g(x) = log sinh(x/2) + x^2 c_min/4 (c_min the
call's smallest Re(1/z), 0 where |z|^2 overflows): one specfun._Collar cuts
every length at one n ell within the target, policy.tol of the n = 1
terms, and a term budget scaled by sqrt(1 + (Im z / Re z)^2).

The cut series S(v) = sum c e^{-y v}, with v = 1/4z, c = m ell/sinh(n ell/2)
and y = (n ell)^2, goes one of two routes per call:

- direct: the collar's sum to the constant target, every term at every
  node, about 1/ell complex exponentials per node; the only route for one
  node, and the other's oracle.
- Taylor: S is entire in v, so it is expanded once about a centre v0 and
  evaluated at every node by Horner in (v0 - v)/rho, rho the largest
  |v - v0|, K multiply-adds a node whatever ell is. One centre a block
  (_centre): that of the v's bounding box, or 1/(8 min Re z) where the
  box cannot need fewer orders. The n-cut takes half the target, the
  truncation after K terms, sum c e^{y (rho - Re v0)} P(K, y rho) (P the
  regularized lower incomplete gamma function), and the rounding of the
  build and of Horner's steps the other half; the build walks the collar's
  blocks of terms, each within its share, in one block's memory at any ell.

Both roundings are specfun._rounding's. A call takes the Taylor route when
K (nodes + terms) < _COST_RATIO (direct terms) (nodes) and its bound
holds, save where its n-cut passes the policy's cap. Where its centre does
not certify within that cost, a block of at least _SPLIT_NODES nodes and
_SPLIT_TERMS direct terms is halved along Im z, and each half planned as a
call of its own: a narrower block needs fewer orders about its box centre.

A call whose nodes share one real part a, as each extension of a Bromwich
inversion does, first tries its line (_Line): Re z = a maps onto the circle
|v - 1/8a| = 1/8a, so one expansion about 1/8a serves every node of the
line. It is built once per (entries, a, policy), by the first call that can
pay for its orders, kept in a bounded cache, cut at c_min = 0 (the longest
cut any node of the line needs) and built to the target at c_min = 1/a (the
tightest). Each call re-centres its K coefficients on the call's own centre
by an exact Taylor shift, one K x K product, and runs Horner on the leading
J terms, certified by the line's cut and build, the shift's tail sum_{j>=J}
|b_j| and a derived rounding charge of 5 K eps sum_k |B_k| (|delta| + h)^k.
Where the line does not certify (an x_i past 700, or more than _LINE_ORDERS
orders) or pays no better than the direct sum, or no shift fits the call's
target, the call goes on as above, unchanged. So real scalars, small arrays
and nodes off one line are summed as before, bit for bit; on a contour
block a node's value depends on the other nodes of the call, within the
certified tolerance. Every evaluator takes a scalar z or an array; a real
scalar in gives a float back.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from functools import lru_cache
from itertools import chain, islice, starmap

import numpy as np

from .errors import DomainError, TruncationBudgetError
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import _Collar, _rounding, log_sinh
from .spectrum import LengthSpectrum, PinchingSet, SpectralData

__all__ = [
    "hyperbolic_trace",
    "degenerating_trace",
    "spectral_trace",
]

_NODE_CHUNK = 4096
_N_CHUNK = 512
# a direct term at one node (a complex exp and a multiply-add, about 40 ns)
# costs this many Taylor steps (per node or per term, about 10 ns on
# contour blocks of a few hundred to a few thousand nodes)
_COST_RATIO = 4.0
_EPS = float(np.finfo(float).eps)
_SPLIT = "split"  # _taylor_sum's answer where its centre does not certify within the cost
# a block of fewer nodes, or of fewer direct terms (about 0.7 ms at 20 ns a
# term), is summed directly rather than halved: planning each half costs
# 30-150 us, and the halves may be summed directly all the same
_SPLIT_NODES = 16
_SPLIT_TERMS = 1 << 15
# the most orders a line's expansion takes: past it a cold line costs more
# than the per-call builds it replaces (K = 402 at ell = 0.1, w = 2, T = 5:
# an inversion took 28 ms against 6), and each call's K x K shift grows with K^2
_LINE_ORDERS = 256
# widens a line's rho and a call's box radius past their nodes' rounding
_MARGIN = 1.0 + 2.0**-40


def _as_nodes(z):
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(zs.real <= 0.0):
        raise DomainError("trace requires Re(z) > 0 on every evaluation point")
    return zs


def _give_back(value: np.ndarray, z):
    """Return in the caller's shape: float for real scalar, complex for scalar."""
    if np.ndim(z) == 0:
        v = complex(value[0])
        if isinstance(z, complex) or (isinstance(z, np.generic) and np.iscomplexobj(z)):
            return v
        return v.real
    return value.reshape(np.shape(z))


def _collar(entries, c_min: float) -> _Collar:
    """The lengths' collar under the envelope g(x) = log sinh(x/2) + x^2 c_min/4."""
    def g(x):  # where c_min is 0 the Gaussian factor is 1, even where x^2 overflows
        return log_sinh(0.5 * x) + (x * x * c_min / 4.0 if c_min else 0.0)

    ell, m = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries)).reshape(-1, 2).T
    return _Collar(ell, m * ell, g)


def _plan(entries, zs: np.ndarray, policy: TruncationPolicy):
    """(collar, target, cap) shared by both routes of a call."""
    # extreme nodes overflow these to inf or 0: c_min = inf cuts at one term, c_min = 0
    # leaves the sinh decay alone, stretch = inf lifts the cap
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c_min = float((zs.real / np.abs(zs) ** 2).min())  # Re(1/z) per node
        stretch = math.sqrt(1.0 + float(((zs.imag / zs.real) ** 2).max()))
    collar = _collar(entries, c_min)
    cap = int(min(policy.max_terms * stretch, sys.maxsize))
    return collar, policy.tol(collar.shell), cap  # the n = 1 shell dominates the sum


def _term_sum(zs: np.ndarray, x, mell) -> np.ndarray:
    """sum m ell/sinh(x/2) e^{-x^2/4z} over a block of terms x = n ell at every node."""
    coef = mell * np.exp(-log_sinh(0.5 * x))
    keep = coef > 0.0  # an underflowed term adds nothing, and its n ell may pass the doubles
    if not keep.all():
        coef, x = coef[keep], x[keep]
    sq = x * x * 0.25
    total = np.zeros_like(zs)
    # at a node of subnormal size the quotient passes the largest double (real
    # part +inf, imaginary part perhaps NaN, inf times 0): its exponential is 0
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, coef.size, _N_CHUNK):
            rows = slice(r0, r0 + _N_CHUNK)
            for j0 in range(0, zs.size, _NODE_CHUNK):
                sl = slice(j0, j0 + _NODE_CHUNK)
                total[sl] += coef[rows] @ np.exp(-sq[rows, None] / zs[None, sl])
    return total


def _log_terms(n, ell, mell):
    """A block's log c, c = m ell/sinh(n ell/2), and y = (n ell)^2."""
    with np.errstate(over="ignore"):  # y = inf fails _coefficients' x < 700
        return np.log(mell) - log_sinh(0.5 * n * ell), (n * ell)**2


def _taylor_sum(collar, zs: np.ndarray, target: float, cap: int, max_cost: float):
    """The series at every node from one Taylor expansion in v = 1/4z, built
    over the collar's blocks, None or _SPLIT. Half the target goes to the
    n-cut, half to the truncation and rounding of the expansion. None only
    where that n-cut passes cap; _SPLIT when its centre does not certify in
    fewer than max_cost / (nodes + terms) orders, so only a narrower block may."""
    try:
        cuts, _ = collar.cut(0.5 * target, cap)
    except TruncationBudgetError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # not finite near the top of the doubles
        v = 0.25 / zs
    v0, rho = _centre(v, float(zs.real.min()))
    coeffs = _coefficients(lambda: starmap(_log_terms, collar.blocks(0, cuts)), v0, rho,
                           0.5 * target, int(max_cost / (zs.size + int(cuts.sum()))))
    if not coeffs:
        return _SPLIT
    total = np.full_like(zs, coeffs[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        q = (v0 - v) / rho
        for b in coeffs[-2::-1]:
            total *= q
            total += b
    return total


def _centre(v: np.ndarray, a: float) -> tuple:
    """The centre (v0, rho) for the nodes' v = 1/4z, Re z >= a: the bounding
    box's, tight on a narrow band, unless its rho >= 1/8a, rho >= Re v0 and
    |v0| >= 1/8a. Then every x_i, w_i and rounding charge of _coefficients is
    at least that of the disc |v - 1/8a| <= 1/8a, into which Re z >= a maps
    (rho <= 1/8a about 1/8a, where no term grows), and 1/8a is taken."""
    box = complex(0.5 * (v.real.min() + v.real.max()), 0.5 * (v.imag.min() + v.imag.max()))
    disc = complex(0.125 / a)
    rho_box = float(np.max(np.abs(v - box)))
    if rho_box >= max(disc.real, box.real) and abs(box) >= disc.real:
        return disc, float(np.max(np.abs(v - disc)))
    return box, rho_box


class _Line:
    """The expansion that serves every node on the line Re z = a, where v =
    1/4z lies on the circle |v - 1/8a| = 1/8a: B_0..B_{K-1} about v0 = 1/8a
    with rho = 1/8a, widened by _MARGIN so that each node's rounded v is
    inside. The series is cut at c_min = 0, the longest cut any node of the
    line needs (within the policy's max_terms, the smallest cap of any
    call), to half the target at c_min = 1/a, the tightest, and expanded to
    a quarter of it; spent is the sum of both.

    A call builds it to the most orders the call can pay for, K_call <=
    _LINE_ORDERS, once no call has tried as many (tried): as _coefficients
    returns the least K that certifies, the expansion is the same whichever
    call builds it, and a failed try shows only that none certifies within
    K_call. built holds (K, |B_k|, the orders k, hankel), hankel C(j + m, j)
    B_{j+m} at [j, m], each C rounded once from the exact integer."""

    def __init__(self, entries, a: float, policy: TruncationPolicy):
        self.a, self.v0 = a, complex(0.125 / a)
        self.rho = self.v0.real * _MARGIN
        target = policy.tol(_collar(entries, 1.0 / a).shell)
        self.spent, self.budget = 0.75 * target, 0.25 * target
        self.collar, self.terms, self.tried, self.built = _collar(entries, 0.0), 0, 0, None
        self.lock = threading.Lock()  # a sweep's threads share the cached line
        try:
            self.cuts, _ = self.collar.cut(0.5 * target, policy.max_terms)
        except TruncationBudgetError:  # past max_terms: every call plans its own
            self.tried = _LINE_ORDERS
        else:
            self.terms = int(self.cuts.sum())

    def _build(self, k_max: int):
        """built, or None where no K <= k_max certifies; where none would at
        any k_max, no later call tries again."""
        coeffs = _coefficients(lambda: starmap(_log_terms, self.collar.blocks(0, self.cuts)),
                               self.v0, self.rho, self.budget, k_max)
        self.tried = _LINE_ORDERS if coeffs is None else k_max
        if not coeffs:
            return None
        coeffs = np.array(coeffs, dtype=complex)
        k = coeffs.size
        hankel, row = np.zeros((k, k), dtype=complex), [1]
        for n in range(k):  # row holds C(n, j); [j, n - j] lies at n + j (k - 1) in the buffer
            hankel.reshape(-1)[n:n * k + 1:max(k - 1, 1)] = np.array(row, float) * coeffs[n]
            row = list(map(operator.add, row + [0], [0] + row))
        return k, np.abs(coeffs), np.arange(k), hankel

    def sum(self, zs: np.ndarray, target: float, max_cost: float):
        """The cut series at every node of the line, or None where the line
        is not built (no call has yet paid for its orders, or none
        certifies), its K (terms + nodes), a Taylor call's cost, is not below
        max_cost, or no shift fits target less spent.

        The coefficients are re-centred on the nodes' own centre c and radius
        r (_centre's): with q = (v0 - v)/rho = delta + h u, delta = (v0 -
        c)/rho, h = r/rho (widened by _MARGIN) and u = (c - v)/(rho h),
        sum_k B_k q^k is exactly sum_j b_j u^j, b_j = h^j sum_m C(j + m, j)
        B_{j+m} delta^m, and Horner takes the J leading terms, the least J
        whose tail sum_{j>=J} |b_j| plus the rounding fits. With R = |delta|
        + h, the rounding of each b_j (a rounded C, one product each for C
        B_k, delta^m and h^j, m - 1 complex ones for delta^m, j - 1 for h^j
        and K - 1 additions: sqrt5 k + K + 1 half ulps of each of its paths,
        which add up to |B_k| R^k over j), Horner's (sqrt5 + 1) (J - 1) + 1
        half ulps of sum_j |b_j| <= sum_k |B_k| R^k, and the node's move by
        the rounding of delta, h and u (|dq| <= 3 eps/2 R, so at most 3
        eps/2 sum_k k |B_k| R^k) add up to less than 5 K eps sum_k |B_k| R^k."""
        with self.lock:
            k_call = min(_LINE_ORDERS, int(max_cost / (self.terms + zs.size)))
            if self.built is None and k_call > self.tried:
                self.built = self._build(k_call)
            built = self.built
        if built is None:
            return None
        k, sizes, exponents, hankel = built
        if k * (self.terms + zs.size) >= max_cost:
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # not finite near the top of the doubles
            v = 0.25 / zs
        c, r = _centre(v, self.a)
        delta = (self.v0 - c) / self.rho
        if delta and abs(delta) ** (k - 1) < 2.0**-1000:  # a subnormal power: keep the disc
            c, delta = self.v0, 0j
            r = float(np.max(np.abs(v - c)))
        if not r > 2.0**-969:  # a wider box keeps c - v, and so u, off the subnormals
            return None
        h = r / self.rho * _MARGIN
        steps, scale = np.full(k, delta), np.full(k, h)
        steps[0] = scale[0] = 1.0
        b = (hankel @ np.cumprod(steps)) * np.cumprod(scale)
        with np.errstate(over="ignore", invalid="ignore"):  # an R^k past the doubles fits nothing
            room = target - self.spent - 5.0 * k * _EPS * float(
                sizes @ ((abs(delta) + h) * _MARGIN) ** exponents)
        if not room >= 0.0:
            return None
        # sum_{j>=J} |b_j| for J = K - 1 down to 0: the least J whose tail fits
        j = max(1, k - int(np.searchsorted(np.cumsum(np.abs(b[::-1])), room, side="right")))
        u = (c - v) / (self.rho * h)
        total = np.full_like(zs, b[j - 1])
        for bj in b[j - 2::-1] if j > 1 else ():
            total *= u
            total += bj
        return total


_line = lru_cache(maxsize=8)(_Line)  # on (entries, a, policy), as counting's _series


def _coefficients(blocks, v0: complex, rho: float, budget: float, k_max: int):
    """B_0..B_{K-1} of the expansion about v0 for the least K <= k_max that
    certifies from blocks() -> each block's (log c_i, y_i); [] when none
    does, None when no K would at any k_max.

    S(v) = sum_i c_i e^{-y_i v} = sum_k B_k q^k, q = (v0 - v)/rho, B_k =
    sum_i t_i p_ik with t_i = c_i e^{-y_i v0 + x_i}, x_i = y_i rho and p_ik =
    e^{-x_i} x_i^k/k!. With w_i = |t_i|, truncating after K terms costs at
    most L_K = sum_i w_i P(K, x_i) where |q| <= 1 (P the regularized lower
    incomplete gamma function): the running sum_i w_i - sum_{j<K} s_j, s_j
    = sum_i w_i p_ij. Every s_j, sum_i w_i and part of B_j adds up np.sums of
    N terms or fewer, a block each, off by (j + 1) eps each (p_ij's 2j + 1
    roundings, the product) and t_i's own error u_i; rounding x_i moves
    P(K, x_i) by K eps/2 p_iK, and the K subtractions and Horner's complex
    steps add K/2 and 2K eps of sum w_i. As sum_j p_ij <= 1, 4 _rounding(sum
    w_i, N, 1.5 K + u, blocks) covers it, u the w-weighted u_i. A block takes
    orders until its L_K is within its share of sum w_i (1 on one block) of
    budget less that, K_b of them; K is the least order at which the blocks'
    L_min(K, K_b) plus the allowance at K fit budget. No order does where an
    x_i passes 700 or a w_i passes budget/eps (None), or where the allowance
    passes budget before the truncation falls within it. As P(K, x) > 1/2
    for x >= K (a Gamma(K) law's median is below K), the terms with x_i >=
    k_max alone fail where half their w_i pass budget: their mass is taken
    from log c_i and y_i by real exponentials before a block's complex
    t_i, so such a try ends before them.
    """
    def weights(log_c, y):  # a block's x_i, t_i and w_i
        x = y * rho
        t = np.exp(log_c - y * v0 + x)
        return x, t, np.abs(t)

    last, mass, own, top, size, count, early = None, 0.0, 0.0, 0.0, 0, 0, 0.0
    for log_c, y in blocks():
        last = None  # only the last block's arrays are kept, and serve both passes
        # a subnormal e^{-x} would void the relative-error model of the
        # recurrence; a single w_i past budget/eps cannot certify
        x, log_w = y * rho, log_c + y * (rho - v0.real)
        top_x = float(np.max(x))
        if not (rho > 0.0 and top_x < 700.0 and float(np.max(log_w)) < math.log(budget / _EPS)):
            return None
        if top_x >= k_max:  # the terms past k_max
            early += float(np.sum(np.exp(log_w[x >= k_max])))
            if 0.5 * early > budget:
                return []
        del x, log_w
        x, t, w = last = weights(log_c, y)
        mass += float(np.sum(w))
        # t_i's exponent, summed from log c_i, y_i v0 and x_i, is off by eps/2
        # of their sizes each; its exponential and modulus add 1.5 eps
        own += float(np.sum(w * (np.abs(log_c) + 1.5 * y * abs(v0) + 0.5 * x + 1.5)))
        top, size, count = max(top, float(np.max(w))), max(size, y.size), count + 1
        del log_c, y, x, t, w  # while the next block is built, only last is held
    allowance = 4.0 * _rounding(mass, size, own / (mass or 1.0) + 1.5 * np.arange(k_max + 1.0),
                                count)
    # past this order the allowance alone fails
    k_max = min(k_max, int(np.searchsorted(allowance, budget, side="right")) - 1)
    # rows t_i p_ik and w_i p_ik, each summed pairwise: the parts of B_k (no
    # imaginary one about a real centre) and s_k. A factor 2^s <= 2^1023 takes
    # the largest w_i near 2^1000: an entry in the subnormals then errs by at
    # most 2^-1075 e^{x_i} < 2^-65, far below an ulp of the mass, and no row,
    # at most its w_i, overflows. Where no entry is subnormal, each sum is the
    # unscaled one times 2^s, bit for bit
    scale = min(1023, max(0, 1000 - math.frexp(top)[1]))
    unscale, heavy = 2.0**-scale, 0.0

    def orders(x, t, w):  # a block's B_k 2^s to its own K_b, and its L_1..L_{K_b}; None past k_max
        nonlocal heavy
        heavy += float(np.sum(w[x >= k_max]))
        if k_max < 1 or 0.5 * heavy > budget:
            return None
        # about a real centre each t_i is real and positive, t_i = w_i bit
        # for bit, so one row gives both B_k and s_k
        rows = np.stack([t.real, w, t.imag] if v0.imag else [w])
        rows *= np.exp(-x) * 2.0**scale
        step, left, coeffs, lefts = np.empty_like(x), float(np.sum(w)), [], []
        share = left / (mass or 1.0)
        for k in range(1, k_max + 1):
            sums = rows.sum(axis=1)
            re, part, im = sums if v0.imag else (sums[0], sums[0], 0.0)
            coeffs.append(complex(re, im))
            left -= part * unscale
            lefts.append(left)
            if left + allowance[k] * share <= budget * share:
                return coeffs, lefts
            rows *= np.divide(x, k, out=step)
        return None

    coeffs, lefts, rebuilt = [], [], starmap(weights, islice(blocks(), count - 1))
    for _ in range(count):
        got, last = orders(*(last or next(rebuilt))), None  # the last block first
        if got is None:
            return []
        more, tail = got
        coeffs = [a + b for a, b in zip(coeffs, more)] + coeffs[len(more):] + more[len(coeffs):]
        lefts.append(tail)
    # a block that stopped at K_b < K still leaves L_{K_b}: the truncation at K
    # is sum_b L_b(min(K, K_b)), and K the least order at which it fits
    top_k = len(coeffs)
    left = sum(np.pad(tail, (0, top_k - len(tail)), mode="edge") for tail in lefts)
    fits = np.flatnonzero(left + allowance[1:top_k + 1] <= budget)
    return [b * unscale for b in coeffs[:fits[0] + 1]] if fits.size else []


def _direct_rounding(collar, zs: np.ndarray, cuts, sizes, room: float) -> float:
    """sqrt(2) _rounding of the direct sum at any node: BLAS products of at most
    _N_CHUNK terms c e^{-sq/z}, off by (2 + 2|sq/z|) eps each, added chunk by
    chunk within a block of the given sizes, then block by block; from the
    envelope's geometric sums and largest sq if that fits room."""
    z = 2.0 * float(np.abs(zs).min())
    parts = min(sum(sizes), _N_CHUNK) + -(-max(sizes) // _N_CHUNK) + len(sizes) - 2
    top = float((cuts * collar.ell).max())  # the largest n ell
    bound = _rounding(collar.mass, 1, 2.0 + top * top / z, parts)
    if math.sqrt(2.0) * bound <= room:
        return math.sqrt(2.0) * bound
    mass = own = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # huge lengths or nodes: terms of 0
        for n, ell, mell in collar.blocks(0, cuts):
            x = n * ell
            log_size = np.log(mell) - collar.env(x)  # bounds log |term| at every node
            mass += float(np.exp(log_size).sum())
            own += float(np.exp(log_size + 2.0 * np.log(x) - math.log(z)).sum())
    return math.sqrt(2.0) * _rounding(mass, 1, 2.0 + own / (mass or 1.0), parts)


def _halves(entries, zs: np.ndarray, terms: int, policy: TruncationPolicy):
    """The block's two halves along Im z, each summed as its own call (its
    c_min no smaller, so its target no looser); None below _SPLIT_NODES
    nodes or _SPLIT_TERMS terms of the direct sum."""
    low = zs.imag <= 0.5 * (float(np.min(zs.imag)) + float(np.max(zs.imag)))
    if (zs.size < _SPLIT_NODES or terms * zs.size < _SPLIT_TERMS
            or low.all() or not low.any()):
        return None
    total = np.empty_like(zs)
    total[low] = _geodesic_sum(entries, zs[low], policy)
    total[~low] = _geodesic_sum(entries, zs[~low], policy)
    return total


def _geodesic_sum(entries, zs: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    """Cut series at every node: on nodes of one line Re z = a by the line's
    expansion where it serves, else by the call's own Taylor expansion when
    that is cheaper, a block whose centre does not certify within that cost
    halved along Im z."""
    collar, target, cap = _plan(entries, zs, policy)
    cut = collar.cut(target, cap)
    if zs.size > 1:  # one node is its own centre: the expansion is the direct sum
        terms = int(cut[0].sum())
        max_cost = _COST_RATIO * terms * zs.size
        a = float(zs.real[0])
        total = _line(entries, a, policy).sum(zs, target, max_cost) if np.all(zs.real == a) else None
        if total is None:
            total = _taylor_sum(collar, zs, target, cap, max_cost)
        if total is _SPLIT:
            total = _halves(entries, zs, terms, policy)
        if total is not None:
            return total
    return collar.sum(lambda n, ell, mell: _term_sum(zs, n * ell, mell),
                      lambda total: target,
                      lambda cuts, sizes, room: _direct_rounding(collar, zs, cuts, sizes, room),
                      cap, cut=cut)[0]


def hyperbolic_trace(ls: LengthSpectrum, z, policy: TruncationPolicy = DEFAULT_POLICY):
    """Geodesic heat trace of a length spectrum at complex time z, Re z > 0.

    Real positive z gives a real positive value. Summation order is fixed
    (ascending n within each length, lengths ascending), so results are
    bit-stable for a fixed policy and node array. A node array of any shape
    is summed as its flat (row-major) sequence.
    """
    if not isinstance(ls, LengthSpectrum):
        ls = LengthSpectrum.of(ls)
    zs = _as_nodes(z).reshape(-1)
    body = _geodesic_sum(ls.entries, zs, policy)
    with np.errstate(over="ignore", invalid="ignore"):  # not finite near the top of the doubles
        pref = np.exp(-zs / 4.0) / np.sqrt(16.0 * math.pi * zs)
    return _give_back(pref * body, z)


def degenerating_trace(ps, z, policy: TruncationPolicy = DEFAULT_POLICY):
    """Heat trace over the pinching lengths only, one term per length."""
    ps = PinchingSet.of(ps)
    return hyperbolic_trace(ps.as_length_spectrum(), z, policy)


def _grid_sum(eigenvalues, zs: np.ndarray):
    """sum m e^{-lambda z} on a grid by rows and columns, or None off one.

    A grid is a 2-D array of at least 2 x 2 nodes on one line Re z = a whose
    imaginary parts are c_p + d_k, c_p = Im z[p, 0] and d_k = Im z[0, k] -
    Im z[0, 0], to the last bit (one add and one compare a node), as each
    extension of a Bromwich inversion is. There e^{-lambda z} = e^{-lambda
    (a + i c_p)} e^{-i lambda d_k}: P + K exponentials an eigenvalue and one
    (P x E) (E x K) product, not P K E exponentials. Each factor's phase
    rounds once, so a term moves by at most (4 + lambda |z|) eps of its
    size from the per-node route's; lambda = 0 adds its multiplicity
    exactly, and a term whose modulus e^{-lambda a} underflows adds 0. Where
    some lambda (max |c_p| + max |d_k|) overflows, the per-node route
    serves, and raises as it does."""
    if zs.ndim != 2 or min(zs.shape) < 2 or not eigenvalues:
        return None
    a, c = zs.real[0, 0], zs.imag[:, 0]
    d = zs.imag[0] - zs.imag[0, 0]
    lams, mults = np.array(eigenvalues, dtype=float).T
    if not (float(lams.max()) * (float(np.max(np.abs(c))) + float(np.max(np.abs(d)))) < math.inf
            and np.all(zs.real == a) and np.array_equal(c[:, None] + d, zs.imag)):
        return None
    rows = np.empty((c.size, lams.size), dtype=complex)
    rows.real, rows.imag = -lams * a, -np.multiply.outer(c, lams)
    columns = np.zeros((lams.size, d.size), dtype=complex)
    columns.imag = -np.multiply.outer(lams, d)
    return (np.exp(rows, out=rows) * mults) @ np.exp(columns, out=columns)


def spectral_trace(sd: SpectralData, z):
    """Finite eigenvalue sum sum_n m_n e^{-lambda_n z}, Re z > 0.

    The supplied list is the model spectrum; no tail is estimated. A term whose
    modulus underflows adds exactly 0, one whose phase lambda Im z overflows raises.
    A 2-D grid of nodes on one line whose rows are exact shifts of one
    another, as bromwich hands over each extension, is summed by rows and
    columns (_grid_sum), within (4 + lambda |z|) eps of each term's size;
    every other array, and a grid on which some phase could overflow, node
    by node, term by term."""
    if not isinstance(sd, SpectralData):
        sd = SpectralData.of(sd)
    zs = _as_nodes(z)
    total = _grid_sum(sd.eigenvalues, zs)
    if total is not None:
        return _give_back(total, z)
    total = np.zeros_like(zs)
    top = float(np.max(np.abs(zs.imag)))  # no lambda Im z overflows unless lambda top does
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, mult in sd.eigenvalues:
            term = np.exp(-lam * zs)
            if lam * top == math.inf:  # NaN where lambda Im z overflowed
                lost = ~np.isfinite(term)
                if np.any(np.exp(-lam * zs.real[lost]) > 0.0):
                    raise DomainError(f"eigenvalue {lam} times Im z passes the largest double")
                term[lost] = 0.0  # where the modulus underflows
            total += mult * term
    return _give_back(total, z)
