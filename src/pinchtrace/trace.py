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
So real scalars and small arrays are summed directly, bit for bit; on a
contour block a node's value depends on the other nodes of the call, within
the certified tolerance. Every evaluator takes a scalar z or an array; a
real scalar in gives a float back.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, islice, starmap

import numpy as np

from .errors import DomainError, TruncationBudgetError
from .hyperbolic import heat_kernel_origin
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import _Collar, _rounding, log_sinh
from .spectrum import LengthSpectrum, PinchingSet, SpectralData

__all__ = [
    "hyperbolic_trace",
    "degenerating_trace",
    "spectral_trace",
    "regularized_trace",
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


def _plan(entries, zs: np.ndarray, policy: TruncationPolicy):
    """(collar, target, cap) shared by both routes of a call."""
    # extreme nodes overflow these to inf or 0: c_min = inf cuts at one term, c_min = 0
    # leaves the sinh decay alone, stretch = inf lifts the cap
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c_min = float((zs.real / np.abs(zs) ** 2).min())  # Re(1/z) per node
        stretch = math.sqrt(1.0 + float(((zs.imag / zs.real) ** 2).max()))

    def g(x):  # where c_min is 0 the Gaussian factor is 1, even where x^2 overflows
        return log_sinh(0.5 * x) + (x * x * c_min / 4.0 if c_min else 0.0)

    ell, m = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries)).reshape(-1, 2).T
    collar = _Collar(ell, m * ell, g)
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

    def block(n, ell, mell):  # log c, c = m ell/sinh(n ell/2), and y = (n ell)^2
        with np.errstate(over="ignore"):  # y = inf fails _coefficients' x < 700
            return np.log(mell) - log_sinh(0.5 * n * ell), (n * ell)**2
    coeffs = _coefficients(lambda: starmap(block, collar.blocks(0, cuts)), v0, rho,
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


def _coefficients(blocks, v0: complex, rho: float, budget: float, k_max: int):
    """B_0..B_{K-1} of the expansion about v0 for the least K <= k_max that
    certifies, [] when none does, from blocks() -> each block's (log c_i, y_i).

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
    budget less that; K, the most taken, certifies if all L_K plus that at K
    do. No order does where an x_i passes 700, a w_i passes budget/eps, or
    the allowance passes budget before the truncation falls within it.
    """
    def weights(log_c, y):  # a block's x_i, t_i and w_i
        x = y * rho
        t = np.exp(log_c - y * v0 + x)
        return x, t, np.abs(t)

    last, mass, own, top, size, count = None, 0.0, 0.0, 0.0, 0, 0
    for log_c, y in blocks():
        last = None  # only the last block's arrays are kept, and serve both passes
        # a subnormal e^{-x} would void the relative-error model of the
        # recurrence; a single w_i past budget/eps cannot certify
        if not (rho > 0.0 and float(np.max(y * rho)) < 700.0
                and float(np.max(log_c + y * (rho - v0.real))) < math.log(budget / _EPS)):
            return []
        x, t, w = last = weights(log_c, y)
        mass += float(np.sum(w))
        # t_i's exponent, summed from log c_i, y_i v0 and x_i, is off by eps/2
        # of their sizes each; its exponential and modulus add 1.5 eps
        own += float(np.sum(w * (np.abs(log_c) + 1.5 * y * abs(v0) + 0.5 * x + 1.5)))
        top, size, count = max(top, float(np.max(w))), max(size, y.size), count + 1
        del log_c, y, x, t, w  # while the next block is built, only last is held
    allowance = 4.0 * _rounding(mass, size, own / (mass or 1.0) + 1.5 * np.arange(k_max + 1.0),
                                count)
    # past this order the allowance alone fails; P(K, x) > 1/2 for x >= K (a
    # Gamma(K) law's median is below K): such terms alone fail
    k_max = min(k_max, int(np.searchsorted(allowance, budget, side="right")) - 1)
    # rows t_i p_ik and w_i p_ik, each summed pairwise: the parts of B_k (no
    # imaginary one about a real centre) and s_k. A factor 2^s <= 2^1023 takes
    # the largest w_i near 2^1000: an entry in the subnormals then errs by at
    # most 2^-1075 e^{x_i} < 2^-65, far below an ulp of the mass, and no row,
    # at most its w_i, overflows. Where no entry is subnormal, each sum is the
    # unscaled one times 2^s, bit for bit
    scale = min(1023, max(0, 1000 - math.frexp(top)[1]))
    unscale, heavy = 2.0**-scale, 0.0

    def orders(x, t, w):  # a block's B_k 2^s to its own K, and its L_K; None past k_max
        nonlocal heavy
        heavy += float(np.sum(w[x >= k_max]))
        if k_max < 1 or 0.5 * heavy > budget:
            return None
        rows = np.stack([t.real, w] + ([t.imag] if v0.imag else []))
        rows *= np.exp(-x) * 2.0**scale
        step, left, coeffs = np.empty_like(x), float(np.sum(w)), []
        share = left / (mass or 1.0)
        for k in range(1, k_max + 1):
            re, part, *im = rows.sum(axis=1)
            coeffs.append(complex(re, *im))
            left -= part * unscale
            if left + allowance[k] * share <= budget * share:
                return coeffs, left
            rows *= np.divide(x, k, out=step)
        return None

    coeffs, left, rebuilt = [], 0.0, starmap(weights, islice(blocks(), count - 1))
    for _ in range(count):
        got, last = orders(*(last or next(rebuilt))), None  # the last block first
        if got is None:
            return []
        more, part = got
        coeffs = [a + b for a, b in zip(coeffs, more)] + coeffs[len(more):] + more[len(coeffs):]
        left += part
    return [b * unscale for b in coeffs] if left + allowance[len(coeffs)] <= budget else []


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
    """Cut series at every node, by Taylor expansion when that is cheaper, a
    block whose centre does not certify within that cost halved along Im z."""
    collar, target, cap = _plan(entries, zs, policy)
    cut = collar.cut(target, cap)
    if zs.size > 1:  # one node is its own centre: the expansion is the direct sum
        terms = int(cut[0].sum())
        total = _taylor_sum(collar, zs, target, cap, _COST_RATIO * terms * zs.size)
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
    bit-stable for a fixed policy and node array.
    """
    if not isinstance(ls, LengthSpectrum):
        ls = LengthSpectrum.of(ls)
    zs = _as_nodes(z)
    body = _geodesic_sum(ls.entries, zs, policy)
    with np.errstate(over="ignore", invalid="ignore"):  # not finite near the top of the doubles
        pref = np.exp(-zs / 4.0) / np.sqrt(16.0 * math.pi * zs)
    return _give_back(pref * body, z)


def degenerating_trace(ps, z, policy: TruncationPolicy = DEFAULT_POLICY):
    """Heat trace over the pinching lengths only, one term per length."""
    ps = PinchingSet.of(ps)
    return hyperbolic_trace(ps.as_length_spectrum(), z, policy)


def spectral_trace(sd: SpectralData, z):
    """Finite eigenvalue sum sum_n m_n e^{-lambda_n z}, Re z > 0.

    The supplied list is the model spectrum; no tail is estimated. A term whose
    modulus underflows adds exactly 0, one whose phase lambda Im z overflows raises."""
    if not isinstance(sd, SpectralData):
        sd = SpectralData.of(sd)
    zs = _as_nodes(z)
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


def regularized_trace(
    ls: LengthSpectrum,
    volume: float,
    z,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Geodesic trace plus volume times the plane kernel at distance zero.

    Supported for real z > 0 only; the origin-kernel quadrature is not
    implemented for complex time.
    """
    if isinstance(z, complex) or np.iscomplexobj(z):
        if np.imag(z) != 0:
            raise DomainError("regularized_trace is defined for real z only")
        z = float(np.real(z))
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"regularized_trace requires z > 0, got {z}")
    volume = float(volume)
    if not volume > 0.0:
        raise DomainError(f"volume must be > 0, got {volume}")
    return hyperbolic_trace(ls, z, policy) + volume * heat_kernel_origin(z, policy)
