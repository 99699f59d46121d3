"""Heat-trace series over length spectra, pinching sets, and eigenvalues.

The geodesic-side trace at complex time z (Re z > 0) is

    HTr(z) = e^{-z/4} / (16 pi z)^{1/2}
             * sum_{n>=1} sum_ell m_ell * ell / sinh(n ell / 2)
               * e^{-(n ell)^2 / 4z}

with the principal branch of the square root. Truncation is certified:
|e^{-x/z}| = e^{-x Re(1/z)}, the ratio of successive n-terms is at most
e^{-ell/2}, so the tail past any n is dominated by a geometric series.
Re(1/z) shrinks as |Im z| grows, which is why the term budget scales
with sqrt(1 + (Im z / Re z)^2). The cut is taken for the smallest
Re(1/z) of the call and the target policy.tol of the n = 1 terms.

The cut series S(v) = sum c e^{-y v}, with v = 1/4z, c = m ell/sinh(n ell/2)
and y = (n ell)^2, goes one of two routes per call:

- direct: every term at every node, about 1/ell complex exponentials per
  node. The only route for one node, and the oracle for the other.
- Taylor: S is entire in v, so it is expanded once about a centre v0 and
  evaluated at every node by Horner in (v0 - v)/rho, rho the largest
  |v - v0| of the call. The n-terms enter only the coefficients, so a
  node costs K multiply-adds, and K does not depend on ell. Centres:
  1/(8 min Re z), where no term grows because Re z >= a maps into the disc
  |v - 1/8a| <= 1/8a, and the centre of the bounding box of the v, tight
  on the high bands of a contour; the one needing fewer terms is used.

The Taylor route is certified at every node by three bounds whose sum is
within the target: the n-cut, cut at half the target; the truncation
after K terms, sum c e^{y (rho - Re v0)} P(K, y rho) with P the
regularized lower incomplete gamma function; and a rounding allowance of
8 eps (K + log2 N) sum c e^{y (rho - Re v0)} for N terms. A call takes it
when K (nodes + terms) < _COST_RATIO (direct terms) (nodes), the measured
cost ratio, and that bound holds; otherwise it takes the direct route.
So real scalars and small arrays are summed directly, bit for bit, and
on a contour block a node's value depends on the other nodes of the
call, but only within the certified tolerance.

All evaluators accept a scalar z or an array of z values (the inverse
Laplace transform feeds whole contours at once); a real scalar in gives
a float back.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

from .errors import DomainError, TruncationBudgetError
from .hyperbolic import heat_kernel_origin
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import log_sinh, tail_cut
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
_TAYLOR_TERMS_MAX = 1 << 19  # the Taylor route keeps ~10 floats per term: ~50 MB
_EPS = float(np.finfo(float).eps)


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
    """(log_env, target, cap) shared by both routes of a call.

    log_env(ell, mult)(n) bounds term n at every node by the smallest
    Re(1/z); target = policy.tol of the n = 1 shell; cap is the term
    budget, scaled up on a contour.
    """
    c_min = float(np.min(zs.real / np.abs(zs) ** 2))  # Re(1/z) per node
    stretch = math.sqrt(1.0 + float(np.max((zs.imag / zs.real) ** 2)))

    def log_env(ell, mult):
        """log of mult ell / sinh(n ell/2) e^{-(n ell)^2 c_min/4}, a bound on term n."""
        return lambda n: (math.log(mult * ell) - log_sinh(0.5 * n * ell)
                          - n * n * ell * ell * c_min / 4.0)

    # a priori scale: the n = 1 shell dominates the unprefixed sum
    scale = sum(math.exp(log_env(ell, m)(1)) for ell, m in entries)
    return log_env, policy.tol(scale), int(policy.max_terms * stretch)


def _cuts(entries, log_env, target: float, cap: int) -> list:
    """n-cut per length, the target shared equally, the cap shared in order."""
    cuts = []
    for ell, mult in entries:
        cuts.append(tail_cut(log_env(ell, mult), ell, target / len(entries), cap - sum(cuts)))
    return cuts


def _term_sum(entries, zs: np.ndarray, cuts) -> np.ndarray:
    """The cut series summed term by term at every node: the direct route."""
    total = np.zeros_like(zs)
    for (ell, mult), ncut in zip(entries, cuts):  # ascending lengths (canonical order)
        for n0 in range(1, ncut + 1, _N_CHUNK):
            n = np.arange(n0, min(ncut, n0 + _N_CHUNK - 1) + 1, dtype=float)
            coef = mult * ell * np.exp(-log_sinh(0.5 * n * ell))
            sq = (n * ell) ** 2 / 4.0
            for j0 in range(0, zs.size, _NODE_CHUNK):
                sl = slice(j0, min(zs.size, j0 + _NODE_CHUNK))
                total[sl] += coef @ np.exp(-sq[:, None] / zs[None, sl])
    return total


def _taylor_sum(entries, zs: np.ndarray, log_env, target: float, cap: int,
                max_cost: float):
    """The series at every node from one Taylor expansion in v = 1/4z, or None.

    Half the target goes to the n-cut, half to the truncation and
    rounding of the expansion. None when the n-cut passes cap or
    _TAYLOR_TERMS_MAX, or when no centre certifies in fewer than
    max_cost / (nodes + terms) orders.
    """
    try:
        cuts = _cuts(entries, log_env, 0.5 * target, cap)
    except TruncationBudgetError:
        return None
    if sum(cuts) > _TAYLOR_TERMS_MAX:
        return None
    n = np.concatenate([np.arange(1.0, k + 1.0) for k in cuts])
    ell = np.repeat([e for e, _ in entries], cuts)
    mult = np.repeat([float(m) for _, m in entries], cuts)
    log_c = np.log(mult * ell) - log_sinh(0.5 * n * ell)
    y = (n * ell) ** 2
    v = 0.25 / zs
    k_max = int(max_cost / (zs.size + y.size))
    found = None
    # the bounding-box centre is tight on a narrow band; Re z >= a maps into
    # the disc |v - 1/8a| <= 1/8a, so centred there no term ever grows
    for v0 in (complex(0.5 * (v.real.min() + v.real.max()), 0.5 * (v.imag.min() + v.imag.max())),
               complex(0.125 / float(np.min(zs.real)))):
        rho = float(np.max(np.abs(v - v0)))
        coeffs = _coefficients(log_c, y, v0, rho, 0.5 * target, k_max)
        if coeffs is not None:
            found, k_max = (v0, rho, coeffs), len(coeffs) - 1
    if found is None:
        return None
    v0, rho, coeffs = found
    q = (v0 - v) / rho
    total = np.full_like(zs, coeffs[-1])
    for b in coeffs[-2::-1]:
        total *= q
        total += b
    return total


def _coefficients(log_c, y, v0: complex, rho: float, budget: float, k_max: int):
    """B_0..B_{K-1} of the expansion about v0 for the least K <= k_max that certifies.

    S(v) = sum_i c_i e^{-y_i v} = sum_k B_k q^k with q = (v0 - v)/rho and
    B_k = sum_i c_i e^{-y_i v0} x_i^k/k!, x_i = y_i rho. With
    w_i = c_i e^{y_i (rho - Re v0)}, truncating after K terms costs at most
    sum_i w_i P(K, x_i) wherever |q| <= 1 (P the regularized lower
    incomplete gamma function), and rounding at most 8 eps (K + log2 N)
    sum_i w_i. K is found by subtracting each order's share from sum_i w_i
    as the coefficients are built; the bound is then recomputed with
    gammainc at that K. None when no K <= k_max meets budget.
    """
    x = y * rho
    log_w = log_c + y * (rho - v0.real)
    # e^{-x} must not underflow; a single w_i past budget/eps cannot certify
    if not (rho > 0.0 and float(np.max(x)) < 700.0
            and float(np.max(log_w)) < math.log(budget / _EPS)):
        return None
    # B_k = sum_i t_i e^{-x_i} x_i^k/k! with t_i = c_i e^{-y_i v0 + x_i} and
    # |t_i| = w_i; the Poisson factors are at most 1, so nothing overflows
    t = np.exp(log_c - y * v0 + x)
    w = np.abs(t)
    mass = float(np.sum(w))
    log2n = math.log2(y.size)
    if mass > 0.0:  # every term may underflow on very long lengths
        k_max = min(k_max, int(budget / (8.0 * _EPS * mass) - log2n))
    # P(K, x) > 1/2 for x >= K, as the median of a Gamma(K) law lies below K
    if k_max < 1 or 0.5 * float(np.sum(w[x >= k_max])) > budget:
        return None
    rows = np.stack([t.real, t.imag, w])
    poisson = np.exp(-x)
    left = mass  # the truncation bound once the orders so far are kept
    coeffs = []
    for k in range(1, k_max + 1):
        re, im, share = rows @ poisson
        coeffs.append(complex(re, im))
        left -= share
        rounding = 8.0 * _EPS * (k + log2n) * mass
        if left + rounding <= budget:
            if float(np.dot(w, gammainc(k, x))) + rounding <= budget:
                return coeffs
            return None
        poisson *= x / k
    return None


def _geodesic_sum(entries, zs: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    """Cut series at every node, by Taylor expansion when that takes fewer operations."""
    log_env, target, cap = _plan(entries, zs, policy)
    cuts = _cuts(entries, log_env, target, cap)
    if zs.size > 1:  # one node is its own centre: the expansion is the direct sum
        total = _taylor_sum(entries, zs, log_env, target, cap,
                            _COST_RATIO * sum(cuts) * zs.size)
        if total is not None:
            return total
    return _term_sum(entries, zs, cuts)


def hyperbolic_trace(
    ls: LengthSpectrum, z, policy: TruncationPolicy = DEFAULT_POLICY
):
    """Geodesic heat trace of a length spectrum at complex time z, Re z > 0.

    Real positive z gives a real positive value. Summation order is fixed
    (ascending n within each length, lengths ascending), so results are
    bit-stable for a fixed policy and node array.
    """
    if not isinstance(ls, LengthSpectrum):
        ls = LengthSpectrum.of(ls)
    zs = _as_nodes(z)
    body = _geodesic_sum(ls.entries, zs, policy)
    pref = np.exp(-zs / 4.0) / np.sqrt(16.0 * math.pi * zs)
    return _give_back(pref * body, z)


def degenerating_trace(ps, z, policy: TruncationPolicy = DEFAULT_POLICY):
    """Heat trace over the pinching lengths only, one term per length."""
    ps = PinchingSet.of(ps)
    return hyperbolic_trace(ps.as_length_spectrum(), z, policy)


def spectral_trace(sd: SpectralData, z):
    """Finite eigenvalue sum sum_n m_n e^{-lambda_n z}, Re z > 0.

    The supplied list is the model spectrum; no tail is estimated.
    """
    if not isinstance(sd, SpectralData):
        sd = SpectralData.of(sd)
    zs = _as_nodes(z)
    total = np.zeros_like(zs)
    for lam, mult in sd.eigenvalues:
        total += mult * np.exp(-lam * zs)
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
