"""Heat-trace series over length spectra, pinching sets, and eigenvalues.

The geodesic-side trace at complex time z (Re z > 0) is

    HTr(z) = e^{-z/4} / (16 pi z)^{1/2}
             * sum_{n>=1} sum_ell m_ell * ell / sinh(n ell / 2)
               * e^{-(n ell)^2 / 4z}

with the principal branch of the square root. Truncation is certified:
|e^{-x/z}| = e^{-x Re(1/z)}, the ratio of successive n-terms is at most
e^{-ell/2}, so the tail past any n is dominated by a geometric series.
Re(1/z) shrinks as |Im z| grows, which is why the term budget scales
with sqrt(1 + (Im z / Re z)^2).

All evaluators accept a scalar z or an array of z values (the inverse
Laplace transform feeds whole contours at once); a real scalar in gives
a float back.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
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


def _geodesic_sum(entries, zs: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    c = zs.real / np.abs(zs) ** 2  # Re(1/z) per node
    c_min = float(np.min(c))
    stretch = math.sqrt(1.0 + float(np.max((zs.imag / zs.real) ** 2)))
    budget = int(policy.max_terms * stretch)

    def log_env(ell, mult):
        """log of mult ell / sinh(n ell/2) e^{-(n ell)^2 c_min/4}, a bound on term n."""
        return lambda n: (math.log(mult * ell) - log_sinh(0.5 * n * ell)
                          - n * n * ell * ell * c_min / 4.0)

    # a priori scale: the n = 1 shell dominates the unprefixed sum
    scale = sum(math.exp(log_env(ell, m)(1)) for ell, m in entries)
    target = policy.tol(scale)

    total = np.zeros_like(zs)
    used = 0
    for ell, mult in entries:  # ascending lengths (canonical order)
        ncut = tail_cut(log_env(ell, mult), ell, target / len(entries), budget - used)
        used += ncut
        for n0 in range(1, ncut + 1, _N_CHUNK):
            n = np.arange(n0, min(ncut, n0 + _N_CHUNK - 1) + 1, dtype=float)
            coef = mult * ell * np.exp(-log_sinh(0.5 * n * ell))
            sq = (n * ell) ** 2 / 4.0
            for j0 in range(0, zs.size, _NODE_CHUNK):
                sl = slice(j0, min(zs.size, j0 + _NODE_CHUNK))
                total[sl] += coef @ np.exp(-sq[:, None] / zs[None, sl])
    return total


def hyperbolic_trace(
    ls: LengthSpectrum, z, policy: TruncationPolicy = DEFAULT_POLICY
):
    """Geodesic heat trace of a length spectrum at complex time z, Re z > 0.

    Real positive z gives a real positive value. Summation order is fixed
    (ascending n within each length, lengths ascending), so results are
    bit-stable for a fixed policy.
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
