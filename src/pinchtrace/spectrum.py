"""Input data containers: length spectra, pinching tuples, eigenvalue lists.

All three are immutable and canonicalized on construction (entries sorted
ascending), so downstream summation order is deterministic. Supplied data
is treated as exact and complete; nothing here attempts to extend a
truncated spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = ["LengthSpectrum", "PinchingSet", "SpectralData"]


@dataclass(frozen=True)
class LengthSpectrum:
    """Multiset of primitive closed-geodesic lengths with multiplicities.

    entries: tuple of (length, multiplicity); lengths > 0, multiplicities
    are positive integers. Stored sorted ascending by length.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise DomainError("length spectrum must be non-empty")
        norm = []
        for i, (ell, mult) in enumerate(self.entries):
            ell = float(ell)
            if not (math.isfinite(ell) and ell > 0.0):
                raise DomainError(f"length #{i} must be finite and > 0, got {ell}")
            if not (isinstance(mult, int) and mult >= 1):
                raise DomainError(f"multiplicity #{i} must be an integer >= 1, got {mult}")
            norm.append((ell, mult))
        norm.sort(key=lambda e: e[0])
        object.__setattr__(self, "entries", tuple(norm))

    @classmethod
    def of(cls, pairs) -> "LengthSpectrum":
        return cls(tuple((float(l), int(m)) for l, m in pairs))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PinchingSet:
    """Tuple of degenerating geodesic lengths, all > 0.

    sup is the sup norm max_k ell_k; log_sum is sum_k log(1/ell_k), the
    normalizer of the degeneration asymptotics.
    """

    ells: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.ells:
            raise DomainError("pinching set must be non-empty")
        vals = []
        for i, ell in enumerate(self.ells):
            ell = float(ell)
            if not (math.isfinite(ell) and ell > 0.0):
                raise DomainError(f"pinching[{i}] must be finite and > 0, got {ell}")
            vals.append(ell)
        object.__setattr__(self, "ells", tuple(vals))

    @classmethod
    def of(cls, values) -> "PinchingSet":
        if isinstance(values, PinchingSet):
            return values
        if isinstance(values, (int, float)):
            return cls((float(values),))
        return cls(tuple(float(v) for v in values))

    @property
    def sup(self) -> float:
        return max(self.ells)

    @property
    def log_sum(self) -> float:
        return sum(-math.log(ell) for ell in self.ells)  # 1/ell overflows below about 5.6e-309

    def as_length_spectrum(self) -> LengthSpectrum:
        """One entry per pinching length, multiplicity 1."""
        return LengthSpectrum.of((ell, 1) for ell in self.ells)

    def __len__(self) -> int:
        return len(self.ells)


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalue list with multiplicities plus the surface volume.

    eigenvalues: tuple of (lambda, multiplicity), lambda >= 0, sorted
    ascending; lambda = 0 is permitted. volume > 0 (hyperbolic area).
    """

    eigenvalues: tuple[tuple[float, int], ...]
    volume: float = field(default=1.0)

    def __post_init__(self) -> None:
        norm = []
        for i, (lam, mult) in enumerate(self.eigenvalues):
            lam = float(lam)
            if not (math.isfinite(lam) and lam >= 0.0):
                raise DomainError(f"eigenvalue #{i} must be finite and >= 0, got {lam}")
            if not (isinstance(mult, int) and mult >= 1):
                raise DomainError(f"multiplicity #{i} must be an integer >= 1, got {mult}")
            norm.append((lam, mult))
        norm.sort(key=lambda e: e[0])
        object.__setattr__(self, "eigenvalues", tuple(norm))
        vol = float(self.volume)
        if not (math.isfinite(vol) and vol > 0.0):
            raise DomainError(f"volume must be finite and > 0, got {self.volume}")
        object.__setattr__(self, "volume", vol)

    @classmethod
    def of(cls, pairs, volume: float = 1.0) -> "SpectralData":
        return cls(tuple((float(l), int(m)) for l, m in pairs), volume)

    def __len__(self) -> int:
        return len(self.eigenvalues)
