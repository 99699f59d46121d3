"""Degeneration sweeps and growth-exponent fits.

A sweep walks a schedule of pinching sets toward zero length and gives,
per point in order, the counting series, its log-sum normalizer and the
residual against the asymptotic constant; a failed row keeps its error
message. Rows come from the Bessel series or, on request, the contour
inversion of the degenerating trace. Series rows hold the GIL and run in
the caller's thread, and never read the thread cap; contour rows run on a
pool capped by SPECTRA_THREADS, no faster than one thread on a 2-vCPU
box (a 6-row contour sweep at T = 1, w = 1: 0.185-0.205 s on 1 thread,
0.172-0.188 s on 2, medians of 5).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .closed import _check, c_weight
from .counting import g_bessel
from .errors import DomainError, PinchtraceError
from .policy import DEFAULT_INVERSION_POLICY, DEFAULT_POLICY, TruncationPolicy
from .spectrum import PinchingSet
from .trace import degenerating_trace
from .xform import _check_line, weighted_inverse

__all__ = ["Schedule", "SweepRow", "SweepResult", "run_sweep", "fit_growth_exponent", "thread_cap"]


@dataclass(frozen=True)
class Schedule:
    """A walk of pinching sets with strictly decreasing sup norm.

    kind "geometric": single-length sets start * ratio^i for i < count, start
    and ratio in (0, 1), count >= 2, the last point > 0. kind "explicit": any
    non-empty tuple of pinching sets, sup norms strictly decreasing.
    """

    kind: str
    start: float = 0.0
    ratio: float = 0.0
    count: int = 0
    values: tuple[PinchingSet, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind == "geometric":
            if not (0.0 < self.start < 1.0):
                raise DomainError(f"geometric start must be in (0,1), got {self.start}")
            if not (0.0 < self.ratio < 1.0):
                raise DomainError(f"geometric ratio must be in (0,1), got {self.ratio}")
            if not (isinstance(self.count, int) and self.count >= 2):
                raise DomainError(f"geometric count must be an integer >= 2, got {self.count}")
            last = self.start * self.ratio ** (self.count - 1)
            if not last > 0.0:
                raise DomainError(f"geometric start * ratio^(count - 1) must be > 0, got {last}")
        elif self.kind == "explicit":
            if not self.values:
                raise DomainError("explicit schedule must be non-empty")
            pts = tuple(PinchingSet.of(v) for v in self.values)
            object.__setattr__(self, "values", pts)
            sups = [p.sup for p in pts]
            if any(b >= a for a, b in zip(sups, sups[1:])):
                raise DomainError("explicit schedule sup norms must be strictly decreasing")
        else:
            raise DomainError(f"schedule kind must be geometric or explicit, got {self.kind!r}")

    @classmethod
    def geometric(cls, start: float, ratio: float, count: int) -> "Schedule":
        return cls(kind="geometric", start=start, ratio=ratio, count=count)

    @classmethod
    def explicit(cls, values) -> "Schedule":
        return cls(kind="explicit", values=tuple(values))

    def points(self) -> tuple[PinchingSet, ...]:
        if self.kind == "geometric":
            return tuple(
                PinchingSet((self.start * self.ratio**i,)) for i in range(self.count)
            )
        return self.values


@dataclass(frozen=True)
class SweepRow:
    ell_sup: float
    log_sum: float
    g_value: float
    residual: float
    normalized: float
    error: str | None = None


@dataclass(frozen=True, eq=False, slots=True)
class SweepResult:
    """A sweep's rows in schedule order. It keeps 8 bytes per row, g_value
    (NaN where the row failed), and rows derives the rest on each access."""

    schedule: Schedule
    w: float
    T: float
    use_bromwich: bool
    g_packed: bytes  # the g_value column as float64
    errors: tuple[tuple[int, str], ...] = ()

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        cw = c_weight(self.w, self.T) if self.T >= 0.25 else 0.0
        errors, rows = dict(self.errors), []
        g_values = np.frombuffer(self.g_packed).tolist()
        for i, (ps, g) in enumerate(zip(self.schedule.points(), g_values)):
            log_sum = ps.log_sum
            normalized = g / log_sum if log_sum != 0.0 else math.nan
            rows.append(SweepRow(ps.sup, log_sum, g, g - cw * log_sum, normalized, errors.get(i)))
        return tuple(rows)


def thread_cap(n_jobs: int) -> int:
    """Worker count for n_jobs contour rows (series rows take 1), capped by SPECTRA_THREADS."""
    cap = min(n_jobs, os.cpu_count() or 1, 8)
    env = os.environ.get("SPECTRA_THREADS")
    if env is not None:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            raise DomainError(f"SPECTRA_THREADS must be an integer, got {env!r}")
    return max(1, cap)


def run_sweep(
    sch: Schedule,
    w: float,
    T: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    inversion_policy: TruncationPolicy = DEFAULT_INVERSION_POLICY,
    use_bromwich: bool = False,
) -> SweepResult:
    """Evaluate the counting series along a schedule.

    g_value comes from the Bessel series or (use_bromwich) from
    weighted_inverse of the degenerating trace, series under `policy`, the
    inversion under `inversion_policy`. w and T must be finite and >= 0,
    and with use_bromwich T > 0 with 16/T and (w+1)/T finite, all checked
    before any row runs.
    residual subtracts c_weight(w, T) log_sum (zero below T = 1/4);
    normalized is g_value / log_sum, which approaches c_weight(w, T).
    """
    w, T = _check(w, "weight"), _check(T, "threshold")
    if use_bromwich:
        _check_line(T, w)
    if T >= 0.25:
        c_weight(w, T)  # every row's residual needs it, so an overflow fails the call

    def one(ps: PinchingSet) -> float | str:
        try:
            if use_bromwich:
                return weighted_inverse(lambda z: degenerating_trace(ps, z, policy), w, T,
                                        inversion_policy)
            return g_bessel(ps, w, T, policy)
        except PinchtraceError as exc:
            return str(exc)

    points = sch.points()
    workers = thread_cap(len(points)) if use_bromwich else 1
    if workers == 1:
        values = [one(ps) for ps in points]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only threaded sweeps pay for it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(one, points))
    errors = tuple((i, v) for i, v in enumerate(values) if isinstance(v, str))
    g = np.array([math.nan if isinstance(v, str) else v for v in values]).tobytes()
    return SweepResult(sch, w, T, use_bromwich, g, errors)


def fit_growth_exponent(samples) -> tuple[float, float]:
    """Least-squares fit of magnitude ~ C (1+s)^beta; returns (C, beta).

    Needs at least 8 samples with positive s and magnitude, and the s
    values must span at least one decade; anything narrower (all-equal
    included) is a degenerate design.
    """
    pts = [(float(s), float(m)) for s, m in samples]
    if len(pts) < 8:
        raise DomainError(f"fit needs >= 8 samples, got {len(pts)}")
    if any(s <= 0.0 or m <= 0.0 for s, m in pts):
        raise DomainError("fit requires s > 0 and magnitude > 0 throughout")
    s = np.array([p[0] for p in pts])
    m = np.array([p[1] for p in pts])
    if float(np.max(s)) < 10.0 * float(np.min(s)):
        raise DomainError("degenerate design: s values must span at least one decade")
    beta, logc = np.polyfit(np.log1p(s), np.log(m), 1)
    return (float(math.exp(logc)), float(beta))
