"""Weighted spectral counting for degenerating hyperbolic surfaces.

Heat traces built from length spectra, their Laplace-type inversion into
weighted eigenvalue counts, and the small-length asymptotics of the
counting series that appears when geodesics pinch. Everything numerical
carries a truncation policy and certified tail bounds; the dual
computation routes (Bessel series vs. contour inversion, fast Bessel vs.
series oracle) are kept separate so they can check each other.
"""

from .counting import (
    balance_epsilon,
    c_weight,
    counting_direct,
    g_bessel,
    g_expansion,
    g_limit,
    g_residual,
    g_sine_form,
    sandwich_check,
)
from .errors import (
    DomainError,
    ImaginaryResidueError,
    NonConvergenceError,
    PinchtraceError,
    SchemaError,
    TailEstimateError,
    TruncationBudgetError,
    UncertifiedTailWarning,
)
from .hyperbolic import (
    cylinder_displacement,
    cylinder_trace,
    heat_kernel,
    heat_kernel_origin,
)
from .policy import ContourSpec, DEFAULT_POLICY, TruncationPolicy, default_contour
from .specfun import bessel_j, bessel_j_half, bessel_j_oracle, gamma
from .spectrum import LengthSpectrum, PinchingSet, SpectralData
from .sweep import (
    Schedule,
    SweepResult,
    SweepRow,
    fit_growth_exponent,
    run_sweep,
    thread_cap,
)
from .trace import (
    degenerating_trace,
    hyperbolic_trace,
    regularized_trace,
    spectral_trace,
)
from .xform import (
    DEFAULT_INVERSION_POLICY,
    InversionResult,
    bromwich,
    weighted_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "gamma", "bessel_j", "bessel_j_half", "bessel_j_oracle",
    # geometry kernels
    "heat_kernel", "heat_kernel_origin", "cylinder_displacement", "cylinder_trace",
    # spectra
    "LengthSpectrum", "PinchingSet", "SpectralData",
    # traces
    "hyperbolic_trace", "degenerating_trace", "spectral_trace", "regularized_trace",
    # transforms
    "bromwich", "weighted_inverse", "InversionResult",
    # counting
    "counting_direct", "c_weight", "g_bessel", "g_limit", "g_expansion", "g_sine_form",
    "g_residual", "sandwich_check", "balance_epsilon",
    # sweeps
    "Schedule", "SweepRow", "SweepResult", "run_sweep", "thread_cap",
    "fit_growth_exponent",
    # configuration
    "TruncationPolicy", "ContourSpec", "DEFAULT_POLICY",
    "DEFAULT_INVERSION_POLICY", "default_contour",
    # errors
    "PinchtraceError", "DomainError", "SchemaError", "NonConvergenceError",
    "TruncationBudgetError", "TailEstimateError", "ImaginaryResidueError",
    "UncertifiedTailWarning",
]
