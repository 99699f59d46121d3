"""Weighted spectral counting for degenerating hyperbolic surfaces.

Heat traces built from length spectra, their Laplace-type inversion into
weighted eigenvalue counts, and the small-length asymptotics of the
counting series that appears when geodesics pinch. Everything numerical
carries a truncation policy and certified tail bounds; the dual
computation routes (Bessel series vs. contour inversion, fast Bessel vs.
series oracle) are kept separate so they can check each other.

`import pinchtrace` is lazy: it loads no submodule, and each public name
imports its module on first use (PEP 562). So a program that touches
only the closed forms (gamma, counting_direct, c_weight, balance_epsilon,
bessel_j_oracle), the value types, the policies or the errors never
loads numpy.
"""

import importlib

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
    "TruncationPolicy", "DEFAULT_POLICY", "DEFAULT_INVERSION_POLICY",
    # errors
    "PinchtraceError", "DomainError", "SchemaError", "NonConvergenceError",
    "TruncationBudgetError", "UncertifiedTailWarning",
]

# public name -> the submodule that defines it, imported on first use
_MODULES = {name: module for module, names in (
    ("closed", "balance_epsilon bessel_j_oracle c_weight counting_direct gamma"),
    ("counting", "g_bessel g_expansion g_limit g_residual g_sine_form sandwich_check"),
    ("errors", "DomainError NonConvergenceError PinchtraceError SchemaError "
               "TruncationBudgetError UncertifiedTailWarning"),
    ("hyperbolic", "cylinder_displacement cylinder_trace heat_kernel heat_kernel_origin"),
    ("policy", "DEFAULT_INVERSION_POLICY DEFAULT_POLICY TruncationPolicy"),
    ("specfun", "bessel_j bessel_j_half"),
    ("spectrum", "LengthSpectrum PinchingSet SpectralData"),
    ("sweep", "Schedule SweepResult SweepRow fit_growth_exponent run_sweep thread_cap"),
    ("trace", "degenerating_trace hyperbolic_trace regularized_trace spectral_trace"),
    ("xform", "InversionResult bromwich weighted_inverse"),
) for name in names.split()}


def __getattr__(name):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
