"""Weighted spectral counting for degenerating hyperbolic surfaces.

Heat traces of length spectra, their Laplace-type inversion into weighted
eigenvalue counts, and the small-length asymptotics of the counting
series when geodesics pinch, all certified to a truncation policy; the
dual routes (Bessel series vs. contour inversion, fast Bessel vs. series
oracle) stay separate so that they check each other.

`import pinchtrace` is lazy (PEP 562): each public name imports its module
on first use, so the closed forms, value types, policies and errors
never load numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, imported on first use
_MODULES = {name: module for module, names in (
    ("closed", "balance_epsilon bessel_j_oracle c_weight counting_direct gamma"),
    ("counting", "g_bessel g_expansion g_limit g_residual g_sine_form sandwich_check"),
    ("errors", "DomainError PinchtraceError SchemaError TruncationBudgetError "
               "UncertifiedTailWarning"),
    ("hyperbolic", "cylinder_trace heat_kernel heat_kernel_origin"),
    ("policy", "DEFAULT_INVERSION_POLICY DEFAULT_POLICY TruncationPolicy"),
    ("specfun", "bessel_j"),
    ("spectrum", "LengthSpectrum PinchingSet SpectralData"),
    ("sweep", "Schedule SweepResult SweepRow fit_growth_exponent run_sweep thread_cap"),
    ("trace", "degenerating_trace hyperbolic_trace spectral_trace"),
    ("xform", "InversionResult bromwich weighted_inverse"),
) for name in names.split()}

__all__ = ["__version__", *_MODULES]


def __getattr__(name):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
