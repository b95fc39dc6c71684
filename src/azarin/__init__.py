"""Numerical toolkit for scaling limits of Radon measures on (0, oo).

Proximate-order growth scales, constructive Radon measures with the pinned
metric of dyadic trapezoid bumps, the scaling flow and its limit sets,
Mellin-type kernel transforms with their smoothing/antiderivative
harnesses, and Wiener/Carleman checks that transfer regularity from the
smoothed transform back to the measure.
"""

from .carleman import CarlemanTransform, RealMeasure, spectrum_jump_scan
from .dynamics import (LimitSetEstimate, convergence_trend, estimate_limit_set,
                       geometric_schedule, positive_regularity_criterion,
                       sample_trajectory, verify_regular_limit_form)
from .kernels import (ExpKernel, IndicatorKernel, LogSingularKernel,
                      PowerCutKernel, SmoothBumpKernel, StepKernel,
                      TableKernel, trapezoid_kernel)
from .measures import (MetricFamily, RadonMeasure, class_membership, lower_density,
                       upper_density)
from .numerics import (DivergenceError, QuadControl, SingularPointError,
                       WindowError)
from .orders import (FlatZero, LogLogZero, LogPowerZero, ProximateOrder,
                     TabulatedZero, poisson_smoothed_scale, potter_bound_report,
                     potter_decay_scan, potter_factor, potter_factor_lower)
from .special import lanczos_gamma
from .tauberian import (mellin_symbol, mellin_symbol_table, tauberian_roundtrip,
                        verify_exponential_solution, wiener_zero_scan)
from .transforms import (KernelTransform, averaged_measure,
                         canonical_antiderivative, check_antiderivative_identity,
                         distribution_function, integrability_report,
                         neutralization_report, order_diagnostic,
                         stable_order_report, verify_averaged_limit_densities)

__version__ = "0.1.0"

__all__ = [
    "CarlemanTransform", "RealMeasure", "spectrum_jump_scan",
    "LimitSetEstimate", "convergence_trend", "estimate_limit_set",
    "geometric_schedule", "positive_regularity_criterion",
    "sample_trajectory", "verify_regular_limit_form",
    "ExpKernel", "IndicatorKernel", "LogSingularKernel", "PowerCutKernel",
    "SmoothBumpKernel", "StepKernel", "TableKernel", "trapezoid_kernel",
    "MetricFamily", "RadonMeasure",
    "class_membership", "lower_density", "upper_density",
    "DivergenceError", "QuadControl", "SingularPointError", "WindowError",
    "FlatZero", "LogLogZero", "LogPowerZero", "ProximateOrder",
    "TabulatedZero", "poisson_smoothed_scale", "potter_bound_report",
    "potter_decay_scan", "potter_factor", "potter_factor_lower",
    "lanczos_gamma",
    "mellin_symbol", "mellin_symbol_table", "tauberian_roundtrip",
    "verify_exponential_solution", "wiener_zero_scan",
    "KernelTransform", "averaged_measure", "canonical_antiderivative",
    "check_antiderivative_identity", "distribution_function",
    "integrability_report", "neutralization_report", "order_diagnostic",
    "stable_order_report", "verify_averaged_limit_densities",
]
