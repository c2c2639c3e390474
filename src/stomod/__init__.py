"""Modulated spin-torque oscillator spectra.

Solves the driven power/phase equations of a nonlinear auto-oscillator by a
truncated Fourier ansatz, evaluates the combined amplitude/frequency
modulation line spectrum, and validates both against a fixed-step RK4
integration of the same equations.
"""

__version__ = "0.1.0"

from .errors import (
    BelowThresholdError,
    ConfigError,
    GridCoverageError,
    NumericalError,
    SeedBandError,
    SingularSystemError,
    StepSizeError,
    StomodError,
    UnsaturatedRegimeError,
)
from .fourier import (
    FourierSolution,
    carrier_shift,
    solve_coefficients_matrix,
    solve_coefficients_recursive,
    truncation_error,
)
from .model import (
    DeviceParams,
    ModulationConfig,
    OperatingPoint,
    derive_operating_point,
)
from .oracle import IntegrationConfig, integrate_full, integrate_reduced, project_harmonics
from .spectrum import (
    LineSpectrum,
    TimeTrace,
    modulation_bandwidth,
    peak_frequency_deviation,
    psd_analytic,
    psd_fft,
    sideband_asymmetry,
    solve_mu_for_beta1,
    synthesize_time_trace,
)

__all__ = [
    "__version__",
    "BelowThresholdError",
    "ConfigError",
    "GridCoverageError",
    "NumericalError",
    "SeedBandError",
    "SingularSystemError",
    "StepSizeError",
    "StomodError",
    "UnsaturatedRegimeError",
    "DeviceParams",
    "ModulationConfig",
    "OperatingPoint",
    "derive_operating_point",
    "FourierSolution",
    "carrier_shift",
    "solve_coefficients_matrix",
    "solve_coefficients_recursive",
    "truncation_error",
    "IntegrationConfig",
    "integrate_full",
    "integrate_reduced",
    "project_harmonics",
    "LineSpectrum",
    "TimeTrace",
    "modulation_bandwidth",
    "peak_frequency_deviation",
    "psd_analytic",
    "psd_fft",
    "sideband_asymmetry",
    "solve_mu_for_beta1",
    "synthesize_time_trace",
]
