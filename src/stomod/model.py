"""Device parameters and derived operating-point constants.

The free layer is assumed saturated by a perpendicular applied field, with
the negative damping expanded to first order in power.  Under that model the
per-bias constants reduce to closed forms in (alpha, omega_o, xi):

    Gamma_p   = alpha * omega_o * (xi - 1)
    p0        = 1 - 1/xi
    C1        = alpha * omega_o
    C2        = alpha * omega_o * (2 - xi)
    omega_sto = omega_o + nu * Gamma_p

All internal math uses angular frequency (rad/s); the gyromagnetic ratio is
taken as cyclic (Hz/T) on input, matching how it is usually quoted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .errors import BelowThresholdError, UnsaturatedRegimeError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DeviceParams:
    """Raw physical inputs of the oscillator.

    Attributes
    ----------
    mu0_h_app : float
        Applied field times vacuum permeability, tesla.
    mu0_ms : float
        Saturation magnetization times vacuum permeability, tesla.
    gamma : float
        Gyromagnetic ratio, Hz/T (cyclic).
    alpha : float
        Gilbert damping, dimensionless, > 0.
    nu : float
        Nonlinear frequency-shift coefficient, dimensionless, any sign.
    xi : float
        Supercriticality I_dc/I_th; > 1 for auto-oscillation.
    """

    mu0_h_app: float
    mu0_ms: float
    gamma: float
    alpha: float
    nu: float
    xi: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.mu0_h_app <= self.mu0_ms:
            raise UnsaturatedRegimeError(
                f"mu0_h_app={self.mu0_h_app} must exceed mu0_ms={self.mu0_ms} "
                "(perpendicular saturated regime)"
            )
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.xi <= 0.0:
            raise ValueError(f"xi must be positive, got {self.xi}")


@dataclass(frozen=True)
class OperatingPoint:
    """Derived per-bias quantities, all rates in rad/s."""

    omega_o: float
    omega_sto: float
    gamma_p: float
    p0: float
    c1: float
    c2: float
    nu: float


@dataclass(frozen=True)
class ModulationConfig:
    """Single-tone modulation settings and series truncation order."""

    mu: float
    omega_m: float
    n_harmonics: int = 10

    def __post_init__(self) -> None:
        if self.mu < 0.0 or not math.isfinite(self.mu):
            raise ValueError(f"modulation strength mu must be >= 0, got {self.mu}")
        if self.mu >= 1.0:
            warnings.warn(
                f"mu={self.mu} >= 1: outside the small-modulation validity range",
                stacklevel=3,
            )
        if self.omega_m <= 0.0 or not math.isfinite(self.omega_m):
            raise ValueError(f"omega_m must be positive and finite, got {self.omega_m}")
        if self.n_harmonics < 1:
            raise ValueError(f"n_harmonics must be >= 1, got {self.n_harmonics}")


def derive_operating_point(params: DeviceParams) -> OperatingPoint:
    """Derive all operating-point constants from device parameters.

    Raises
    ------
    BelowThresholdError
        If xi <= 1 (no sustained oscillation).
    """
    if params.xi <= 1.0:
        raise BelowThresholdError(
            f"xi={params.xi} is at or below the oscillation threshold (xi > 1 required)"
        )
    omega_o = TWO_PI * params.gamma * (params.mu0_h_app - params.mu0_ms)
    gamma_p = params.alpha * omega_o * (params.xi - 1.0)
    p0 = 1.0 - 1.0 / params.xi
    # First-order negative damping sigma*I*(1 - p); only sigma*I = alpha*omega_o*xi enters.
    sigma_i = params.alpha * omega_o * params.xi
    c1 = sigma_i * (1.0 - p0)
    c2 = sigma_i * (1.0 - 2.0 * p0)
    omega_sto = omega_o + params.nu * gamma_p
    return OperatingPoint(
        omega_o=omega_o,
        omega_sto=omega_sto,
        gamma_p=gamma_p,
        p0=p0,
        c1=c1,
        c2=c2,
        nu=params.nu,
    )


def frequency_dispersion(
    params: DeviceParams, xi_grid: list[float]
) -> list[tuple[float, float]]:
    """Free-running frequency f_STO (Hz) over a supercriticality grid.

    xi = 1 is allowed here (threshold point, Gamma_p = 0); values below 1
    are rejected.
    """
    omega_o = TWO_PI * params.gamma * (params.mu0_h_app - params.mu0_ms)
    out: list[tuple[float, float]] = []
    for xi in xi_grid:
        if xi < 1.0:
            raise ValueError(f"dispersion grid value xi={xi} is below threshold")
        gamma_p = params.alpha * omega_o * (xi - 1.0)
        out.append((xi, (omega_o + params.nu * gamma_p) / TWO_PI))
    return out


def warn_if_fast_modulation(op: OperatingPoint, modcfg: ModulationConfig) -> None:
    """Warn when omega_m is not small against the carrier (model assumption)."""
    if modcfg.omega_m > 0.1 * abs(op.omega_sto):
        warnings.warn(
            "omega_m is not small compared to omega_sto; the slow-modulation "
            "assumption is strained (injection locking is not modeled)",
            stacklevel=3,
        )
