"""Device parameters and derived operating-point constants.

The free layer is assumed saturated by a perpendicular applied field, with
the negative damping expanded to first order in power.  Under that model the
per-bias constants reduce to closed forms in (alpha, omega_o, xi):

    Gamma_p   = alpha * omega_o * (xi - 1)
    p0        = 1 - 1/xi
    C1        = alpha * omega_o
    C2        = alpha * omega_o * (2 - xi)
    omega_sto = omega_o + nu * Gamma_p

They come from the positive damping Gamma_G = alpha * omega_o and the
spin-torque gain sigma*I = Gamma_G * xi, with which two identities hold:

    C1 = sigma*I * (1 - p0) = Gamma_G
    sigma*I - Gamma_G = Gamma_p,  so  sigma*I = C1 + Gamma_p

So an OperatingPoint carries every rate of the model, and the unreduced
RK4 integrator reads its rates from one, as the reduced one does.

All internal math uses angular frequency (rad/s); the gyromagnetic ratio is
taken as cyclic (Hz/T) on input, matching how it is usually quoted.

The modulated model holds for small (mu < 1) and slow (omega_m much below
omega_sto) modulation.  That rule is stated once, in warn_outside_model,
which each call of a solver or an RK4 integrator makes; ModulationConfig
itself only refuses values that are invalid outright, so deriving another
order from it never warns.  The two searches, the mu back-solve and the
bandwidth scan, silence their evaluations (spectrum._quietly), the bandwidth
scan's seed solve included, and a bandwidth call warns once, from its
corner.  So a counted warning counts kept table rows or library calls, not
the evaluations of a search.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass, fields

from .errors import BelowThresholdError, NumericalError, UnsaturatedRegimeError

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
    """Single-tone modulation settings and series truncation order.

    A plain validated value: building one never warns, whatever mu is;
    warn_outside_model warns where a model is evaluated.  A derived order is
    dataclasses.replace(modcfg, n_harmonics=n), validated the same way.
    """

    mu: float
    omega_m: float
    n_harmonics: int = 10

    def __post_init__(self) -> None:
        if self.mu < 0.0 or not math.isfinite(self.mu):
            raise ValueError(f"modulation strength mu must be >= 0, got {self.mu}")
        if self.omega_m <= 0.0 or not math.isfinite(self.omega_m):
            raise ValueError(f"omega_m must be positive and finite, got {self.omega_m}")
        try:
            operator.index(self.n_harmonics)
        except TypeError:
            raise ValueError(f"n_harmonics must be an integer, got {self.n_harmonics!r}") from None
        if self.n_harmonics < 1:
            raise ValueError(f"n_harmonics must be >= 1, got {self.n_harmonics}")


def derive_operating_point(params: DeviceParams) -> OperatingPoint:
    """Derive all operating-point constants from device parameters.

    Raises
    ------
    BelowThresholdError
        If xi <= 1 (no sustained oscillation).
    NumericalError
        If finite inputs overflow Gamma_p, sigma*I or omega_sto, or underflow
        Gamma_p below the smallest normal float, or if nu*Gamma_p pulls the
        carrier omega_sto to or below 0.  Each message names xi.
    """
    if params.xi <= 1.0:
        raise BelowThresholdError(
            f"xi={params.xi} is at or below the oscillation threshold (xi > 1 required)"
        )
    return _operating_point(params)


def _operating_point(params: DeviceParams) -> OperatingPoint:
    """The closed forms of the module docstring, without the threshold check
    (xi = 1 gives the threshold point, Gamma_p = 0)."""
    omega_o = TWO_PI * params.gamma * (params.mu0_h_app - params.mu0_ms)
    gamma_p = params.alpha * omega_o * (params.xi - 1.0)
    if not (sys.float_info.min <= gamma_p < math.inf or gamma_p == 0.0 and params.xi == 1.0):
        raise NumericalError(
            f"Gamma_p={gamma_p} rad/s at xi={params.xi} is not a positive normal float"
        )
    p0 = 1.0 - 1.0 / params.xi
    # First-order negative damping sigma*I*(1 - p); only sigma*I = alpha*omega_o*xi enters.
    sigma_i = params.alpha * omega_o * params.xi
    if not math.isfinite(sigma_i):
        raise NumericalError(f"sigma*I={sigma_i} rad/s at xi={params.xi} is not finite")
    c1 = sigma_i * (1.0 - p0)
    c2 = sigma_i * (1.0 - 2.0 * p0)
    omega_sto = omega_o + params.nu * gamma_p
    if not math.isfinite(omega_sto):
        raise NumericalError(
            f"f_STO = f_o + nu*Gamma_p/2pi is not finite at xi={params.xi} (nu={params.nu})"
        )
    if omega_sto <= 0.0:
        raise NumericalError(
            f"f_STO={omega_sto / TWO_PI:.4g} Hz at xi={params.xi} is not positive (nu={params.nu})"
        )
    return OperatingPoint(
        omega_o=omega_o,
        omega_sto=omega_sto,
        gamma_p=gamma_p,
        p0=p0,
        c1=c1,
        c2=c2,
        nu=params.nu,
    )


def warn_outside_model(op: OperatingPoint, modcfg: ModulationConfig) -> None:
    """Warn when modcfg leaves the model's validity range: mu >= 1 (small
    modulation) or omega_m not small against the carrier (slow modulation).

    Called once per call of either solver or either RK4 integrator, from
    that function's own body, so stacklevel=3 names the line that called
    it.  A search's evaluations are silent (spectrum._quietly), and
    modulation_bandwidth calls this once at its corner, so a run's count of
    each warning is its count of kept rows and library calls outside the
    range, not of evaluations.
    """
    if modcfg.mu >= 1.0:
        warnings.warn(
            f"mu={modcfg.mu} >= 1: outside the small-modulation validity range",
            stacklevel=3,
        )
    if modcfg.omega_m > 0.1 * abs(op.omega_sto):
        warnings.warn(
            "omega_m is not small compared to omega_sto; the slow-modulation "
            "assumption is strained (injection locking is not modeled)",
            stacklevel=3,
        )
