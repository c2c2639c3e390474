"""Brute-force ground truth: fixed-step RK4 integration of the coupled
power/phase equations, plus harmonic projection of the settled trace by the
same FFT (TimeTrace.harmonics) that the spectrum cross-check reads.

Everything here is deliberately independent of the harmonic-balance solver
so the two paths can be compared coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError
from .fourier import FourierSolution
from .model import TWO_PI, DeviceParams, ModulationConfig, OperatingPoint, derive_operating_point
from .spectrum import TimeTrace

# Step must resolve both the modulation period and the relaxation rate.
_STEPS_PER_PERIOD_MIN = 200
_GAMMA_P_DT_MAX = 0.1
_TRANSIENT_GAMMA_P_MIN = 10.0


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step integration window.

    transient_cut must be long enough for the 2*Gamma_p relaxation to die
    out; the window after it should span whole modulation periods if the
    trace is to be projected.
    """

    dt: float
    t_end: float
    transient_cut: float
    initial_delta_p: float = 0.0

    def validate(self, op: OperatingPoint, modcfg: ModulationConfig) -> None:
        period = TWO_PI / modcfg.omega_m
        if self.dt > period / _STEPS_PER_PERIOD_MIN:
            raise StepSizeError(
                f"dt={self.dt:.3e} exceeds period/{_STEPS_PER_PERIOD_MIN} "
                f"= {period / _STEPS_PER_PERIOD_MIN:.3e}"
            )
        if op.gamma_p > 0.0 and self.dt > _GAMMA_P_DT_MAX / op.gamma_p:
            raise StepSizeError(
                f"dt={self.dt:.3e} exceeds {_GAMMA_P_DT_MAX}/gamma_p "
                f"= {_GAMMA_P_DT_MAX / op.gamma_p:.3e}"
            )
        if op.gamma_p > 0.0 and self.transient_cut < _TRANSIENT_GAMMA_P_MIN / op.gamma_p:
            raise StepSizeError(
                f"transient_cut={self.transient_cut:.3e} is shorter than "
                f"{_TRANSIENT_GAMMA_P_MIN}/gamma_p = "
                f"{_TRANSIENT_GAMMA_P_MIN / op.gamma_p:.3e}"
            )
        if self.t_end <= self.transient_cut:
            raise StepSizeError("t_end must exceed transient_cut")

    @classmethod
    def for_steady_state(
        cls,
        op: OperatingPoint,
        modcfg: ModulationConfig,
        samples_per_period: int = 512,
    ) -> "IntegrationConfig":
        """Window aligned to the modulation period for clean projection: a
        transient of 15/Gamma_p rounded up to whole periods, then 8 periods."""
        period = TWO_PI / modcfg.omega_m
        dt = period / samples_per_period
        if op.gamma_p > 0.0:
            transient_periods = math.ceil(15.0 / op.gamma_p / period)
        else:
            transient_periods = 1
        transient_cut = transient_periods * period
        return cls(dt=dt, t_end=transient_cut + 8 * period, transient_cut=transient_cut)


def _rk4(rate, y0: float, w0: float, w1: float, h: float, n_steps: int):
    """Fixed-step RK4 of dy/dt = rate(t, y) with dphi/dt = w0 + w1*y, phi(0) = 0.

    Returns the sample times, y and phi, all of length n_steps + 1.
    """
    t_arr = np.empty(n_steps + 1)
    y_arr = np.empty(n_steps + 1)
    phi_arr = np.empty(n_steps + 1)
    y, phi = y0, 0.0
    t_arr[0], y_arr[0], phi_arr[0] = 0.0, y, phi
    for i in range(n_steps):
        t = i * h
        k1 = rate(t, y)
        k2 = rate(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rate(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rate(t + h, y + h * k3)
        # phase rate is affine in y, so its RK4 stages reuse the k's
        phi += h * (w0 + w1 * (y + (h / 6.0) * (k1 + k2 + k3)))
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_arr[i + 1] = (i + 1) * h
        y_arr[i + 1] = y
        phi_arr[i + 1] = phi
    return t_arr, y_arr, phi_arr


def _settled(icfg: IntegrationConfig, t: np.ndarray, y: np.ndarray, phi: np.ndarray):
    """The samples from transient_cut on, endpoint-exclusive."""
    keep = t >= icfg.transient_cut - 0.5 * icfg.dt
    keep[-1] = False
    return t[keep], y[keep], phi[keep]


def integrate_reduced(
    op: OperatingPoint, modcfg: ModulationConfig, icfg: IntegrationConfig
) -> TimeTrace:
    """RK4 integration of the reduced power/phase equations.

    Returns the post-transient samples; the phase is demodulated at
    omega_sto + 2*nu*Gamma_p*<delta_p> with the mean taken over the
    retained window.
    """
    icfg.validate(op, modcfg)
    mu, w = modcfg.mu, modcfg.omega_m
    c1, c2, gp = op.c1, op.c2, op.gamma_p
    wsto = op.omega_sto
    nu_gp2 = 2.0 * op.nu * op.gamma_p
    h = icfg.dt
    n_steps = int(round(icfg.t_end / h))

    def dpdot(t: float, dp: float) -> float:
        drive = mu * math.cos(w * t)
        return c1 * drive + 2.0 * dp * (c2 * drive - gp)

    t, dp, phi = _settled(icfg, *_rk4(dpdot, icfg.initial_delta_p, wsto, nu_gp2, h, n_steps))
    demod = wsto + nu_gp2 * float(dp.mean())
    return TimeTrace(t=t, delta_p=dp, phi=phi - demod * t, demod_freq=demod)


def integrate_full(
    params: DeviceParams, modcfg: ModulationConfig, icfg: IntegrationConfig
) -> TimeTrace:
    """Exploratory RK4 integration of the unreduced power/phase pair.

    Integrates dp/dt = 2*(Gamma_minus(p, t) - Gamma_G)*p with the same
    first-order damping model, without linearizing about p0.  No acceptance
    claim is attached to this path; it exists for cross-checking the
    reduced equations at small mu.
    """
    op = derive_operating_point(params)
    icfg.validate(op, modcfg)
    mu, w = modcfg.mu, modcfg.omega_m
    gamma_g = params.alpha * op.omega_o
    sigma_i = gamma_g * params.xi
    p0 = op.p0
    nu_over_p0 = params.nu * op.gamma_p / p0
    h = icfg.dt
    n_steps = int(round(icfg.t_end / h))

    def pdot(t: float, p: float) -> float:
        gm = sigma_i * (1.0 + mu * math.cos(w * t)) * (1.0 - p)
        return 2.0 * (gm - gamma_g) * p

    p_start = p0 * (1.0 + 2.0 * icfg.initial_delta_p)
    t, p, phi = _settled(icfg, *_rk4(pdot, p_start, op.omega_o, nu_over_p0, h, n_steps))
    dp = (p / p0 - 1.0) / 2.0
    demod = op.omega_o + params.nu * op.gamma_p * (1.0 + 2.0 * float(dp.mean()))
    return TimeTrace(t=t, delta_p=dp, phi=phi - demod * t, demod_freq=demod)


def project_harmonics(
    trace: TimeTrace,
    modcfg: ModulationConfig,
    n_harmonics: int,
    op: OperatingPoint,
) -> FourierSolution:
    """Extract A0, A_n, B_n from a settled trace by harmonic projection.

    The projection is TimeTrace.harmonics of dp, one FFT in absolute time, so
    c_n = (B_n - i*A_n)/2 is directly comparable to the harmonic-balance
    coefficients.
    """
    c = trace.harmonics(trace.delta_p, modcfg.omega_m, n_harmonics)[n_harmonics:]
    return FourierSolution(
        a0=float(c[0].real), a=-2.0 * c[1:].imag, b=2.0 * c[1:].real,
        n_harmonics=n_harmonics, op=op, modcfg=modcfg,
    )
