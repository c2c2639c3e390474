"""Brute-force ground truth: fixed-step RK4 integration of the coupled
power/phase equations on their periodic orbit, plus harmonic projection of
the trace by the same FFT (TimeTrace.harmonics) that the spectrum
cross-check reads.

Both integrated power equations are linear in their state y, dy/dt =
a(t) + b(t)*y: the reduced one in delta_p, the full one in u = 1/p (an exact
Bernoulli substitution).  One RK4 step is then the affine map
y_{i+1} = m_i*y_i + n_i.  The coefficients are periodic in the modulation
and the step divides its period, so the maps repeat every period: numpy
forms one period's maps once per call, and a log-depth doubling scan
composes them into the period's prefix maps, the last of which is the
period map y -> G*y + O.  Its fixed point y* = O/(1 - G) starts the
discrete RK4 map's periodic orbit, which attracts every start when |G| < 1
(the shooting method for periodic steady states, exact here in one
division), so no transient is stepped.  No step or period runs in Python.

The periodic orbit repeats every modulation period, so one period is the
whole steady state, and it is all that an integration returns.
IntegrationConfig.validate is the one place that checks a run and counts
its period_steps = round(period/dt) steps to a modulation period (at most
2**21).  The trace's times are t = i*dt, 0 <= i < period_steps: one period
expanded from y*, with the phase summed from 0 at t = 0.  A caller that
wants more periods tiles the trace.  Each integration also calls
model.warn_outside_model once, as each solve does.

The one driver serves both models; each model supplies only its phase step.
The reduced phase rate, omega_sto + 2*nu*Gamma_p*delta_p, is linear in the
stepped state, so its step is affine in y_i; the full model's,
omega_o + nu*Gamma_p/(p0*u), is not linear in u, so it is summed stage by
stage.

Everything here is deliberately independent of the harmonic-balance solver
so the two paths can be compared coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, StepSizeError
from .fourier import FourierSolution
from .model import TWO_PI, ModulationConfig, OperatingPoint, warn_outside_model
from .spectrum import TimeTrace

# Step must resolve both the modulation period and the relaxation rate.
_STEPS_PER_PERIOD_MIN = 200
_GAMMA_P_DT_MAX = 0.1

# How far, in ulps of the period, dt times the steps per period, and t_end,
# may miss it.
_PERIOD_ULPS = 4
# Most steps in one period: the some 16 period-length arrays of its maps then
# take 16 MiB each, about 256 MiB together.
_MAX_PERIOD_STEPS = 2**21


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step integration over one modulation period: the times
    t = i*dt, 0 <= i < period/dt.

    dt must divide the modulation period into whole steps, to within a few
    ulps, because the stepper forms the RK4 maps of one period.  The trace
    starts on the periodic orbit, so there is no transient to discard, and
    that one period is the whole steady state.  t_end must be the modulation
    period, to within the same few ulps: it is kept only because the
    benchmark counts a run's steps as t_end/dt, and it can go once ROADMAP
    item 1 lets bench/ count them some other way.
    """

    dt: float
    t_end: float

    def validate(self, op: OperatingPoint, modcfg: ModulationConfig) -> int:
        """Check dt and t_end against op and modcfg and return period_steps =
        round(period/dt), the steps to one modulation period and the run's
        sample count.  Raises StepSizeError."""
        period = TWO_PI / modcfg.omega_m
        if self.dt > period / _STEPS_PER_PERIOD_MIN:
            raise StepSizeError(
                f"dt={self.dt:.3e} exceeds period/{_STEPS_PER_PERIOD_MIN} "
                f"= {period / _STEPS_PER_PERIOD_MIN:.3e}"
            )
        steps = period / self.dt if self.dt > 0.0 else math.nan
        if not (
            math.isfinite(steps)
            and abs(round(steps) * self.dt - period) <= _PERIOD_ULPS * math.ulp(period)
        ):
            raise StepSizeError(
                f"dt={self.dt:.6e} does not divide the modulation period "
                f"{period:.6e} into whole steps (period/dt = {steps:.9g})"
            )
        if round(steps) > _MAX_PERIOD_STEPS:
            raise StepSizeError(
                f"dt={self.dt:.6e} takes {round(steps)} steps to the modulation period "
                f"{period:.6e}, more than the {_MAX_PERIOD_STEPS} (2**21) one period may hold"
            )
        if op.gamma_p > 0.0 and self.dt > _GAMMA_P_DT_MAX / op.gamma_p:
            raise StepSizeError(
                f"dt={self.dt:.3e} exceeds {_GAMMA_P_DT_MAX}/gamma_p "
                f"= {_GAMMA_P_DT_MAX / op.gamma_p:.3e}"
            )
        if not abs(self.t_end - period) <= _PERIOD_ULPS * math.ulp(period):
            raise StepSizeError(
                f"t_end={self.t_end:.6e} is not the modulation period {period:.6e}: "
                "an integration returns exactly one period"
            )
        return round(steps)

    @classmethod
    def for_steady_state(
        cls,
        op: OperatingPoint,
        modcfg: ModulationConfig,
        samples_per_period: int = 512,
    ) -> "IntegrationConfig":
        """One modulation period, the whole steady state, for clean projection:
        at least `samples_per_period` steps per period (more if
        dt <= 0.1/Gamma_p needs them)."""
        period = TWO_PI / modcfg.omega_m
        dt = period / max(samples_per_period, math.ceil(period * op.gamma_p / _GAMMA_P_DT_MAX))
        return cls(dt=dt, t_end=period)


def _affine_scan(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """y_1 .. y_L of the recurrence y_{i+1} = m_i*y_i + n_i from y_0 = 0, L = len(m).

    A log-depth doubling scan, in place on n (m is overwritten too): the
    pass at span s composes each map with the map ending s steps before it,
    so that afterwards n[i] is y_{i+1} for i < 2s and otherwise the offset
    of the composed steps i-2s+1 .. i; the passes end once 2s >= L.  Later
    passes read m only from index 2s on, so only that part is composed,
    into a second buffer: numpy would copy an overlapping operand.  No
    division, so m = 0 and negative m need no special case, and a NaN or
    inf in n_i, or in m_i for i >= 1, makes y_{i+1} and every later state
    non-finite, as the sequential recurrence does; m_0 multiplies y_0 = 0
    only, so it is not read.  Returns n.
    """
    other = np.empty_like(m)
    span = 1
    while span < n.size:
        n[span:] += m[span:] * n[:-span]
        np.multiply(m[2 * span :], m[span:-span], out=other[2 * span :])
        m, other = other, m
        span *= 2
    return n


def _period_maps(coeffs, h: float, period_steps: int):
    """One period's RK4 maps of dy/dt = a(t) + b(t)*y.

    Every stage state is Y_j = c_j + d_j*y_i, so one step is the affine map
    y_{i+1} = m_i*y_i + n_i, the RK4 stability polynomial of a and b at t_i,
    t_i + h/2 and t_{i+1}.  coeffs(t) -> (a, b) must repeat every
    P = period_steps steps, so the maps are formed for one period: np.cumprod
    of m gives its prefix gains and _affine_scan its prefix offsets, so that
    y_{kP+i+1} = gain[i]*y_{kP} + offset[i].  Returns the stages' (c_j, d_j)
    for j = 2, 3, 4, gain and offset.  Non-finite values are left to the
    caller.
    """
    half, sixth = 0.5 * h, h / 6.0
    a, b = coeffs(np.arange(2 * period_steps + 1) * half)
    a1, b1, a2, b2, a4, b4 = a[:-1:2], b[:-1:2], a[1::2], b[1::2], a[2::2], b[2::2]
    # Stage j's state is c_j + d_j*y_i and its slope k_j = kc_j + kd_j*y_i;
    # stage 1 is y_i itself, with slope a1 + b1*y_i.
    c2, d2 = half * a1, 1.0 + half * b1
    kc2, kd2 = a2 + b2 * c2, b2 * d2
    c3, d3 = half * kc2, 1.0 + half * kd2
    kc3, kd3 = a2 + b2 * c3, b2 * d3
    c4, d4 = h * kc3, 1.0 + h * kd3
    m = 1.0 + sixth * (b1 + 2.0 * (kd2 + kd3) + b4 * d4)
    n = sixth * (a1 + 2.0 * (kc2 + kc3) + (a4 + b4 * c4))
    gain = np.cumprod(m)
    return ((c2, d2), (c3, d3), (c4, d4)), gain, _affine_scan(m, n)


def _rk4(coeffs, h: float, period_steps: int, phase_step):
    """Fixed-step RK4 of dy/dt = a(t) + b(t)*y and of its phase phi over one
    period of its periodic orbit, returning y and phi at t = i*h for
    i < period_steps, with phi = 0 at i = 0.

    The period map y -> G*y + O, (G, O) = (gain[-1], offset[-1]) of
    _period_maps, has the fixed point y* = O/(1 - G), which every start
    approaches as G**k when |G| < 1; a G that is not finite, or |G| >= 1,
    raises NumericalError.  One period is expanded from y* with the prefix
    maps, and phase_step(stages, y) returns 6/h times each state's phase
    step phi_{i+1} - phi_i, from the stages' (c_j, d_j) and the states y.
    np.cumsum sums the phase steps from 0; the last one, which ends the
    period, is not kept.  A non-finite state or phase raises
    NumericalError.
    """
    # A blow-up is reported below as one NumericalError, not as numpy warnings.
    with np.errstate(all="ignore"):
        stages, gain, offset = _period_maps(coeffs, h, period_steps)
        g = gain[-1]
        if not abs(g) < 1.0:
            raise NumericalError(
                f"RK4 period gain G={g:.6g} is not finite or has |G| >= 1: no orbit attracts"
            )
        y0 = offset[-1] / (1.0 - g)
        y = np.concatenate(([y0], gain[:-1] * y0 + offset[:-1]))
        phi = np.cumsum(np.concatenate(([0.0], phase_step(stages, y)[:-1] * (h / 6.0))))
    if not (np.isfinite(y).all() and np.isfinite(phi).all()):
        raise NumericalError("RK4 trace is not finite")
    return y, phi


def _integrate(op: OperatingPoint, modcfg: ModulationConfig, icfg: IntegrationConfig,
               coeffs, phase_step):
    """Validate icfg, warn outside the model, then _rk4: t, y and phi over
    one modulation period."""
    period_steps = icfg.validate(op, modcfg)
    warn_outside_model(op, modcfg)
    t = np.arange(period_steps) * icfg.dt
    return t, *_rk4(coeffs, icfg.dt, period_steps, phase_step)


def _demodulated(op: OperatingPoint, t: np.ndarray, dp: np.ndarray, phi: np.ndarray) -> TimeTrace:
    """The trace with its phase demodulated at omega_sto + 2*nu*Gamma_p*<delta_p>:
    for the full model, that is omega_o + nu*Gamma_p*(1 + 2*<delta_p>)."""
    demod = op.omega_sto + 2.0 * op.nu * op.gamma_p * float(dp.mean())
    return TimeTrace(t=t, delta_p=dp, phi=phi - demod * t, demod_freq=demod)


def integrate_reduced(
    op: OperatingPoint, modcfg: ModulationConfig, icfg: IntegrationConfig
) -> TimeTrace:
    """RK4 integration of the reduced power/phase equations on their
    periodic orbit.

    The phase is integrated from 0 at t = 0 and demodulated at
    omega_sto + 2*nu*Gamma_p*<delta_p>, with the mean taken over the period,
    so the returned phi starts at exactly 0.
    """
    mu, w = modcfg.mu, modcfg.omega_m
    c1, c2, gp = op.c1, op.c2, op.gamma_p

    def coeffs(t: np.ndarray):
        drive = mu * np.cos(w * t)
        return c1 * drive, 2.0 * (c2 * drive - gp)

    w0, w1 = op.omega_sto, 2.0 * op.nu * op.gamma_p

    def phase_step(stages, dp):
        # The rate w0 + w1*dp is linear in the stage states c_j + d_j*dp_i, so
        # the weighted stage sum is 6*w0 + w1*(D*dp_i + C); it is formed at
        # rate level, so a rate that overflows still does.
        (c2, d2), (c3, d3), (c4, d4) = stages
        return ((1.0 + 2.0 * (d2 + d3) + d4) * dp + (2.0 * (c2 + c3) + c4)) * w1 + 6.0 * w0

    return _demodulated(op, *_integrate(op, modcfg, icfg, coeffs, phase_step))


def integrate_full(
    op: OperatingPoint, modcfg: ModulationConfig, icfg: IntegrationConfig
) -> TimeTrace:
    """Exploratory RK4 integration of the unreduced power/phase pair on its
    periodic orbit.

    Integrates dp/dt = 2*(Gamma_minus(p, t) - Gamma_G)*p with the same
    first-order damping model, without linearizing about p0.  The power
    equation is of Bernoulli type: with S = sigma*I*(1 + mu*cos(omega_m*t)),
    the exact substitution u = 1/p makes it linear,
    du/dt = 2*S - 2*(S - Gamma_G)*u.  Its rates come from op, as the
    reduced model's do: sigma*I = C1 + Gamma_p and sigma*I - Gamma_G =
    Gamma_p (see model.py), so
    du/dt = 2*S - 2*(Gamma_p + sigma*I*mu*cos(omega_m*t))*u, whose
    zero-drive decay is the reduced model's -2*Gamma_p.  It is stepped by
    the same affine RK4 as the reduced equations, from its own fixed point
    u*, and p is read back as 1/u.  The phase rate
    omega_o + nu*Gamma_p/(p0*u) is not linear in u, so each phase step takes
    it at the four RK4 stage states, weighted 1, 2, 2, 1.  No acceptance
    claim is attached to this path; it exists for cross-checking the reduced
    equations at small mu.  The phase is integrated and demodulated as in
    integrate_reduced, at omega_o + nu*Gamma_p*(1 + 2*<delta_p>), and starts
    at exactly 0.

    Raises NumericalError if the trace is not finite.
    """
    mu, w, gp = modcfg.mu, modcfg.omega_m, op.gamma_p
    sigma_i, nu_over_p0 = op.c1 + gp, op.nu * gp / op.p0

    def coeffs(t: np.ndarray):
        drive = sigma_i * mu * np.cos(w * t)
        return 2.0 * (sigma_i + drive), -2.0 * (gp + drive)

    def phase_step(stages, u):
        # The rate omega_o + nu*Gamma_p/(p0*u) is not linear in u, so it is
        # taken at each stage state: stage 1 is u_i itself, and stages 2 and 3
        # weigh 2.
        rate = nu_over_p0 / u + op.omega_o
        for (c, d), weight in zip(stages, (2.0, 2.0, 1.0)):
            rate += weight * (nu_over_p0 / (d * u + c) + op.omega_o)
        return rate

    t, u, phi = _integrate(op, modcfg, icfg, coeffs, phase_step)
    return _demodulated(op, t, (1.0 / u / op.p0 - 1.0) / 2.0, phi)


def project_harmonics(
    trace: TimeTrace,
    modcfg: ModulationConfig,
    n_harmonics: int,
    op: OperatingPoint,
) -> FourierSolution:
    """Extract A0 and X_n = B_n + i*A_n, n = 1..n_harmonics, from a settled trace
    by harmonic projection; the solution's modcfg carries n_harmonics.

    The projection is TimeTrace.harmonics of dp, one FFT in absolute time, so
    c_n = conj(X_n)/2 is directly comparable to the harmonic-balance
    coefficients.
    """
    c = trace.harmonics(trace.delta_p, modcfg.omega_m, n_harmonics)[n_harmonics:]
    modcfg = replace(modcfg, n_harmonics=n_harmonics)
    return FourierSolution(a0=float(c[0].real), x=2.0 * np.conj(c[1:]), op=op, modcfg=modcfg)
