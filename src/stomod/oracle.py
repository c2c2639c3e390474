"""Brute-force ground truth: fixed-step RK4 integration of the coupled
power/phase equations, plus harmonic projection of the settled trace by the
same FFT (TimeTrace.harmonics) that the spectrum cross-check reads.

Both integrated power equations are linear in their state y, dy/dt =
a(t) + b(t)*y: the reduced one in delta_p, the full one in u = 1/p (an exact
Bernoulli substitution).  One RK4 step is then the affine map
y_{i+1} = m_i*y_i + n_i.  The coefficients are periodic in the modulation
and the step divides its period, so the maps repeat every period: numpy
forms one period's maps once per call, a log-depth doubling scan composes
them into the period's prefix maps and a second scan steps whole periods,
so the trace is one broadcast from each period's first state.  No step or
period runs in Python.

IntegrationConfig.validate is the one place that works out a run's plan:
n_steps = round(t_end/dt) steps (at most 2**25), period_steps =
round(period/dt) to a modulation period, and the first retained sample,
the least i with i*dt >= transient_cut - dt/2.  The integrators take that
plan as it is, so the retained times are t = i*dt, first <= i < n_steps.
Each integration also calls model.warn_outside_model once, as each solve
does.

Only the periods from the one holding the first retained sample on are
expanded, and the phase is summed over those steps only, from 0 at the
first retained sample: the transient's phase is a constant that depends on
the start state and that no reader of the trace needs.  The one driver
serves both models; each model supplies only its phase step.  The reduced
phase rate, omega_sto + 2*nu*Gamma_p*delta_p, is linear in the stepped
state, so its step is affine in y_i; the full model's,
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
from .model import (TWO_PI, DeviceParams, ModulationConfig, OperatingPoint,
                    derive_operating_point, warn_outside_model)
from .spectrum import TimeTrace

# Step must resolve both the modulation period and the relaxation rate.
_STEPS_PER_PERIOD_MIN = 200
_GAMMA_P_DT_MAX = 0.1
_TRANSIENT_GAMMA_P_MIN = 10.0

# How far, in ulps of the period, dt times the steps per period may miss it.
_PERIOD_ULPS = 4
# Most steps in a run: each trace array then stays at or below 256 MiB.
_MAX_STEPS = 2**25


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step integration window.

    dt must divide the modulation period into whole steps, to within a few
    ulps, because the stepper reuses one period's RK4 maps for every period.
    transient_cut must be long enough for the 2*Gamma_p relaxation to die
    out; the window after it should span whole modulation periods if the
    trace is to be projected.
    """

    dt: float
    t_end: float
    transient_cut: float
    initial_delta_p: float = 0.0

    def validate(self, op: OperatingPoint, modcfg: ModulationConfig) -> tuple[int, int, int]:
        """Check the window against op and modcfg and return its plan,
        (n_steps, period_steps, first): the run takes n_steps = round(t_end/dt)
        steps, period_steps = round(period/dt) to a modulation period, and
        keeps the samples t = i*dt, first <= i < n_steps, where first is the
        least i with i*dt >= transient_cut - dt/2.  Raises StepSizeError."""
        for name in ("t_end", "transient_cut"):
            if not math.isfinite(getattr(self, name)):
                raise StepSizeError(f"{name}={getattr(self, name)} is not finite")
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
        # Clamped so that round() never meets inf: past the cap either way.
        n_steps = round(min(self.t_end / self.dt, 2.0 * _MAX_STEPS))
        if n_steps > _MAX_STEPS:
            raise StepSizeError(
                f"t_end={self.t_end:.6e} over dt={self.dt:.6e} is not a finite step count "
                f"of at most {_MAX_STEPS} (2**25)"
            )
        # The least i with i*dt >= cut, from one step before cut/dt's ceiling,
        # as the quotient may round past it; 0 and t_end bound the search.
        cut = self.transient_cut - 0.5 * self.dt
        first = max(0, math.ceil(max(0.0, min(cut, self.t_end)) / self.dt) - 1)
        while first < n_steps and first * self.dt < cut:
            first += 1
        if self.t_end <= self.transient_cut or first >= n_steps:
            raise StepSizeError(
                f"t_end={self.t_end:.6e} must exceed transient_cut={self.transient_cut:.6e} "
                f"and leave a sample t = i*dt, i < t_end/dt, at or after transient_cut - dt/2"
            )
        return n_steps, round(steps), first

    @classmethod
    def for_steady_state(
        cls,
        op: OperatingPoint,
        modcfg: ModulationConfig,
        samples_per_period: int = 512,
    ) -> "IntegrationConfig":
        """Window aligned to the modulation period for clean projection: at least
        `samples_per_period` steps per period (more if dt <= 0.1/Gamma_p needs them),
        a transient of 15/Gamma_p rounded up to whole periods, then 8 periods."""
        period = TWO_PI / modcfg.omega_m
        dt = period / max(samples_per_period, math.ceil(period * op.gamma_p / _GAMMA_P_DT_MAX))
        if op.gamma_p > 0.0:
            transient_periods = math.ceil(15.0 / op.gamma_p / period)
        else:
            transient_periods = 1
        transient_cut = transient_periods * period
        return cls(dt=dt, t_end=transient_cut + 8 * period, transient_cut=transient_cut)


def _affine_scan(m: np.ndarray, n: np.ndarray, y0: float) -> np.ndarray:
    """y_1 .. y_L of the recurrence y_{i+1} = m_i*y_i + n_i from y_0 = y0, L = len(m).

    A log-depth doubling scan, in place on n (m is overwritten too): with y0
    folded into n[0], the pass at span s composes each map with the map
    ending s steps before it, so that afterwards n[i] is y_{i+1} for i < 2s
    and otherwise the offset of the composed steps i-2s+1 .. i; the passes
    end once 2s >= L.  Later passes read m only from index 2s on, so only
    that part is composed, into a second buffer: numpy would copy an
    overlapping operand.  No division, so m = 0 and negative m need no
    special case, and a NaN or inf at step i makes y_{i+1} and every later
    state non-finite, as the sequential recurrence does.  Returns n.
    """
    n[0] += m[0] * y0
    other = np.empty_like(m)
    span = 1
    while span < n.size:
        n[span:] += m[span:] * n[:-span]
        np.multiply(m[2 * span :], m[span:-span], out=other[2 * span :])
        m, other = other, m
        span *= 2
    return n


def _period_maps(coeffs, y0: float, h: float, period_steps: int, periods: int):
    """One period's RK4 maps of dy/dt = a(t) + b(t)*y, and each period's end state.

    Every stage state is Y_j = c_j + d_j*y_i, so one step is the affine map
    y_{i+1} = m_i*y_i + n_i, the RK4 stability polynomial of a and b at t_i,
    t_i + h/2 and t_{i+1}.  coeffs(t) -> (a, b) must repeat every
    P = period_steps steps, so the maps are formed for one period: np.cumprod
    of m gives its prefix gains and _affine_scan from y = 0 its prefix
    offsets, so that y_{kP+i+1} = gain[i]*y_{kP} + offset[i]; a second
    _affine_scan steps the whole-period map from y0 to y[k*P],
    k = 1..periods.  Returns the stages' (c_j, d_j) for j = 2, 3, 4, gain,
    offset and those period ends.  Non-finite values are left to the caller.
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
    offset = _affine_scan(m, n, 0.0)
    ends = _affine_scan(np.full(periods, gain[-1]), np.full(periods, offset[-1]), y0)
    return ((c2, d2), (c3, d3), (c4, d4)), gain, offset, ends


def _rk4(coeffs, y0: float, h: float, n_steps: int, period_steps: int, first: int,
         phase_step):
    """Fixed-step RK4 of dy/dt = a(t) + b(t)*y and of its phase phi, returning y
    and phi at t = i*h for i = first .. n_steps - 1, with phi = 0 at i = first.

    The period maps and period ends come from _period_maps.  Only the periods
    from the one that holds sample `first` are expanded: one outer product
    with the prefix gains, plus the prefix offsets, over a (periods, P) view
    gives every state from its period's first one.
    phase_step(stages, rows, out) writes 6/h times each state's phase step
    phi_{i+1} - phi_i into out, from the stages' (c_j, d_j) and the states
    rows; the steps before sample `first` are dropped and np.cumsum sums the
    rest.  A non-finite period start, state or phase raises NumericalError.
    """
    periods = -(-n_steps // period_steps)
    skip = first // period_steps
    lo, hi = first - skip * period_steps, n_steps - skip * period_steps
    rows = np.empty((periods - skip, period_steps))
    phi = np.empty(rows.size + 1)
    # Row k: the states y_i and the phase steps phi_{i+1} - phi_i of period skip + k.
    dphi = phi[1:].reshape(rows.shape)
    # A blow-up is reported below as one NumericalError, not as numpy warnings.
    with np.errstate(all="ignore"):
        stages, gain, offset, ends = _period_maps(coeffs, y0, h, period_steps, periods)
        starts = np.concatenate(([y0], ends[:-1]))
        rows[:, 0] = starts[skip:]
        np.multiply.outer(rows[:, 0], gain[:-1], out=rows[:, 1:])
        rows[:, 1:] += offset[:-1]
        phase_step(stages, rows, dphi)
        dphi *= h / 6.0
        phi[: lo + 1] = 0.0
        np.cumsum(phi, out=phi)
    y, phi = rows.ravel()[lo:hi], phi[lo:hi]
    if not (np.isfinite(starts).all() and np.isfinite(y).all() and np.isfinite(phi).all()):
        raise NumericalError("RK4 trace is not finite")
    return y, phi


def _integrate(op: OperatingPoint, modcfg: ModulationConfig, icfg: IntegrationConfig,
               coeffs, y0: float, phase_step):
    """Validate icfg, warn outside the model, then _rk4 over icfg's plan from
    y0: t, y and phi over the retained window."""
    n_steps, period_steps, first = icfg.validate(op, modcfg)
    warn_outside_model(op, modcfg)
    t = np.arange(first, n_steps) * icfg.dt
    return t, *_rk4(coeffs, y0, icfg.dt, n_steps, period_steps, first, phase_step)


def _demodulated(op: OperatingPoint, t: np.ndarray, dp: np.ndarray, phi: np.ndarray) -> TimeTrace:
    """The trace with its phase demodulated at omega_sto + 2*nu*Gamma_p*<delta_p>
    from the first sample on: for the full model, that is
    omega_o + nu*Gamma_p*(1 + 2*<delta_p>)."""
    demod = op.omega_sto + 2.0 * op.nu * op.gamma_p * float(dp.mean())
    return TimeTrace(t=t, delta_p=dp, phi=phi - demod * (t - t[0]), demod_freq=demod)


def integrate_reduced(
    op: OperatingPoint, modcfg: ModulationConfig, icfg: IntegrationConfig
) -> TimeTrace:
    """RK4 integration of the reduced power/phase equations.

    Returns the post-transient samples.  The phase is integrated from 0 at
    the first retained sample and demodulated at
    omega_sto + 2*nu*Gamma_p*<delta_p>, with the mean taken over the
    retained window, so the returned phi starts at exactly 0.
    """
    mu, w = modcfg.mu, modcfg.omega_m
    c1, c2, gp = op.c1, op.c2, op.gamma_p

    def coeffs(t: np.ndarray):
        drive = mu * np.cos(w * t)
        return c1 * drive, 2.0 * (c2 * drive - gp)

    w0, w1 = op.omega_sto, 2.0 * op.nu * op.gamma_p

    def phase_step(stages, rows, out):
        # The rate w0 + w1*dp is linear in the stage states c_j + d_j*dp_i, so
        # the weighted stage sum is 6*w0 + w1*(D*dp_i + C); it is formed at
        # rate level, so a rate that overflows still does.
        (c2, d2), (c3, d3), (c4, d4) = stages
        np.multiply(1.0 + 2.0 * (d2 + d3) + d4, rows, out=out)
        out += 2.0 * (c2 + c3) + c4
        out *= w1
        out += 6.0 * w0

    return _demodulated(op, *_integrate(op, modcfg, icfg, coeffs, icfg.initial_delta_p, phase_step))


def integrate_full(
    params: DeviceParams, modcfg: ModulationConfig, icfg: IntegrationConfig
) -> TimeTrace:
    """Exploratory RK4 integration of the unreduced power/phase pair.

    Integrates dp/dt = 2*(Gamma_minus(p, t) - Gamma_G)*p with the same
    first-order damping model, without linearizing about p0.  The power
    equation is of Bernoulli type: with S = sigma*I*(1 + mu*cos(omega_m*t)),
    the exact substitution u = 1/p makes it linear,
    du/dt = 2*S - 2*(S - Gamma_G)*u, so it is stepped by the same affine RK4
    as the reduced equations and p is read back as 1/u.  The phase rate
    omega_o + nu*Gamma_p/(p0*u) is not linear in u, so each phase step takes
    it at the four RK4 stage states, weighted 1, 2, 2, 1.  No acceptance
    claim is attached to this path; it exists for cross-checking the
    reduced equations at small mu.  The phase is integrated and demodulated
    as in integrate_reduced, at omega_o + nu*Gamma_p*(1 + 2*<delta_p>), and
    starts at exactly 0.

    Raises ValueError if initial_delta_p gives a start power
    p0*(1 + 2*initial_delta_p) that is not positive and finite, and
    NumericalError if the trace is not finite.
    """
    op = derive_operating_point(params)
    mu, w = modcfg.mu, modcfg.omega_m
    gamma_g = params.alpha * op.omega_o
    sigma_i = gamma_g * params.xi
    p0 = op.p0
    nu_over_p0 = params.nu * op.gamma_p / p0

    p_start = p0 * (1.0 + 2.0 * icfg.initial_delta_p)
    if not (p_start > 0.0 and math.isfinite(p_start)):
        raise ValueError(
            f"initial_delta_p={icfg.initial_delta_p} gives a start power "
            f"p0*(1 + 2*initial_delta_p) = {p_start:.3e}, which must be positive and finite"
        )

    def coeffs(t: np.ndarray):
        s = sigma_i * (1.0 + mu * np.cos(w * t))
        return 2.0 * s, -2.0 * (s - gamma_g)

    def phase_step(stages, rows, out):
        # The rate omega_o + nu*Gamma_p/(p0*u) is not linear in u, so it is
        # taken at each stage state: stage 1 is u_i itself, and stages 2 and 3
        # weigh 2.
        out[...] = nu_over_p0 / rows + op.omega_o
        for (c, d), weight in zip(stages, (2.0, 2.0, 1.0)):
            out += weight * (nu_over_p0 / (d * rows + c) + op.omega_o)

    t, u, phi = _integrate(op, modcfg, icfg, coeffs, 1.0 / p_start, phase_step)
    return _demodulated(op, t, (1.0 / u / p0 - 1.0) / 2.0, phi)


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
