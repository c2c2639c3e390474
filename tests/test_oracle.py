"""RK4 oracle: the affine stepper against the scalar loop, guards, convergence,
steady state, and projection round trips."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stomod import (
    GridCoverageError,
    IntegrationConfig,
    ModulationConfig,
    NumericalError,
    StepSizeError,
    derive_operating_point,
    integrate_full,
    integrate_reduced,
    project_harmonics,
    psd_analytic,
    psd_fft,
    solve_coefficients_matrix,
    synthesize_time_trace,
)
from stomod import oracle
from stomod.spectrum import TimeTrace, _build_spectrum

from conftest import OP_XIS, TWO_PI, make_device


def _steady_solution(op, mu, f_m, n_harmonics=10, spp=512):
    cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m, n_harmonics=n_harmonics)
    icfg = IntegrationConfig.for_steady_state(op, cfg, samples_per_period=spp)
    return cfg, integrate_reduced(op, cfg, icfg)


def _direct_projection(trace, omega_m, n_harmonics):
    """Reference: A0, A_n and B_n as sin/cos means over the whole trace."""
    a = np.empty(n_harmonics)
    b = np.empty(n_harmonics)
    for n in range(1, n_harmonics + 1):
        theta = n * omega_m * trace.t
        a[n - 1] = 2.0 * float(np.mean(trace.delta_p * np.sin(theta)))
        b[n - 1] = 2.0 * float(np.mean(trace.delta_p * np.cos(theta)))
    return float(trace.delta_p.mean()), a, b


def _psd_fft_per_bin(trace, sol, k_max):
    """Reference: psd_fft with each line read from its own FFT bin in a loop."""
    n_samples = trace.t.size
    n_per = round(n_samples * (trace.t[1] - trace.t[0]) * sol.modcfg.omega_m / TWO_PI)
    signal = (1.0 + trace.delta_p) * np.exp(1j * trace.phi)
    coeffs = np.fft.fft(signal) / n_samples
    amps = np.zeros(2 * k_max + 1, dtype=complex)
    for k in range(-k_max, k_max + 1):
        c = coeffs[(k * n_per) % n_samples]
        amps[k_max + k] = c * np.exp(-1j * k * sol.modcfg.omega_m * trace.t[0])
    return _build_spectrum(amps, k_max)


def _scalar_rk4(rate, y0, w0, w1, h, n_steps):
    """Reference: y and phi at t = i*h, i = 0..n_steps, by the scalar RK4 loop
    of dy/dt = rate(t, y) with dphi/dt = w0 + w1*y that the vectorised
    stepper replaced."""
    y_arr = np.empty(n_steps + 1)
    phi_arr = np.empty(n_steps + 1)
    y, phi = y0, 0.0
    y_arr[0], phi_arr[0] = y, phi
    for i in range(n_steps):
        t = i * h
        k1 = rate(t, y)
        k2 = rate(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rate(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rate(t + h, y + h * k3)
        phi += h * (w0 + w1 * (y + (h / 6.0) * (k1 + k2 + k3)))
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y_arr[i + 1] = y
        phi_arr[i + 1] = phi
    return y_arr, phi_arr


def _scalar_reduced(op, cfg, icfg):
    """Settled delta_p and raw phase of the reduced equations by the scalar loop."""
    mu, w = cfg.mu, cfg.omega_m

    def dpdot(t, dp):
        drive = mu * math.cos(w * t)
        return op.c1 * drive + 2.0 * dp * (op.c2 * drive - op.gamma_p)

    n_steps = round(icfg.t_end / icfg.dt)
    _, dp, phi = oracle._settled(icfg, *_scalar_rk4(
        dpdot, icfg.initial_delta_p, op.omega_sto, 2.0 * op.nu * op.gamma_p, icfg.dt, n_steps
    ))
    return dp, phi


def _scalar_full(params, cfg, icfg):
    """Settled delta_p and raw phase of the unreduced power equation, stepped
    in p by the scalar loop."""
    op = derive_operating_point(params)
    mu, w = cfg.mu, cfg.omega_m
    gamma_g = params.alpha * op.omega_o
    sigma_i = gamma_g * params.xi

    def pdot(t, p):
        gm = sigma_i * (1.0 + mu * math.cos(w * t)) * (1.0 - p)
        return 2.0 * (gm - gamma_g) * p

    n_steps = round(icfg.t_end / icfg.dt)
    p_start = op.p0 * (1.0 + 2.0 * icfg.initial_delta_p)
    _, p, phi = oracle._settled(icfg, *_scalar_rk4(
        pdot, p_start, op.omega_o, params.nu * op.gamma_p / op.p0, icfg.dt, n_steps
    ))
    return (p / op.p0 - 1.0) / 2.0, phi


def _raw_phase(trace):
    """The integrated phase before the demodulation ramp was removed."""
    return trace.phi + trace.demod_freq * trace.t


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _synthesized_and_integrated(op, mu=0.05):
    """(solution, trace) pairs: a 256-sample synthesis and a 512-sample RK4
    trace at 40 and 400 MHz."""
    for f_m in (40e6, 400e6):
        cfg, integrated = _steady_solution(op, mu, f_m)
        sol = solve_coefficients_matrix(op, cfg)
        yield sol, synthesize_time_trace(sol, samples_per_period=256)
        yield sol, integrated


class TestValidation:
    def test_coarse_step_rejected(self, op2):
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        with pytest.raises(StepSizeError):
            IntegrationConfig(dt=1e-9, t_end=1e-6, transient_cut=5e-7).validate(op2, cfg)

    def test_step_must_resolve_relaxation(self, op3):
        # 512 steps/period resolves the period but not 0.1/Gamma_p at OP3
        # once the modulation is slow enough.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 1e6)
        dt = (TWO_PI / cfg.omega_m) / 512
        with pytest.raises(StepSizeError):
            IntegrationConfig(dt=dt, t_end=1e-4, transient_cut=5e-5).validate(op3, cfg)

    def test_short_transient_rejected(self, op2):
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        dt = (TWO_PI / cfg.omega_m) / 512
        with pytest.raises(StepSizeError):
            IntegrationConfig(dt=dt, t_end=1e-6, transient_cut=1e-9).validate(op2, cfg)

    def test_window_must_follow_transient(self, op2):
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        dt = (TWO_PI / cfg.omega_m) / 512
        with pytest.raises(StepSizeError):
            IntegrationConfig(dt=dt, t_end=1e-7, transient_cut=1e-7).validate(op2, cfg)

    def test_factory_passes_validation(self, op1):
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 40e6)
        icfg = IntegrationConfig.for_steady_state(op1, cfg)
        icfg.validate(op1, cfg)  # should not raise

    @settings(max_examples=200, deadline=None)
    @given(
        label=st.sampled_from(sorted(OP_XIS)),
        f_m=st.floats(1e6, 1e9),
        spp=st.integers(200, 4096),
    )
    def test_factory_step_divides_the_period(self, all_ops, label, f_m, spp):
        # The factory's window always passes its own validate: dt divides the
        # period into at least spp steps, more where 0.1/Gamma_p needs them.
        op = all_ops[label]
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
        icfg = IntegrationConfig.for_steady_state(op, cfg, samples_per_period=spp)
        icfg.validate(op, cfg)
        assert icfg.dt <= TWO_PI / cfg.omega_m / spp

    @pytest.mark.parametrize("steps", [512.5, 512 * (1 + 1e-12)])
    def test_step_must_divide_the_period(self, op2, steps):
        # The stepper reuses one period's RK4 maps for every period, so a dt
        # that misses the period, even by 1e-12, would drift the drive phase.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        period = TWO_PI / cfg.omega_m
        icfg = IntegrationConfig(
            dt=period / steps, t_end=20 * period, transient_cut=12 * period
        )
        match = r"dt=.* does not divide the modulation period 1\.000000e-08"
        with pytest.raises(StepSizeError, match=match):
            integrate_reduced(op2, cfg, icfg)
        with pytest.raises(StepSizeError, match=match):
            integrate_full(make_device(OP_XIS["OP2"]), cfg, icfg)

    @pytest.mark.parametrize(
        "field,value",
        [("transient_cut", math.nan), ("transient_cut", math.inf),
         ("t_end", math.nan), ("t_end", math.inf)],
    )
    def test_non_finite_window_rejected(self, op2, field, value):
        # A NaN transient_cut used to pass and give an empty trace with a NaN
        # demodulation frequency; a non-finite t_end failed inside round().
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = dataclasses.replace(IntegrationConfig.for_steady_state(op2, cfg), **{field: value})
        match = rf"{field}={value} is not finite"
        with pytest.raises(StepSizeError, match=match):
            integrate_reduced(op2, cfg, icfg)
        with pytest.raises(StepSizeError, match=match):
            integrate_full(make_device(OP_XIS["OP2"]), cfg, icfg)


class TestSteadyState:
    @pytest.mark.parametrize("label,f_m", [("OP1", 40e6), ("OP3", 400e6)])
    def test_matches_harmonic_balance(self, all_ops, label, f_m):
        op = all_ops[label]
        cfg, trace = _steady_solution(op, 0.05, f_m)
        proj = project_harmonics(trace, cfg, cfg.n_harmonics, op)
        ref = solve_coefficients_matrix(op, cfg)
        assert proj.a0 == pytest.approx(ref.a0, abs=1e-8)
        np.testing.assert_allclose(proj.a, ref.a, atol=1e-8)
        np.testing.assert_allclose(proj.b, ref.b, atol=1e-8)

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_trace_spectrum_matches_analytic_lines(self, all_ops, label):
        # From the ODE to the spectrum with no solver in between: the FFT of
        # the integrated trace against the Bessel convolution of the solved
        # coefficients, on lines +-1..+-5 above the 1e-15 floor.
        op = all_ops[label]
        for f_m in (40e6, 100e6, 400e6):
            for mu in (0.005, 0.05):
                cfg, trace = _steady_solution(op, mu, f_m)
                sol = solve_coefficients_matrix(op, cfg)
                ana, fft = psd_analytic(sol), psd_fft(trace, sol)
                for k in (*range(-5, 0), *range(1, 6)):
                    ref = ana.power_at(k)
                    if ref > 1e-15:
                        assert fft.power_at(k) == pytest.approx(ref, rel=1e-4), (f_m, mu, k)

    def test_periodicity(self, op2):
        cfg, trace = _steady_solution(op2, 0.05, 100e6)
        per = trace.delta_p.reshape(-1, 512)
        assert np.max(np.abs(per - per[0])) < 1e-9

    def test_phase_periodicity(self, op2):
        # After removing the demodulation ramp the phase repeats each period
        # up to a common offset.
        cfg, trace = _steady_solution(op2, 0.05, 100e6)
        per = trace.phi.reshape(-1, 512)
        per = per - per.mean(axis=1, keepdims=True)
        assert np.max(np.abs(per - per[0])) < 1e-8

    def test_free_decay_rate(self, op2):
        # mu = 0: dp relaxes as exp(-2 Gamma_p t); fit the log slope.
        cfg = ModulationConfig(mu=0.0, omega_m=TWO_PI * 100e6)
        period = TWO_PI / cfg.omega_m
        icfg = IntegrationConfig(
            dt=period / 512,
            t_end=60 * period,
            transient_cut=56 * period,
            initial_delta_p=0.01,
        )
        trace = integrate_reduced(op2, cfg, icfg)
        slope = np.polyfit(trace.t, np.log(np.abs(trace.delta_p)), 1)[0]
        assert -slope == pytest.approx(2.0 * op2.gamma_p, rel=1e-3)

    def test_step_halving_changes_little(self, op2):
        cfg1, tr1 = _steady_solution(op2, 0.05, 100e6, spp=512)
        cfg2, tr2 = _steady_solution(op2, 0.05, 100e6, spp=1024)
        p1 = project_harmonics(tr1, cfg1, 10, op2)
        p2 = project_harmonics(tr2, cfg2, 10, op2)
        assert abs(p1.a0 - p2.a0) < 1e-8
        assert np.max(np.abs(p1.x - p2.x)) < 1e-8

    def test_rk4_convergence_order(self, op2):
        # Error against the (machine-accurate) harmonic-balance reference
        # should shrink ~16x when the step is halved.
        ref = solve_coefficients_matrix(
            op2, ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6, n_harmonics=15)
        )

        def err(spp):
            # The retained window starts on a period boundary, so the
            # synthesized model aligns sample-for-sample.
            cfg, trace = _steady_solution(op2, 0.05, 100e6, n_harmonics=15, spp=spp)
            model = synthesize_time_trace(ref, samples_per_period=spp, n_periods=8)
            return np.max(np.abs(trace.delta_p - model.delta_p[: trace.delta_p.size]))

        e_coarse, e_fine = err(256), err(512)
        assert 8.0 < e_coarse / e_fine < 32.0


class TestFullModel:
    def test_reduced_limit_at_weak_drive(self, op2):
        # The unreduced power equation agrees with the linearized one to
        # O(dp^2) corrections at small mu.
        params = make_device(1.8)
        cfg = ModulationConfig(mu=0.01, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        full = integrate_full(params, cfg, icfg)
        red = integrate_reduced(op2, cfg, icfg)
        denom = np.max(np.abs(red.delta_p))
        assert np.max(np.abs(full.delta_p - red.delta_p)) / denom < 0.05

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_reduced_error_scales_with_amplitude(self, all_ops, label):
        # The reduced model drops O(dp^2) terms, so its error relative to the
        # unreduced power equation is of order max|dp| itself (measured
        # 0.90-2.11 x max|dp| on this grid, worst at OP3, 40 MHz, mu = 0.2).
        params = make_device(OP_XIS[label])
        for f_m in (40e6, 400e6):
            for mu in (0.005, 0.02, 0.05, 0.2):
                cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m)
                icfg = IntegrationConfig.for_steady_state(
                    all_ops[label], cfg, samples_per_period=512
                )
                full = integrate_full(params, cfg, icfg)
                red = integrate_reduced(all_ops[label], cfg, icfg)
                amp = np.max(np.abs(red.delta_p))
                rel = np.max(np.abs(full.delta_p - red.delta_p)) / amp
                assert rel <= 3.0 * amp, (f_m, mu, rel / amp)


class TestStepper:
    """The period-vectorised affine stepper against the scalar RK4 loop.

    Phases are compared before demodulation: the demodulated phase is a
    difference of two ~1e4 rad numbers, so its relative rounding says
    nothing about the stepper."""

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_reduced_matches_scalar_loop(self, all_ops, label):
        op = all_ops[label]
        for f_m in (40e6, 400e6):
            cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
            icfg = IntegrationConfig.for_steady_state(op, cfg)
            trace = integrate_reduced(op, cfg, icfg)
            dp, phi = _scalar_reduced(op, cfg, icfg)
            assert _rel(trace.delta_p, dp) <= 1e-12, f_m
            assert _rel(_raw_phase(trace), phi) <= 1e-12, f_m

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_full_matches_p_form_loop(self, all_ops, label):
        # Stepping u = 1/p instead of p changes only the RK4 truncation error
        # (measured at most 2.3e-9 relative, at OP3, 40 MHz, mu = 0.2).
        params = make_device(OP_XIS[label])
        for f_m in (40e6, 400e6):
            cfg = ModulationConfig(mu=0.2, omega_m=TWO_PI * f_m)
            icfg = IntegrationConfig.for_steady_state(all_ops[label], cfg)
            trace = integrate_full(params, cfg, icfg)
            dp, phi = _scalar_full(params, cfg, icfg)
            assert _rel(trace.delta_p, dp) <= 1e-8, f_m
            assert _rel(_raw_phase(trace), phi) <= 1e-8, f_m

    @pytest.mark.parametrize(
        "n_steps,cut_steps",
        [pytest.param(3 * 512, 256, id="whole"), pytest.param(3 * 512 + 100, 256, id="partial"),
         pytest.param(400, 256, id="short"), pytest.param(3 * 512, 255.5, id="half-step-cut")],
    )
    def test_runs_match_scalar_loop(self, op2, n_steps, cut_steps):
        # Whole periods, a partial last period and a run shorter than one
        # period: the stepper pads the trace to whole periods and cuts it
        # back.  At 10 MHz one 512-step period outlasts OP2's 10/Gamma_p
        # transient, and the start off the steady state exercises y0.  The
        # unreduced model keeps test_full_matches_p_form_loop's 1e-8
        # (measured 2.6e-9 here).  The window is the samples of every time
        # t = i*dt, i < n_steps, with t >= transient_cut - dt/2; the
        # half-step cut puts that bound on sample 255 up to rounding.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 10e6)
        dt = (TWO_PI / cfg.omega_m) / 512
        icfg = IntegrationConfig(
            dt=dt, t_end=n_steps * dt, transient_cut=cut_steps * dt, initial_delta_p=0.01
        )
        t_all = np.arange(n_steps) * dt
        t_window = t_all[t_all >= icfg.transient_cut - 0.5 * dt]
        assert t_window.size == n_steps - math.ceil(cut_steps - 0.5)
        params = make_device(OP_XIS["OP2"])
        for trace, (dp, phi), tol in (
            (integrate_reduced(op2, cfg, icfg), _scalar_reduced(op2, cfg, icfg), 1e-12),
            (integrate_full(params, cfg, icfg), _scalar_full(params, cfg, icfg), 1e-8),
        ):
            assert np.array_equal(trace.t, t_window)
            assert dp.size == t_window.size
            assert _rel(trace.delta_p, dp) <= tol
            assert _rel(_raw_phase(trace), phi) <= tol


def _sequential(m, n, y0):
    """y_1 .. y_L of y_{i+1} = m_i*y_i + n_i, one step at a time."""
    y, out = y0, []
    for m_i, n_i in zip(m.tolist(), n.tolist()):
        y = m_i * y + n_i
        out.append(y)
    return np.array(out)


# Step multipliers m of the affine recurrence, by regime; near_one and growing
# are RK4 steps of a slowly decaying or growing mode.
_MULTIPLIERS = {
    "contracting": lambda rng, size: rng.uniform(0.0, 1.0, size),
    "near_one": lambda rng, size: 1.0 - rng.uniform(0.0, 1e-3, size),
    "growing": lambda rng, size: 1.0 + rng.uniform(0.0, 1e-3, size),
    "with_zeros": lambda rng, size: np.where(
        rng.random(size) < 0.25, 0.0, rng.uniform(0.0, 1.0, size)
    ),
    "negative": lambda rng, size: -rng.uniform(0.0, 1.0, size),
}


class TestAffineScan:
    """The doubling scan against the sequential recurrence it replaces."""

    @pytest.mark.parametrize("size", [1, 2, 3, 1023, 1024, 1025, 2048])
    @pytest.mark.parametrize("kind", list(_MULTIPLIERS))
    def test_matches_sequential_loop(self, kind, size):
        # Measured worst: 4.5e-15 (growing, 1024 steps); 3.0e-15 near_one;
        # <= 3.4e-16 for the others; 0 for up to 3 steps.
        rng = np.random.default_rng(size)
        m, n, y0 = _MULTIPLIERS[kind](rng, size), rng.normal(size=size), rng.normal()
        ref = _sequential(m, n, y0)
        got = oracle._affine_scan(m.copy(), n.copy(), y0)
        assert got.shape == ref.shape
        assert _rel(got, ref) <= 1e-14

    def test_zero_multiplier_restarts_exactly(self):
        # m_i = 0 forgets the past: y_{i+1} is n_i bit for bit.
        rng = np.random.default_rng(7)
        m, n = rng.uniform(-1.0, 1.0, 1025), rng.normal(size=1025)
        m[::5] = 0.0
        got = oracle._affine_scan(m.copy(), n.copy(), 3.0)
        assert np.array_equal(got[::5], n[::5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["m", "n"])
    @pytest.mark.parametrize("step", [0, 511, 1024])
    def test_non_finite_reaches_every_later_state(self, bad, where, step):
        rng = np.random.default_rng(step)
        m, n = 1.0 - rng.uniform(0.0, 1e-3, 1025), rng.normal(size=1025)
        (m if where == "m" else n)[step] = bad
        with np.errstate(all="ignore"):
            got = oracle._affine_scan(m.copy(), n.copy(), 0.5)
        assert np.isfinite(got[:step]).all()
        assert not np.isfinite(got[step:]).any()
        assert np.array_equal(np.isfinite(got), np.isfinite(_sequential(m, n, 0.5)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("term", ["a", "b"])
    def test_non_finite_step_raises(self, bad, term):
        # A non-finite a(t) spoils n_i; a non-finite b(t) spoils m_i too.  The
        # spike does not repeat, so its period is the whole run.
        h, n_steps = 1e-3, 3000
        t_bad = 1500 * h

        def coeffs(t):
            spike = np.where(np.abs(t - t_bad) < 0.25 * h, bad, 0.0)
            a, b = np.ones_like(t), -np.ones_like(t)
            return (a + spike, b) if term == "a" else (a, b + spike)

        with pytest.raises(NumericalError, match="RK4 trace is not finite"):
            oracle._rk4(coeffs, 0.0, h, n_steps, n_steps, lambda y: y)


class TestGuards:
    @pytest.mark.parametrize("initial_delta_p", [-0.5, -0.6, math.inf])
    def test_full_rejects_bad_start_power(self, op2, initial_delta_p):
        # p0*(1 + 2*initial_delta_p) must be a positive, finite power; at
        # -0.6 the p-form trace used to run off to -inf.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        icfg = dataclasses.replace(icfg, initial_delta_p=initial_delta_p)
        with pytest.raises(ValueError, match="initial_delta_p"):
            integrate_full(make_device(OP_XIS["OP2"]), cfg, icfg)

    def test_reduced_non_finite_trace_raises(self, op2):
        # The phase rate 2*nu*Gamma_p*dp overflows at dp = 1e300.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        icfg = dataclasses.replace(icfg, initial_delta_p=1e300)
        with pytest.raises(NumericalError, match="not finite"):
            integrate_reduced(op2, cfg, icfg)

    def test_full_non_finite_trace_raises(self, op2):
        with pytest.warns(UserWarning, match="validity range"):
            cfg = ModulationConfig(mu=1e300, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        with pytest.raises(NumericalError, match="not finite"):
            integrate_full(make_device(OP_XIS["OP2"]), cfg, icfg)


class TestProjection:
    def test_round_trip(self, op2):
        cfg = ModulationConfig(mu=0.1, omega_m=TWO_PI * 100e6)
        sol = solve_coefficients_matrix(op2, cfg)
        trace = synthesize_time_trace(sol, samples_per_period=256, n_periods=4)
        back = project_harmonics(trace, cfg, cfg.n_harmonics, op2)
        assert back.a0 == pytest.approx(sol.a0, abs=1e-12)
        np.testing.assert_allclose(back.a, sol.a, atol=1e-12)
        np.testing.assert_allclose(back.b, sol.b, atol=1e-12)

    def test_operating_point_required(self, op2):
        # A solution without its operating point breaks every reader of sol.op.
        cfg = ModulationConfig(mu=0.1, omega_m=TWO_PI * 100e6)
        trace = synthesize_time_trace(solve_coefficients_matrix(op2, cfg), n_periods=4)
        with pytest.raises(TypeError):
            project_harmonics(trace, cfg, cfg.n_harmonics)

    def test_partial_period_rejected(self, op2):
        cfg = ModulationConfig(mu=0.1, omega_m=TWO_PI * 100e6)
        sol = solve_coefficients_matrix(op2, cfg)
        trace = synthesize_time_trace(sol, samples_per_period=256, n_periods=4)
        for end, message in ((-37, "integer count"), (1, "trace too short")):
            cut = TimeTrace(
                t=trace.t[:end],
                delta_p=trace.delta_p[:end],
                phi=trace.phi[:end],
                demod_freq=trace.demod_freq,
            )
            with pytest.raises(GridCoverageError, match=message):
                project_harmonics(cut, cfg, cfg.n_harmonics, op2)

    def test_past_nyquist_rejected(self, op2):
        # 16 samples per period resolve harmonics up to 7; the 8th would alias.
        cfg = ModulationConfig(mu=0.1, omega_m=TWO_PI * 100e6)
        sol = solve_coefficients_matrix(op2, cfg)
        trace = synthesize_time_trace(sol, samples_per_period=16, n_periods=4)
        # The solution's modcfg carries the order projected, not cfg's 10.
        assert project_harmonics(trace, cfg, 7, op2).modcfg.n_harmonics == 7
        with pytest.raises(GridCoverageError, match="k_max=8 .* 16 samples per period"):
            project_harmonics(trace, cfg, 8, op2)

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_matches_direct_projection(self, all_ops, label):
        op = all_ops[label]
        for sol, trace in _synthesized_and_integrated(op):
            a0, a, b = _direct_projection(trace, sol.modcfg.omega_m, 10)
            proj = project_harmonics(trace, sol.modcfg, 10, op)
            assert abs(proj.a0 - a0) <= 1e-14
            np.testing.assert_allclose(proj.a, a, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(proj.b, b, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_fft_lines_match_per_bin_read_out(self, all_ops, label):
        for sol, trace in _synthesized_and_integrated(all_ops[label]):
            for k_max in (40, 127):
                got, ref = psd_fft(trace, sol, k_max), _psd_fft_per_bin(trace, sol, k_max)
                assert np.array_equal(got.offsets, ref.offsets)
                assert np.array_equal(got.powers, ref.powers)

    def test_non_uniform_trace_rejected(self, op2):
        # Interior times jittered by 0.3*dt keep the first step and a
        # whole-period span, so only the spacing check can catch them.
        cfg = ModulationConfig(mu=0.1, omega_m=TWO_PI * 100e6)
        sol = solve_coefficients_matrix(op2, cfg)
        trace = synthesize_time_trace(sol, samples_per_period=256, n_periods=4)
        t = trace.t.copy()
        t[2:-1:2] += 0.3 * (t[1] - t[0])
        jittered = TimeTrace(
            t=t, delta_p=trace.delta_p, phi=trace.phi, demod_freq=trace.demod_freq
        )
        with pytest.raises(GridCoverageError, match="not uniformly sampled"):
            project_harmonics(jittered, cfg, cfg.n_harmonics, op2)
