"""RK4 oracle: the affine stepper against the scalar loop, guards, convergence,
steady state, and projection round trips."""

import dataclasses
import math
import warnings

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

from conftest import OP_XIS, TWO_PI, full_fft_read_out, make_device


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


def _first_retained(icfg, n_steps):
    """The window's first sample by its definition: the least i < n_steps with
    i*dt >= transient_cut - dt/2, over the products numpy forms for t."""
    return int(np.searchsorted(np.arange(n_steps) * icfg.dt, icfg.transient_cut - icfg.dt / 2))


def _settled(icfg, y, phi):
    """y and phi over the retained window of a trace sampled at t = i*dt,
    i = 0..n_steps (the endpoint is dropped)."""
    n_steps = y.size - 1
    first = _first_retained(icfg, n_steps)
    return y[first:n_steps], phi[first:n_steps]


def _scalar_reduced(op, cfg, icfg):
    """Settled delta_p and phase of the reduced equations by the scalar loop."""
    mu, w = cfg.mu, cfg.omega_m

    def dpdot(t, dp):
        drive = mu * math.cos(w * t)
        return op.c1 * drive + 2.0 * dp * (op.c2 * drive - op.gamma_p)

    n_steps = round(icfg.t_end / icfg.dt)
    return _settled(icfg, *_scalar_rk4(
        dpdot, icfg.initial_delta_p, op.omega_sto, 2.0 * op.nu * op.gamma_p, icfg.dt, n_steps
    ))


def _scalar_full(params, cfg, icfg):
    """Settled delta_p and phase of the unreduced power equation, stepped
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
    p, phi = _settled(icfg, *_scalar_rk4(
        pdot, p_start, op.omega_o, params.nu * op.gamma_p / op.p0, icfg.dt, n_steps
    ))
    return (p / op.p0 - 1.0) / 2.0, phi


def _raw_phase(trace):
    """The phase integrated from the first retained sample, before the
    demodulation ramp was removed."""
    return trace.phi + trace.demod_freq * (trace.t - trace.t[0])


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _synthesized_and_integrated(op, mu=0.05):
    """(solution, trace) pairs: a one-period, 256-sample synthesis and an
    8-period RK4 trace of 512 samples per period, at 40 and 400 MHz."""
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

    @pytest.mark.parametrize("t_end_steps,cut_steps", [(600.4, 600), (600, 599.6)])
    def test_window_without_samples_rejected(self, op2, t_end_steps, cut_steps):
        # The window keeps t = i*dt, i < round(t_end/dt), from
        # transient_cut - dt/2 on: here no sample, which used to give an empty
        # trace with a NaN demod_freq.  A cut 0.6*dt earlier keeps one.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 10e6)
        dt = (TWO_PI / cfg.omega_m) / 512
        icfg = IntegrationConfig(dt=dt, t_end=t_end_steps * dt, transient_cut=cut_steps * dt)
        earlier = dataclasses.replace(icfg, transient_cut=(cut_steps - 0.6) * dt)
        params = make_device(OP_XIS["OP2"])
        match = r"t_end=.* must exceed transient_cut=.* and leave a sample"
        for integrate, model in ((integrate_reduced, op2), (integrate_full, params)):
            with pytest.raises(StepSizeError, match=match):
                integrate(model, cfg, icfg)
            assert integrate(model, cfg, earlier).t.size == 1

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

    def test_step_count_overflow_rejected(self, op2):
        # t_end/dt overflows to inf here, which the last-sample check cannot
        # round: it is refused first, as a step size error.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = dataclasses.replace(IntegrationConfig.for_steady_state(op2, cfg), t_end=1e300)
        assert math.isinf(icfg.t_end / icfg.dt)
        match = r"t_end=1\.000000e\+300 over dt=.* is not a finite step count"
        with pytest.raises(StepSizeError, match=match):
            icfg.validate(op2, cfg)
        for integrate, model in ((integrate_reduced, op2), (integrate_full, make_device(OP_XIS["OP2"]))):
            with pytest.raises(StepSizeError, match=match):
                integrate(model, cfg, icfg)

    def test_step_count_cap(self, op2):
        # 1e250 s is a finite step count that numpy could not allocate: it is
        # refused by validate, naming t_end, dt and the cap, before any array
        # is formed.  Exactly 2**25 steps pass validate (which allocates
        # nothing); one more step does not.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        match = r"t_end=1\.000000e\+250 over dt=.* is not a finite step count of at most 33554432"
        absurd = dataclasses.replace(icfg, t_end=1e250)
        with pytest.raises(StepSizeError, match=match):
            absurd.validate(op2, cfg)
        params = make_device(OP_XIS["OP2"])
        for integrate, model in ((integrate_reduced, op2), (integrate_full, params)):
            with pytest.raises(StepSizeError, match=match):
                integrate(model, cfg, absurd)
        n_steps, _, _ = dataclasses.replace(icfg, t_end=2**25 * icfg.dt).validate(op2, cfg)
        assert n_steps == 2**25
        with pytest.raises(StepSizeError, match="of at most 33554432"):
            dataclasses.replace(icfg, t_end=(2**25 + 1) * icfg.dt).validate(op2, cfg)

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    @pytest.mark.parametrize("f_m", [10e6, 40e6, 100e6, 160e6])
    @pytest.mark.parametrize("extra_steps", [0, 1, 255, 511, 1000])
    def test_plan_is_the_window_definition(self, all_ops, label, f_m, extra_steps):
        # validate's first is the least i with i*dt >= transient_cut - dt/2,
        # over numpy's products i*dt: for cuts on a step, 1 ulp either side of
        # one and 0.5*dt either side of one, which puts the bound itself on a
        # step up to rounding.  n_steps and period_steps are the rounded
        # quotients, and the trace's t is exactly the window.
        op = all_ops[label]
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
        base = IntegrationConfig.for_steady_state(op, cfg)
        dt = base.dt
        cut_steps = round(base.transient_cut / dt) + extra_steps
        on_step = cut_steps * dt
        n_steps = cut_steps + 1000
        for cut in (on_step, math.nextafter(on_step, 0.0), math.nextafter(on_step, math.inf),
                    on_step - 0.5 * dt, on_step + 0.5 * dt):
            icfg = dataclasses.replace(base, t_end=n_steps * dt, transient_cut=cut)
            plan = icfg.validate(op, cfg)
            first = _first_retained(icfg, n_steps)
            assert plan == (n_steps, round(TWO_PI / cfg.omega_m / dt), first), (cut / dt, plan)
            if (label, cut) == ("OP2", on_step - 0.5 * dt):
                t = integrate_reduced(op, cfg, icfg).t
                assert np.array_equal(t, (np.arange(n_steps) * dt)[first:])


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

    Phases are compared before demodulation, as increments from the first
    retained sample, where the integrators start theirs at 0: the
    demodulated phase is a difference of two ~1e4 rad numbers, so its
    relative rounding says nothing about the stepper."""

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_reduced_matches_scalar_loop(self, all_ops, label):
        op = all_ops[label]
        for f_m in (40e6, 400e6):
            cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
            icfg = IntegrationConfig.for_steady_state(op, cfg)
            trace = integrate_reduced(op, cfg, icfg)
            dp, phi = _scalar_reduced(op, cfg, icfg)
            assert _rel(trace.delta_p, dp) <= 1e-12, f_m
            assert _rel(_raw_phase(trace), phi - phi[0]) <= 1e-12, f_m

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
            assert _rel(_raw_phase(trace), phi - phi[0]) <= 1e-8, f_m

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
            assert _rel(_raw_phase(trace), phi - phi[0]) <= tol


def _reference_rk4(coeffs, y0, h, n_steps, period_steps, phase_rate):
    """_rk4 as it was before its phase sum dropped the passes that multiply
    by 1, add 0 or zero-fill: all four stages go through one loop.  Kept
    verbatim as the differential reference."""
    periods = -(-n_steps // period_steps)
    y = np.empty(periods * period_steps + 1)
    phi = np.zeros_like(y)
    y[0] = y0
    # Row k: the states y_i and the phase steps phi_{i+1} - phi_i of period k.
    y_i = y[:-1].reshape(periods, period_steps)
    dphi = phi[1:].reshape(periods, period_steps)
    half, sixth = 0.5 * h, h / 6.0
    # A blow-up is reported below as one NumericalError, not as numpy warnings.
    with np.errstate(all="ignore"):
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
        offset = oracle._affine_scan(m, n, 0.0)
        y[period_steps::period_steps] = oracle._affine_scan(
            np.full(periods, gain[-1]), np.full(periods, offset[-1]), y0
        )
        np.multiply.outer(y_i[:, 0], gain[:-1], out=y_i[:, 1:])
        y_i[:, 1:] += offset[:-1]
        stage = np.empty_like(y_i)
        for c, d, weight in ((0.0, 1.0, 1.0), (c2, d2, 2.0), (c3, d3, 2.0), (c4, d4, 1.0)):
            np.multiply(d, y_i, out=stage)
            stage += c
            dphi += np.multiply(phase_rate(stage), weight, out=stage)
        dphi *= sixth
        np.cumsum(phi, out=phi)
    y, phi = y[: n_steps + 1], phi[: n_steps + 1]
    if not (np.isfinite(y).all() and np.isfinite(phi).all()):
        raise NumericalError("RK4 trace is not finite")
    return y, phi


def _reduced_model(op, cfg):
    """coeffs(t) -> (a, b) and the in-place phase rate of the reduced
    equations, formed as integrate_reduced forms them."""
    mu, w, nu_gp2 = cfg.mu, cfg.omega_m, 2.0 * op.nu * op.gamma_p

    def coeffs(t):
        drive = mu * np.cos(w * t)
        return op.c1 * drive, 2.0 * (op.c2 * drive - op.gamma_p)

    def phase_rate(dp):
        return np.add(np.multiply(dp, nu_gp2, out=dp), op.omega_sto, out=dp)

    return coeffs, phase_rate


def _steps(cfg, icfg):
    """h, n_steps and the steps per modulation period, as the integrators take them."""
    h = icfg.dt
    return h, round(icfg.t_end / h), round(TWO_PI / cfg.omega_m / h)


def _reference_reduced(op, cfg, icfg):
    """Settled delta_p and phase of the reduced equations by _reference_rk4."""
    coeffs, phase_rate = _reduced_model(op, cfg)
    return _settled(icfg, *_reference_rk4(
        coeffs, icfg.initial_delta_p, *_steps(cfg, icfg), phase_rate
    ))


def _reference_full(params, cfg, icfg):
    """Settled delta_p and phase of the unreduced equations, in u = 1/p, by
    _reference_rk4, with coefficients formed as integrate_full forms them."""
    op = derive_operating_point(params)
    gamma_g = params.alpha * op.omega_o
    sigma_i = gamma_g * params.xi
    nu_over_p0 = params.nu * op.gamma_p / op.p0

    def coeffs(t):
        s = sigma_i * (1.0 + cfg.mu * np.cos(cfg.omega_m * t))
        return 2.0 * s, -2.0 * (s - gamma_g)

    def phase_rate(u):
        return np.add(np.divide(nu_over_p0, u, out=u), op.omega_o, out=u)

    u0 = 1.0 / (op.p0 * (1.0 + 2.0 * icfg.initial_delta_p))
    u, phi = _settled(icfg, *_reference_rk4(coeffs, u0, *_steps(cfg, icfg), phase_rate))
    return (1.0 / u / op.p0 - 1.0) / 2.0, phi


def _stage_wise_reduced(op, cfg, icfg):
    """Settled delta_p and phase of the reduced equations by oracle._rk4 with
    a phase step that takes the rate at each RK4 stage state, as
    integrate_full's does."""
    coeffs, phase_rate = _reduced_model(op, cfg)

    def phase_step(stages, rows, out):
        out[...] = phase_rate(rows.copy())
        for (c, d), weight in zip(stages, (2.0, 2.0, 1.0)):
            out += weight * phase_rate(d * rows + c)

    h, n_steps, period_steps = _steps(cfg, icfg)
    first = _first_retained(icfg, n_steps)
    return oracle._rk4(
        coeffs, icfg.initial_delta_p, h, n_steps, period_steps, first, phase_step
    )


def _assert_matches(trace, dp, phi, icfg):
    """delta_p bit for bit, and the phase increments from the first retained
    sample within the rounding of the running sums.

    Both phases are running sums of positive steps (omega_sto or omega_o
    dominates the rate), phi of up to n = n_steps steps from any start and
    the trace's of up to n from 0 at the first retained sample.  A running
    sum of n terms rounds by at most (n - 1)*eps/2 times their sum, and each
    step's own few roundings add at most 5*eps/2 of it; an affine phase
    step's products and sums are no worse.  So each sum lies within
    (n + 4)*eps/2*M of the exact one, M = max|phi|.  phi's increment
    phi - phi[0] is a difference of two such sums, rounded once more, and
    re-adding the demodulation ramp to the trace's phase rounds twice:
    (3*n + 15)*eps/2*M in all, below 2*(n + 6)*eps*M.  Measured against
    the reference: at most 2.0e-14*M for integrate_reduced over the 60
    oracle-validate windows of seeds 101 and 303, and 9.0e-15*M for
    integrate_full over OP1-3 x f_m in {10, 40, 160, 400} MHz x
    mu in {0.005, 0.05, 0.2}; against the stage-wise step, 6.5e-16*M.
    """
    assert trace.delta_p.tobytes() == dp.tobytes()
    bound = 2 * (round(icfg.t_end / icfg.dt) + 6) * np.finfo(float).eps * np.abs(phi).max()
    assert np.abs(_raw_phase(trace) - (phi - phi[0])).max() <= bound


@pytest.mark.parametrize("mu", [0.005, 0.05])
def test_rk4_matches_reference_bit_for_bit(all_ops, mu):
    # Both integrators expand only the periods they return and sum the phase
    # from 0 at the first retained sample, so delta_p equals the reference's
    # settled window bit for bit and the phase increments agree to round-off.
    for label, op in all_ops.items():
        params = make_device(OP_XIS[label])
        for f_m in (40e6, 160e6):
            cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m)
            icfg = IntegrationConfig.for_steady_state(op, cfg)
            _assert_matches(
                integrate_reduced(op, cfg, icfg), *_reference_reduced(op, cfg, icfg), icfg
            )
            _assert_matches(
                integrate_full(params, cfg, icfg), *_reference_full(params, cfg, icfg), icfg
            )


class TestAffinePhase:
    """integrate_reduced's affine phase step against a stage-wise phase step
    of the same equations in the same driver."""

    @pytest.mark.parametrize("mu", [0.005, 0.05])
    @pytest.mark.parametrize("f_m", [40e6, 160e6])
    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_steady_state_windows(self, all_ops, label, f_m, mu):
        # The window starts on a period boundary, after whole transient
        # periods that are never expanded.
        op = all_ops[label]
        cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m)
        icfg = IntegrationConfig.for_steady_state(op, cfg)
        _assert_matches(integrate_reduced(op, cfg, icfg), *_stage_wise_reduced(op, cfg, icfg), icfg)

    @pytest.mark.parametrize(
        "n_steps,cut_steps",
        [pytest.param(3 * 512, 256, id="whole"), pytest.param(3 * 512 + 100, 256, id="partial"),
         pytest.param(400, 256, id="short"), pytest.param(3 * 512, 255.5, id="half-step-cut"),
         pytest.param(3 * 512 + 100, 512 + 256, id="second-period-cut")],
    )
    def test_cut_windows(self, op2, n_steps, cut_steps):
        # test_runs_match_scalar_loop's windows, all cut mid-period, and one
        # cut in the second period, after a whole period that is never
        # expanded: the steps of the cut's period before the cut are dropped
        # from the phase, which is exactly 0 at the first retained sample
        # for both integrators.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 10e6)
        dt = (TWO_PI / cfg.omega_m) / 512
        icfg = IntegrationConfig(
            dt=dt, t_end=n_steps * dt, transient_cut=cut_steps * dt, initial_delta_p=0.01
        )
        reduced = integrate_reduced(op2, cfg, icfg)
        _assert_matches(reduced, *_stage_wise_reduced(op2, cfg, icfg), icfg)
        assert reduced.phi[0] == 0.0
        assert integrate_full(make_device(OP_XIS["OP2"]), cfg, icfg).phi[0] == 0.0


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

        def phase_step(stages, rows, out):
            out[...] = rows

        with pytest.raises(NumericalError, match="RK4 trace is not finite"):
            oracle._rk4(coeffs, 0.0, h, n_steps, n_steps, 0, phase_step)


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
        # The drive c1*mu*cos(omega_m*t) overflows, so every state does.  The
        # config is built silently; the integration warns once about mu.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ModulationConfig(mu=1e300, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        with pytest.warns(UserWarning, match="validity range") as caught:
            with pytest.raises(NumericalError, match="not finite"):
                integrate_reduced(op2, cfg, icfg)
        assert len(caught) == 1

    def test_reduced_large_start_settles(self, op2):
        # dp0 = 1e300 decays by at least exp(-30) over the 15/Gamma_p transient
        # and the phase is summed over the window only, so the trace is finite.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        trace = integrate_reduced(op2, cfg, dataclasses.replace(icfg, initial_delta_p=1e300))
        assert np.isfinite(trace.delta_p).all() and np.isfinite(trace.phi).all()
        assert 0.0 < trace.delta_p.max() <= 1e300 * math.exp(-30.0)

    def test_full_non_finite_trace_raises(self, op2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ModulationConfig(mu=1e300, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        with pytest.warns(UserWarning, match="validity range") as caught:
            with pytest.raises(NumericalError, match="not finite"):
                integrate_full(make_device(OP_XIS["OP2"]), cfg, icfg)
        assert len(caught) == 1

    @pytest.mark.parametrize("integrate", ["reduced", "full"])
    def test_each_integration_warns_once_per_rule(self, op2, integrate):
        # At mu = 1 and omega_m above a tenth of the carrier both validity
        # warnings fire, once each per integration; a window that validate
        # refuses evaluates nothing, so it warns about nothing.
        cfg = ModulationConfig(mu=1.0, omega_m=0.2 * op2.omega_sto)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        model = op2 if integrate == "reduced" else make_device(OP_XIS["OP2"])
        run = integrate_reduced if integrate == "reduced" else integrate_full
        for runs in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(runs):
                    try:
                        run(model, cfg, icfg)
                    except NumericalError:
                        pass  # mu = 1 may run the unreduced power through 0
            messages = sorted(str(w.message) for w in caught)
            assert len(messages) == 2 * runs, messages
            assert sum(m.startswith("mu=1.0 >= 1") for m in messages) == runs
            assert sum(m.startswith("omega_m is not small") for m in messages) == runs
        refused = dataclasses.replace(icfg, t_end=icfg.transient_cut)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError):
                run(model, cfg, refused)


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
        # A one-period synthesis has nothing to fold: its lines equal the
        # per-bin read-out of the full FFT bit for bit.  The 8-period RK4
        # trace is folded first.  Each folded sample sums n_per values in
        # turn, off by at most (n_per - 1)*eps/2 * n_per*max|v|; the m-point
        # DFT and the division by n_per*m leave at most (n_per - 1)*eps/2 *
        # max|v| on a line.  The two FFTs' own round-off, about
        # eps*sqrt(log2(N)/N)*max|v| per line for N samples, is far below,
        # so n_per*eps*max|v| bounds the difference (measured 1.1*eps).
        periods = set()
        for sol, trace in _synthesized_and_integrated(all_ops[label]):
            omega_m = sol.modcfg.omega_m
            n_per = round(trace.t.size * (trace.t[1] - trace.t[0]) * omega_m / TWO_PI)
            periods.add(n_per)
            signal = (1.0 + trace.delta_p) * np.exp(1j * trace.phi)
            for k_max in (40, 127):
                ref = full_fft_read_out(trace, signal, omega_m, k_max)
                if n_per == 1:
                    got, want = psd_fft(trace, sol, k_max), _build_spectrum(ref, k_max)
                    assert np.array_equal(got.offsets, want.offsets)
                    assert np.array_equal(got.powers, want.powers)
                else:
                    got = trace.harmonics(signal, omega_m, k_max)
                    bound = n_per * np.finfo(float).eps * np.abs(signal).max()
                    assert np.abs(got - ref).max() <= bound, (omega_m, k_max)
        assert periods == {1, 8}

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
