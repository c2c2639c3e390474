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


def _steps(cfg, icfg):
    """h, n_steps and the steps per modulation period, as the integrators take them."""
    h = icfg.dt
    return h, round(icfg.t_end / h), round(TWO_PI / cfg.omega_m / h)


def _scalar_orbit_start(rate, h, period_steps):
    """y* of the scalar loop's period map y -> G*y + O for a rate linear in
    y: one period from y = 0 gives O, and one from y = 1 gives G + O."""
    o = _scalar_rk4(rate, 0.0, 0.0, 0.0, h, period_steps)[0][-1]
    g = _scalar_rk4(rate, 1.0, 0.0, 0.0, h, period_steps)[0][-1] - o
    return o / (1.0 - g)


def _reduced_rate(op, cfg):
    """d(delta_p)/dt of the reduced equations, for the scalar loop."""
    mu, w = cfg.mu, cfg.omega_m

    def dpdot(t, dp):
        drive = mu * math.cos(w * t)
        return op.c1 * drive + 2.0 * dp * (op.c2 * drive - op.gamma_p)

    return dpdot


def _scalar_reduced(op, cfg, icfg):
    """delta_p and phase of the reduced equations over icfg's window by the
    scalar loop, from its own orbit start."""
    dpdot = _reduced_rate(op, cfg)
    h, n_steps, period_steps = _steps(cfg, icfg)
    dp, phi = _scalar_rk4(dpdot, _scalar_orbit_start(dpdot, h, period_steps),
                          op.omega_sto, 2.0 * op.nu * op.gamma_p, h, n_steps)
    return dp[:n_steps], phi[:n_steps]


def _scalar_full(params, cfg, icfg):
    """delta_p and phase of the unreduced power equation over icfg's window,
    stepped in p by the scalar loop from its own orbit start.

    RK4 in p is not affine in p, so the start p* is the root of F(p) - p,
    F one period of the loop, by secant steps from p0 and 1.01*p0 until a
    step moves p by at most 4 ulps (for an affine F the first step lands on
    O/(1 - G))."""
    op = derive_operating_point(params)
    mu, w = cfg.mu, cfg.omega_m
    gamma_g = params.alpha * op.omega_o
    sigma_i = gamma_g * params.xi

    def pdot(t, p):
        gm = sigma_i * (1.0 + mu * math.cos(w * t)) * (1.0 - p)
        return 2.0 * (gm - gamma_g) * p

    h, n_steps, period_steps = _steps(cfg, icfg)

    def residual(p):
        return _scalar_rk4(pdot, p, 0.0, 0.0, h, period_steps)[0][-1] - p

    p_prev, p = op.p0, 1.01 * op.p0
    r_prev, r = residual(p_prev), residual(p)
    for _ in range(50):
        if r == r_prev:
            break
        p_prev, p, r_prev = p, p - r * (p - p_prev) / (r - r_prev), r
        if abs(p - p_prev) <= 4 * math.ulp(p):
            break
        r = residual(p)
    p, phi = _scalar_rk4(pdot, p, op.omega_o, params.nu * op.gamma_p / op.p0, h, n_steps)
    return (p[:n_steps] / op.p0 - 1.0) / 2.0, phi[:n_steps]


def _raw_phase(trace):
    """The phase integrated from 0 at t = 0, before the demodulation ramp was
    removed."""
    return trace.phi + trace.demod_freq * trace.t


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _synthesized_and_integrated(op, mu=0.05):
    """(solution, trace) pairs: a one-period, 256-sample synthesis and an
    8-period RK4 trace of 512 samples per period, at 40 and 400 MHz."""
    for f_m in (40e6, 400e6):
        cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m)
        period = TWO_PI / cfg.omega_m
        icfg = IntegrationConfig(dt=period / 512, t_end=8 * period)
        sol = solve_coefficients_matrix(op, cfg)
        yield sol, synthesize_time_trace(sol, samples_per_period=256)
        yield sol, integrate_reduced(op, cfg, icfg)


class TestValidation:
    def test_coarse_step_rejected(self, op2):
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        with pytest.raises(StepSizeError):
            IntegrationConfig(dt=1e-9, t_end=1e-6).validate(op2, cfg)

    def test_step_must_resolve_relaxation(self, op3):
        # 512 steps/period resolves the period but not 0.1/Gamma_p at OP3
        # once the modulation is slow enough.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 1e6)
        dt = (TWO_PI / cfg.omega_m) / 512
        with pytest.raises(StepSizeError):
            IntegrationConfig(dt=dt, t_end=1e-4).validate(op3, cfg)

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
        # period into at least spp steps, more where 0.1/Gamma_p needs them,
        # and the window is exactly one period.
        op = all_ops[label]
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
        icfg = IntegrationConfig.for_steady_state(op, cfg, samples_per_period=spp)
        n_steps, period_steps = icfg.validate(op, cfg)
        assert n_steps == period_steps
        assert icfg.dt <= TWO_PI / cfg.omega_m / spp

    @pytest.mark.parametrize("steps", [512.5, 512 * (1 + 1e-12)])
    def test_step_must_divide_the_period(self, op2, steps):
        # The stepper reuses one period's RK4 maps for every period, so a dt
        # that misses the period, even by 1e-12, would drift the drive phase.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        period = TWO_PI / cfg.omega_m
        icfg = IntegrationConfig(dt=period / steps, t_end=20 * period)
        match = r"dt=.* does not divide the modulation period 1\.000000e-08"
        with pytest.raises(StepSizeError, match=match):
            integrate_reduced(op2, cfg, icfg)
        with pytest.raises(StepSizeError, match=match):
            integrate_full(op2, cfg, icfg)

    @pytest.mark.parametrize("t_end_steps", [0.0, 0.4, -1.0])
    def test_window_without_samples_rejected(self, op2, t_end_steps):
        # The window keeps t = i*dt, i < round(t_end/dt): here no sample, which
        # would give an empty trace with a NaN demod_freq.  0.6 steps keep one.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 10e6)
        dt = (TWO_PI / cfg.omega_m) / 512
        icfg = IntegrationConfig(dt=dt, t_end=t_end_steps * dt)
        match = r"t_end=.* over dt=.* is not a finite step count from 1 to 33554432"
        for integrate in (integrate_reduced, integrate_full):
            with pytest.raises(StepSizeError, match=match):
                integrate(op2, cfg, icfg)
            assert integrate(op2, cfg, IntegrationConfig(dt=dt, t_end=0.6 * dt)).t.size == 1

    @pytest.mark.parametrize("field,value", [("t_end", math.nan), ("t_end", math.inf)])
    def test_non_finite_window_rejected(self, op2, field, value):
        # A non-finite t_end failed inside round().
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = dataclasses.replace(IntegrationConfig.for_steady_state(op2, cfg), **{field: value})
        match = rf"{field}={value} is not finite"
        with pytest.raises(StepSizeError, match=match):
            integrate_reduced(op2, cfg, icfg)
        with pytest.raises(StepSizeError, match=match):
            integrate_full(op2, cfg, icfg)

    def test_step_count_overflow_rejected(self, op2):
        # t_end/dt overflows to inf here, which the last-sample check cannot
        # round: it is refused first, as a step size error.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = dataclasses.replace(IntegrationConfig.for_steady_state(op2, cfg), t_end=1e300)
        assert math.isinf(icfg.t_end / icfg.dt)
        match = r"t_end=1\.000000e\+300 over dt=.* is not a finite step count"
        with pytest.raises(StepSizeError, match=match):
            icfg.validate(op2, cfg)
        for integrate in (integrate_reduced, integrate_full):
            with pytest.raises(StepSizeError, match=match):
                integrate(op2, cfg, icfg)

    def test_step_count_cap(self, op2):
        # 1e250 s is a finite step count that numpy could not allocate: it is
        # refused by validate, naming t_end, dt and the cap, before any array
        # is formed.  Exactly 2**25 steps pass validate (which allocates
        # nothing); one more step does not.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        match = r"t_end=1\.000000e\+250 over dt=.* is not a finite step count from 1 to 33554432"
        absurd = dataclasses.replace(icfg, t_end=1e250)
        with pytest.raises(StepSizeError, match=match):
            absurd.validate(op2, cfg)
        for integrate in (integrate_reduced, integrate_full):
            with pytest.raises(StepSizeError, match=match):
                integrate(op2, cfg, absurd)
        n_steps, _ = dataclasses.replace(icfg, t_end=2**25 * icfg.dt).validate(op2, cfg)
        assert n_steps == 2**25
        with pytest.raises(StepSizeError, match="from 1 to 33554432"):
            dataclasses.replace(icfg, t_end=(2**25 + 1) * icfg.dt).validate(op2, cfg)

    def test_period_step_cap(self, op1):
        # At OP1, f_m = 1 kHz and dt = period/2**26 the run is short, 30/Gamma_p
        # or 28,609 steps, but one period's maps would take some 16 arrays of
        # 2**26 floats, 8 GiB: validate refuses that dt, naming it, the period
        # and the cap, before any array is formed.  2**21 steps to the period,
        # the cap, pass validate (which allocates nothing).
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 1e3)
        period = TWO_PI / cfg.omega_m
        icfg = IntegrationConfig(dt=period / 2**26, t_end=30.0 / op1.gamma_p)
        match = (r"dt=1\.490116e-11 takes 67108864 steps to the modulation period "
                 r"1\.000000e-03, more than the 2097152 \(2\*\*21\)")
        with pytest.raises(StepSizeError, match=match):
            icfg.validate(op1, cfg)
        assert IntegrationConfig(dt=period / 2**21, t_end=icfg.t_end).validate(op1, cfg) == (
            round(icfg.t_end / (period / 2**21)), 2**21)

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    @pytest.mark.parametrize("f_m", [10e6, 40e6, 100e6, 160e6])
    @pytest.mark.parametrize("extra_steps", [0, 1, 255, 511, 1000])
    def test_plan_is_the_window_definition(self, all_ops, label, f_m, extra_steps):
        # validate's plan is n_steps = round(t_end/dt) and period_steps =
        # round(period/dt), for a t_end of extra_steps whole steps past one
        # period, 1 ulp either side of it and 0.4*dt either side, which all
        # round to the same count; the trace's t is exactly t = i*dt,
        # i < n_steps.
        op = all_ops[label]
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
        base = IntegrationConfig.for_steady_state(op, cfg)
        dt = base.dt
        period_steps = round(TWO_PI / cfg.omega_m / dt)
        n_steps = period_steps + extra_steps
        on_step = n_steps * dt
        for t_end in (on_step, math.nextafter(on_step, 0.0), math.nextafter(on_step, math.inf),
                      on_step - 0.4 * dt, on_step + 0.4 * dt):
            plan = dataclasses.replace(base, t_end=t_end).validate(op, cfg)
            assert plan == (n_steps, period_steps), (t_end / dt, plan)
        if label == "OP2":
            t = integrate_reduced(op, cfg, dataclasses.replace(base, t_end=on_step - 0.4 * dt)).t
            assert np.array_equal(t, np.arange(n_steps) * dt)


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
        # The trace starts on the orbit: the scalar loop stepped one period
        # from its first state retraces it and returns to that state.
        cfg, trace = _steady_solution(op2, 0.05, 100e6)
        h, n_steps, _ = _steps(cfg, IntegrationConfig.for_steady_state(op2, cfg))
        dp = _scalar_rk4(_reduced_rate(op2, cfg), trace.delta_p[0], 0.0, 0.0, h, n_steps)[0]
        assert np.max(np.abs(dp[:-1] - trace.delta_p)) < 1e-9
        assert abs(dp[-1] - dp[0]) < 1e-9

    def test_phase_periodicity(self, op2):
        # After removing the demodulation ramp the phase repeats each period
        # of an 8-period window up to a common offset.
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6)
        period = TWO_PI / cfg.omega_m
        trace = integrate_reduced(op2, cfg, IntegrationConfig(dt=period / 512, t_end=8 * period))
        per = trace.phi.reshape(-1, 512)
        assert per.shape[0] == 8
        per = per - per.mean(axis=1, keepdims=True)
        assert np.max(np.abs(per - per[0])) < 1e-8

    def test_free_decay_rate(self, all_ops):
        # mu = 0: dp relaxes as exp(-2 Gamma_p t), so the period map's gain G
        # is exp(-2 Gamma_p T) up to RK4's error: each step's multiplier is
        # the quartic Taylor polynomial of exp(-z), z = 2 Gamma_p h, short by
        # at most z**5/120 (an alternating tail for z < 1), or z**5*exp(z)/120
        # relative, so G is off by at most about P times that over the P
        # steps, plus P roundings of the product.  The orbit is dp = 0.
        cfg = ModulationConfig(mu=0.0, omega_m=TWO_PI * 100e6)
        for op in all_ops.values():
            icfg = IntegrationConfig.for_steady_state(op, cfg)
            h, _, period_steps = _steps(cfg, icfg)
            coeffs, _ = _reduced_model(op, cfg)
            _, gain, _ = oracle._period_maps(coeffs, h, period_steps)
            z = 2.0 * op.gamma_p * h
            bound = period_steps * (z**5 * math.exp(z) / 120.0 + np.finfo(float).eps)
            assert abs(gain[-1] / math.exp(-z * period_steps) - 1.0) <= bound
            assert not integrate_reduced(op, cfg, icfg).delta_p.any()

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
            # The window starts at t = 0, so the synthesized model aligns
            # sample-for-sample.
            cfg, trace = _steady_solution(op2, 0.05, 100e6, n_harmonics=15, spp=spp)
            model = synthesize_time_trace(ref, samples_per_period=spp, n_periods=8)
            return np.max(np.abs(trace.delta_p - model.delta_p[: trace.delta_p.size]))

        e_coarse, e_fine = err(256), err(512)
        assert 8.0 < e_coarse / e_fine < 32.0

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_orbit_matches_long_transient(self, all_ops, label):
        # Starting on the orbit replaces stepping through the transient: the
        # scalar loop stepped from dp = 0 through whole periods spanning
        # 40/Gamma_p (the transient then decays by exp(-80)), then over one
        # more period with its phase from 0, agrees with the orbit trace to
        # 1e-12 relative in dp, phase and demod_freq (measured 3.4e-14,
        # 2.9e-16 and 2.2e-16 at most).
        op = all_ops[label]
        for f_m in (40e6, 160e6):
            cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
            icfg = IntegrationConfig.for_steady_state(op, cfg)
            trace = integrate_reduced(op, cfg, icfg)
            h, n_steps, period_steps = _steps(cfg, icfg)
            periods = math.ceil(40.0 / op.gamma_p / (period_steps * h))
            dpdot = _reduced_rate(op, cfg)
            settled = _scalar_rk4(dpdot, 0.0, 0.0, 0.0, h, periods * period_steps)[0][-1]
            dp, phi = _scalar_rk4(dpdot, settled, op.omega_sto, 2.0 * op.nu * op.gamma_p,
                                  h, n_steps)
            dp, phi = dp[:n_steps], phi[:n_steps]
            demod = op.omega_sto + 2.0 * op.nu * op.gamma_p * float(dp.mean())
            assert _rel(trace.delta_p, dp) <= 1e-12, f_m
            assert _rel(_raw_phase(trace), phi) <= 1e-12, f_m
            assert abs(trace.demod_freq / demod - 1.0) <= 1e-12, f_m

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_orbit_start_is_the_fixed_point(self, all_ops, label):
        # The trace starts at y* = O/(1 - G) of the period map y -> G*y + O,
        # which returns it to itself up to the rounding of y* and of the map:
        # |G*y* + O - y*| is at most 4 ulps of |y*| (measured 1 ulp at most).
        op = all_ops[label]
        for f_m in (40e6, 160e6):
            for mu in (0.005, 0.05):
                cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m)
                icfg = IntegrationConfig.for_steady_state(op, cfg)
                h, _, period_steps = _steps(cfg, icfg)
                _, gain, offset = oracle._period_maps(_reduced_model(op, cfg)[0], h, period_steps)
                g, o = gain[-1], offset[-1]
                y_star = integrate_reduced(op, cfg, icfg).delta_p[0]
                assert y_star == o / (1.0 - g)
                assert abs(g * y_star + o - y_star) <= 4 * math.ulp(abs(y_star)), (f_m, mu)


class TestFullModel:
    def test_reduced_limit_at_weak_drive(self, op2):
        # The unreduced power equation agrees with the linearized one to
        # O(dp^2) corrections at small mu.
        cfg = ModulationConfig(mu=0.01, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        full = integrate_full(op2, cfg, icfg)
        red = integrate_reduced(op2, cfg, icfg)
        denom = np.max(np.abs(red.delta_p))
        assert np.max(np.abs(full.delta_p - red.delta_p)) / denom < 0.05

    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_reduced_error_scales_with_amplitude(self, all_ops, label):
        # The reduced model drops O(dp^2) terms, so its error relative to the
        # unreduced power equation is of order max|dp| itself (measured
        # 0.90-2.11 x max|dp| on this grid, worst at OP3, 40 MHz, mu = 0.2).
        op = all_ops[label]
        for f_m in (40e6, 400e6):
            for mu in (0.005, 0.02, 0.05, 0.2):
                cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m)
                icfg = IntegrationConfig.for_steady_state(op, cfg, samples_per_period=512)
                full = integrate_full(op, cfg, icfg)
                red = integrate_reduced(op, cfg, icfg)
                amp = np.max(np.abs(red.delta_p))
                rel = np.max(np.abs(full.delta_p - red.delta_p)) / amp
                assert rel <= 3.0 * amp, (f_m, mu, rel / amp)


# Windows of t = i*dt, i < round(t_end/dt), at 10 MHz and 512 steps per
# period: whole periods, a partial last period, one shorter than a period, a
# t_end 0.45 steps short of whole periods, which round() plans as those
# periods, and one cut off in the second period.
_WINDOWS = {"whole": 3 * 512, "partial": 3 * 512 + 100, "short": 400,
            "half-step-cut": 3 * 512 - 0.45, "second-period-cut": 512 + 256}


def _window(steps):
    """The 10 MHz config and the window of `steps` steps of _WINDOWS."""
    cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 10e6)
    dt = (TWO_PI / cfg.omega_m) / 512
    return cfg, IntegrationConfig(dt=dt, t_end=steps * dt)


class TestStepper:
    """The period-vectorised affine stepper against the scalar RK4 loop.

    Phases are compared before demodulation, from 0 at t = 0, where both
    start theirs: the demodulated phase is a difference of two ~1e4 rad
    numbers, so its relative rounding says nothing about the stepper."""

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
            trace = integrate_full(all_ops[label], cfg, icfg)
            dp, phi = _scalar_full(params, cfg, icfg)
            assert _rel(trace.delta_p, dp) <= 1e-8, f_m
            assert _rel(_raw_phase(trace), phi) <= 1e-8, f_m

    @pytest.mark.parametrize("window", ["whole", "partial", "short", "half-step-cut"])
    def test_runs_match_scalar_loop(self, op2, window):
        # The stepper expands one period and repeats it, and cuts the trace
        # back to n_steps; the scalar loops step every sample from their own
        # orbit start.  The unreduced model keeps
        # test_full_matches_p_form_loop's 1e-8 (measured 2.6e-9 here).
        cfg, icfg = _window(_WINDOWS[window])
        n_steps = round(_WINDOWS[window])
        params = make_device(OP_XIS["OP2"])
        for trace, (dp, phi), tol in (
            (integrate_reduced(op2, cfg, icfg), _scalar_reduced(op2, cfg, icfg), 1e-12),
            (integrate_full(op2, cfg, icfg), _scalar_full(params, cfg, icfg), 1e-8),
        ):
            assert np.array_equal(trace.t, np.arange(n_steps) * icfg.dt)
            assert dp.size == n_steps
            assert _rel(trace.delta_p, dp) <= tol
            assert _rel(_raw_phase(trace), phi) <= tol


def _reference_rk4(coeffs, h, n_steps, period_steps, phase_rate):
    """_rk4 before its phase sum dropped the passes that multiply by 1, add 0
    or zero-fill: all four stages go through one loop, over every period,
    each started from the one before by a second scan of the period map
    from y* = O/(1 - G), with G and O read from its own prefix maps.  Kept
    as the differential reference."""
    periods = -(-n_steps // period_steps)
    y = np.empty(periods * period_steps + 1)
    phi = np.zeros_like(y)
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
        offset = oracle._affine_scan(m, n)
        y[0] = offset[-1] / (1.0 - gain[-1])
        ends = np.full(periods, offset[-1])
        ends[0] += gain[-1] * y[0]
        y[period_steps::period_steps] = oracle._affine_scan(np.full(periods, gain[-1]), ends)
        np.multiply.outer(y_i[:, 0], gain[:-1], out=y_i[:, 1:])
        y_i[:, 1:] += offset[:-1]
        stage = np.empty_like(y_i)
        for c, d, weight in ((0.0, 1.0, 1.0), (c2, d2, 2.0), (c3, d3, 2.0), (c4, d4, 1.0)):
            np.multiply(d, y_i, out=stage)
            stage += c
            dphi += np.multiply(phase_rate(stage), weight, out=stage)
        dphi *= sixth
        np.cumsum(phi, out=phi)
    y, phi = y[:n_steps], phi[:n_steps]
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


def _reference_reduced(op, cfg, icfg):
    """delta_p and phase of the reduced equations by _reference_rk4."""
    coeffs, phase_rate = _reduced_model(op, cfg)
    return _reference_rk4(coeffs, *_steps(cfg, icfg), phase_rate)


def _reference_full(op, cfg, icfg):
    """delta_p and phase of the unreduced equations, in u = 1/p, by
    _reference_rk4, with coefficients formed as integrate_full forms them
    from op: sigma*I = C1 + Gamma_p, and Gamma_p in place of
    sigma*I - Gamma_G."""
    sigma_i = op.c1 + op.gamma_p
    nu_over_p0 = op.nu * op.gamma_p / op.p0

    def coeffs(t):
        drive = sigma_i * cfg.mu * np.cos(cfg.omega_m * t)
        return 2.0 * (sigma_i + drive), -2.0 * (op.gamma_p + drive)

    def phase_rate(u):
        return np.add(np.divide(nu_over_p0, u, out=u), op.omega_o, out=u)

    u, phi = _reference_rk4(coeffs, *_steps(cfg, icfg), phase_rate)
    return (1.0 / u / op.p0 - 1.0) / 2.0, phi


def _stage_wise_reduced(op, cfg, icfg):
    """delta_p and phase of the reduced equations by oracle._rk4 with a phase
    step that takes the rate at each RK4 stage state, as integrate_full's
    does."""
    coeffs, phase_rate = _reduced_model(op, cfg)

    def phase_step(stages, rows, out):
        out[...] = phase_rate(rows.copy())
        for (c, d), weight in zip(stages, (2.0, 2.0, 1.0)):
            out += weight * phase_rate(d * rows + c)

    return oracle._rk4(coeffs, *_steps(cfg, icfg), phase_step)


def _assert_matches(trace, dp, phi, icfg):
    """delta_p bit for bit, and the phases from 0 at t = 0 within the
    rounding of the running sums.

    Both phases are running sums of positive steps (omega_sto or omega_o
    dominates the rate), of up to n = n_steps steps from 0.  A running sum
    of n terms rounds by at most (n - 1)*eps/2 times their sum, and each
    step's own few roundings add at most 5*eps/2 of it; an affine phase
    step's products and sums are no worse.  So each sum lies within
    (n + 4)*eps/2*M of the exact one, M = max|phi|, and re-adding the
    demodulation ramp to the trace's phase rounds twice: (2*n + 10)*eps/2*M
    in all, below 2*(n + 6)*eps*M.  Measured against the reference: at most
    2.9e-16*M for integrate_reduced over the 60 oracle-validate windows of
    seeds 101 and 303, and 0 for integrate_full over OP1-3 x f_m in
    {10, 40, 160, 400} MHz x mu in {0.005, 0.05, 0.2}; against the
    stage-wise step, 1.8e-16*M.
    """
    assert trace.delta_p.tobytes() == dp.tobytes()
    bound = 2 * (round(icfg.t_end / icfg.dt) + 6) * np.finfo(float).eps * np.abs(phi).max()
    assert np.abs(_raw_phase(trace) - phi).max() <= bound


@pytest.mark.parametrize("mu", [0.005, 0.05])
def test_rk4_matches_reference_bit_for_bit(all_ops, mu):
    # Both integrators expand one period from the same y* as the reference's
    # first period, so delta_p equals the reference's bit for bit and the
    # phases agree to round-off.
    for op in all_ops.values():
        for f_m in (40e6, 160e6):
            cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m)
            icfg = IntegrationConfig.for_steady_state(op, cfg)
            _assert_matches(
                integrate_reduced(op, cfg, icfg), *_reference_reduced(op, cfg, icfg), icfg
            )
            _assert_matches(
                integrate_full(op, cfg, icfg), *_reference_full(op, cfg, icfg), icfg
            )


class TestAffinePhase:
    """integrate_reduced's affine phase step against a stage-wise phase step
    of the same equations in the same driver."""

    @pytest.mark.parametrize("mu", [0.005, 0.05])
    @pytest.mark.parametrize("f_m", [40e6, 160e6])
    @pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
    def test_steady_state_windows(self, all_ops, label, f_m, mu):
        # The factory's one-period window.
        op = all_ops[label]
        cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m)
        icfg = IntegrationConfig.for_steady_state(op, cfg)
        _assert_matches(integrate_reduced(op, cfg, icfg), *_stage_wise_reduced(op, cfg, icfg), icfg)

    @pytest.mark.parametrize("window", list(_WINDOWS))
    def test_cut_windows(self, op2, window):
        # Windows cut off at t_end anywhere in a period, after repeated
        # periods or inside the first: the phase is summed over the
        # repeated period's steps and is exactly 0 at t = 0 for both
        # integrators.
        cfg, icfg = _window(_WINDOWS[window])
        reduced = integrate_reduced(op2, cfg, icfg)
        _assert_matches(reduced, *_stage_wise_reduced(op2, cfg, icfg), icfg)
        assert reduced.phi[0] == 0.0
        assert integrate_full(op2, cfg, icfg).phi[0] == 0.0


def _sequential(m, n, y0):
    """y_1 .. y_L of y_{i+1} = m_i*y_i + n_i, one step at a time."""
    y, out = y0, []
    for m_i, n_i in zip(m.tolist(), n.tolist()):
        y = m_i * y + n_i
        out.append(y)
    return np.array(out)


def _scan_from(m, n, y0):
    """oracle._affine_scan on copies of m and n, with y0 folded into n[0] as
    the sequential loop's first step adds it."""
    n = n.copy()
    n[0] += m[0] * y0
    return oracle._affine_scan(m.copy(), n)


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
        got = _scan_from(m, n, y0)
        assert got.shape == ref.shape
        assert _rel(got, ref) <= 1e-14

    def test_zero_multiplier_restarts_exactly(self):
        # m_i = 0 forgets the past: y_{i+1} is n_i bit for bit.
        rng = np.random.default_rng(7)
        m, n = rng.uniform(-1.0, 1.0, 1025), rng.normal(size=1025)
        m[::5] = 0.0
        got = _scan_from(m, n, 3.0)
        assert np.array_equal(got[::5], n[::5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["m", "n"])
    @pytest.mark.parametrize("step", [0, 511, 1024])
    def test_non_finite_reaches_every_later_state(self, bad, where, step):
        rng = np.random.default_rng(step)
        m, n = 1.0 - rng.uniform(0.0, 1e-3, 1025), rng.normal(size=1025)
        (m if where == "m" else n)[step] = bad
        with np.errstate(all="ignore"):
            got = _scan_from(m, n, 0.5)
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

        # A spike in b makes the period gain G non-finite; one in a, the
        # offset O and so the orbit start.
        with pytest.raises(NumericalError, match="not finite"):
            oracle._rk4(coeffs, h, n_steps, n_steps, phase_step)


class TestGuards:
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

    def test_growing_period_map_refused(self):
        # dy/dt = 1 + y grows as exp(t): the period map's gain G = exp(T)
        # exceeds 1, so no orbit attracts the trace, and _rk4 says so
        # rather than returning y* = O/(1 - G).
        def coeffs(t):
            return np.ones_like(t), np.ones_like(t)

        def phase_step(stages, rows, out):
            out[...] = rows

        with pytest.raises(NumericalError, match=r"G=20\.0855 is not finite or has \|G\| >= 1"):
            oracle._rk4(coeffs, 1e-3, 3000, 3000, phase_step)

    def test_full_non_finite_trace_raises(self, op2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ModulationConfig(mu=1e300, omega_m=TWO_PI * 100e6)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        with pytest.warns(UserWarning, match="validity range") as caught:
            with pytest.raises(NumericalError, match="not finite"):
                integrate_full(op2, cfg, icfg)
        assert len(caught) == 1

    @pytest.mark.parametrize("integrate", ["reduced", "full"])
    def test_each_integration_warns_once_per_rule(self, op2, integrate):
        # At mu = 1 and omega_m above a tenth of the carrier both validity
        # warnings fire, once each per integration; a window that validate
        # refuses evaluates nothing, so it warns about nothing.
        cfg = ModulationConfig(mu=1.0, omega_m=0.2 * op2.omega_sto)
        icfg = IntegrationConfig.for_steady_state(op2, cfg)
        run = integrate_reduced if integrate == "reduced" else integrate_full
        for runs in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(runs):
                    try:
                        run(op2, cfg, icfg)
                    except NumericalError:
                        pass  # mu = 1 may run the unreduced power through 0
            messages = sorted(str(w.message) for w in caught)
            assert len(messages) == 2 * runs, messages
            assert sum(m.startswith("mu=1.0 >= 1") for m in messages) == runs
            assert sum(m.startswith("omega_m is not small") for m in messages) == runs
        refused = dataclasses.replace(icfg, t_end=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError):
                run(op2, cfg, refused)


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
