"""RK4 oracle: convergence, steady state, and projection round trips."""

import math

import numpy as np
import pytest

from stomod import (
    GridCoverageError,
    IntegrationConfig,
    ModulationConfig,
    StepSizeError,
    integrate_full,
    integrate_reduced,
    project_harmonics,
    psd_analytic,
    psd_fft,
    solve_coefficients_matrix,
    synthesize_time_trace,
)
from stomod.spectrum import TimeTrace

from conftest import OP_XIS, TWO_PI, make_device


def _steady_solution(op, mu, f_m, n_harmonics=10, spp=512):
    cfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m, n_harmonics=n_harmonics)
    icfg = IntegrationConfig.for_steady_state(op, cfg, samples_per_period=spp)
    return cfg, integrate_reduced(op, cfg, icfg)


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
        cut = TimeTrace(
            t=trace.t[:-37],
            delta_p=trace.delta_p[:-37],
            phi=trace.phi[:-37],
            demod_freq=trace.demod_freq,
        )
        with pytest.raises(GridCoverageError):
            project_harmonics(cut, cfg, cfg.n_harmonics, op2)

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
