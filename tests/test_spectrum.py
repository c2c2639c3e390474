"""Line spectrum: analytic convolution, FFT cross-check, derived figures."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import jv

from stomod import (
    GridCoverageError,
    ModulationConfig,
    NumericalError,
    SeedBandError,
    derive_operating_point,
    modulation_bandwidth,
    peak_frequency_deviation,
    psd_analytic,
    psd_fft,
    sideband_asymmetry,
    solve_coefficients_matrix,
    solve_mu_for_beta1,
    synthesize_time_trace,
)
from stomod.spectrum import TimeTrace, first_harmonic_index, shifted_carrier
from stomod.spectrum import jv as stomod_jv

from conftest import TWO_PI, make_device

F_M = 100e6
OMEGA_M = TWO_PI * F_M


def _mu_for_beta1_no_coupling(op, beta1, omega_m):
    # Exact inversion when C2 = 0: |X1| = mu*C1/sqrt(w^2 + 4 Gp^2).
    return (
        beta1
        * omega_m
        * math.sqrt(omega_m**2 + 4.0 * op.gamma_p**2)
        / (2.0 * op.nu * op.gamma_p * op.c1)
    )


class TestLimits:
    def test_unmodulated_carrier(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.0, omega_m=OMEGA_M))
        spec = psd_analytic(sol)
        assert list(spec.offsets) == [0]
        assert spec.power_at(0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("beta1", [0.5, 1.0, 2.0])
    def test_pure_fm_bessel_lines(self, beta1):
        # C2 = 0 removes the parametric coupling; a large nu makes the
        # amplitude ripple negligible, leaving a textbook FM comb.
        op = replace(derive_operating_point(make_device(1.8, nu=1e8)), c2=0.0)
        mu = _mu_for_beta1_no_coupling(op, beta1, OMEGA_M)
        sol = solve_coefficients_matrix(op, ModulationConfig(mu=mu, omega_m=OMEGA_M))
        spec = psd_analytic(sol)
        for k in range(-5, 6):
            assert spec.power_at(k) == pytest.approx(jv(k, beta1) ** 2, rel=1e-6)

    def test_pure_am_lines(self):
        # nu = 0: no FM at all, only the amplitude comb, zero asymmetry.
        op = derive_operating_point(make_device(1.8, nu=0.0))
        sol = solve_coefficients_matrix(op, ModulationConfig(mu=0.3, omega_m=OMEGA_M))
        spec = psd_analytic(sol)
        assert sideband_asymmetry(spec) == 0.0
        n_h = sol.n_harmonics
        for k in spec.offsets:
            assert abs(k) <= n_h
        for k in range(n_h + 1, 41):
            assert spec.power_at(k) < 1e-12
            assert spec.power_at(-k) < 1e-12
        # The +-n line powers are |X_n|^2/4.
        for n in (1, 2, 3):
            assert spec.power_at(n) == pytest.approx(sol.x_abs(n) ** 2 / 4.0, rel=1e-12)
            assert spec.power_at(-n) == pytest.approx(spec.power_at(n), rel=1e-12)


class TestAnalyticSpectrum:
    def test_asymmetry_positive_for_mixed_modulation(self, all_ops):
        for op in all_ops.values():
            sol = solve_coefficients_matrix(op, ModulationConfig(mu=0.02, omega_m=OMEGA_M))
            assert sideband_asymmetry(psd_analytic(sol)) > 0.0

    def test_parseval(self, op2):
        # Total line power equals the mean square envelope <|1 + dp|^2>.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        spec = psd_analytic(sol)
        trace = synthesize_time_trace(sol, samples_per_period=1024, n_periods=1)
        mean_sq = float(np.mean((1.0 + trace.delta_p) ** 2))
        assert spec.total_power() == pytest.approx(mean_sq, rel=1e-8)

    def test_expansion_depth_converged(self, op2):
        # Raising j_max and k_max must not move the low-order lines.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        base = psd_analytic(sol, j_max=10, k_max=40)
        deep = psd_analytic(sol, j_max=14, k_max=60)
        for k in range(-5, 6):
            assert base.power_at(k) == pytest.approx(deep.power_at(k), rel=1e-3)

    def test_bad_j_max_rejected(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.1, omega_m=OMEGA_M))
        with pytest.raises(ValueError):
            psd_analytic(sol, j_max=0)

    def test_missing_line_reports_zero(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.0, omega_m=OMEGA_M))
        assert psd_analytic(sol).power_at(7) == 0.0


class TestBessel:
    @pytest.mark.parametrize("j_max", [1, 16])
    def test_matches_scipy(self, j_max):
        orders = np.arange(j_max + 1)
        for beta in np.linspace(-60.0, 60.0, 481):
            np.testing.assert_allclose(
                stomod_jv(j_max, beta), jv(orders, beta), rtol=0.0, atol=1e-14
            )

    def test_exact_zeros_at_zero_index(self):
        # Criterion 06 compares lines of an unmodulated phase with == 0.0.
        values = stomod_jv(16, 0.0)
        assert values[0] == 1.0
        assert all(v == 0.0 for v in values[1:])

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 2.0**16])
    def test_non_finite_or_huge_index_rejected(self, beta):
        with pytest.raises(NumericalError):
            stomod_jv(4, beta)


class TestNonFiniteLines:
    def test_analytic_rejects_non_finite_lines(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.0, omega_m=OMEGA_M))
        with pytest.raises(NumericalError):
            psd_analytic(replace(sol, a0=math.nan))

    def test_fft_rejects_non_finite_lines(self):
        # nu = 1e300 is finite, but the FM phase nu*Gamma_p*|X_n|/(n*w) overflows.
        op = derive_operating_point(make_device(1.8, nu=1e300))
        sol = solve_coefficients_matrix(op, ModulationConfig(mu=0.01, omega_m=OMEGA_M))
        with np.errstate(invalid="ignore", over="ignore"):
            trace = synthesize_time_trace(sol)
            with pytest.raises(NumericalError):
                psd_fft(trace, sol)


class TestFftSpectrum:
    def test_matches_analytic(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        fft_spec = psd_fft(trace, sol)
        ana_spec = psd_analytic(sol)
        for k in range(-5, 6):
            assert fft_spec.power_at(k) == pytest.approx(ana_spec.power_at(k), rel=1e-6)

    def test_partial_period_rejected(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        cut = TimeTrace(
            t=trace.t[:-100],
            delta_p=trace.delta_p[:-100],
            phi=trace.phi[:-100],
            demod_freq=trace.demod_freq,
        )
        with pytest.raises(GridCoverageError):
            psd_fft(cut, sol)

    def test_nonuniform_grid_rejected(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        warped = TimeTrace(
            t=trace.t**1.001,
            delta_p=trace.delta_p,
            phi=trace.phi,
            demod_freq=trace.demod_freq,
        )
        with pytest.raises(GridCoverageError):
            psd_fft(warped, sol)


class TestSynthesis:
    def test_sampling_floor(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        with pytest.raises(ValueError):
            synthesize_time_trace(sol, samples_per_period=8)
        with pytest.raises(ValueError):
            synthesize_time_trace(sol, n_periods=0)

    def test_carrier_includes_dc_shift(self, op1):
        sol = solve_coefficients_matrix(op1, ModulationConfig(mu=0.1, omega_m=OMEGA_M))
        assert shifted_carrier(sol) == pytest.approx(
            op1.omega_sto + 2.0 * op1.nu * op1.gamma_p * sol.a0, rel=1e-14
        )


class TestDerivedFigures:
    def test_peak_deviation_methods_agree(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        idx = peak_frequency_deviation(sol, "index-based")
        inst = peak_frequency_deviation(sol, "instantaneous")
        assert inst == pytest.approx(idx, rel=0.01)

    def test_peak_deviation_formula(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        assert peak_frequency_deviation(sol) == pytest.approx(
            op2.nu * op2.gamma_p * sol.x_abs(1) / math.pi, rel=1e-13
        )

    def test_unknown_method_rejected(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        with pytest.raises(ValueError):
            peak_frequency_deviation(sol, "rms")

    def test_bandwidth_corner(self, op2):
        mbw = modulation_bandwidth(op2, 1e-4, 0.02 * 2.0 * op2.gamma_p)
        assert mbw == pytest.approx(2.0 * op2.gamma_p / TWO_PI, rel=0.02)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_bandwidth_seed_must_be_in_flat_band(self, op2):
        with pytest.raises(SeedBandError):
            modulation_bandwidth(op2, 1e-4, 10.0 * 2.0 * op2.gamma_p)

    def test_bandwidth_rejects_bad_seed_values(self, op2):
        with pytest.raises(ValueError):
            modulation_bandwidth(op2, 0.0, OMEGA_M)

    def test_index_backsolve_round_trip(self, op2):
        for beta1 in (0.3, 1.0, 2.5):
            mu = solve_mu_for_beta1(op2, beta1, OMEGA_M)
            assert first_harmonic_index(op2, mu, OMEGA_M) == pytest.approx(beta1, rel=1e-6)

    def test_index_backsolve_edges(self, op2):
        assert solve_mu_for_beta1(op2, 0.0, OMEGA_M) == 0.0
        with pytest.raises(ValueError):
            solve_mu_for_beta1(op2, -1.0, OMEGA_M)
        with pytest.raises(NumericalError):
            solve_mu_for_beta1(op2, 50.0, OMEGA_M)
