"""Operating-point derivation and parameter validation."""

import math

import pytest
from hypothesis import given, strategies as st

from stomod import (
    BelowThresholdError,
    DeviceParams,
    ModulationConfig,
    UnsaturatedRegimeError,
    derive_operating_point,
    frequency_dispersion,
)
from stomod.model import warn_if_fast_modulation

from conftest import DEVICE_KW, GAMMA_P_HZ, OP_XIS, TWO_PI, make_device

F_O = 5.6e9  # 28 GHz/T * (1.0 - 0.8) T


class TestOperatingPoint:
    def test_free_running_frequency(self):
        op = derive_operating_point(make_device(1.2))
        assert op.omega_o == pytest.approx(TWO_PI * F_O, rel=1e-14)

    @pytest.mark.parametrize("label", list(OP_XIS))
    def test_restoration_rate_closed_form(self, label):
        op = derive_operating_point(make_device(OP_XIS[label]))
        assert op.gamma_p / TWO_PI == pytest.approx(GAMMA_P_HZ[label], rel=1e-12)

    @pytest.mark.parametrize(
        "xi,f_sto",
        [(1.2, 6.72e9), (3.8, 21.28e9)],
    )
    def test_shifted_frequency_examples(self, xi, f_sto):
        # f_sto = f_o + nu * Gamma_p / 2pi with nu = 100
        op = derive_operating_point(make_device(xi))
        assert op.omega_sto / TWO_PI == pytest.approx(f_sto, rel=1e-12)

    def test_stationary_power(self):
        op = derive_operating_point(make_device(1.8))
        assert op.p0 == pytest.approx(1.0 - 1.0 / 1.8, rel=1e-14)

    def test_drive_constants(self):
        # C1 = alpha*omega_o, C2 = alpha*omega_o*(2 - xi)
        op = derive_operating_point(make_device(1.8))
        alpha_wo = 0.01 * TWO_PI * F_O
        assert op.c1 == pytest.approx(alpha_wo, rel=1e-14)
        assert op.c2 == pytest.approx(alpha_wo * 0.2, rel=1e-12)

    def test_c2_changes_sign_at_xi_2(self):
        assert derive_operating_point(make_device(1.9)).c2 > 0.0
        assert derive_operating_point(make_device(2.1)).c2 < 0.0
        assert derive_operating_point(make_device(2.0)).c2 == pytest.approx(
            0.0, abs=1e-6 * 0.01 * TWO_PI * F_O
        )

    @pytest.mark.parametrize("xi", [0.5, 0.999, 1.0])
    def test_below_threshold_rejected(self, xi):
        with pytest.raises(BelowThresholdError):
            derive_operating_point(make_device(xi))

    def test_unsaturated_rejected(self):
        with pytest.raises(UnsaturatedRegimeError):
            make_device(1.5, mu0_h_app=0.7)

    @pytest.mark.parametrize(
        "kwargs", [{"alpha": 0.0}, {"gamma": -1.0}, {"xi": 0.0}]
    )
    def test_nonpositive_parameters_rejected(self, kwargs):
        xi = kwargs.pop("xi", 1.5)
        with pytest.raises(ValueError):
            make_device(xi, **kwargs)

    @pytest.mark.parametrize("name", ["mu0_h_app", "mu0_ms", "gamma", "alpha", "nu", "xi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            DeviceParams(**{**DEVICE_KW, "xi": 1.5, name: value})

    @given(xi=st.floats(min_value=1.001, max_value=20.0))
    def test_constant_identities(self, xi):
        # C1 is bias-independent; C2 and Gamma_p are tied to it through xi.
        op = derive_operating_point(make_device(xi))
        assert op.c2 == pytest.approx(op.c1 * (2.0 - xi), rel=1e-10, abs=1e-6)
        assert op.gamma_p == pytest.approx(op.c1 * (xi - 1.0), rel=1e-10)
        assert op.omega_sto == pytest.approx(op.omega_o + op.nu * op.gamma_p, rel=1e-12)


class TestDispersion:
    def test_threshold_point_allowed(self):
        rows = frequency_dispersion(make_device(1.5), [1.0])
        assert rows[0][1] == pytest.approx(F_O, rel=1e-14)

    def test_below_threshold_grid_rejected(self):
        with pytest.raises(ValueError):
            frequency_dispersion(make_device(1.5), [0.9])

    def test_linear_in_xi(self):
        # With constant nu the dispersion is affine: slope alpha*f_o*nu per xi.
        rows = frequency_dispersion(make_device(1.5), [1.0, 2.0, 3.0, 4.0])
        freqs = [f for _, f in rows]
        slope = 0.01 * F_O * 100.0
        for i, f in enumerate(freqs):
            assert f == pytest.approx(F_O + i * slope, rel=1e-12)

    def test_monotone_for_positive_nu(self):
        rows = frequency_dispersion(make_device(1.5), [1.0 + 0.05 * i for i in range(61)])
        freqs = [f for _, f in rows]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))


class TestModulationConfig:
    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            ModulationConfig(mu=-0.1, omega_m=1e8)

    def test_large_mu_warns(self):
        with pytest.warns(UserWarning, match="mu"):
            ModulationConfig(mu=1.5, omega_m=1e8)

    def test_zero_mu_allowed(self):
        assert ModulationConfig(mu=0.0, omega_m=1e8).mu == 0.0

    @pytest.mark.parametrize("omega_m", [0.0, -1e8])
    def test_nonpositive_omega_m_rejected(self, omega_m):
        with pytest.raises(ValueError):
            ModulationConfig(mu=0.05, omega_m=omega_m)

    @pytest.mark.parametrize("omega_m", [math.nan, math.inf])
    def test_non_finite_omega_m_rejected(self, omega_m):
        with pytest.raises(ValueError):
            ModulationConfig(mu=0.05, omega_m=omega_m)

    def test_bad_harmonic_count_rejected(self):
        with pytest.raises(ValueError):
            ModulationConfig(mu=0.05, omega_m=1e8, n_harmonics=0)

    def test_fast_modulation_warns(self):
        op = derive_operating_point(make_device(1.8))
        with pytest.warns(UserWarning, match="omega_sto"):
            warn_if_fast_modulation(op, ModulationConfig(mu=0.05, omega_m=0.5 * op.omega_sto))
