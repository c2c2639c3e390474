"""Operating-point derivation and parameter validation."""

import math
import random
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stomod import (
    BelowThresholdError,
    ConfigError,
    DeviceParams,
    IntegrationConfig,
    ModulationConfig,
    NumericalError,
    UnsaturatedRegimeError,
    derive_operating_point,
    integrate_full,
    integrate_reduced,
    modulation_bandwidth,
    solve_coefficients_matrix,
    solve_coefficients_recursive,
)
from stomod.config import load_config
from stomod.model import warn_outside_model
from stomod.sweeps import operating_point_table

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

    def test_negative_carrier_rejected(self):
        # f_STO = f_o + nu*Gamma_p/2pi crosses 0 at xi = 2 when nu = -100.
        assert derive_operating_point(make_device(1.8, nu=-100.0)).omega_sto > 0.0
        with pytest.raises(NumericalError, match="f_STO=.* at xi=3.8"):
            derive_operating_point(make_device(3.8, nu=-100.0))

    def test_overflowing_carrier_rejected(self):
        # nu = 1e300 is finite, but nu*Gamma_p overflows f_STO to inf.
        match = r"f_STO = f_o \+ nu\*Gamma_p/2pi is not finite at xi=1\.8 \(nu=1e\+300\)"
        with pytest.raises(NumericalError, match=match):
            derive_operating_point(make_device(1.8, nu=1e300))

    def test_fields_finite_or_refused(self):
        # Seeded draws over DeviceParams' finite range, every magnitude from
        # the smallest normal float to the largest, and near the threshold
        # xi in (1, 2): each derived OperatingPoint field is finite, or the
        # derivation is refused.  The listed cases overflow the carrier either
        # way, Gamma_p, and sigma*I = alpha*omega_o*xi with Gamma_p finite.
        rng = random.Random(80)

        def magnitude():
            return math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1021, 1024))

        cases = [make_device(1.8, nu=1e300), make_device(1.8, nu=-1e300),
                 make_device(1.2, mu0_h_app=1e300),
                 make_device(1.1, gamma=1.7e308 / TWO_PI, mu0_h_app=1.0, mu0_ms=0.0, alpha=1.0)]
        for _ in range(2000):
            low, high = sorted(rng.choice((-1.0, 1.0)) * magnitude() for _ in range(2))
            xi = magnitude() if rng.random() < 0.5 else rng.uniform(1.0, 2.0)
            if low < high:
                nu = rng.choice((-1.0, 1.0)) * magnitude()
                cases.append(DeviceParams(mu0_h_app=high, mu0_ms=low, gamma=magnitude(),
                                          alpha=magnitude(), nu=nu, xi=xi))
        derived = 0
        for params in cases:
            try:
                op = derive_operating_point(params)
            except (BelowThresholdError, NumericalError):
                continue
            derived += 1
            values = [getattr(op, f.name) for f in fields(op)]
            assert all(math.isfinite(v) for v in values), (params, op)
        assert derived > 0

    def test_unsaturated_rejected(self):
        with pytest.raises(UnsaturatedRegimeError):
            make_device(1.5, mu0_h_app=0.7)

    # Finite inputs whose product Gamma_p = alpha*omega_o*(xi - 1) overflows
    # or underflows to 0.
    @pytest.mark.parametrize(
        "kwargs", [{"mu0_h_app": 1e300}, {"gamma": 1e-300, "alpha": 1e-300}]
    )
    def test_degenerate_restoration_rate_rejected(self, kwargs):
        with pytest.raises(NumericalError):
            derive_operating_point(make_device(1.2, **kwargs))

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


def _f_sto(xi_grid: str) -> list[float]:
    cfg = load_config(overrides=[f"operating-point.xi_grid={xi_grid}"])
    _, rows = operating_point_table(cfg)["operating_point"]
    return [row[2] for row in rows]


class TestDispersion:
    def test_threshold_point_allowed(self):
        assert _f_sto("1.0") == [pytest.approx(F_O, rel=1e-14)]

    def test_below_threshold_grid_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["operating-point.xi_grid=0.9"])

    def test_linear_in_xi(self):
        # With constant nu the dispersion is affine: slope alpha*f_o*nu per xi.
        slope = 0.01 * F_O * 100.0
        for i, f in enumerate(_f_sto("1,2,3,4")):
            assert f == pytest.approx(F_O + i * slope, rel=1e-12)

    def test_monotone_for_positive_nu(self):
        freqs = _f_sto("lin:1:4:61")
        assert len(freqs) == 61
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    @pytest.mark.parametrize("op_filter", [None, "OP1"])
    def test_underflowing_rate_rejected(self, op_filter):
        # Gamma_p underflows to 0 above threshold; only xi = 1 may give 0.
        cfg = load_config(overrides=[
            "operating-point.xi_grid=1.0,1.2", "device.gamma_hz_per_t=1e-300", "device.alpha=1e-300"
        ])
        with pytest.raises(NumericalError, match="Gamma_p=0.0"):
            operating_point_table(cfg, op_filter)

    def test_table_rows_equal_derive_operating_point(self):
        cfg = load_config()
        _, rows = operating_point_table(cfg)["operating_point"]
        above = [row for row in rows if row[0] > 1.0]
        assert len(above) == len(rows) - 1
        for xi, *values in above:
            op = derive_operating_point(cfg.device(xi))
            assert values == [
                op.omega_o / TWO_PI,
                op.omega_sto / TWO_PI,
                op.gamma_p / TWO_PI,
                op.p0,
                op.c1,
                op.c2,
            ]


class TestModulationConfig:
    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            ModulationConfig(mu=-0.1, omega_m=1e8)

    def test_large_mu_warns(self):
        # The small-modulation rule warns where the model is evaluated.
        op = derive_operating_point(make_device(1.8))
        with pytest.warns(UserWarning, match="mu") as caught:
            warn_outside_model(op, ModulationConfig(mu=1.5, omega_m=1e8))
        assert [str(w.message) for w in caught] == [
            "mu=1.5 >= 1: outside the small-modulation validity range"
        ]

    @pytest.mark.parametrize("mu", [1.0, 1.5, 1e300])
    def test_large_mu_builds_silently(self, mu):
        # A config is a plain value: building it, or deriving another order
        # from it, never warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ModulationConfig(mu=mu, omega_m=1e8)
            derived = replace(cfg, n_harmonics=3)
        assert (derived.mu, derived.omega_m, derived.n_harmonics) == (mu, 1e8, 3)

    def test_replace_refuses_zero_order(self):
        with pytest.raises(ValueError, match="n_harmonics must be >= 1, got 0"):
            replace(ModulationConfig(mu=1.0, omega_m=1e8), n_harmonics=0)

    def test_non_integer_order_rejected(self):
        # Any integer type passes, numpy's too.
        with pytest.raises(ValueError, match="n_harmonics must be an integer, got 2.5"):
            ModulationConfig(mu=0.1, omega_m=1e8, n_harmonics=2.5)
        assert ModulationConfig(mu=0.1, omega_m=1e8, n_harmonics=np.int64(3)).n_harmonics == 3

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
            warn_outside_model(op, ModulationConfig(mu=0.05, omega_m=0.5 * op.omega_sto))

    @pytest.mark.parametrize("call", ["matrix", "recursive", "reduced", "full", "bandwidth"])
    def test_validity_warning_names_the_callers_line(self, call):
        # Each library call warns once, from the line that called it: not
        # from stomod's own code, whatever depth it warns at.  The bandwidth
        # search warns at its 3.14 GHz corner, past a tenth of the 6.38 GHz
        # carrier.
        op = derive_operating_point(make_device(3.8, alpha=0.1, nu=0.5))
        cfg = ModulationConfig(mu=0.05, omega_m=0.2 * op.omega_sto)
        icfg = IntegrationConfig.for_steady_state(op, cfg)
        run = {
            "matrix": lambda: solve_coefficients_matrix(op, cfg),
            "recursive": lambda: solve_coefficients_recursive(op, cfg),
            "reduced": lambda: integrate_reduced(op, cfg, icfg),
            "full": lambda: integrate_full(op, cfg, icfg),
            "bandwidth": lambda: modulation_bandwidth(op, 1e-4, 0.02 * 2.0 * op.gamma_p),
        }[call]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert [(str(w.message)[:20], w.filename) for w in caught] == [
            ("omega_m is not small", __file__)]
