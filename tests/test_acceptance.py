"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Tolerances and runtime budgets are fixed here on purpose; a failing
criterion means the implementation is wrong, not that the number below
needs adjusting.
"""

import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import jv

from stomod import (
    IntegrationConfig,
    ModulationConfig,
    derive_operating_point,
    integrate_reduced,
    modulation_bandwidth,
    peak_frequency_deviation,
    project_harmonics,
    psd_analytic,
    psd_fft,
    sideband_asymmetry,
    solve_coefficients_matrix,
    solve_mu_for_beta1,
    synthesize_time_trace,
    truncation_error,
)
from stomod.cli import main as cli_main
from stomod.config import device_at, load_config
from stomod.fourier import carrier_shift
from stomod.spectrum import shifted_carrier

from conftest import GAMMA_P_HZ, OP_XIS, TWO_PI, make_device


@pytest.fixture
def report(capsys):
    """Emit one PASS/FAIL line per criterion, bypassing output capture."""

    def _report(number: int, name: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {number} ({name}) failed"

    return _report


def test_criterion_01_oracle_equivalence(op2, report):
    t0 = time.perf_counter()
    cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6, n_harmonics=10)
    sol = solve_coefficients_matrix(op2, cfg)
    icfg = IntegrationConfig.for_steady_state(op2, cfg, samples_per_period=512)
    trace = integrate_reduced(op2, cfg, icfg)
    model = synthesize_time_trace(sol, samples_per_period=512, n_periods=8)
    # One modulation period (window starts on a period boundary).
    diff = trace.delta_p[:512] - model.delta_p[:512]
    rel_l2 = float(np.linalg.norm(diff) / np.linalg.norm(model.delta_p[:512]))
    proj = project_harmonics(trace, cfg, cfg.n_harmonics, op2)
    coeff_err = max(
        abs(proj.a0 - sol.a0),
        float(np.max(np.abs(proj.a - sol.a))),
        float(np.max(np.abs(proj.b - sol.b))),
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        "oracle-equivalence",
        rel_l2 < 1e-6 and coeff_err < 1e-6 and elapsed < 10.0,
    )


def test_criterion_02_restoration_rates(report):
    ok = all(
        derive_operating_point(make_device(OP_XIS[label])).gamma_p / TWO_PI
        == pytest.approx(GAMMA_P_HZ[label], rel=1e-12)
        for label in OP_XIS
    )
    report(2, "restoration-rates", ok)


def test_criterion_03_carrier_shift_identity(op2, report):
    cfg = load_config()
    ok = True
    for label in cfg.op_xis:
        op = derive_operating_point(device_at(cfg, label))
        for beta1 in cfg.psd_beta1_grid:
            mu = solve_mu_for_beta1(op, beta1, TWO_PI * cfg.psd_f_m_hz, cfg.n_harmonics)
            sol = solve_coefficients_matrix(
                op, ModulationConfig(mu, TWO_PI * cfg.psd_f_m_hz, cfg.n_harmonics)
            )
            lhs = TWO_PI * carrier_shift(sol)
            dc = 2.0 * op.nu * op.gamma_p * sol.a0
            b1 = mu * op.nu * op.c2 * sol.b[0]
            if beta1 == 0.0:
                ok &= lhs == 0.0 and dc == 0.0
            else:
                ok &= abs(lhs - dc) <= 1e-12 * abs(dc)
                ok &= abs(lhs - b1) <= 1e-12 * abs(b1)
    # FFT path: the carrier frequency recovered from the integrated trace
    # (demodulation ramp) lands in the same bin as the analytic shifted
    # carrier, to within one bin of the 8-period analysis window.
    mcfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 100e6, n_harmonics=10)
    sol = solve_coefficients_matrix(op2, mcfg)
    trace = integrate_reduced(
        op2, mcfg, IntegrationConfig.for_steady_state(op2, mcfg, samples_per_period=512)
    )
    bin_width = mcfg.omega_m / 8  # 8 modulation periods analyzed
    ok &= abs(trace.demod_freq - shifted_carrier(sol)) < bin_width
    report(3, "carrier-shift-identity", ok)


def test_criterion_04_truncation_error(op2, report):
    t0 = time.perf_counter()
    ok = True
    for f_m in (40e6, 400e6):
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m, n_harmonics=20)
        (_, err), = truncation_error(op2, cfg, [5], n_ref=20)
        ok &= err < 1e-5
    ok &= (time.perf_counter() - t0) < 5.0
    report(4, "truncation-error", ok)


def test_criterion_05_pure_fm_limit(report):
    # C2 = 0 kills the parametric coupling; large nu makes the residual
    # amplitude ripple negligible against the 1e-6 tolerance.
    op = replace(derive_operating_point(make_device(1.8, nu=1e8)), c2=0.0)
    w = TWO_PI * 100e6
    ok = True
    for beta1 in (0.5, 1.0, 2.0):
        mu = (
            beta1 * w * math.sqrt(w**2 + 4.0 * op.gamma_p**2)
            / (2.0 * op.nu * op.gamma_p * op.c1)
        )
        sol = solve_coefficients_matrix(op, ModulationConfig(mu=mu, omega_m=w))
        spec = psd_analytic(sol)
        for k in range(-5, 6):
            ref = jv(k, beta1) ** 2
            ok &= abs(spec.power_at(k) - ref) <= 1e-6 * ref
    report(5, "pure-fm-limit", ok)


def test_criterion_06_pure_am_limit(report):
    op = derive_operating_point(make_device(1.8, nu=0.0))
    sol = solve_coefficients_matrix(op, ModulationConfig(mu=0.3, omega_m=TWO_PI * 100e6))
    spec = psd_analytic(sol)
    ok = sideband_asymmetry(spec) == 0.0
    # Only the amplitude-comb lines |k| <= N survive; each +-n pair carries
    # |X_n|^2/4 and everything beyond the comb is numerically zero.
    for n in range(1, sol.n_harmonics + 1):
        ref = sol.x_abs(n) ** 2 / 4.0
        ok &= abs(spec.power_at(n) - ref) <= 1e-12 * max(ref, 1.0)
        ok &= abs(spec.power_at(-n) - ref) <= 1e-12 * max(ref, 1.0)
    for k in range(sol.n_harmonics + 1, 41):
        ok &= spec.power_at(k) < 1e-12 and spec.power_at(-k) < 1e-12
    report(6, "pure-am-limit", ok)


def test_criterion_07_cross_path_agreement(all_ops, report):
    t0 = time.perf_counter()
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # large-mu corners trip the validity warning
        for op in all_ops.values():
            for beta1 in (0.5, 1.5, 3.0):
                for f_m in (40e6, 100e6, 400e6):
                    w = TWO_PI * f_m
                    mu = solve_mu_for_beta1(op, beta1, w, 10, mu_max=5.0)
                    sol = solve_coefficients_matrix(op, ModulationConfig(mu, w, 10))
                    ana = psd_analytic(sol)
                    fft = psd_fft(synthesize_time_trace(sol), sol)
                    for k in (*range(1, 6), *range(-5, 0)):
                        ref = ana.power_at(k)
                        if ref > 1e-15:
                            ok &= abs(fft.power_at(k) - ref) <= 0.01 * ref
    elapsed = time.perf_counter() - t0
    report(7, "cross-path-spectra", ok and elapsed < 60.0)


def test_criterion_08_modulation_bandwidth(all_ops, report):
    ok = True
    for label, op in all_ops.items():
        target = 2.0 * op.gamma_p / TWO_PI
        measured = modulation_bandwidth(op, 1e-4, 0.02 * 2.0 * op.gamma_p)
        ok &= abs(measured - target) <= 0.02 * target
    report(8, "modulation-bandwidth", ok)


def test_criterion_09_peak_deviation_agreement(all_ops, report):
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1 GHz on OP1 nears the fast-modulation bound
        for op in all_ops.values():
            for f_m in np.geomspace(10e6, 1e9, 13):
                sol = solve_coefficients_matrix(
                    op, ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
                )
                idx = peak_frequency_deviation(sol, "index-based")
                inst = peak_frequency_deviation(sol, "instantaneous")
                ok &= abs(inst - idx) <= 0.01 * idx
    report(9, "peak-deviation-agreement", ok)


def test_criterion_10_asymmetry_map_monotonicity(report):
    cfg = load_config()
    maxima = {}
    ok = True
    for label in cfg.op_xis:
        op = derive_operating_point(device_at(cfg, label))
        delta = {}
        for beta1 in cfg.asym_beta1_grid:
            for f_m in cfg.asym_f_m_grid_hz:
                w = TWO_PI * f_m
                mu = solve_mu_for_beta1(op, beta1, w, cfg.n_harmonics)
                sol = solve_coefficients_matrix(
                    op, ModulationConfig(mu, w, cfg.n_harmonics)
                )
                delta[(beta1, f_m)] = sideband_asymmetry(
                    psd_analytic(sol, cfg.j_max, cfg.k_max)
                )
        bs, fs = cfg.asym_beta1_grid, cfg.asym_f_m_grid_hz
        ok &= all(d >= 0.0 for d in delta.values())
        ok &= all(
            delta[(bs[i + 1], f)] >= delta[(bs[i], f)]
            for f in fs
            for i in range(len(bs) - 1)
        )
        ok &= all(
            delta[(b, fs[i + 1])] >= delta[(b, fs[i])]
            for b in bs
            for i in range(len(fs) - 1)
        )
        maxima[label] = max(delta.values())
    ok &= maxima["OP1"] > maxima["OP3"]
    report(10, "asymmetry-map-monotonicity", ok)


def test_criterion_11_cli_determinism(tmp_path, report):
    ok = True
    jobs = [
        ["operating-point"],
        [
            "error-analysis",
            "--set", "error-analysis.n_values=3,5",
            "--set", "error-analysis.n_ref=12",
            "--set", "error-analysis.recursive_beta1_grid=0.5,1.0",
            "--set", "error-analysis.recursive_n_values=5",
        ],
    ]
    for i, args in enumerate(jobs):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        code_a = cli_main([*args, "--out", str(out_a)], standalone_mode=False)
        code_b = cli_main([*args, "--out", str(out_b)], standalone_mode=False)
        ok &= code_a == 0 and code_b == 0
        names = sorted(p.name for p in out_a.iterdir())
        ok &= names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report(11, "cli-determinism", ok)
