"""Sweep computations behind the CLI commands.

Each function returns ``{filename_stem: (header, rows)}`` so the CLI layer
only handles argument parsing and CSV serialization.  Rows follow grid order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

from .config import RunConfig, device_at
from .errors import NumericalError
from .fourier import (
    carrier_shift,
    solution_difference,
    solve_coefficients_matrix,
    solve_coefficients_recursive,
    truncation_error,
)
from .model import (
    TWO_PI,
    ModulationConfig,
    OperatingPoint,
    _operating_point,
    derive_operating_point,
)
from .spectrum import (
    _refuse_negative_power,
    modulation_bandwidth,
    peak_frequency_deviation,
    psd_analytic,
    sideband_asymmetry,
    solve_mu_for_beta1,
)

TableMap = dict[str, tuple[list[str], list[tuple]]]


def _ops(cfg: RunConfig, op_filter: str | None) -> list[tuple[str, OperatingPoint]]:
    """The configured operating points, or only the one labelled ``op_filter``."""
    labels = list(cfg.op_xis) if op_filter is None else [op_filter]
    return [(label, derive_operating_point(device_at(cfg, label))) for label in labels]


@contextmanager
def _row(name: str):
    """Prefix a NumericalError raised in the block with the table row it hit."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{name}: {exc}") from exc


def _spectrum(cfg: RunConfig, label: str, op: OperatingPoint, beta1: float, f_m: float):
    """``(mu, sol, spec)``: back-solved mu, exact solution, line spectrum.

    A solution with negative power (1 + dp <= 0) raises NumericalError.
    """
    omega_m = TWO_PI * f_m
    mu = solve_mu_for_beta1(op, beta1, omega_m, cfg.n_harmonics)
    sol = solve_coefficients_matrix(
        op, ModulationConfig(mu=mu, omega_m=omega_m, n_harmonics=cfg.n_harmonics)
    )
    with _row(f"{label} at beta1 = {beta1:g}, f_m = {f_m:g} Hz"):
        _refuse_negative_power(sol)
    return mu, sol, psd_analytic(sol, j_max=cfg.j_max, k_max=cfg.k_max)


def operating_point_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Frequency dispersion and derived constants over the xi grid, or at the
    xi of the one operating point selected."""
    xis = cfg.dispersion_xi_grid if op_filter is None else [device_at(cfg, op_filter).xi]
    points = [(xi, _operating_point(replace(cfg.device, xi=xi))) for xi in xis]
    rows = [
        (xi, op.omega_o / TWO_PI, op.omega_sto / TWO_PI, op.gamma_p / TWO_PI, op.p0, op.c1, op.c2)
        for xi, op in points
    ]
    header = ["xi", "f_o_hz", "f_sto_hz", "gamma_p_hz", "p0", "c1", "c2"]
    return {"operating_point": (header, rows)}


def psd_map_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Line spectra vs beta_1 at the fixed modulation frequency, for each
    operating point."""
    rows = []
    for label, op in _ops(cfg, op_filter):
        for beta1 in cfg.psd_beta1_grid:
            mu, sol, spec = _spectrum(cfg, label, op, beta1, cfg.psd_f_m_hz)
            f_s = carrier_shift(sol)
            rows.extend(
                (label, beta1, mu, int(k), float(p), f_s)
                for k, p in zip(spec.offsets, spec.powers)
            )
    header = ["op_label", "beta1", "mu", "k", "power", "f_s_hz"]
    return {"psd_map": (header, rows)}


def _asymmetry_rows(cfg: RunConfig, ops, beta1_grid, f_m_grid):
    rows = []
    for label, op in ops:
        for beta1 in beta1_grid:
            for f_m in f_m_grid:
                _, _, spec = _spectrum(cfg, label, op, beta1, f_m)
                rows.append(
                    (
                        label,
                        beta1,
                        f_m,
                        sideband_asymmetry(spec),
                        spec.power_at(+1),
                        spec.power_at(-1),
                        spec.power_at(0),
                    )
                )
    return rows


def asymmetry_map_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Sideband power difference over the (beta_1, f_m) grid, plus the
    fixed-frequency slice."""
    ops = _ops(cfg, op_filter)
    header = ["op_label", "beta1", "f_m_hz", "delta", "p_upper", "p_lower", "p_carrier"]
    grid_rows = _asymmetry_rows(cfg, ops, cfg.asym_beta1_grid, cfg.asym_f_m_grid_hz)
    slice_rows = _asymmetry_rows(cfg, ops, cfg.asym_beta1_grid, [cfg.asym_slice_f_m_hz])
    return {
        "asymmetry_map": (header, grid_rows),
        "asymmetry_slice": (header, slice_rows),
    }


def bandwidth_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Peak frequency deviation vs f_m and the measured modulation bandwidth."""
    rows = []
    for label, op in _ops(cfg, op_filter):
        mbw_ref = 2.0 * op.gamma_p / TWO_PI
        # Seeded at mu = 1e-4 and 2% of the 2*Gamma_p corner, deep in the flat band.
        mbw_meas = modulation_bandwidth(op, 1e-4, 0.02 * 2.0 * op.gamma_p, cfg.n_harmonics)
        for f_m in cfg.bw_f_m_grid_hz:
            sol = solve_coefficients_matrix(
                op,
                ModulationConfig(
                    mu=cfg.bw_mu, omega_m=TWO_PI * f_m, n_harmonics=cfg.n_harmonics
                ),
            )
            with _row(f"{label} at f_m = {f_m:g} Hz"):
                delta_f_inst = peak_frequency_deviation(sol, "instantaneous")
            delta_f_index = peak_frequency_deviation(sol, "index-based")
            rows.append((label, f_m, delta_f_index, delta_f_inst, mbw_ref, mbw_meas))
    header = [
        "op_label",
        "f_m_hz",
        "delta_f_index_hz",
        "delta_f_inst_hz",
        "mbw_hz",
        "mbw_measured_hz",
    ]
    return {"bandwidth": (header, rows)}


def error_analysis_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Truncation error vs N and recursive-vs-matrix error vs beta_1 (OP2-like
    midpoint by default: the second configured label, else the first)."""
    ops = _ops(cfg, op_filter)
    label, op = ops[min(1, len(ops) - 1)]

    trunc_rows = []
    for f_m in cfg.err_f_m_grid_hz:
        modcfg = ModulationConfig(
            mu=cfg.err_mu, omega_m=TWO_PI * f_m, n_harmonics=cfg.err_n_ref
        )
        for n_val, err in truncation_error(op, modcfg, cfg.err_n_values, cfg.err_n_ref):
            trunc_rows.append((label, f_m, n_val, err))
        with _row(f"{label} at f_m = {f_m:g} Hz, n = {cfg.err_n_ref}"):
            _refuse_negative_power(solve_coefficients_matrix(op, modcfg))  # the reference row
        trunc_rows.append((label, f_m, cfg.err_n_ref, 0.0))

    omega_m = TWO_PI * cfg.err_recursive_f_m_hz
    # mu depends on beta_1 only (back-solved at solver.n_harmonics), not on N.
    mus = [
        solve_mu_for_beta1(op, beta1, omega_m, cfg.n_harmonics)
        for beta1 in cfg.err_recursive_beta1_grid
    ]
    rec_rows = []
    for n_val in cfg.err_recursive_n_values:
        for beta1, mu in zip(cfg.err_recursive_beta1_grid, mus):
            modcfg = ModulationConfig(mu=mu, omega_m=omega_m, n_harmonics=n_val)
            mat = solve_coefficients_matrix(op, modcfg)
            with _row(f"{label} at beta1 = {beta1:g}, n = {n_val}"):
                _refuse_negative_power(mat)
            rec = solve_coefficients_recursive(op, modcfg)
            p_mat = psd_analytic(mat, j_max=cfg.j_max, k_max=cfg.k_max).power_at(+1)
            p_rec = psd_analytic(rec, j_max=cfg.j_max, k_max=cfg.k_max).power_at(+1)
            sb_err = 100.0 * abs(p_rec - p_mat) / p_mat if p_mat > 0.0 else 0.0
            rec_rows.append(
                (
                    label,
                    cfg.err_recursive_f_m_hz,
                    n_val,
                    beta1,
                    solution_difference(rec, mat),
                    sb_err,
                )
            )
    return {
        "error_truncation": (["op_label", "f_m_hz", "n", "error_percent"], trunc_rows),
        "error_recursive": (
            [
                "op_label",
                "f_m_hz",
                "n",
                "beta1",
                "coeff_error_percent",
                "sideband_error_percent",
            ],
            rec_rows,
        ),
    }
