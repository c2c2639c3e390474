"""Sweep computations behind the CLI commands.

Each function returns ``{filename_stem: (header, rows)}`` so the CLI layer
only handles argument parsing and CSV serialization.  Rows follow grid order,
and every table solves them through one step, _solve_rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

from .config import RunConfig, device_at
from .errors import StomodError
from .fourier import (
    FourierSolution,
    _distance_percent,
    carrier_shift,
    solve_coefficients_matrix,
    solve_coefficients_recursive,
)
from .model import (
    TWO_PI,
    ModulationConfig,
    OperatingPoint,
    _operating_point,
    derive_operating_point,
)
from .spectrum import (
    LineSpectrum,
    _line_spectra,
    _refuse_large_dp,
    modulation_bandwidth,
    peak_frequency_deviation,
    sideband_asymmetry,
    solve_mu_for_beta1,
)

TableMap = dict[str, tuple[list[str], list[tuple]]]


class _Row(NamedTuple):
    """One table row to solve.  With beta1 given, modcfg's mu is back-solved for
    it at solver.n_harmonics, once per distinct (op, beta1, omega_m) of a
    _solve_rows call, so rows at other orders share it.  refuse=False skips the
    dp refusal; only error-analysis's short truncation orders and the
    recursive row of each method pair pass it.  order_key is the config key
    that sets modcfg's order, which the refusal of a truncated row names."""

    name: str
    op: OperatingPoint
    modcfg: ModulationConfig
    beta1: float | None = None
    recursive: bool = False
    refuse: bool = True
    order_key: str = "solver.n_harmonics"


def _ops(cfg: RunConfig, op_filter: str | None) -> list[tuple[str, OperatingPoint]]:
    """The configured operating points, or only the one labelled ``op_filter``."""
    ops = []
    for label in list(cfg.op_xis) if op_filter is None else [op_filter]:
        params = device_at(cfg, label)  # its unknown-label error names the label already
        with _row(label):
            ops.append((label, derive_operating_point(params)))
    return ops


@contextmanager
def _row(name: str):
    """Prefix an error raised in the block with the table row it hit, keeping its class."""
    try:
        yield
    except StomodError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _solve_rows(cfg: RunConfig, rows: list[_Row]) -> list[FourierSolution]:
    """The solutions of a table's rows, in order.

    Each row runs under its name: if it gives beta1, take mu from the one
    back-solve of its (op, beta1, omega_m) in this call, made at the first row
    that names that target; solve by its method; then, if it asks, refuse a
    dp outside (floor, 1) by _refuse_large_dp (negative power, a truncation
    artifact below -1/2 at mu < 1, named by the row's order_key, or a steady
    state outside the reduced model raises NumericalError).  So the first
    failing row raises, named.  This is the one place the tables back-solve mu.
    """
    sols, mus = [], {}
    for row in rows:
        with _row(row.name):
            modcfg = row.modcfg
            if row.beta1 is not None:
                target = (row.op, row.beta1, modcfg.omega_m)
                if target not in mus:
                    mus[target] = solve_mu_for_beta1(*target, cfg.n_harmonics)
                modcfg = replace(modcfg, mu=mus[target])
            solve = solve_coefficients_recursive if row.recursive else solve_coefficients_matrix
            sols.append(solve(row.op, modcfg))
            if row.refuse:
                _refuse_large_dp(sols[-1], row.order_key)
    return sols


def _spectra(cfg: RunConfig, rows: list[_Row], sols: list[FourierSolution]) -> list[LineSpectrum]:
    """Line spectra of a table's solved rows from one kernel call; an error is
    prefixed with the name of the row it hit."""
    spectra = _line_spectra(sols, cfg.j_max, cfg.k_max)
    out = []
    for row in rows:
        with _row(row.name):
            out.append(next(spectra))
    return out


def _grid_spectra(cfg: RunConfig, ops, beta1_grid, f_m_grid):
    """``(label, beta1, f_m, sol, spec)`` over the (op, beta1, f_m) grid: the
    exact solution at the back-solved mu (``sol.modcfg.mu``) and its line spectrum."""
    points = [(label, op, b, f) for label, op in ops for b in beta1_grid for f in f_m_grid]
    rows = [
        _Row(f"{label} at beta1 = {beta1:g}, f_m = {f_m:g} Hz", op,
             ModulationConfig(0.0, TWO_PI * f_m, cfg.n_harmonics), beta1)
        for label, op, beta1, f_m in points
    ]
    sols = _solve_rows(cfg, rows)
    return [(label, beta1, f_m, sol, spec) for (label, _, beta1, f_m), sol, spec
            in zip(points, sols, _spectra(cfg, rows, sols))]


def operating_point_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Frequency dispersion and derived constants over the xi grid, or at the
    xi of the one operating point selected."""
    xis = cfg.dispersion_xi_grid if op_filter is None else [device_at(cfg, op_filter).xi]
    rows = []
    for xi in xis:
        with _row(f"xi = {xi:g}"):
            op = _operating_point(cfg.device(xi))
        rows.append((xi, op.omega_o / TWO_PI, op.omega_sto / TWO_PI, op.gamma_p / TWO_PI,
                     op.p0, op.c1, op.c2))
    header = ["xi", "f_o_hz", "f_sto_hz", "gamma_p_hz", "p0", "c1", "c2"]
    return {"operating_point": (header, rows)}


def psd_map_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Line spectra vs beta_1 at the fixed modulation frequency, for each
    operating point."""
    grid = _grid_spectra(cfg, _ops(cfg, op_filter), cfg.psd_beta1_grid, [cfg.psd_f_m_hz])
    rows = []
    for label, beta1, _, sol, spec in grid:
        mu, f_s = sol.modcfg.mu, carrier_shift(sol)
        rows.extend(
            (label, beta1, mu, int(k), float(p), f_s) for k, p in zip(spec.offsets, spec.powers)
        )
    header = ["op_label", "beta1", "mu", "k", "power", "f_s_hz"]
    return {"psd_map": (header, rows)}


def asymmetry_map_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Sideband power difference over the (beta_1, f_m) grid, plus the
    fixed-frequency slice."""
    ops = _ops(cfg, op_filter)
    header = ["op_label", "beta1", "f_m_hz", "delta", "p_upper", "p_lower", "p_carrier"]
    tables = {}
    for stem, f_m_grid in [("asymmetry_map", cfg.asym_f_m_grid_hz),
                           ("asymmetry_slice", [cfg.asym_slice_f_m_hz])]:
        grid = _grid_spectra(cfg, ops, cfg.asym_beta1_grid, f_m_grid)
        tables[stem] = (header, [
            (label, beta1, f_m, sideband_asymmetry(spec),
             spec.power_at(+1), spec.power_at(-1), spec.power_at(0))
            for label, beta1, f_m, _, spec in grid
        ])
    return tables


def bandwidth_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Peak frequency deviation vs f_m and the measured modulation bandwidth."""
    table = []
    for label, op in _ops(cfg, op_filter):
        mbw_ref = 2.0 * op.gamma_p / TWO_PI
        # Seeded at mu = 1e-4 and 2% of the 2*Gamma_p corner, deep in the flat band.
        seed = 0.02 * 2.0 * op.gamma_p
        with _row(f"{label} bandwidth search from f_m = {seed / TWO_PI:g} Hz"):
            mbw_meas = modulation_bandwidth(op, 1e-4, seed, cfg.n_harmonics)
        rows = [_Row(f"{label} at f_m = {f_m:g} Hz", op,
                     ModulationConfig(cfg.bw_mu, TWO_PI * f_m, cfg.n_harmonics))
                for f_m in cfg.bw_f_m_grid_hz]
        for f_m, row, sol in zip(cfg.bw_f_m_grid_hz, rows, _solve_rows(cfg, rows)):
            with _row(row.name):
                delta_f_inst = peak_frequency_deviation(sol, "instantaneous")
            delta_f_index = peak_frequency_deviation(sol, "index-based")
            table.append((label, f_m, delta_f_index, delta_f_inst, mbw_ref, mbw_meas))
    header = ["op_label", "f_m_hz", "delta_f_index_hz", "delta_f_inst_hz", "mbw_hz",
              "mbw_measured_hz"]
    return {"bandwidth": (header, table)}


def error_analysis_table(cfg: RunConfig, op_filter: str | None = None) -> TableMap:
    """Truncation error vs N and recursive-vs-matrix error vs beta_1 (OP2-like
    midpoint by default: the second configured label, else the first)."""
    ops = _ops(cfg, op_filter)
    label, op = ops[min(1, len(ops) - 1)]

    # Per f_m, the short orders and then their order-n_ref reference, which
    # alone is refused: a short order is truncated on purpose.
    orders, rows = [*cfg.err_n_values, cfg.err_n_ref], []
    for f_m in cfg.err_f_m_grid_hz:
        modcfg = ModulationConfig(mu=cfg.err_mu, omega_m=TWO_PI * f_m, n_harmonics=cfg.err_n_ref)
        name = f"{label} at f_m = {f_m:g} Hz"
        rows += [_Row(name, op, replace(modcfg, n_harmonics=n), refuse=False)
                 for n in cfg.err_n_values]
        rows.append(_Row(f"{name}, n = {cfg.err_n_ref}", op, modcfg,
                         order_key="error-analysis.n_ref"))
    sols, trunc_rows = _solve_rows(cfg, rows), []
    for i, f_m in enumerate(cfg.err_f_m_grid_hz):
        group = sols[i * len(orders) : (i + 1) * len(orders)]
        trunc_rows += [(label, f_m, n, _distance_percent(sol.x, group[-1].x))
                       for n, sol in zip(orders, group)]

    omega_m = TWO_PI * cfg.err_recursive_f_m_hz
    keys = [(n, beta1) for n in cfg.err_recursive_n_values
            for beta1 in cfg.err_recursive_beta1_grid]
    # The matrix and recursive solutions of each key as adjacent rows, at the mu
    # of beta_1 (back-solved at solver.n_harmonics, whatever N); only the matrix
    # one is refused.
    rows = []
    for n, beta1 in keys:
        modcfg, name = ModulationConfig(0.0, omega_m, n), f"{label} at beta1 = {beta1:g}, n = {n}"
        rows += [_Row(name, op, modcfg, beta1, order_key="error-analysis.recursive_n_values"),
                 _Row(name, op, modcfg, beta1, recursive=True, refuse=False)]
    sols = _solve_rows(cfg, rows)
    spectra, rec_rows = _spectra(cfg, rows, sols), []
    for (n, beta1), mat, rec, spec_mat, spec_rec in zip(
        keys, sols[::2], sols[1::2], spectra[::2], spectra[1::2]
    ):
        p_mat, p_rec = spec_mat.power_at(+1), spec_rec.power_at(+1)
        sb_err = 100.0 * abs(p_rec - p_mat) / p_mat if p_mat > 0.0 else 0.0
        rec_rows.append((label, cfg.err_recursive_f_m_hz, n, beta1,
                         _distance_percent(rec.x, mat.x), sb_err))
    rec_header = ["op_label", "f_m_hz", "n", "beta1", "coeff_error_percent",
                  "sideband_error_percent"]
    return {
        "error_truncation": (["op_label", "f_m_hz", "n", "error_percent"], trunc_rows),
        "error_recursive": (rec_header, rec_rows),
    }
