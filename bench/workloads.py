"""The benchmark's seeded workloads: inputs, one op each, and its check.

The seed only generates inputs (grid values and case parameters); stomod
receives them as ``--set`` overrides or as its own dataclasses and is driven
only through public functions.  Each in-process workload's ``setup`` does
its own ``import stomod`` so a fresh process can time import plus set-up.
A check returns None when the op's output is correct, else the reason.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi

# The default asymmetry map's reachable box: every (beta1, f_m) inside it
# is reachable with mu <= 0.5 on all three operating points.
BETA1_BOX = (0.25, 1.25)
F_M_BOX_HZ = (40e6, 160e6)


def strata(rng: random.Random, lo: float, hi: float, n: int, log: bool = False) -> list[float]:
    """One sorted value per equal-width stratum of [lo, hi].

    Values stay in the central 80% of their stratum, so neighbours are at
    least a fifth of a stratum apart and every draw covers the whole range.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / n
    out = [a + width * (i + 0.1 + 0.8 * rng.random()) for i in range(n)]
    return [math.exp(v) for v in out] if log else out


def _operating_points():
    import stomod
    from stomod.config import device_at, load_config

    cfg = load_config()
    return {label: stomod.derive_operating_point(device_at(cfg, label)) for label in cfg.op_xis}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class AsymSweep:
    """`sweeps.asymmetry_map_table` on seeded 4x4 (beta1, f_m) grids."""

    name = "asym-sweep"
    tail_percentile = 75
    n_beta1 = 4
    n_f_m = 4
    # Five grids: at the 40 samples the p75 tail needs, it falls inside one
    # grid's share of the samples rather than at the edge between two.
    n_grids = 5

    def setup(self, seed: int) -> list:
        from stomod.config import load_config

        rng = random.Random(seed)
        cases = []
        for _ in range(self.n_grids):
            beta1 = strata(rng, *BETA1_BOX, self.n_beta1)
            f_m = strata(rng, *F_M_BOX_HZ, self.n_f_m)
            slice_f_m = rng.uniform(*F_M_BOX_HZ)
            cases.append(load_config(None, [
                "asymmetry-map.beta1_grid=" + ",".join(map(repr, beta1)),
                "asymmetry-map.f_m_grid_hz=" + ",".join(map(repr, f_m)),
                f"asymmetry-map.slice_f_m_hz={slice_f_m!r}",
            ]))
        return cases

    def input_size(self, cases) -> str:
        cfg = cases[0]
        n_ops = len(cfg.op_xis)
        points = n_ops * len(cfg.asym_beta1_grid) * (len(cfg.asym_f_m_grid_hz) + 1)
        return (f"{len(cases)} grids of {self.n_beta1}x{self.n_f_m} (beta1, f_m) plus a "
                f"{self.n_beta1}-point slice on {n_ops} OPs: {points} points per op")

    def op(self, cfg):
        import stomod.sweeps

        return stomod.sweeps.asymmetry_map_table(cfg)

    def check(self, cfg, tables) -> str | None:
        """Criterion 10: Delta finite, >= 0 and monotone in beta1 and f_m."""
        n_ops, n_b = len(cfg.op_xis), len(cfg.asym_beta1_grid)
        _, grid = tables["asymmetry_map"]
        _, cut = tables["asymmetry_slice"]
        if len(grid) != n_ops * n_b * len(cfg.asym_f_m_grid_hz) or len(cut) != n_ops * n_b:
            return f"row counts {len(grid)}/{len(cut)} do not match the grid"
        for row in grid + cut:
            if not _finite(*row[1:]) or row[3] < 0.0:
                return f"Delta not finite and >= 0 at {row[:3]}"
        delta = {(r[0], r[1], r[2]): r[3] for r in grid}
        bs, fs = cfg.asym_beta1_grid, cfg.asym_f_m_grid_hz
        for label in cfg.op_xis:
            for f in fs:
                for lo, hi in zip(bs, bs[1:]):
                    if delta[(label, hi, f)] < delta[(label, lo, f)]:
                        return f"Delta falls with beta1 on {label} at f_m={f:.4g}"
            for b in bs:
                for lo, hi in zip(fs, fs[1:]):
                    if delta[(label, b, hi)] < delta[(label, b, lo)]:
                        return f"Delta falls with f_m on {label} at beta1={b:.4g}"
        return None


class SpectrumXcheck:
    """Analytic vs FFT line spectrum and both peak-deviation methods."""

    name = "spectrum-xcheck"
    # p95 and p99 lie above every case's median cost, in the machine's
    # jitter (p99 spread 16% over five seeds); p90 falls inside the N = 20
    # cases' mode.
    tail_percentile = 90
    j_max = 16  # defaults are 10 and 40
    k_max = 64
    f_m_strata = 10
    # Three N = 20 cases in ten per OP keep the median and the tail each
    # inside one mode of the two-valued cost.
    n_harmonics = (10,) * 7 + (20,) * 3

    def setup(self, seed: int) -> list:
        import stomod

        rng = random.Random(seed)
        cases = []
        for op in _operating_points().values():
            ns = list(self.n_harmonics)
            rng.shuffle(ns)
            for f_m, n in zip(strata(rng, 20e6, 400e6, self.f_m_strata, log=True), ns):
                mu = math.exp(rng.uniform(math.log(0.005), math.log(0.05)))
                cases.append((op, stomod.ModulationConfig(mu=mu, omega_m=TWO_PI * f_m,
                                                          n_harmonics=n)))
        return cases

    def input_size(self, cases) -> str:
        return (f"{len(cases)} cases (3 OPs x {self.f_m_strata} f_m in [20, 400] MHz, "
                f"mu in [0.005, 0.05], N in {{10, 20}}), j_max={self.j_max}, k_max={self.k_max}")

    def op(self, case):
        import stomod

        op, modcfg = case
        sol = stomod.solve_coefficients_matrix(op, modcfg)
        analytic = stomod.psd_analytic(sol, j_max=self.j_max, k_max=self.k_max)
        fft = stomod.psd_fft(stomod.synthesize_time_trace(sol), sol, k_max=self.k_max)
        index = stomod.peak_frequency_deviation(sol, "index-based")
        inst = stomod.peak_frequency_deviation(sol, "instantaneous")
        return analytic, fft, index, inst

    def check(self, case, out) -> str | None:
        """Criteria 07 (lines within 1%) and 09 (deviations within 1%)."""
        analytic, fft, index, inst = out
        if not _finite(index, inst, *analytic.powers, *fft.powers):
            return "non-finite spectrum or deviation"
        for k in (*range(1, 6), *range(-5, 0)):
            ref = analytic.power_at(k)
            if ref > 1e-15 and not abs(fft.power_at(k) - ref) <= 0.01 * ref:
                return f"line {k}: FFT {fft.power_at(k):.6e} vs analytic {ref:.6e}"
        if not abs(inst - index) <= 0.01 * index:
            return f"peak deviation {inst:.6e} (instantaneous) vs {index:.6e} (index)"
        return None


class OracleValidate:
    """Harmonic-balance solve checked against the RK4 oracle."""

    name = "oracle-validate"
    tail_percentile = 95
    # 30 cases: the p95 tail falls mid-way through the share of samples of
    # one case rather than at the edge between two.
    f_m_strata = 10
    samples_per_period = 512

    def setup(self, seed: int) -> list:
        import stomod

        rng = random.Random(seed)
        cases = []
        for op in _operating_points().values():
            for f_m in strata(rng, *F_M_BOX_HZ, self.f_m_strata):
                mu = math.exp(rng.uniform(math.log(0.005), math.log(0.05)))
                modcfg = stomod.ModulationConfig(mu=mu, omega_m=TWO_PI * f_m, n_harmonics=10)
                icfg = stomod.IntegrationConfig.for_steady_state(
                    op, modcfg, samples_per_period=self.samples_per_period)
                cases.append((op, modcfg, icfg))
        return cases

    def input_size(self, cases) -> str:
        steps = sum(round(icfg.t_end / icfg.dt) for _, _, icfg in cases)
        return (f"{len(cases)} cases (3 OPs x {self.f_m_strata} f_m in [40, 160] MHz, "
                f"mu in [0.005, 0.05], N = 10), {self.samples_per_period} samples/period, "
                f"{steps} RK4 steps per pass")

    def op(self, case):
        import stomod

        op, modcfg, icfg = case
        sol = stomod.solve_coefficients_matrix(op, modcfg)
        trace = stomod.integrate_reduced(op, modcfg, icfg)
        proj = stomod.project_harmonics(trace, modcfg, modcfg.n_harmonics, op)
        return sol, trace, proj

    def check(self, case, out) -> str | None:
        """Criterion 01: coefficient error and one-period relative L2 < 1e-6."""
        import numpy as np
        import stomod

        sol, trace, proj = out
        spp = self.samples_per_period
        model = stomod.synthesize_time_trace(sol, samples_per_period=spp, n_periods=8)
        diff = trace.delta_p[:spp] - model.delta_p[:spp]
        rel_l2 = float(np.linalg.norm(diff) / np.linalg.norm(model.delta_p[:spp]))
        coeff_err = max(abs(proj.a0 - sol.a0), float(np.max(np.abs(proj.a - sol.a))),
                        float(np.max(np.abs(proj.b - sol.b))))
        if not (rel_l2 < 1e-6 and coeff_err < 1e-6):
            return f"oracle mismatch: rel L2 {rel_l2:.3e}, coefficient error {coeff_err:.3e}"
        return None


IN_PROCESS = {w.name: w for w in (AsymSweep(), SpectrumXcheck(), OracleValidate())}

# cli-cold: each command with the stems of the CSV tables it must write.
CLI_COMMANDS = {
    "operating-point": ("operating_point",),
    "psd-map": ("psd_map",),
    "asymmetry-map": ("asymmetry_map", "asymmetry_slice"),
    "bandwidth": ("bandwidth",),
    "error-analysis": ("error_truncation", "error_recursive"),
}
# Rounds at least: each command's median wall is over four or more.
CLI_MIN_ROUNDS = 4


def cli_setup() -> None:
    """What every CLI process sets up before its command's work."""
    import stomod.cli  # noqa: F401  (the CLI entry point every command imports)
    from stomod.config import load_config

    load_config()


def check_csv(data: bytes) -> str | None:
    """A table has a header, at least one row, and only finite numbers."""
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    if len(lines) < 2:
        return "table has no rows"
    width = len(lines[0].split(","))
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            return f"ragged row {line!r}"
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                continue  # labels such as OP1
            if not math.isfinite(value):
                return f"non-finite value in row {line!r}"
    return None
