"""Tests of the benchmark itself: the tracer, the seeded inputs and the
percentile rule, plus the traced default asymmetry map's work counts."""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_default_asymmetry_map_counts():
    """The default map (3 OPs x 5 beta1 x (7 + 1) f_m = 120 points) takes one
    back-solve per point and, with the final solves, 8,738 dense solves."""
    import stomod.sweeps
    from stomod.config import load_config

    original = stomod.sweeps.asymmetry_map_table
    tracer = Tracer()
    tracer.install()
    try:
        tracer.on = True
        stomod.sweeps.asymmetry_map_table(load_config())
    finally:
        tracer.uninstall()
    assert stomod.sweeps.asymmetry_map_table is original
    calls = {name: n for name, (n, _) in tracer.summary().items()}
    assert calls["spectrum.solve_mu_for_beta1"] == 120
    assert calls["fourier.solve_coefficients_matrix"] == 8738
    assert tracer.counters["sweeps.grid_points"] == 120


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.add("outer", 0.0, 10.0)
    tracer.add("outer", 20.0, 21.0)
    child = Tracer()
    child.add("inner", 1.0, 4.0)
    tracer.extend(child)
    tracer.parent[2] = 0  # make "inner" a child of the first "outer"
    assert tracer.summary() == {"outer": (2, 8.0), "inner": (1, 3.0)}
    assert tracer.summary(since=1, until=2) == {"outer": (1, 1.0)}
    assert tracer.child_calls("outer", "inner") == 1


def test_seeded_inputs_repeat_and_stay_in_range():
    for wl in workloads.IN_PROCESS.values():
        a, b = wl.setup(7), wl.setup(7)
        assert repr(a) == repr(b), wl.name
        assert repr(a) != repr(wl.setup(8)), wl.name
    for cfg in workloads.IN_PROCESS["asym-sweep"].setup(7):
        for grid, (lo, hi) in ((cfg.asym_beta1_grid, workloads.BETA1_BOX),
                               (cfg.asym_f_m_grid_hz, workloads.F_M_BOX_HZ)):
            assert grid == sorted(grid) and lo < grid[0] and grid[-1] < hi


def test_strata_cover_the_range_in_order():
    values = workloads.strata(random.Random(1), 20e6, 400e6, 10, log=True)
    assert values == sorted(values) and 20e6 < values[0] and values[-1] < 400e6


def test_tail_percentile_leaves_ten_samples_beyond():
    for p in (50, 75, 95, 99):
        n = run.min_samples(p)
        assert run.percentile([float(i) for i in range(n)], p)[1] == 10
        assert run.percentile([float(i) for i in range(n - 1)], p)[1] < 10


def test_speed_factor_scales_by_the_brackets(monkeypatch):
    """Work is scaled by reference / (mean of the kernel samples around it);
    a sample taken just before the work is reused as its first bracket."""
    clock = iter([
        0.0, 0.02,    # first sample: 20 ms
        0.021,        # before(2): the last sample is fresh, so one more
        0.03, 0.07,   # second sample: 40 ms
        1.07, 1.10,   # factor(2): 30 ms
        1.10, 1.12,   # 20 ms
        5.0,          # before(): stale after 3.9 s, so a new sample
        5.0, 5.01,    # 10 ms
    ])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    gauge = speed.Speed(lambda: None, reference_s=0.025)
    gauge.before(2)
    assert abs(gauge.factor(2) - 0.025 / 0.0275) < 1e-12  # mean of 20, 40, 30, 20 ms
    gauge.before()
    assert len(gauge.samples) == 5
