#!/usr/bin/env python3
"""stomod benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads:

    cli-cold         the five CLI commands, each in a fresh process, in rounds
    asym-sweep       sweeps.asymmetry_map_table on seeded (beta1, f_m) grids
    spectrum-xcheck  analytic vs FFT spectrum and both peak-deviation methods
    oracle-validate  harmonic-balance solve checked against the RK4 oracle

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1 splits
the time in two: untraced ops, then traced ops whose spans give the
per-layer metrics (and the tracing overhead); spans are written to
.bench_out/spans-NAME.npz.  Times are scaled to a reference machine speed
by the fixed kernels of speed.py.  Every op is checked against the acceptance
gate's tolerances; a raise, a non-zero exit, a non-finite value or a failed
check counts the op as failed.  The last stdout line is the JSON result; the
line before it records the machine, the environment, the seed, sample
counts and failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# One BLAS thread in this process and every child: stomod's systems are at
# most 41x41, and a thread pool per cold process only adds start-up work and
# run-to-run spread.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path[:0] = [str(BENCH), str(SRC)]

import workloads  # noqa: E402
from speed import (FRESH_REFERENCE_S, WARM_REFERENCE_S, Speed,  # noqa: E402
                   fresh_process, warm_kernel)
from tracer import LAYERS, Tracer, layer_of  # noqa: E402

WORKLOADS = ("cli-cold", *workloads.IN_PROCESS)
SETUP_PROCESSES = 9  # fresh processes per run timed for setup_s / import
BLOCK_S = 0.1  # in-process ops timed between two speed samples
# Fresh-process speed samples on each side of a fresh process: the
# machine's speed can change while one runs, and two steady the factor.
COLD_BRACKET = 2

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

PER_OP_CALLS = (
    "fourier.solve_coefficients_matrix",
    "fourier.solve_coefficients_recursive",
    "spectrum.solve_mu_for_beta1",
    "spectrum.first_harmonic_index",
    "spectrum.psd_analytic",
    "spectrum.jv",
    "oracle.integrate_reduced",
)
PER_OP_SELF = (
    "fourier.solve_coefficients_matrix",
    "fourier.solve_coefficients_recursive",
    "spectrum.solve_mu_for_beta1",
    "spectrum.psd_analytic",
    "spectrum.jv",
    "spectrum.synthesize_time_trace",
    "spectrum.psd_fft",
    "spectrum.peak_frequency_deviation",
    "oracle.integrate_reduced",
    "sweeps.asymmetry_map_table",
    "cli.write_csv",
)


def percentile(values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    idx = max(0, -(-p * len(ordered) // 100) - 1)
    return ordered[idx], len(ordered) - 1 - idx


def min_samples(p: int) -> int:
    """Fewest samples that leave ten beyond the p-th percentile."""
    return -(-1000 // (100 - p))


def spawn(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=170)
    return perf_counter() - t0, proc


def child(args: list[str]) -> tuple[float, dict | None, str | None]:
    """Run bench/child.py; (wall seconds, its JSON result, error)."""
    wall, proc = spawn([str(BENCH / "child.py"), *args])
    if proc.returncode != 0:
        return wall, None, f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return wall, json.loads(proc.stdout.splitlines()[-1]), None


class Speeds(NamedTuple):
    """speed.py's two kernels: `warm` brackets in-process ops, `cold` fresh
    processes."""

    warm: Speed
    cold: Speed


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "stomod").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def pin_to_one_cpu() -> int | None:
    """Keep this process and the children it starts on one CPU, so the speed
    samples (speed.py) are taken on the CPU that runs the timed work; the
    two vCPUs of a shared machine can run at different speeds."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def threads_now() -> int | None:
    task = Path("/proc/self/task")
    return len(list(task.iterdir())) if task.is_dir() else None


# ---------------------------------------------------------------- in-process


def run_op(wl, case, tally: Tally, tracer: Tracer | None) -> tuple[float, int]:
    """One timed op and its check; (seconds, warnings raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            out = tracer.call("bench.op", wl.op, case) if tracer else wl.op(case)
            error = None
        except Exception as exc:  # any raise is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    if error is None:
        if tracer:
            tracer.on = False
        try:
            error = wl.check(case, out)
        except Exception as exc:  # a check that cannot read the output fails it
            error = f"check raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.on = True
    tally.add(error)
    return elapsed, len(caught)


def op_loop(wl, cases, seconds: float, tally: Tally, speeds: Speeds, min_ops: int = 1,
            tracer: Tracer | None = None,
            clock: RunClock | None = None) -> tuple[list[float], int]:
    """Cycle through the cases until `seconds` and `min_ops` are both met;
    a traced loop also ends on a whole pass, so per-op counts repeat.
    Latencies are scaled to the reference speed a block of ops at a time."""
    latencies, block, warned = [], [], 0
    speed = speeds.warm
    clock = clock or RunClock(seconds, tally, speeds.cold)
    while True:
        done = len(latencies) + len(block)
        if (clock.elapsed() >= seconds and done >= min_ops
                and (tracer is None or done % len(cases) == 0)):
            break
        if block and (sum(block) >= BLOCK_S or clock.is_due()):
            factor = speed.factor()
            latencies += [factor * t for t in block]
            block = []
        clock.poll()
        if not block:
            speed.before()
        elapsed, n_warn = run_op(wl, cases[done % len(cases)], tally, tracer)
        block.append(elapsed)
        warned += n_warn
    if block:
        factor = speed.factor()
        latencies += [factor * t for t in block]
    clock.poll(finish=True)
    return latencies, warned


def import_stomod():
    import stomod
    import stomod.config
    import stomod.sweeps  # noqa: F401  (every layer but the CLI)

    if Path(stomod.__file__).resolve().parent != SRC / "stomod":
        raise SystemExit(f"stomod was imported from {stomod.__file__}, not from {SRC}")


class RunClock:
    """A run's clock, which also spreads `count` fresh-process set-up
    samples (bench/child.py ARGS) evenly over the run, so drifts in machine
    speed reach them as they reach the ops.  `elapsed` leaves out the time
    spent in those processes.  Samples are scaled to the reference speed;
    the raw ones are kept for the info line."""

    def __init__(self, seconds: float, tally: Tally, speed: Speed,
                 args: list[str] | None = None, count: int = 0,
                 with_op: bool = False) -> None:
        self.args, self.tally, self.speed, self.with_op = args, tally, speed, with_op
        self.due = [seconds * (i + 0.5) / count for i in range(count)]
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.raw_setups: list[float] = []
        self.start = perf_counter()
        self.spent = 0.0
        if count:
            self.spent = child(["import"])[0]  # warm the file cache

    def elapsed(self) -> float:
        return perf_counter() - self.start - self.spent

    def is_due(self) -> bool:
        return bool(self.due) and self.elapsed() >= self.due[0]

    def poll(self, finish: bool = False) -> None:
        """Take the samples now due (all that are left, when finishing)."""
        while self.due and (finish or self.is_due()):
            self.due.pop(0)
            t0 = perf_counter()
            self.speed.before(COLD_BRACKET)
            wall, result, error = child(self.args)
            factor = self.speed.factor(COLD_BRACKET)
            self.spent += perf_counter() - t0
            if result is not None:
                error = result["error"]
                self.setups.append(factor * result["setup_s"])
                self.walls.append(factor * wall)
                self.raw_setups.append(result["setup_s"])
            if self.with_op or error:
                self.tally.add(error)


def end_to_end_inprocess(wl, seed: int, seconds: float, tally: Tally, info: dict,
                         speeds: Speeds) -> dict:
    import_stomod()
    cases = wl.setup(seed)
    cold = RunClock(seconds, tally, speeds.cold, ["setup", wl.name, str(seed)],
                    SETUP_PROCESSES, with_op=True)
    latencies, warned = op_loop(wl, cases, seconds, tally, speeds,
                                min_samples(wl.tail_percentile), clock=cold)
    info.update(input_size=wl.input_size(cases), setup_processes=len(cold.setups),
                validity_warnings=warned,
                cold_total="fresh process: import, set-up and the first op")
    info["raw"] = {"setup_s": statistics.median(cold.raw_setups)}
    return {
        "setup_s": (statistics.median(cold.setups), "s"),
        "cold_total_s": (statistics.median(cold.walls), "s"),
        **latency_metrics(latencies, wl.tail_percentile, info),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def latency_metrics(latencies: list[float], p: int, info: dict) -> dict:
    tail, beyond = percentile(latencies, p)
    info.update(samples=len(latencies), tail_percentile=p, tail_samples_beyond=beyond)
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * percentile(latencies, 50)[0], "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
    }


def traced_inprocess(wl, seed: int, seconds: float, tally: Tally, info: dict,
                     speeds: Speeds) -> dict:
    metrics = import_metrics(tally, speeds.cold)
    import_stomod()
    tracer = Tracer()
    tracer.install()
    tracer.on = True
    cases = wl.setup(seed)
    tracer.uninstall()
    setup_spans = len(tracer.start)
    plain, _ = op_loop(wl, cases, seconds / 2, tally, speeds)
    tracer.install()
    tracer.on = True
    first_traced_sample = len(speeds.warm.samples)
    traced, warned = op_loop(wl, cases, seconds / 2, tally, speeds, tracer=tracer)
    tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.npz")
    ops = tracer.summary(since=setup_spans)
    factor = speeds.warm.median_factor(first_traced_sample)
    metrics.update(layer_metrics(
        ops, tracer, len(traced), factor * sum(s for _, s in ops.values()),
        config=tracer.summary(until=setup_spans).get("config.load_config", (0, 0.0)),
        factor=factor))
    metrics["model.validity_warnings"] = (warned / len(traced), "warnings/op")
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(traced) / statistics.fmean(plain), "ratio")
    info.update(input_size=wl.input_size(cases), traced_ops=len(traced), untraced_ops=len(plain))
    return metrics


# ------------------------------------------------------------------ cli-cold


def cli_round(order: list[str], tally: Tally, speed: Speed, reference: dict, traced: bool,
              spans: list[Path]) -> tuple[list[tuple[str, float]], int]:
    """Each command once, cold, into its own temporary directory; walls at
    the reference speed."""
    walls, warned = [], 0
    for command in order:
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        if traced:
            span_file = out.with_suffix(".npz")
            spans.append(span_file)
            args = [str(BENCH / "child.py"), "cli", command, str(out), str(span_file)]
        else:
            args = ["-m", "stomod.cli", command, "--out", str(out)]
        speed.before(COLD_BRACKET)
        wall, proc = spawn(args)
        wall *= speed.factor(COLD_BRACKET)
        warned += sum("Warning:" in line for line in proc.stderr.splitlines())
        tally.add(check_cli_output(command, proc, out, reference))
        shutil.rmtree(out)
        walls.append((command, wall))
    return walls, warned


def check_cli_output(command: str, proc, out: Path, reference: dict) -> str | None:
    """Exit 0, every expected table present and finite, bytes as in round one."""
    if proc.returncode != 0:
        return f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    for stem in workloads.CLI_COMMANDS[command]:
        path = out / f"{stem}.csv"
        if not path.is_file():
            return f"{command} did not write {path.name}"
        data = path.read_bytes()
        error = workloads.check_csv(data)
        if error:
            return f"{command} {path.name}: {error}"
        if reference.setdefault(path.name, data) != data:
            return f"{command} {path.name} differs from the first round"
    return None


def cli_rounds(rng: random.Random, seconds: float, min_rounds: int, tally: Tally,
               speed: Speed, reference: dict, traced: bool = False,
               spans: list | None = None, clock: RunClock | None = None):
    rounds, warned = [], 0
    clock = clock or RunClock(seconds, tally, speed)
    while clock.elapsed() < seconds or len(rounds) < min_rounds:
        clock.poll()
        order = list(workloads.CLI_COMMANDS)
        rng.shuffle(order)
        walls, n_warn = cli_round(order, tally, speed, reference, traced, spans)
        rounds.append(walls)
        warned += n_warn
    clock.poll(finish=True)
    return rounds, warned


def command_medians(rounds: list) -> dict[str, float]:
    """Each command's median cold wall over the rounds."""
    return {command: statistics.median(w for r in rounds for c, w in r if c == command)
            for command in workloads.CLI_COMMANDS}


def end_to_end_cli(seed: int, seconds: float, tally: Tally, info: dict,
                   speeds: Speeds) -> dict:
    OUT.mkdir(exist_ok=True)
    cold = RunClock(seconds, tally, speeds.cold, ["setup", "cli-cold", str(seed)],
                    SETUP_PROCESSES)
    rounds, warned = cli_rounds(random.Random(seed), seconds, workloads.CLI_MIN_ROUNDS, tally,
                                speeds.cold, {}, clock=cold)
    info.update(input_size="default config, 5 commands per round, order shuffled by the seed",
                rounds=len(rounds), setup_processes=len(cold.setups),
                validity_warnings=warned,
                cold_total="one round of all five commands: the sum of their median walls")
    info["raw"] = {"setup_s": statistics.median(cold.raw_setups)}
    medians = command_medians(rounds)
    walls = [w for r in rounds for _, w in r]
    # At 20 walls the highest percentile with ten samples beyond is p50.
    info.update(samples=len(walls), tail_percentile=50,
                op_p50="median of the five commands' median walls")
    return {
        "setup_s": (statistics.median(cold.setups), "s"),
        "cold_total_s": (sum(medians.values()), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(medians.values()), "ms"),
        "op_tail_ms": (1e3 * statistics.median(medians.values()), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }


def traced_cli(seed: int, seconds: float, tally: Tally, info: dict, speeds: Speeds) -> dict:
    OUT.mkdir(exist_ok=True)
    speed = speeds.cold
    metrics = import_metrics(tally, speed)
    rng, reference, spans = random.Random(seed), {}, []
    plain, _ = cli_rounds(rng, seconds / 2, 2, tally, speed, reference)
    first_traced_sample = len(speed.samples)
    traced, warned = cli_rounds(rng, seconds / 2, 1, tally, speed, reference, True, spans)
    tracer = Tracer()
    for path in spans:
        tracer.extend(Tracer.load(path))
        path.unlink()
    tracer.save(OUT / "spans-cli-cold.npz")
    summary = tracer.summary()
    # Shares are of the untraced round wall, i.e. of cold_total_s; "other"
    # is then interpreter start-up and exit, less the tracing overhead.
    cold_round = statistics.fmean(sum(w for _, w in r) for r in plain)
    metrics.update(layer_metrics(
        summary, tracer, len(traced), cold_round * len(traced),
        config=summary.get("config.load_config", (0, 0.0)),
        factor=speed.median_factor(first_traced_sample)))
    for command, wall in command_medians(plain).items():
        metrics[f"cli.{command}.cold_s"] = (wall, "s")
    metrics["model.validity_warnings"] = (warned / len(traced), "warnings/op")
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(sum(w for _, w in r) for r in traced) / cold_round, "ratio")
    info.update(input_size="default config, 5 commands per round; op = one round",
                traced_rounds=len(traced), untraced_rounds=len(plain))
    return metrics


# ------------------------------------------------------------------ layers


def import_metrics(tally: Tally, speed: Speed) -> dict:
    child(["import"])  # warm the file cache; not timed
    times, loaded = [], []
    for _ in range(SETUP_PROCESSES):
        speed.before(COLD_BRACKET)
        _, result, error = child(["import"])
        factor = speed.factor(COLD_BRACKET)
        if error:
            tally.add(error)
        else:
            times.append(factor * result["import_s"])
            loaded.append(result["modules_loaded"])
    return {
        "import.stomod_cli_s": (statistics.median(times), "s"),
        "import.modules_loaded": (statistics.median(loaded), "count"),
    }


def layer_metrics(summary: dict, tracer: Tracer, n_ops: int, total_s: float,
                  config: tuple[int, float], factor: float) -> dict:
    """Per-op counts and self times, and each layer's share of `total_s`
    (already at the reference speed).  Span times are scaled by `factor`,
    the traced stretch's median speed factor."""
    summary = {name: (calls, factor * s) for name, (calls, s) in summary.items()}
    metrics = {}
    for name in PER_OP_CALLS:
        metrics[f"{name}.calls"] = (summary.get(name, (0, 0.0))[0] / n_ops, "calls/op")
    for name in PER_OP_SELF:
        metrics[f"{name}.self_s"] = (summary.get(name, (0, 0.0))[1] / n_ops, "s/op")
    calls, self_s = config
    metrics["config.load_config.self_s"] = (factor * self_s / calls if calls else 0.0, "s")
    mu_calls = summary.get("spectrum.solve_mu_for_beta1", (0, 0.0))[0]
    inner = tracer.child_calls("spectrum.solve_mu_for_beta1", "spectrum.first_harmonic_index")
    metrics["spectrum.backsolve_solves_per_call"] = (
        inner / mu_calls if mu_calls else 0.0, "solves/call")
    steps = tracer.counters["oracle.rk4_steps"]
    rk4_s = summary.get("oracle.integrate_reduced", (0, 0.0))[1]
    metrics["oracle.rk4_steps"] = (steps / n_ops, "steps/op")
    metrics["oracle.rk4_steps_per_s"] = (steps / rk4_s if rk4_s else 0.0, "steps/s")
    metrics["sweeps.grid_points"] = (tracer.counters["sweeps.grid_points"] / n_ops, "points/op")
    metrics["cli.rows_written"] = (tracer.counters["cli.rows_written"] / n_ops, "rows/op")
    metrics["cli.bytes_written"] = (tracer.counters["cli.bytes_written"] / n_ops, "bytes/op")
    for command in workloads.CLI_COMMANDS:
        metrics[f"cli.{command}.cold_s"] = (0.0, "s")
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, (_, seconds) in summary.items():
        shares[layer_of(name)] += seconds / total_s
    shares["other"] = 1.0 - sum(v for k, v in shares.items() if k != "other")
    for layer, share in shares.items():
        metrics[f"split.{layer}"] = (share, "ratio")
    return metrics


# ------------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stomod" / "__init__.py").is_file():
        print(f"error: no stomod sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    info: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(args.seed)}
    info["environment"]["pinned_cpu"] = pin_to_one_cpu()
    tally = Tally()
    speeds = Speeds(Speed(warm_kernel, WARM_REFERENCE_S),
                    Speed(fresh_process, FRESH_REFERENCE_S))
    wl = workloads.IN_PROCESS.get(args.workload)
    if wl is None:
        run = traced_cli if args.trace else end_to_end_cli
        metrics = run(args.seed, args.seconds, tally, info, speeds)
    else:
        run = traced_inprocess if args.trace else end_to_end_inprocess
        metrics = run(wl, args.seed, args.seconds, tally, info, speeds)
    info["environment"]["threads"] = threads_now()
    info["speed"] = {name: speed.summary() for name, speed in speeds._asdict().items()
                     if len(speed.samples) > 1}  # kernels used beyond start-up
    info.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
                fail_ratio={"value": tally.failed / tally.attempted, "unit": "ratio"})
    print(json.dumps({"bench": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
