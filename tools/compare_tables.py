#!/usr/bin/env python3
"""Compare the default tables of two checkouts of stomod, row by row.

    python tools/compare_tables.py BASE_DIR HEAD_DIR

Runs each of the five CLI commands with the default config in each checkout
(its own src/ on PYTHONPATH) and prints, for every table, "identical" or how
many data rows differ, then, for every command, whether its stderr (the
warning lines and their counts) is identical.  Then it runs a fixed list of
error and warning cases (CASES) on both sides and prints each case's exit
code and whether its stderr is identical.  It only reports: the exit status
is 1 if one of the five default commands fails on either side, and 0
otherwise, whatever the tables, warnings and cases hold.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("operating-point", "psd-map", "asymmetry-map", "bandwidth", "error-analysis")
RUN_CLI = "import sys; from stomod.cli import main; main(sys.argv[1:])"

# Runs that end in an error or a warning, each with --out added: the config
# errors (exit 2) and numerical errors (exit 3) and the warning runs of the CI
# install job, plus a bandwidth run at mu = 0.1915 with a row that the bound
# |A0| + sum|X_n| < 1 does not clear but whose sampled dp does (OP1 at 10 MHz,
# max dp 0.995), a beta_1 past the peak of beta_1(mu), a beta_1 whose
# steady state runs away to max dp = 55.9 (OP1 at 1 MHz), refused as outside
# the reduced model, and a truncated bandwidth row near threshold (xi = 1.01,
# 100 kHz, mu = 0.3) that dips to min dp = -0.683, below the -1/2 that a
# steady state at mu < 1 keeps above, and the same row as an error-analysis
# reference, whose refusal names error-analysis.n_ref.
# The two beta_1 back-solves at OP1, 1 MHz end in a fall of beta_1(mu) and in
# a row whose kept solution fails the residual check.  An operating-point
# label with a comma, which a CSV row cannot hold, is a config error.  A nu
# that overflows the carrier omega_o + nu*Gamma_p is a numerical error.  A
# config with two faults, a bad declared key and a below-threshold OP xi,
# shows which one the read order reports.  At a subnormal f_m the beta_1
# back-solve's crossing lies below the smallest float, and a mu of 0 is
# refused.
CASES = {
    "deep-spectrum": ("psd-map", "--set", "psd-map.beta1_grid=0.5",
                      "--set", "spectrum.k_max=1000000000000"),
    "wide-grid": ("psd-map", "--set", "psd-map.beta1_grid=lin:0:1:1000000000000"),
    "removed-key": ("psd-map", "--set", "solver.method=matrix"),
    "unknown-option": ("psd-map", "--format", "json"),
    "option-before-command": ("--foo", "psd-map"),
    "subnormal-harmonics": ("psd-map", "--op-label", "OP2", "--set", "psd-map.beta1_grid=1.0",
                            "--set", "solver.n_harmonics=300", "--set", "spectrum.k_max=600"),
    "bandwidth-negative-power": ("bandwidth", "--set", "bandwidth.mu=0.9",
                                 "--set", "bandwidth.f_m_grid_hz=1e6,2e6"),
    "error-analysis-negative-power": (
        "error-analysis", "--op-label", "OP1", "--set", "error-analysis.mu=0.9",
        "--set", "error-analysis.f_m_grid_hz=1e6,2e6", "--set", "error-analysis.n_values=5",
        "--set", "error-analysis.recursive_beta1_grid=0.5",
        "--set", "error-analysis.recursive_n_values=5"),
    "no-fm": ("bandwidth", "--set", "device.nu=0"),
    "mu-one": ("error-analysis", "--op-label", "OP2", "--set", "error-analysis.mu=1.0",
               "--set", "error-analysis.f_m_grid_hz=400e6",
               "--set", "error-analysis.n_values=1,2,3",
               "--set", "error-analysis.recursive_beta1_grid=0.5",
               "--set", "error-analysis.recursive_n_values=3"),
    "bandwidth-bound-not-cleared": ("bandwidth", "--set", "bandwidth.mu=0.1915",
                                    "--set", "bandwidth.f_m_grid_hz=1e7,1e8,1e9"),
    "runaway-beta1": ("psd-map", "--op-label", "OP1", "--set", "psd-map.f_m_hz=1e6",
                      "--set", "psd-map.beta1_grid=3e4"),
    "truncated-half": ("bandwidth", "--set", "operating-points.OP1=1.01", "--op-label", "OP1",
                       "--set", "bandwidth.mu=0.3", "--set", "bandwidth.f_m_grid_hz=1e5"),
    "truncated-reference": ("error-analysis", "--set", "operating-points.OP1=1.01",
                            "--op-label", "OP1", "--set", "error-analysis.mu=0.3",
                            "--set", "error-analysis.f_m_grid_hz=1e5",
                            "--set", "error-analysis.n_values=5", "--set", "error-analysis.n_ref=10",
                            "--set", "error-analysis.recursive_beta1_grid=0.5",
                            "--set", "error-analysis.recursive_n_values=5"),
    "unreachable-beta1": ("error-analysis",
                          "--set", "error-analysis.recursive_beta1_grid=0.5,1e9"),
    "falling-beta1": ("error-analysis", "--op-label", "OP1",
                      "--set", "error-analysis.recursive_f_m_hz=1e6",
                      "--set", "error-analysis.recursive_beta1_grid=1e6"),
    "breakdown-beta1": ("psd-map", "--op-label", "OP1", "--set", "psd-map.f_m_hz=1e6",
                        "--set", "psd-map.beta1_grid=1e9", "--set", "solver.n_harmonics=40",
                        "--set", "spectrum.k_max=40"),
    "csv-unsafe-label": ("psd-map", "--set", "operating-points.OP,X=1.5", "--op-label", "OP,X",
                         "--set", "psd-map.beta1_grid=0.5"),
    "nu-overflow": ("operating-point", "--set", "device.nu=1e300"),
    "two-faults": ("psd-map", "--set", "solver.n_harmonics=0",
                   "--set", "operating-points.OP1=0.5"),
    "subnormal-f_m": ("psd-map", "--op-label", "OP2", "--set", "psd-map.f_m_hz=1e-320",
                      "--set", "psd-map.beta1_grid=0.25"),
}


def run_commands(
    checkout: Path, out: Path
) -> tuple[dict[str, str], dict[str, tuple[int, str]], list[str]]:
    """Run every command of checkout, writing to out, then every case, each
    writing to its own directory beside out.  Return each command's stderr,
    each case's exit code and stderr, and the failures of the commands."""
    src = checkout.resolve() / "src"
    if not (src / "stomod").is_dir():  # an installed stomod would stand in for it
        return {}, {}, [f"{checkout}: no src/stomod"]
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(args, out_dir):
        return subprocess.run([sys.executable, "-c", RUN_CLI, *args, "--out", str(out_dir)],
                              env=env, cwd=out.parent, capture_output=True, text=True)

    stderr, failures = {}, []
    for command in COMMANDS:
        proc = run([command], out)
        stderr[command] = proc.stderr
        if proc.returncode != 0:
            failures.append(f"{checkout}: {command} exited {proc.returncode}\n{proc.stderr}")
    cases = {}
    for name, args in CASES.items():
        proc = run(args, out.parent / name)
        cases[name] = proc.returncode, proc.stderr
    return stderr, cases, failures


def _split(data: bytes) -> tuple[list[str], list[str]]:
    """Metadata ('#') lines and the column header, then the data rows."""
    lines = data.decode().splitlines()
    top = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines)) + 1
    return lines[:top], lines[top:]


def compare(base: Path, head: Path) -> str:
    """'identical', or how many data rows (and whether the header lines) differ."""
    if not base.exists() or not head.exists():
        return f"only in {'head' if head.exists() else 'base'}"
    a, b = base.read_bytes(), head.read_bytes()
    if a == b:
        return "identical"
    (top_a, rows_a), (top_b, rows_b) = _split(a), _split(b)
    note = "" if top_a == top_b else "; header lines differ"
    return _differ(rows_a, rows_b, "rows") + note


def compare_stderr(base: str, head: str) -> str:
    """'identical', or how many lines of a command's two stderr texts differ."""
    return "identical" if base == head else _differ(base.splitlines(), head.splitlines(), "lines")


def compare_case(base: tuple[int, str], head: tuple[int, str]) -> str:
    """A case's exit code, or both if they differ, and whether its stderr is identical."""
    (code_a, err_a), (code_b, err_b) = base, head
    code = f"exit {code_a}" if code_a == code_b else f"exit {code_a} on base, {code_b} on head"
    return f"{code}, stderr {compare_stderr(err_a, err_b)}"


def _differ(a: list[str], b: list[str], unit: str) -> str:
    """How many of the lines a and b differ, position by position."""
    differ = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return f"{differ} of {max(len(a), len(b))} {unit} differ"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_tables.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    checkouts = [Path(p) for p in argv]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp, side, "out") for side in ("base", "head")]
        stderrs, cases, failures = [], [], []
        for checkout, out in zip(checkouts, outs):
            out.parent.mkdir()
            stderr, case, failed = run_commands(checkout, out)
            stderrs.append(stderr)
            cases.append(case)
            failures += failed
        stems = sorted({p.name for out in outs if out.is_dir() for p in out.glob("*.csv")})
        for stem in stems:
            print(f"{stem}: {compare(outs[0] / stem, outs[1] / stem)}")
    for command in COMMANDS:
        if all(command in stderr for stderr in stderrs):
            print(f"{command} stderr: {compare_stderr(*(s[command] for s in stderrs))}")
    for name in CASES:
        if all(name in case for case in cases):
            print(f"case {name}: {compare_case(*(c[name] for c in cases))}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
