#!/usr/bin/env python3
"""The CLI's error and warning cases, each with the outcome it must have.

`python tools/cli_cases.py` prints the path of the stomod on PATH, then checks
each case against it, one line each ("ok" or what failed), and exits 1 if one
fails.  tests/test_cli.py checks each in-process; compare_tables.py runs them.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

TABLES = {"operating-point": ["operating_point"], "psd-map": ["psd_map"],
          "asymmetry-map": ["asymmetry_map", "asymmetry_slice"], "bandwidth": ["bandwidth"],
          "error-analysis": ["error_truncation", "error_recursive"]}


class Case(NamedTuple):
    """stomod's arguments (argv split at spaces, and --out), its exit code and
    why.  Exit 0 writes every table of the command, none empty; any other exit
    leaves no --out directory.  A line of stderr matches the regex stderr_has
    (one starting with \\A is stderr's first line), none matches stderr_lacks,
    and stdout_empty wants no stdout."""

    argv: str
    exit_code: int
    reason: str
    stderr_has: str = ""
    stderr_lacks: str = ""
    stdout_empty: bool = False


CASES = {
    "deep-spectrum": Case(
        "psd-map --set psd-map.beta1_grid=0.5 --set spectrum.k_max=1000000000000", 2,
        "An absurd spectrum depth is a config error, refused before it is allocated.",
        stderr_has=r"spectrum\.k_max: 1000000000000 must be in \[1, 10000\]"),
    "wide-grid": Case("psd-map --set psd-map.beta1_grid=lin:0:1:1000000000000", 2,
                      "So is a grid range with an absurd point count.",
                      stderr_has=r"\Aerror: psd-map\.beta1_grid: grid 'lin:0:1:1000000000000'"),
    "removed-key": Case("psd-map --set solver.method=matrix", 2,
                        "The installed default.cfg is current: solver.method is gone.",
                        stderr_has=r"solver\.method", stderr_lacks="Traceback",
                        stdout_empty=True),
    "unknown-option": Case("psd-map --format json", 2, "An unknown option gets the command usage.",
                           stderr_has=r"^usage: stomod psd-map"),
    "option-before-command": Case("--foo psd-map", 2, "One before it gets the top-level usage.",
                                  stderr_has=r"^usage: stomod \["),
    "subnormal-harmonics": Case(
        "psd-map --op-label OP2 --set psd-map.beta1_grid=1.0 --set solver.n_harmonics=300 "
        "--set spectrum.k_max=600", 0, "A subnormal |X_n| (n = 78..80 at N = 300) is no warning.",
        stderr_lacks="Warning:"),
    "bandwidth-negative-power": Case(
        "bandwidth --set bandwidth.mu=0.9 --set bandwidth.f_m_grid_hz=1e6,2e6", 3,
        "A negative power, 1 + dp <= 0 at OP1, 1 MHz, mu = 0.9 (E = 97), is a numerical error.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1e\+06 Hz: negative power: min dp = "
                   r"-81\.7935 makes 1 \+ dp <= 0: a row outside the reduced model, .* e\^97 "
                   r".*raising solver\.n_harmonics does not help$"),
    "error-analysis-negative-power": Case(
        "error-analysis --op-label OP1 --set error-analysis.mu=0.9 "
        "--set error-analysis.f_m_grid_hz=1e6,2e6 --set error-analysis.n_values=5 "
        "--set error-analysis.recursive_beta1_grid=0.5 --set error-analysis.recursive_n_values=5",
        3, "Every command checks it: the order-20 reference there reaches dp ~ -720.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1e\+06 Hz, n = 20: negative power: "
                   r".*raising error-analysis\.n_ref does not help$"),
    "no-fm": Case("bandwidth --set device.nu=0", 3,
                  "nu = 0 leaves no bandwidth corner: refused before the search, with no mu >= 1.",
                  stderr_has="^numerical error: OP1 ", stderr_lacks="mu="),
    "mu-one": Case(
        "error-analysis --op-label OP2 --set error-analysis.mu=1.0 "
        "--set error-analysis.f_m_grid_hz=400e6 --set error-analysis.n_values=1,2,3 "
        "--set error-analysis.recursive_beta1_grid=0.5 --set error-analysis.recursive_n_values=3",
        0, "The mu >= 1 warning counts the 4 solves at mu = 1: orders 1-3 and the reference.",
        stderr_has=r"mu=1\.0 >= 1.*\(4 times\)"),
    "bandwidth-bound-not-cleared": Case(
        "bandwidth --set bandwidth.mu=0.1915 --set bandwidth.f_m_grid_hz=1e7,1e8,1e9", 0,
        "The bound |A0| + sum|X_n| < 1 misses OP1 at 10 MHz; its sampled max dp, 0.995, passes."),
    "runaway-beta1": Case(
        "psd-map --op-label OP1 --set psd-map.f_m_hz=1e6 --set psd-map.beta1_grid=3e4", 3,
        "beta_1 = 3e4 at OP1, 1 MHz back-solves to max dp = 55.9, past |dp| < 1.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 30000, f_m = 1e\+06 Hz: max dp = "
                   r"55\.9043 is not below 1"),
    "truncated-half": Case(
        "bandwidth --set operating-points.OP1=1.01 --op-label OP1 --set bandwidth.mu=0.3 "
        "--set bandwidth.f_m_grid_hz=1e5", 3,
        "Its min dp, -0.683, is below the -1/2 of mu < 1, and no order mends it (E = 630).",
        stderr_has=r"\Anumerical error: OP1 at f_m = 100000 Hz: min dp = -0\.683335 is not "
                   r"above -0\.5.*raising solver\.n_harmonics does not help$"),
    "truncated-reference": Case(
        "error-analysis --set operating-points.OP1=1.01 --op-label OP1 --set error-analysis.mu=0.3 "
        "--set error-analysis.f_m_grid_hz=1e5 --set error-analysis.n_values=5 "
        "--set error-analysis.n_ref=10 --set error-analysis.recursive_beta1_grid=0.5 "
        "--set error-analysis.recursive_n_values=5", 3, "The same row as a reference names n_ref.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 100000 Hz, n = 10: min dp = -0\.683335 is "
                   r"not above -0\.5.*raising error-analysis\.n_ref does not help$",
        stderr_lacks=r"solver\.n_harmonics"),
    "negative-power-cause": Case(
        "bandwidth --set operating-points.OP1=1.01 --op-label OP1 --set bandwidth.mu=0.2 "
        "--set bandwidth.f_m_grid_hz=1.134e6", 3,
        "A negative power at mu < 1 says too whether raising N can help: here E = 36.06.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1\.134e\+06 Hz: negative power: min dp = "
                   r"-1\.71585 makes 1 \+ dp <= 0: a row outside the reduced model, .* e\^36 "
                   r".*raising solver\.n_harmonics does not help$"),
    "unreachable-beta1": Case("error-analysis --set error-analysis.recursive_beta1_grid=0.5,1e9",
                              3, "A beta_1 of 1e9 lies past the peak of beta_1(mu)."),
    "falling-beta1": Case(
        "error-analysis --op-label OP1 --set error-analysis.recursive_f_m_hz=1e6 "
        "--set error-analysis.recursive_beta1_grid=1e6", 3, "beta_1(mu) falls before reaching it."),
    "breakdown-beta1": Case(
        "psd-map --op-label OP1 --set psd-map.f_m_hz=1e6 --set psd-map.beta1_grid=1e9 "
        "--set solver.n_harmonics=40 --set spectrum.k_max=40", 3,
        "At OP1, 1 MHz, N = 40 the back-solve's kept solution fails the residual check."),
    "csv-unsafe-label": Case(
        "psd-map --set operating-points.OP,X=1.5 --op-label OP,X --set psd-map.beta1_grid=0.5", 2,
        "A label that a CSV row cannot hold is a config error.", stdout_empty=True),
    "nu-overflow": Case("operating-point --set device.nu=1e300", 3,
                        "A nu that overflows the carrier omega_o + nu*Gamma_p is refused.",
                        stderr_has=r"f_STO = f_o \+ nu\*Gamma_p/2pi is not finite at xi=1\.55 "
                                   r"\(nu=1e\+300\)"),
    "two-faults": Case("psd-map --set solver.n_harmonics=0 --set operating-points.OP1=0.5", 2,
                       "Of a bad declared key and a below-threshold xi, the first read wins."),
    "subnormal-f_m": Case(
        "psd-map --op-label OP2 --set psd-map.f_m_hz=1e-320 --set psd-map.beta1_grid=0.25", 3,
        "At a subnormal f_m the crossing lies below the smallest float: mu = 0 is refused."),
}


def check(case: Case, code: int, stdout: str, stderr: str, out: Path) -> list[str]:
    """What a run of case got wrong, from its exit code, stdout, stderr and
    --out directory: an empty list if it ends as listed."""
    failed = [] if code == case.exit_code else [f"exit {code}, not {case.exit_code}"]
    if case.exit_code and out.exists():
        failed.append(f"{out} exists")
    tables = [] if case.exit_code else [out / f"{s}.csv" for s in TABLES[case.argv.split()[0]]]
    failed += [f"{t} is missing or empty" for t in tables if not (t.is_file() and t.stat().st_size)]
    if case.stderr_has and not re.search(case.stderr_has, stderr, re.M):
        failed.append(f"no line of stderr matches {case.stderr_has!r}")
    if case.stderr_lacks and re.search(case.stderr_lacks, stderr, re.M):
        failed.append(f"a line of stderr matches {case.stderr_lacks!r}")
    if case.stdout_empty and stdout:
        failed.append("stdout is not empty")
    return failed


def main() -> int:
    stomod = shutil.which("stomod")
    print(f"stomod: {stomod}")
    if stomod is None:
        return 1
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            out = Path(tmp, name)
            proc = subprocess.run([stomod, *case.argv.split(), "--out", str(out)],
                                  capture_output=True, text=True)
            failed = check(case, proc.returncode, proc.stdout, proc.stderr, out)
            print(f"{name}: {'; '.join(failed) or 'ok'}")
            failures += bool(failed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
