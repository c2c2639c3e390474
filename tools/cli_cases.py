#!/usr/bin/env python3
"""Every CLI run the project checks, each with the outcome it must have:
the five default runs, every run whose numerical refusal (exit 3) or
counted warning is checked, and config errors (exit 2) whose text is.

`python tools/cli_cases.py` prints the path of the stomod on PATH, then checks
each case against it, one line each ("ok" or what failed), and exits 1 if one
fails.  tests/test_cli.py checks each in-process; compare_tables.py runs them
through run() too.
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
    """stomod's arguments (argv split at spaces, and --out), its exit code, why,
    and a regex that spans its whole stderr, from \\A to \\Z.  check() states
    what every run must do besides; no two cases share their argv
    (test_each_case_is_one_argv_with_its_text)."""

    argv: str
    exit_code: int
    reason: str
    stderr_has: str


# Texts that more than one case's run prints.
FM_CAP = (r"\Anumerical error: OP1 at beta1 = 40000, f_m = 1e\+08 Hz: FM index "
          r"beta=40000\.0007\d* is not finite or exceeds 32768\n\Z")
NEGATIVE_POWER = (r"\Anumerical error: OP1 at beta1 = 10000, f_m = 1e\+06 Hz: negative power: "
                  r"min dp = -1\.07333 makes 1 \+ dp <= 0: a truncation artifact "
                  r"\(solver\.n_harmonics\)\n\Z")
GAMMA_P_INF = r"Gamma_p=inf rad/s at xi=1e\+300 is not a positive normal float\n\Z"
SLOW_MODULATION = (r"\AWarning: omega_m is not small compared to omega_sto; the slow-modulation "
                   r"assumption is strained \(injection locking is not modeled\) \({} times\)\n\Z")

CASES = {
    # The default runs: bare commands.
    "operating-point": Case("operating-point", 0, "The dispersion over the default xi grid.",
                            stderr_has=r"\A\Z"),
    "psd-map": Case("psd-map", 0, "The line spectra over the default beta_1 grid.",
                    stderr_has=r"\A\Z"),
    "asymmetry-map": Case("asymmetry-map", 0, "The sideband asymmetry map and its slice.",
                          stderr_has=r"\A\Z"),
    "bandwidth": Case(
        "bandwidth", 0, "f_m = 1 GHz is past a tenth of each OP's carrier: one counted warning.",
        stderr_has=SLOW_MODULATION.format(3)),
    "error-analysis": Case("error-analysis", 0, "The truncation and method-pair errors.",
                           stderr_has=r"\A\Z"),
    "deep-spectrum": Case(
        "psd-map --set psd-map.beta1_grid=0.5 --set spectrum.k_max=1000000000000", 2,
        "An absurd spectrum depth is a config error, refused before it is allocated.",
        stderr_has=r"\Aerror: spectrum\.k_max: 1000000000000 must be in \[1, 10000\]\n\Z"),
    "wide-grid": Case("psd-map --set psd-map.beta1_grid=lin:0:1:1000000000000", 2,
                      "So is a grid range with an absurd point count.",
                      stderr_has=r"\Aerror: psd-map\.beta1_grid: grid 'lin:0:1:1000000000000' "
                                 r"must have 1 to 10000 points\n\Z"),
    "removed-key": Case("psd-map --set solver.method=matrix", 2,
                        "The installed default.cfg is current: solver.method is gone.",
                        stderr_has=r"\Aerror: unknown config key solver\.method\n\Z"),
    "unknown-option": Case(
        "psd-map --format json", 2, "An unknown option gets the command usage.",
        stderr_has=r"\Ausage: stomod psd-map .*\n(?:.*\n)*"
                   r"stomod psd-map: error: unrecognized arguments: --format json\n\Z"),
    "option-before-command": Case(
        "--foo psd-map", 2, "One before it gets the top-level usage.",
        stderr_has=r"\Ausage: stomod \[.*\n(?:.*\n)*"
                   r"stomod: error: unrecognized arguments: --foo\n\Z"),
    "csv-unsafe-label": Case(
        "psd-map --set operating-points.OP,X=1.5 --op-label OP,X --set psd-map.beta1_grid=0.5", 2,
        "A label that a CSV row cannot hold is a config error.",
        stderr_has=r"\Aerror: 'operating-points\.OP,X': a label may not start with '#' or hold a "
                   r"comma, a double quote, CR or LF, as a CSV row could not hold it\n\Z"),
    "two-faults": Case("psd-map --set solver.n_harmonics=0 --set operating-points.OP1=0.5", 2,
                       "Of a bad declared key and a below-threshold xi, the first read wins.",
                       stderr_has=r"\Aerror: solver\.n_harmonics: 0 must be in \[1, 10000\]\n\Z"),
    "subnormal-harmonics": Case(
        "psd-map --op-label OP2 --set psd-map.beta1_grid=1.0 --set solver.n_harmonics=300 "
        "--set spectrum.k_max=600", 0, "A subnormal |X_n| (n = 78..80 at N = 300) is no warning.",
        stderr_has=r"\A\Z"),
    "mu-one": Case(
        "error-analysis --op-label OP2 --set error-analysis.mu=1.0 "
        "--set error-analysis.f_m_grid_hz=400e6 --set error-analysis.n_values=1,2,3 "
        "--set error-analysis.recursive_beta1_grid=0.5 --set error-analysis.recursive_n_values=3",
        0, "The mu >= 1 warning counts the 4 solves at mu = 1: orders 1-3 and the reference.",
        stderr_has=r"\AWarning: mu=1\.0 >= 1: outside the small-modulation validity range "
                   r"\(4 times\)\n\Z"),
    "fast-modulation": Case(
        "bandwidth --set bandwidth.f_m_grid_hz=log:1e7:1e9:5 --op-label OP1", 0,
        "f_m = 1 GHz is above a tenth of OP1's 6.72 GHz carrier: one counted warning line.",
        stderr_has=SLOW_MODULATION.format(1)),
    "fast-backsolve": Case(
        "psd-map --op-label OP1 --set psd-map.f_m_hz=1e9 --set psd-map.beta1_grid=0.01,0.02", 0,
        "Every mu back-solve evaluation at 1 GHz is fast; the count is the 2 kept beta_1 rows.",
        stderr_has=SLOW_MODULATION.format(2)),
    "fast-corner": Case(
        "bandwidth --set device.alpha=0.1 --set device.nu=0.5 --op-label OP3 "
        "--set bandwidth.f_m_grid_hz=1e7", 0,
        "The 3.14 GHz corner is past a tenth of the 6.4 GHz carrier: one warning, not one per "
        "evaluation of the search.",
        stderr_has=SLOW_MODULATION.format(1)),
    "slow-seed-corner": Case(
        "bandwidth --set device.alpha=0.1 --set device.nu=-3.3 --op-label OP3 "
        "--set bandwidth.f_m_grid_hz=1e7", 0,
        "The 62.7 MHz seed is past a tenth of the 0.426 GHz carrier, and so is the corner: "
        "one warning, from the corner; the 10 MHz row does not warn.",
        stderr_has=SLOW_MODULATION.format(1)),
    "bandwidth-bound-not-cleared": Case(
        "bandwidth --set bandwidth.mu=0.1915 --set bandwidth.f_m_grid_hz=1e7,1e8,1e9", 0,
        "The bound |A0| + sum|X_n| < 1 misses OP1 at 10 MHz; its sampled max dp, 0.995, passes.  "
        "OP1's 1 GHz row warns.", stderr_has=SLOW_MODULATION.format(1)),
    # Refused while an operating point is derived, before any row: named by
    # the label, if any, and the xi.
    "nu-overflow": Case("operating-point --set device.nu=1e300", 3,
                        "A nu that overflows the carrier omega_o + nu*Gamma_p is refused.",
                        stderr_has=r"\Anumerical error: f_STO = f_o \+ nu\*Gamma_p/2pi is not "
                                   r"finite at xi=1\.55 \(nu=1e\+300\)\n\Z"),
    "nu-overflow-psd": Case(
        "psd-map --set psd-map.beta1_grid=0.5 --set device.nu=1e300", 3,
        "The overflowing carrier is refused before any spectral line is kept.",
        stderr_has=r"\Anumerical error: OP2: f_STO = f_o \+ nu\*Gamma_p/2pi is not finite at "
                   r"xi=1\.8 \(nu=1e\+300\)\n\Z"),
    "negative-carrier-xi": Case(
        "operating-point --set device.nu=-100", 3,
        "nu = -100 puts f_STO at or below 0 from xi = 2 up: on the xi grid ...",
        stderr_has=r"\Anumerical error: f_STO=0 Hz at xi=2\.0 is not positive \(nu=-100\.0\)\n\Z"),
    "negative-carrier-op": Case(
        "psd-map --set device.nu=-100", 3, "... and at OP3.",
        stderr_has=r"\Anumerical error: OP3: f_STO=-1\.008e\+10 Hz at xi=3\.8 is not positive "
                   r"\(nu=-100\.0\)\n\Z"),
    "gamma-p-overflow": Case(
        "bandwidth --set bandwidth.f_m_grid_hz=log:1e7:1e9:5 --set device.mu0_h_app_t=1e300", 3,
        "A field of 1e300 T overflows Gamma_p.",
        stderr_has=r"\Anumerical error: OP1: Gamma_p=inf rad/s at xi=1\.2 is not a positive normal "
                   r"float\n\Z"),
    "gamma-p-inf-op": Case("psd-map --set operating-points.OP1=1e300 --op-label OP1", 3,
                           "So does a xi of 1e300 at a label ...",
                           stderr_has=r"\Anumerical error: OP1: " + GAMMA_P_INF),
    "gamma-p-inf-bandwidth": Case("bandwidth --set operating-points.OP2=1e300", 3,
                                  "... in any command ...",
                                  stderr_has=r"\Anumerical error: OP2: " + GAMMA_P_INF),
    "gamma-p-inf-xi": Case("operating-point --set operating-point.xi_grid=1.5,1e300", 3,
                           "... or on the xi grid.",
                           stderr_has=r"\Anumerical error: " + GAMMA_P_INF),
    "seed-underflow": Case(
        "bandwidth --set bandwidth.f_m_grid_hz=log:1e7:1e9:5 --set device.gamma_hz_per_t=1e-320",
        3, "A subnormal gamma gives a subnormal Gamma_p, refused where the OP is derived.",
        stderr_has=r"\Anumerical error: OP1: Gamma_p=2\.5e-323 rad/s at xi=1\.2 is not a positive "
                   r"normal float\n\Z"),
    "no-fm": Case("bandwidth --set device.nu=0", 3,
                  "nu = 0 leaves no bandwidth corner: refused before the search, with no mu >= 1.",
                  stderr_has=r"\Anumerical error: OP1 bandwidth search from f_m = 448000 Hz: "
                             r"flat-band beta_1 = 0; there is no corner\n\Z"),
    # The mu back-solve of a row.
    "unreachable-psd-row": Case(
        "psd-map --set psd-map.beta1_grid=0.5,50.0", 3,
        "beta_1 = 50 is out of reach below mu = 0.5; the error names its row.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 50, f_m = 1e\+08 Hz: target 50 not "
                   r"reachable up to 0\.5 \(largest value 6\.57698\)\n\Z"),
    "unreachable-beta1": Case(
        "error-analysis --set error-analysis.recursive_beta1_grid=0.5,1e9", 3,
        "A beta_1 of 1e9 lies past the peak of beta_1(mu).",
        stderr_has=r"\Anumerical error: OP2 at beta1 = 1e\+09, n = 3: target 1e\+09 not reachable "
                   r"up to 0\.5 \(largest value 64\.4085\)\n\Z"),
    "falling-beta1": Case(
        "error-analysis --op-label OP1 --set error-analysis.recursive_f_m_hz=1e6 "
        "--set error-analysis.recursive_beta1_grid=1e6", 3, "beta_1(mu) falls before reaching it.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 1e\+06, n = 3: target 1e\+06 not reachable: "
                   r"the value falls past 0\.3341 \(largest value 526381\)\n\Z"),
    "subnormal-f_m": Case(
        "psd-map --op-label OP2 --set psd-map.f_m_hz=1e-320 --set psd-map.beta1_grid=0.25", 3,
        "At a subnormal f_m the crossing lies below the smallest float: mu = 0 is refused.",
        stderr_has=r"\Anumerical error: OP2 at beta1 = 0\.25, f_m = 9\.99989e-321 Hz: target 0\.25 "
                   r"is reached only below 4\.94e-324: the crossing rounds to 0\n\Z"),
    "first-row-negative-power": Case(
        "psd-map --op-label OP1 --set device.nu=10 --set psd-map.f_m_hz=1e6 "
        "--set psd-map.beta1_grid=10000,1e9", 3,
        "Each row is back-solved, solved and refused before the next: the first failing wins ...",
        stderr_has=NEGATIVE_POWER),
    "first-row-unreachable": Case(
        "psd-map --op-label OP1 --set device.nu=10 --set psd-map.f_m_hz=1e6 "
        "--set psd-map.beta1_grid=1e9,10000", 3, "... whichever its error.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 1e\+09, f_m = 1e\+06 Hz: target 1e\+09 not "
                   r"reachable: the value falls past 0\.3341 \(largest value 52638\.1\)\n\Z"),
    # The solve of a row: its residual gate, or coefficients that overflow.
    "gamma-overflow": Case(
        "psd-map --set psd-map.beta1_grid=0.5 --set device.gamma_hz_per_t=1e305", 3,
        "A finite gamma of 1e305 overflows the solve, which names that cause.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 0\.5, f_m = 1e\+08 Hz: harmonic-balance "
                   r"coefficients are not finite \(gamma_p=2\.5132741228718334e\+302, mu=1e-06, "
                   r"omega_m=628318530\.7179586\)\n\Z"),
    "breakdown-beta1": Case(
        "psd-map --op-label OP1 --set psd-map.f_m_hz=1e6 --set psd-map.beta1_grid=1e9 "
        "--set solver.n_harmonics=40 --set spectrum.k_max=40", 3,
        "At OP1, 1 MHz, N = 40 the back-solve's kept solution fails the residual check (E = 12.9).",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 1e\+09, f_m = 1e\+06 Hz: harmonic-balance "
                   r"residual 1\.747e-02 exceeds 1e-10 \* 1\.333e\+08\n\Z"),
    "failing-reference": Case(
        "error-analysis --op-label OP1 --set error-analysis.mu=0.5 "
        "--set error-analysis.f_m_grid_hz=1e6 --set error-analysis.n_values=5 "
        "--set error-analysis.n_ref=40", 3,
        "The order-40 reference fails the residual gate after its N = 5 (E = 30.7), by its order.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1e\+06 Hz, n = 40: harmonic-balance residual "
                   r"3\.946e\+05 exceeds 1e-10 \* 1\.759e\+08\n\Z"),
    "residual-cause": Case(
        "bandwidth --set operating-points.OP1=1.01 --op-label OP1 --set bandwidth.mu=0.2 "
        "--set bandwidth.f_m_grid_hz=1.134e6 --set solver.n_harmonics=20 --set spectrum.k_max=20",
        3, "negative-power-cause's row at N = 20 fails the residual gate, and E says why.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1\.134e\+06 Hz: harmonic-balance residual "
                   r"4\.386e-01 exceeds 1e-10 \* 7\.037e\+07: a row outside the reduced model, "
                   r"whose solution swings by e\^36 over one arc of the period; raising "
                   r"solver\.n_harmonics does not help\n\Z"),
    "residual-cause-short-order": Case(
        "error-analysis --set operating-points.OP1=1.01 --op-label OP1 --set error-analysis.mu=0.2 "
        "--set error-analysis.f_m_grid_hz=1.134e6 --set error-analysis.n_values=20 "
        "--set error-analysis.n_ref=40", 3,
        "The same row as a short truncation order names the key of its order.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1\.134e\+06 Hz: harmonic-balance residual "
                   r"4\.386e-01 exceeds 1e-10 \* 7\.037e\+07: .*raising error-analysis\.n_values "
                   r"does not help\n\Z"),
    # A solved row's steady state outside (floor, 1): negative power, a dip
    # below -1/2 at mu < 1, or a maximum past 1.
    "bandwidth-negative-power": Case(
        "bandwidth --set bandwidth.mu=0.9 --set bandwidth.f_m_grid_hz=1e6,2e6", 3,
        "A negative power, 1 + dp <= 0 at OP1, 1 MHz, mu = 0.9 (E = 97), is a numerical error.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1e\+06 Hz: negative power: min dp = "
                   r"-81\.7935 makes 1 \+ dp <= 0: a row outside the reduced model, .* e\^97 "
                   r".*raising solver\.n_harmonics does not help\n\Z"),
    "error-analysis-negative-power": Case(
        "error-analysis --op-label OP1 --set error-analysis.mu=0.9 "
        "--set error-analysis.f_m_grid_hz=1e6,2e6 --set error-analysis.n_values=5 "
        "--set error-analysis.recursive_beta1_grid=0.5 --set error-analysis.recursive_n_values=5",
        3, "Every command checks it: the order-20 reference there reaches dp ~ -720.  The N = 5 "
        "solve before it, truncated on purpose, prints nothing.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1e\+06 Hz, n = 20: negative power: "
                   r".*raising error-analysis\.n_ref does not help\n\Z"),
    "negative-power-psd": Case(
        "psd-map --op-label OP1 --set device.nu=10 --set psd-map.f_m_hz=1e6 "
        "--set psd-map.beta1_grid=10000", 3,
        "nu = 10 keeps beta_1 = 10000 in jv's range, and its mu ~ 0.29 makes min dp ~ -1.07 ...",
        stderr_has=NEGATIVE_POWER),
    "negative-power-asym": Case(
        "asymmetry-map --op-label OP1 --set device.nu=10 --set asymmetry-map.f_m_grid_hz=1e6 "
        "--set asymmetry-map.beta1_grid=10000", 3, "... in the asymmetry map ...",
        stderr_has=NEGATIVE_POWER),
    "negative-power-pair": Case(
        "error-analysis --op-label OP1 --set device.nu=10 --set error-analysis.n_values=5 "
        "--set error-analysis.recursive_f_m_hz=1e6 --set error-analysis.recursive_beta1_grid=10000 "
        "--set error-analysis.recursive_n_values=10", 3, "... and in a method pair.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 10000, n = 10: negative power: min dp = "
                   r"-1\.07333 makes 1 \+ dp <= 0: a truncation artifact "
                   r"\(error-analysis\.recursive_n_values\)\n\Z"),
    "negative-power-cause": Case(
        "bandwidth --set operating-points.OP1=1.01 --op-label OP1 --set bandwidth.mu=0.2 "
        "--set bandwidth.f_m_grid_hz=1.134e6", 3,
        "A negative power at mu < 1 says too whether raising N can help: here E = 36.06.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 1\.134e\+06 Hz: negative power: min dp = "
                   r"-1\.71585 makes 1 \+ dp <= 0: a row outside the reduced model, .* e\^36 "
                   r".*raising solver\.n_harmonics does not help\n\Z"),
    "truncated-half": Case(
        "bandwidth --set operating-points.OP1=1.01 --op-label OP1 --set bandwidth.mu=0.3 "
        "--set bandwidth.f_m_grid_hz=1e5", 3,
        "Its min dp, -0.683, is below the -1/2 of mu < 1, and no order mends it (E = 630).",
        stderr_has=r"\Anumerical error: OP1 at f_m = 100000 Hz: min dp = -0\.683335 is not "
                   r"above -0\.5.*raising solver\.n_harmonics does not help\n\Z"),
    "truncated-reference": Case(
        "error-analysis --set operating-points.OP1=1.01 --op-label OP1 --set error-analysis.mu=0.3 "
        "--set error-analysis.f_m_grid_hz=1e5 --set error-analysis.n_values=5 "
        "--set error-analysis.n_ref=10 --set error-analysis.recursive_beta1_grid=0.5 "
        "--set error-analysis.recursive_n_values=5", 3, "The same row as a reference names n_ref.",
        stderr_has=r"\Anumerical error: OP1 at f_m = 100000 Hz, n = 10: min dp = -0\.683335 is "
                   r"not above -0\.5, the floor of a steady state at mu < 1: a row outside the "
                   r"reduced model, whose solution swings by e\^630 over one arc of the period; "
                   r"raising error-analysis\.n_ref does not help\n\Z"),
    "truncated-pair": Case(
        "error-analysis --op-label OP1 --set operating-points.OP1=1.01 "
        "--set error-analysis.recursive_f_m_hz=5e6 --set error-analysis.recursive_beta1_grid=20 "
        "--set error-analysis.recursive_n_values=1", 3,
        "A method pair's matrix row at N = 1 names its order key; at E = 1.64 it is truncation.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 20, n = 1: min dp = -0\.672006 is not above "
                   r"-0\.5, the floor of a steady state at mu < 1: a truncation artifact "
                   r"\(error-analysis\.recursive_n_values\)\n\Z"),
    "runaway-beta1": Case(
        "psd-map --op-label OP1 --set psd-map.f_m_hz=1e6 --set psd-map.beta1_grid=3e4", 3,
        "beta_1 = 3e4 at OP1, 1 MHz back-solves to max dp = 55.9, past |dp| < 1.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 30000, f_m = 1e\+06 Hz: max dp = "
                   r"55\.9043 is not below 1, the bound \|dp\| < 1 of the reduced model\n\Z"),
    "runaway-2mhz": Case(
        "psd-map --op-label OP1 --set psd-map.f_m_hz=2e6 --set psd-map.beta1_grid=1000", 3,
        "So does beta_1 = 1000 at 2 MHz (mu = 0.195), where N = 10 and 40 agree: no truncation.",
        stderr_has=r"\Anumerical error: OP1 at beta1 = 1000, f_m = 2e\+06 Hz: max dp = 1\.88605 is "
                   r"not below 1, the bound \|dp\| < 1 of the reduced model\n\Z"),
    # The spectrum of a row, and the last-resort check of a table's cells.
    "fm-cap-psd": Case(
        "psd-map --set psd-map.beta1_grid=40000 --set device.nu=1e290", 3,
        "nu = 1e290 keeps each carrier finite, and beta_1 = 40000 is past the FM index cap ...",
        stderr_has=FM_CAP),
    "fm-cap-psd-after-zero": Case(
        "psd-map --set psd-map.beta1_grid=0,40000 --set device.nu=1e290", 3,
        "... and a beta_1 = 0 row before it has no FM comb and passes ...", stderr_has=FM_CAP),
    "fm-cap-asym": Case(
        "asymmetry-map --set asymmetry-map.beta1_grid=40000 --set asymmetry-map.f_m_grid_hz=1e8 "
        "--set device.nu=1e290", 3, "... in the one spectrum call of each table ...",
        stderr_has=FM_CAP),
    "fm-cap-asym-after-zero": Case(
        "asymmetry-map --set asymmetry-map.beta1_grid=0,40000 --set asymmetry-map.f_m_grid_hz=1e8 "
        "--set device.nu=1e290", 3, "... so the error names the row it hit.", stderr_has=FM_CAP),
    "non-finite-cell": Case(
        "bandwidth --set bandwidth.f_m_grid_hz=1e-300", 3,
        "f_m = 1e-300 Hz overflows the FM index to inf: named by table, column and row.",
        stderr_has=r"\Anumerical error: table bandwidth, column delta_f_index_hz: inf is not "
                   r"finite in the row op_label = OP1, f_m_hz = 1e-300\n\Z"),
}


def check(case: Case, code: int, stdout: str, stderr: str, out: Path) -> list[str]:
    """What a run of case got wrong, from its exit code, stdout, stderr and
    --out directory: an empty list if it ends as listed.  Exit 0 writes
    exactly the command's tables, none empty, and no other file; any other
    exit prints no stdout and leaves no --out directory.  stderr matches
    stderr_has."""
    failed = [] if code == case.exit_code else [f"exit {code}, not {case.exit_code}"]
    if case.exit_code and stdout:
        failed.append("stdout is not empty")
    if case.exit_code and out.exists():
        failed.append(f"{out} exists")
    if not case.exit_code:
        tables = [out / f"{stem}.csv" for stem in TABLES[case.argv.split()[0]]]
        failed += [f"{t} is missing or empty" for t in tables
                   if not (t.is_file() and t.stat().st_size)]
        failed += [f"{p} is not a table of the command" for p in sorted(out.glob("*"))
                   if p not in tables]
    if not re.search(case.stderr_has, stderr):
        failed.append(f"stderr does not match {case.stderr_has!r}")
    return failed


def run(command: list[str], cases: dict[str, Case], out: Path, **kwargs):
    """Run command (the stomod to check) on each case's arguments and --out
    out/<name>, passing kwargs to subprocess.run; yield name, case, process."""
    for name, case in cases.items():
        yield name, case, subprocess.run([*command, *case.argv.split(), "--out", str(out / name)],
                                         capture_output=True, text=True, **kwargs)


def main() -> int:
    stomod = shutil.which("stomod")
    print(f"stomod: {stomod}")
    if stomod is None:
        return 1
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, case, proc in run([stomod], CASES, Path(tmp)):
            failed = check(case, proc.returncode, proc.stdout, proc.stderr, Path(tmp, name))
            print(f"{name}: {'; '.join(failed) or 'ok'}")
            failures += bool(failed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
