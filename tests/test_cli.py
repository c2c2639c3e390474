"""Command-line interface: outputs, determinism, exit codes."""

import io
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import cli_cases
import stomod
from stomod import fourier, spectrum, sweeps
from stomod.cli import COMMANDS, _table_func, main
from stomod.config import load_config
from stomod.model import TWO_PI, ModulationConfig
from stomod.spectrum import _refuse_large_dp

# Small grids keep the CLI tests quick without changing any physics.
FAST_PSD = [
    "--set", "psd-map.beta1_grid=0.0,0.5,1.0",
]
FAST_ASYM = [
    "--set", "asymmetry-map.beta1_grid=0.25,0.75",
    "--set", "asymmetry-map.f_m_grid_hz=40e6,100e6",
]
FAST_BW = [
    "--set", "bandwidth.f_m_grid_hz=log:1e7:1e9:5",
]
FAST_ERR = [
    "--set", "error-analysis.n_values=3,5",
    "--set", "error-analysis.n_ref=12",
    "--set", "error-analysis.recursive_beta1_grid=0.5,1.0",
    "--set", "error-analysis.recursive_n_values=5",
]


def invoke(argv):
    """Run ``main(argv)`` in-process, capturing stdout and stderr.

    ``exception`` is None after exit code 0, else the SystemExit that ends the
    run: argparse's own, or the one the installed script raises for a
    non-zero code that ``main`` returns.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv, standalone_mode=False)
        except SystemExit as exc:
            exception, code = exc, exc.code
    if code and exception is None:
        exception = SystemExit(code)
    return SimpleNamespace(
        exit_code=code,
        output=stdout.getvalue() + stderr.getvalue(),
        stdout=stdout.getvalue(),
        stderr=stderr.getvalue(),
        exception=exception,
    )


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    return invoke([*args, "--out", str(out)]), out


def read_table(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestOutputs:
    def test_operating_point_table(self, tmp_path):
        result, out = run_cli(
            ["operating-point", "--set", "operating-point.xi_grid=1.0,1.2,3.8"],
            tmp_path,
        )
        assert result.exit_code == 0, result.output
        meta, header, rows = read_table(out / "operating_point.csv")
        assert header == ["xi", "f_o_hz", "f_sto_hz", "gamma_p_hz", "p0", "c1", "c2"]
        assert {"stomod-version", "command", "config-hash"} <= set(meta)
        by_xi = {float(r[0]): r for r in rows}
        # xi = 1: threshold point, f_sto = f_o
        assert float(by_xi[1.0][2]) == pytest.approx(float(by_xi[1.0][1]), rel=1e-11)
        assert float(by_xi[1.2][2]) == pytest.approx(6.72e9, rel=1e-11)
        assert float(by_xi[3.8][2]) == pytest.approx(21.28e9, rel=1e-11)
        assert float(by_xi[1.2][3]) == pytest.approx(1.12e7, rel=1e-11)

    def test_psd_map_table(self, tmp_path):
        result, out = run_cli(["psd-map", *FAST_PSD], tmp_path)
        assert result.exit_code == 0, result.output
        _, header, rows = read_table(out / "psd_map.csv")
        assert header == ["op_label", "beta1", "mu", "k", "power", "f_s_hz"]
        # beta1 = 0 rows: single carrier line at k = 0 with power 1
        zero = [r for r in rows if float(r[1]) == 0.0 and r[0] == "OP1"]
        assert len(zero) == 1
        assert int(zero[0][3]) == 0
        assert float(zero[0][4]) == pytest.approx(1.0, rel=1e-11)

    def test_psd_map_equal_visible_sidebands(self, tmp_path):
        result, out = run_cli(["psd-map", *FAST_PSD], tmp_path)
        assert result.exit_code == 0, result.output
        _, _, rows = read_table(out / "psd_map.csv")
        counts = {}
        for label in ("OP1", "OP2", "OP3"):
            sel = [r for r in rows if r[0] == label and float(r[1]) == 1.0]
            carrier = next(float(r[4]) for r in sel if int(r[3]) == 0)
            counts[label] = sum(
                1 for r in sel if int(r[3]) != 0 and float(r[4]) > 1e-4 * carrier
            )
        assert counts["OP1"] == counts["OP2"] == counts["OP3"]

    def test_asymmetry_map_tables(self, tmp_path):
        result, out = run_cli(["asymmetry-map", *FAST_ASYM], tmp_path)
        assert result.exit_code == 0, result.output
        _, header, rows = read_table(out / "asymmetry_map.csv")
        assert header == [
            "op_label", "beta1", "f_m_hz", "delta", "p_upper", "p_lower", "p_carrier",
        ]
        assert (out / "asymmetry_slice.csv").is_file()
        for r in rows:
            assert float(r[3]) == pytest.approx(float(r[4]) - float(r[5]), rel=1e-9)
            assert float(r[3]) > 0.0

    def test_bandwidth_table(self, tmp_path):
        result, out = run_cli(["bandwidth", *FAST_BW, "--op-label", "OP2"], tmp_path)
        assert result.exit_code == 0, result.output
        _, header, rows = read_table(out / "bandwidth.csv")
        assert header == [
            "op_label", "f_m_hz", "delta_f_index_hz", "delta_f_inst_hz",
            "mbw_hz", "mbw_measured_hz",
        ]
        assert {r[0] for r in rows} == {"OP2"}
        assert float(rows[0][4]) == pytest.approx(89.6e6, rel=1e-11)
        assert float(rows[0][5]) == pytest.approx(89.6e6, rel=0.02)
        # Flat response below the corner (89.6 MHz): the deviations at 10
        # and 31.6 MHz sit on the plateau, within the expected <6% roll-off.
        assert float(rows[1][2]) == pytest.approx(float(rows[0][2]), rel=0.07)

    def test_error_analysis_tables(self, tmp_path):
        result, out = run_cli(["error-analysis", *FAST_ERR], tmp_path)
        assert result.exit_code == 0, result.output
        _, header_t, rows_t = read_table(out / "error_truncation.csv")
        assert header_t == ["op_label", "f_m_hz", "n", "error_percent"]
        # reference row is exactly zero; error shrinks with N
        ref_rows = [r for r in rows_t if int(r[2]) == 12]
        assert ref_rows and all(float(r[3]) == 0.0 for r in ref_rows)
        for f_m in {r[1] for r in rows_t}:
            errs = {int(r[2]): float(r[3]) for r in rows_t if r[1] == f_m}
            assert errs[5] <= errs[3]
        _, header_r, _ = read_table(out / "error_recursive.csv")
        assert header_r == [
            "op_label", "f_m_hz", "n", "beta1",
            "coeff_error_percent", "sideband_error_percent",
        ]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["operating-point", "--set", "operating-point.xi_grid=lin:1.0:4.0:13"],
            ["psd-map", *FAST_PSD],
            ["asymmetry-map", *FAST_ASYM],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        _, out_a = run_cli(args, tmp_path, "a")
        _, out_b = run_cli(args, tmp_path, "b")
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_float_format_fixed_width(self, tmp_path):
        _, out = run_cli(
            ["operating-point", "--set", "operating-point.xi_grid=1.2"], tmp_path
        )
        _, _, rows = read_table(out / "operating_point.csv")
        for value in rows[0]:
            mantissa = value.split("e")[0]
            assert len(mantissa.lstrip("-").replace(".", "")) == 12

    @pytest.mark.filterwarnings("ignore:omega_m is not small:UserWarning")  # f_m = 1 GHz
    def test_default_cells_are_plain_python_values(self):
        # _fmt formats a float and prints anything else by str(), so a numpy
        # scalar would have to print the same: no default table holds one.
        cfg = load_config()
        tables = [_table_func(command)(cfg) for command in COMMANDS]
        cells = [v for t in tables for _, rows in t.values() for row in rows for v in row]
        assert cells and all(type(v) in (str, int, float) for v in cells)


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path):
        undecodable = tmp_path / "undecodable.cfg"
        undecodable.write_bytes(b"\xff")
        # Files configparser cannot parse: its messages name the source it is
        # given and may run over several lines.
        no_header = tmp_path / "no_header.cfg"
        no_header.write_text("alpha = 0.01\n")
        duplicate = tmp_path / "duplicate.cfg"
        duplicate.write_text("[device]\nalpha = 0.01\nalpha = 0.02\n")
        for path in (tmp_path / "missing.cfg", undecodable, no_header, duplicate):
            result, out = run_cli(["operating-point", "--config", str(path)], tmp_path)
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output
            assert path.name in result.stderr
            assert "<string>" not in result.stderr
            assert result.stderr.startswith("error: ")
            assert result.stderr.count("\n") == 1, result.stderr
            assert not out.exists()

    def test_unwritable_out_exits_2(self, tmp_path):
        (tmp_path / "afile").write_text("")
        # Below a regular file, and the regular file itself.
        for name in ("afile/sub", "afile"):
            result, out = run_cli(["operating-point"], tmp_path, name=name)
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output
            assert result.stderr.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("blocker", ["asymmetry_slice.csv", "asymmetry_slice.csv.tmp"])
    def test_failed_write_leaves_no_table(self, tmp_path, blocker):
        # asymmetry-map writes asymmetry_map.csv before asymmetry_slice.csv; a
        # directory in the way of the second keeps the first from appearing.
        out = tmp_path / "out"
        (out / blocker).mkdir(parents=True)
        result, _ = run_cli(["asymmetry-map", *FAST_ASYM], tmp_path)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert "wrote" not in result.output
        assert sorted(p.name for p in out.iterdir()) == [blocker]
        assert (out / blocker).is_dir()

    def test_bad_override_exits_2(self, tmp_path):
        result, out = run_cli(["psd-map", "--set", "oops"], tmp_path)
        assert result.exit_code == 2

    def test_unknown_op_label_exits_2(self, tmp_path):
        result, out = run_cli(["psd-map", *FAST_PSD, "--op-label", "OP9"], tmp_path)
        assert result.exit_code == 2

    def test_unsupported_format_exits_2(self, tmp_path):
        result, out = run_cli(["psd-map", *FAST_PSD, "--format", "json"], tmp_path)
        assert result.exit_code == 2
        # Reported with the command's usage, not the top-level one.
        assert result.stderr.startswith("usage: stomod psd-map ")
        assert "stomod psd-map: error: unrecognized arguments: --format json" in result.stderr

    def test_numerical_error_exits_3_without_partial_output(self, tmp_path):
        # beta1 = 50 is unreachable with the mu <= 0.5 back-solve window.
        result, out = run_cli(
            ["psd-map", "--set", "psd-map.beta1_grid=0.5,50.0"], tmp_path
        )
        assert result.exit_code == 3
        assert not out.exists() or not list(out.iterdir())
        # The back-solve's error names the row it hit.
        assert "OP1 at beta1 = 50, f_m = 1e+08 Hz" in result.stderr

    def test_zero_flat_band_index_exits_3_before_the_bandwidth_search(self, tmp_path):
        # nu = 0 makes beta_1 = 0 everywhere; the search would otherwise climb
        # mu past 1 (one "mu=... >= 1" warning per step) and never find a corner.
        result, out = run_cli(["bandwidth", "--set", "device.nu=0"], tmp_path)
        assert result.exit_code == 3, result.output
        assert "numerical error: OP1 " in result.stderr
        assert "mu=" not in result.stderr
        assert not out.exists()

    def test_unknown_option_before_the_command_gets_the_top_level_usage(self, tmp_path):
        result, out = run_cli(["--foo", "psd-map", *FAST_PSD], tmp_path)
        assert result.exit_code == 2
        assert result.stderr.startswith("usage: stomod [")
        assert "stomod: error: unrecognized arguments: --foo" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["psd-map", "--set", "psd-map.beta1_grid=40000"],
            ["psd-map", "--set", "psd-map.beta1_grid=0,40000"],
            [
                "asymmetry-map",
                "--set", "asymmetry-map.beta1_grid=40000",
                "--set", "asymmetry-map.f_m_grid_hz=1e8",
            ],
            [
                "asymmetry-map",
                "--set", "asymmetry-map.beta1_grid=0,40000",
                "--set", "asymmetry-map.f_m_grid_hz=1e8",
            ],
        ],
    )
    def test_errors_from_one_spectrum_call_per_table_name_their_row(self, tmp_path, args):
        # nu = 1e290 keeps every carrier finite, and beta1 = 40000 is past the
        # FM index cap of 32768, so every modulated row's spectrum fails; a
        # beta1 = 0 row before it has no FM comb and passes, so the error names
        # the next row.
        result, out = run_cli([*args, "--set", "device.nu=1e290"], tmp_path)
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith(
            "numerical error: OP1 at beta1 = 40000, f_m = 1e+08 Hz: FM index"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("psd-map", ["spectrum.k_max=1000000000000"]),
            ("psd-map", ["spectrum.j_max=1000000000000"]),
            ("psd-map", ["solver.n_harmonics=1000000000000", "spectrum.k_max=1000000000000"]),
            ("error-analysis", ["error-analysis.n_ref=1000000000000"]),
            ("error-analysis", ["error-analysis.n_values=1000000000000"]),
            ("error-analysis", ["error-analysis.recursive_n_values=1000000000000"]),
        ],
    )
    def test_absurd_expansion_order_exits_2_naming_the_key(self, tmp_path, command, overrides):
        # The key's bound is checked before anything of that size is allocated.
        args = [command, "--set", "psd-map.beta1_grid=0.5"]
        result, out = run_cli([*args, *(a for o in overrides for a in ("--set", o))], tmp_path)
        assert result.exit_code == 2, result.output
        key = overrides[0].split("=")[0]
        assert f"{key}: 1000000000000 must be in [1, 10000]" in result.stderr
        assert not out.exists()

    def test_absurd_grid_range_exits_2_naming_the_key(self, tmp_path):
        result, out = run_cli(
            ["psd-map", "--set", "psd-map.beta1_grid=lin:0:1:1000000000000"], tmp_path
        )
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: psd-map.beta1_grid: grid 'lin:0:1:1000000000000'")
        assert not out.exists()

    def test_subnormal_harmonics_give_a_finite_table(self, tmp_path):
        # |X_n| is subnormal for n = 78..80 here; their FM combs used to be NaN.
        result, out = run_cli(
            ["psd-map", "--op-label", "OP2", "--set", "psd-map.beta1_grid=1.0",
             "--set", "solver.n_harmonics=300", "--set", "spectrum.k_max=600"],
            tmp_path,
        )
        assert result.exit_code == 0, result.output
        assert "Warning:" not in result.stderr
        _, header, rows = read_table(out / "psd_map.csv")
        assert rows
        power = header.index("power")
        assert all(math.isfinite(float(row[power])) for row in rows)

    @pytest.mark.parametrize("override", ["spectrum.j_max=0", "spectrum.k_max=0"])
    def test_bad_spectrum_key_exits_2(self, tmp_path, override):
        result, out = run_cli(["psd-map", *FAST_PSD, "--set", override], tmp_path)
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_non_finite_device_value_exits_2(self, tmp_path):
        result, out = run_cli(["psd-map", *FAST_PSD, "--set", "device.nu=inf"], tmp_path)
        assert result.exit_code == 2, result.output
        assert "finite" in result.output
        assert not out.exists()

    def test_non_finite_table_exits_3_without_output(self, tmp_path):
        # nu = 1e300 is finite but overflows f_sto = f_o + nu*Gamma_p/2pi; the
        # carrier is refused where the operating point is derived, naming nu
        # and xi, before any row is formed.
        result, out = run_cli(
            ["operating-point", "--set", "device.nu=1e300"], tmp_path
        )
        assert result.exit_code == 3, result.output
        assert "f_STO = f_o + nu*Gamma_p/2pi is not finite at xi=1.55 (nu=1e+300)" in result.output
        assert not out.exists()

    def test_empty_table_exits_3_without_output(self, tmp_path):
        # The overflowing carrier is refused before any line is kept.
        result, out = run_cli(
            ["psd-map", "--set", "psd-map.beta1_grid=0.5", "--set", "device.nu=1e300"],
            tmp_path,
        )
        assert result.exit_code == 3, result.output
        assert not out.exists()

    @pytest.mark.parametrize("override", ["device.nu=1e300", "device.gamma_hz_per_t=1e305"])
    def test_overflowing_device_value_exits_3_naming_the_cause(self, tmp_path, override):
        # Both values are finite; nu overflows the carrier, gamma the solve.
        result, out = run_cli(
            ["psd-map", "--set", "psd-map.beta1_grid=0.5", "--set", override], tmp_path
        )
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "not finite" in result.output
        assert "not reachable" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["psd-map", "--set", "psd-map.beta1_grid=0.5,-0.5"],
            ["asymmetry-map", "--set", "asymmetry-map.beta1_grid=-0.25"],
            ["error-analysis", "--set", "error-analysis.recursive_beta1_grid=-1.0"],
            ["error-analysis", "--set", "error-analysis.n_values="],
            ["error-analysis", "--set", "error-analysis.n_values=0"],
            ["error-analysis", "--set", "error-analysis.recursive_n_values=0"],
            ["error-analysis", "--set", "error-analysis.recursive_n_values="],
            ["operating-point", "--set", "solver.n_harmonic=5"],
            ["operating-point", "--op-label", "OP9"],
            ["psd-map", "--op", "OP1"],  # an abbreviated option
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, tmp_path, args):
        result, out = run_cli(args, tmp_path)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,override",
        [
            ("error-analysis", "error-analysis.n_values="),
            ("error-analysis", "error-analysis.n_values=1,x"),
            ("asymmetry-map", "asymmetry-map.beta1_grid=0.5,nan"),
            ("psd-map", "device.nu=5%"),
            ("psd-map", "psd-map.f_m_hz=abc"),
            ("psd-map", "operating-points.OP1=x"),
            ("psd-map", "solver.n_harmonics=2.5"),
            ("psd-map", "psd-map.beta1_grid=1,x"),
            ("psd-map", "device.alpha=nan"),
            ("bandwidth", "bandwidth.f_m_grid_hz=,"),
            ("asymmetry-map", "asymmetry-map.beta1_grid=0.5,-0.25"),
            ("operating-point", "operating-point.xi_grid=0.5"),
            ("psd-map", "psd-map.f_m_hz=1e308"),
            ("psd-map", "device.gamma_hz_per_t=-1"),
            ("psd-map", "device.alpha=0"),
            ("psd-map", "device.mu0_h_app_t=0.5"),
            ("psd-map", "device.mu0_ms_t=2"),
            ("psd-map", "solver.method=matrix"),
        ],
    )
    def test_config_error_names_its_key(self, tmp_path, command, override):
        result, out = run_cli([command, "--set", override], tmp_path)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert override.split("=", 1)[0] in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            ["device.mu0_h_app_t=1e300"],
            ["device.gamma_hz_per_t=1e-320"],
        ],
    )
    def test_degenerate_rate_exits_3_without_traceback(self, tmp_path, overrides):
        # Gamma_p overflows; the bandwidth-search seed underflows to 0.
        args = ["bandwidth", *FAST_BW, *(a for o in overrides for a in ("--set", o))]
        result, out = run_cli(args, tmp_path)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["operating-point", "psd-map"])
    def test_negative_carrier_exits_3_without_traceback(self, tmp_path, command):
        # nu = -100 puts f_STO at or below 0 from xi = 2 up: on the xi grid and at OP3.
        result, out = run_cli([command, "--set", "device.nu=-100"], tmp_path)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "f_STO" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("label", ["OP,X", 'OP"X', "OP\rX", "OP\nX", "#X"])
    def test_csv_unsafe_label_exits_2_without_output(self, tmp_path, label):
        # Such a label would split or end its CSV row, or start a line that
        # readers skipping comments drop; it is refused at load, by name.
        args = ["psd-map", "--set", f"operating-points.{label}=1.5", "--op-label", label,
                "--set", "psd-map.beta1_grid=0.5"]
        result, out = run_cli(args, tmp_path)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: {'operating-points.' + label!r}: a label")
        assert result.stderr.count("\n") == 1
        assert result.output == result.stderr
        assert not out.exists()

    def test_csv_unsafe_label_in_a_file_exits_2(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("[operating-points]\nOP,X = 1.5\n")
        result, out = run_cli(["operating-point", "--config", str(config)], tmp_path)
        assert result.exit_code == 2, result.output
        assert "'operating-points.OP,X'" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,prefix",
        [(["psd-map", "--set", "operating-points.OP1=1e300", "--op-label", "OP1"], "OP1: "),
         (["bandwidth", "--set", "operating-points.OP2=1e300"], "OP2: "),
         (["operating-point", "--set", "operating-point.xi_grid=1.5,1e300"], "xi = 1e+300: ")],
    )
    def test_errors_before_any_row_name_the_op_or_xi(self, tmp_path, args, prefix):
        # Deriving an operating point fails before any table row: the error
        # names the label or the xi it was derived for.
        result, out = run_cli(args, tmp_path)
        assert result.exit_code == 3, result.output
        assert result.stderr == (
            f"numerical error: {prefix}Gamma_p=inf rad/s is not finite and positive\n"
        )
        assert not out.exists()

    def test_non_finite_cell_is_named(self, tmp_path):
        # f_m = 1e-300 Hz overflows the FM index mu*nu*C2/omega_m to inf: the
        # last-resort check names the table, the column and the row.
        result, out = run_cli(["bandwidth", "--set", "bandwidth.f_m_grid_hz=1e-300"], tmp_path)
        assert result.exit_code == 3, result.output
        assert result.stderr.splitlines()[0] == (
            "numerical error: table bandwidth, column delta_f_index_hz: inf is not finite "
            "in the row op_label = OP1, f_m_hz = 1e-300"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows,message",
        [([], "table bandwidth is empty"),
         ([(1.0, 2.0), (math.nan, 3.0)],
          "table bandwidth, column a: nan is not finite in the row number 2")],
    )
    def test_unwritable_table_is_named(self, tmp_path, monkeypatch, rows, message):
        monkeypatch.setattr(sweeps, "bandwidth_table",
                            lambda cfg, op_filter=None: {"bandwidth": (["a", "b"], rows)})
        result, out = run_cli(["bandwidth"], tmp_path)
        assert result.exit_code == 3, result.output
        assert result.stderr == f"numerical error: {message}\n"
        assert not out.exists()


def test_error_analysis_back_solves_each_beta1_once(monkeypatch):
    # mu depends on beta_1 only, so every truncation order N reuses it.
    beta1s = []
    solve = sweeps.solve_mu_for_beta1
    monkeypatch.setattr(
        sweeps, "solve_mu_for_beta1", lambda *args: beta1s.append(args[1]) or solve(*args)
    )
    cfg = load_config(overrides=[
        "error-analysis.n_values=3",
        "error-analysis.n_ref=6",
        "error-analysis.recursive_beta1_grid=0.5,1.0",
        "error-analysis.recursive_n_values=3,5,10",
    ])
    _, rows = sweeps.error_analysis_table(cfg)["error_recursive"]
    assert beta1s == [0.5, 1.0]
    assert [(row[2], row[3]) for row in rows] == [
        (n, beta1) for n in (3, 5, 10) for beta1 in (0.5, 1.0)
    ]


def test_error_recursive_rows_compare_the_two_methods():
    # Each row's coefficient error is the recursive solution's distance from
    # the matrix one, both at the row's back-solved mu and order.
    cfg = load_config(overrides=[
        "error-analysis.recursive_beta1_grid=0.5", "error-analysis.recursive_n_values=5",
    ])
    _, rows = sweeps.error_analysis_table(cfg)["error_recursive"]
    label, op = sweeps._ops(cfg, None)[1]
    omega_m = TWO_PI * cfg.err_recursive_f_m_hz
    modcfg = ModulationConfig(sweeps.solve_mu_for_beta1(op, 0.5, omega_m, cfg.n_harmonics),
                              omega_m, 5)
    error = fourier._distance_percent(
        fourier.solve_coefficients_recursive(op, modcfg).x,
        fourier.solve_coefficients_matrix(op, modcfg).x,
    )
    assert error > 0.0
    assert rows[0][:5] == (label, cfg.err_recursive_f_m_hz, 5, 0.5, error)


def test_error_analysis_solves_each_reference_once(monkeypatch):
    # The order-n_ref reference of each f_m gives both the truncation
    # distances and the reference row's negative-power check.
    orders = []
    solve = fourier._solve
    monkeypatch.setattr(
        fourier, "_solve",
        lambda op, modcfg, *args, **kwargs: orders.append((modcfg.omega_m, modcfg.n_harmonics))
        or solve(op, modcfg, *args, **kwargs),
    )
    cfg = load_config()
    sweeps.error_analysis_table(cfg)
    assert [w for w, n in orders if n == cfg.err_n_ref] == [
        TWO_PI * f_m for f_m in cfg.err_f_m_grid_hz
    ]


@pytest.mark.filterwarnings("ignore:omega_m is not small:UserWarning")  # f_m = 1 GHz
@pytest.mark.parametrize("overrides, n_rows, passes", [
    (["bandwidth.mu=0.1915", "bandwidth.f_m_grid_hz=1e7,1e8,1e9"], 9, 10),
    ([], 75, 75),
], ids=["bound-not-cleared", "default"])
def test_bandwidth_samples_dp_extremes_twice_only_where_the_bound_misses(
    monkeypatch, overrides, n_rows, passes
):
    # Every row's instantaneous deviation samples its dp extremes once.  The
    # row step's refusal samples them again only for a row whose bound
    # |A0| + sum|X_n| < 1 does not clear: one row at mu = 0.1915 (OP1 at
    # 10 MHz, bound 1.005, max dp 0.995), none by default.
    calls = []
    extremes = spectrum._dp_extremes
    monkeypatch.setattr(spectrum, "_dp_extremes", lambda sol: calls.append(sol) or extremes(sol))
    _, rows = sweeps.bandwidth_table(load_config(overrides=overrides))["bandwidth"]
    assert (len(rows), len(calls)) == (n_rows, passes)


@pytest.mark.parametrize("command, refusals", [
    ("operating-point", 0), ("psd-map", 39), ("asymmetry-map", 120), ("bandwidth", 75),
    ("error-analysis", 41),  # 2 order-n_ref references and 39 matrix rows of the method pairs
])
def test_every_printed_steady_state_is_refused_by_the_row_step(
    monkeypatch, tmp_path, command, refusals
):
    # One refusal step covers every steady state a default table prints:
    # each row solved by _solve_rows is refused there, unless it is a short
    # truncation order or the recursive row of a method pair.
    calls = []
    refuse = sweeps._refuse_large_dp
    monkeypatch.setattr(sweeps, "_refuse_large_dp",
                        lambda sol, order_key: calls.append(sol) or refuse(sol, order_key))
    result, _ = run_cli([command], tmp_path)
    assert result.exit_code == 0, result.output
    assert len(calls) == refusals


def test_operating_point_op_label_writes_one_row(tmp_path):
    result, out = run_cli(["operating-point", "--op-label", "OP2"], tmp_path)
    assert result.exit_code == 0, result.output
    _, _, rows = read_table(out / "operating_point.csv")
    assert len(rows) == 1
    assert float(rows[0][0]) == 1.8
    assert float(rows[0][3]) == pytest.approx(44.8e6, rel=1e-11)


def test_warnings_print_one_counted_line(tmp_path):
    # f_m = 1 GHz is above a tenth of OP1's 6.72 GHz carrier.
    result, _ = run_cli(["bandwidth", *FAST_BW, "--op-label", "OP1"], tmp_path)
    assert result.exit_code == 0, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Warning: omega_m is not small")
    assert lines[0].endswith(" times)")
    assert "UserWarning" not in result.stderr


def test_non_decay_warning_prints_one_counted_line(tmp_path):
    # mu = 0.9 at OP1 is past the model's validity: the N = 5 solve does not
    # decay, and the N = 20 reference reaches dp ~ -720, a negative power.
    args = [
        "--op-label", "OP1",
        "--set", "error-analysis.mu=0.9",
        "--set", "error-analysis.f_m_grid_hz=1e6,2e6",
        "--set", "error-analysis.n_values=5",
        "--set", "error-analysis.recursive_beta1_grid=0.5",
        "--set", "error-analysis.recursive_n_values=5",
    ]
    result, out = run_cli(["error-analysis", *args], tmp_path)
    assert result.exit_code == 3, result.output
    error, *lines = result.stderr.splitlines()
    assert error.startswith("numerical error: OP1 at f_m = 1e+06 Hz, n = 20: negative power")
    assert len(lines) == 1
    assert lines[0].startswith("Warning: harmonic coefficients do not decay")
    assert lines[0].endswith(" times)")
    assert not out.exists()


def test_negative_power_exits_3_without_output(tmp_path):
    # At OP1, 1 MHz, mu = 0.9 the steady state reaches dp ~ -82: 1 + dp < 0.
    args = ["--set", "bandwidth.mu=0.9", "--set", "bandwidth.f_m_grid_hz=1e6,2e6"]
    result, out = run_cli(["bandwidth", *args], tmp_path)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "negative power" in result.stderr
    assert "OP1 at f_m = 1e+06 Hz" in result.stderr
    assert not out.exists()


# nu = 10 keeps beta_1 = 10000 inside jv's range at 1 MHz, and the mu ~ 0.29
# that OP1 needs for it makes min dp ~ -1.07: each command names the row.
NEGATIVE_POWER_ROWS = {
    "psd-map": (
        ["psd-map.f_m_hz=1e6", "psd-map.beta1_grid=10000"],
        "beta1 = 10000, f_m = 1e+06 Hz",
    ),
    "asymmetry-map": (
        ["asymmetry-map.f_m_grid_hz=1e6", "asymmetry-map.beta1_grid=10000"],
        "beta1 = 10000, f_m = 1e+06 Hz",
    ),
    "error-analysis": (
        [
            "error-analysis.n_values=5",
            "error-analysis.recursive_f_m_hz=1e6",
            "error-analysis.recursive_beta1_grid=10000",
            "error-analysis.recursive_n_values=10",
        ],
        "beta1 = 10000, n = 10",
    ),
}


@pytest.mark.parametrize("command", NEGATIVE_POWER_ROWS)
def test_negative_power_exits_3_in_every_table_command(tmp_path, command):
    overrides, row = NEGATIVE_POWER_ROWS[command]
    sets = [arg for key in ["device.nu=10", *overrides] for arg in ("--set", key)]
    result, out = run_cli([command, "--op-label", "OP1", *sets], tmp_path)
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith(f"numerical error: OP1 at {row}: negative power")
    assert not out.exists()


@pytest.mark.parametrize("f_m, beta1, max_dp", [
    ("2e6", "1000", "1.88605"), ("1e6", "3e4", "55.9043"),
])
def test_runaway_steady_state_exits_3_naming_its_row(tmp_path, f_m, beta1, max_dp):
    # At OP1 these targets back-solve to steady states with min dp > -1, so
    # no negative power, but max dp far past 1, outside the reduced model
    # (mu = 0.195 at 2 MHz).  N = 10 and N = 40 agree there, so it is not
    # truncation; the row step refuses them.
    sets = [f"psd-map.f_m_hz={f_m}", f"psd-map.beta1_grid={beta1}"]
    args = [arg for key in sets for arg in ("--set", key)]
    result, out = run_cli(["psd-map", "--op-label", "OP1", *args], tmp_path)
    assert result.exit_code == 3, result.output
    row = f"OP1 at beta1 = {float(beta1):g}, f_m = {float(f_m):g} Hz"
    assert result.stderr.startswith(f"numerical error: {row}: max dp = {max_dp} is not below 1")
    assert not out.exists()


def test_truncated_steady_state_below_half_exits_3_naming_its_row(tmp_path):
    # Near threshold at slow modulation the N = 10 row dips to min dp = -0.683.
    # At mu < 1 a steady state stays above -1/2, where d(dp)/dt = Gamma_p*(1 +
    # mu*cos(w_m t)) > 0, so the row is refused though 1 + dp > 0.  It swings
    # by e^630 over one arc of the period, which no truncation order holds.
    sets = ["operating-points.OP1=1.01", "bandwidth.mu=0.3", "bandwidth.f_m_grid_hz=1e5"]
    args = [arg for key in sets for arg in ("--set", key)]
    result, out = run_cli(["bandwidth", "--op-label", "OP1", *args], tmp_path)
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith(
        "numerical error: OP1 at f_m = 100000 Hz: min dp = -0.683335 is not above -0.5")
    assert result.stderr.splitlines()[0].endswith("raising solver.n_harmonics does not help")
    assert not out.exists()


@pytest.mark.parametrize("sets, row, cause", [
    (["error-analysis.mu=0.3", "error-analysis.f_m_grid_hz=1e5", "error-analysis.n_values=5",
      "error-analysis.n_ref=10", "error-analysis.recursive_beta1_grid=0.5",
      "error-analysis.recursive_n_values=5"],
     "OP1 at f_m = 100000 Hz, n = 10: min dp = -0.683335",
     "raising error-analysis.n_ref does not help"),
    (["error-analysis.recursive_f_m_hz=5e6", "error-analysis.recursive_beta1_grid=20",
      "error-analysis.recursive_n_values=1"],
     "OP1 at beta1 = 20, n = 1: min dp = -0.672006",
     "a truncation artifact (error-analysis.recursive_n_values)"),
], ids=["reference", "method-pair"])
def test_truncated_row_refusal_names_its_order_key(tmp_path, sets, row, cause):
    # The -1/2 refusal names the config key that sets the refused row's
    # order, not solver.n_harmonics: error-analysis.n_ref for the order-n_ref
    # reference row (xi = 1.01, 100 kHz, mu = 0.3, N = 10), and
    # error-analysis.recursive_n_values for the matrix row of a method pair
    # (xi = 1.01, 5 MHz, beta1 = 20 back-solved at N = 10, solved at N = 1).
    # Only the second, swinging by e^1.6 and not e^630, is a truncation artifact.
    args = [arg for key_value in ["operating-points.OP1=1.01", *sets]
            for arg in ("--set", key_value)]
    result, out = run_cli(["error-analysis", "--op-label", "OP1", *args], tmp_path)
    assert result.exit_code == 3, result.output
    first = result.stderr.splitlines()[0]
    assert first.startswith(f"numerical error: {row} is not above -0.5"), first
    assert first.endswith(cause), first
    assert "solver.n_harmonics" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("case", cli_cases.CASES.values(), ids=list(cli_cases.CASES))
def test_listed_case_ends_as_listed(tmp_path, case):
    # Each case of tools/cli_cases.py in-process; CI runs them on the installed stomod.
    result, out = run_cli(case.argv.split(), tmp_path)
    assert not cli_cases.check(case, result.exit_code, result.stdout, result.stderr, out)


@pytest.mark.parametrize("code, status, report", [(0, 1, "exit 0, not 3"), (3, 0, "ok")],
                         ids=["wrong-exit", "as-listed"])
def test_case_runner_checks_the_stomod_on_path(tmp_path, monkeypatch, capsys, code, status, report):
    # A stomod on PATH that writes no table, prints the case's refusal to
    # stderr and exits with code, for one exit-3 case.
    refusal = ("numerical error: OP1 at beta1 = 30000, f_m = 1e+06 Hz: "
               "max dp = 55.9043 is not below 1")
    fake = tmp_path / "stomod"
    fake.write_text(f"#!/bin/sh\necho '{refusal}' >&2\nexit {code}\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setattr(cli_cases, "CASES", {"runaway-beta1": cli_cases.CASES["runaway-beta1"]})
    assert cli_cases.main() == status
    assert capsys.readouterr().out.splitlines() == [f"stomod: {fake}", f"runaway-beta1: {report}"]


@pytest.mark.parametrize("grid, error", [
    ("10000,1e9", "beta1 = 10000, f_m = 1e+06 Hz: negative power"),
    ("1e9,10000", "beta1 = 1e+09, f_m = 1e+06 Hz: target 1e+09 not reachable"),
])
def test_first_failing_row_wins(tmp_path, grid, error):
    # Each row is back-solved, solved and checked before the next: beta_1 =
    # 10000 gives a negative power, and 1e9 is past the peak of beta_1(mu).
    sets = ["device.nu=10", "psd-map.f_m_hz=1e6", f"psd-map.beta1_grid={grid}"]
    args = [arg for key in sets for arg in ("--set", key)]
    result, out = run_cli(["psd-map", "--op-label", "OP1", *args], tmp_path)
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith(f"numerical error: OP1 at {error}")
    assert not out.exists()


def test_back_solve_keeps_beta1_at_low_f_m(tmp_path):
    # The bisection stops at min(1e-10, 1e-7*hi) in mu.  At 1 Hz the mu of
    # beta_1 = 0.25 is about 4.5e-11, below a 1e-10 stop alone, which left
    # |beta_1| at 0.17 there and 0.2512 at 100 Hz.
    for label, op in sweeps._ops(load_config(), None):
        for f_m in (1.0, 100.0, 1e4):
            omega_m = TWO_PI * f_m
            beta1 = spectrum.first_harmonic_index(
                op, spectrum.solve_mu_for_beta1(op, 0.25, omega_m), omega_m
            )
            assert abs(beta1 - 0.25) <= 1e-6, (label, f_m, beta1)
    # At a subnormal f_m the crossing lies below the smallest float, so the
    # bisection would return mu = 0: it is refused, naming the row.
    sets = ["psd-map.f_m_hz=1e-320", "psd-map.beta1_grid=0.25"]
    args = [arg for key in sets for arg in ("--set", key)]
    result, out = run_cli(["psd-map", "--op-label", "OP2", *args], tmp_path)
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith(
        "numerical error: OP2 at beta1 = 0.25, f_m = 9.99989e-321 Hz: target 0.25 is reached "
        "only below"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:mu=3.6 >= 1:UserWarning")
def test_short_orders_are_not_refused(tmp_path):
    # The N = 1 solution at OP3, 600 MHz, mu = 3.6 dips to min dp ~ -1.075, a
    # negative power; only its N = 20 reference is checked, and it passes with
    # dp in [-0.83, 0.15], inside |dp| < 1.  In a scan of the three OPs
    # (f_m from 1 MHz to 2 GHz, mu up to 3, N up to 3) only OP3 at mu > 2
    # gave a refused short order with a kept reference.
    sets = ["error-analysis.mu=3.6", "error-analysis.f_m_grid_hz=600e6",
            "error-analysis.n_values=1", "error-analysis.n_ref=20"]
    op = sweeps._ops(load_config(), "OP3")[0][1]
    short, ref = (fourier.solve_coefficients_matrix(op, ModulationConfig(3.6, TWO_PI * 6e8, n))
                  for n in (1, 20))
    with pytest.raises(stomod.NumericalError,  # at mu >= 1 with no cause
                       match=r"negative power: min dp = -1\.07\d* makes 1 \+ dp <= 0$"):
        _refuse_large_dp(short, "error-analysis.n_ref")
    _refuse_large_dp(ref, "error-analysis.n_ref")
    args = [arg for key in sets for arg in ("--set", key)]
    result, out = run_cli(["error-analysis", "--op-label", "OP3", *args], tmp_path)
    assert result.exit_code == 0, result.output
    _, _, rows = read_table(out / "error_truncation.csv")
    assert [int(row[2]) for row in rows] == [1, 20]


def test_failing_reference_solve_is_named_by_its_order(tmp_path):
    # At OP1, 1 MHz, mu = 0.5 the order-40 reference fails the residual gate,
    # after its short order N = 5 is solved.
    sets = ["error-analysis.mu=0.5", "error-analysis.f_m_grid_hz=1e6",
            "error-analysis.n_values=5", "error-analysis.n_ref=40"]
    args = [arg for key in sets for arg in ("--set", key)]
    result, out = run_cli(["error-analysis", "--op-label", "OP1", *args], tmp_path)
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith(
        "numerical error: OP1 at f_m = 1e+06 Hz, n = 40: harmonic-balance residual"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_table_docstring(command):
    result = invoke([command, "--help"])
    assert result.exit_code == 0
    table_func = getattr(sweeps, command.replace("-", "_") + "_table")
    assert table_func.__doc__.split()[:4] == result.output.split("\n\n")[1].split()[:4]
    for option in ("--config", "--set", "--out", "--op-label"):
        assert option in result.output


def test_version_exits_0():
    result = invoke(["--version"])
    assert result.exit_code == 0
    assert result.output == f"stomod, version {stomod.__version__}\n"


# Small grids on OP1 only, so that each fuzzed run takes milliseconds.
FUZZ_GRIDS = {
    "operating-point": ["operating-point.xi_grid=1.0,2.0"],
    "psd-map": ["psd-map.beta1_grid=0.5"],
    "asymmetry-map": ["asymmetry-map.beta1_grid=0.5", "asymmetry-map.f_m_grid_hz=100e6"],
    "bandwidth": ["bandwidth.f_m_grid_hz=1e7,1e8"],
    "error-analysis": [
        "error-analysis.f_m_grid_hz=40e6",
        "error-analysis.n_values=3",
        "error-analysis.n_ref=6",
        "error-analysis.recursive_beta1_grid=0.5",
        "error-analysis.recursive_n_values=5",
    ],
}
# The size keys (n_harmonics, j_max, k_max, n_values, n_ref, range counts) are
# left out: a large value there makes a run slow, not wrong.
FUZZ_KEYS = {
    "operating-point": ["operating-point.xi_grid"],
    "psd-map": ["psd-map.beta1_grid", "psd-map.f_m_hz"],
    "asymmetry-map": [
        "asymmetry-map.beta1_grid",
        "asymmetry-map.f_m_grid_hz",
        "asymmetry-map.slice_f_m_hz",
    ],
    "bandwidth": [
        "bandwidth.mu",
        "bandwidth.f_m_grid_hz",
    ],
    "error-analysis": [
        "error-analysis.mu",
        "error-analysis.f_m_grid_hz",
        "error-analysis.recursive_beta1_grid",
        "error-analysis.recursive_f_m_hz",
    ],
}
SHARED_FUZZ_KEYS = [
    "device.mu0_h_app_t",
    "device.mu0_ms_t",
    "device.gamma_hz_per_t",
    "device.alpha",
    "device.nu",
    "operating-points.OP1",
]
FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e300, -1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def fuzzed_runs(draw):
    command = draw(st.sampled_from(COMMANDS))
    keys = st.sampled_from(SHARED_FUZZ_KEYS + FUZZ_KEYS[command])
    sets = draw(st.lists(st.tuples(keys, FUZZ_VALUES), min_size=1, max_size=2))
    overrides = FUZZ_GRIDS[command] + [f"{key}={value!r}" for key, value in sets]
    return [command, "--op-label", "OP1", *(a for o in overrides for a in ("--set", o))]


@settings(max_examples=150, deadline=None)
@given(args=fuzzed_runs())
def test_fuzzed_values_end_in_a_clean_exit(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        result = invoke([*args, "--out", str(out)])
        assert result.exit_code in (0, 2, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code != 0:
            assert not out.exists()
            return
        for path in out.iterdir():
            data = [line for line in path.read_text().splitlines() if not line.startswith("#")]
            assert not any("nan" in line or "inf" in line for line in data), path


# Every path of the library once, in the default config's OP2 at 100 MHz:
# both solvers, the mu back-solve and the bandwidth search, both spectra and
# the synthesis, both integrators and the projection, and both deviations.
WHOLE_LIBRARY = """
from stomod import (
    IntegrationConfig, ModulationConfig, derive_operating_point, integrate_full,
    integrate_reduced, modulation_bandwidth, peak_frequency_deviation, project_harmonics,
    psd_analytic, psd_fft, solve_coefficients_matrix, solve_coefficients_recursive,
    solve_mu_for_beta1, synthesize_time_trace,
)
from stomod.config import device_at, load_config
op = derive_operating_point(device_at(load_config(), "OP2"))
modcfg = ModulationConfig(mu=0.05, omega_m=6.283185307179586e8)
sol = solve_coefficients_matrix(op, modcfg)
solve_coefficients_recursive(op, modcfg)
solve_mu_for_beta1(op, 0.5, modcfg.omega_m)
modulation_bandwidth(op, 1e-4, 0.04 * op.gamma_p)
psd_analytic(sol)
psd_fft(synthesize_time_trace(sol), sol)
icfg = IntegrationConfig.for_steady_state(op, modcfg)
psd_fft(integrate_full(op, modcfg, icfg), sol)
project_harmonics(integrate_reduced(op, modcfg, icfg), modcfg, 10, op)
peak_frequency_deviation(sol, "index-based")
peak_frequency_deviation(sol, "instantaneous")
"""


@pytest.mark.parametrize("package, run", [
    ("scipy", ""), ("click", ""), ("scipy", WHOLE_LIBRARY),
], ids=["scipy", "click", "scipy-after-the-whole-library"])
def test_cli_import_loads_no(package, run):
    # The command line needs neither, and the library does not need scipy:
    # numpy is its one requirement, also where scipy is installed.
    src = str(Path(stomod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        f"import sys, stomod.cli\n{run}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
