"""Command-line interface: outputs, determinism, exit codes."""

import math

import pytest
from click.testing import CliRunner

from stomod.cli import main

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


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    return result, out


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

    def test_jobs_do_not_change_output(self, tmp_path):
        _, serial = run_cli(["asymmetry-map", *FAST_ASYM, "--jobs", "1"], tmp_path, "s")
        _, parallel = run_cli(["asymmetry-map", *FAST_ASYM, "--jobs", "4"], tmp_path, "p")
        for name in ("asymmetry_map.csv", "asymmetry_slice.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_float_format_fixed_width(self, tmp_path):
        _, out = run_cli(
            ["operating-point", "--set", "operating-point.xi_grid=1.2"], tmp_path
        )
        _, _, rows = read_table(out / "operating_point.csv")
        for value in rows[0]:
            mantissa = value.split("e")[0]
            assert len(mantissa.lstrip("-").replace(".", "")) == 12


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path):
        result, out = run_cli(
            ["operating-point", "--config", str(tmp_path / "missing.cfg")], tmp_path
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_bad_override_exits_2(self, tmp_path):
        result, out = run_cli(["psd-map", "--set", "oops"], tmp_path)
        assert result.exit_code == 2

    def test_unknown_op_label_exits_2(self, tmp_path):
        result, out = run_cli(["psd-map", *FAST_PSD, "--op-label", "OP9"], tmp_path)
        assert result.exit_code == 2

    def test_unsupported_format_exits_2(self, tmp_path):
        result, out = run_cli(["psd-map", *FAST_PSD, "--format", "json"], tmp_path)
        assert result.exit_code == 2

    def test_numerical_error_exits_3_without_partial_output(self, tmp_path):
        # beta1 = 50 is unreachable with the mu <= 0.5 back-solve window.
        result, out = run_cli(
            ["psd-map", "--set", "psd-map.beta1_grid=0.5,50.0"], tmp_path
        )
        assert result.exit_code == 3
        assert not out.exists() or not list(out.iterdir())

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
        # nu = 1e300 is finite but overflows f_sto = f_o + nu*Gamma_p/2pi.
        result, out = run_cli(
            ["operating-point", "--set", "device.nu=1e300"], tmp_path
        )
        assert result.exit_code == 3, result.output
        assert "not finite" in result.output
        assert not out.exists()

    def test_empty_table_exits_3_without_output(self, tmp_path):
        # The overflowing frequency index leaves no finite line to keep.
        result, out = run_cli(
            ["psd-map", "--set", "psd-map.beta1_grid=0.5", "--set", "device.nu=1e300"],
            tmp_path,
        )
        assert result.exit_code == 3, result.output
        assert not out.exists()
