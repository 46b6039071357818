import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import insa
from insa import Offsets, anchors, geopotential_from_hp, pressure_from_hp
from insa.cli import main

GRID_TEXT = (
    "t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa\n"
    + "\n".join(
        f"{t},{lon},{lat},10.0,2500.0"
        for t in (0.0, 3600.0)
        for lon in (10.0, 20.0)
        for lat in (40.0, 50.0)
    )
    + "\n"
)

OBS_TEXT = (
    "t_s,lon_deg,lat_deg,h_m,p_pa,t_k\n"
    "0.0,10.0,40.0,0.0,101325.0,288.15\n"
    f"60.0,20.0,50.0,300.0,{pressure_from_hp(12000.0)!r},220.0\n"
)

# One tropospheric row and one above the tropopause, whose message holds a
# comma, so the csv quoting is pinned as well.
GOLDEN_OBS_TEXT = (
    "t_s,lon_deg,lat_deg,h_m,p_pa,t_k\n"
    "30.0,12.5,47.25,1234.5,87000.0,280.0\n"
    "60.0,200.0,-50.0,300.0,19330.382508074435,220.0\n"
)
_GOLDEN_ERROR = (
    "pressure 19330.382508074435 Pa puts the station at Hp=11985.1 m,"
    " at or above the tropopause at 11000 m"
)
GOLDEN_IDENTIFY = {
    "human": (
        "t=30 s lon=12.5 lat=47.25: delta_T = 0.0865875 K, delta_p = -399.199 Pa\n"
        f"t=60 s lon=200 lat=-50: error: {_GOLDEN_ERROR}\n"
    ),
    "csv": (
        "t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa,error\n"
        "30.0,12.5,47.25,0.08658751395535091,-399.19919144452433,\n"
        f'60.0,200.0,-50.0,,,"{_GOLDEN_ERROR}"\n'
    ),
}


@pytest.fixture()
def runner():
    return CliRunner()


class TestProps:
    def test_standard_msl(self, runner):
        result = runner.invoke(main, ["props", "--hp", "0", "--dt", "0", "--dp", "0"])
        assert result.exit_code == 0
        assert "p     = 101325 Pa" in result.output
        assert "T     = 288.15 K" in result.output
        assert "rho   = 1.225 kg/m^3" in result.output

    def test_geodetic_altitude_converted(self, runner):
        result = runner.invoke(main, ["props", "--h-geo", "10000", "--dt", "0", "--dp", "0"])
        assert result.exit_code == 0
        assert "H     = 9984.29 m" in result.output
        assert "h     = 10000 m" in result.output

    def test_cold_tropopause(self, runner):
        result = runner.invoke(main, ["props", "--hp", "11000", "--dt", "-20", "--dp", "0"])
        assert result.exit_code == 0
        assert "T     = 196.65 K" in result.output

    def test_km_flag(self, runner):
        result = runner.invoke(main, ["props", "--hp", "11", "--km"])
        assert result.exit_code == 0
        assert "T_isa = 216.65 K" in result.output

    def test_csv_row_full_precision(self, runner):
        result = runner.invoke(main, ["props", "--hp", "0", "--format", "csv"])
        assert result.exit_code == 0
        fields = result.output.strip().split(",")
        assert len(fields) == 7
        assert float(fields[0]) == 0.0
        assert float(fields[3]) == 101325.0
        assert float(fields[6]) == pytest.approx(1.225000018124288, abs=1e-15)

    def test_grid_backed_query(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT)
        result = runner.invoke(
            main,
            ["props", "--hp", "0", "--grid", str(grid_file),
             "--time", "1800", "--lon", "15", "--lat", "45"],
        )
        assert result.exit_code == 0
        assert "T     = 298.15 K" in result.output

    def test_grid_nan_longitude_exit_code(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT)
        result = runner.invoke(
            main,
            ["props", "--hp", "0", "--grid", str(grid_file),
             "--time", "1800", "--lon", "nan", "--lat", "45"],
        )
        assert result.exit_code == 3
        assert "longitude must be finite" in result.output

    def test_exactly_one_altitude_required(self, runner):
        assert runner.invoke(main, ["props", "--dt", "0"]).exit_code == 2
        assert (
            runner.invoke(main, ["props", "--hp", "0", "--h-geo", "1"]).exit_code == 2
        )

    def test_grid_needs_query_point(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT)
        result = runner.invoke(main, ["props", "--hp", "0", "--grid", str(grid_file)])
        assert result.exit_code == 2

    def test_out_of_validity_exit_code(self, runner):
        result = runner.invoke(main, ["props", "--hp", "25000"])
        assert result.exit_code == 3

    def test_non_physical_exit_code(self, runner):
        result = runner.invoke(main, ["props", "--hp", "0", "--dp", "-101325"])
        assert result.exit_code == 3


class TestIdentify:
    def test_standard_observation(self, runner):
        result = runner.invoke(
            main, ["identify", "--h", "0", "--p", "101325", "--t", "288.15"]
        )
        assert result.exit_code == 0
        assert "delta_T = 0 K" in result.output
        assert "delta_p =" in result.output

    def test_forward_modeled_observation(self, runner):
        from insa import geodetic_to_geopotential, state_at_geopotential

        state = state_at_geopotential(
            geodetic_to_geopotential(700.0), Offsets(12.0, -3500.0)
        )
        result = runner.invoke(
            main,
            ["identify", "--h", "700", "--p", repr(state.p), "--t", repr(state.T),
             "--format", "csv"],
        )
        assert result.exit_code == 0
        dt, dp = (float(v) for v in result.output.strip().split(","))
        assert dt == pytest.approx(12.0, abs=1e-7)
        assert dp == pytest.approx(-3500.0, abs=1e-7)

    def test_stratospheric_pressure_exit_code(self, runner):
        result = runner.invoke(
            main,
            ["identify", "--h", "300", "--p", repr(pressure_from_hp(12000.0)),
             "--t", "220"],
        )
        assert result.exit_code == 4
        assert "tropopause" in result.stderr

    def test_batch_file(self, runner, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(OBS_TEXT)
        result = runner.invoke(
            main, ["identify", "--obs", str(obs_file), "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa,error"
        good = lines[1].split(",")
        assert float(good[3]) == pytest.approx(0.0, abs=1e-9)
        assert good[5] == ""
        assert "tropopause" in lines[2]

    def test_batch_human(self, runner, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(OBS_TEXT)
        result = runner.invoke(main, ["identify", "--obs", str(obs_file)])
        assert result.exit_code == 0
        assert "delta_T = 0 K" in result.output
        assert "error:" in result.output

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_batch_output_bytes(self, runner, tmp_path, fmt):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(GOLDEN_OBS_TEXT)
        result = runner.invoke(main, ["identify", "--obs", str(obs_file), "--format", fmt])
        assert result.exit_code == 0
        assert result.stdout == GOLDEN_IDENTIFY[fmt]

    def test_incomplete_arguments(self, runner):
        assert runner.invoke(main, ["identify", "--h", "0"]).exit_code == 2

    def test_malformed_file_exit_code(self, runner, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("not,a,header\n")
        result = runner.invoke(main, ["identify", "--obs", str(obs_file)])
        assert result.exit_code == 5

    def test_station_below_conversion_domain_exit_code(self, runner, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(OBS_TEXT.replace(",0.0,101325.0,", ",-4000000.0,101325.0,"))
        result = runner.invoke(main, ["identify", "--obs", str(obs_file)])
        assert result.exit_code == 5
        assert "observation row 1: geodetic altitude -4000000.0 m outside" in result.stderr

    def test_non_ascii_digits_exit_code(self, runner, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "t_s,lon_deg,lat_deg,h_m,p_pa,t_k\n\u0660,\u0661\u0660,\u0664\u0660,"
            "\u0661\u0660\u0660,\u0661\u0660\u0660\u0660\u0660\u0660,\u0662\u0668\u0660\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["identify", "--obs", str(obs_file)])
        assert result.exit_code == 5
        assert "not a plain decimal number" in result.stderr


class TestConvert:
    def test_msl_maps_to_hp_msl(self, runner):
        expected = anchors(Offsets(0.0, 5000.0)).Hp_msl
        for dt in ("-20", "0", "20"):
            result = runner.invoke(
                main,
                ["convert", "--value", "0", "--from", "H", "--to", "Hp",
                 "--dt", dt, "--dp", "5000"],
            )
            assert result.exit_code == 0
            assert result.output.strip() == f"Hp = {expected:.6f} m"

    def test_geodetic_round_trip(self, runner):
        up = runner.invoke(
            main, ["convert", "--value", "10000", "--from", "h", "--to", "H",
                   "--format", "csv"]
        )
        H = float(up.output)
        back = runner.invoke(
            main, ["convert", "--value", repr(H), "--from", "H", "--to", "h",
                   "--format", "csv"]
        )
        assert float(back.output) == pytest.approx(10000.0, abs=1e-9)

    def test_warm_tropopause_higher(self, runner):
        result = runner.invoke(
            main,
            ["convert", "--value", "11000", "--from", "Hp", "--to", "H", "--dt", "20"],
        )
        assert result.exit_code == 0
        value = float(result.output.split("=")[1].split()[0])
        assert value > 11000.0
        assert value == pytest.approx(
            geopotential_from_hp(11000.0, Offsets(20.0, 0.0)), abs=1e-6
        )

    def test_identity_kind(self, runner):
        result = runner.invoke(
            main, ["convert", "--value", "1234.5", "--from", "H", "--to", "H"]
        )
        assert result.output.strip() == "H = 1234.500000 m"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("from_kind, to_kind", [("H", "h"), ("h", "H"), ("H", "H"), ("Hp", "Hp")])
    def test_non_finite_value_exit_code(self, runner, value, from_kind, to_kind):
        result = runner.invoke(
            main, ["convert", "--value", value, "--from", from_kind, "--to", to_kind]
        )
        assert result.exit_code == 3
        assert result.stdout == ""

    def test_km_input(self, runner):
        result = runner.invoke(
            main, ["convert", "--value", "11", "--km", "--from", "Hp", "--to", "H",
                   "--format", "csv"]
        )
        assert float(result.output) == pytest.approx(11000.0, abs=1e-9)


class TestFigure:
    def test_writes_byte_identical_tables(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert runner.invoke(main, ["figure", "H_dp", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["figure", "H_dp", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        first_row = out1.read_text().splitlines()[0].split("\t")
        assert len(first_row) == 6

    def test_stdout_mode(self, runner):
        result = runner.invoke(main, ["figure", "Tisa", "-"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "0\t288.15"

    def test_unknown_id_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["figure", "bogus", str(tmp_path / "x.txt")])
        assert result.exit_code == 2


class TestGridValidate:
    def test_valid_grid_summary(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT)
        result = runner.invoke(main, ["grid-validate", str(grid_file)])
        assert result.exit_code == 0
        assert "nodes : 8" in result.output

    def test_grid_outside_default_bounds_exit_code(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT.replace(",10.0,2500.0", ",77.0,2500.0"))
        result = runner.invoke(main, ["grid-validate", str(grid_file)])
        assert result.exit_code == 3
        assert "delta_T=77.0 K outside" in result.stderr

    def test_incomplete_grid_exit_code(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text("\n".join(GRID_TEXT.splitlines()[:-1]) + "\n")
        result = runner.invoke(main, ["grid-validate", str(grid_file)])
        assert result.exit_code == 5
        assert "missing node" in result.stderr


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(insa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, insa.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
