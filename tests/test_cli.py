import contextlib
import csv
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import insa
from insa import (
    Offsets,
    anchors,
    geodetic_to_geopotential,
    geopotential_from_hp,
    geopotential_to_geodetic,
    identify_offsets_batch,
    load_observations,
    pressure_from_hp,
    state_at_geopotential,
)
from insa import offset_field
from insa.cli import _ROWS_PER_WRITE, main

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

    def test_grid_latitude_beyond_pole_exit_code(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT)
        result = runner.invoke(
            main,
            ["props", "--hp", "0", "--grid", str(grid_file),
             "--time", "1800", "--lon", "15", "--lat", "100"],
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: latitude ")
        assert result.stderr.endswith(" rad outside [-pi/2, pi/2]\n")

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_grid_non_finite_time_message(self, runner, tmp_path, t):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT)
        result = runner.invoke(
            main,
            ["props", "--hp", "0", "--grid", str(grid_file),
             "--time", t, "--lon", "15", "--lat", "45"],
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == f"error: time must be finite, got {float(t)!r}\n"

    def test_exactly_one_altitude_required(self, runner):
        for args in (["props", "--dt", "0"], ["props", "--hp", "0", "--h-geo", "1"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert result.stdout == ""

    def test_geopotential_altitude_csv(self, runner):
        result = runner.invoke(
            main, ["props", "--h-geopot", "5000", "--dt", "10", "--dp", "-1000", "--format", "csv"]
        )
        assert result.exit_code == 0
        st = state_at_geopotential(5000.0, Offsets(10.0, -1000.0))
        values = (st.Hp, st.H, geopotential_to_geodetic(st.H), st.p, st.T, st.T_isa, st.rho)
        assert result.stdout == ",".join(repr(v) for v in values) + "\n"

    def test_grid_excludes_offsets(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT)
        result = runner.invoke(
            main,
            ["props", "--hp", "0", "--grid", str(grid_file), "--dt", "1",
             "--time", "1800", "--lon", "15", "--lat", "45"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--grid cannot be combined with --dt/--dp" in result.stderr
        assert result.stderr.startswith("usage: insa props ")
        assert "insa props: error: --grid cannot be combined with --dt/--dp" in result.stderr

    def test_grid_needs_query_point(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(GRID_TEXT)
        result = runner.invoke(main, ["props", "--hp", "0", "--grid", str(grid_file)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("option", ["--time", "--lon", "--lat"])
    def test_query_point_needs_grid(self, runner, option):
        result = runner.invoke(main, ["props", "--hp", "0", option, "5"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--time, --lon, and --lat require --grid" in result.stderr
        assert result.stderr.startswith("usage: insa props ")
        assert "insa props: error: --time, --lon, and --lat require --grid" in result.stderr

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

    # "0" equals the --time/--lon/--lat default: giving it still counts.
    @pytest.mark.parametrize("option", ["--time", "--lon", "--lat", "--h", "--p", "--t", "--km"])
    def test_batch_rejects_single_observation_options(self, runner, tmp_path, option):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(OBS_TEXT)
        given = [option] if option == "--km" else [option, "0"]
        result = runner.invoke(main, ["identify", "--obs", str(obs_file), *given])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--obs cannot be combined with --h/--p/--t/--time/--lon/--lat/--km" in result.stderr
        assert result.stderr.startswith("usage: insa identify ")
        assert ("insa identify: error: --obs cannot be combined with"
                " --h/--p/--t/--time/--lon/--lat/--km") in result.stderr

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

    def test_station_far_below_sea_level_exit_code(self, runner):
        result = runner.invoke(main, ["identify", "--h", "-45000", "--p", "101325", "--t", "288.15"])
        assert result.exit_code == 3
        assert "cannot reach mean sea level at a positive temperature" in result.stderr

    def test_station_far_below_sea_level_is_a_row_error(self, runner, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(OBS_TEXT + "90.0,10.0,40.0,-45000.0,101325.0,300.0\n")
        result = runner.invoke(main, ["identify", "--obs", str(obs_file), "--format", "csv"])
        assert result.exit_code == 0
        rows = result.stdout.splitlines()
        assert len(rows) == 4
        assert rows[1].startswith("0.0,10.0,40.0,0.0,")
        assert rows[3].startswith("90.0,10.0,40.0,,,")
        assert "cannot reach mean sea level at a positive temperature" in rows[3]

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


def reference_identify_output(records, fmt):
    """The row-by-row batch writer that the sliced one replaced, kept as its reference."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if fmt == "csv":
        writer.writerow(("t_s", "lon_deg", "lat_deg", "delta_t_k", "delta_p_pa", "error"))
    for rec in records:
        lon_deg, lat_deg = math.degrees(rec.lon), math.degrees(rec.lat)
        o = rec.offsets
        if fmt == "csv":
            result = ("", "", str(rec.error)) if o is None else (
                repr(o.delta_T), repr(o.delta_p), "")
            writer.writerow((repr(rec.t), repr(lon_deg), repr(lat_deg)) + result)
        else:
            result = f"error: {rec.error}" if o is None else (
                f"delta_T = {o.delta_T:.6g} K, delta_p = {o.delta_p:.6g} Pa")
            print(f"t={rec.t:.6g} s lon={lon_deg:.6g} lat={lat_deg:.6g}: {result}")


def _seam_observation_text(n_rows, seed=17):
    """Forward-modelled rows, with rows above the tropopause on both sides of
    each slice seam and a few rows that fail in other ways."""
    rng = random.Random(seed)
    seams = {k * _ROWS_PER_WRITE + d for k in (1, 2) for d in (-1, 0)}
    lines = ["t_s,lon_deg,lat_deg,h_m,p_pa,t_k"]
    for i in range(n_rows):
        t, lon, lat = 30.0 * i, rng.uniform(0.0, 360.0), rng.uniform(-80.0, 80.0)
        h = rng.uniform(-300.0, 3000.0)
        if i in seams:  # NotInTroposphere; its message holds a comma
            p, T = pressure_from_hp(rng.uniform(11_500.0, 16_000.0)), 220.0
        elif i % 301 == 150:  # NonPhysical: the column cannot reach mean sea level
            h, p, T = -45_000.0, 101325.0, 300.0
        elif i % 301 == 7:  # OutOfValidityRange: delta_T past the default bound
            state = state_at_geopotential(geodetic_to_geopotential(h), Offsets(45.0, 0.0))
            p, T = state.p, state.T + 15.0
        else:
            o = Offsets(rng.uniform(-25.0, 25.0), rng.uniform(-4000.0, 4000.0))
            state = state_at_geopotential(geodetic_to_geopotential(h), o)
            p, T = state.p, state.T
        lines.append(f"{t!r},{lon!r},{lat!r},{h!r},{p!r},{T!r}")
    return "\n".join(lines) + "\n"


class TestIdentifySlices:
    """``identify --obs`` writes in slices of ``_ROWS_PER_WRITE`` rows, with the
    bytes of the row-by-row writer."""

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    @pytest.mark.parametrize(
        "n_rows", [1, _ROWS_PER_WRITE, 2 * _ROWS_PER_WRITE + _ROWS_PER_WRITE // 2]
    )
    def test_bytes_match_the_row_by_row_writer(self, runner, tmp_path, fmt, n_rows):
        text = _seam_observation_text(n_rows)
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(text)
        expected = io.StringIO()
        with contextlib.redirect_stdout(expected):
            reference_identify_output(identify_offsets_batch(load_observations(text)), fmt)
        result = runner.invoke(main, ["identify", "--obs", str(obs_file), "--format", fmt])
        assert result.exit_code == 0
        assert result.stdout == expected.getvalue()
        assert result.stdout.count("\n") == n_rows + (fmt == "csv")

    def test_seam_rows_cover_every_error_kind(self):
        n = _ROWS_PER_WRITE
        records = identify_offsets_batch(load_observations(_seam_observation_text(2 * n + n // 2)))
        kinds = {type(rec.error).__name__ for rec in records if rec.error is not None}
        assert kinds == {"NotInTroposphere", "NonPhysical", "OutOfValidityRange"}
        for i in (n - 1, n, 2 * n - 1, 2 * n):
            assert type(records[i].error).__name__ == "NotInTroposphere"
            assert "," in str(records[i].error)

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_one_stdout_write_per_slice(self, tmp_path, monkeypatch, fmt):
        writes = []

        class CountingStdout(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(_seam_observation_text(2 * _ROWS_PER_WRITE + 1))
        monkeypatch.setattr(sys, "stdout", CountingStdout())
        with pytest.raises(SystemExit) as exit_:
            main.main(["identify", "--obs", str(obs_file), "--format", fmt])
        assert exit_.value.code == 0
        assert len(writes) == 3

    def test_bad_row_in_a_late_slice_leaves_stdout_empty(self, runner, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "t_s,lon_deg,lat_deg,h_m,p_pa,t_k\n"
            + "0.0,0.0,0.0,0.0,101325.0,288.15\n" * (2 * _ROWS_PER_WRITE)
            + "0.0,0.0,95.0,0.0,101325.0,288.15\n"
        )
        for fmt in ("human", "csv"):
            result = runner.invoke(main, ["identify", "--obs", str(obs_file), "--format", fmt])
            assert result.exit_code == 5
            assert f"observation row {2 * _ROWS_PER_WRITE + 1}: latitude " in result.stderr
            assert " outside " in result.stderr
            assert result.stdout == ""

    def test_syntax_error_wins_over_an_earlier_bad_row(self, runner, tmp_path):
        n = 2 * _ROWS_PER_WRITE
        rows = ["0.0,0.0,0.0,0.0,101325.0,288.15"] * n
        rows[2] = "0.0,0.0,95.0,0.0,101325.0,288.15"
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "\n".join(["t_s,lon_deg,lat_deg,h_m,p_pa,t_k", *rows, "0.0,0.0,0.0,0.0,101325.0"])
            + "\n"
        )
        result = runner.invoke(main, ["identify", "--obs", str(obs_file)])
        assert result.exit_code == 5
        assert f"line {n + 2}: expected 6 fields, got 5" in result.stderr
        assert "observation row" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_peak_memory_per_row_stays_small(self, tmp_path, fmt):
        """Past the parsed numbers, one slice of rows and of output text is
        alive at a time, and no whole-file text: the traced peak grows by about
        the six parsed columns' 48 bytes a row, well under the ~440 bytes a row
        that holding every observation and record took."""

        def peak_bytes(n_rows):
            obs_file = tmp_path / f"obs{n_rows}.csv"
            obs_file.write_text(_seam_observation_text(n_rows))
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                tracemalloc.start()
                try:
                    with pytest.raises(SystemExit) as exit_:
                        main.main(["identify", "--obs", str(obs_file), "--format", fmt])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert exit_.value.code == 0
            return peak

        peak_bytes(1)  # imports and first-call caches, outside the comparison
        growth = (peak_bytes(8192) - peak_bytes(2048)) / (8192 - 2048)
        assert growth < 80

    def test_closed_stdout_exits_1_in_silence(self, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(_seam_observation_text(3 * _ROWS_PER_WRITE))
        proc = subprocess.Popen(
            [sys.executable, "-m", "insa.cli", "identify", "--obs", str(obs_file)],
            env=_env_with_src(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"t=0 s ")
        proc.stdout.close()  # as `| head -1` does
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert stderr == b""


class TestIdentifyRowCheck:
    """``identify --obs`` checks every row before its first write: all at once from
    the column sums and extremes, or, when those fail, row by row for the first
    bad row's error."""

    GOOD = "0.0,0.0,0.0,0.0,101325.0,288.15"
    N_ROWS = 2 * _ROWS_PER_WRITE + 5

    def _text(self, edits):
        rows = [self.GOOD.split(",") for _ in range(self.N_ROWS)]
        for row, field, value in edits:
            rows[row][field] = value
        return "\n".join(["t_s,lon_deg,lat_deg,h_m,p_pa,t_k", *map(",".join, rows)]) + "\n"

    @pytest.mark.parametrize("row", [0, _ROWS_PER_WRITE + 3])
    @pytest.mark.parametrize(
        "field, value",
        [(0, "1e999"), (0, "-1e999"), (1, "1e999"), (1, "-1e999"), (2, "90.0000000001"),
         (2, "-90.0000000001"), (2, "1e999"), (3, "-3178383.0"), (3, "1e999"), (4, "0.0"),
         (4, "-0.0"), (4, "1e999"), (5, "0.0"), (5, "-1e999")],
    )
    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_first_bad_row_raises_as_when_loaded(self, runner, tmp_path, row, field, value, fmt):
        # Past the first slice, the row is the only bad one: a check that missed it would
        # write a slice. In the first, a later row bad in another field must not be named.
        later = [(self.N_ROWS - 1, (field + 2) % 6, "1e999")] if row == 0 else []
        text = self._text([(row, field, value), *later])
        with pytest.raises(insa.ParseError) as expected:
            load_observations(text)
        assert str(expected.value).startswith(f"observation row {row + 1}: ")
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(text)
        result = runner.invoke(main, ["identify", "--obs", str(obs_file), "--format", fmt])
        assert result.exit_code == 5
        assert result.stderr == f"error: {expected.value}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "edits, at_once",
        [([(5, 2, "90.0"), (9, 2, "-90.0")], True), ([(5, 3, "-3178382.9999999995")], True),
         ([(5, 4, "5e-324"), (9, 5, "5e-324")], True), ([(5, 0, "1e308"), (9, 0, "1e308")], False),
         ([(5, 1, "-1e308"), (9, 1, "-1e308"), (11, 3, "1e308"), (12, 3, "1e308")], False)],
        ids=["latitude_poles", "altitude_floor", "tiny_p_and_T", "time_sum_overflows",
             "sums_overflow"],
    )
    def test_rows_on_the_edges_pass(self, runner, tmp_path, edits, at_once):
        text = self._text(edits)
        expected = io.StringIO()
        with contextlib.redirect_stdout(expected):
            reference_identify_output(identify_offsets_batch(load_observations(text)), "csv")
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(text)
        with mock.patch.object(offset_field, "Observation", wraps=offset_field.Observation) as new:
            result = runner.invoke(main, ["identify", "--obs", str(obs_file), "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout == expected.getvalue()
        # An overflowing sum clears nothing at once, and every row is built twice.
        assert new.call_count == (1 if at_once else 2) * self.N_ROWS

    def test_one_observation_a_row_when_every_row_passes(self, runner, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(_seam_observation_text(self.N_ROWS))
        with mock.patch.object(offset_field, "Observation", wraps=offset_field.Observation) as new:
            result = runner.invoke(main, ["identify", "--obs", str(obs_file)])
        assert result.exit_code == 0
        assert new.call_count == self.N_ROWS


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

    # "1e306 --km" is finite until it is scaled to metres.
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e306 --km"])
    @pytest.mark.parametrize("from_kind, to_kind", [("H", "h"), ("h", "H"), ("H", "H"), ("Hp", "Hp")])
    def test_non_finite_value_exit_code(self, runner, value, from_kind, to_kind):
        result = runner.invoke(
            main, ["convert", "--value", *value.split(), "--from", from_kind, "--to", to_kind]
        )
        assert result.exit_code == 3
        assert result.stdout == ""

    @pytest.mark.parametrize("dt, message", [
        ("999", "delta_T=999.0 K outside [-50.0, 50.0] K"),
        ("nan", "offsets must be finite, got Offsets(delta_T=nan, delta_p=0.0)"),
    ], ids=["out_of_bounds", "nan"])
    @pytest.mark.parametrize("to_kind", ["h", "H", "Hp"])
    @pytest.mark.parametrize("from_kind", ["h", "H", "Hp"])
    def test_offsets_checked_on_every_kind_pair(self, runner, from_kind, to_kind, dt, message):
        result = runner.invoke(
            main, ["convert", "--value", "1000", "--from", from_kind, "--to", to_kind, "--dt", dt]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

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

    def test_descending_axis_exit_code(self, runner, tmp_path):
        grid_file = tmp_path / "grid.csv"
        grid_file.write_text(
            GRID_TEXT.splitlines()[0] + "\n"
            + "".join(f"{t},{lon},{lat},10.0,2500.0\n"
                      for t in (3600.0, 0.0) for lon in (10.0, 20.0) for lat in (40.0, 50.0))
        )
        result = runner.invoke(main, ["grid-validate", str(grid_file)])
        assert result.exit_code == 5
        assert "descending order" in result.stderr

    def test_peak_memory_per_row_is_below_the_file_bytes(self, tmp_path):
        """The file is read in pieces: the traced peak grows by the five parsed
        columns' 40 bytes a row, less than the file's own bytes a row."""

        def growth(n_t):
            rows = [f"{t!r},{lon!r},{lat!r},{math.sin(t + lon) * 20!r},{math.cos(lat) * 999!r}\n"
                    for t in range(0, n_t * 3600, 3600)
                    for lon in range(0, 360, 5)
                    for lat in range(-90, 91, 2)]
            grid_file = tmp_path / f"grid{n_t}.csv"
            grid_file.write_text(GRID_TEXT.splitlines()[0] + "\n" + "".join(rows))
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                tracemalloc.start()
                try:
                    with pytest.raises(SystemExit) as exit_:
                        main.main(["grid-validate", str(grid_file)])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert exit_.value.code == 0
            return peak, len(rows), grid_file.stat().st_size

        growth(2)  # first-call caches, outside the comparison
        (peak_a, rows_a, size_a), (peak_b, rows_b, size_b) = growth(2), growth(8)
        file_bytes_per_row = (size_b - size_a) / (rows_b - rows_a)
        assert file_bytes_per_row > 45  # more than the columns take: 51 here
        # 40 here; 91 with the whole text held, as when the file was read at once.
        assert (peak_b - peak_a) / (rows_b - rows_a) < file_bytes_per_row


@pytest.mark.parametrize(
    "args",
    [
        ["identify", "--obs", "{}"],
        ["grid-validate", "{}"],
        ["props", "--grid", "{}", "--time", "0", "--lon", "0", "--lat", "0", "--hp", "0"],
    ],
    ids=["identify", "grid-validate", "props"],
)
def test_non_utf8_file_exit_code(runner, tmp_path, args):
    path = tmp_path / "input.csv"
    path.write_bytes(b"\xff")
    result = runner.invoke(main, [a.format(path) for a in args])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert str(path) in result.stderr


@pytest.mark.parametrize(
    "args, header",
    [
        (["identify", "--obs", "{}"], "t_s,lon_deg,lat_deg,h_m,p_pa,t_k"),
        (["grid-validate", "{}"], "t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa"),
        (["props", "--grid", "{}", "--time", "0", "--lon", "0", "--lat", "0", "--hp", "0"],
         "t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa"),
    ],
    ids=["identify", "grid-validate", "props"],
)
def test_bad_byte_after_100_kb_wins_over_a_syntax_error_on_line_2(runner, tmp_path, args, header):
    n_fields = header.count(",") + 1
    head = "".join([header, "\n", "abc,1.0\n", *(",".join(["1.0"] * n_fields) + "\n"
                                                 for _ in range(30_000))]).encode()
    assert len(head) > 100_000
    path = tmp_path / "input.csv"
    path.write_bytes(head + b"\xff1.0\n")
    result = runner.invoke(main, [a.format(path) for a in args])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr == f"error: {path}: not UTF-8 at byte {len(head)} (invalid start byte)\n"


# Usage errors the parser raises by itself, and a negative value after an option.
@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["convert", "--val", "1000", "--from", "H", "--to", "H"], 2),
        (["props", "--hp", "0", "--grid", "{missing}", "--time", "0", "--lon", "0", "--lat", "0"], 2),
        (["props", "--hp", "0", "--grid", "{dir}", "--time", "0", "--lon", "0", "--lat", "0"], 2),
        (["identify", "--obs", "{missing}"], 2),
        (["identify", "--obs", "{dir}"], 2),
        (["grid-validate", "{missing}"], 2),
        (["grid-validate", "{dir}"], 2),
        (["props", "--hp", "0", "--dp", "-1e3", "--format", "csv"], 0),
        (["--", "props", "--hp", "0", "--dp", "-1e3", "--format", "csv"], 0),
    ],
    ids=["abbreviated-option", "grid-missing", "grid-dir", "obs-missing", "obs-dir",
         "grid-validate-missing", "grid-validate-dir", "negative-value",
         "leading-double-dash"],
)
def test_parser_checks(runner, tmp_path, args, exit_code):
    paths = {"missing": tmp_path / "missing.csv", "dir": tmp_path}
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == exit_code
    if exit_code:
        assert result.stdout == ""
        return
    st = insa.state_at_pressure_altitude(0.0, Offsets(0.0, -1000.0))
    values = (st.Hp, st.H, geopotential_to_geodetic(st.H), st.p, st.T, st.T_isa, st.rho)
    assert result.stdout == ",".join(repr(v) for v in values) + "\n"


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.stdout == f"insa, version {insa.__version__}\n"


def _env_with_src():
    """The environment, with the directory this ``insa`` came from first on the path."""
    src = str(Path(insa.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_numpy_unloaded():
    env = _env_with_src()
    code = (
        "import sys, insa; print('numpy' in sys.modules);"
        " import insa.cli; print('numpy' in sys.modules);"
        " print(*(m in sys.modules for m in ('click', 'dataclasses', 'inspect')), file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]
    assert out.stderr.split() == ["False", "False", "False"]


def test_grid_paths_leave_numpy_unloaded(tmp_path):
    grid_file = tmp_path / "grid.csv"
    grid_file.write_text(GRID_TEXT)
    code = f"""
import contextlib, io, math, sys
from insa import GridField, load_grid
from insa.cli import main
for args in (["props", "--hp", "0", "--grid", {str(grid_file)!r}, "--time", "1800",
              "--lon", "15", "--lat", "45"], ["grid-validate", {str(grid_file)!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main.main(args=args)
        except SystemExit as exit_:
            assert exit_.code == 0, (args, exit_.code)
with open({str(grid_file)!r}, encoding="utf-8") as f:
    field = GridField(load_grid(f.read()))
assert field.evaluate(1800.0, math.radians(15.0), 0.7) == (10.0, 2500.0)
print("numpy" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.split() == ["False"]
