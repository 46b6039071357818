"""Command-line front-end.

Angles are given in degrees and altitudes in metres (or km with --km);
everything is converted to SI at this boundary.  Exit codes: 0 success,
2 usage error, 3 out-of-validity input, 4 observation not in the
troposphere, 5 file or parse problem.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from pathlib import Path

from . import __version__
from .constants import Offsets, validate_offsets
from .engine import QuasiStaticModel
from .errors import (
    AtmosphereError,
    EmptyNode,
    IncompleteGrid,
    NonMonotonicAxis,
    NotInTroposphere,
    OutOfValidityRange,
    ParseError,
)
from .figures import FIGURE_IDS, build_figure, render_table
from .geodesy import geodetic_to_geopotential, geopotential_to_geodetic
from .identification import Observation, identify_offsets, identify_offsets_batch
from .offset_field import GridField, load_grid, load_observations
from .static_atmosphere import (
    geopotential_from_hp,
    hp_from_geopotential,
    state_at_geopotential,
    state_at_pressure_altitude,
)


class _UsageError(Exception):
    """Options that parse but do not go together; exit code 2."""


def _exit_code(err: AtmosphereError | OSError) -> int:
    if isinstance(err, NotInTroposphere):
        return 4
    if isinstance(err, (OSError, ParseError, IncompleteGrid, NonMonotonicAxis, EmptyNode)):
        return 5
    return 3


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; bytes that are not UTF-8 are a ``ParseError``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 at byte {err.start} ({err.reason})") from None


def _altitude_m(value: float, in_km: bool) -> float:
    return value * 1000.0 if in_km else value


def _resolve_offsets(dt, dp, grid_path, t, lon, lat) -> Offsets:
    if grid_path is not None:
        if dt is not None or dp is not None:
            raise _UsageError("--grid cannot be combined with --dt/--dp")
        if t is None or lon is None or lat is None:
            raise _UsageError("--grid requires --time, --lon, and --lat")
        field = GridField(load_grid(_read_text(grid_path)))
        return QuasiStaticModel(field).offsets_at(t, math.radians(lon), math.radians(lat))
    if t is not None or lon is not None or lat is not None:
        raise _UsageError("--time, --lon, and --lat require --grid")
    return Offsets(delta_T=dt or 0.0, delta_p=dp or 0.0)


def cmd_props(hp, h_geo, h_geopot, dt, dp, grid_path, t, lon, lat, in_km, fmt):
    """Atmospheric state at one altitude for given offsets or a grid."""
    given = [v for v in (hp, h_geo, h_geopot) if v is not None]
    if len(given) != 1:
        raise _UsageError("give exactly one of --hp, --h-geo, --h-geopot")
    offsets = _resolve_offsets(dt, dp, grid_path, t, lon, lat)
    if hp is not None:
        state = state_at_pressure_altitude(_altitude_m(hp, in_km), offsets)
    elif h_geopot is not None:
        state = state_at_geopotential(_altitude_m(h_geopot, in_km), offsets)
    else:
        H = geodetic_to_geopotential(_altitude_m(h_geo, in_km))
        state = state_at_geopotential(H, offsets)
    h = geopotential_to_geodetic(state.H)
    values = (state.Hp, state.H, h, state.p, state.T, state.T_isa, state.rho)
    if fmt == "csv":
        print(",".join(repr(v) for v in values))
        return
    labels = ("Hp", "H", "h", "p", "T", "T_isa", "rho")
    units = ("m", "m", "m", "Pa", "K", "K", "kg/m^3")
    for label, value, unit in zip(labels, values, units):
        print(f"{label:5s} = {value:.6g} {unit}")


# Batch output goes to stdout in slices of this many rows: one write per
# slice rather than per row, with no more than a slice held as text.
_ROWS_PER_WRITE = 1024


def _write_records(records, as_csv: bool) -> None:
    """Write batch identification records to stdout, as csv or human lines."""
    import csv  # here, not at the top: no other command needs it

    buffer = io.StringIO()
    if as_csv:
        write = csv.writer(buffer, lineterminator="\n").writerow
        write(("t_s", "lon_deg", "lat_deg", "delta_t_k", "delta_p_pa", "error"))
    else:
        write = buffer.write
    for start in range(0, len(records), _ROWS_PER_WRITE):
        for t, lon, lat, offsets, error in records[start:start + _ROWS_PER_WRITE]:
            lon_deg, lat_deg = math.degrees(lon), math.degrees(lat)
            if as_csv:  # csv writes a float as its repr
                write((t, lon_deg, lat_deg, "", "", str(error)) if offsets is None else (
                    t, lon_deg, lat_deg, offsets.delta_T, offsets.delta_p, ""))
            else:
                result = f"error: {error}" if offsets is None else (
                    f"delta_T = {offsets.delta_T:.6g} K, delta_p = {offsets.delta_p:.6g} Pa")
                write(f"t={t:.6g} s lon={lon_deg:.6g} lat={lat_deg:.6g}: {result}\n")
        sys.stdout.write(buffer.getvalue())
        buffer.seek(0)
        buffer.truncate()


def cmd_identify(h, p, temp, t_s, lon, lat, obs_path, in_km, fmt):
    """Recover the offset pair behind ground observations."""
    # None is an option not given: a value equal to the default still counts.
    if obs_path is not None:
        if any(v is not None for v in (h, p, temp, t_s, lon, lat, in_km)):
            raise _UsageError(
                "--obs cannot be combined with --h/--p/--t/--time/--lon/--lat/--km")
        observations = load_observations(_read_text(obs_path))
        _write_records(identify_offsets_batch(observations), fmt == "csv")
        return
    if h is None or p is None or temp is None:
        raise _UsageError("give --h, --p, and --t (or --obs FILE)")
    t_s, lon, lat = (0.0 if v is None else v for v in (t_s, lon, lat))
    obs = Observation(
        t=t_s,
        lon=math.radians(lon),
        lat=math.radians(lat),
        h=_altitude_m(h, in_km),
        p=p,
        T=temp,
    )
    offsets = identify_offsets(obs)
    if fmt == "csv":
        print(f"{offsets.delta_T!r},{offsets.delta_p!r}")
    else:
        print(f"delta_T = {offsets.delta_T:.6g} K")
        print(f"delta_p = {offsets.delta_p:.6g} Pa")


_KINDS = ("h", "H", "Hp")


def cmd_convert(value, from_kind, to_kind, dt, dp, in_km, fmt):
    """Convert between geodetic, geopotential, and pressure altitude."""
    value = _altitude_m(value, in_km)
    if not math.isfinite(value):
        raise OutOfValidityRange(f"altitude {value!r} must be finite")
    offsets = validate_offsets(Offsets(delta_T=dt, delta_p=dp))
    if from_kind == "h":
        H = geodetic_to_geopotential(value)
    elif from_kind == "Hp":
        H = geopotential_from_hp(value, offsets)
    else:
        H = value
    if to_kind == "h":
        result = geopotential_to_geodetic(H)
    elif to_kind == "Hp":
        result = hp_from_geopotential(H, offsets)
    else:
        result = H
    if fmt == "csv":
        print(repr(result))
    else:
        print(f"{to_kind} = {result:.6f} m")


def cmd_figure(figure_id, output):
    """Write the data table behind one figure id (use - for stdout)."""
    table = build_figure(figure_id)
    text = render_table(table)
    if output == "-":
        sys.stdout.write(text)
        return
    Path(output).write_text(text, encoding="utf-8")
    print(
        f"wrote {figure_id}: {len(table.abscissa_km)} rows x"
        f" {1 + len(table.series)} columns -> {output}"
    )


def cmd_grid_validate(grid_file):
    """Check an offset grid file against the default bounds and print a summary."""
    grid = load_grid(_read_text(grid_file))
    dT = (float(grid.delta_T.min()), float(grid.delta_T.max()))
    dp = (float(grid.delta_p.min()), float(grid.delta_p.max()))
    validate_offsets(Offsets(dT[0], dp[0]))
    validate_offsets(Offsets(dT[1], dp[1]))
    lon_deg = [math.degrees(v) for v in grid.lon_axis]
    lat_deg = [math.degrees(v) for v in grid.lat_axis]
    print(f"nodes : {grid.n_nodes}")
    print(
        f"time  : {len(grid.t_axis)} values in [{grid.t_axis[0]:.6g}, {grid.t_axis[-1]:.6g}] s"
    )
    print(
        f"lon   : {len(lon_deg)} values in [{lon_deg[0]:.6g}, {lon_deg[-1]:.6g}] deg"
    )
    print(
        f"lat   : {len(lat_deg)} values in [{lat_deg[0]:.6g}, {lat_deg[-1]:.6g}] deg"
    )
    print(f"dT    : [{dT[0]:.6g}, {dT[1]:.6g}] K")
    print(f"dp    : [{dp[0]:.6g}, {dp[1]:.6g}] Pa")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every token ``float`` accepts as a value.

    Plain argparse reads ``-1e3``, ``-inf`` or ``-nan`` after an option as
    an option name of its own.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _input_file(path: str) -> str:
    """A file to read: a missing path or a directory is a usage error."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"File {path!r} does not exist.")
    return _output_file(path)


def _output_file(path: str) -> str:
    """A file to write, or - for stdout: a directory is a usage error."""
    if path != "-" and os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File {path!r} is a directory.")
    return path


def _parser(prog: str) -> _Parser:
    """The parser of every command.

    Built per call rather than at import, so ``import insa.cli`` stays
    cheap and each command runs the function this module holds at call
    time.
    """
    parser = _Parser(
        prog=prog,
        description="Non-standard atmosphere queries, conversions, and plot tables.",
        add_help=False,
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  add_help=False, allow_abbrev=False)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=run, usage_error=sub.error)
        return sub

    def number(sub, flag, help, **kwargs):
        sub.add_argument(flag, type=float, metavar="FLOAT", help=help, **kwargs)

    def km_and_format(sub, km_help):
        sub.add_argument("--km", dest="in_km", action="store_true", help=km_help)
        sub.add_argument("--format", dest="fmt", choices=("human", "csv"), default="human",
                         help="Output format. [default: human]")

    props = command("props", cmd_props)
    number(props, "--hp", "Pressure altitude.")
    number(props, "--h-geo", "Geodetic altitude.")
    number(props, "--h-geopot", "Geopotential altitude.")
    number(props, "--dt", "Temperature offset [K].")
    number(props, "--dp", "Pressure offset [Pa].")
    props.add_argument("--grid", dest="grid_path", type=_input_file, metavar="FILE",
                       help="Offset grid file backing the query.")
    number(props, "--time", "Time [s] for grid queries.", dest="t")
    number(props, "--lon", "Longitude [deg] for grid queries.")
    number(props, "--lat", "Latitude [deg] for grid queries.")
    km_and_format(props, "Altitudes are given in km.")

    # No defaults here: --obs rejects each of these when given at all.
    identify = command("identify", cmd_identify)
    number(identify, "--h", "Station geodetic altitude.")
    number(identify, "--p", "Measured pressure [Pa].")
    number(identify, "--t", "Measured temperature [K].", dest="temp")
    number(identify, "--time", "Observation time [s]. [default: 0.0]", dest="t_s")
    number(identify, "--lon", "Station longitude [deg]. [default: 0.0]")
    number(identify, "--lat", "Station latitude [deg]. [default: 0.0]")
    identify.add_argument("--obs", dest="obs_path", type=_input_file, metavar="FILE",
                          help="Observation file for batch identification.")
    km_and_format(identify, "Altitudes are given in km.")
    identify.set_defaults(in_km=None)

    convert = command("convert", cmd_convert)
    number(convert, "--value", "Altitude value to convert.", required=True)
    convert.add_argument("--from", dest="from_kind", choices=_KINDS, required=True,
                         help="Kind of the input altitude.")
    convert.add_argument("--to", dest="to_kind", choices=_KINDS, required=True,
                         help="Kind of the output altitude.")
    number(convert, "--dt", "Temperature offset [K]. [default: 0.0]", default=0.0)
    number(convert, "--dp", "Pressure offset [Pa]. [default: 0.0]", default=0.0)
    km_and_format(convert, "The input altitude is given in km.")

    figure = command("figure", cmd_figure)
    figure.add_argument("figure_id", choices=FIGURE_IDS)
    figure.add_argument("output", type=_output_file, metavar="OUTPUT")

    command("grid-validate", cmd_grid_validate).add_argument(
        "grid_file", type=_input_file, metavar="GRID_FILE")
    return parser


class _Main:
    """The ``insa`` command, run by its ``main`` method."""

    name = "insa"

    def main(self, args=None, prog_name=None, standalone_mode=True):
        """Run ``insa`` on ``args`` (default ``sys.argv[1:]``) and exit with its code.

        A usage error exits 2 with the usage on stderr, a domain or file
        error exits 3, 4 or 5 with ``error: ...`` on stderr.  With
        ``standalone_mode`` false, a call that succeeds returns 0 instead
        of raising ``SystemExit(0)``.
        """
        options = vars(_parser(prog_name or self.name).parse_args(args))
        run, usage_error = options.pop("run"), options.pop("usage_error")
        del options["command"]
        try:
            run(**options)
            code = 0
        except _UsageError as err:
            usage_error(str(err))
        except (AtmosphereError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            code = _exit_code(err)
        if code or standalone_mode:
            raise SystemExit(code)
        return code


# An object, not a function: perfbench's span tracer wraps every public
# callable of this module in place, while the console script, perfbench's
# traced child and the tests all enter through ``main.main``.
main = _Main()

if __name__ == "__main__":
    main.main()
