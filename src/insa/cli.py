"""Command-line front-end.

Angles are given in degrees and altitudes in metres (or km with --km);
everything is converted to SI at this boundary.  Exit codes: 0 success,
2 usage error, 3 out-of-validity input, 4 observation not in the
troposphere, 5 file or parse problem, 1 stdout closed early (``| head``).
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
    IncompleteGrid,
    NonMonotonicAxis,
    NotInTroposphere,
    OutOfValidityRange,
    ParseError,
)
from .figures import FIGURE_IDS, build_figure, render_table
from .geodesy import geodetic_to_geopotential, geopotential_to_geodetic
from .identification import Observation, identify_offsets, identify_offsets_batch
from .offset_field import GridField, _flat, _observation_slices, load_grid
from .static_atmosphere import (
    geopotential_from_hp,
    hp_from_geopotential,
    state_at_geopotential,
    state_at_pressure_altitude,
)


def _exit_code(err: AtmosphereError | OSError) -> int:
    if isinstance(err, NotInTroposphere):
        return 4
    if isinstance(err, (OSError, ParseError, IncompleteGrid, NonMonotonicAxis)):
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


def _resolve_offsets(args) -> Offsets:
    if args.grid is not None:
        if args.dt is not None or args.dp is not None:
            args.usage_error("--grid cannot be combined with --dt/--dp")
        if args.time is None or args.lon is None or args.lat is None:
            args.usage_error("--grid requires --time, --lon, and --lat")
        model = QuasiStaticModel(GridField(load_grid(_read_text(args.grid))))
        return model.offsets_at(args.time, math.radians(args.lon), math.radians(args.lat))
    if args.time is not None or args.lon is not None or args.lat is not None:
        args.usage_error("--time, --lon, and --lat require --grid")
    return Offsets(delta_T=args.dt or 0.0, delta_p=args.dp or 0.0)


def cmd_props(args):
    """Atmospheric state at one altitude for given offsets or a grid."""
    offsets = _resolve_offsets(args)
    if args.hp is not None:
        state = state_at_pressure_altitude(_altitude_m(args.hp, args.km), offsets)
    elif args.h_geopot is not None:
        state = state_at_geopotential(_altitude_m(args.h_geopot, args.km), offsets)
    else:
        H = geodetic_to_geopotential(_altitude_m(args.h_geo, args.km))
        state = state_at_geopotential(H, offsets)
    h = geopotential_to_geodetic(state.H)
    values = (state.Hp, state.H, h, state.p, state.T, state.T_isa, state.rho)
    if args.format == "csv":
        print(",".join(repr(v) for v in values))
        return
    labels = ("Hp", "H", "h", "p", "T", "T_isa", "rho")
    units = ("m", "m", "m", "Pa", "K", "K", "kg/m^3")
    for label, value, unit in zip(labels, values, units):
        print(f"{label:5s} = {value:.6g} {unit}")


# Batch rows are identified and formatted this many at a time, and each slice's text is one
# stdout write (a system call under `python -u` or on a terminal) once the last slice is done.
_ROWS_PER_WRITE = 1024


def _write_records(slices, as_csv: bool) -> None:
    """Write slices of batch identification records to stdout, as csv or human lines."""
    import csv  # here, not at the top: no other command needs it

    buffer = io.StringIO()
    if as_csv:
        write = csv.writer(buffer, lineterminator="\n").writerow
        write(("t_s", "lon_deg", "lat_deg", "delta_t_k", "delta_p_pa", "error"))
    else:
        write = buffer.write
    texts = []
    for records in slices:
        for t, lon, lat, offsets, error in records:
            lon_deg, lat_deg = math.degrees(lon), math.degrees(lat)
            if as_csv and offsets is None:
                write((t, lon_deg, lat_deg, "", "", str(error)))
            elif as_csv:  # csv's bytes: it writes a float as its repr, which needs no quoting
                buffer.write("%r,%r,%r,%r,%r,\n" % (t, lon_deg, lat_deg, *offsets))
            else:
                result = f"error: {error}" if offsets is None else (
                    f"delta_T = {offsets.delta_T:.6g} K, delta_p = {offsets.delta_p:.6g} Pa")
                write(f"t={t:.6g} s lon={lon_deg:.6g} lat={lat_deg:.6g}: {result}\n")
        texts.append(buffer.getvalue())
        buffer.seek(0)
        buffer.truncate()
    sys.stdout.writelines(texts)  # only now: a bad row in any slice leaves stdout empty


def cmd_identify(args):
    """Recover the offset pair behind ground observations."""
    # None is an option not given: a value equal to the default still counts.
    if args.obs is not None:
        if any(getattr(args, k) is not None for k in ("h", "p", "t", "time", "lon", "lat", "km")):
            args.usage_error(
                "--obs cannot be combined with --h/--p/--t/--time/--lon/--lat/--km")
        slices = _observation_slices(_read_text(args.obs), _ROWS_PER_WRITE)
        _write_records(map(identify_offsets_batch, slices), args.format == "csv")
        return
    if args.h is None or args.p is None or args.t is None:
        args.usage_error("give --h, --p, and --t (or --obs FILE)")
    t_s, lon, lat = (0.0 if v is None else v for v in (args.time, args.lon, args.lat))
    obs = Observation(
        t=t_s,
        lon=math.radians(lon),
        lat=math.radians(lat),
        h=_altitude_m(args.h, args.km),
        p=args.p,
        T=args.t,
    )
    offsets = identify_offsets(obs)
    if args.format == "csv":
        print(f"{offsets.delta_T!r},{offsets.delta_p!r}")
    else:
        print(f"delta_T = {offsets.delta_T:.6g} K")
        print(f"delta_p = {offsets.delta_p:.6g} Pa")


_KINDS = ("h", "H", "Hp")


def cmd_convert(args):
    """Convert between geodetic, geopotential, and pressure altitude."""
    value = _altitude_m(args.value, args.km)
    if not math.isfinite(value):
        raise OutOfValidityRange(f"altitude {value!r} must be finite")
    offsets = validate_offsets(Offsets(delta_T=args.dt, delta_p=args.dp))
    if args.from_kind == "h":
        H = geodetic_to_geopotential(value)
    elif args.from_kind == "Hp":
        H = geopotential_from_hp(value, offsets)
    else:
        H = value
    if args.to_kind == "h":
        result = geopotential_to_geodetic(H)
    elif args.to_kind == "Hp":
        result = hp_from_geopotential(H, offsets)
    else:
        result = H
    if args.format == "csv":
        print(repr(result))
    else:
        print(f"{args.to_kind} = {result:.6f} m")


def cmd_figure(args):
    """Write the data table behind one figure id (use - for stdout)."""
    table = build_figure(args.figure_id)
    text = render_table(table)
    if args.output == "-":
        sys.stdout.write(text)
        return
    Path(args.output).write_text(text, encoding="utf-8")
    print(
        f"wrote {args.figure_id}: {len(table.abscissa_km)} rows x"
        f" {1 + len(table.series)} columns -> {args.output}"
    )


def cmd_grid_validate(args):
    """Check an offset grid file against the default bounds and print a summary."""
    grid = load_grid(_read_text(args.grid_file))
    flat_T, flat_p = _flat(grid.delta_T), _flat(grid.delta_p)
    dT, dp = (min(flat_T), max(flat_T)), (min(flat_p), max(flat_p))
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
        sub.add_argument("--km", action="store_true", help=km_help)
        sub.add_argument("--format", choices=("human", "csv"), default="human",
                         help="Output format. [default: human]")

    props = command("props", cmd_props)
    altitude = props.add_mutually_exclusive_group(required=True)
    number(altitude, "--hp", "Pressure altitude.")
    number(altitude, "--h-geo", "Geodetic altitude.")
    number(altitude, "--h-geopot", "Geopotential altitude.")
    number(props, "--dt", "Temperature offset [K].")
    number(props, "--dp", "Pressure offset [Pa].")
    props.add_argument("--grid", type=_input_file, metavar="FILE",
                       help="Offset grid file backing the query.")
    number(props, "--time", "Time [s] for grid queries.")
    number(props, "--lon", "Longitude [deg] for grid queries.")
    number(props, "--lat", "Latitude [deg] for grid queries.")
    km_and_format(props, "Altitudes are given in km.")

    # No defaults here: --obs rejects each of these when given at all.
    identify = command("identify", cmd_identify)
    number(identify, "--h", "Station geodetic altitude.")
    number(identify, "--p", "Measured pressure [Pa].")
    number(identify, "--t", "Measured temperature [K].")
    number(identify, "--time", "Observation time [s]. [default: 0.0]")
    number(identify, "--lon", "Station longitude [deg]. [default: 0.0]")
    number(identify, "--lat", "Station latitude [deg]. [default: 0.0]")
    identify.add_argument("--obs", type=_input_file, metavar="FILE",
                          help="Observation file for batch identification.")
    km_and_format(identify, "Altitudes are given in km.")
    identify.set_defaults(km=None)

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

    def main(self, args=None, prog_name="insa"):
        """Run ``insa`` on ``args`` (default ``sys.argv[1:]``) and exit with its code.

        A usage error exits 2 with the usage on stderr, a domain or file
        error exits 3, 4 or 5 with ``error: ...`` on stderr, and a stdout
        closed before the output was written (``| head``) exits 1 in silence.
        """
        args = sys.argv[1:] if args is None else list(args)
        # argparse would read a "--" before the command name as that name.
        if args[:1] == ["--"] and args[1:2] and not args[1].startswith("-"):
            del args[0]
        options = _parser(prog_name).parse_args(args)
        try:
            options.run(options)
            sys.stdout.flush()  # a closed stdout fails here, not at exit
            code = 0
        except BrokenPipeError:
            # Python's SIGPIPE recipe: the interpreter's last flush goes to devnull.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 1
        except (AtmosphereError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            code = _exit_code(err)
        raise SystemExit(code)


# An object, not a function: perfbench's span tracer wraps every public
# callable of this module in place, while the console script, perfbench's
# traced child and the tests all enter through ``main.main``.
main = _Main()

if __name__ == "__main__":
    main.main()
