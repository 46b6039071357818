"""Command-line front-end.

Angles are given in degrees and altitudes in metres (or km with --km);
everything is converted to SI at this boundary.  Exit codes: 0 success,
2 usage error, 3 out-of-validity input, 4 observation not in the
troposphere, 5 file or parse problem.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from pathlib import Path

import click

from .constants import Offsets, validate_offsets
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

def _exit_code(err: AtmosphereError) -> int:
    if isinstance(err, NotInTroposphere):
        return 4
    if isinstance(err, (ParseError, IncompleteGrid, NonMonotonicAxis, EmptyNode)):
        return 5
    return 3


def _domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except AtmosphereError as err:
            click.echo(f"error: {err}", err=True)
            raise SystemExit(_exit_code(err))
        except OSError as err:
            click.echo(f"error: {err}", err=True)
            raise SystemExit(5)

    return wrapper


@click.group()
@click.version_option(package_name="insa")
def main():
    """Non-standard atmosphere queries, conversions, and plot tables."""


def _altitude_m(value: float, in_km: bool) -> float:
    return value * 1000.0 if in_km else value


def _resolve_offsets(dt, dp, grid_path, t, lon, lat) -> Offsets:
    if grid_path is not None:
        if dt is not None or dp is not None:
            raise click.UsageError("--grid cannot be combined with --dt/--dp")
        if t is None or lon is None or lat is None:
            raise click.UsageError("--grid requires --time, --lon, and --lat")
        field = GridField(load_grid(Path(grid_path).read_text(encoding="utf-8")))
        return field.evaluate(t, math.radians(lon), math.radians(lat))
    return Offsets(delta_T=dt or 0.0, delta_p=dp or 0.0)


@main.command("props")
@click.option("--hp", type=float, default=None, help="Pressure altitude.")
@click.option("--h-geo", type=float, default=None, help="Geodetic altitude.")
@click.option("--h-geopot", type=float, default=None, help="Geopotential altitude.")
@click.option("--dt", type=float, default=None, help="Temperature offset [K].")
@click.option("--dp", type=float, default=None, help="Pressure offset [Pa].")
@click.option("--grid", "grid_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Offset grid file backing the query.")
@click.option("--time", "t", type=float, default=None, help="Time [s] for grid queries.")
@click.option("--lon", type=float, default=None, help="Longitude [deg] for grid queries.")
@click.option("--lat", type=float, default=None, help="Latitude [deg] for grid queries.")
@click.option("--km", "in_km", is_flag=True, help="Altitudes are given in km.")
@click.option("--format", "fmt", type=click.Choice(("human", "csv")), default="human",
              show_default=True, help="Output format.")
@_domain_errors
def cmd_props(hp, h_geo, h_geopot, dt, dp, grid_path, t, lon, lat, in_km, fmt):
    """Atmospheric state at one altitude for given offsets or a grid."""
    given = [v for v in (hp, h_geo, h_geopot) if v is not None]
    if len(given) != 1:
        raise click.UsageError("give exactly one of --hp, --h-geo, --h-geopot")
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
        click.echo(",".join(repr(v) for v in values))
        return
    labels = ("Hp", "H", "h", "p", "T", "T_isa", "rho")
    units = ("m", "m", "m", "Pa", "K", "K", "kg/m^3")
    for label, value, unit in zip(labels, values, units):
        click.echo(f"{label:5s} = {value:.6g} {unit}")


@main.command("identify")
@click.option("--h", type=float, default=None, help="Station geodetic altitude.")
@click.option("--p", type=float, default=None, help="Measured pressure [Pa].")
@click.option("--t", "temp", type=float, default=None, help="Measured temperature [K].")
@click.option("--time", "t_s", type=float, default=0.0, show_default=True,
              help="Observation time [s].")
@click.option("--lon", type=float, default=0.0, show_default=True,
              help="Station longitude [deg].")
@click.option("--lat", type=float, default=0.0, show_default=True,
              help="Station latitude [deg].")
@click.option("--obs", "obs_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Observation file for batch identification.")
@click.option("--km", "in_km", is_flag=True, help="Altitudes are given in km.")
@click.option("--format", "fmt", type=click.Choice(("human", "csv")), default="human",
              show_default=True, help="Output format.")
@_domain_errors
def cmd_identify(h, p, temp, t_s, lon, lat, obs_path, in_km, fmt):
    """Recover the offset pair behind ground observations."""
    if obs_path is not None:
        if h is not None or p is not None or temp is not None:
            raise click.UsageError("--obs cannot be combined with --h/--p/--t")
        observations = load_observations(Path(obs_path).read_text(encoding="utf-8"))
        records = identify_offsets_batch(observations)
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
                click.echo(f"t={rec.t:.6g} s lon={lon_deg:.6g} lat={lat_deg:.6g}: {result}")
        return
    if h is None or p is None or temp is None:
        raise click.UsageError("give --h, --p, and --t (or --obs FILE)")
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
        click.echo(f"{offsets.delta_T!r},{offsets.delta_p!r}")
    else:
        click.echo(f"delta_T = {offsets.delta_T:.6g} K")
        click.echo(f"delta_p = {offsets.delta_p:.6g} Pa")


_KINDS = ("h", "H", "Hp")


@main.command("convert")
@click.option("--value", type=float, required=True, help="Altitude value to convert.")
@click.option("--from", "from_kind", type=click.Choice(_KINDS), required=True,
              help="Kind of the input altitude.")
@click.option("--to", "to_kind", type=click.Choice(_KINDS), required=True,
              help="Kind of the output altitude.")
@click.option("--dt", type=float, default=0.0, show_default=True,
              help="Temperature offset [K].")
@click.option("--dp", type=float, default=0.0, show_default=True,
              help="Pressure offset [Pa].")
@click.option("--km", "in_km", is_flag=True, help="The input altitude is given in km.")
@click.option("--format", "fmt", type=click.Choice(("human", "csv")), default="human",
              show_default=True, help="Output format.")
@_domain_errors
def cmd_convert(value, from_kind, to_kind, dt, dp, in_km, fmt):
    """Convert between geodetic, geopotential, and pressure altitude."""
    if not math.isfinite(value):
        raise OutOfValidityRange(f"altitude {value!r} must be finite")
    offsets = Offsets(delta_T=dt, delta_p=dp)
    value = _altitude_m(value, in_km)
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
        click.echo(repr(result))
    else:
        click.echo(f"{to_kind} = {result:.6f} m")


@main.command("figure")
@click.argument("figure_id", type=click.Choice(FIGURE_IDS))
@click.argument("output", type=click.Path(dir_okay=False, allow_dash=True))
@_domain_errors
def cmd_figure(figure_id, output):
    """Write the data table behind one figure id (use - for stdout)."""
    table = build_figure(figure_id)
    text = render_table(table)
    if output == "-":
        click.echo(text, nl=False)
        return
    Path(output).write_text(text, encoding="utf-8")
    click.echo(
        f"wrote {figure_id}: {len(table.abscissa_km)} rows x"
        f" {1 + len(table.series)} columns -> {output}"
    )


@main.command("grid-validate")
@click.argument("grid_file", type=click.Path(exists=True, dir_okay=False))
@_domain_errors
def cmd_grid_validate(grid_file):
    """Check an offset grid file against the default bounds and print a summary."""
    grid = load_grid(Path(grid_file).read_text(encoding="utf-8"))
    dT = (float(grid.delta_T.min()), float(grid.delta_T.max()))
    dp = (float(grid.delta_p.min()), float(grid.delta_p.max()))
    validate_offsets(Offsets(dT[0], dp[0]))
    validate_offsets(Offsets(dT[1], dp[1]))
    lon_deg = [math.degrees(v) for v in grid.lon_axis]
    lat_deg = [math.degrees(v) for v in grid.lat_axis]
    click.echo(f"nodes : {grid.n_nodes}")
    click.echo(
        f"time  : {len(grid.t_axis)} values in [{grid.t_axis[0]:.6g}, {grid.t_axis[-1]:.6g}] s"
    )
    click.echo(
        f"lon   : {len(lon_deg)} values in [{lon_deg[0]:.6g}, {lon_deg[-1]:.6g}] deg"
    )
    click.echo(
        f"lat   : {len(lat_deg)} values in [{lat_deg[0]:.6g}, {lat_deg[-1]:.6g}] deg"
    )
    click.echo(f"dT    : [{dT[0]:.6g}, {dT[1]:.6g}] K")
    click.echo(f"dp    : [{dp[0]:.6g}, {dp[1]:.6g}] Pa")


if __name__ == "__main__":
    main()
