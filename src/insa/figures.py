"""Tabular data behind the standard set of atmosphere plots.

Every table samples pressure altitude from 0 to 15 km in 0.1 km steps and
carries one ordinate column per series.  Available figure ids:

======== ===========================================================
id       content
======== ===========================================================
dTdHp    dT/dHp [K/km], the two-layer gradient step
dpdHp    dp/dHp [Pa/m]
Tisa     standard temperature [K]
T_dT     temperature [K] for delta_T in -20..+20 K (delta_p = 0)
dHdHp_dT slope dH/dHp [-] for delta_T in -20..+20 K
p        pressure [kPa]
H_dT     geopotential altitude [km] for delta_T series (delta_p = 0)
H_dp     geopotential altitude [km] for delta_p series (delta_T = 0)
H_dTdp   geopotential altitude [km] for five (delta_T, delta_p) pairs
======== ===========================================================
"""

from __future__ import annotations

from .constants import BETA_T_ABOVE, BETA_T_BELOW, G0, HP_TROP, R_AIR, Offsets, _Frozen, _set
from .errors import OutOfDomain
from .static_atmosphere import (
    d_geopotential_d_hp,
    geopotential_from_hp,
    pressure_from_hp,
    standard_temperature_from_hp,
    temperature_from_hp,
)

HP_KM_STEPS = 151  # 0.0 .. 15.0 km in 0.1 km steps
_KMS = tuple(i / 10 for i in range(HP_KM_STEPS))
_METRES = tuple(i * 100.0 for i in range(HP_KM_STEPS))

_DT_SERIES = tuple(Offsets(dt, 0.0) for dt in (-20.0, -10.0, 0.0, 10.0, 20.0))
_DP_SERIES = tuple(Offsets(0.0, dp) for dp in (-5000.0, -2500.0, 0.0, 2500.0, 5000.0))
_PAIR_SERIES = tuple(Offsets(dt, dp) for dt, dp in (
    (-20.0, -5000.0), (-20.0, 5000.0), (0.0, 0.0), (20.0, -5000.0), (20.0, 5000.0)
))


class FigureSeries(_Frozen):
    """One ordinate column together with the offsets that produced it."""

    __slots__ = _fields = ("name", "values", "offsets")

    def __init__(self, name: str, values: tuple[float, ...], offsets: Offsets | None = None):
        _set(self, "name", name)
        _set(self, "values", values)
        _set(self, "offsets", offsets)  # None for offset-independent curves


class FigureTable(_Frozen):
    __slots__ = _fields = ("figure_id", "abscissa_km", "series")

    def __init__(self, figure_id: str, abscissa_km: tuple[float, ...],
                 series: tuple[FigureSeries, ...]):
        _set(self, "figure_id", figure_id)
        _set(self, "abscissa_km", abscissa_km)  # pressure altitude samples [km]
        _set(self, "series", series)


def _gradient_K_per_km(hp: float) -> float:
    return (BETA_T_BELOW if hp <= HP_TROP else BETA_T_ABOVE) * 1000.0


def _dp_dhp(hp: float) -> float:
    return -G0 * pressure_from_hp(hp) / (R_AIR * standard_temperature_from_hp(hp))


def _geopotential_km(hp: float, offsets: Offsets) -> float:
    return geopotential_from_hp(hp, offsets) / 1000.0


# Figure id -> (the name of its one curve, or the offsets of its series;
# the plotted function of Hp [m], taking the offsets too for a series).
_FIGURES = {
    "dTdHp": ("dT_dHp_K_per_km", _gradient_K_per_km),
    "dpdHp": ("dp_dHp_Pa_per_m", _dp_dhp),
    "Tisa": ("T_isa_K", standard_temperature_from_hp),
    "T_dT": (_DT_SERIES, temperature_from_hp),
    "dHdHp_dT": (_DT_SERIES, d_geopotential_d_hp),
    "p": ("p_kPa", lambda hp: pressure_from_hp(hp) / 1000.0),
    "H_dT": (_DT_SERIES, _geopotential_km),
    "H_dp": (_DP_SERIES, _geopotential_km),
    "H_dTdp": (_PAIR_SERIES, _geopotential_km),
}

FIGURE_IDS = tuple(_FIGURES)


def build_figure(figure_id: str) -> FigureTable:
    """Compute the data table for one figure id."""
    try:
        curves, fn = _FIGURES[figure_id]
    except KeyError:
        raise OutOfDomain(
            f"unknown figure id {figure_id!r}; choose one of {', '.join(FIGURE_IDS)}"
        ) from None
    if isinstance(curves, str):
        series = (FigureSeries(curves, tuple(map(fn, _METRES))),)
    else:
        series = tuple(
            FigureSeries(
                f"dT{o.delta_T:+g}K_dp{o.delta_p:+g}Pa",
                tuple(fn(hp, o) for hp in _METRES),
                o,
            )
            for o in curves
        )
    return FigureTable(figure_id, _KMS, series)


def render_table(table: FigureTable) -> str:
    """Render a figure table to plain tab-separated rows.

    Column 0 is the pressure altitude in km; the output is byte-stable
    across runs, so files can serve as golden references.
    """
    lines = []
    for row, hp_km in enumerate(table.abscissa_km):
        cells = [f"{hp_km:.12g}"]
        cells.extend(f"{s.values[row]:.12g}" for s in table.series)
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
