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

from dataclasses import dataclass

from .constants import BETA_T_ABOVE, BETA_T_BELOW, G0, HP_TROP, R_AIR, Offsets
from .errors import OutOfDomain
from .static_atmosphere import (
    d_geopotential_d_hp,
    geopotential_from_hp,
    pressure_from_hp,
    standard_temperature_from_hp,
    temperature_from_hp,
)

HP_KM_STEPS = 151  # 0.0 .. 15.0 km in 0.1 km steps

_DT_SERIES = tuple(Offsets(dt, 0.0) for dt in (-20.0, -10.0, 0.0, 10.0, 20.0))
_DP_SERIES = tuple(Offsets(0.0, dp) for dp in (-5000.0, -2500.0, 0.0, 2500.0, 5000.0))
_PAIR_SERIES = tuple(Offsets(dt, dp) for dt, dp in (
    (-20.0, -5000.0), (-20.0, 5000.0), (0.0, 0.0), (20.0, -5000.0), (20.0, 5000.0)
))


@dataclass(frozen=True)
class FigureSeries:
    """One ordinate column together with the offsets that produced it."""

    name: str
    values: tuple[float, ...]
    offsets: Offsets | None = None  # None for offset-independent curves


@dataclass(frozen=True)
class FigureTable:
    figure_id: str
    abscissa_km: tuple[float, ...]  # pressure altitude samples [km]
    series: tuple[FigureSeries, ...]


def _samples() -> tuple[tuple[float, ...], tuple[float, ...]]:
    kms = tuple(i / 10 for i in range(HP_KM_STEPS))
    metres = tuple(i * 100.0 for i in range(HP_KM_STEPS))
    return kms, metres


def _single(figure_id: str, name: str, fn) -> FigureTable:
    kms, metres = _samples()
    return FigureTable(
        figure_id=figure_id,
        abscissa_km=kms,
        series=(FigureSeries(name, tuple(fn(hp) for hp in metres)),),
    )


def _per_offsets(figure_id: str, offset_list, fn) -> FigureTable:
    kms, metres = _samples()
    series = []
    for offsets in offset_list:
        name = f"dT{offsets.delta_T:+g}K_dp{offsets.delta_p:+g}Pa"
        series.append(
            FigureSeries(name, tuple(fn(hp, offsets) for hp in metres), offsets)
        )
    return FigureTable(figure_id=figure_id, abscissa_km=kms, series=tuple(series))


def _build_dTdHp() -> FigureTable:
    def step(hp: float) -> float:
        beta = BETA_T_BELOW if hp <= HP_TROP else BETA_T_ABOVE
        return beta * 1000.0  # K/km

    return _single("dTdHp", "dT_dHp_K_per_km", step)


def _build_dpdHp() -> FigureTable:
    def slope(hp: float) -> float:
        return -G0 * pressure_from_hp(hp) / (R_AIR * standard_temperature_from_hp(hp))

    return _single("dpdHp", "dp_dHp_Pa_per_m", slope)


def _build_Tisa() -> FigureTable:
    return _single("Tisa", "T_isa_K", standard_temperature_from_hp)


def _build_p() -> FigureTable:
    return _single("p", "p_kPa", lambda hp: pressure_from_hp(hp) / 1000.0)


def _build_T_dT() -> FigureTable:
    return _per_offsets("T_dT", _DT_SERIES, temperature_from_hp)


def _build_dHdHp_dT() -> FigureTable:
    return _per_offsets("dHdHp_dT", _DT_SERIES, d_geopotential_d_hp)


def _geopotential_km(hp: float, offsets: Offsets) -> float:
    return geopotential_from_hp(hp, offsets) / 1000.0


def _build_H_dT() -> FigureTable:
    return _per_offsets("H_dT", _DT_SERIES, _geopotential_km)


def _build_H_dp() -> FigureTable:
    return _per_offsets("H_dp", _DP_SERIES, _geopotential_km)


def _build_H_dTdp() -> FigureTable:
    return _per_offsets("H_dTdp", _PAIR_SERIES, _geopotential_km)


_BUILDERS = {
    "dTdHp": _build_dTdHp,
    "dpdHp": _build_dpdHp,
    "Tisa": _build_Tisa,
    "T_dT": _build_T_dT,
    "dHdHp_dT": _build_dHdHp_dT,
    "p": _build_p,
    "H_dT": _build_H_dT,
    "H_dp": _build_H_dp,
    "H_dTdp": _build_H_dTdp,
}

FIGURE_IDS = tuple(_BUILDERS)


def build_figure(figure_id: str) -> FigureTable:
    """Compute the data table for one figure id."""
    try:
        builder = _BUILDERS[figure_id]
    except KeyError:
        raise OutOfDomain(
            f"unknown figure id {figure_id!r}; choose one of {', '.join(FIGURE_IDS)}"
        ) from None
    return builder()


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
