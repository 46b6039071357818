"""Offset recovery from ground observations of pressure and temperature.

A single tropospheric measurement of (p, T) at a known position fixes the
whole column: the pressure fixes the pressure altitude and with it the
standard temperature, the measured temperature then yields the
temperature offset directly, and walking the column down to mean sea
level yields the pressure offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import Iterable

from .constants import (
    BETA_T_BELOW,
    DEFAULT_OFFSET_BOUNDS,
    GBR,
    HP_MIN,
    HP_TROP,
    P0,
    T0,
    Offsets,
    validate_offsets,
)
from .errors import AtmosphereError, NonPhysical, NotInTroposphere, OutOfValidityRange
from .geodesy import check_position, geodetic_to_geopotential
from .static_atmosphere import TISA_MSL_TOL, _hp_below, _pressure_below, solve_tisa_msl

# Observations this close to the tropopause are rejected rather than
# extrapolated; the identification pipeline is strictly tropospheric.
TROPOPAUSE_MARGIN = 1.0  # [m]


@dataclass(frozen=True)
class Observation:
    """One ground measurement record."""

    t: float    # time [s]
    lon: float  # longitude [rad], normalized to [0, 2*pi)
    lat: float  # latitude [rad]
    h: float    # geodetic altitude of the station [m]
    p: float    # measured pressure [Pa]
    T: float    # measured temperature [K]

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise OutOfValidityRange(f"observation time must be finite, got {self.t!r}")
        object.__setattr__(self, "lon", check_position(self.lon, self.lat, self.h))
        if not (math.isfinite(self.p) and self.p > 0.0):
            raise NonPhysical(f"measured pressure must be positive, got {self.p!r}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise NonPhysical(f"measured temperature must be positive, got {self.T!r}")


def identify_offsets(obs: Observation) -> Offsets:
    """Recover the (delta_T, delta_p) pair behind one observation.

    Raises:
        NotInTroposphere: the measured pressure places the station at or
            above the tropopause (within TROPOPAUSE_MARGIN of it).
        OutOfValidityRange: the station falls below the validity floor,
            or the recovered offsets land outside the default bounds by
            more than the mean sea level solve's tolerance.
        NoConvergence: the mean sea level solve failed (never expected
            for a tropospheric observation).
    """
    # Station altitude to geopotential, pressure to pressure altitude.
    H = geodetic_to_geopotential(obs.h)
    Hp = _hp_below(obs.p)
    if Hp > HP_TROP - TROPOPAUSE_MARGIN:
        where = (
            "at or above" if Hp >= HP_TROP else f"within {TROPOPAUSE_MARGIN} m of"
        )
        raise NotInTroposphere(
            f"pressure {obs.p} Pa puts the station at Hp={Hp:.1f} m,"
            f" {where} the tropopause at {HP_TROP:.0f} m"
        )
    if Hp < HP_MIN:
        raise OutOfValidityRange(
            f"pressure {obs.p} Pa puts the station at Hp={Hp:.1f} m,"
            f" below the validity floor {HP_MIN} m"
        )
    # The temperature offset needs no altitude information at all.
    T_isa = T0 + BETA_T_BELOW * Hp
    delta_T = obs.T - T_isa
    # Walk the column down to mean sea level for the pressure offset.
    T_isa_msl = solve_tisa_msl(T_isa, H, delta_T)
    Hp_msl = (T_isa_msl - T0) / BETA_T_BELOW
    p_msl = _pressure_below(Hp_msl)
    # A component past a closed bound by no more than the walk's tolerance
    # (carried through the pressure law for delta_p) lies on that bound.
    b = DEFAULT_OFFSET_BOUNDS
    delta_T = _onto_bound(delta_T, b.delta_T_min, b.delta_T_max, TISA_MSL_TOL)
    delta_p = _onto_bound(
        p_msl - P0, b.delta_p_min, b.delta_p_max, TISA_MSL_TOL * GBR * p_msl / T_isa_msl
    )
    return validate_offsets(Offsets(delta_T=delta_T, delta_p=delta_p))


def _onto_bound(x: float, low: float, high: float, tol: float) -> float:
    inside = low if x < low else high if x > high else x
    return inside if abs(inside - x) <= tol else x


@dataclass(frozen=True)
class IdentificationRecord:
    """Per-observation result of a batch identification.

    Exactly one of ``offsets`` and ``error`` is set.
    """

    t: float
    lon: float
    lat: float
    offsets: Offsets | None = None
    error: AtmosphereError | None = None


def identify_offsets_batch(observations: Iterable[Observation]) -> list[IdentificationRecord]:
    """Identify offsets record by record, capturing per-record failures."""
    results: list[IdentificationRecord] = []
    for obs in observations:
        try:
            results.append(
                IdentificationRecord(obs.t, obs.lon, obs.lat, offsets=identify_offsets(obs))
            )
        except AtmosphereError as err:
            results.append(IdentificationRecord(obs.t, obs.lon, obs.lat, error=err))
    return results
