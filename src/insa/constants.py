"""Physical constants, shared domain types, and the validity-range policy.

All quantities are SI throughout the package: Pa, K, m, kg/m^3, seconds,
and radians for angles.  The values below are the only numeric literals of
physical meaning in the codebase; everything else is derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPhysical, OutOfValidityRange

G0 = 9.80665            # standard free-fall acceleration [m/s^2]
RE = 6356766.0          # Earth nominal radius [m]
P0 = 101325.0           # standard pressure at mean sea level [Pa]
T0 = 288.15             # standard temperature at mean sea level [K]
RHO0 = 1.225            # standard density at mean sea level [kg/m^3]
R_AIR = 287.05287       # specific air constant [m^2/(K s^2)]
HP_TROP = 11000.0       # tropopause pressure altitude [m]
BETA_T_BELOW = -6.5e-3  # temperature gradient below the tropopause [K/m]
BETA_T_ABOVE = 0.0      # temperature gradient above the tropopause [K/m]

# Exponent of the troposphere pressure law, g0 / (-betaT * R).
GBR = G0 / (-BETA_T_BELOW * R_AIR)

T_ISA_TROP = T0 + BETA_T_BELOW * HP_TROP  # standard tropopause temperature [K]

# Pressure-altitude band the model accepts.  The two-layer column is not
# meant to be used above 20 km, where the real atmosphere changes gradient.
HP_MIN = -2000.0  # [m]
HP_MAX = 20000.0  # [m]


@dataclass(frozen=True)
class Offsets:
    """Temperature/pressure offset pair identifying one static atmosphere."""

    delta_T: float  # temperature offset [K]
    delta_p: float  # pressure offset [Pa]


@dataclass(frozen=True)
class OffsetBounds:
    """Validity box for offset pairs; catches unit mistakes early."""

    delta_T_min: float = -50.0     # [K]
    delta_T_max: float = 50.0      # [K]
    delta_p_min: float = -15000.0  # [Pa]
    delta_p_max: float = 15000.0   # [Pa]

    def __post_init__(self):
        if not (self.delta_T_min <= self.delta_T_max and self.delta_p_min <= self.delta_p_max):
            raise ValueError(f"malformed offset bounds: {self}")


DEFAULT_OFFSET_BOUNDS = OffsetBounds()

# Physics only: what a field checks, leaving the bounds to its consumer.
PHYSICAL_ONLY = OffsetBounds(-math.inf, math.inf, -math.inf, math.inf)


def validate_offsets(offsets: Offsets, bounds: OffsetBounds | None = None) -> Offsets:
    """Check an offset pair against its validity bounds.

    Returns the pair unchanged when it is finite, lies within ``bounds``
    (the package default when omitted), and keeps the mean sea level
    pressure and the tropopause temperature positive.

    Raises:
        NonPhysical: delta_p <= -p0, i.e. zero or negative pressure at
            mean sea level, or delta_T <= -T_ISA_TROP, i.e. zero or
            negative temperature at the tropopause; whatever the bounds.
        OutOfValidityRange: a non-finite component or one outside bounds.
    """
    if bounds is None:
        bounds = DEFAULT_OFFSET_BOUNDS
    if not (math.isfinite(offsets.delta_T) and math.isfinite(offsets.delta_p)):
        raise OutOfValidityRange(f"offsets must be finite, got {offsets}")
    if offsets.delta_p <= -P0:
        raise NonPhysical(
            f"delta_p={offsets.delta_p} Pa implies a mean sea level pressure"
            f" of {P0 + offsets.delta_p} Pa; it must stay above zero"
        )
    if offsets.delta_T <= -T_ISA_TROP:
        raise NonPhysical(
            f"delta_T={offsets.delta_T} K implies a tropopause temperature"
            f" of {T_ISA_TROP + offsets.delta_T} K; it must stay above zero"
        )
    if not bounds.delta_T_min <= offsets.delta_T <= bounds.delta_T_max:
        raise OutOfValidityRange(
            f"delta_T={offsets.delta_T} K outside"
            f" [{bounds.delta_T_min}, {bounds.delta_T_max}] K"
        )
    if not bounds.delta_p_min <= offsets.delta_p <= bounds.delta_p_max:
        raise OutOfValidityRange(
            f"delta_p={offsets.delta_p} Pa outside"
            f" [{bounds.delta_p_min}, {bounds.delta_p_max}] Pa"
        )
    return offsets


@dataclass(frozen=True)
class AtmosphericState:
    """Self-consistent bundle of atmospheric quantities at one point."""

    Hp: float     # pressure altitude [m]
    H: float      # geopotential altitude [m]
    p: float      # pressure [Pa]
    T: float      # temperature [K]
    T_isa: float  # standard temperature [K]
    rho: float    # density [kg/m^3]


def check_pressure_altitude(Hp: float) -> float:
    """Enforce the pressure-altitude validity band."""
    if not HP_MIN <= Hp <= HP_MAX:
        raise OutOfValidityRange(
            f"pressure altitude {Hp!r} m outside [{HP_MIN}, {HP_MAX}] m"
        )
    return Hp
