"""Physical constants, shared domain types, and the validity-range policy.

All quantities are SI throughout the package: Pa, K, m, kg/m^3, seconds,
and radians for angles.  The values below are the only numeric literals of
physical meaning in the codebase; everything else is derived from them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class Offsets(NamedTuple):
    """Temperature/pressure offset pair identifying one static atmosphere."""

    delta_T: float  # temperature offset [K]
    delta_p: float  # pressure offset [Pa]


_set = object.__setattr__  # how constructors store into a _Frozen
_new = tuple.__new__  # builds a NamedTuple without its generated Python __new__


class _Frozen:
    """Immutable value: repr, eq, hash and pickling from its ``_fields`` slots.

    A subclass's ``__init__`` checks and stores every slot (fields, then caches)
    through ``_set``; unpickling calls it, so a pickled value is checked again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class OffsetBounds(_Frozen):
    """Validity box for offset pairs; catches unit mistakes early."""

    __slots__ = _fields = ("delta_T_min", "delta_T_max", "delta_p_min", "delta_p_max")

    def __init__(self, delta_T_min: float = -50.0, delta_T_max: float = 50.0,  # [K]
                 delta_p_min: float = -15000.0, delta_p_max: float = 15000.0):  # [Pa]
        _set(self, "delta_T_min", delta_T_min)
        _set(self, "delta_T_max", delta_T_max)
        _set(self, "delta_p_min", delta_p_min)
        _set(self, "delta_p_max", delta_p_max)
        if not (delta_T_min <= delta_T_max and delta_p_min <= delta_p_max):
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
        TypeError: not an ``Offsets``: no ``delta_T`` and ``delta_p``.
    """
    try:
        delta_T, delta_p = offsets.delta_T, offsets.delta_p
    except AttributeError:
        raise TypeError(f"offsets must be an Offsets, got {offsets!r}") from None
    if bounds is None:
        bounds = DEFAULT_OFFSET_BOUNDS
    if not (math.isfinite(delta_T) and math.isfinite(delta_p)):
        raise OutOfValidityRange(f"offsets must be finite, got {offsets}")
    if delta_p <= -P0:
        raise NonPhysical(
            f"delta_p={delta_p} Pa implies a mean sea level pressure"
            f" of {P0 + delta_p} Pa; it must stay above zero"
        )
    if delta_T <= -T_ISA_TROP:
        raise NonPhysical(
            f"delta_T={delta_T} K implies a tropopause temperature"
            f" of {T_ISA_TROP + delta_T} K; it must stay above zero"
        )
    if not bounds.delta_T_min <= delta_T <= bounds.delta_T_max:
        raise OutOfValidityRange(
            f"delta_T={delta_T} K outside"
            f" [{bounds.delta_T_min}, {bounds.delta_T_max}] K"
        )
    if not bounds.delta_p_min <= delta_p <= bounds.delta_p_max:
        raise OutOfValidityRange(
            f"delta_p={delta_p} Pa outside"
            f" [{bounds.delta_p_min}, {bounds.delta_p_max}] Pa"
        )
    return offsets


def _onto_edge(x: float, low: float, high: float, tol: float) -> float:
    """The nearer edge of [low, high] if ``x`` lies past it by at most ``tol``, else ``x``."""
    edge = low if x < low else high if x > high else x
    return edge if abs(edge - x) <= tol else x


class AtmosphericState(NamedTuple):
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
