"""Geodetic/geopotential altitude conversion on a spherical Earth.

The conversion uses the nominal Earth radius and ignores the (very small)
influence of latitude, so both directions are closed-form and exact
algebraic inverses of each other.
"""

from __future__ import annotations

import math

from .constants import RE, _Frozen, _set
from .errors import OutOfValidityRange

TWO_PI = 2.0 * math.pi


def normalize_longitude(lon: float) -> float:
    """Wrap a finite longitude into [0, 2*pi) radians."""
    if not math.isfinite(lon):
        raise OutOfValidityRange(f"longitude must be finite, got {lon!r}")
    lon %= TWO_PI
    return lon if lon < TWO_PI else 0.0  # a tiny negative lon rounds up to 2*pi


def check_time(t: float) -> float:
    if not math.isfinite(t):
        raise OutOfValidityRange(f"time must be finite, got {t!r}")
    return t


def check_latitude(lat: float) -> float:
    if not -math.pi / 2.0 <= lat <= math.pi / 2.0:
        raise OutOfValidityRange(f"latitude {lat!r} rad outside [-pi/2, pi/2]")
    return lat


def check_altitude(h: float) -> None:
    if not -RE / 2.0 < h < math.inf:
        raise OutOfValidityRange(f"geodetic altitude {h!r} m outside (-RE/2, inf)")


def check_position(lon: float, lat: float, h: float) -> float:
    """Check lon, lat, then h (in the conversion's domain); return the normalized lon."""
    lon = normalize_longitude(lon)
    check_latitude(lat)
    check_altitude(h)
    return lon


class GeodeticPosition(_Frozen):
    """Position in longitude/latitude (rad) and geodetic altitude (m)."""

    __slots__ = _fields = ("lon", "lat", "h")

    def __init__(self, lon: float, lat: float, h: float):
        _set(self, "lon", check_position(lon, lat, h))  # [rad], normalized to [0, 2*pi)
        _set(self, "lat", lat)  # [rad], in [-pi/2, pi/2]
        _set(self, "h", h)      # geodetic altitude [m]


def _to_geopotential(h: float) -> float:
    """``geodetic_to_geopotential`` for an h already checked, as positions are."""
    return RE * h / (RE + h)


def _geopotential_slope(h: float) -> float:
    """``d_geopotential_d_geodetic`` for an h already checked, as positions are."""
    ratio = RE / (RE + h)
    return ratio * ratio


def geodetic_to_geopotential(h: float) -> float:
    """Geopotential altitude H for geodetic altitude h, both in metres."""
    check_altitude(h)
    return _to_geopotential(h)


def geopotential_to_geodetic(H: float) -> float:
    """Geodetic altitude h for geopotential altitude H, both in metres."""
    if not -math.inf < H < RE / 2.0:
        raise OutOfValidityRange(f"geopotential altitude {H!r} m outside (-inf, RE/2)")
    return RE * H / (RE - H)


def d_geopotential_d_geodetic(h: float) -> float:
    """Slope dH/dh of the conversion at geodetic altitude h."""
    check_altitude(h)
    return _geopotential_slope(h)
