"""Quasi-static composition: weather field plus static column model.

A query evaluates the field at the aircraft time and horizontal position,
converts the geodetic altitude to geopotential, and hands both to the
static column.  Time derivatives along a trajectory keep the offsets
frozen, since their variation with time and horizontal position is much
smaller than the variation of the properties with altitude; only the
vertical term `gradient * dH/dt` is retained.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .constants import (
    DEFAULT_OFFSET_BOUNDS,
    Offsets,
    OffsetBounds,
    AtmosphericState,
    _Frozen,
    _new,
    _set,
    validate_offsets,
)
from .errors import OutOfValidityRange
from .geodesy import (GeodeticPosition, _geopotential_slope, _to_geopotential,
                      check_latitude, check_time, normalize_longitude)
from .offset_field import OffsetField
from .static_atmosphere import _column_anchors, gradients_of_state, state_at_geopotential


class PropertyRates(NamedTuple):
    """Time derivatives of the atmospheric properties along a trajectory."""

    dp_dt: float    # [Pa/s]
    dT_dt: float    # [K/s]
    drho_dt: float  # [kg/(m^3 s)]


class QuasiStaticModel(_Frozen):
    """A weather field bound to the static column model.

    One memo, ``((t, lon, lat, h), offsets, anchors, state)``, holds the
    last point solved by ``query`` or ``property_rates``.  A point whose
    field value is an ``Offsets`` equal to the memo's pair reuses its
    anchors without validating the pair against ``bounds`` again (a NaN
    pair never equals it, and ``offsets_at`` validates on every call);
    if its ``h`` also equals the memo's nonzero ``h``, as in level flight,
    it reuses the memo's state, the same bits, and solves nothing.  A
    ``property_rates`` call at exactly the memo's point (float equality of
    all four coordinates) reuses its state without evaluating the field.
    The memo is replaced by one attribute store after each successful
    solve and read by one load, so errors are never remembered and a
    model shared between concurrent trajectory integrators can at worst
    miss and recompute, never return another point's state.  It takes no
    part in eq, repr or hash.
    """

    _fields = ("field", "bounds")
    __slots__ = _fields + ("_memo",)

    def __init__(self, field: OffsetField, bounds: OffsetBounds = DEFAULT_OFFSET_BOUNDS):
        _set(self, "field", field)
        _set(self, "bounds", bounds)
        _set(self, "_memo", (None, None, None, None))

    def offsets_at(self, t: float, lon: float, lat: float) -> Offsets:
        """Field evaluation at a finite time, validated against the model bounds."""
        lon, lat = normalize_longitude(lon), check_latitude(lat)  # as GeodeticPosition does
        return validate_offsets(self.field.evaluate(check_time(t), lon, lat), self.bounds)

    def query(self, t: float, position: GeodeticPosition) -> AtmosphericState:
        """Atmospheric state at one time and geodetic position.

        Equivalent to the manual pipeline: evaluate the field, convert
        h to H, query the static column.
        """
        offsets = self.field.evaluate(check_time(t), position.lon, position.lat)
        point, key, column, state = self._memo
        h = position.h
        if type(offsets) is not Offsets or key != offsets:
            column = _column_anchors(validate_offsets(offsets, self.bounds))
            state = None
        if state is None or point[3] != h or not h:  # a zero h solves: H keeps its sign
            state = state_at_geopotential(_to_geopotential(h), column)  # h checked with position
        _set(self, "_memo", ((t, position.lon, position.lat, h), offsets, column, state))
        return state

    def property_rates(
        self, t: float, position: GeodeticPosition, h_dot: float
    ) -> PropertyRates:
        """Quasi-static property rates for a geodetic climb rate h_dot.

        dH/dt follows from the exact slope of the geodetic-to-geopotential
        conversion; the offsets are held frozen at (t, lon, lat), so a
        time-varying field contributes nothing at h_dot = 0 by design.
        """
        if not -inf < h_dot < inf:
            raise OutOfValidityRange(f"climb rate must be finite, got {h_dot!r}")
        point, _, _, state = self._memo
        if point != (t, position.lon, position.lat, position.h):
            state = self.query(t, position)
        dp_dH, dT_dH, drho_dH = gradients_of_state(state)
        H_dot = _geopotential_slope(position.h) * h_dot
        return _new(PropertyRates, (dp_dH * H_dot, dT_dH * H_dot, drho_dH * H_dot))
