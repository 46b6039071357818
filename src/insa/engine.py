"""Quasi-static composition: weather field plus static column model.

A query evaluates the field at the aircraft time and horizontal position,
converts the geodetic altitude to geopotential, and hands both to the
static column.  Time derivatives along a trajectory keep the offsets
frozen, since their variation with time and horizontal position is much
smaller than the variation of the properties with altitude; only the
vertical term `gradient * dH/dt` is retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .constants import (
    DEFAULT_OFFSET_BOUNDS,
    Offsets,
    OffsetBounds,
    AtmosphericState,
    validate_offsets,
)
from .errors import OutOfValidityRange
from .geodesy import GeodeticPosition, d_geopotential_d_geodetic, geodetic_to_geopotential
from .offset_field import OffsetField
from .static_atmosphere import _column_anchors, gradients_of_state, state_at_geopotential


@dataclass(frozen=True)
class PropertyRates:
    """Time derivatives of the atmospheric properties along a trajectory."""

    dp_dt: float    # [Pa/s]
    dT_dt: float    # [K/s]
    drho_dt: float  # [kg/(m^3 s)]


@dataclass(frozen=True)
class QuasiStaticModel:
    """A weather field bound to the static column model.

    ``query`` remembers the last point it solved, as one
    ``((t, lon, lat, h), state)`` pair; ``property_rates`` at exactly that
    point (float equality of all four coordinates) reuses the state instead
    of evaluating the field and solving the column a second time, so an
    integrator calling both per step pays for one.  Errors are never
    remembered.  The pair is replaced by a single attribute store and read
    by a single attribute load, so a model shared between concurrent
    trajectory integrators can at worst miss and recompute, never return
    another point's state.  The memo takes no part in eq, repr or hash.
    """

    field: OffsetField
    bounds: OffsetBounds = DEFAULT_OFFSET_BOUNDS
    _last: tuple = dataclass_field(
        default=(None, None), init=False, repr=False, compare=False
    )

    def offsets_at(self, t: float, lon: float, lat: float) -> Offsets:
        """Field evaluation at a finite time, validated against the model bounds."""
        if not math.isfinite(t):
            raise OutOfValidityRange(f"time must be finite, got {t!r}")
        return validate_offsets(self.field.evaluate(t, lon, lat), self.bounds)

    def _solve(self, t: float, position: GeodeticPosition) -> AtmosphericState:
        # Validated once, against the model bounds; the anchors are then
        # built without a second check against the package defaults.
        offsets = self.offsets_at(t, position.lon, position.lat)
        H = geodetic_to_geopotential(position.h)
        return state_at_geopotential(H, _column_anchors(offsets))

    def query(self, t: float, position: GeodeticPosition) -> AtmosphericState:
        """Atmospheric state at one time and geodetic position.

        Equivalent to the manual pipeline: evaluate the field, convert
        h to H, query the static column.
        """
        state = self._solve(t, position)
        object.__setattr__(
            self, "_last", ((t, position.lon, position.lat, position.h), state)
        )
        return state

    def property_rates(
        self, t: float, position: GeodeticPosition, h_dot: float
    ) -> PropertyRates:
        """Quasi-static property rates for a geodetic climb rate h_dot.

        dH/dt follows from the exact slope of the geodetic-to-geopotential
        conversion; the offsets are held frozen at (t, lon, lat), so a
        time-varying field contributes nothing at h_dot = 0 by design.
        """
        if not math.isfinite(h_dot):
            raise OutOfValidityRange(f"climb rate must be finite, got {h_dot!r}")
        key, state = self._last
        if key != (t, position.lon, position.lat, position.h):
            state = self._solve(t, position)
        gradients = gradients_of_state(state)
        H_dot = d_geopotential_d_geodetic(position.h) * h_dot
        return PropertyRates(
            dp_dt=gradients.dp_dH * H_dot,
            dT_dt=gradients.dT_dH * H_dot,
            drho_dt=gradients.drho_dH * H_dot,
        )
