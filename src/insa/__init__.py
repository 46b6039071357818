"""Quasi-static non-standard atmosphere model.

A static two-layer column (troposphere with constant temperature
gradient, isothermal stratosphere) parameterized by a temperature offset
and a pressure offset at mean sea level; the offsets themselves may vary
with time and horizontal position through pluggable weather fields.  With
both offsets at zero the model is the ICAO standard atmosphere.
"""

from types import ModuleType as _ModuleType

from .constants import (
    DEFAULT_OFFSET_BOUNDS,
    AtmosphericState,
    OffsetBounds,
    Offsets,
    validate_offsets,
)
from .engine import PropertyRates, QuasiStaticModel
from .errors import (
    AtmosphereError,
    IncompleteGrid,
    NoConvergence,
    NonMonotonicAxis,
    NonPhysical,
    NotInTroposphere,
    OutOfDomain,
    OutOfValidityRange,
    ParseError,
)
from .figures import FIGURE_IDS, FigureSeries, FigureTable, build_figure, render_table
from .geodesy import (
    GeodeticPosition,
    d_geopotential_d_geodetic,
    geodetic_to_geopotential,
    geopotential_to_geodetic,
)
from .identification import (
    IdentificationRecord,
    Observation,
    identify_offsets,
    identify_offsets_batch,
)
from .offset_field import (
    ConstantField,
    GridField,
    OffsetField,
    OffsetGrid3D,
    Waypoint,
    WaypointField,
    load_grid,
    load_observations,
)
from .static_atmosphere import (
    AtmosphereAnchors,
    VerticalGradients,
    anchors,
    d_geopotential_d_hp,
    geopotential_from_hp,
    hp_from_geopotential,
    hp_from_pressure,
    pressure_from_hp,
    solve_tisa_msl,
    standard_temperature_from_hp,
    state_at_geopotential,
    state_at_pressure_altitude,
    temperature_from_hp,
    vertical_gradients,
)

__version__ = "0.1.0"

# Every public name imported above; adding an import lists its names.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
del _ModuleType
