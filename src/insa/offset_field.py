"""Weather fields: offset pairs as a function of time and horizontal position.

The static column model never changes; what varies along a flight is the
offset pair feeding it.  This module provides the usual ladder of field
models, from a fixed pair up to a 3-D gridded field with trilinear
interpolation, together with the file formats that feed them.  Any object
exposing ``evaluate(t, lon, lat) -> Offsets`` can serve as a field, so
user-defined weather models plug in behind the same contract.

Grid file format (UTF-8 CSV, decimal point, no thousands separators)::

    t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa
    0.0,10.0,40.0,-5.0,250.0
    ...

One row per grid node; the rows must form a complete rectilinear grid.
Longitude is in degrees [0, 360) and treated as periodic, latitude in
degrees [-90, 90].  Observation files share the conventions with header
``t_s,lon_deg,lat_deg,h_m,p_pa,t_k``.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Iterable, Sequence

from .constants import P0, PHYSICAL_ONLY, T_ISA_TROP, Offsets, validate_offsets
from .errors import (
    AtmosphereError,
    EmptyNode,
    IncompleteGrid,
    NonMonotonicAxis,
    OutOfDomain,
    OutOfValidityRange,
    ParseError,
)
from .geodesy import TWO_PI, check_latitude, normalize_longitude
from .identification import Observation, identify_offsets

if TYPE_CHECKING:  # numpy is imported where grids are built, not with the package
    import numpy as np

GRID_HEADER = "t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa"
OBSERVATION_HEADER = "t_s,lon_deg,lat_deg,h_m,p_pa,t_k"

_NUMBER = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")


class OffsetField:
    """Base contract: a deterministic map (t, lon, lat) -> Offsets.

    Built-in fields check physics only; bounds are the consumer's.
    """

    def evaluate(self, t: float, lon: float, lat: float) -> Offsets:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(OffsetField):
    """The degenerate field: one offset pair everywhere and always."""

    offsets: Offsets

    def __post_init__(self):
        validate_offsets(self.offsets, PHYSICAL_ONLY)

    def evaluate(self, t: float, lon: float, lat: float) -> Offsets:
        return self.offsets


@dataclass(frozen=True)
class Waypoint:
    """An offset pair pinned to a time and horizontal position."""

    t: float    # [s]
    lon: float  # [rad]
    lat: float  # [rad]
    offsets: Offsets

    def __post_init__(self):
        object.__setattr__(self, "lon", normalize_longitude(self.lon))
        check_latitude(self.lat)
        if not math.isfinite(self.t):
            raise OutOfValidityRange(f"waypoint time must be finite, got {self.t!r}")
        validate_offsets(self.offsets, PHYSICAL_ONLY)


def _lerp_offsets(a: Offsets, b: Offsets, s: float) -> Offsets:
    return Offsets(
        delta_T=a.delta_T + s * (b.delta_T - a.delta_T),
        delta_p=a.delta_p + s * (b.delta_p - a.delta_p),
    )


@dataclass(frozen=True)
class WaypointField(OffsetField):
    """Piecewise-linear offsets over an ordered list of waypoints."""

    waypoints: tuple[Waypoint, ...]
    _times: tuple[float, ...] = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if len(self.waypoints) < 2:
            raise ValueError("a waypoint field needs at least two waypoints")
        times = tuple(w.t for w in self.waypoints)
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError(f"waypoint times must be strictly increasing, got {list(times)}")
        object.__setattr__(self, "_times", times)

    def evaluate(self, t: float, lon: float, lat: float) -> Offsets:
        points = self.waypoints
        if t <= points[0].t:
            return points[0].offsets
        if t >= points[-1].t:
            return points[-1].offsets
        i = bisect_right(self._times, t, hi=len(points) - 1) - 1
        left, right = points[i], points[i + 1]
        s = (t - left.t) / (right.t - left.t)
        return _lerp_offsets(left.offsets, right.offsets, s)


@dataclass(frozen=True, eq=False)
class OffsetGrid3D:
    """Dense rectilinear grid of offset pairs over (t, lon, lat).

    Axes are strictly increasing; longitude nodes live in [0, 2*pi) and
    the axis is treated as periodic across the seam.  The value arrays are
    kept as C-contiguous float64 (copied only when given otherwise), the
    storage ``GridField`` interpolates from.
    """

    t_axis: tuple[float, ...]    # [s]
    lon_axis: tuple[float, ...]  # [rad]
    lat_axis: tuple[float, ...]  # [rad]
    delta_T: np.ndarray          # [K], shape (n_t, n_lon, n_lat)
    delta_p: np.ndarray          # [Pa], shape (n_t, n_lon, n_lat)

    def __post_init__(self):
        object.__setattr__(self, "t_axis", tuple(float(v) for v in self.t_axis))
        object.__setattr__(self, "lon_axis", tuple(float(v) for v in self.lon_axis))
        object.__setattr__(self, "lat_axis", tuple(float(v) for v in self.lat_axis))
        for name, axis in (
            ("time", self.t_axis),
            ("longitude", self.lon_axis),
            ("latitude", self.lat_axis),
        ):
            if len(axis) < 2:
                raise NonMonotonicAxis(f"{name} axis needs at least two values")
            if any(a >= b for a, b in zip(axis, axis[1:])):
                raise NonMonotonicAxis(f"{name} axis must be strictly increasing: {axis}")
            if any(not math.isfinite(v) for v in axis):
                raise NonMonotonicAxis(f"{name} axis must be finite: {axis}")
        if not all(0.0 <= v < TWO_PI for v in self.lon_axis):
            raise NonMonotonicAxis(f"longitude axis must lie in [0, 2*pi): {self.lon_axis}")
        for v in self.lat_axis:
            check_latitude(v)
        import numpy as np

        shape = (len(self.t_axis), len(self.lon_axis), len(self.lat_axis))
        dT = np.ascontiguousarray(self.delta_T, dtype=float)
        dp = np.ascontiguousarray(self.delta_p, dtype=float)
        if dT.shape != shape or dp.shape != shape:
            raise ValueError(
                f"value arrays must have shape {shape}, got {dT.shape} and {dp.shape}"
            )
        object.__setattr__(self, "delta_T", dT)
        object.__setattr__(self, "delta_p", dp)
        # The node-wise physics test as masks; the first failing node in
        # C order then raises through ``validate_offsets`` itself.
        with np.errstate(invalid="ignore"):
            valid = np.isfinite(dT) & np.isfinite(dp) & (dp > -P0) & (dT > -T_ISA_TROP)
        if not valid.all():
            first = int(np.argmin(valid.ravel()))
            validate_offsets(
                Offsets(float(dT.flat[first]), float(dp.flat[first])), PHYSICAL_ONLY
            )

    @property
    def n_nodes(self) -> int:
        return len(self.t_axis) * len(self.lon_axis) * len(self.lat_axis)


def _bracket(axis: Sequence[float], x: float, name: str) -> tuple[int, int, float]:
    """Bracketing indices and weight on a non-periodic axis.

    Exact node hits collapse to a single index with zero weight so that
    evaluation reproduces stored values bit for bit.
    """
    if not axis[0] <= x <= axis[-1]:
        raise OutOfDomain(f"{name} {x!r} outside [{axis[0]}, {axis[-1]}]")
    if x == axis[-1]:
        return len(axis) - 1, len(axis) - 1, 0.0
    i = bisect_right(axis, x) - 1
    if x == axis[i]:
        return i, i, 0.0
    return i, i + 1, (x - axis[i]) / (axis[i + 1] - axis[i])


def _bracket_periodic(axis: Sequence[float], lon: float) -> tuple[int, int, float]:
    """Bracketing indices and weight on the periodic longitude axis."""
    x = normalize_longitude(lon)
    i = bisect_right(axis, x) - 1
    if i >= 0 and x == axis[i]:
        return i, i, 0.0
    if i < 0 or i == len(axis) - 1:
        # Seam segment from the last node around to the first one.
        gap = axis[0] + TWO_PI - axis[-1]
        position = x - axis[-1] if i == len(axis) - 1 else x + TWO_PI - axis[-1]
        return len(axis) - 1, 0, position / gap
    return i, i + 1, (x - axis[i]) / (axis[i + 1] - axis[i])


def _trilerp(
    values: memoryview, corners: tuple[int, ...], wi: float, wj: float, wk: float
) -> float:
    """Trilinear blend of the eight flat-indexed corners, time first.

    ``corners`` lists the flat indices of (i, j, k) for i, j, k in (0, 1)
    with i varying fastest; each step is ``a + w * (b - a)``.
    """
    n000, n100, n010, n110, n001, n101, n011, n111 = corners
    a = values[n000]
    c00 = a + wi * (values[n100] - a)
    a = values[n010]
    c10 = a + wi * (values[n110] - a)
    a = values[n001]
    c01 = a + wi * (values[n101] - a)
    a = values[n011]
    c11 = a + wi * (values[n111] - a)
    c0 = c00 + wj * (c10 - c00)
    c1 = c01 + wj * (c11 - c01)
    return c0 + wk * (c1 - c0)


@dataclass(frozen=True, eq=False)
class GridField(OffsetField):
    """Trilinear interpolation over an offset grid.

    Time and latitude queries must stay inside the axis ranges, so a
    non-finite one is ``OutOfDomain``; longitude wraps across the 2*pi
    seam.  Values are read through flat memoryviews of the grid's own
    arrays, which is much cheaper than indexing numpy element by element
    and adds no copy.
    """

    grid: OffsetGrid3D
    _flat: tuple[memoryview, memoryview] = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        grid = self.grid
        flat = (memoryview(grid.delta_T.reshape(-1)), memoryview(grid.delta_p.reshape(-1)))
        object.__setattr__(self, "_flat", flat)

    def __reduce__(self):
        # Memoryviews do not pickle; the grid alone rebuilds the field.
        return type(self), (self.grid,)

    def evaluate(self, t: float, lon: float, lat: float) -> Offsets:
        grid = self.grid
        i0, i1, wi = _bracket(grid.t_axis, t, "time")
        j0, j1, wj = _bracket_periodic(grid.lon_axis, lon)
        k0, k1, wk = _bracket(grid.lat_axis, lat, "latitude")
        n_lat = len(grid.lat_axis)
        row = len(grid.lon_axis) * n_lat
        r00, r10 = i0 * row + j0 * n_lat, i1 * row + j0 * n_lat
        r01, r11 = i0 * row + j1 * n_lat, i1 * row + j1 * n_lat
        corners = (r00 + k0, r10 + k0, r01 + k0, r11 + k0, r00 + k1, r10 + k1, r01 + k1, r11 + k1)
        dT, dp = self._flat
        return Offsets(
            delta_T=_trilerp(dT, corners, wi, wj, wk),
            delta_p=_trilerp(dp, corners, wi, wj, wk),
        )


def _parse_rows(source: str, expected_header: str) -> list[tuple[float, ...]]:
    lines = source.splitlines()
    if not lines:
        raise ParseError("empty file")
    if lines[0].strip() != expected_header:
        raise ParseError(f"bad header {lines[0].strip()!r}, expected {expected_header!r}")
    n_fields = len(expected_header.split(","))
    rows: list[tuple[float, ...]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise ParseError(f"line {line_no}: expected {n_fields} fields, got {len(parts)}")
        values = []
        for part in parts:
            token = part.strip()
            if not _NUMBER.match(token):
                raise ParseError(f"line {line_no}: {token!r} is not a plain decimal number")
            values.append(float(token))
        rows.append(tuple(values))
    if not rows:
        raise ParseError("no data rows")
    return rows


def _first_appearance(values: Iterable[float]) -> list[float]:
    seen: list[float] = []
    known: set[float] = set()
    for v in values:
        if v not in known:
            known.add(v)
            seen.append(v)
    return seen


def load_grid(source: str) -> OffsetGrid3D:
    """Build an offset grid from grid-file content.

    Raises:
        ParseError: malformed header, rows, numbers, coordinate ranges,
            or duplicate nodes.
        NonMonotonicAxis: an axis whose values are listed in descending
            order (probably authored with a reversed axis convention).
        IncompleteGrid: a missing (t, lon, lat) combination.
    """
    import numpy as np

    rows = _parse_rows(source, GRID_HEADER)
    for t, lon_deg, lat_deg, _, _ in rows:
        if not 0.0 <= lon_deg < 360.0:
            raise ParseError(f"longitude {lon_deg} deg outside [0, 360)")
        if not -90.0 <= lat_deg <= 90.0:
            raise ParseError(f"latitude {lat_deg} deg outside [-90, 90]")

    axes_deg = {}
    for name, idx in (("time", 0), ("longitude", 1), ("latitude", 2)):
        order = _first_appearance(row[idx] for row in rows)
        if len(order) >= 2 and all(a > b for a, b in zip(order, order[1:])):
            raise NonMonotonicAxis(
                f"{name} axis values appear in descending order; list them ascending"
            )
        axes_deg[name] = sorted(order)

    nodes: dict[tuple[float, float, float], tuple[float, float]] = {}
    for t, lon_deg, lat_deg, d_T, d_p in rows:
        key = (t, lon_deg, lat_deg)
        if key in nodes:
            raise ParseError(f"duplicate node t={t}, lon={lon_deg}, lat={lat_deg}")
        nodes[key] = (d_T, d_p)

    t_axis = axes_deg["time"]
    lon_axis_deg = axes_deg["longitude"]
    lat_axis_deg = axes_deg["latitude"]
    shape = (len(t_axis), len(lon_axis_deg), len(lat_axis_deg))
    delta_T = np.empty(shape)
    delta_p = np.empty(shape)
    for it, t in enumerate(t_axis):
        for il, lon_deg in enumerate(lon_axis_deg):
            for ik, lat_deg in enumerate(lat_axis_deg):
                try:
                    delta_T[it, il, ik], delta_p[it, il, ik] = nodes[(t, lon_deg, lat_deg)]
                except KeyError:
                    raise IncompleteGrid(
                        f"missing node t={t}, lon={lon_deg}, lat={lat_deg}"
                    ) from None

    return OffsetGrid3D(
        t_axis=tuple(t_axis),
        lon_axis=tuple(math.radians(v) for v in lon_axis_deg),
        lat_axis=tuple(math.radians(v) for v in lat_axis_deg),
        delta_T=delta_T,
        delta_p=delta_p,
    )


def load_observations(source: str) -> list[Observation]:
    """Parse an observation file into observation records."""
    rows = _parse_rows(source, OBSERVATION_HEADER)
    observations = []
    for row_no, (t, lon_deg, lat_deg, h, p, T) in enumerate(rows, start=1):
        try:
            observations.append(
                Observation(
                    t=t,
                    lon=math.radians(lon_deg),
                    lat=math.radians(lat_deg),
                    h=h,
                    p=p,
                    T=T,
                )
            )
        except AtmosphereError as err:
            raise ParseError(f"observation row {row_no}: {err}") from err
    return observations


def _nearest_index(axis: Sequence[float], x: float) -> int:
    return min(range(len(axis)), key=lambda i: abs(axis[i] - x))


def _nearest_lon_index(axis: Sequence[float], lon: float) -> int:
    x = normalize_longitude(lon)

    def distance(i: int) -> float:
        d = abs(axis[i] - x) % TWO_PI
        return min(d, TWO_PI - d)

    return min(range(len(axis)), key=distance)


def grid_from_observations(
    observations: Iterable[Observation],
    t_axis: Sequence[float],
    lon_axis: Sequence[float],
    lat_axis: Sequence[float],
) -> OffsetGrid3D:
    """Assemble an offset grid by identifying and node-averaging observations.

    Each observation is identified individually, assigned to its nearest
    grid node (per-axis nearest, longitude measured around the circle),
    and node values are the unweighted means of their assigned offsets.

    Raises:
        EmptyNode: some node received no observation.
        Identification errors propagate for the offending record.
    """
    import numpy as np

    t_axis = tuple(float(v) for v in t_axis)
    lon_axis = tuple(float(v) for v in lon_axis)
    lat_axis = tuple(float(v) for v in lat_axis)
    shape = (len(t_axis), len(lon_axis), len(lat_axis))
    sums_T = np.zeros(shape)
    sums_p = np.zeros(shape)
    counts = np.zeros(shape, dtype=int)
    for obs in observations:
        offsets = identify_offsets(obs)
        it = _nearest_index(t_axis, obs.t)
        il = _nearest_lon_index(lon_axis, obs.lon)
        ik = _nearest_index(lat_axis, obs.lat)
        sums_T[it, il, ik] += offsets.delta_T
        sums_p[it, il, ik] += offsets.delta_p
        counts[it, il, ik] += 1
    if (counts == 0).any():
        it, il, ik = (int(i[0]) for i in np.nonzero(counts == 0))
        raise EmptyNode(
            f"no observation near node t={t_axis[it]}, lon={lon_axis[il]},"
            f" lat={lat_axis[ik]}"
        )
    return OffsetGrid3D(
        t_axis=t_axis,
        lon_axis=lon_axis,
        lat_axis=lat_axis,
        delta_T=sums_T / counts,
        delta_p=sums_p / counts,
    )
