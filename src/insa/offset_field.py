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
from array import array
from bisect import bisect_right
from itertools import chain, count
from typing import Iterable, Iterator, Sequence

from .constants import P0, PHYSICAL_ONLY, T_ISA_TROP, Offsets, _Frozen, _new, _set, validate_offsets
from .errors import (
    AtmosphereError,
    IncompleteGrid,
    NonMonotonicAxis,
    OutOfDomain,
    ParseError,
)
from .geodesy import TWO_PI, check_latitude, check_time, normalize_longitude
from .identification import Observation

GRID_HEADER = "t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa"
OBSERVATION_HEADER = "t_s,lon_deg,lat_deg,h_m,p_pa,t_k"

# Every character for which str.isspace() holds. Each but the line feed,
# which ends a row, maps to a space: float() refuses \x1c-\x1f around a
# number, which str.strip() removes.
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_SPACES = str.maketrans(_WHITESPACE.replace("\n", ""), " " * (len(_WHITESPACE) - 1))
_GRAMMAR = str.maketrans("", "", "0123456789.+-eE ")  # deletes the characters of plain decimals
# Text parsed at once. It bounds the parse's transient memory; blocks of
# 256k characters left about 0.9 MB more peak RSS in `insa identify --obs`
# on 10k rows, as freed block buffers stayed in the heap.
_BLOCK_CHARS = 1 << 15


class OffsetField:
    """Base contract: a deterministic map (t, lon, lat) -> Offsets.

    ``QuasiStaticModel``, not the field, checks what it passes: a finite time, a longitude in
    [0, 2*pi), a latitude in [-pi/2, pi/2].  Built-in fields check physics, consumers the bounds.
    """

    __slots__ = ()

    def evaluate(self, t: float, lon: float, lat: float) -> Offsets:
        raise NotImplementedError


class ConstantField(_Frozen, OffsetField):
    """The degenerate field: one offset pair everywhere and always."""

    __slots__ = _fields = ("offsets",)

    def __init__(self, offsets: Offsets):
        _set(self, "offsets", offsets)
        validate_offsets(offsets, PHYSICAL_ONLY)

    def evaluate(self, t: float, lon: float, lat: float) -> Offsets:
        return self.offsets


class Waypoint(_Frozen):
    """An offset pair pinned to a time and horizontal position."""

    __slots__ = _fields = ("t", "lon", "lat", "offsets")

    def __init__(self, t: float, lon: float, lat: float, offsets: Offsets):
        _set(self, "lon", normalize_longitude(lon))  # [rad]
        _set(self, "lat", check_latitude(lat))  # [rad]
        _set(self, "t", check_time(t))  # [s]
        _set(self, "offsets", offsets)
        validate_offsets(offsets, PHYSICAL_ONLY)


class WaypointField(_Frozen, OffsetField):
    """Piecewise-linear offsets over waypoints whose times follow the grid axis rule.

    Constant outside them: time is clamped into them, then bracketed (NaN: ``OutOfDomain``).
    """

    _fields = ("waypoints",)
    __slots__ = _fields + ("_times",)

    def __init__(self, waypoints: Iterable[Waypoint]):
        waypoints = tuple(waypoints)
        _set(self, "waypoints", waypoints)
        _set(self, "_times", _checked_axis("time", (w.t for w in waypoints)))

    def evaluate(self, t: float, lon: float, lat: float) -> Offsets:
        times = self._times
        i, j, s = _bracket(times, min(max(t, times[0]), times[-1]), "time")  # NaN stays NaN
        a, b = self.waypoints[i].offsets, self.waypoints[j].offsets
        return _new(Offsets, (a.delta_T + s * (b.delta_T - a.delta_T),
                              a.delta_p + s * (b.delta_p - a.delta_p)))


def _checked_axis(name: str, values: Iterable[float]) -> tuple[float, ...]:
    """The one axis rule, as a float tuple: two or more values, strictly increasing, finite."""
    axis = tuple(map(float, values))
    if len(axis) < 2:
        raise NonMonotonicAxis(f"{name} axis needs at least two values")
    if any(a >= b for a, b in zip(axis, axis[1:])):
        raise NonMonotonicAxis(f"{name} axis must be strictly increasing: {axis}")
    if any(not math.isfinite(v) for v in axis):
        raise NonMonotonicAxis(f"{name} axis must be finite: {axis}")
    return axis


def _checked_axes(*axes: Iterable[float]) -> tuple[tuple[float, ...], ...]:
    """(t, lon, lat) under the axis rule, lon in [0, 2*pi) and lat in [-pi/2, pi/2]."""
    t, lon, lat = map(_checked_axis, ("time", "longitude", "latitude"), axes)
    if not all(0.0 <= v < TWO_PI for v in lon):
        raise NonMonotonicAxis(f"longitude axis must lie in [0, 2*pi): {lon}")
    for v in lat:
        check_latitude(v)
    return t, lon, lat


def _shaped(flat: array | memoryview, shape: tuple[int, ...]) -> memoryview:
    """A C-order float64 view of ``shape`` on a flat float64 buffer, no copy."""
    return memoryview(flat).cast("B").cast("d", shape)


def _flat(values: memoryview) -> memoryview:
    """A 1-D float64 view of a grid's C-order node values, no copy."""
    return values.cast("B").cast("d")


def _node_values(values, shape: tuple[int, int, int], name: str) -> memoryview:
    """``values`` as a float64 memoryview of ``shape`` in C order.

    A C-contiguous float64 buffer of that shape is viewed without a copy;
    any other buffer or nested sequence is copied into an ``array('d')``.
    """
    try:
        view = memoryview(values)
    except TypeError:  # not a buffer: nested sequences
        rows = [values]
    else:
        if view.format == "d" and view.c_contiguous and view.shape == shape:
            return view
        try:
            rows = [view.tolist()]
        except NotImplementedError:  # a format memoryview cannot read: iterate
            rows = [values]
    for axis, n in enumerate(shape):
        try:
            ragged = any(len(row) != n for row in rows)
        except TypeError:  # a number where a row belongs
            ragged = True
        if ragged:
            raise ValueError(f"value arrays must have shape {shape}; {name} differs on axis {axis}")
        rows = list(chain.from_iterable(rows))
    return _shaped(array("d", map(float, rows)), shape)


def _show(values: memoryview) -> str:
    """Node values as nested lists, or by shape above numpy's 1000-element summary threshold."""
    if values.nbytes > 8000:
        return f"<float64 {'x'.join(map(str, values.shape))}>"
    return repr(values.tolist())


class OffsetGrid3D(_Frozen):
    """Dense rectilinear grid of offset pairs over (t, lon, lat).

    Axes hold two or more finite, strictly increasing values; longitude
    nodes live in [0, 2*pi) and the axis is treated as periodic across
    the seam.  An axis that breaks these raises ``NonMonotonicAxis``, and
    a latitude node outside [-pi/2, pi/2] ``OutOfValidityRange``.  ``delta_T`` and
    ``delta_p`` are float64 ``memoryview``s of shape (n_t, n_lon, n_lat)
    in C order, the storage ``GridField`` interpolates from: index them as
    ``grid.delta_T[i, j, k]`` and use ``np.asarray(grid.delta_T)`` for
    array work.  A C-contiguous float64 input, such as a numpy array, is
    viewed without a copy, so a write through either side is seen by the
    other; any other input (nested sequences, other dtypes or layouts) is
    copied into an ``array('d')``.  Units: t [s], lon and lat [rad],
    delta_T [K] and delta_p [Pa].
    """

    __slots__ = _fields = ("t_axis", "lon_axis", "lat_axis", "delta_T", "delta_p")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, t_axis: Iterable[float], lon_axis: Iterable[float],
                 lat_axis: Iterable[float], delta_T, delta_p):
        self.__post_init__(t_axis, lon_axis, lat_axis, delta_T, delta_p)

    def __post_init__(self, t_axis, lon_axis, lat_axis, delta_T, delta_p):
        # The checks and stores. perfbench's grid_build metric times this name.
        t_axis, lon_axis, lat_axis = _checked_axes(t_axis, lon_axis, lat_axis)
        _set(self, "t_axis", t_axis)
        _set(self, "lon_axis", lon_axis)
        _set(self, "lat_axis", lat_axis)
        shape = (len(t_axis), len(lon_axis), len(lat_axis))
        dT = _node_values(delta_T, shape, "delta_T")
        dp = _node_values(delta_p, shape, "delta_p")
        _set(self, "delta_T", dT)
        _set(self, "delta_p", dp)
        # Finite sums and minima above the floors clear every node at once; a
        # sum that overflows only costs the scan. Otherwise the first failing
        # node in C order raises through ``validate_offsets`` itself.
        flat_T, flat_p = _flat(dT), _flat(dp)
        if not (math.isfinite(sum(flat_T) + sum(flat_p))
                and min(flat_T) > -T_ISA_TROP and min(flat_p) > -P0):
            for pair in zip(flat_T, flat_p):
                validate_offsets(Offsets(*pair), PHYSICAL_ONLY)

    def __repr__(self) -> str:
        axes = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields[:3])
        return f"OffsetGrid3D({axes}, delta_T={_show(self.delta_T)}, delta_p={_show(self.delta_p)})"

    def __reduce__(self):  # a memoryview does not pickle; nested lists do
        return type(self), (*self._values()[:3], self.delta_T.tolist(), self.delta_p.tolist())

    @property
    def n_nodes(self) -> int:
        return len(self.t_axis) * len(self.lon_axis) * len(self.lat_axis)


def _bracket(axis: Sequence[float], x: float, name: str) -> tuple[int, int, float]:
    """Bracketing indices and weight on an axis: time, latitude or the longitude ring.

    A node starts its segment, with weight 0.  Only the last node, which has no
    segment after it, is returned alone: a weight-1 blend ``a + (b - a)`` need not be ``b``.
    """
    if not axis[0] <= x <= axis[-1]:
        raise OutOfDomain(f"{name} {x!r} outside [{axis[0]}, {axis[-1]}]")
    if x == axis[-1]:
        return len(axis) - 1, len(axis) - 1, 0.0
    i = bisect_right(axis, x) - 1
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


class GridField(_Frozen, OffsetField):
    """Trilinear interpolation over an offset grid.

    Time and latitude queries must stay inside the axis ranges, so a
    non-finite one is ``OutOfDomain``.  Longitude runs on a ring, the axis
    and then its first node one turn on (ring index ``n_lon`` is node 0):
    the seam cell is the ring's last segment, and a query west of the
    first node moves one turn on into it.  Values are read through flat
    1-D casts of the grid's own memoryviews, so a write to the grid is
    seen at once and nothing is copied.

    ``evaluate`` remembers the last cell it was strictly inside (bounds,
    denominators, corner indices; no values) and skips the bracketing for
    a query strictly inside it, with the same bits.  One attribute store
    replaces the memo, so a field shared between threads can at worst miss.
    """

    _fields = ("grid",)
    __slots__ = _fields + ("_flat", "_ring", "_cell")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, grid: OffsetGrid3D):
        _set(self, "grid", grid)
        _set(self, "_flat", (_flat(grid.delta_T), _flat(grid.delta_p)))
        _set(self, "_ring", (*grid.lon_axis, grid.lon_axis[0] + TWO_PI))
        _set(self, "_cell", (math.nan,) * 10)  # NaN: no hit

    def evaluate(self, t: float, lon: float, lat: float) -> Offsets:
        t0, t1, x0, x1, y0, y1, dt, dx, dy, corners = self._cell
        # 0 <= x0 < lon < x1 <= 2*pi, so normalize_longitude(lon) is lon.
        if t0 < t < t1 and x0 < lon < x1 and y0 < lat < y1:
            wi, wj, wk = (t - t0) / dt, (lon - x0) / dx, (lat - y0) / dy
        else:
            ts, xs, ys = self.grid.t_axis, self._ring, self.grid.lat_axis
            i0, i1, wi = _bracket(ts, t, "time")
            x = normalize_longitude(lon)
            if x < xs[0]:  # west of the first node: one turn on, into the seam cell
                x += TWO_PI
            j0, j1, wj = _bracket(xs, x, "longitude")
            k0, k1, wk = _bracket(ys, lat, "latitude")
            n_lon, n_lat = len(xs) - 1, len(ys)
            row = n_lon * n_lat
            c0, c1 = j0 % n_lon * n_lat, j1 % n_lon * n_lat
            r00, r10 = i0 * row + c0, i1 * row + c0
            r01, r11 = i0 * row + c1, i1 * row + c1
            corners = (r00 + k0, r10 + k0, r01 + k0, r11 + k0,
                       r00 + k1, r10 + k1, r01 + k1, r11 + k1)
            if i0 != i1 and j0 != j1 and k0 != k1:  # not a last node alone
                # The hit test reads lon unwrapped, so the seam cell stops at 2*pi.
                cell = (ts[i0], ts[i1], xs[j0], min(xs[j1], TWO_PI), ys[k0], ys[k1],
                        ts[i1] - ts[i0], xs[j1] - xs[j0], ys[k1] - ys[k0], corners)
                _set(self, "_cell", cell)
        dT, dp = self._flat
        return _new(Offsets, (_trilerp(dT, corners, wi, wj, wk), _trilerp(dp, corners, wi, wj, wk)))


def _line_error(lines: list[str], first_line_no: int, n_fields: int) -> ParseError:
    """The error of the first line, or field, that breaks the plain form in a piece that did."""
    for line_no, line in enumerate(lines, start=first_line_no):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            return ParseError(f"line {line_no}: expected {n_fields} fields, got {len(parts)}")
        for part in parts:
            token = part.translate(_SPACES)
            try:
                if token.translate(_GRAMMAR):
                    raise ValueError(token)
                float(token)
            except ValueError:
                return ParseError(f"line {line_no}: {part.strip()!r} is not a plain decimal number")


def _blocks(source: str) -> Iterator[str]:
    """``source`` in pieces of about ``_BLOCK_CHARS`` characters.

    A piece ends just after a line feed, which never splits a CR LF pair,
    so the pieces hold the same lines as the whole text.
    """
    pos = 0
    while pos < len(source):
        cut = source.find("\n", pos + _BLOCK_CHARS) + 1 or len(source)
        yield source[pos:cut]
        pos = cut


def _plain_form(piece: str) -> tuple[str, int]:
    """``piece`` brought into plain form line by line, and its number of lines.

    Blank lines are dropped, every other whitespace character becomes a
    space, and one line feed ends each row; no row gives "".
    """
    lines = piece.splitlines()
    rows = list(filter(str.strip, lines))
    rows.append("")  # the join then ends every row
    return "\n".join(rows).translate(_SPACES), len(lines)


def _parse_values(source: str, expected_header: str) -> list[array]:
    """Every number of the body as one float array per column, one entry a row.

    A body line is blank (only whitespace, skipped) or ``n_fields``
    comma-separated plain decimal numbers, each with any whitespace
    around it.  The text is read in pieces (``_blocks``), and each piece
    is checked and split at once in plain form: every row ``n_fields``
    fields of digits, ``.+-eE`` and spaces, ended by a line feed, so that
    deleting those characters leaves ``n_fields - 1`` commas and a line
    feed a row.  In that character set ``float`` reads the plain decimals
    only.  A well-formed LF file is in plain form as it stands; any other
    piece, and the header's, takes ``_plain_form`` first.  ``_line_error``
    names the first line of a piece that still fails.

    Each column is reserved once, for one row a line feed but no more
    than one per ``2 * n_fields`` characters (the shortest row); each
    piece's rows are written into it in place, a file with fewer line
    feeds than rows extends it, and the end trims it to the rows read.
    """
    pieces = _blocks(source)
    piece = next(pieces, "")
    if not piece:
        raise ParseError("empty file")
    header = piece.splitlines()[0]
    if header.strip() != expected_header:
        raise ParseError(f"bad header {header.strip()!r}, expected {expected_header!r}")
    n_fields = expected_header.count(",") + 1
    row = "," * (n_fields - 1) + "\n"
    reserved = min(source.count("\n"), len(source) // (2 * n_fields))
    columns = [array("d", [0.0]) * reserved for _ in range(n_fields)]
    n_rows, line_no = 0, 1
    piece = piece[len(header):]  # from the header's line break on: a blank first line
    while piece:
        text, n_lines = piece, piece.count("\n")
        try:
            # The first row turns most pieces that are not plain away before the whole is read.
            if not (text.endswith("\n") and text[:text.find("\n") + 1].translate(_GRAMMAR) == row
                    and text.translate(_GRAMMAR) == row * n_lines):
                text, n_lines = _plain_form(piece)
                if text.translate(_GRAMMAR) != row * text.count("\n"):
                    raise ValueError("not rows of plain decimal numbers")
            tokens = text.replace("\n", ",").split(",")
            end = len(tokens) - 1  # the last line feed leaves one empty token
            rows = slice(n_rows, n_rows + end // n_fields)
            for k, column in enumerate(columns):
                column[rows] = array("d", list(map(float, tokens[k:end:n_fields])))
        except ValueError:
            raise _line_error(piece.splitlines(), line_no, n_fields) from None
        n_rows = rows.stop
        line_no += n_lines
        piece = next(pieces, "")
    if not n_rows:
        raise ParseError("no data rows")
    for column in columns:
        del column[n_rows:]
    return columns


def _strided_axis(column: memoryview) -> tuple[list[float], int] | None:
    """The ascending axis a coordinate column repeats at one stride, and that stride.

    The stride is the number of leading rows that hold the first value; the
    axis is read from the column at that stride, and the whole column must
    equal the axis with each value repeated ``stride`` times, over and over:
    it is compared one such period at a time.  None when it does not.
    """
    first = column[0]
    stride = next((row for row, v in enumerate(column) if v != first), len(column))
    lead = column[::stride]
    n = 1
    while n < len(lead) and lead[n] > lead[n - 1]:
        n += 1
    span = n * stride
    if len(column) % span:
        return None
    axis = lead[:n].tolist()
    period = array("d")
    for value in axis:
        period.extend(array("d", (value,)) * stride)
    period = memoryview(period)
    if any(column[start:start + span] != period for start in range(0, len(column), span)):
        return None
    return axis, stride


def _nested_rows(columns: list[memoryview]) -> tuple[list, list] | None:
    """Axes and C-order node values of rows that nest the three axes in any order.

    Each coordinate column must repeat its axis at its own stride, and the
    strides must nest: 1, then each the product of the axis lengths under
    it, the last times its length giving the row count.  Every row then
    holds its own node.  None otherwise, or for an out-of-range coordinate.
    """
    found = [_strided_axis(column) for column in columns[:3]]
    if None in found:
        return None
    axes, strides = zip(*found)
    expected = 1
    for stride, n in sorted(zip(strides, map(len, axes))):
        if stride != expected:
            return None
        expected *= n
    if expected != len(columns[0]):
        return None
    if not (all(0.0 <= v < 360.0 for v in axes[1]) and all(-90.0 <= v <= 90.0 for v in axes[2])):
        return None
    # Runs of values evenly spaced in the file, each a stretch of C order:
    # the latitude run, widened over longitude and then time while the
    # strides allow (once in all for rows in C order).
    dims = list(zip(strides, map(len, axes)))
    step, run = dims.pop()
    while dims and dims[-1][0] == step * run:
        run *= dims.pop()[1]
    starts = [0]
    for stride, n in dims:
        starts = [start + i * stride for start in starts for i in range(n)]
    if starts == [0] and step == 1:  # C order: the value columns are the node values
        return list(axes), columns[3:]
    span = (run - 1) * step + 1
    values = [
        array("d", b"".join(column[start:start + span:step].tobytes() for start in starts))
        for column in columns[3:]
    ]
    return list(axes), values


def _any_rows(columns: list[memoryview]) -> tuple[list, list[array]]:
    """Axes and C-order node values of rows in any order, one row at a time.

    Raises the loader's errors for the first offending row or node.  Every
    list here has one entry per row or per axis value, none per node: a
    bad file's axes can span far more nodes than it has rows.
    """
    for lon, lat in zip(columns[1], columns[2]):  # longitude first within a row
        if not 0.0 <= lon < 360.0:
            raise ParseError(f"longitude {lon} deg outside [0, 360)")
        if not -90.0 <= lat <= 90.0:
            raise ParseError(f"latitude {lat} deg outside [-90, 90]")
    axes, positions = [], []
    for name, column in zip(("time", "longitude", "latitude"), columns):
        # Values in the order first seen; of -0.0 and 0.0 the first written stays.
        order = list(dict.fromkeys(column))
        if len(order) >= 2 and all(a > b for a, b in zip(order, order[1:])):
            raise NonMonotonicAxis(
                f"{name} axis values appear in descending order; list them ascending"
            )
        axis = sorted(order)
        index = {v: i for i, v in enumerate(axis)}
        axes.append(axis)
        positions.append(map(index.__getitem__, column))
    _, n_lon, n_lat = map(len, axes)
    nodes = [(i * n_lon + j) * n_lat + k for i, j, k in zip(*positions)]  # C order
    if len(set(nodes)) < len(nodes):  # the first row that repeats a node
        seen: set[int] = set()
        row = next(row for row, node in enumerate(nodes) if node in seen or seen.add(node))
        t, lon, lat = (column[row] for column in columns[:3])
        raise ParseError(f"duplicate node t={t}, lon={lon}, lat={lat}")
    if len(nodes) < math.prod(map(len, axes)):  # the first node missing in C order
        present = set(nodes)
        missing = next(node for node in count() if node not in present)
        i, rest = divmod(missing, n_lon * n_lat)
        t, lon, lat = axes[0][i], axes[1][rest // n_lat], axes[2][rest % n_lat]
        raise IncompleteGrid(f"missing node t={t}, lon={lon}, lat={lat}")
    row_of = nodes[:]  # a complete grid has one row per node
    for row, node in enumerate(nodes):
        row_of[node] = row
    return axes, [array("d", map(column.__getitem__, row_of)) for column in columns[3:]]


def load_grid(source: str) -> OffsetGrid3D:
    """Build an offset grid from grid-file content.

    Rows may list the nodes in any order.  Rows that nest the axes (any
    axis slowest, any next) are read by strided slices; other orders take
    a per-row path with the same result.  Rows in C order (time slowest,
    latitude fastest) need no gather: the parsed ``delta_t_k`` and
    ``delta_p_pa`` columns become the grid's storage, with no copy.

    Raises:
        ParseError: malformed header, rows, numbers, coordinate ranges,
            or duplicate nodes.
        NonMonotonicAxis: an axis whose values are listed in descending
            order (probably authored with a reversed axis convention),
            or that has fewer than two values or a non-finite one.
        IncompleteGrid: a missing (t, lon, lat) combination.
        NonPhysical: a node whose offsets take the column to zero
            kelvin, such as ``delta_t_k = -300``.
        OutOfValidityRange: a non-finite node value.
    """
    columns = list(map(memoryview, _parse_values(source, GRID_HEADER)))
    (t_axis, lon_axis_deg, lat_axis_deg), (dT, dp) = (
        _nested_rows(columns) or _any_rows(columns)
    )
    shape = (len(t_axis), len(lon_axis_deg), len(lat_axis_deg))
    return OffsetGrid3D(
        t_axis=tuple(t_axis),
        lon_axis=tuple(map(math.radians, lon_axis_deg)),
        lat_axis=tuple(map(math.radians, lat_axis_deg)),
        delta_T=_shaped(dT, shape),  # parsed or gathered, never computed: -0.0 stays -0.0
        delta_p=_shaped(dp, shape),
    )


def load_observations(source: str) -> list[Observation]:
    """Parse an observation file into observation records."""
    return list(_observations(_parse_values(source, OBSERVATION_HEADER)))


def _observation_slices(source: str, n_rows: int) -> Iterator[Iterator[Observation]]:
    """An observation file's observations, ``n_rows`` rows a slice, each built when drawn.

    The whole file parses first, so a syntax error wins over any row's checks, and
    only its numbers are kept, not the text: a slice is ``memoryview`` slices
    of the six parsed columns, no copy.
    """
    columns = list(map(memoryview, _parse_values(source, OBSERVATION_HEADER)))
    return (_observations([column[i:i + n_rows] for column in columns], i + 1)
            for i in range(0, len(columns[0]), n_rows))


def _observations(columns: Sequence, first_row: int = 1) -> Iterator[Observation]:
    """Parsed columns as observations; a bad row raises ``ParseError("observation row N: ...")``."""
    for row, (t, lon_deg, lat_deg, h, p, T) in enumerate(zip(*columns), first_row):
        try:
            obs = Observation(t, math.radians(lon_deg), math.radians(lat_deg), h, p, T)
        except AtmosphereError as err:
            raise ParseError(f"observation row {row}: {err}") from err
        yield obs
