import itertools
import math
import os
import pickle
import random
import re
import sys
import tempfile
import threading
import time
import tracemalloc
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from insa import (
    AtmosphereError,
    ConstantField,
    NonPhysical,
    GridField,
    IncompleteGrid,
    GeodeticPosition,
    NonMonotonicAxis,
    OffsetBounds,
    OffsetGrid3D,
    Offsets,
    OutOfDomain,
    OutOfValidityRange,
    ParseError,
    QuasiStaticModel,
    Waypoint,
    WaypointField,
    load_grid,
    load_observations,
)
from insa.identification import Observation
from insa import offset_field
from insa.offset_field import GRID_HEADER, OBSERVATION_HEADER, _file_blocks

TWO_PI = 2.0 * math.pi
MSL = GeodeticPosition(lon=0.0, lat=0.0, h=0.0)


def wp(t, offsets, lon=0.0, lat=0.0):
    return Waypoint(t=t, lon=lon, lat=lat, offsets=offsets)


class TestConstantField:
    def test_same_everywhere(self):
        field = ConstantField(Offsets(-20.0, 0.0))
        for t, lon, lat in ((0.0, 0.0, 0.0), (9e4, 3.0, -1.2), (-5.0, 6.2, 1.5)):
            assert field.evaluate(t, lon, lat) == Offsets(-20.0, 0.0)

    def test_validated_on_construction(self):
        # Physics only at construction; the bounds are the model's.
        field = ConstantField(Offsets(99.0, 0.0))
        with pytest.raises(OutOfValidityRange, match=r"^delta_T=99\.0 K outside"):
            QuasiStaticModel(field=field).query(0.0, MSL)
        wide = OffsetBounds(-100.0, 100.0, -15000.0, 15000.0)
        state = QuasiStaticModel(field=field, bounds=wide).query(0.0, MSL)
        assert state.T == state.T_isa + 99.0

    @pytest.mark.parametrize("delta_T", [-216.65, -250.0])
    def test_column_reaching_zero_kelvin_is_non_physical(self, delta_T):
        with pytest.raises(NonPhysical, match="tropopause temperature"):
            ConstantField(Offsets(delta_T, 0.0))


class TestRouteLinearField:
    """A route: two waypoints, departure and arrival, offsets linear in time between."""

    def setup_method(self):
        self.field = WaypointField(
            (wp(1000.0, Offsets(-20.0, -4000.0)), wp(5000.0, Offsets(20.0, 4000.0)))
        )

    def test_midpoint(self):
        mid = self.field.evaluate(3000.0, 0.0, 0.0)
        assert mid.delta_T == 0.0
        assert mid.delta_p == 0.0

    def test_endpoints_exact(self):
        assert self.field.evaluate(1000.0, 0.0, 0.0) == Offsets(-20.0, -4000.0)
        assert self.field.evaluate(5000.0, 0.0, 0.0) == Offsets(20.0, 4000.0)

    def test_clamped_outside_flight(self):
        assert self.field.evaluate(0.0, 0.0, 0.0) == Offsets(-20.0, -4000.0)
        assert self.field.evaluate(99999.0, 0.0, 0.0) == Offsets(20.0, 4000.0)

    def test_position_ignored(self):
        assert self.field.evaluate(2345.0, 0.1, 0.2) == self.field.evaluate(
            2345.0, 4.0, -1.0
        )

    def test_time_ordering_enforced(self):
        with pytest.raises(NonMonotonicAxis):
            WaypointField((wp(10.0, Offsets(0.0, 0.0)), wp(10.0, Offsets(0.0, 0.0))))
        with pytest.raises(NonMonotonicAxis):
            WaypointField((wp(20.0, Offsets(0.0, 0.0)), wp(10.0, Offsets(0.0, 0.0))))

    @given(st.floats(min_value=0.0, max_value=6000.0))
    def test_bounded_by_endpoints(self, t):
        got = self.field.evaluate(t, 0.0, 0.0)
        assert -20.0 <= got.delta_T <= 20.0
        assert -4000.0 <= got.delta_p <= 4000.0


class TestWaypointField:
    def setup_method(self):
        self.points = (
            wp(0.0, Offsets(-10.0, 1000.0)),
            wp(100.0, Offsets(0.0, -2000.0)),
            wp(400.0, Offsets(10.0, 3000.0)),
        )
        self.field = WaypointField(self.points)

    def test_node_exactness(self):
        for point in self.points:
            assert self.field.evaluate(point.t, 0.0, 0.0) == point.offsets

    def test_segment_interpolation(self):
        got = self.field.evaluate(50.0, 0.0, 0.0)
        assert got.delta_T == pytest.approx(-5.0, abs=1e-12)
        assert got.delta_p == pytest.approx(-500.0, abs=1e-12)
        got = self.field.evaluate(250.0, 0.0, 0.0)
        assert got.delta_T == pytest.approx(5.0, abs=1e-12)
        assert got.delta_p == pytest.approx(500.0, abs=1e-12)

    def test_clamping(self):
        for t in (-math.inf, -1e300, -50.0, -5e-324):
            assert self.field.evaluate(t, 0.0, 0.0) == self.points[0].offsets
        for t in (math.nextafter(400.0, math.inf), 1e6, math.inf):
            assert self.field.evaluate(t, 0.0, 0.0) == self.points[-1].offsets

    def test_nan_time_out_of_domain(self):
        # Bracketed like a grid's time axis: a NaN survives the clamp and fails the range test.
        for field in (self.field, WaypointField(self.points[:2])):
            with pytest.raises(OutOfDomain, match=r"^time nan outside \[0\.0, "):
                field.evaluate(math.nan, 0.0, 0.0)

    def test_signed_zero_end_pair_compares_equal(self):
        # An end pair comes back through the blend, so -0.0 may return as 0.0.
        points = (wp(0.0, Offsets(-0.0, -0.0)), wp(100.0, Offsets(5.0, 10.0)),
                  wp(200.0, Offsets(-0.0, 0.0)))
        field = WaypointField(points)
        for t, end in ((-math.inf, 0), (0.0, 0), (200.0, -1), (math.inf, -1)):
            assert field.evaluate(t, 0.0, 0.0) == points[end].offsets

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_waypoint_time_rejected(self, t):
        with pytest.raises(OutOfValidityRange, match="^time must be finite"):
            wp(t, Offsets(0.0, 0.0))

    def test_construction_requirements(self):
        with pytest.raises(NonMonotonicAxis):
            WaypointField(self.points[:1])
        with pytest.raises(NonMonotonicAxis):
            WaypointField((self.points[0], self.points[0]))

    def test_time_axis_kept_from_construction(self):
        points = tuple(wp(10.0 * i, Offsets(float(i % 7), 10.0 * i)) for i in range(1000))
        field = WaypointField(points)
        assert field._times == tuple(w.t for w in points)
        assert "_times" not in repr(field)
        assert field == WaypointField(list(points))
        for i in range(0, 999, 37):
            got = field.evaluate(10.0 * i + 2.5, 0.0, 0.0)
            a, b = points[i].offsets, points[i + 1].offsets
            assert got.delta_T == a.delta_T + 0.25 * (b.delta_T - a.delta_T)
            assert got.delta_p == a.delta_p + 0.25 * (b.delta_p - a.delta_p)


def make_grid(n_t=3, n_lon=4, n_lat=3, fill=None):
    t_axis = tuple(3600.0 * i for i in range(n_t))
    lon_axis = tuple(i * TWO_PI / n_lon for i in range(n_lon))
    lat_axis = tuple(math.radians(v) for v in np.linspace(-60.0, 60.0, n_lat))
    rng = np.random.default_rng(41)
    if fill is None:
        delta_T = rng.uniform(-20.0, 20.0, (n_t, n_lon, n_lat))
        delta_p = rng.uniform(-5000.0, 5000.0, (n_t, n_lon, n_lat))
    else:
        delta_T = np.full((n_t, n_lon, n_lat), fill[0])
        delta_p = np.full((n_t, n_lon, n_lat), fill[1])
    return OffsetGrid3D(
        t_axis=t_axis, lon_axis=lon_axis, lat_axis=lat_axis,
        delta_T=delta_T, delta_p=delta_p,
    )


class TestGridField:
    def test_node_exactness(self):
        grid = make_grid()
        field = GridField(grid)
        for it, t in enumerate(grid.t_axis):
            for il, lon in enumerate(grid.lon_axis):
                for ik, lat in enumerate(grid.lat_axis):
                    got = field.evaluate(t, lon, lat)
                    assert got.delta_T == grid.delta_T[it, il, ik]
                    assert got.delta_p == grid.delta_p[it, il, ik]

    def test_west_of_first_node_rounding_onto_it_is_exact(self):
        # lon + 2*pi rounds onto the first node one turn on: the node's value,
        # not a weight-1 blend from the last node.
        a, b = 21.101969518129124, -19.594477940846264
        lon = 0.49999999999999956
        assert lon < 0.5 and lon + TWO_PI == 0.5 + TWO_PI
        grid = OffsetGrid3D((0.0, 1.0), (0.5, 5.0), (0.0, 0.5),
                            [[[b, b], [a, a]]] * 2, [[[0.0, 0.0]] * 2] * 2)
        got = GridField(grid).evaluate(0.5, lon, 0.25)
        assert got.delta_T.hex() == b.hex()

    def test_constant_field_invariance(self):
        field = GridField(make_grid(fill=(10.0, 2500.0)))
        rng = np.random.default_rng(43)
        for _ in range(200):
            t = rng.uniform(0.0, 7200.0)
            lon = rng.uniform(0.0, TWO_PI)
            lat = rng.uniform(math.radians(-60.0), math.radians(60.0))
            assert field.evaluate(t, lon, lat) == Offsets(10.0, 2500.0)

    def test_longitude_wraps(self):
        field = GridField(make_grid())
        rng = np.random.default_rng(47)
        for _ in range(200):
            t = rng.uniform(0.0, 7200.0)
            lon = rng.uniform(-TWO_PI, TWO_PI)
            lat = rng.uniform(math.radians(-60.0), math.radians(60.0))
            a = field.evaluate(t, lon, lat)
            b = field.evaluate(t, lon + TWO_PI, lat)
            assert a.delta_T == pytest.approx(b.delta_T, abs=1e-12)
            assert a.delta_p == pytest.approx(b.delta_p, abs=1e-12)

    def test_seam_interpolation_bounded(self):
        grid = make_grid()
        field = GridField(grid)
        # Between the last longitude node and the first one across the seam.
        lon = grid.lon_axis[-1] + 0.4 * (TWO_PI - grid.lon_axis[-1])
        got = field.evaluate(grid.t_axis[0], lon, grid.lat_axis[0])
        lo = min(grid.delta_T[0, -1, 0], grid.delta_T[0, 0, 0])
        hi = max(grid.delta_T[0, -1, 0], grid.delta_T[0, 0, 0])
        assert lo - 1e-9 <= got.delta_T <= hi + 1e-9

    def test_interpolation_bounded_by_nodes(self):
        grid = make_grid()
        field = GridField(grid)
        rng = np.random.default_rng(53)
        for _ in range(500):
            t = rng.uniform(0.0, 7200.0)
            lon = rng.uniform(0.0, TWO_PI)
            lat = rng.uniform(math.radians(-60.0), math.radians(60.0))
            got = field.evaluate(t, lon, lat)
            assert np.min(grid.delta_T) - 1e-9 <= got.delta_T <= np.max(grid.delta_T) + 1e-9
            assert np.min(grid.delta_p) - 1e-9 <= got.delta_p <= np.max(grid.delta_p) + 1e-9

    def test_out_of_domain(self):
        field = GridField(make_grid())
        with pytest.raises(OutOfDomain):
            field.evaluate(-1.0, 0.0, 0.0)
        with pytest.raises(OutOfDomain):
            field.evaluate(0.0, 0.0, math.radians(75.0))
        with pytest.raises(OutOfDomain):
            field.evaluate(math.nan, 0.0, 0.0)

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_non_finite_longitude_out_of_domain(self, lon):
        # The same error as for any other non-finite longitude.
        with pytest.raises(OutOfValidityRange, match="longitude must be finite"):
            GridField(make_grid()).evaluate(0.0, lon, 0.0)

    def test_pickles(self):
        field = GridField(make_grid())
        clone = pickle.loads(pickle.dumps(field))
        assert clone.evaluate(1000.0, 2.0, 0.3) == field.evaluate(1000.0, 2.0, 0.3)

    def test_axes_validated(self):
        with pytest.raises(NonMonotonicAxis):
            OffsetGrid3D(
                t_axis=(0.0, 0.0),
                lon_axis=(0.0, 1.0),
                lat_axis=(0.0, 0.5),
                delta_T=np.zeros((2, 2, 2)),
                delta_p=np.zeros((2, 2, 2)),
            )
        # Out of the default bounds but physical: the grid builds, the model rejects it.
        warm = OffsetGrid3D(
            t_axis=(0.0, 1.0),
            lon_axis=(0.0, 1.0),
            lat_axis=(0.0, 0.5),
            delta_T=np.full((2, 2, 2), 77.0),
            delta_p=np.zeros((2, 2, 2)),
        )
        with pytest.raises(OutOfValidityRange, match=r"^delta_T=77\.0 K outside"):
            QuasiStaticModel(field=GridField(warm)).query(0.0, MSL)

    @pytest.mark.parametrize("lon_axis", [(-0.5, 1.0), (1.0, TWO_PI), (1.0, 7.0)])
    def test_longitude_axis_outside_one_turn_rejected(self, lon_axis):
        with pytest.raises(NonMonotonicAxis, match=r"longitude axis must lie in \[0, 2\*pi\)"):
            OffsetGrid3D(
                t_axis=(0.0, 1.0), lon_axis=lon_axis, lat_axis=(0.0, 0.5),
                delta_T=np.zeros((2, 2, 2)), delta_p=np.zeros((2, 2, 2)),
            )

    @pytest.mark.parametrize("lat_axis", [(0.0, 2.0), (-1.6, 0.0)])
    def test_latitude_axis_outside_half_turn_rejected(self, lat_axis):
        with pytest.raises(OutOfValidityRange, match=r"^latitude .* outside \[-pi/2, pi/2\]"):
            OffsetGrid3D(
                t_axis=(0.0, 1.0), lon_axis=(0.0, 1.0), lat_axis=lat_axis,
                delta_T=np.zeros((2, 2, 2)), delta_p=np.zeros((2, 2, 2)),
            )

    @pytest.mark.parametrize("shapes", [((2, 2, 3), (2, 2, 2)), ((2, 2, 2), (8,))])
    def test_value_arrays_of_wrong_shape_rejected(self, shapes):
        with pytest.raises(ValueError, match=r"value arrays must have shape \(2, 2, 2\)"):
            self.small_grid(np.zeros(shapes[0]), np.zeros(shapes[1]))

    @staticmethod
    def small_grid(delta_T, delta_p):
        return OffsetGrid3D(
            t_axis=(0.0, 1.0), lon_axis=(0.0, 1.0), lat_axis=(0.0, 0.5),
            delta_T=delta_T, delta_p=delta_p,
        )

    def test_first_bad_node_in_c_order_is_reported(self):
        dT, dp = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
        dT[1, 0, 0] = -300.0
        dT[0, 1, 1] = -250.0
        with pytest.raises(NonPhysical, match=r"^delta_T=-250\.0 K implies"):
            self.small_grid(dT, dp)
        # Fortran order storage does not change which node comes first.
        with pytest.raises(NonPhysical, match=r"^delta_T=-250\.0 K implies"):
            self.small_grid(np.asfortranarray(dT), dp)

    def test_first_bad_node_decides_the_error_type(self):
        dT, dp = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
        dp[0, 0, 1] = -2e5
        dT[1, 1, 1] = math.nan
        with pytest.raises(NonPhysical, match="delta_p=-200000.0 Pa"):
            self.small_grid(dT, dp)
        dp[0, 0, 1] = 0.0
        dT[0, 0, 1] = -250.0
        with pytest.raises(NonPhysical, match=r"^delta_T=-250\.0 K implies"):
            self.small_grid(dT, dp)
        dT[0, 0, 1] = 0.0
        with pytest.raises(OutOfValidityRange, match="must be finite"):
            self.small_grid(dT, dp)

    def test_node_reaching_zero_kelvin_is_non_physical(self):
        dT, dp = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
        dT[0, 0, 1] = -250.0
        dT[1, 1, 1] = 77.0
        with pytest.raises(NonPhysical, match="tropopause temperature"):
            self.small_grid(dT, dp)


def reference_evaluate(t_axis, lon_axis, lat_axis, dT, dp, t, lon, lat):
    """Nested lerps over numpy element indexing, brackets found on their own."""

    def bracket(axis, x):
        if x == axis[-1]:
            return len(axis) - 1, len(axis) - 1, 0.0
        i = bisect_right(axis, x) - 1
        if x == axis[i]:
            return i, i, 0.0
        return i, i + 1, (x - axis[i]) / (axis[i + 1] - axis[i])

    def bracket_lon(axis, lon):
        x = lon % TWO_PI
        i = bisect_right(axis, x) - 1
        if i >= 0 and x == axis[i]:
            return i, i, 0.0
        if i < 0 or i == len(axis) - 1:
            gap = axis[0] + TWO_PI - axis[-1]
            position = x - axis[-1] if i == len(axis) - 1 else x + TWO_PI - axis[-1]
            return len(axis) - 1, 0, position / gap
        return i, i + 1, (x - axis[i]) / (axis[i + 1] - axis[i])

    (i0, i1, wi), (j0, j1, wj), (k0, k1, wk) = (
        bracket(t_axis, t), bracket_lon(lon_axis, lon), bracket(lat_axis, lat)
    )

    def lerp(a, b, w):
        return a + w * (b - a)

    def blend(v):
        def along_lon(k):
            c0 = lerp(v[i0, j0, k], v[i1, j0, k], wi)
            return lerp(c0, lerp(v[i0, j1, k], v[i1, j1, k], wi), wj)

        return float(lerp(along_lon(k0), along_lon(k1), wk))

    return Offsets(blend(dT), blend(dp))


def _layouts():
    """(name, maker) pairs: the same (t, lon, lat) values in three storages."""
    return [
        ("c", lambda a: a),
        ("fortran", np.asfortranarray),
        ("transposed", lambda a: np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)),
        ("strided", lambda a: np.repeat(a, 2, axis=2)[:, :, ::2]),
    ]


class TestGridKernel:
    """GridField.evaluate against a nested-lerp reference, bit for bit."""

    shape = (5, 9, 6)

    def values(self):
        rng = np.random.default_rng(59)
        return rng.uniform(-40.0, 40.0, self.shape), rng.uniform(-9000.0, 9000.0, self.shape)

    def axes(self):
        n_t, n_lon, n_lat = self.shape
        lon = np.sort(np.random.default_rng(61).uniform(0.0, TWO_PI, n_lon))
        return (
            tuple(600.0 * i for i in range(n_t)),
            tuple(float(v) for v in lon),
            tuple(float(v) for v in np.linspace(-1.3, 1.4, n_lat)),
        )

    def queries(self, t_axis, lon_axis, lat_axis):
        rng = np.random.default_rng(67)
        out = [
            (float(t), float(lon), float(lat))
            for t, lon, lat in zip(
                rng.uniform(t_axis[0], t_axis[-1], 2000),
                rng.uniform(-TWO_PI, 2.0 * TWO_PI, 2000),
                rng.uniform(lat_axis[0], lat_axis[-1], 2000),
            )
        ]
        out += [(t, lon, lat) for t in t_axis for lon in lon_axis for lat in lat_axis]
        seam = (0.0, -0.0, 1e-300, -1e-12, math.nextafter(TWO_PI, 0.0), lon_axis[0], lon_axis[-1],
                lon_axis[-1] + 1e-9, 0.5 * (lon_axis[-1] + TWO_PI), TWO_PI, -TWO_PI)
        out += [(t_axis[-1], lon, lat) for lon in seam for lat in (lat_axis[0], 0.1, lat_axis[-1])]
        last = (t_axis[-1], math.nextafter(t_axis[-1], 0.0))
        out += [(t, lon, 0.2) for t in last for lon in seam]
        return out

    @pytest.mark.parametrize("layout", [name for name, _ in _layouts()])
    def test_bit_identical_to_reference(self, layout):
        make = dict(_layouts())[layout]
        dT, dp = self.values()
        sT, sp = make(dT), make(dp)
        assert np.array_equal(sT, dT) and np.array_equal(sp, dp)
        assert (layout == "c") == sT.flags.c_contiguous
        t_axis, lon_axis, lat_axis = self.axes()
        grid = OffsetGrid3D(t_axis, lon_axis, lat_axis, sT, sp)
        assert grid.delta_T.c_contiguous and grid.delta_p.c_contiguous
        field = GridField(grid)
        for t, lon, lat in self.queries(t_axis, lon_axis, lat_axis):
            got = field.evaluate(t, lon, lat)
            want = reference_evaluate(t_axis, lon_axis, lat_axis, sT, sp, t, lon, lat)
            assert (got.delta_T, got.delta_p) == (want.delta_T, want.delta_p), (t, lon, lat)
            assert type(got.delta_T) is float and type(got.delta_p) is float

    def test_reads_the_grids_own_storage(self):
        dT, dp = self.values()
        grid = OffsetGrid3D(*self.axes(), dT, dp)
        # C-contiguous input: no copy
        assert np.shares_memory(np.asarray(grid.delta_T), dT)
        assert np.shares_memory(np.asarray(grid.delta_p), dp)
        field = GridField(grid)
        t, lon, lat = grid.t_axis[2], grid.lon_axis[3], grid.lat_axis[4]
        grid.delta_T[2, 3, 4] = 12.5
        assert field.evaluate(t, lon, lat).delta_T == 12.5


class TestGridStorage:
    """The value views: C-order float64 bytes whatever the input, shared when it already is."""

    shape = (4, 5, 6)

    def values(self):
        rng = np.random.default_rng(73)
        dT = rng.uniform(-40.0, 40.0, self.shape)
        dT[0, 0, :2] = -0.0, 0.0
        return dT, rng.uniform(-9000.0, 9000.0, self.shape)

    def axes(self):
        n_t, n_lon, n_lat = self.shape
        return (tuple(600.0 * i for i in range(n_t)), tuple(i / n_lon for i in range(n_lon)),
                tuple(0.2 * i - 0.5 for i in range(n_lat)))

    @pytest.mark.parametrize("make", [
        *(make for _, make in _layouts()),
        lambda a: a.tolist(),
        lambda a: tuple(map(tuple, a)),
        lambda a: a.astype(np.float32),
        lambda a: np.round(a).astype(np.int64),
        lambda a: a.astype(">f8"),
    ], ids=[*(name for name, _ in _layouts()), "lists", "tuples", "float32", "int64", "big_endian"])
    def test_any_input_gives_the_c_order_bytes(self, make):
        dT, dp = self.values()
        sT, sp = make(dT), make(dp)
        grid = OffsetGrid3D(*self.axes(), sT, sp)
        for got, given in ((grid.delta_T, sT), (grid.delta_p, sp)):
            assert (got.format, got.shape, got.c_contiguous) == ("d", self.shape, True)
            want = np.ascontiguousarray(given, dtype=float)
            assert np.asarray(got).tobytes() == want.tobytes()
            shared = isinstance(given, np.ndarray) and np.shares_memory(np.asarray(got), given)
            assert shared == (want is given)  # viewed exactly when numpy makes no copy

    def test_ragged_or_shallow_nested_lists_rejected(self):
        ragged = np.zeros(self.shape).tolist()
        ragged[3][4].pop()
        for dT, dp in ((ragged, np.zeros(self.shape)), (np.zeros(self.shape), [[0.0] * 5] * 4)):
            with pytest.raises(ValueError, match=r"value arrays must have shape \(4, 5, 6\)"):
                OffsetGrid3D(*self.axes(), dT, dp)

    def test_repr_stays_short_for_a_large_grid(self):
        n_t, n_lon, n_lat = 24, 144, 73
        grid = OffsetGrid3D(
            tuple(range(n_t)), tuple(i / 24 for i in range(n_lon)),
            tuple(i / 50 - 0.72 for i in range(n_lat)),
            np.zeros((n_t, n_lon, n_lat)), np.zeros((n_t, n_lon, n_lat)),
        )
        text = repr(grid)
        assert "delta_T=<float64 24x144x73>, delta_p=<float64 24x144x73>)" in text
        assert len(text) < 6000 and " at 0x" not in text


def memo_grid():
    """A small grid whose first longitude node is east of 0, so the seam
    cell has a part west of it."""
    rng = np.random.default_rng(71)
    shape = (3, 5, 4)
    return OffsetGrid3D(
        t_axis=(0.0, 600.0, 1200.0),
        lon_axis=(0.3, 1.5, 3.0, 4.5, 6.0),
        lat_axis=(-1.0, -0.2, 0.4, 1.1),
        delta_T=rng.uniform(-30.0, 30.0, shape),
        delta_p=rng.uniform(-8000.0, 8000.0, shape),
    )


def outcome(field, t, lon, lat):
    """The bits of the value, or the type and message of the error."""
    try:
        got = field.evaluate(t, lon, lat)
    except AtmosphereError as err:
        return type(err), str(err)
    return got.delta_T.hex(), got.delta_p.hex()


def fresh(grid, t, lon, lat):
    """The outcome on a field that has never been queried."""
    return outcome(GridField(grid), t, lon, lat)


@contextmanager
def counted_brackets():
    """Yields the number of axis bracketings made so far in the block."""
    with mock.patch.object(offset_field, "_bracket", wraps=offset_field._bracket) as a:
        yield lambda: a.call_count


_MEMO_GRID = memo_grid()
# Values a walk may jump to on each axis: nodes and their neighbours, the
# domain edges and beyond, the seam from both sides, non-finite values.
MEMO_SPECIALS = tuple(
    (
        *axis,
        *(math.nextafter(v, math.inf) for v in axis),
        *(math.nextafter(v, -math.inf) for v in axis),
        *extra,
        math.nan,
        math.inf,
        -math.inf,
    )
    for axis, extra in (
        (_MEMO_GRID.t_axis, (-1.0, 1300.0, 1e-300)),
        (_MEMO_GRID.lon_axis, (
            0.0, -0.0, 1e-300, -1e-12, -0.1, math.nextafter(TWO_PI, 0.0), TWO_PI,
            TWO_PI + 0.1, TWO_PI + 6.1, -TWO_PI, -0.2 - TWO_PI,
        )),
        (_MEMO_GRID.lat_axis, (-1.2, 1.2, -math.pi / 2.0, math.pi / 2.0, 2.0)),
    )
)
MEMO_RANGES = ((-10.0, 1210.0), (-1.0, 7.5), (-1.02, 1.12))


@st.composite
def walks(draw):
    """A short path of small steps; now and then one query has one
    coordinate set to a special value, and the walk goes on from the path."""
    point = [draw(st.floats(lo, hi)) for lo, hi in MEMO_RANGES]
    path = []
    for _ in range(draw(st.integers(1, 12))):
        query = list(point)
        if draw(st.integers(0, 3)) == 0:
            axis = draw(st.integers(0, 2))
            query[axis] = draw(st.sampled_from(MEMO_SPECIALS[axis]))
        path.append(tuple(query))
        for axis, (lo, hi) in enumerate(MEMO_RANGES):
            point[axis] += draw(st.floats(-0.01, 0.01)) * (hi - lo)
    return path


class TestCellMemo:
    """GridField's last-cell memo saves the bracketing and changes no result."""

    INSIDE = (250.0, 2.0, 0.1)  # in the cell (0, 600) x (1.5, 3.0) x (-0.2, 0.4)

    def warmed(self):
        grid = memo_grid()
        field = GridField(grid)
        assert outcome(field, *self.INSIDE) == fresh(grid, *self.INSIDE)
        return grid, field

    def test_hit_skips_the_bracketing(self):
        grid, field = self.warmed()
        queries = [(1e-9, 1.5000001, -0.19), (599.0, 2.9, 0.39), (300.0, 2.2, 0.0)]
        expected = [fresh(grid, *q) for q in queries]
        with counted_brackets() as bracketings:
            assert [outcome(field, *q) for q in queries] == expected
            assert bracketings() == 0

    def test_seam_east_hits_and_west_misses(self):
        grid = memo_grid()
        field = GridField(grid)
        east = [(100.0, 6.1, 0.5), (110.0, 6.2, 0.6), (120.0, math.nextafter(TWO_PI, 0.0), 0.7)]
        west = (130.0, 0.1, 0.8)  # the same seam cell, west of the first node
        expected = [fresh(grid, *q) for q in [*east, west]]
        got = [outcome(field, *east[0])]
        with counted_brackets() as bracketings:
            got += [outcome(field, *q) for q in east[1:]]
            assert bracketings() == 0
            got.append(outcome(field, *west))
            assert bracketings() == 3
        assert got == expected

    @pytest.mark.parametrize("query", [
        (0.0, 2.0, 0.1), (600.0, 2.0, 0.1),
        (250.0, 1.5, 0.1), (250.0, 3.0, 0.1),
        (250.0, 2.0, -0.2), (250.0, 2.0, 0.4),
    ])
    def test_node_after_a_hit(self, query):
        grid, field = self.warmed()
        with counted_brackets() as bracketings:
            got = outcome(field, *query)
            assert bracketings() == 3
        assert got == fresh(grid, *query)

    @pytest.mark.parametrize("query", [
        (-1.0, 2.0, 0.1), (1300.0, 2.0, 0.1), (250.0, 2.0, 1.2), (250.0, 2.0, -1.5),
    ])
    def test_out_of_domain_after_a_hit(self, query):
        grid, field = self.warmed()
        got = outcome(field, *query)
        assert got[0] is OutOfDomain
        assert got == fresh(grid, *query)

    @pytest.mark.parametrize("query, error", [
        ((math.nan, 2.0, 0.1), OutOfDomain),
        ((250.0, math.nan, 0.1), OutOfValidityRange),
        ((250.0, 2.0, math.nan), OutOfDomain),
        ((250.0, math.inf, 0.1), OutOfValidityRange),
        ((250.0, -math.inf, 0.1), OutOfValidityRange),
    ])
    def test_non_finite_after_a_hit(self, query, error):
        grid, field = self.warmed()
        got = outcome(field, *query)
        assert got[0] is error
        assert got == fresh(grid, *query)

    def test_written_value_seen_after_a_hit(self):
        grid, field = self.warmed()
        query = (300.0, 2.2, 0.0)
        before = outcome(field, *query)
        grid.delta_T[0, 1, 1] = 12.5  # a corner of the remembered cell
        with counted_brackets() as bracketings:
            got = outcome(field, *query)
            assert bracketings() == 0
        assert got == fresh(grid, *query)
        assert got[0] != before[0] and got[1] == before[1]

    def test_memo_not_in_repr(self):
        grid, field = self.warmed()
        assert "_cell" not in repr(field)
        assert repr(field) == repr(GridField(grid))

    def test_shared_between_threads(self):
        # Four walks through one field, each mostly in its own cells, so the
        # threads keep replacing each other's memo; none may see another's.
        grid = memo_grid()
        field = GridField(grid)
        paths = [
            [(t0 + 0.2 * i, lon0 + 0.0002 * i, lat0 + 0.0001 * i) for i in range(2000)]
            for t0, lon0, lat0 in ((10.0, 0.35, -0.9), (650.0, 1.6, 0.5), (200.0, 6.01, 0.0),
                                   (700.0, 3.2, -0.1))
        ]
        expected = [[fresh(grid, *q) for q in path] for path in paths]
        got = [[] for _ in paths]

        def walk(i):
            got[i].extend(outcome(field, *q) for q in paths[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(i,)) for i in range(len(paths))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(walks())
    def test_walk_matches_fresh_fields(self, path):
        grid, field = self.warmed()
        for query in path:
            assert outcome(field, *query) == fresh(grid, *query), query


def grid_file(rows, header="t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa"):
    return "\n".join([header, *rows]) + "\n"


# Unicode digits, given by their zero, that float() reads but the file formats exclude.
NON_ASCII_DIGITS = pytest.mark.parametrize(
    "zero", [0x0660, 0xFF10], ids=["arabic_indic", "fullwidth"]
)


def non_ascii(text, zero):
    return text.translate({ord("0") + d: zero + d for d in range(10)})


MINIMAL_ROWS = [
    f"{t},{lon},{lat},{5.0 + t / 3600.0},{100.0 * lon}"
    for t in (0.0, 3600.0)
    for lon in (10.0, 20.0)
    for lat in (40.0, 50.0)
]


class TestLoadGrid:
    def test_minimal_complete_grid(self):
        grid = load_grid(grid_file(MINIMAL_ROWS))
        assert grid.n_nodes == 8
        assert grid.t_axis == (0.0, 3600.0)
        assert grid.lon_axis == (math.radians(10.0), math.radians(20.0))
        assert grid.lat_axis == (math.radians(40.0), math.radians(50.0))
        assert grid.delta_T[1, 0, 0] == 6.0
        assert grid.delta_p[0, 1, 1] == 2000.0

    def test_rows_in_any_nesting_order(self):
        shuffled = [MINIMAL_ROWS[i] for i in (0, 4, 1, 5, 2, 6, 3, 7)]
        grid = load_grid(grid_file(shuffled))
        assert grid.n_nodes == 8

    def test_missing_node(self):
        with pytest.raises(IncompleteGrid):
            load_grid(grid_file(MINIMAL_ROWS[:-1]))

    def test_descending_latitude_axis(self):
        rows = [
            f"{t},{lon},{lat},0.0,0.0"
            for t in (0.0, 3600.0)
            for lon in (10.0, 20.0)
            for lat in (50.0, 40.0)
        ]
        with pytest.raises(NonMonotonicAxis):
            load_grid(grid_file(rows))

    def test_duplicate_node(self):
        with pytest.raises(ParseError):
            load_grid(grid_file(MINIMAL_ROWS + [MINIMAL_ROWS[0]]))
        # Every node twice: each column nests, but at twice the node count.
        rows = [f"{t},{lon},{lat},0.0,0.0" for t in (0.0, 3600.0) for lon in (0.0, 10.0)
                for lat in (-10.0, 10.0)]
        with pytest.raises(ParseError, match=r"^duplicate node t=0\.0, lon=0\.0, lat=-10\.0$"):
            load_grid(grid_file(rows + rows))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_grid(grid_file(MINIMAL_ROWS, header="time,lon,lat,dt,dp"))

    def test_malformed_rows(self):
        with pytest.raises(ParseError):
            load_grid(grid_file(["1,2,3,4"]))
        with pytest.raises(ParseError):
            load_grid(grid_file(["0.0,10.0,40.0,abc,0.0"]))
        with pytest.raises(ParseError):
            load_grid(grid_file(["0.0,10.0,40.0,1_000,0.0"]))
        with pytest.raises(ParseError):
            load_grid("")

    @NON_ASCII_DIGITS
    def test_non_ascii_digits_rejected(self, zero):
        row = non_ascii("0.0,10.0,40.0,5.0,250.0", zero)
        with pytest.raises(ParseError, match="not a plain decimal number"):
            load_grid(grid_file([row]))

    def test_coordinate_ranges(self):
        with pytest.raises(ParseError):
            load_grid(grid_file(["0.0,370.0,40.0,0.0,0.0"]))
        with pytest.raises(ParseError):
            load_grid(grid_file(["0.0,10.0,95.0,0.0,0.0"]))

    @pytest.mark.parametrize(
        "repeated, error, message",
        [
            ((), IncompleteGrid, r"^missing node t=0\.0, lon=0\.0, lat=-37\.25$"),
            ((7,), ParseError, r"^duplicate node t=7\.0, lon=7\.0, lat=-35\.75$"),
        ],
        ids=["missing", "duplicate"],
    )
    def test_sparse_axes_allocate_nothing_per_node(self, repeated, error, message):
        # 300 rows on a diagonal span 300**3 = 27M nodes; 8 bytes a node would be 216 MB.
        rows = [f"{i}.0,{i},{i / 4 - 37.5},0.0,0.0" for i in range(300)]
        rows += [rows[i] for i in repeated]
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                load_grid(grid_file(rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


_NUMBER = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")


def reference_parse_rows(source: str, expected_header: str) -> list[tuple[float, ...]]:
    """The line-by-line parse that the chunked parse replaced, kept as its reference."""
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


def reference_load_grid(source):
    """The dict-and-triple-loop loader that index arithmetic replaced."""
    rows = reference_parse_rows(source, GRID_HEADER)
    for t, lon, lat, _, _ in rows:
        if not 0.0 <= lon < 360.0:
            raise ParseError(f"longitude {lon} deg outside [0, 360)")
        if not -90.0 <= lat <= 90.0:
            raise ParseError(f"latitude {lat} deg outside [-90, 90]")
    axes = []
    for name, idx in (("time", 0), ("longitude", 1), ("latitude", 2)):
        order = []
        for row in rows:
            if row[idx] not in order:
                order.append(row[idx])
        if len(order) >= 2 and all(a > b for a, b in zip(order, order[1:])):
            raise NonMonotonicAxis(
                f"{name} axis values appear in descending order; list them ascending"
            )
        axes.append(sorted(order))
    nodes = {}
    for t, lon, lat, d_T, d_p in rows:
        if (t, lon, lat) in nodes:
            raise ParseError(f"duplicate node t={t}, lon={lon}, lat={lat}")
        nodes[t, lon, lat] = (d_T, d_p)
    shape = tuple(len(axis) for axis in axes)
    delta_T, delta_p = np.empty(shape), np.empty(shape)
    for (it, t), (il, lon), (ik, lat) in itertools.product(*map(enumerate, axes)):
        if (t, lon, lat) not in nodes:
            raise IncompleteGrid(f"missing node t={t}, lon={lon}, lat={lat}")
        delta_T[it, il, ik], delta_p[it, il, ik] = nodes[t, lon, lat]
    return OffsetGrid3D(
        tuple(axes[0]), tuple(map(math.radians, axes[1])), tuple(map(math.radians, axes[2])),
        delta_T, delta_p,
    )


def _load_outcome(load, text):
    """Axes and values as bytes, so -0.0 and 0.0 differ; or the error type and message."""
    try:
        grid = load(text)
    except AtmosphereError as err:
        return type(err), str(err)
    axes = (grid.t_axis, grid.lon_axis, grid.lat_axis)
    values = (grid.delta_T, grid.delta_p)
    return tuple(np.array(a).tobytes() for a in (*axes, *values))


def _signed(draw, value):
    return -0.0 if value == 0.0 and draw(st.booleans()) else value


@st.composite
def grid_texts(draw):
    """Small grid files: whole, or with rows shuffled, dropped, duplicated or out of range."""
    pools = ([0.0, 600.0, 3600.0], [0.0, 10.0, 90.0, 350.0], [-90.0, -30.0, 0.0, 45.0, 90.0])
    axes = []
    for pool in pools:
        size = draw(st.sampled_from([1, 2, 2, 2, 2, 3, 3, 3, 3, 3]))
        axis = sorted(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size,
                                    unique=True)))
        axes.append(axis[::-1] if draw(st.integers(0, 11)) == 0 else axis)
    # Node values come from a seeded stream: far cheaper than a hypothesis draw each.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def values():
        return rng.choice([-0.0, 0.0, rng.uniform(-40.0, 40.0)])

    nesting = draw(st.permutations(range(3)))  # which axis varies slowest in the file
    nodes = (
        [node[nesting.index(k)] for k in range(3)]
        for node in itertools.product(*(axes[k] for k in nesting))
    )
    rows = [[*(_signed(draw, v) for v in node), values(), values()] for node in nodes]
    if draw(st.integers(0, 2)) == 0:
        rows = draw(st.permutations(rows))
    if len(rows) > 1 and draw(st.integers(0, 4)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 2]))):
        row = list(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            row[3:] = values(), values()
        row[:3] = (_signed(draw, v) for v in row[:3])
        rows.insert(draw(st.integers(0, len(rows))), row)
    bad = draw(st.sampled_from([None] * 20 + [(1, 360.0), (1, -0.5), (2, 90.5), (2, -91.0)]))
    if bad is not None:
        rows[draw(st.integers(0, len(rows) - 1))][bad[0]] = bad[1]
    return grid_file([",".join(map(repr, row)) for row in rows])


class TestLoadGridDifferential:
    """load_grid against the reference loader: same grid bytes, or same error and message."""

    @settings(max_examples=200, deadline=None)
    @given(grid_texts())
    def test_matches_reference(self, text):
        assert _load_outcome(load_grid, text) == _load_outcome(reference_load_grid, text)


def _nesting_orders():
    """One grid with 4 to 6 nodes per axis and -0.0 in coordinates and values,
    as rows in C order, in all six nestings and shuffled."""
    axes = ([-0.0, 600.0, 1200.0, 3600.0], [-0.0, 10.0, 90.0, 180.0, 350.0],
            [-60.0, -30.0, -0.0, 15.0, 45.0, 90.0])
    rng = random.Random(79)
    nodes = {
        node: (rng.choice([-0.0, 0.0, rng.uniform(-40.0, 40.0)]), rng.uniform(-9e3, 9e3))
        for node in itertools.product(*axes)
    }
    texts = {}
    for nesting in itertools.permutations(range(3)):
        rows = [
            [node[nesting.index(k)] for k in range(3)]
            for node in itertools.product(*(axes[k] for k in nesting))
        ]
        texts["".join("tyx"[k] for k in nesting)] = rows
    texts["shuffled"] = rng.sample(texts["tyx"], len(texts["tyx"]))
    return {
        name: grid_file([",".join(map(repr, [*node, *nodes[tuple(node)]])) for node in rows])
        for name, rows in texts.items()
    }


class TestRowOrder:
    """Every nesting order loads by strides, other orders row by row, to the same bytes."""

    TEXTS = _nesting_orders()

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_same_bytes_as_c_order_and_reference(self, name):
        text = self.TEXTS[name]
        with mock.patch.object(offset_field, "_any_rows", wraps=offset_field._any_rows) as rows:
            got = _load_outcome(load_grid, text)
        assert rows.called == (name == "shuffled")
        assert got == _load_outcome(load_grid, self.TEXTS["tyx"])
        assert got == _load_outcome(reference_load_grid, text)
        assert all(isinstance(part, bytes) for part in got)  # a grid, not an error
        assert got[0][:8] == got[1][:8] == np.array(-0.0).tobytes()  # the sign kept

    def test_c_order_with_two_late_rows_swapped(self):
        # Each coordinate column matches its period until the last time slab, so only a check
        # of the whole column sends the file row by row.
        header, *rows = self.TEXTS["tyx"].splitlines(keepends=True)
        rows[-1], rows[-8] = rows[-8], rows[-1]  # in the last time slab; other longitude and latitude
        with mock.patch.object(offset_field, "_any_rows", wraps=offset_field._any_rows) as any_rows:
            got = _load_outcome(load_grid, header + "".join(rows))
        assert any_rows.called
        assert got == _load_outcome(load_grid, self.TEXTS["tyx"])
        assert all(isinstance(part, bytes) for part in got)


def reference_load_observations(source):
    """The observation loader over the line-by-line parse."""
    observations = []
    rows = reference_parse_rows(source, OBSERVATION_HEADER)
    for row_no, (t, lon_deg, lat_deg, h, p, T) in enumerate(rows, start=1):
        try:
            observations.append(
                Observation(
                    t=t, lon=math.radians(lon_deg), lat=math.radians(lat_deg), h=h, p=p, T=T
                )
            )
        except AtmosphereError as err:
            raise ParseError(f"observation row {row_no}: {err}") from err
    return observations


def _observations_outcome(load, text):
    """Every field of every record as bytes; or the error type and message."""
    try:
        observations = load(text)
    except AtmosphereError as err:
        return type(err), str(err)
    return array(
        "d", itertools.chain.from_iterable((o.t, o.lon, o.lat, o.h, o.p, o.T) for o in observations)
    ).tobytes()


ISSPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
LINE_BREAKS = [c for c in ISSPACE if len(f"a{c}b".splitlines()) == 2] + ["\r\n"]
PADDING = [c for c in ISSPACE if len(f"a{c}b".splitlines()) == 1]
# Tokens the per-line rule rejects, and a few unusual ones it accepts.
ODD_TOKENS = [
    "", " ", "inf", "-inf", "nan", "NaN", "Infinity", "1_0", "1e", ".", "+", "-", "e5",
    ".e1", "1.2.3", "1 2", "0x10", "1e5e5", "1d5", "\u0661", "\uff11", "5\u00b2", "1,",
    "1e999", "-1e999", "-0.0", "+.5", "5.", "1E-400", "007",
]


@st.composite
def decorated(draw, text):
    """``text`` re-rendered: padded numbers, blank lines, other line breaks, bad lines."""
    header, *rows = (line.split(",") for line in text.splitlines())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pad, blank = draw(st.sampled_from([(0.0, 0.0), (0.1, 0.1), (0.5, 0.3)]))
    breaks = draw(st.sampled_from([["\n"], ["\r\n"], LINE_BREAKS]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))):
        if not rows or draw(st.integers(0, 9)) == 0:
            header = [draw(st.sampled_from(["t_s", "lon", "", "x"])), *header[1:]]
            continue
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["token", "token", "drop", "extra"]))
        if kind == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif kind == "drop":
            row.pop()
        else:
            row.append(draw(st.sampled_from(["0.0", ""])))

    def padding(rate):
        return "".join(rng.choice(PADDING) for _ in range(3) if rng.random() < rate)

    lines = [header]
    for row in rows:
        while rng.random() < blank:
            lines.append([padding(0.5)])
        lines.append([padding(pad) + token + padding(pad) for token in row])
    body = "".join(",".join(line) + rng.choice(breaks) for line in lines[:-1])
    body += ",".join(lines[-1])
    return body + rng.choice(breaks) if draw(st.booleans()) else body


def _observation_file(rng, n):
    rows = [
        [
            rng.uniform(0.0, 86_400.0),
            rng.uniform(-400.0, 400.0),
            95.0 if rng.random() < 0.02 else rng.uniform(-90.0, 90.0),
            rng.uniform(-500.0, 12_000.0),
            -5.0 if rng.random() < 0.02 else rng.uniform(2e4, 1.1e5),
            rng.uniform(200.0, 320.0),
        ]
        for _ in range(n)
    ]
    return grid_file([",".join(map(repr, row)) for row in rows], header=OBSERVATION_HEADER)


@st.composite
def observation_texts(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return draw(decorated(_observation_file(rng, rng.randint(0, 12))))


# Block sizes that put every line, a few lines or the whole file in one block.
BLOCK_CHARS = st.sampled_from([1, 50, 400, offset_field._BLOCK_CHARS])
# Read sizes that split multi-byte characters and CR LF pairs, or hold a few lines.
READ_BYTES = st.sampled_from([1, 2, 3, 7, 50, 400])
# Byte runs that are not UTF-8 by themselves; some complete a character they follow.
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
            b"\xc0\xaf"]


@contextmanager
def file_holding(data):
    """The path of a file holding ``data`` (a str is written as UTF-8 with its line breaks)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        with open(path, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        yield path


def reference_read_text(path):
    """The whole-file read that the file pieces replaced, kept as their reference."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 at byte {err.start} ({err.reason})") from None


def _parse_outcome(source, header):
    """Each column's bytes, checked to hold exactly its rows; or the error type and message."""
    try:
        columns = offset_field._parse_values(source, header)
    except AtmosphereError as err:
        return type(err), str(err)
    for column in columns:
        assert sys.getsizeof(column) == sys.getsizeof(array("d", column))  # no spare slots
    return [column.tobytes() for column in columns]


class TestParseDifferential:
    """The chunked parse against the line-by-line one: same bytes, or same error and message."""

    def test_whitespace_literal_is_every_isspace_character(self):
        assert offset_field._WHITESPACE == ISSPACE
        assert len(ISSPACE) == 29

    @settings(max_examples=300, deadline=None)
    @given(grid_texts().flatmap(decorated), BLOCK_CHARS)
    def test_load_grid_matches_reference(self, text, block_chars):
        with mock.patch.object(offset_field, "_BLOCK_CHARS", block_chars):
            got = _load_outcome(load_grid, text)
        assert got == _load_outcome(reference_load_grid, text)

    @settings(max_examples=300, deadline=None)
    @given(observation_texts(), BLOCK_CHARS)
    def test_load_observations_matches_reference(self, text, block_chars):
        with mock.patch.object(offset_field, "_BLOCK_CHARS", block_chars):
            got = _observations_outcome(load_observations, text)
        assert got == _observations_outcome(reference_load_observations, text)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1.0,2.0,3.0,4.0", "expected 5 fields, got 4"),
            ("1.0,2.0,3.0,4.0,5.0,", "expected 5 fields, got 6"),
            ("1.0,2.0,3.0,nan,5.0", "'nan' is not a plain decimal number"),
            ("1.0,2.0,3.0,4.0,1 5", "'1 5' is not a plain decimal number"),
            ("1.0,2.0,3.0,4.0,\u0665", "'\u0665' is not a plain decimal number"),
            # Row-shaped: only float refuses these.
            ("1.0,2.0,,4.0,5.0", "'' is not a plain decimal number"),
            ("1.0,2.0,3.0,4.0,1e", "'1e' is not a plain decimal number"),
            ("1.0,2.0,3.0,4.0,1.2.3", "'1.2.3' is not a plain decimal number"),
            ("1.0,2.0,3.0,4.0,+-1", "'+-1' is not a plain decimal number"),
            ("1.0,2.0,3.0,4.0,.", "'.' is not a plain decimal number"),
        ],
    )
    def test_bad_line_past_the_first_block(self, bad, message):
        rows = [f"{k}.0,1.5,2.5,3.5,4.5" for k in range(20_000)]
        rows[15_000] = bad
        rows[12_000] = "\x1f 7.0\u3000,1.5,2.5,3.5,4.5\xa0"
        text = grid_file(rows)
        assert text.index(f"\n{bad}\n") > offset_field._BLOCK_CHARS
        with pytest.raises(ParseError, match=f"^line 15002: {re.escape(message)}$"):
            load_grid(text)
        assert _load_outcome(load_grid, text) == _load_outcome(reference_load_grid, text)

    def test_only_pieces_not_in_plain_form_are_normalised(self):
        rows = [f"{t}.0,{x},{y},-0.0,4.5" for t in range(5000) for x in (1, 2) for y in (3, 4)]
        lf = grid_file(rows)
        crlf = lf.replace("\n", "\r\n")
        got, plain_form = {}, offset_field._plain_form
        for name, text in (("lf", lf), ("crlf", crlf)):
            with mock.patch.object(offset_field, "_plain_form", wraps=plain_form) as calls:
                got[name] = _load_outcome(load_grid, text), calls.call_count
        assert got["lf"][1] == 1  # the header's piece only
        assert got["crlf"][1] == len(list(offset_field._blocks(crlf))) > 10
        assert got["crlf"][0] == got["lf"][0]
        assert isinstance(got["lf"][0][0], bytes)  # a grid, not an error

    def test_parse_memory_is_bounded_by_the_block(self):
        rows = [
            f"{t!r},{lon!r},{lat!r},{lon / 7 - 20!r},{lat * 13.5 + 0.25!r}"
            for t in range(0, 8 * 3600, 3600)
            for lon in range(0, 360, 5)
            for lat in range(-90, 91, 2)
        ]
        text = grid_file(rows)
        tracemalloc.start()
        try:
            values = offset_field._parse_values(text, GRID_HEADER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2.1 MB of values; a row-tuple parse of the same file peaks at 16 MB.
        assert list(map(len, values)) == [len(rows)] * 5
        assert peak < 10e6

    def test_load_grid_memory_is_about_five_columns(self):
        rows = [
            f"{t!r},{lon!r},{lat!r},{lon / 7 - 20!r},{lat * 13.5 + 0.25!r}"
            for t in range(0, 8 * 3600, 3600)
            for lon in range(0, 360, 5)
            for lat in range(-90, 91, 2)
        ]
        text = grid_file(rows)
        tracemalloc.start()
        try:
            grid = load_grid(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.n_nodes == len(rows)
        # Five float columns are 40 bytes a row; one more copy of a column or
        # a flat array grown by extend would pass 56.
        assert peak < 56 * len(rows)
        assert kept < 16 * len(rows) + 50_000  # the delta_T and delta_p columns, kept as storage

    @pytest.mark.parametrize("edit", ["cr_only", "blank_line_after_each_row", "no_final_lf"])
    def test_reserved_columns_fit_any_line_breaks(self, edit):
        # More rows than line feeds extend the columns; more line feeds than rows are trimmed.
        rows = [f"{t}.0,{x},{y},-0.0,4.5" for t in range(3000) for x in (1, 2) for y in (3, 4)]
        lf = grid_file(rows)
        text = {
            "cr_only": lf.replace("\n", "\r"),
            "blank_line_after_each_row": lf.replace("\n", "\n\n"),
            "no_final_lf": lf[:-1],
        }[edit]
        got = _load_outcome(load_grid, text)
        assert got == _load_outcome(load_grid, lf)
        assert isinstance(got[0], bytes)  # a grid, not an error

    @settings(max_examples=200, deadline=None)
    @given(grid_texts().flatmap(decorated), READ_BYTES)
    def test_grid_file_pieces_match_the_text(self, text, read_bytes):
        with file_holding(text) as path:
            with mock.patch.object(offset_field, "_BLOCK_CHARS", read_bytes):
                assert (_parse_outcome(_file_blocks(path), GRID_HEADER)
                        == _parse_outcome(text, GRID_HEADER))
                got = _load_outcome(lambda p: load_grid(_file_blocks(p)), path)
        assert got == _load_outcome(load_grid, text)

    @settings(max_examples=200, deadline=None)
    @given(observation_texts(), READ_BYTES)
    def test_observation_file_pieces_match_the_text(self, text, read_bytes):
        with file_holding(text) as path:
            with mock.patch.object(offset_field, "_BLOCK_CHARS", read_bytes):
                assert (_parse_outcome(_file_blocks(path), OBSERVATION_HEADER)
                        == _parse_outcome(text, OBSERVATION_HEADER))
                got = _observations_outcome(lambda p: load_observations(_file_blocks(p)), path)
        assert got == _observations_outcome(load_observations, text)

    @settings(max_examples=200, deadline=None)
    @given(grid_texts().flatmap(decorated), st.sampled_from(NOT_UTF8), st.floats(0.0, 1.0),
           READ_BYTES)
    def test_bad_bytes_match_a_whole_file_read(self, text, bad, where, read_bytes):
        data = text.encode("utf-8")
        at = int(where * len(data))
        with file_holding(data[:at] + bad + data[at:]) as path:
            with mock.patch.object(offset_field, "_BLOCK_CHARS", read_bytes):
                got = _load_outcome(lambda p: load_grid(_file_blocks(p)), path)
            assert got == _load_outcome(lambda p: load_grid(reference_read_text(p)), path)


class TestFileBlocks:
    """``_file_blocks``: a file's text in pieces, with the whole-file read's errors."""

    ROWS = [f"{k}.0,1.5,2.5,3.5,4.5" for k in range(4000)]

    @pytest.mark.parametrize("line_2", ["0.5,1.5,2.5,3.5,4.5", "0.5,1.5,2.5,3.5"],
                             ids=["valid", "syntax_error"])
    def test_bad_byte_past_the_first_read(self, line_2):
        head = grid_file([line_2, *self.ROWS]).encode()
        assert len(head) > 2 * offset_field._BLOCK_CHARS
        with file_holding(head + b"\xff" + grid_file(self.ROWS).encode()) as path:
            message = f"{path}: not UTF-8 at byte {len(head)} (invalid start byte)"
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                load_grid(_file_blocks(path))

    @pytest.mark.parametrize("read_bytes", range(1, 12))
    def test_character_split_across_two_reads(self, read_bytes):
        text = grid_file(["0.0,\u30000.5\u3000,\xa040.0,-0.0,1.0", "0.0,0.5,41.0,\u20092.0,3.0",
                          "7.0,0.5,40.0,4.0,5.0", "7.0,0.5,41.0,6.0,7.0"])
        with file_holding(text) as path, mock.patch.object(offset_field, "_BLOCK_CHARS", read_bytes):
            assert _load_outcome(lambda p: load_grid(_file_blocks(p)), path) == _load_outcome(
                load_grid, text)
        cut = grid_file(["0.0,0.5,40.0,1.0,"]).encode()
        # A character's first bytes followed by ASCII, in the middle and at the end of the file.
        for data, reason in [(cut + b"\xe2\x82" + cut, "invalid continuation byte"),
                             (cut + b"\xe2\x82", "unexpected end of data")]:
            with file_holding(data) as path:
                message = f"{path}: not UTF-8 at byte {len(cut)} ({reason})"
                with mock.patch.object(offset_field, "_BLOCK_CHARS", read_bytes):
                    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                        load_grid(_file_blocks(path))

    @pytest.mark.parametrize("read_bytes", range(1, 30))
    def test_cr_lf_pair_split_across_two_reads(self, read_bytes):
        rows = ["0.0,0.5,40.0,1.0,2.0", "", "0.0,0.5,41.0,1.0,2.0", "1.0,0.5,40.0,1.0,2.0", "x"]
        crlf = grid_file(rows).replace("\n", "\r\n")
        with file_holding(crlf) as path, mock.patch.object(offset_field, "_BLOCK_CHARS", read_bytes):
            with pytest.raises(ParseError, match="^line 6: expected 5 fields, got 1$"):
                load_grid(_file_blocks(path))
            pieces = list(_file_blocks(path))[1:]
        assert "".join(pieces) == crlf
        assert not any(piece.endswith("\r") for piece in pieces)

    def test_cr_only_file_loads_in_linear_time(self):
        # 16k reads of 128 bytes: rebuilding the held text at each read copies about 8 GB,
        # some 7 times the time of the LF twin, against less than once for the held list.
        rows = [f"{t}.0,{x},{y},-0.0,4.5" for t in range(25_000) for x in (1, 2) for y in (3, 4)]
        lf = grid_file(rows)
        seconds = {"lf": math.inf, "cr": math.inf}
        with mock.patch.object(offset_field, "_BLOCK_CHARS", 128):
            for name, text in [("lf", lf), ("cr", lf.replace("\n", "\r"))] * 2:
                with file_holding(text) as path:
                    start = time.process_time()
                    got = _load_outcome(lambda p: load_grid(_file_blocks(p)), path)
                    seconds[name] = min(seconds[name], time.process_time() - start)
                assert got == _load_outcome(load_grid, lf)
        assert seconds["cr"] < 3 * seconds["lf"]

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty file"), (GRID_HEADER, "no data rows"), (GRID_HEADER + "\r\n\n \n", "no data rows")],
        ids=["empty", "header_only", "header_and_blank_lines"],
    )
    def test_empty_and_header_only_files(self, text, message):
        with file_holding(text) as path:
            with pytest.raises(ParseError, match=f"^{message}$"):
                load_grid(_file_blocks(path))

    def test_pipe_is_read_whole(self):
        text = grid_file(MINIMAL_ROWS)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fifo")
            os.mkfifo(path)
            writer = threading.Thread(target=Path(path).write_text, args=(text,))
            writer.start()
            try:
                got = _load_outcome(lambda p: load_grid(_file_blocks(p)), path)
            finally:
                writer.join()
        assert got == _load_outcome(load_grid, text)
        assert isinstance(got[0], bytes)  # a grid, not an error

    @pytest.mark.parametrize("edit", ["lf", "blank_line_after_each_row", "cr_only"])
    def test_columns_hold_exactly_their_rows(self, edit):
        rows = [f"{t}.0,{x},{y},-0.0,4.5" for t in range(3000) for x in (1, 2) for y in (3, 4)]
        lf = grid_file(rows)
        text = {"lf": lf, "blank_line_after_each_row": lf.replace("\n", "\n\n"),
                "cr_only": lf.replace("\n", "\r")}[edit]
        exact = sys.getsizeof(array("d", [0.0]) * 12_000)
        with file_holding(text) as path:
            for grid in (load_grid(text), load_grid(_file_blocks(path))):
                assert sys.getsizeof(grid.delta_T.obj) == sys.getsizeof(grid.delta_p.obj) == exact


class TestLoadObservations:
    def test_round_trip_file(self):
        text = grid_file(
            ["0.0,10.0,40.0,0.0,101325.0,288.15", "60.0,20.0,50.0,100.0,100000.0,287.0"],
            header="t_s,lon_deg,lat_deg,h_m,p_pa,t_k",
        )
        loaded = load_observations(text)
        assert len(loaded) == 2
        assert loaded[0].p == 101325.0
        assert loaded[1].lon == pytest.approx(math.radians(20.0))

    @NON_ASCII_DIGITS
    def test_non_ascii_digits_rejected(self, zero):
        row = non_ascii("0,10,40,100,100000,280", zero)
        with pytest.raises(ParseError, match="not a plain decimal number"):
            load_observations(grid_file([row], header="t_s,lon_deg,lat_deg,h_m,p_pa,t_k"))

    def test_bad_measurement_becomes_parse_error(self):
        text = grid_file(
            ["0.0,10.0,40.0,0.0,-5.0,288.15"],
            header="t_s,lon_deg,lat_deg,h_m,p_pa,t_k",
        )
        with pytest.raises(ParseError):
            load_observations(text)


class TestOneAxisRule:
    """The same bad times raise the same error, with the same message, on every path."""

    @pytest.mark.parametrize(
        "times, prefix",
        [
            ((), "time axis needs at least two values"),
            ((0.0,), "time axis needs at least two values"),
            ((0.0, 60.0, 60.0), "time axis must be strictly increasing: "),
            ((0.0, 60.0, 30.0), "time axis must be strictly increasing: "),
            ((0.0, math.inf), "time axis must be finite: (0.0, inf)"),
        ],
        ids=["empty", "one_value", "repeated", "decrease", "non_finite"],
    )
    def test_bad_times_on_every_path(self, times, prefix):
        lon_axis, lat_axis = (0.0, 1.0), (0.0, 0.5)
        shape = (len(times), 2, 2)
        builds = {
            "OffsetGrid3D": lambda: OffsetGrid3D(
                times, lon_axis, lat_axis, np.zeros(shape), np.zeros(shape)),
            "WaypointField": lambda: WaypointField(
                wp(t, Offsets(0.0, 0.0)) for t in times),
        }
        if not all(map(math.isfinite, times)):
            del builds["WaypointField"]  # a Waypoint rejects a non-finite time first
        messages = {}
        for name, build in builds.items():
            with pytest.raises(NonMonotonicAxis, match=f"^{re.escape(prefix)}") as err:
                build()
            messages[name] = str(err.value)
        assert len(set(messages.values())) == 1, messages
