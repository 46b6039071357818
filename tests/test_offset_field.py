import math
import pickle
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st

from insa import (
    ConstantField,
    EmptyNode,
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
    geodetic_to_geopotential,
    grid_from_observations,
    load_grid,
    load_observations,
    state_at_geopotential,
)
from insa.identification import Observation

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
        with pytest.raises(ValueError):
            WaypointField((wp(10.0, Offsets(0.0, 0.0)), wp(10.0, Offsets(0.0, 0.0))))
        with pytest.raises(ValueError):
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
        assert self.field.evaluate(-50.0, 0.0, 0.0) == self.points[0].offsets
        assert self.field.evaluate(1e6, 0.0, 0.0) == self.points[-1].offsets

    def test_nan_time_gives_nan_offsets(self):
        # Segment search stays in range; the engine then rejects the pair.
        for field in (self.field, WaypointField(self.points[:2])):
            got = field.evaluate(math.nan, 0.0, 0.0)
            assert math.isnan(got.delta_T) and math.isnan(got.delta_p)

    def test_construction_requirements(self):
        with pytest.raises(ValueError):
            WaypointField(self.points[:1])
        with pytest.raises(ValueError):
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
            assert grid.delta_T.min() - 1e-9 <= got.delta_T <= grid.delta_T.max() + 1e-9
            assert grid.delta_p.min() - 1e-9 <= got.delta_p <= grid.delta_p.max() + 1e-9

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
        assert grid.delta_T.flags.c_contiguous and grid.delta_p.flags.c_contiguous
        field = GridField(grid)
        for t, lon, lat in self.queries(t_axis, lon_axis, lat_axis):
            got = field.evaluate(t, lon, lat)
            want = reference_evaluate(t_axis, lon_axis, lat_axis, sT, sp, t, lon, lat)
            assert (got.delta_T, got.delta_p) == (want.delta_T, want.delta_p), (t, lon, lat)
            assert type(got.delta_T) is float and type(got.delta_p) is float

    def test_reads_the_grids_own_storage(self):
        dT, dp = self.values()
        grid = OffsetGrid3D(*self.axes(), dT, dp)
        assert grid.delta_T is dT and grid.delta_p is dp  # C-contiguous input: no copy
        field = GridField(grid)
        t, lon, lat = grid.t_axis[2], grid.lon_axis[3], grid.lat_axis[4]
        grid.delta_T[2, 3, 4] = 12.5
        assert field.evaluate(t, lon, lat).delta_T == 12.5


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


class TestGridFromObservations:
    def setup_method(self):
        self.t_axis = (0.0, 3600.0)
        self.lon_axis = (math.radians(10.0), math.radians(20.0))
        self.lat_axis = (math.radians(40.0), math.radians(50.0))

    def corners(self):
        for t in self.t_axis:
            for lon in self.lon_axis:
                for lat in self.lat_axis:
                    yield t, lon, lat

    def test_standard_observations_give_zero_grid(self):
        obs = [
            Observation(t=t, lon=lon, lat=lat, h=0.0, p=101325.0, T=288.15)
            for t, lon, lat in self.corners()
        ]
        grid = grid_from_observations(obs, self.t_axis, self.lon_axis, self.lat_axis)
        assert np.all(np.abs(grid.delta_T) < 1e-9)
        assert np.all(np.abs(grid.delta_p) < 1e-9)

    @pytest.mark.parametrize("bad_t", [math.nan, math.inf])
    def test_non_finite_time_is_not_binned(self, bad_t):
        # The nearest-node search would put a NaN or inf time on the first node.
        obs = (
            Observation(t=t, lon=lon, lat=lat, h=0.0, p=101325.0, T=288.15)
            for t, lon, lat in [*self.corners(), (bad_t, self.lon_axis[0], self.lat_axis[0])]
        )
        with pytest.raises(OutOfValidityRange, match="observation time must be finite"):
            grid_from_observations(obs, self.t_axis, self.lon_axis, self.lat_axis)

    def test_duplicates_averaged(self):
        obs = [
            Observation(t=t, lon=lon, lat=lat, h=0.0, p=101325.0, T=288.15)
            for t, lon, lat in self.corners()
        ]
        grid = grid_from_observations(
            obs + obs, self.t_axis, self.lon_axis, self.lat_axis
        )
        assert np.all(np.abs(grid.delta_T) < 1e-9)

    def test_forward_modeled_node_value(self):
        state = state_at_geopotential(
            geodetic_to_geopotential(350.0), Offsets(10.0, -2500.0)
        )
        special = Observation(
            t=3590.0,
            lon=self.lon_axis[1] + 0.01,
            lat=self.lat_axis[1] - 0.01,
            h=350.0,
            p=state.p,
            T=state.T,
        )
        others = [
            Observation(t=t, lon=lon, lat=lat, h=0.0, p=101325.0, T=288.15)
            for t, lon, lat in self.corners()
            if not (t == 3600.0 and lon == self.lon_axis[1] and lat == self.lat_axis[1])
        ]
        grid = grid_from_observations(
            others + [special], self.t_axis, self.lon_axis, self.lat_axis
        )
        assert grid.delta_T[1, 1, 1] == pytest.approx(10.0, abs=1e-7)
        assert grid.delta_p[1, 1, 1] == pytest.approx(-2500.0, abs=1e-7)

    def test_empty_node(self):
        obs = [Observation(t=0.0, lon=self.lon_axis[0], lat=self.lat_axis[0],
                           h=0.0, p=101325.0, T=288.15)]
        with pytest.raises(EmptyNode):
            grid_from_observations(obs, self.t_axis, self.lon_axis, self.lat_axis)

    def test_identification_errors_propagate(self):
        from insa import NotInTroposphere, pressure_from_hp

        bad = Observation(t=0.0, lon=0.0, lat=0.0, h=0.0,
                          p=pressure_from_hp(12000.0), T=220.0)
        with pytest.raises(NotInTroposphere):
            grid_from_observations([bad], self.t_axis, self.lon_axis, self.lat_axis)
