import math
import pickle
import sys
import threading

import numpy as np
import pytest

from insa import (
    ConstantField,
    GeodeticPosition,
    GridField,
    NonPhysical,
    OffsetBounds,
    OffsetField,
    OffsetGrid3D,
    Offsets,
    OutOfDomain,
    OutOfValidityRange,
    PropertyRates,
    QuasiStaticModel,
    Waypoint,
    WaypointField,
    anchors,
    d_geopotential_d_geodetic,
    geodetic_to_geopotential,
    state_at_geopotential,
    vertical_gradients,
)
from insa.constants import R_AIR

MSL = GeodeticPosition(lon=0.0, lat=0.0, h=0.0)


def constant_model(delta_T=0.0, delta_p=0.0):
    return QuasiStaticModel(field=ConstantField(Offsets(delta_T, delta_p)))


class TestQuery:
    def test_standard_msl(self):
        state = constant_model().query(0.0, MSL)
        assert state.p == 101325.0
        assert state.T == 288.15
        assert abs(state.rho - 1.225) < 1e-4

    def test_matches_manual_pipeline(self):
        offsets = Offsets(-12.0, 3000.0)
        model = constant_model(-12.0, 3000.0)
        for h in (0.0, 2500.0, 10000.0, 15000.0):
            pos = GeodeticPosition(lon=1.0, lat=0.5, h=h)
            expected = state_at_geopotential(geodetic_to_geopotential(h), offsets)
            assert model.query(123.0, pos) == expected

    def test_route_field_warms_up_with_time(self):
        field = WaypointField((
            Waypoint(t=0.0, lon=0.0, lat=0.0, offsets=Offsets(-20.0, 0.0)),
            Waypoint(t=3600.0, lon=1.0, lat=0.5, offsets=Offsets(20.0, 0.0)),
        ))
        model = QuasiStaticModel(field=field)
        pos = GeodeticPosition(lon=0.5, lat=0.25, h=5000.0)
        temps = [model.query(t, pos).T for t in range(0, 3601, 300)]
        assert all(a < b for a, b in zip(temps, temps[1:]))
        # Pointwise oracle: offset interpolation feeds straight into T.
        state = model.query(1800.0, pos)
        assert state.T == pytest.approx(state.T_isa, abs=1e-12)

    def test_nan_time_on_a_waypoint_field_is_out_of_validity(self):
        field = WaypointField((
            Waypoint(t=0.0, lon=0.0, lat=0.0, offsets=Offsets(-20.0, 0.0)),
            Waypoint(t=3600.0, lon=1.0, lat=0.5, offsets=Offsets(20.0, 0.0)),
        ))
        with pytest.raises(OutOfValidityRange, match="finite"):
            QuasiStaticModel(field=field).query(math.nan, MSL)

    def test_model_bounds_enforced(self):
        tight = OffsetBounds(-1.0, 1.0, -10.0, 10.0)
        model = QuasiStaticModel(field=ConstantField(Offsets(5.0, 0.0)), bounds=tight)
        with pytest.raises(OutOfValidityRange):
            model.query(0.0, MSL)


class TestPropertyRates:
    def test_zero_climb_rate_means_zero_rates(self):
        rates = constant_model(7.0, -2000.0).property_rates(0.0, MSL, 0.0)
        assert rates.dp_dt == 0.0
        assert rates.dT_dt == 0.0
        assert rates.drho_dt == 0.0

    def test_time_varying_field_contributes_nothing_at_zero_climb(self):
        # The field's own time variation is neglected by contract.
        field = WaypointField((
            Waypoint(t=0.0, lon=0.0, lat=0.0, offsets=Offsets(-20.0, -4000.0)),
            Waypoint(t=3600.0, lon=1.0, lat=0.5, offsets=Offsets(20.0, 4000.0)),
        ))
        model = QuasiStaticModel(field=field)
        rates = model.property_rates(1800.0, GeodeticPosition(0.5, 0.2, 6000.0), 0.0)
        assert rates == PropertyRates(0.0, 0.0, 0.0)

    def test_standard_msl_climb(self):
        rates = constant_model().property_rates(0.0, MSL, 1.0)
        # -g0*p0/(R*T0), mpmath 50-digit: -12.013146427738547
        assert rates.dp_dt == pytest.approx(-12.013146427738547, abs=1e-9)
        assert rates.dp_dt == pytest.approx(-1.225 * 9.80665, abs=1e-3)

    def test_finite_difference_along_climb(self):
        model = constant_model(10.0, -2500.0)
        h_dot, dt_step = 5.0, 1.0
        for h0 in (0.0, 3000.0, 12000.0):
            pos = GeodeticPosition(lon=0.0, lat=0.0, h=h0)
            rates = model.property_rates(100.0, pos, h_dot)
            before = model.query(
                100.0 - dt_step, GeodeticPosition(0.0, 0.0, h0 - h_dot * dt_step)
            )
            after = model.query(
                100.0 + dt_step, GeodeticPosition(0.0, 0.0, h0 + h_dot * dt_step)
            )
            assert rates.dp_dt == pytest.approx(
                (after.p - before.p) / (2 * dt_step), rel=1e-5
            )
            fd_T = (after.T - before.T) / (2 * dt_step)
            if rates.dT_dt == 0.0:
                assert fd_T == pytest.approx(0.0, abs=1e-12)
            else:
                assert rates.dT_dt == pytest.approx(fd_T, rel=1e-5)
            assert rates.drho_dt == pytest.approx(
                (after.rho - before.rho) / (2 * dt_step), rel=1e-5
            )

    @pytest.mark.parametrize("h_dot", [math.nan, math.inf, -math.inf])
    def test_non_finite_climb_rate_out_of_validity(self, h_dot):
        model = grid_model()
        t, pos, _ = grid_points(1, 3)[0]
        model.query(t, pos)  # the memo holds this point
        before = model.field.calls
        with pytest.raises(OutOfValidityRange, match="^climb rate must be finite, got"):
            model.property_rates(t, pos, h_dot)
        assert model.field.calls == before

    def test_conversion_slope_applied(self):
        model = constant_model()
        h = 10000.0
        pos = GeodeticPosition(lon=0.0, lat=0.0, h=h)
        rates = model.property_rates(0.0, pos, 2.0)
        from insa import d_geopotential_d_geodetic, vertical_gradients

        grads = vertical_gradients(geodetic_to_geopotential(h), Offsets(0.0, 0.0))
        assert rates.dp_dt == grads.dp_dH * d_geopotential_d_geodetic(h) * 2.0


class CountingField(OffsetField):
    """Delegates to another field and counts the evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate(self, t, lon, lat):
        self.calls += 1
        return self.inner.evaluate(t, lon, lat)


def grid_model():
    rng = np.random.default_rng(7)
    shape = (4, 12, 7)
    grid = OffsetGrid3D(
        t_axis=tuple(900.0 * i for i in range(shape[0])),
        lon_axis=tuple(i * 2.0 * math.pi / shape[1] for i in range(shape[1])),
        lat_axis=tuple(np.linspace(-1.2, 1.2, shape[2])),
        delta_T=rng.uniform(-30.0, 30.0, shape),
        delta_p=rng.uniform(-8000.0, 8000.0, shape),
    )
    return QuasiStaticModel(field=CountingField(GridField(grid)))


def grid_points(n, seed):
    rng = np.random.default_rng(seed)
    return [
        (float(t), GeodeticPosition(lon=float(lon), lat=float(lat), h=float(h)), float(h_dot))
        for t, lon, lat, h, h_dot in zip(
            rng.uniform(0.0, 2700.0, n),
            rng.uniform(-1.0, 7.0, n),
            rng.uniform(-1.2, 1.2, n),
            rng.uniform(-500.0, 17000.0, n),
            rng.uniform(-20.0, 20.0, n),
        )
    ]


def manual_state(model, t, pos):
    offsets = model.offsets_at(t, pos.lon, pos.lat)
    return state_at_geopotential(geodetic_to_geopotential(pos.h), offsets)


def manual_rates(model, t, pos, h_dot):
    offsets = model.offsets_at(t, pos.lon, pos.lat)
    g = vertical_gradients(geodetic_to_geopotential(pos.h), offsets)
    H_dot = d_geopotential_d_geodetic(pos.h) * h_dot
    return PropertyRates(g.dp_dH * H_dot, g.dT_dH * H_dot, g.drho_dH * H_dot)


class TestOnePointMemo:
    """query/property_rates equal the manual pipeline, bit for bit, under
    every call order; the memo only ever saves work."""

    def test_query_then_rates_one_field_evaluation(self):
        model = grid_model()
        for t, pos, h_dot in grid_points(300, 1):
            expected = manual_state(model, t, pos), manual_rates(model, t, pos, h_dot)
            before = model.field.calls
            got = model.query(t, pos), model.property_rates(t, pos, h_dot)
            assert model.field.calls - before == 1
            assert got == expected

    def test_rates_alone(self):
        model = grid_model()
        for t, pos, h_dot in grid_points(300, 2):
            before = model.field.calls
            assert model.property_rates(t, pos, h_dot) == manual_rates(model, t, pos, h_dot)
            assert model.field.calls - before == 2  # its own solve plus the manual one

    def test_query_then_rates_at_another_point(self):
        model = grid_model()
        points = grid_points(301, 3)
        for (t1, p1, _), (t2, p2, h_dot) in zip(points, points[1:]):
            model.query(t1, p1)
            assert model.property_rates(t2, p2, h_dot) == manual_rates(model, t2, p2, h_dot)

    def test_neighbours_differing_in_one_coordinate(self):
        model = grid_model()
        t, pos, h_dot = grid_points(1, 4)[0]
        nudged = [
            (math.nextafter(t, math.inf), pos),
            (t, GeodeticPosition(math.nextafter(pos.lon, math.inf), pos.lat, pos.h)),
            (t, GeodeticPosition(pos.lon, math.nextafter(pos.lat, 0.0), pos.h)),
            (t, GeodeticPosition(pos.lon, pos.lat, math.nextafter(pos.h, math.inf))),
        ]
        for t2, p2 in nudged:
            model.query(t, pos)
            before = model.field.calls
            assert model.property_rates(t2, p2, h_dot) == manual_rates(model, t2, p2, h_dot)
            assert model.field.calls - before == 2

    def test_same_point_twice(self):
        model = grid_model()
        for t, pos, h_dot in grid_points(100, 5):
            state, rates = manual_state(model, t, pos), manual_rates(model, t, pos, h_dot)
            assert model.query(t, pos) == state
            assert model.query(t, pos) == state
            assert model.property_rates(t, pos, h_dot) == rates
            assert model.property_rates(t, pos, -h_dot) == manual_rates(model, t, pos, -h_dot)

    def test_interleaved_points(self):
        model = grid_model()
        points = grid_points(200, 6)
        for a, b in zip(points[::2], points[1::2]):
            states = [model.query(t, pos) for t, pos, _ in (a, b)]
            rates = [model.property_rates(t, pos, h_dot) for t, pos, h_dot in (a, b)]
            for (t, pos, h_dot), state, rate in zip((a, b), states, rates):
                assert state == manual_state(model, t, pos)
                assert rate == manual_rates(model, t, pos, h_dot)

    def test_signed_zero_altitude(self):
        model = grid_model()
        up, down = GeodeticPosition(0.3, 0.2, 0.0), GeodeticPosition(0.3, 0.2, -0.0)
        model.query(100.0, up)
        assert model.property_rates(100.0, down, 3.0) == manual_rates(model, 100.0, down, 3.0)

    def test_errors_are_not_memoized(self):
        model = grid_model()
        (t, pos, h_dot), (t2, pos2, h_dot2) = grid_points(2, 8)
        model.query(t, pos)
        bad = 1e6  # beyond the grid's time axis
        with pytest.raises(OutOfDomain):
            model.query(bad, pos)
        with pytest.raises(OutOfDomain):
            model.property_rates(bad, pos, h_dot)
        # The last good point is still served correctly, then a new one.
        assert model.property_rates(t, pos, h_dot) == manual_rates(model, t, pos, h_dot)
        assert model.query(t2, pos2) == manual_state(model, t2, pos2)
        assert model.property_rates(t2, pos2, h_dot2) == manual_rates(model, t2, pos2, h_dot2)

    def test_memo_not_part_of_value(self):
        field = ConstantField(Offsets(3.0, 100.0))
        used, fresh = QuasiStaticModel(field=field), QuasiStaticModel(field=field)
        used.query(0.0, MSL)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_shared_between_threads(self):
        model = grid_model()
        work = [grid_points(400, seed) for seed in (9, 10)]
        expected = [
            [(manual_state(model, t, p), manual_rates(model, t, p, hd)) for t, p, hd in pts]
            for pts in work
        ]
        got = [[], []]

        def fly(i):
            for t, p, hd in work[i]:
                got[i].append((model.query(t, p), model.property_rates(t, p, hd)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fly, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class WarmField(OffsetField):
    def evaluate(self, t, lon, lat):
        return Offsets(60.0, 0.0)


class ColdField(OffsetField):
    def __init__(self, delta_T):
        self.delta_T = delta_T

    def evaluate(self, t, lon, lat):
        return Offsets(self.delta_T, 0.0)


class TestModelBounds:
    @pytest.mark.parametrize("delta_T", [-216.65, -250.0])
    def test_column_reaching_zero_kelvin_is_non_physical(self, delta_T):
        wide = OffsetBounds(-300.0, 300.0, -15000.0, 15000.0)
        model = QuasiStaticModel(field=ColdField(delta_T), bounds=wide)
        with pytest.raises(NonPhysical, match="tropopause temperature"):
            model.query(0.0, MSL)
        with pytest.raises(NonPhysical):
            model.property_rates(0.0, MSL, 1.0)

    def test_wider_bounds_honoured(self):
        wide = OffsetBounds(-80.0, 80.0, -15000.0, 15000.0)
        model = QuasiStaticModel(field=WarmField(), bounds=wide)
        pos = GeodeticPosition(lon=0.0, lat=0.0, h=5000.0)
        state = model.query(0.0, pos)
        assert state.T == state.T_isa + 60.0
        assert state.p == pytest.approx(state.rho * R_AIR * state.T, rel=1e-14)
        rates = model.property_rates(0.0, pos, 5.0)
        assert rates.dp_dt < 0.0 and rates.dT_dt < 0.0
        # A fresh model (no memo) gives the same rates.
        fresh = QuasiStaticModel(field=WarmField(), bounds=wide)
        assert fresh.property_rates(0.0, pos, 5.0) == rates

    def test_default_bounds_still_reject(self):
        with pytest.raises(OutOfValidityRange):
            QuasiStaticModel(field=WarmField()).query(0.0, MSL)
        with pytest.raises(OutOfValidityRange):
            QuasiStaticModel(field=WarmField()).property_rates(0.0, MSL, 1.0)

    def test_public_anchors_keep_default_check_and_cache(self):
        with pytest.raises(OutOfValidityRange):
            anchors(Offsets(60.0, 0.0))
        assert anchors(Offsets(4.0, -30.0)) is anchors(Offsets(4.0, -30.0))


def field_holding(kind, offsets):
    if kind == "constant":
        return ConstantField(offsets)
    if kind == "waypoint":
        return WaypointField(tuple(Waypoint(t, 0.0, 0.0, offsets) for t in (0.0, 3600.0)))
    return GridField(OffsetGrid3D(
        t_axis=(0.0, 3600.0), lon_axis=(0.0, 1.0), lat_axis=(-0.5, 0.5),
        delta_T=np.full((2, 2, 2), offsets.delta_T),
        delta_p=np.full((2, 2, 2), offsets.delta_p),
    ))


@pytest.mark.parametrize("kind", ["constant", "waypoint", "grid"])
class TestOnePolicyAcrossFields:
    """Fields check physics, the model checks its bounds and the time."""

    WIDE = OffsetBounds(-80.0, 80.0, -15000.0, 15000.0)

    def test_wide_bounds_answer(self, kind):
        model = QuasiStaticModel(field_holding(kind, Offsets(60.0, 0.0)), self.WIDE)
        state = model.query(100.0, MSL)
        assert state.T == state.T_isa + 60.0

    def test_default_bounds_reject(self, kind):
        model = QuasiStaticModel(field_holding(kind, Offsets(60.0, 0.0)))
        message = r"^delta_T=60\.0 K outside \[-50\.0, 50\.0\] K$"
        with pytest.raises(OutOfValidityRange, match=message):
            model.query(100.0, MSL)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_out_of_validity(self, kind, t):
        model = QuasiStaticModel(field_holding(kind, Offsets(10.0, 0.0)), self.WIDE)
        with pytest.raises(OutOfValidityRange, match="^time must be finite"):
            model.query(t, MSL)
        with pytest.raises(OutOfValidityRange, match="^time must be finite"):
            model.property_rates(t, MSL, 1.0)


def test_grid_field_and_model_survive_pickling():
    field = grid_model().field.inner
    grid = field.grid
    node = (grid.t_axis[1], grid.lon_axis[3], grid.lat_axis[2])
    cell = (1234.5, 1.1, 0.37)
    seam = (2000.0, grid.lon_axis[-1] + 0.1, -0.5)  # between the last node and 2*pi
    seam_negative = (2000.0, -0.1, -0.5)  # the same segment, reached from below 0
    points = (node, cell, seam, seam_negative)
    original = QuasiStaticModel(field=field)
    for t, lon, lat in points:
        original.query(t, GeodeticPosition(lon, lat, 5000.0))

    field_copy = pickle.loads(pickle.dumps(field))
    model_copy = pickle.loads(pickle.dumps(original))
    assert isinstance(model_copy.field, GridField)
    for t, lon, lat in points:
        pos = GeodeticPosition(lon, lat, 5000.0)
        offsets = field.evaluate(t, lon, lat)
        assert field_copy.evaluate(t, lon, lat) == offsets
        assert model_copy.field.evaluate(t, lon, lat) == offsets
        assert model_copy.query(t, pos) == original.query(t, pos)
        assert model_copy.property_rates(t, pos, 3.0) == original.property_rates(t, pos, 3.0)
