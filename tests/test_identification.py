import gc
import math

import numpy as np
import pytest

from insa import (
    GeodeticPosition,
    NonPhysical,
    NotInTroposphere,
    Observation,
    Offsets,
    OutOfValidityRange,
    geodetic_to_geopotential,
    geopotential_to_geodetic,
    identify_offsets,
    identify_offsets_batch,
    pressure_from_hp,
    solve_tisa_msl,
    state_at_geopotential,
    state_at_pressure_altitude,
)
from insa.constants import BETA_T_BELOW, DEFAULT_OFFSET_BOUNDS as BOX, RE, T0

STANDARD_MSL_OBS = Observation(t=0.0, lon=0.0, lat=0.0, h=0.0, p=101325.0, T=288.15)


def observation_from_offsets(delta_T, delta_p, h, t=0.0, lon=0.0, lat=0.0):
    """Forward-model oracle: the state the column really has at altitude h."""
    state = state_at_geopotential(geodetic_to_geopotential(h), Offsets(delta_T, delta_p))
    return Observation(t=t, lon=lon, lat=lat, h=h, p=state.p, T=state.T)


class TestObservation:
    def test_longitude_normalized_latitude_checked(self):
        obs = Observation(t=0.0, lon=-1.0, lat=0.2, h=0.0, p=90000.0, T=280.0)
        assert 0.0 <= obs.lon < 2.0 * math.pi
        with pytest.raises(OutOfValidityRange):
            Observation(t=0.0, lon=0.0, lat=2.0, h=0.0, p=90000.0, T=280.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_time_must_be_finite(self, t):
        with pytest.raises(OutOfValidityRange, match="^time must be finite"):
            Observation(t=t, lon=0.0, lat=0.0, h=0.0, p=90000.0, T=280.0)

    @pytest.mark.parametrize("h", [-0.6 * RE, math.nan], ids=["-0.6RE", "nan"])
    def test_station_altitude_shares_the_position_check(self, h):
        with pytest.raises(OutOfValidityRange) as obs_err:
            Observation(t=0.0, lon=0.0, lat=0.0, h=h, p=90000.0, T=280.0)
        with pytest.raises(OutOfValidityRange) as pos_err:
            GeodeticPosition(lon=0.0, lat=0.0, h=h)
        assert str(obs_err.value) == str(pos_err.value)

    def test_measurements_must_be_physical(self):
        with pytest.raises(NonPhysical):
            Observation(t=0.0, lon=0.0, lat=0.0, h=0.0, p=-5.0, T=280.0)
        with pytest.raises(NonPhysical):
            Observation(t=0.0, lon=0.0, lat=0.0, h=0.0, p=90000.0, T=0.0)
        with pytest.raises(NonPhysical):
            Observation(t=0.0, lon=0.0, lat=0.0, h=0.0, p=math.nan, T=280.0)

    def test_replace_checks(self):
        with pytest.raises(NonPhysical, match="measured pressure must be positive, got -1.0"):
            STANDARD_MSL_OBS._replace(p=-1.0)
        assert STANDARD_MSL_OBS._replace(lon=-1.0).lon == pytest.approx(2.0 * math.pi - 1.0)

    def test_make_normalizes_longitude(self):
        obs = Observation._make([0, 7.0, 0.1, 0, 101325, 288.15])
        assert type(obs) is Observation
        assert obs.lon == 7.0 - 2.0 * math.pi
        assert obs == Observation(0, 7.0, 0.1, 0, 101325, 288.15)

    @pytest.mark.parametrize(
        "fields",
        [
            (math.nan, 0.0, 0.0, 0.0, 90000.0, 280.0),
            (0.0, math.inf, 0.0, 0.0, 90000.0, 280.0),
            (0.0, 0.0, 2.0, 0.0, 90000.0, 280.0),
            (0.0, 0.0, 0.0, -0.6 * RE, 90000.0, 280.0),
            (0.0, 0.0, 0.0, 0.0, -5.0, 280.0),
            (0.0, 0.0, 0.0, 0.0, 90000.0, 0.0),
        ],
        ids=["t", "lon", "lat", "h", "p", "T"],
    )
    def test_make_raises_as_the_constructor(self, fields):
        with pytest.raises((OutOfValidityRange, NonPhysical)) as made:
            Observation._make(fields)
        with pytest.raises((OutOfValidityRange, NonPhysical)) as built:
            Observation(*fields)
        assert type(made.value) is type(built.value)
        assert str(made.value) == str(built.value)


class TestIdentifyOffsets:
    def test_standard_msl_observation(self):
        offsets = identify_offsets(STANDARD_MSL_OBS)
        assert offsets.delta_T == 0.0
        assert offsets.delta_p == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("delta_T", [-20.0, -5.0, 5.0, 20.0])
    @pytest.mark.parametrize("delta_p", [-5000.0, 0.0, 5000.0])
    def test_msl_observation_round_trip(self, delta_T, delta_p):
        obs = observation_from_offsets(delta_T, delta_p, h=0.0)
        got = identify_offsets(obs)
        assert got.delta_T == pytest.approx(delta_T, abs=1e-9)
        assert got.delta_p == pytest.approx(delta_p, abs=1e-9)

    def test_altitude_round_trip(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            delta_T = rng.uniform(-20.0, 20.0)
            delta_p = rng.uniform(-5000.0, 5000.0)
            h = rng.uniform(0.0, 4000.0)
            got = identify_offsets(observation_from_offsets(delta_T, delta_p, h))
            assert abs(got.delta_T - delta_T) < 1e-7
            assert abs(got.delta_p - delta_p) < 1e-7

    def test_temperature_offset_ignores_station_altitude(self):
        # Same (p, T) reported from different altitudes: delta_T identical.
        a = identify_offsets(
            Observation(t=0.0, lon=0.0, lat=0.0, h=500.0, p=95000.0, T=285.0)
        )
        b = identify_offsets(
            Observation(t=0.0, lon=0.0, lat=0.0, h=1500.0, p=95000.0, T=285.0)
        )
        assert a.delta_T == b.delta_T

    def test_stratospheric_pressure_rejected(self):
        p_high = pressure_from_hp(12000.0)
        obs = Observation(t=0.0, lon=0.0, lat=0.0, h=300.0, p=p_high, T=220.0)
        with pytest.raises(NotInTroposphere):
            identify_offsets(obs)

    def test_near_tropopause_rejected(self):
        p_margin = pressure_from_hp(10999.5)
        obs = Observation(t=0.0, lon=0.0, lat=0.0, h=300.0, p=p_margin, T=220.0)
        with pytest.raises(NotInTroposphere):
            identify_offsets(obs)

    def test_below_validity_floor_rejected(self):
        p_low = 130000.0
        obs = Observation(t=0.0, lon=0.0, lat=0.0, h=0.0, p=p_low, T=300.0)
        with pytest.raises(OutOfValidityRange):
            identify_offsets(obs)

    @pytest.mark.parametrize(
        "delta_T, delta_p, hp",
        [(-50.0, 0.0, -1999.0), (-50.0, -15000.0, 5000.0), (50.0, -15000.0, 10998.0),
         (50.0, 0.0, 10998.0)],
    )
    def test_closed_edge_of_the_box_identified(self, delta_T, delta_p, hp):
        # Each recovered pair rounds just past the edge of the bounds.
        state = state_at_pressure_altitude(hp, Offsets(delta_T, delta_p))
        h = geopotential_to_geodetic(state.H)
        got = identify_offsets(Observation(t=0.0, lon=0.0, lat=0.0, h=h, p=state.p, T=state.T))
        assert BOX.delta_T_min <= got.delta_T <= BOX.delta_T_max
        assert BOX.delta_p_min <= got.delta_p <= BOX.delta_p_max
        assert got.delta_T == pytest.approx(delta_T, abs=1e-9)
        assert got.delta_p == pytest.approx(delta_p, abs=1e-6)

    def test_edge_moves_only_within_tolerance(self):
        # At mean sea level under standard pressure, delta_T is T - T0 exactly.
        just_past = Observation(t=0.0, lon=0.0, lat=0.0, h=0.0, p=101325.0, T=T0 - 50.0 - 1e-10)
        assert identify_offsets(just_past).delta_T == -50.0
        too_cold = Observation(t=0.0, lon=0.0, lat=0.0, h=0.0, p=101325.0, T=T0 - 50.0 - 1e-6)
        with pytest.raises(OutOfValidityRange, match="delta_T"):
            identify_offsets(too_cold)
        too_low = Observation(t=0.0, lon=0.0, lat=0.0, h=0.0, p=101325.0 - 15000.0 - 1e-4, T=T0)
        with pytest.raises(OutOfValidityRange, match="delta_p"):
            identify_offsets(too_low)

    @pytest.mark.parametrize(
        "h, T",
        [(-45000.0, 288.15), (-45000.0, 280.0), (-45000.0, 300.0), (-1e6, 288.15),
         (-1e6, 200.0), (-1e6, 400.0)],
    )
    def test_station_far_below_sea_level_non_physical(self, h, T):
        # c <= 0 at every one: the walk up to mean sea level is refused before any solve.
        obs = Observation(t=0.0, lon=0.0, lat=0.0, h=h, p=101325.0, T=T)
        with pytest.raises(NonPhysical, match="cannot reach mean sea level"):
            identify_offsets(obs)


class TestMeanSeaLevelReach:
    """solve_tisa_msl refuses a column that cannot reach mean sea level at T > 0."""

    T_ISA = 288.15

    def H_at(self, c):
        # Geopotential altitude at which 1 - betaT*H/T_isa equals c.
        return (1.0 - c) * self.T_ISA / BETA_T_BELOW

    @pytest.mark.parametrize("delta_T", [-30.0, 0.0, 30.0])
    def test_non_positive_c_non_physical(self, delta_T):
        for c in (0.0, -1e-9, -0.5):
            with pytest.raises(NonPhysical):
                solve_tisa_msl(self.T_ISA, self.H_at(c), delta_T)

    def test_cold_column_reaches_only_above_the_least_value(self):
        delta_T = -30.0
        a = delta_T / self.T_ISA
        least = a * (math.log(-a) - 1.0)
        with pytest.raises(NonPhysical):
            solve_tisa_msl(self.T_ISA, self.H_at(least - 1e-6), delta_T)
        T_isa_msl = solve_tisa_msl(self.T_ISA, self.H_at(least + 1e-6), delta_T)
        assert T_isa_msl + delta_T > 0.0

    def test_warm_column_with_positive_c_solved(self):
        assert solve_tisa_msl(self.T_ISA, self.H_at(0.05), 30.0) > 0.0


class TestBatch:
    def test_empty(self):
        assert identify_offsets_batch([]) == []

    def test_two_standard_observations(self):
        records = identify_offsets_batch([STANDARD_MSL_OBS, STANDARD_MSL_OBS])
        assert len(records) == 2
        for rec in records:
            assert rec.error is None
            assert rec.offsets.delta_T == 0.0
            assert rec.offsets.delta_p == pytest.approx(0.0, abs=1e-9)

    def test_mixed_records_capture_errors(self):
        good = observation_from_offsets(10.0, -2500.0, h=1200.0, t=60.0, lon=0.3, lat=0.8)
        bad = Observation(
            t=120.0, lon=0.4, lat=0.9, h=300.0, p=pressure_from_hp(12000.0), T=220.0
        )
        records = identify_offsets_batch([good, bad, STANDARD_MSL_OBS])
        assert len(records) == 3
        assert records[0].offsets.delta_T == pytest.approx(10.0, abs=1e-7)
        assert records[0].offsets.delta_p == pytest.approx(-2500.0, abs=1e-7)
        assert records[0].t == 60.0
        assert records[1].offsets is None
        assert isinstance(records[1].error, NotInTroposphere)
        assert records[2].error is None

    def test_error_records_leave_nothing_for_the_collector(self):
        # An error kept with its traceback would hold the batch's frame, and
        # through it every record, in a reference cycle.
        above = Observation(t=0.0, lon=0.0, lat=0.0, h=300.0, p=pressure_from_hp(12000.0), T=220.0)
        gc.collect()
        gc.disable()
        try:
            records = identify_offsets_batch([STANDARD_MSL_OBS, above])
            assert isinstance(records[1].error, NotInTroposphere)
            assert records[1].error.__traceback__ is None
            del records
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_order_preserved(self):
        obs = [observation_from_offsets(float(k), 0.0, h=0.0, t=float(k)) for k in range(5)]
        records = identify_offsets_batch(obs)
        assert [rec.t for rec in records] == [0.0, 1.0, 2.0, 3.0, 4.0]
        for k, rec in enumerate(records):
            assert rec.offsets.delta_T == pytest.approx(float(k), abs=1e-9)
