import math

import pytest
from hypothesis import given, strategies as st

from insa import (
    GeodeticPosition,
    OutOfValidityRange,
    d_geopotential_d_geodetic,
    geodetic_to_geopotential,
    geopotential_to_geodetic,
)

ALTITUDES = st.floats(min_value=-2000.0, max_value=20000.0)


def test_msl_maps_to_msl():
    assert geodetic_to_geopotential(0.0) == 0.0
    assert geopotential_to_geodetic(0.0) == 0.0


def test_known_conversions():
    # mpmath 50-digit evaluations of RE*h/(RE+h) and RE*H/(RE-H)
    assert geodetic_to_geopotential(10000.0) == pytest.approx(
        9984.293438772526, abs=1e-9
    )
    assert geopotential_to_geodetic(11000.0) == pytest.approx(
        11019.067832000108, abs=1e-9
    )


def test_geopotential_below_geodetic_above_msl():
    assert geodetic_to_geopotential(5000.0) < 5000.0
    assert geopotential_to_geodetic(5000.0) > 5000.0


@given(ALTITUDES)
def test_round_trip_both_directions(h):
    assert geopotential_to_geodetic(geodetic_to_geopotential(h)) == pytest.approx(
        h, abs=1e-9
    )
    assert geodetic_to_geopotential(geopotential_to_geodetic(h)) == pytest.approx(
        h, abs=1e-9
    )


def test_round_trip_dense_sampling():
    import numpy as np

    rng = np.random.default_rng(3)
    for h in rng.uniform(-2000.0, 20000.0, 10000):
        assert abs(geopotential_to_geodetic(geodetic_to_geopotential(float(h))) - h) < 1e-9


@given(ALTITUDES, ALTITUDES)
def test_monotone_and_sign_preserving(h1, h2):
    H1, H2 = geodetic_to_geopotential(h1), geodetic_to_geopotential(h2)
    if h1 < h2:
        assert H1 < H2
    assert (H1 > 0) == (h1 > 0) and (H1 < 0) == (h1 < 0)


def test_preconditions():
    with pytest.raises(OutOfValidityRange):
        geodetic_to_geopotential(-6356766.0 / 2.0)
    with pytest.raises(OutOfValidityRange):
        geopotential_to_geodetic(6356766.0 / 2.0)
    with pytest.raises(OutOfValidityRange):
        geodetic_to_geopotential(math.nan)


@pytest.mark.parametrize(
    "fn", [geodetic_to_geopotential, geopotential_to_geodetic, d_geopotential_d_geodetic]
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_altitude_rejected(fn, value):
    with pytest.raises(OutOfValidityRange):
        fn(value)


def test_conversion_slope():
    assert d_geopotential_d_geodetic(0.0) == 1.0
    eps = 0.01
    fd = (geodetic_to_geopotential(8000.0 + eps) - geodetic_to_geopotential(8000.0 - eps)) / (
        2 * eps
    )
    assert d_geopotential_d_geodetic(8000.0) == pytest.approx(fd, rel=1e-9)


class TestGeodeticPosition:
    def test_longitude_normalized(self):
        pos = GeodeticPosition(lon=-math.pi / 2.0, lat=0.0, h=0.0)
        assert pos.lon == pytest.approx(1.5 * math.pi)
        assert 0.0 <= GeodeticPosition(7.0, 0.0, 0.0).lon < 2.0 * math.pi

    def test_latitude_range_enforced(self):
        GeodeticPosition(0.0, math.pi / 2.0, 0.0)
        with pytest.raises(OutOfValidityRange):
            GeodeticPosition(0.0, 1.6, 0.0)

    def test_altitude_checked(self):
        with pytest.raises(OutOfValidityRange):
            GeodeticPosition(0.0, 0.0, -7000000.0)
        with pytest.raises(OutOfValidityRange):
            GeodeticPosition(0.0, 0.0, math.nan)
