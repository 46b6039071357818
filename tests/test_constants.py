import math

import pytest

from insa import (
    NonPhysical,
    OffsetBounds,
    Offsets,
    OutOfValidityRange,
    constants,
    validate_offsets,
)
from insa.constants import check_pressure_altitude


def test_constant_set_values():
    c = constants()
    assert c.g0 == 9.80665
    assert c.RE == 6356766.0
    assert c.p0 == 101325.0
    assert c.T0 == 288.15
    assert c.rho0 == 1.225
    assert c.R == 287.05287
    assert c.Hp_trop == 11000.0
    assert c.betaT_below == -6.5e-3
    assert c.betaT_above == 0.0


def test_pressure_exponent_is_derived():
    c = constants()
    assert c.gbr == c.g0 / (-c.betaT_below * c.R)
    # mpmath 50-digit evaluation of 9.80665/(6.5e-3*287.05287)
    assert c.gbr == pytest.approx(5.2558798127166770, abs=1e-12)


def test_ideal_gas_closure_at_standard_msl():
    c = constants()
    assert abs(c.p0 / (c.R * c.T0) - c.rho0) < 1e-4


def test_constants_referentially_transparent():
    a, b = constants(), constants()
    assert a is b
    assert a == b


class TestValidateOffsets:
    def test_isa_pair_ok(self):
        assert validate_offsets(Offsets(0.0, 0.0)) == Offsets(0.0, 0.0)

    def test_figure_extreme_pair_ok(self):
        pair = Offsets(delta_T=20.0, delta_p=5000.0)
        assert validate_offsets(pair) is pair

    def test_msl_pressure_must_stay_positive(self):
        with pytest.raises(NonPhysical):
            validate_offsets(Offsets(0.0, -101325.0))
        with pytest.raises(NonPhysical):
            validate_offsets(Offsets(0.0, -200000.0))

    @pytest.mark.parametrize("delta_T", [-216.65, -250.0])
    def test_tropopause_temperature_must_stay_positive(self, delta_T):
        # Wide enough bounds that only the physics can reject the pair.
        wide = OffsetBounds(-300.0, 300.0, -15000.0, 15000.0)
        with pytest.raises(NonPhysical, match="tropopause temperature"):
            validate_offsets(Offsets(delta_T, 0.0), wide)
        with pytest.raises(NonPhysical):
            validate_offsets(Offsets(delta_T, 0.0))
        assert validate_offsets(Offsets(-216.6, 0.0), wide).delta_T == -216.6

    def test_bounds_violation_names_component(self):
        with pytest.raises(OutOfValidityRange, match="delta_T"):
            validate_offsets(Offsets(60.0, 0.0))
        with pytest.raises(OutOfValidityRange, match="delta_p"):
            validate_offsets(Offsets(0.0, 15001.0))

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfValidityRange):
                validate_offsets(Offsets(bad, 0.0))
        with pytest.raises(OutOfValidityRange):
            validate_offsets(Offsets(0.0, math.nan))

    def test_custom_bounds(self):
        wide = OffsetBounds(-100.0, 100.0, -30000.0, 30000.0)
        assert validate_offsets(Offsets(80.0, -20000.0), wide).delta_T == 80.0
        tight = OffsetBounds(-1.0, 1.0, -10.0, 10.0)
        with pytest.raises(OutOfValidityRange):
            validate_offsets(Offsets(2.0, 0.0), tight)

    def test_malformed_bounds_rejected(self):
        with pytest.raises(ValueError):
            OffsetBounds(delta_T_min=10.0, delta_T_max=-10.0)


def test_pressure_altitude_band():
    assert check_pressure_altitude(0.0) == 0.0
    assert check_pressure_altitude(-2000.0) == -2000.0
    assert check_pressure_altitude(20000.0) == 20000.0
    for bad in (-2000.1, 20000.1, math.nan):
        with pytest.raises(OutOfValidityRange):
            check_pressure_altitude(bad)
