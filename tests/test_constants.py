import math

import pytest

from insa import (
    NonPhysical,
    OffsetBounds,
    Offsets,
    OutOfValidityRange,
    validate_offsets,
)
from insa.constants import (
    BETA_T_ABOVE,
    BETA_T_BELOW,
    G0,
    GBR,
    HP_TROP,
    P0,
    R_AIR,
    RE,
    RHO0,
    T0,
    check_pressure_altitude,
)


def test_constant_set_values():
    assert G0 == 9.80665
    assert RE == 6356766.0
    assert P0 == 101325.0
    assert T0 == 288.15
    assert RHO0 == 1.225
    assert R_AIR == 287.05287
    assert HP_TROP == 11000.0
    assert BETA_T_BELOW == -6.5e-3
    assert BETA_T_ABOVE == 0.0


def test_pressure_exponent_is_derived():
    assert GBR == G0 / (-BETA_T_BELOW * R_AIR)
    # mpmath 50-digit evaluation of 9.80665/(6.5e-3*287.05287)
    assert GBR == pytest.approx(5.2558798127166770, abs=1e-12)


def test_ideal_gas_closure_at_standard_msl():
    assert abs(P0 / (R_AIR * T0) - RHO0) < 1e-4


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

    @pytest.mark.parametrize(
        "name", ["delta_T_min", "delta_T_max", "delta_p_min", "delta_p_max"]
    )
    def test_nan_limit_rejected(self, name):
        with pytest.raises(ValueError, match="malformed offset bounds"):
            OffsetBounds(**{name: math.nan})


def test_pressure_altitude_band():
    assert check_pressure_altitude(0.0) == 0.0
    assert check_pressure_altitude(-2000.0) == -2000.0
    assert check_pressure_altitude(20000.0) == 20000.0
    for bad in (-2000.1, 20000.1, math.nan):
        with pytest.raises(OutOfValidityRange):
            check_pressure_altitude(bad)
