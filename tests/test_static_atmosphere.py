import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from insa import (
    NoConvergence,
    NonPhysical,
    NotInTroposphere,
    Observation,
    Offsets,
    OutOfValidityRange,
    anchors,
    d_geopotential_d_hp,
    geopotential_from_hp,
    geopotential_to_geodetic,
    hp_from_geopotential,
    hp_from_pressure,
    identify_offsets,
    pressure_from_hp,
    solve_tisa_msl,
    standard_temperature_from_hp,
    state_at_geopotential,
    state_at_pressure_altitude,
    temperature_from_hp,
    vertical_gradients,
)
from insa import geodetic_to_geopotential, solvers, static_atmosphere
from insa.static_atmosphere import TISA_MSL_TOL
from insa.constants import (
    BETA_T_BELOW,
    DEFAULT_OFFSET_BOUNDS as BOX,
    HP_MAX,
    HP_MIN,
    HP_TROP,
    P0,
    R_AIR,
    T0,
    T_ISA_TROP,
)
from insa.identification import TROPOPAUSE_MARGIN

ISA = Offsets(0.0, 0.0)

# mpmath 50-digit evaluations of the closed-form expressions
P_TROP_EXACT = 22632.040095007799      # p at the tropopause [Pa]
P_15000_EXACT = 12044.552807152818     # p at Hp = 15 km [Pa]
P_CEILING_EXACT = 127773.73012293255   # p at Hp = -2 km [Pa]
P_FLOOR_EXACT = 5474.877424281046      # p at Hp = 20 km [Pa]
HP_MSL_DP5000 = -408.13460304150157    # Hp_msl for delta_p = +5000 Pa [m]
H_TROP_DT20 = 11877.532399066944       # H_trop for delta_T = +20 K, delta_p = 0 [m]
RHO_MSL_DT10 = 1.1839133161915597      # 101325/(R*298.15) [kg/m^3]
DPDH_MSL = -12.013146427738547         # -g0*p0/(R*T0) [Pa/m]

OFFSET_GRID = [Offsets(dt, dp) for dt in (-20.0, 0.0, 20.0) for dp in (-5000.0, 0.0, 5000.0)]


def random_offsets(rng):
    return Offsets(rng.uniform(-20.0, 20.0), rng.uniform(-5000.0, 5000.0))


def record_iterations(patch):
    """Route the column solves through a wrapper; returns the iteration counts it sees."""
    counts = []

    def newton(a, c, **kwargs):
        u, n = solvers.newton(a, c, **kwargs)
        counts.append(n)
        return u, n

    patch.setattr(static_atmosphere, "newton", newton)
    return counts


class TestAnchors:
    def test_isa_anchors_are_standard(self):
        a = anchors(ISA)
        assert a.Hp_msl == 0.0
        assert geopotential_from_hp(0.0, ISA) == 0.0
        assert a.p_msl == P0
        assert a.T_isa_msl == T0
        assert temperature_from_hp(a.Hp_msl, ISA) == T0
        assert temperature_from_hp(0.0, ISA) == T0
        assert a.H_trop == pytest.approx(11000.0, abs=1e-9)
        assert T_ISA_TROP == pytest.approx(216.65, abs=1e-9)

    def test_pressure_offset_shifts_msl(self):
        a = anchors(Offsets(0.0, 5000.0))
        assert a.p_msl == 106325.0
        assert a.Hp_msl == pytest.approx(HP_MSL_DP5000, abs=1e-6)
        assert a.Hp_msl < 0.0  # high pressure pushes mean sea level below Hp = 0

    def test_cold_tropopause_temperature(self):
        a = anchors(Offsets(-20.0, 0.0))
        assert a.T_trop == pytest.approx(196.65, abs=1e-9)

    @pytest.mark.parametrize("offsets", OFFSET_GRID)
    def test_boundary_condition_matrix(self, offsets):
        a = anchors(offsets)
        assert a.p_msl == P0 + offsets.delta_p
        assert temperature_from_hp(0.0, offsets) == T0 + offsets.delta_T
        assert a.T_isa_msl == T0 + BETA_T_BELOW * a.Hp_msl
        assert temperature_from_hp(a.Hp_msl, offsets) == a.T_isa_msl + offsets.delta_T
        assert a.T_trop == T_ISA_TROP + offsets.delta_T
        assert geopotential_from_hp(HP_TROP, offsets) == a.H_trop

    def test_anchor_cache_reuses_instances(self):
        assert anchors(Offsets(3.0, 40.0)) is anchors(Offsets(3.0, 40.0))


class TestStandardTemperature:
    def test_standard_msl(self):
        assert standard_temperature_from_hp(0.0) == 288.15

    def test_tropopause(self):
        assert standard_temperature_from_hp(11000.0) == pytest.approx(216.65, abs=1e-9)

    def test_stratosphere_constant(self):
        t = standard_temperature_from_hp(15000.0)
        assert t == standard_temperature_from_hp(19000.0)
        assert t == pytest.approx(216.65, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(OutOfValidityRange):
            standard_temperature_from_hp(20001.0)
        with pytest.raises(OutOfValidityRange):
            standard_temperature_from_hp(-2001.0)


class TestTemperature:
    def test_warm_msl(self):
        assert temperature_from_hp(0.0, Offsets(10.0, 0.0)) == pytest.approx(
            298.15, abs=1e-12
        )

    def test_cold_tropopause(self):
        assert temperature_from_hp(11000.0, Offsets(-20.0, 0.0)) == pytest.approx(
            196.65, abs=1e-9
        )

    def test_mid_troposphere_isa(self):
        assert temperature_from_hp(5000.0, ISA) == pytest.approx(255.65, abs=1e-9)

    @given(
        st.floats(min_value=-2000.0, max_value=20000.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_additivity(self, hp, dt):
        t = temperature_from_hp(hp, Offsets(dt, 0.0))
        assert t == standard_temperature_from_hp(hp) + dt
        assert t - standard_temperature_from_hp(hp) == pytest.approx(dt, abs=1e-12)

    def test_no_pressure_offset_dependence(self):
        for dp in (-5000.0, -123.0, 2500.0, 5000.0):
            assert temperature_from_hp(6000.0, Offsets(7.0, dp)) == temperature_from_hp(
                6000.0, Offsets(7.0, 0.0)
            )


class TestPressure:
    def test_standard_msl_exact(self):
        assert pressure_from_hp(0.0) == 101325.0

    def test_tropopause(self):
        assert pressure_from_hp(11000.0) == pytest.approx(P_TROP_EXACT, abs=1e-6)

    def test_stratosphere(self):
        assert pressure_from_hp(15000.0) == pytest.approx(P_15000_EXACT, abs=1e-6)

    def test_strictly_decreasing(self):
        hps = np.linspace(-2000.0, 20000.0, 4001)
        ps = [pressure_from_hp(float(hp)) for hp in hps]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_out_of_range(self):
        with pytest.raises(OutOfValidityRange):
            pressure_from_hp(25000.0)


class TestHpFromPressure:
    def test_standard_msl(self):
        assert hp_from_pressure(101325.0) == 0.0

    def test_tropopause(self):
        assert hp_from_pressure(P_TROP_EXACT) == pytest.approx(11000.0, abs=1e-6)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for hp in rng.uniform(-2000.0, 20000.0, 10000):
            assert abs(hp_from_pressure(pressure_from_hp(float(hp))) - hp) < 1e-8

    def test_validity_band(self):
        # The band endpoints are the pressures at the altitude limits.
        assert pressure_from_hp(-2000.0) == pytest.approx(P_CEILING_EXACT, abs=1e-6)
        assert pressure_from_hp(20000.0) == pytest.approx(P_FLOOR_EXACT, abs=1e-6)
        assert hp_from_pressure(pressure_from_hp(-2000.0)) == pytest.approx(
            -2000.0, abs=1e-8
        )
        assert hp_from_pressure(pressure_from_hp(20000.0)) == pytest.approx(
            20000.0, abs=1e-8
        )
        with pytest.raises(OutOfValidityRange):
            hp_from_pressure(130000.0)
        with pytest.raises(OutOfValidityRange):
            hp_from_pressure(5000.0)


class TestGeopotentialFromHp:
    def test_isa_identity(self):
        rng = np.random.default_rng(11)
        for hp in rng.uniform(-2000.0, 20000.0, 1000):
            assert geopotential_from_hp(float(hp), ISA) == hp

    def test_pure_pressure_offset_is_a_shift(self):
        for dp in (-5000.0, 2500.0, 5000.0):
            o = Offsets(0.0, dp)
            shift = anchors(o).Hp_msl
            for hp in (-2000.0, 0.0, 3000.0, 11000.0):
                assert geopotential_from_hp(hp, o) == hp - shift
            for hp in (15000.0, 20000.0):  # association order differs above
                assert geopotential_from_hp(hp, o) == pytest.approx(
                    hp - shift, abs=1e-9
                )

    def test_warm_tropopause_is_higher(self):
        H = geopotential_from_hp(11000.0, Offsets(20.0, 0.0))
        assert H > 11000.0
        assert H == pytest.approx(H_TROP_DT20, abs=1e-6)

    def test_msl_is_zero_at_hp_msl(self):
        for o in OFFSET_GRID:
            assert geopotential_from_hp(anchors(o).Hp_msl, o) == 0.0

    def test_strictly_increasing(self):
        o = Offsets(-20.0, 5000.0)
        hps = np.linspace(-2000.0, 20000.0, 2001)
        hs = [geopotential_from_hp(float(hp), o) for hp in hps]
        assert all(a < b for a, b in zip(hs, hs[1:]))

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(13)
        eps = 0.01
        for _ in range(200):
            o = random_offsets(rng)
            hp = rng.uniform(-1999.0, 19999.0)
            if abs(hp - HP_TROP) < 1.0:
                continue
            fd = (geopotential_from_hp(hp + eps, o) - geopotential_from_hp(hp - eps, o)) / (
                2 * eps
            )
            assert d_geopotential_d_hp(hp, o) == pytest.approx(fd, rel=1e-6)


class TestCheckOrder:
    @pytest.mark.parametrize(
        "f",
        [geopotential_from_hp, temperature_from_hp, d_geopotential_d_hp,
         state_at_pressure_altitude],
        ids=lambda f: f.__name__,
    )
    def test_offsets_are_checked_before_the_band(self, f):
        # Both inputs are out of range; every column function names the offsets.
        with pytest.raises(
            OutOfValidityRange, match=r"^delta_T=99\.0 K outside \[-50\.0, 50\.0\] K$"
        ):
            f(25000.0, Offsets(99.0, 0.0))


class TestHpFromGeopotential:
    def test_msl_maps_to_hp_msl_for_any_temperature_offset(self):
        for dt in (-20.0, -5.0, 0.0, 5.0, 20.0):
            for dp in (-5000.0, 0.0, 5000.0):
                o = Offsets(dt, dp)
                assert hp_from_geopotential(0.0, o) == anchors(o).Hp_msl

    def test_isa_identity(self):
        for H in (-1500.0, 0.0, 4321.0, 11000.0, 19999.0):
            assert hp_from_geopotential(H, ISA) == pytest.approx(H, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(10000):
            o = random_offsets(rng)
            hp = rng.uniform(-2000.0, 20000.0)
            H = geopotential_from_hp(hp, o)
            assert abs(hp_from_geopotential(H, o) - hp) < 1e-6

    def test_converges_within_ten_iterations(self, monkeypatch):
        iterations = record_iterations(monkeypatch)
        rng = np.random.default_rng(19)
        for _ in range(2000):
            o = random_offsets(rng)
            H = geopotential_from_hp(rng.uniform(-2000.0, 20000.0), o)
            hp_from_geopotential(H, o)
        assert max(iterations) <= 10

    def test_out_of_image_rejected(self):
        with pytest.raises(OutOfValidityRange):
            hp_from_geopotential(25000.0, ISA)
        with pytest.raises(OutOfValidityRange):
            hp_from_geopotential(-2500.0, ISA)

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_ITER", 1)
        with pytest.raises(NoConvergence):
            hp_from_geopotential(9000.0, Offsets(20.0, 5000.0))


class TestState:
    def test_standard_msl(self):
        st_ = state_at_geopotential(0.0, ISA)
        assert st_.p == 101325.0
        assert st_.T == 288.15
        assert st_.T_isa == 288.15
        assert st_.Hp == 0.0
        assert abs(st_.rho - 1.225) < 1e-4

    def test_warm_msl(self):
        st_ = state_at_geopotential(0.0, Offsets(10.0, 0.0))
        assert st_.T == pytest.approx(298.15, abs=1e-12)
        assert st_.p == pytest.approx(101325.0, abs=1e-9)
        assert st_.rho == pytest.approx(RHO_MSL_DT10, abs=1e-12)

    def test_perfect_gas_closure(self):
        rng = np.random.default_rng(23)
        for _ in range(10000):
            o = random_offsets(rng)
            low = geopotential_from_hp(-2000.0, o)
            high = geopotential_from_hp(20000.0, o)
            st_ = state_at_geopotential(rng.uniform(low, high), o)
            assert st_.p == pytest.approx(st_.rho * R_AIR * st_.T, rel=1e-12)
            assert st_.p > 0.0 and st_.T > 0.0 and st_.rho > 0.0

    def test_pressure_altitude_entry_point(self):
        o = Offsets(-7.0, 1200.0)
        st_ = state_at_pressure_altitude(4000.0, o)
        assert st_.Hp == 4000.0
        assert st_.p == pressure_from_hp(4000.0)
        assert st_.H == geopotential_from_hp(4000.0, o)
        assert st_.T - st_.T_isa == o.delta_T


class TestSlopeRatio:
    def test_isa_slope_is_one(self):
        for hp in (-2000.0, 0.0, 8000.0, 15000.0):
            assert d_geopotential_d_hp(hp, ISA) == 1.0

    def test_warm_msl_slope(self):
        assert d_geopotential_d_hp(0.0, Offsets(20.0, 0.0)) == pytest.approx(
            1.0694082942911678, abs=1e-12
        )

    def test_above_one_iff_warm(self):
        assert d_geopotential_d_hp(5000.0, Offsets(5.0, -3000.0)) > 1.0
        assert d_geopotential_d_hp(5000.0, Offsets(-5.0, 3000.0)) < 1.0


class TestVerticalGradients:
    def test_standard_msl_pressure_gradient(self):
        g = vertical_gradients(0.0, ISA)
        assert g.dp_dH == pytest.approx(DPDH_MSL, abs=1e-9)

    def test_stratosphere_isothermal(self):
        g = vertical_gradients(15000.0, ISA)
        assert g.dT_dH == 0.0
        assert g.drho_dH < 0.0

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(29)
        eps = 0.01
        for _ in range(300):
            o = random_offsets(rng)
            low = geopotential_from_hp(-1999.0, o)
            high = geopotential_from_hp(19999.0, o)
            H = rng.uniform(low, high)
            if abs(state_at_geopotential(H, o).Hp - HP_TROP) < 1.0:
                continue
            sa = state_at_geopotential(H - eps, o)
            sb = state_at_geopotential(H + eps, o)
            g = vertical_gradients(H, o)
            assert g.dp_dH == pytest.approx((sb.p - sa.p) / (2 * eps), rel=1e-6)
            fd_T = (sb.T - sa.T) / (2 * eps)
            if g.dT_dH == 0.0:
                assert fd_T == 0.0
            else:
                assert g.dT_dH == pytest.approx(fd_T, rel=1e-6)
            assert g.drho_dH == pytest.approx((sb.rho - sa.rho) / (2 * eps), rel=1e-6)

    def test_tropopause_uses_troposphere_branch(self):
        o = Offsets(10.0, 0.0)
        H_trop = anchors(o).H_trop
        g = vertical_gradients(H_trop, o)
        assert g.dT_dH != 0.0


class TestTropopauseContinuity:
    @pytest.mark.parametrize("offsets", OFFSET_GRID)
    def test_one_sided_limits_agree(self, offsets):
        delta = 1e-9
        below = state_at_pressure_altitude(HP_TROP - delta, offsets)
        above = state_at_pressure_altitude(HP_TROP + delta, offsets)
        for name in ("p", "T", "T_isa", "H", "rho"):
            lo, hi = getattr(below, name), getattr(above, name)
            assert abs(hi - lo) <= 1e-9 * max(abs(lo), abs(hi))


class TestSolveTisaMsl:
    def test_zero_offset_closed_form(self):
        assert solve_tisa_msl(255.65, 5000.0, 0.0) == 255.65 - BETA_T_BELOW * 5000.0

    def test_msl_observation_is_identity(self):
        for dt in (-20.0, -1.0, 1.0, 20.0):
            assert solve_tisa_msl(270.0, 0.0, dt) == 270.0

    def test_consistency_with_column(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            o = random_offsets(rng)
            hp = rng.uniform(-2000.0, 10500.0)
            a = anchors(o)
            H = geopotential_from_hp(hp, o)
            t_isa = standard_temperature_from_hp(hp)
            assert solve_tisa_msl(t_isa, H, o.delta_T) == pytest.approx(
                a.T_isa_msl, abs=1e-7
            )


class TestSolver:
    def test_exact_start_takes_one_iteration(self):
        for a in (-0.2, 0.0, 0.2):
            assert solvers.newton(a, 1.0, tol=1e-14) == (1.0, 1)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_no_root_in_domain_raises(self, c):
        with pytest.raises(NoConvergence):
            solvers.newton(0.1, c, tol=1e-14)

    def test_warm_column_overshoot_finds_the_root(self):
        # The mean sea level walk of identify_offsets(Observation(0, 0, 0,
        # -44022.0, 101325.0, 400.0)): a Halley step from c - a*ln(c) lands
        # at u <= 0 here.
        T_isa, delta_T = T0, 400.0 - T0
        H = geodetic_to_geopotential(-44022.0)
        a, c = delta_T / T_isa, 1.0 - BETA_T_BELOW * H / T_isa
        assert a == pytest.approx(0.388, abs=1e-3) and c == pytest.approx(4.0e-5, rel=0.01)
        w = solve_tisa_msl(T_isa, H, delta_T) / T_isa
        assert abs(w + a * math.log(w) - c) <= TISA_MSL_TOL / T_isa

    def test_warm_columns_with_small_c_converge(self):
        rng = np.random.default_rng(23)
        tol = TISA_MSL_TOL / T0
        a_values = rng.uniform(0.1, 0.25, 3000)
        c_values = np.exp(rng.uniform(math.log(1e-15), math.log(2.0), 3000))
        for a, c in zip(a_values.tolist(), c_values.tolist()):
            u, iterations = solvers.newton(a, c, tol=tol)
            assert abs(u + a * math.log(u) - c) <= tol, (a, c)
            assert iterations <= 15, (a, c)  # worst seen 11; the budget is solvers.MAX_ITER


    def test_cold_columns_near_the_double_root_converge(self):
        # u + a*ln(u) has its least value c_min = a*(ln(-a) - 1) at u = -a;
        # just above it the two roots nearly merge and the slope vanishes.
        rng = np.random.default_rng(29)
        tol = TISA_MSL_TOL / T0
        a_values = rng.uniform(-0.999, -1e-6, 3000)
        gaps = np.exp(rng.uniform(math.log(1e-17), math.log(1e-3), 3000))
        for a, gap in zip(a_values.tolist(), gaps.tolist()):
            c_min = a * (math.log(-a) - 1.0)
            c = max(c_min + gap, math.nextafter(c_min, math.inf))
            u, iterations = solvers.newton(a, c, tol=tol)
            assert u > -a and iterations <= 6, (a, c)  # the positive-temperature root
            assert abs(u + a * math.log(u) - c) <= 2.0 * math.ulp(c), (a, c)
            T_isa = 250.0
            H = (1.0 - c) * T_isa / BETA_T_BELOW
            try:
                w = solve_tisa_msl(T_isa, H, a * T_isa) / T_isa
            except NonPhysical:  # c, recomputed from H, rounded onto or below c_min
                continue
            assert w > -a, (a, c)

class TestFigureProperties:
    def test_parallel_lines_for_pure_pressure_offsets(self):
        hps = np.linspace(0.0, 15000.0, 151)
        for dp1, dp2 in ((-5000.0, 5000.0), (-2500.0, 2500.0), (0.0, 5000.0)):
            o1, o2 = Offsets(0.0, dp1), Offsets(0.0, dp2)
            gaps = [
                geopotential_from_hp(float(hp), o1) - geopotential_from_hp(float(hp), o2)
                for hp in hps
            ]
            assert max(gaps) - min(gaps) < 1e-9
            assert gaps[0] == pytest.approx(
                anchors(o2).Hp_msl - anchors(o1).Hp_msl, abs=1e-9
            )

    def test_common_intercept_for_shared_pressure_offset(self):
        for dp in (-5000.0, 0.0, 5000.0):
            hp_msl = anchors(Offsets(0.0, dp)).Hp_msl
            for dt in (-20.0, 0.0, 20.0):
                assert abs(geopotential_from_hp(hp_msl, Offsets(dt, dp))) < 1e-6


class TestEdgesNotSilentlyClamped:
    """A result past its layer or the band is moved back only within tolerance."""

    O = Offsets(15.0, 2000.0)

    @staticmethod
    def overshooting(monkeypatch, offsets, dHp):
        """Patch the solver so its root lands dHp away from the true one."""
        du = dHp * BETA_T_BELOW / anchors(offsets).T_isa_msl

        def newton(a, c, **kwargs):
            u, n = solvers.newton(a, c, **kwargs)
            return u + du, n

        monkeypatch.setattr(static_atmosphere, "newton", newton)

    @pytest.mark.parametrize(
        "edge, expected, sign",
        [("H_trop", HP_TROP, 1.0), ("H_min", HP_MIN, -1.0)],
        ids=["tropopause", "band_floor"],
    )
    def test_troposphere_overshoot(self, monkeypatch, edge, expected, sign):
        H = getattr(anchors(self.O), edge)
        self.overshooting(monkeypatch, self.O, sign * 0.5e-9)
        assert hp_from_geopotential(H, self.O) == expected
        assert state_at_geopotential(H, self.O).Hp == expected
        self.overshooting(monkeypatch, self.O, sign * 1e-6)
        with pytest.raises(NoConvergence, match="inversion landed"):
            hp_from_geopotential(H, self.O)
        with pytest.raises(NoConvergence, match="inversion landed"):
            state_at_geopotential(H, self.O)

    def test_stratosphere_overshoot(self):
        # Anchors whose span reaches past Hp = HP_MAX, slightly or by far.
        a = anchors(self.O)
        near = a._replace(H_max=a.H_max + 1e-10)
        assert state_at_geopotential(near.H_max, near).Hp == HP_MAX
        far = a._replace(H_max=a.H_max + 1e-3)
        with pytest.raises(NoConvergence, match="inversion landed"):
            state_at_geopotential(far.H_max, far)


OFFSETS_IN_BOX = st.builds(
    Offsets,
    st.floats(BOX.delta_T_min, BOX.delta_T_max),
    st.floats(BOX.delta_p_min, BOX.delta_p_max),
)
HP_IN_BAND = st.floats(HP_MIN, HP_MAX)
HP_IN_TROPOSPHERE = st.floats(HP_MIN, HP_TROP)


class TestWholeBox:
    """The column's invariants over Hp in [-2, 20] km and the default offset bounds."""

    @given(OFFSETS_IN_BOX, HP_IN_BAND)
    def test_round_trip(self, o, hp):
        assert abs(hp_from_geopotential(geopotential_from_hp(hp, o), o) - hp) <= 1e-9

    @given(st.floats(BOX.delta_p_min, BOX.delta_p_max), HP_IN_TROPOSPHERE)
    def test_zero_temperature_offset_is_an_exact_shift(self, dp, hp):
        o = Offsets(0.0, dp)
        H = geopotential_from_hp(hp, o)
        assert hp_from_geopotential(H, o) == min(max(H + anchors(o).Hp_msl, HP_MIN), HP_TROP)

    @given(st.sampled_from((0.0, -0.0)), st.floats(BOX.delta_p_min, BOX.delta_p_max),
           HP_IN_TROPOSPHERE)
    def test_zero_temperature_offset_is_an_exact_forward_shift(self, dT, dp, hp):
        # The uncached build keeps the sign of dT; a cached equal pair may carry the other.
        column = anchors.__wrapped__(Offsets(dT, dp))
        assert math.copysign(1.0, column.offsets.delta_T) == math.copysign(1.0, dT)
        for Hp in (hp, column.Hp_msl, HP_MIN, HP_TROP):
            H, shift = geopotential_from_hp(Hp, column), Hp - column.Hp_msl
            assert H == shift and math.copysign(1.0, H) == math.copysign(1.0, shift)
        assert geopotential_from_hp(hp, Offsets(dT, dp)) == hp - anchors(Offsets(dT, dp)).Hp_msl

    @given(OFFSETS_IN_BOX, HP_IN_BAND, HP_IN_BAND)
    def test_geopotential_increases_with_pressure_altitude(self, o, hp1, hp2):
        low, high = sorted((hp1, hp2))
        assume(high - low >= 1e-6)
        assert geopotential_from_hp(low, o) < geopotential_from_hp(high, o)

    @given(OFFSETS_IN_BOX, HP_IN_TROPOSPHERE)
    def test_at_most_two_iterations(self, o, hp):
        # A plain context: hypothesis rejects function-scoped fixtures.
        H = geopotential_from_hp(hp, o)
        with pytest.MonkeyPatch.context() as patch:
            iterations = record_iterations(patch)
            hp_from_geopotential(H, o)
            solve_tisa_msl(standard_temperature_from_hp(hp), H, o.delta_T)
        assert all(n <= 2 for n in iterations), iterations

    @given(OFFSETS_IN_BOX, st.floats(HP_MIN, HP_TROP - TROPOPAUSE_MARGIN))
    def test_identification_inverts_forward_model(self, o, hp):
        state = state_at_pressure_altitude(hp, o)
        h = geopotential_to_geodetic(state.H)
        try:
            got = identify_offsets(Observation(t=0.0, lon=0.0, lat=0.0, h=h, p=state.p, T=state.T))
        except (NotInTroposphere, OutOfValidityRange):
            # Only a point on a closed Hp edge of the box, whose recovered Hp
            # can round past that edge, may be rejected.
            assert hp < HP_MIN + 1e-6 or hp > HP_TROP - TROPOPAUSE_MARGIN - 1e-6
            return
        assert abs(got.delta_T - o.delta_T) < 1e-7
        assert abs(got.delta_p - o.delta_p) < 1e-6
