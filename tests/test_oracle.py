"""The tropospheric column solve graded against a 40-digit decimal oracle.

Each test draws an offset pair and a pressure altitude from the default
validity box and compares the package with ``oracle.py``.  A root is
held to 2 ulp of the exact root of the same float (a, c); a result that
also carries the rounding of (a, c), or of the anchors, gets its own
budget.
"""

import math
from decimal import Decimal

from hypothesis import given, strategies as st

import oracle
from insa import (
    Offsets,
    anchors,
    geopotential_from_hp,
    solve_tisa_msl,
    solvers,
    standard_temperature_from_hp,
    state_at_geopotential,
)
from insa.constants import BETA_T_BELOW, DEFAULT_OFFSET_BOUNDS as BOX, HP_MIN, HP_TROP
from insa.identification import TROPOPAUSE_MARGIN
from insa.static_atmosphere import HP_INVERSION_TOL, TISA_MSL_TOL

OFFSETS_IN_BOX = st.builds(
    Offsets,
    st.floats(BOX.delta_T_min, BOX.delta_T_max),
    st.floats(BOX.delta_p_min, BOX.delta_p_max),
)
HP_IN_TROPOSPHERE = st.floats(HP_MIN, HP_TROP)
STATION_HP = st.floats(HP_MIN, HP_TROP - TROPOPAUSE_MARGIN)  # what identify_offsets accepts


def ulps(got, exact):
    """Distance of a float from an exact Decimal, in ulps of the exact value."""
    return abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact)))


class TestSolveInTheBox:
    @given(OFFSETS_IN_BOX, HP_IN_TROPOSPHERE)
    def test_pressure_altitude_root_within_two_ulp(self, o, hp):
        # The (a, c) and tolerance that state_at_geopotential solves with.
        t = anchors(o).T_isa_msl
        a, c = o.delta_T / t, 1.0 + BETA_T_BELOW * geopotential_from_hp(hp, o) / t
        u, _ = solvers.newton(a, c, tol=HP_INVERSION_TOL * -BETA_T_BELOW / t)
        assert ulps(u, oracle.root(a, c)) <= 2

    @given(OFFSETS_IN_BOX, STATION_HP)
    def test_sea_level_walk_root_within_two_ulp(self, o, hp):
        # The (a, c) and tolerance that solve_tisa_msl solves with for identify_offsets.
        T_isa = standard_temperature_from_hp(hp)
        a, c = o.delta_T / T_isa, 1.0 - BETA_T_BELOW * geopotential_from_hp(hp, o) / T_isa
        w, _ = solvers.newton(a, c, tol=TISA_MSL_TOL / T_isa)
        assert ulps(w, oracle.root(a, c)) <= 2

    @given(OFFSETS_IN_BOX, HP_IN_TROPOSPHERE)
    def test_pressure_altitude_within_1e_10_m(self, o, hp):
        # Against the oracle's whole column: the anchors' rounding is inside the budget.
        H = min(geopotential_from_hp(hp, o), anchors(o).H_trop)
        exact = oracle.hp_below(H, o.delta_T, o.delta_p)
        assert abs(Decimal(state_at_geopotential(H, o).Hp) - exact) <= Decimal("1e-10")

    @given(OFFSETS_IN_BOX, STATION_HP)
    def test_sea_level_temperature_within_four_ulp(self, o, hp):
        # identify_offsets' walk from a forward-modelled station; the rounding
        # of a and c and the final product are inside the budget.
        H, T_isa = geopotential_from_hp(hp, o), standard_temperature_from_hp(hp)
        got = solve_tisa_msl(T_isa, H, o.delta_T)
        assert ulps(got, oracle.tisa_msl(T_isa, H, o.delta_T)) <= 4
