"""Independent reference physics and the output checks built on it.

The benchmark forward-models its inputs and verifies the program's outputs
with these closed-form INSA relations instead of calling the package, so
that verification neither depends on internal API that may be refactored
away nor adds calls to the traced layers.
"""

from __future__ import annotations

import math

import numpy as np

G0 = 9.80665
RE = 6356766.0
P0 = 101325.0
T0 = 288.15
R_AIR = 287.05287
HP_TROP = 11000.0
BETA = -6.5e-3
GBR = G0 / (-BETA * R_AIR)
HP_MIN = -2000.0
HP_MAX = 20000.0
T_ISA_TROP = T0 + BETA * HP_TROP
P_TROP = P0 * (1.0 + BETA / T0 * HP_TROP) ** GBR

# Verification tolerances.  The program inverts Hp with a 1e-9 m Newton
# step tolerance, so every relation below holds far inside these.
REL_TOL = 1e-9
H_TOL_M = 1e-6
DT_TOL_K = 1e-6
DP_TOL_PA = 1e-3


def geodetic_to_geopotential(h):
    return RE * h / (RE + h)


def geopotential_to_geodetic(H):
    return RE * H / (RE - H)


def standard_temperature(Hp):
    return T0 + BETA * Hp if Hp <= HP_TROP else T_ISA_TROP


def pressure(Hp):
    if Hp <= HP_TROP:
        return P0 * (1.0 + BETA / T0 * Hp) ** GBR
    return P_TROP * math.exp(-G0 * (Hp - HP_TROP) / (R_AIR * T_ISA_TROP))


def geopotential(Hp, dT, dp):
    """Geopotential altitude at pressure altitude Hp in the (dT, dp) column."""
    Hp_msl = T0 / BETA * (((P0 + dp) / P0) ** (1.0 / GBR) - 1.0)
    T_isa_msl = T0 + BETA * Hp_msl
    below = min(Hp, HP_TROP)
    H = below - Hp_msl + dT / BETA * math.log((T0 + BETA * below) / T_isa_msl)
    if Hp > HP_TROP:
        H += (T_ISA_TROP + dT) / T_ISA_TROP * (Hp - HP_TROP)
    return H


def geopotential_array(Hp, dT, dp):
    """Vectorised ``geopotential`` over numpy arrays."""
    Hp_msl = T0 / BETA * (((P0 + dp) / P0) ** (1.0 / GBR) - 1.0)
    T_isa_msl = T0 + BETA * Hp_msl
    below = np.minimum(Hp, HP_TROP)
    H = below - Hp_msl + dT / BETA * np.log((T0 + BETA * below) / T_isa_msl)
    return H + np.where(Hp > HP_TROP, (T_ISA_TROP + dT) / T_ISA_TROP * (Hp - HP_TROP), 0.0)


def pressure_array(Hp):
    below = P0 * (1.0 + BETA / T0 * np.minimum(Hp, HP_TROP)) ** GBR
    above = P_TROP * np.exp(-G0 * (Hp - HP_TROP) / (R_AIR * T_ISA_TROP))
    return np.where(Hp <= HP_TROP, below, above)


def standard_temperature_array(Hp):
    return np.where(Hp <= HP_TROP, T0 + BETA * Hp, T_ISA_TROP)


class RegularGrid:
    """Offset values on (t, lon, lat) axes with the program's interpolation.

    Longitudes are radians in [0, 2*pi) and periodic; the trilinear
    weights are applied in the same order as the program's grid field.
    """

    def __init__(self, t_axis, lon_axis, lat_axis, delta_T, delta_p):
        self.t_axis = np.asarray(t_axis, dtype=float)
        self.lon_axis = np.asarray(lon_axis, dtype=float)
        self.lat_axis = np.asarray(lat_axis, dtype=float)
        self.delta_T = np.asarray(delta_T, dtype=float)
        self.delta_p = np.asarray(delta_p, dtype=float)

    @staticmethod
    def _bracket(axis, x):
        i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2)
        return i, i + 1, (x - axis[i]) / (axis[i + 1] - axis[i])

    def _bracket_lon(self, lon):
        axis = self.lon_axis
        x = np.mod(lon, 2.0 * math.pi)
        i = np.searchsorted(axis, x, side="right") - 1
        seam = i == len(axis) - 1
        j = np.where(seam, 0, i + 1)
        upper = np.where(seam, axis[0] + 2.0 * math.pi, axis[j])
        return i, j, (x - axis[i]) / (upper - axis[i])

    def evaluate(self, t, lon, lat):
        """Offset arrays (delta_T, delta_p) at arrays of query points."""
        i0, i1, wi = self._bracket(self.t_axis, t)
        j0, j1, wj = self._bracket_lon(lon)
        k0, k1, wk = self._bracket(self.lat_axis, lat)

        def trilerp(v):
            def lerp(a, b, w):
                return a + w * (b - a)

            c00 = lerp(v[i0, j0, k0], v[i1, j0, k0], wi)
            c10 = lerp(v[i0, j1, k0], v[i1, j1, k0], wi)
            c01 = lerp(v[i0, j0, k1], v[i1, j0, k1], wi)
            c11 = lerp(v[i0, j1, k1], v[i1, j1, k1], wi)
            return lerp(lerp(c00, c10, wj), lerp(c01, c11, wj), wk)

        return trilerp(self.delta_T), trilerp(self.delta_p)


def _close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


def check_point(state, rates, dT, dp, H_expected, H_dot):
    """Whether one trajectory point's state and rates are right.

    Checks the perfect-gas closure p = rho*R*T, the standard pressure and
    temperature laws at the returned Hp, the round trip Hp -> H against the
    geopotential altitude of the queried position, and the hydrostatic rate
    dp/dt = -rho*g0*dH/dt with finite temperature and density rates.
    """
    Hp = state.Hp
    if not HP_MIN <= Hp <= HP_MAX:
        return False
    dp_dt = -state.rho * G0 * H_dot
    return (
        _close(state.p, state.rho * R_AIR * state.T, REL_TOL)
        and _close(state.p, pressure(Hp), REL_TOL)
        and abs(state.T - standard_temperature(Hp) - dT) <= DT_TOL_K
        and abs(state.H - H_expected) <= H_TOL_M
        and abs(geopotential(Hp, dT, dp) - H_expected) <= H_TOL_M
        and abs(rates.dp_dt - dp_dt) <= REL_TOL * abs(dp_dt) + 1e-12
        and math.isfinite(rates.dT_dt)
        and math.isfinite(rates.drho_dt)
    )
