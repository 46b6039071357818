"""Static column model for one fixed temperature/pressure offset pair.

Everything here describes a single column of air in hydrostatic
equilibrium: the relationships among pressure altitude Hp, geopotential
altitude H, pressure p, temperature T, standard temperature T_isa, and
density rho.  The column has two layers separated by the tropopause at a
fixed pressure altitude: a troposphere with a constant temperature
gradient and an isothermal stratosphere above it.

Pressure and standard temperature depend on Hp only and are therefore
shared by every offset pair.  Temperature adds the offset delta_T on top
of the standard profile, and the Hp <-> H mapping shifts and tilts with
both offsets through the mean sea level anchor values.

The troposphere H -> Hp inverse and the walk from an observed point down
to mean sea level are one equation, u + a*ln(u) = c in a temperature
ratio u, solved by ``solvers.newton``.  Whatever depends on the offsets
alone, the validity band's geopotential span included, lives in the
cached anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Union

from .constants import (
    BETA_T_ABOVE,
    BETA_T_BELOW,
    G0,
    GBR,
    HP_MAX,
    HP_MIN,
    HP_TROP,
    P0,
    R_AIR,
    T0,
    T_ISA_TROP,
    AtmosphericState,
    Offsets,
    check_pressure_altitude,
    validate_offsets,
)
from .errors import NoConvergence, OutOfValidityRange
from .solvers import newton

# Step tolerances of the two solves; also the most a result may move onto an edge.
HP_INVERSION_TOL = 1e-9   # [m]
TISA_MSL_TOL = 1e-9       # [K]


def _pressure_below(Hp: float) -> float:
    return P0 * (1.0 + BETA_T_BELOW / T0 * Hp) ** GBR


def _hp_below(p: float) -> float:
    return T0 / BETA_T_BELOW * ((p / P0) ** (1.0 / GBR) - 1.0)


# Tropopause pressure in standard conditions; independent of the offsets.
P_TROP = _pressure_below(HP_TROP)  # [Pa]


def _pressure_above(Hp: float) -> float:
    return P_TROP * math.exp(-G0 * (Hp - HP_TROP) / (R_AIR * T_ISA_TROP))


# Pressure image of the validity band, used to gate the inverse map.
_P_CEILING = _pressure_below(HP_MIN)  # highest valid pressure [Pa]
_P_FLOOR = _pressure_above(HP_MAX)    # lowest valid pressure [Pa]


@dataclass(frozen=True)
class AtmosphereAnchors:
    """Boundary values of one column, computed once per offset pair.

    Carries the generating offsets so that any operation accepting either
    an ``Offsets`` or a prebuilt anchor set can recover them bit-exactly.
    """

    offsets: Offsets
    Hp_msl: float       # pressure altitude of mean sea level [m]
    T_isa_msl: float    # standard temperature at mean sea level [K]
    p_msl: float        # mean sea level pressure [Pa]
    H_trop: float       # tropopause geopotential altitude [m]
    T_trop: float       # tropopause temperature [K]
    H_min: float        # geopotential altitude at Hp = HP_MIN [m]
    H_max: float        # geopotential altitude at Hp = HP_MAX [m]


ColumnSpec = Union[Offsets, AtmosphereAnchors]


def _geopotential_below(Hp: float, Hp_msl: float, T_isa_msl: float, delta_T: float) -> float:
    if delta_T == 0.0:
        return Hp - Hp_msl
    return Hp - Hp_msl + delta_T / BETA_T_BELOW * math.log(
        (T0 + BETA_T_BELOW * Hp) / T_isa_msl
    )


@lru_cache(maxsize=4096)
def _column_anchors(offsets: Offsets) -> AtmosphereAnchors:
    """Anchors of an offset pair already validated by the caller.

    The cache behind ``anchors``; a caller that owns other bounds (such as
    ``QuasiStaticModel.bounds``) validates against them and comes here.
    """
    delta_T = offsets.delta_T
    p_msl = P0 + offsets.delta_p
    Hp_msl = _hp_below(p_msl)
    T_isa_msl = T0 + BETA_T_BELOW * Hp_msl
    H_trop = _geopotential_below(HP_TROP, Hp_msl, T_isa_msl, delta_T)
    return AtmosphereAnchors(
        offsets=offsets,
        Hp_msl=Hp_msl,
        T_isa_msl=T_isa_msl,
        p_msl=p_msl,
        H_trop=H_trop,
        T_trop=T_ISA_TROP + delta_T,
        H_min=_geopotential_below(HP_MIN, Hp_msl, T_isa_msl, delta_T),
        H_max=H_trop + (T_ISA_TROP + delta_T) / T_ISA_TROP * (HP_MAX - HP_TROP),
    )


def anchors(offsets: Offsets) -> AtmosphereAnchors:
    """Compute (and cache) the boundary values of one column.

    The pair is checked against the default offset bounds.  Trajectory
    integrators call the point operations millions of times per flight,
    so the power/log evaluations hiding in the anchor values are done
    once per offset pair.
    """
    return _column_anchors(validate_offsets(offsets))


anchors.cache_info = _column_anchors.cache_info
anchors.cache_clear = _column_anchors.cache_clear


def _as_anchors(column: ColumnSpec) -> AtmosphereAnchors:
    if isinstance(column, AtmosphereAnchors):
        return column
    return anchors(column)


def standard_temperature_from_hp(Hp: float) -> float:
    """Standard temperature T_isa at pressure altitude Hp.

    Linear below the tropopause, constant above; the same for every
    offset pair.
    """
    check_pressure_altitude(Hp)
    if Hp <= HP_TROP:
        return T0 + BETA_T_BELOW * Hp
    return T_ISA_TROP


def temperature_from_hp(Hp: float, column: ColumnSpec) -> float:
    """Temperature at pressure altitude Hp; the offset delta_p plays no role."""
    a = _as_anchors(column)
    return standard_temperature_from_hp(Hp) + a.offsets.delta_T


def pressure_from_hp(Hp: float) -> float:
    """Pressure at pressure altitude Hp; the same for every offset pair."""
    check_pressure_altitude(Hp)
    if Hp <= HP_TROP:
        return _pressure_below(Hp)
    return _pressure_above(Hp)


def hp_from_pressure(p: float) -> float:
    """Pressure altitude at which pressure p occurs (exact inverse)."""
    if not _P_FLOOR <= p <= _P_CEILING:
        raise OutOfValidityRange(
            f"pressure {p!r} Pa outside [{_P_FLOOR}, {_P_CEILING}] Pa"
        )
    if p >= P_TROP:
        return _hp_below(p)
    return HP_TROP - R_AIR * T_ISA_TROP / G0 * math.log(p / P_TROP)


def geopotential_from_hp(Hp: float, column: ColumnSpec) -> float:
    """Geopotential altitude H at pressure altitude Hp for one column.

    H is zero at mean sea level (Hp = Hp_msl) and grows with slope
    T/T_isa, so warm columns stretch and cold ones compress relative to
    the Hp scale.
    """
    check_pressure_altitude(Hp)
    a = _as_anchors(column)
    if Hp <= HP_TROP:
        return _geopotential_below(Hp, a.Hp_msl, a.T_isa_msl, a.offsets.delta_T)
    return a.H_trop + a.T_trop / T_ISA_TROP * (Hp - HP_TROP)


def hp_from_geopotential(H: float, column: ColumnSpec, *, max_iter: int = 50) -> float:
    """Pressure altitude Hp at geopotential altitude H for one column.

    The stratosphere inverts in closed form; the troposphere, with
    u = T_isa(Hp)/T_isa_msl, solves u + a*ln(u) = c for a = delta_T/T_isa_msl
    and c = 1 + betaT*H/T_isa_msl, a shift H + Hp_msl at delta_T = 0.

    Raises:
        OutOfValidityRange: H outside the image of the validity band.
        NoConvergence: iteration budget exhausted (never expected in range),
            or a result past its layer or the validity band by more than
            HP_INVERSION_TOL; a smaller overshoot is moved onto the edge.
    """
    a = _as_anchors(column)
    if not a.H_min <= H <= a.H_max:
        raise OutOfValidityRange(
            f"geopotential altitude {H!r} m outside [{a.H_min}, {a.H_max}] m"
            f" for offsets {a.offsets}"
        )
    delta_T = a.offsets.delta_T
    if H > a.H_trop:
        Hp, low, high = HP_TROP + T_ISA_TROP / a.T_trop * (H - a.H_trop), HP_TROP, HP_MAX
    elif delta_T == 0.0:
        Hp, low, high = H + a.Hp_msl, HP_MIN, HP_TROP
    else:
        t = a.T_isa_msl
        tol = HP_INVERSION_TOL * -BETA_T_BELOW / t
        u, _ = newton(delta_T / t, 1.0 + BETA_T_BELOW * H / t, tol=tol, max_iter=max_iter)
        Hp, low, high = a.Hp_msl + t / BETA_T_BELOW * (u - 1.0), HP_MIN, HP_TROP
    if low <= Hp <= high:
        return Hp
    inside = min(max(Hp, low), high)
    if abs(inside - Hp) > HP_INVERSION_TOL:
        raise NoConvergence(f"inversion landed at Hp={Hp!r} m, outside [{low}, {high}] m")
    return inside


def _state(Hp: float, H: float, delta_T: float) -> AtmosphericState:
    # Hp is already known to lie in the validity band.
    if Hp <= HP_TROP:
        T_isa, p = T0 + BETA_T_BELOW * Hp, _pressure_below(Hp)
    else:
        T_isa, p = T_ISA_TROP, _pressure_above(Hp)
    T = T_isa + delta_T
    return AtmosphericState(Hp=Hp, H=H, p=p, T=T, T_isa=T_isa, rho=p / (R_AIR * T))


def state_at_geopotential(H: float, column: ColumnSpec) -> AtmosphericState:
    """Full atmospheric state at geopotential altitude H for one column.

    Hp is recovered first, pressure and the two temperatures follow from
    it, and density closes the bundle through the perfect-gas law, so the
    returned state satisfies p = rho*R*T by construction.
    """
    a = _as_anchors(column)
    return _state(hp_from_geopotential(H, a), H, a.offsets.delta_T)


def state_at_pressure_altitude(Hp: float, column: ColumnSpec) -> AtmosphericState:
    """Full atmospheric state at pressure altitude Hp for one column."""
    a = _as_anchors(column)
    return _state(Hp, geopotential_from_hp(Hp, a), a.offsets.delta_T)


def d_geopotential_d_hp(Hp: float, column: ColumnSpec) -> float:
    """Slope dH/dHp = T/T_isa; above one in warm columns, below in cold."""
    a = _as_anchors(column)
    T_isa = standard_temperature_from_hp(Hp)
    return (T_isa + a.offsets.delta_T) / T_isa


class VerticalGradients(NamedTuple):
    dp_dH: float    # [Pa/m]
    dT_dH: float    # [K/m]
    drho_dH: float  # [kg/m^4]


def vertical_gradients(H: float, column: ColumnSpec) -> VerticalGradients:
    """Vertical gradients of p, T and rho with geopotential altitude.

    dp/dH is the hydrostatic balance -rho*g0; dT/dH combines the layer
    gradient (taken per pressure altitude) with the slope dHp/dH; the
    density gradient differentiates the perfect-gas law.  Exactly at the
    tropopause the troposphere-side values are returned.
    """
    return gradients_of_state(state_at_geopotential(H, column))


def gradients_of_state(st: AtmosphericState) -> VerticalGradients:
    """Vertical gradients of a state already solved by ``state_at_geopotential``.

    Closed form in the state's own values, so a caller holding the state
    pays no second column solve.
    """
    beta = BETA_T_BELOW if st.Hp <= HP_TROP else BETA_T_ABOVE
    dp_dH = -st.rho * G0
    dT_dH = beta * st.T_isa / st.T
    drho_dH = dp_dH / (R_AIR * st.T) - st.p * dT_dH / (R_AIR * st.T * st.T)
    return VerticalGradients(dp_dH=dp_dH, dT_dH=dT_dH, drho_dH=drho_dH)


def solve_tisa_msl(T_isa: float, H: float, delta_T: float, *, max_iter: int = 50) -> float:
    """Mean sea level standard temperature of the column through one point.

    Given the standard temperature ``T_isa`` observed at geopotential
    altitude ``H`` in a column with temperature offset ``delta_T``,
    returns the standard temperature that same column has at mean sea
    level.  With delta_T = 0 the relationship is linear and solved
    directly; otherwise w = T_isa_msl/T_isa solves w + a*ln(w) = c for
    a = delta_T/T_isa and c = 1 - betaT*H/T_isa.
    """
    if delta_T == 0.0:
        return T_isa - BETA_T_BELOW * H
    c = 1.0 - BETA_T_BELOW * H / T_isa
    w, _ = newton(delta_T / T_isa, c, tol=TISA_MSL_TOL / T_isa, max_iter=max_iter)
    return w * T_isa
