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
from functools import lru_cache
from typing import NamedTuple, Union

from .constants import (
    BETA_T_ABOVE, BETA_T_BELOW, G0, GBR, HP_MAX, HP_MIN, HP_TROP, P0, R_AIR, T0, T_ISA_TROP,
    AtmosphericState, Offsets, _new, _onto_edge, check_pressure_altitude, validate_offsets,
)
from .errors import NoConvergence, NonPhysical, OutOfValidityRange
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


class AtmosphereAnchors(NamedTuple):
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
    return Hp - Hp_msl + delta_T / BETA_T_BELOW * math.log(
        (T0 + BETA_T_BELOW * Hp) / T_isa_msl
    )


def _column_anchors(offsets: Offsets) -> AtmosphereAnchors:
    """Anchors of an offset pair already validated by the caller."""
    delta_T = offsets.delta_T
    p_msl = P0 + offsets.delta_p
    Hp_msl = _hp_below(p_msl)
    T_isa_msl = T0 + BETA_T_BELOW * Hp_msl
    H_trop = _geopotential_below(HP_TROP, Hp_msl, T_isa_msl, delta_T)
    T_trop = T_ISA_TROP + delta_T
    return _new(AtmosphereAnchors, (
        offsets, Hp_msl, T_isa_msl, p_msl, H_trop, T_trop,
        _geopotential_below(HP_MIN, Hp_msl, T_isa_msl, delta_T),
        H_trop + T_trop / T_ISA_TROP * (HP_MAX - HP_TROP),
    ))


@lru_cache(maxsize=4096, typed=True)
def anchors(offsets: Offsets) -> AtmosphereAnchors:
    """Compute (and cache) the boundary values of one column.

    The pair is checked against the default offset bounds.  The cache
    serves column functions called with an ``Offsets`` (755 calls over 5
    pairs per pair-series figure): a hit skips the check and the build,
    ten times its own cost.  A rejected pair is a miss and is not cached,
    and a plain tuple never hits an ``Offsets`` entry.
    """
    return _column_anchors(validate_offsets(offsets))


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
    return _state(Hp, math.nan, 0.0).T_isa


def temperature_from_hp(Hp: float, column: ColumnSpec) -> float:
    """Temperature at pressure altitude Hp; the offset delta_p plays no role."""
    a = _as_anchors(column)
    check_pressure_altitude(Hp)
    return _state(Hp, math.nan, a.offsets.delta_T).T


def pressure_from_hp(Hp: float) -> float:
    """Pressure at pressure altitude Hp; the same for every offset pair."""
    check_pressure_altitude(Hp)
    return _state(Hp, math.nan, 0.0).p


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
    a = _as_anchors(column)
    check_pressure_altitude(Hp)
    if Hp <= HP_TROP:
        return _geopotential_below(Hp, a.Hp_msl, a.T_isa_msl, a.offsets.delta_T)
    return a.H_trop + a.T_trop / T_ISA_TROP * (Hp - HP_TROP)


def _state(Hp: float, H: float, delta_T: float) -> AtmosphericState:
    # The one Hp layer branch.  Hp is already known to lie in the validity
    # band; H is only carried into the state (NaN where the caller needs none).
    if Hp <= HP_TROP:
        T_isa, p = T0 + BETA_T_BELOW * Hp, _pressure_below(Hp)
    else:
        T_isa, p = T_ISA_TROP, _pressure_above(Hp)
    T = T_isa + delta_T
    return _new(AtmosphericState, (Hp, H, p, T, T_isa, p / (R_AIR * T)))


def hp_from_geopotential(H: float, column: ColumnSpec) -> float:
    """Pressure altitude Hp at geopotential altitude H for one column.

    The stratosphere inverts in closed form; the troposphere, with
    u = T_isa(Hp)/T_isa_msl, solves u + a*ln(u) = c for a = delta_T/T_isa_msl
    and c = 1 + betaT*H/T_isa_msl, a shift H + Hp_msl at delta_T = 0.  It is
    the ``Hp`` of ``state_at_geopotential``, whose errors it raises.
    """
    return state_at_geopotential(H, column).Hp


def state_at_geopotential(H: float, column: ColumnSpec) -> AtmosphericState:
    """Full atmospheric state at geopotential altitude H for one column.

    Hp is recovered first, pressure and the two temperatures follow from
    it, and density closes the bundle through the perfect-gas law, so the
    returned state satisfies p = rho*R*T by construction.

    Raises:
        OutOfValidityRange: H outside the image of the validity band.
        NoConvergence: iteration budget exhausted (never expected in range),
            or a result past its layer or the validity band by more than
            HP_INVERSION_TOL; a smaller overshoot is moved onto the edge.
    """
    o, Hp_msl, t, _, H_trop, T_trop, H_min, H_max = _as_anchors(column)  # t: T_isa_msl
    if not H_min <= H <= H_max:  # any pair equal to o, -0.0 for 0.0 say, names it alike
        raise OutOfValidityRange(
            f"geopotential altitude {H!r} m outside [{H_min}, {H_max}] m"
            f" for offsets {Offsets(float(o.delta_T) + 0.0, float(o.delta_p) + 0.0)}"
        )
    delta_T = o.delta_T
    if H > H_trop:
        Hp, low, high = HP_TROP + T_ISA_TROP / T_trop * (H - H_trop), HP_TROP, HP_MAX
    elif delta_T == 0.0:
        Hp, low, high = H + Hp_msl, HP_MIN, HP_TROP
    else:
        tol = HP_INVERSION_TOL * -BETA_T_BELOW / t
        u, _ = newton(delta_T / t, 1.0 + BETA_T_BELOW * H / t, tol=tol)
        Hp, low, high = Hp_msl + t / BETA_T_BELOW * (u - 1.0), HP_MIN, HP_TROP
    if not low <= Hp <= high:
        Hp = _onto_edge(Hp, low, high, HP_INVERSION_TOL)
        if not low <= Hp <= high:
            raise NoConvergence(f"inversion landed at Hp={Hp!r} m, outside [{low}, {high}] m")
    return _state(Hp, H, delta_T)


def state_at_pressure_altitude(Hp: float, column: ColumnSpec) -> AtmosphericState:
    """Full atmospheric state at pressure altitude Hp for one column."""
    a = _as_anchors(column)
    return _state(Hp, geopotential_from_hp(Hp, a), a.offsets.delta_T)


def d_geopotential_d_hp(Hp: float, column: ColumnSpec) -> float:
    """Slope dH/dHp = T/T_isa; above one in warm columns, below in cold."""
    a = _as_anchors(column)
    check_pressure_altitude(Hp)
    st = _state(Hp, math.nan, a.offsets.delta_T)
    return st.T / st.T_isa


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
    return _new(VerticalGradients, gradients_of_state(state_at_geopotential(H, column)))


def gradients_of_state(st: AtmosphericState) -> tuple[float, float, float]:
    """Vertical gradients of a state already solved by ``state_at_geopotential``.

    Closed form in the state's own values, so a caller holding the state
    pays no second column solve; a plain ``(dp_dH, dT_dH, drho_dH)`` tuple,
    which ``vertical_gradients`` names.
    """
    Hp, _, p, T, T_isa, rho = st
    dp_dH = -rho * G0
    dT_dH = (BETA_T_BELOW if Hp <= HP_TROP else BETA_T_ABOVE) * T_isa / T
    drho_dH = dp_dH / (R_AIR * T) - p * dT_dH / (R_AIR * T * T)
    return dp_dH, dT_dH, drho_dH


def solve_tisa_msl(T_isa: float, H: float, delta_T: float) -> float:
    """Mean sea level standard temperature of the column through one point.

    Given the standard temperature ``T_isa`` observed at geopotential
    altitude ``H`` in a column with temperature offset ``delta_T``,
    returns the standard temperature that same column has at mean sea
    level.  With delta_T = 0 the relationship is linear and solved
    directly; otherwise w = T_isa_msl/T_isa solves w + a*ln(w) = c for
    a = delta_T/T_isa and c = 1 - betaT*H/T_isa.

    Raises:
        NonPhysical: the column cannot reach mean sea level at a positive
            temperature: c <= 0 (T_isa - betaT*H, the mean sea level
            standard temperature at delta_T = 0, is not positive), or, in
            a cold column, c at or below the least value a*(ln(-a) - 1)
            of the left side, where the temperature w + a reaches zero.
        NoConvergence: the solve failed (see ``solvers.newton``).
    """
    a = delta_T / T_isa
    c = 1.0 - BETA_T_BELOW * H / T_isa
    if c <= (a * (math.log(-a) - 1.0) if a < 0.0 else 0.0):
        raise NonPhysical(
            f"the column through T_isa={T_isa!r} K at H={H!r} m with delta_T={delta_T!r} K"
            " cannot reach mean sea level at a positive temperature"
        )
    if delta_T == 0.0:
        return T_isa - BETA_T_BELOW * H
    w, _ = newton(a, c, tol=TISA_MSL_TOL / T_isa)
    return w * T_isa
