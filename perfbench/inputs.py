"""Seeded input generators.

Every generator takes the workload seed and returns plain data (numpy
arrays and file text); the program under test only ever sees what is
generated here.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

import reference as ref

FLIGHT_POINTS = 5000
CONST_OFFSETS = (15.0, 2000.0)  # delta_T [K], delta_p [Pa] of traj_const

# Hourly over one day at 2.5 degrees: 24 x 144 x 73 = 252,288 nodes.
GRID_T_S = np.arange(24) * 3600.0
GRID_LON_DEG = np.arange(144) * 2.5
GRID_LAT_DEG = -90.0 + np.arange(73) * 2.5
SEAM_DEG = 360.0 - 2.5  # points east of this lie in the periodic seam cell

OBS_ROWS = 10_000
OBS_PLANTED = 200  # 2 % of the rows sit above the tropopause

GRID_HEADER = "t_s,lon_deg,lat_deg,delta_t_k,delta_p_pa"
OBS_HEADER = "t_s,lon_deg,lat_deg,h_m,p_pa,t_k"


def _rng(seed, *stream):
    """A generator for one input stream of a seed (any integer)."""
    return np.random.default_rng([seed % 2**64, *stream])


# Flight profile: climb over the first 35 % of the time, cruise above the
# tropopause, descend over the last 35 %.  About a third of the points are
# in the stratosphere, so the median point takes the Newton branch.
_PROFILE_S = (0.0, 0.35, 0.65, 1.0)


@dataclass(frozen=True)
class Flight:
    """One climb-cruise-descent trajectory, SI units, longitudes in radians."""

    t: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    h: np.ndarray
    h_dot: np.ndarray
    seam: np.ndarray  # bool, point lies in the seam cell of the 2.5 degree grid

    def __len__(self):
        return len(self.t)


def flight(seed: int, index: int) -> Flight:
    """The ``index``-th flight of a run; each crosses the 0/360 degree seam."""
    rng = _rng(seed, 1, index)
    duration = rng.uniform(4.0, 5.0) * 3600.0
    t0 = rng.uniform(0.0, GRID_T_S[-1] - duration)
    lon0, span = rng.uniform(335.0, 350.0), rng.uniform(35.0, 45.0)
    lat0 = rng.uniform(-50.0, 50.0)
    lat1 = lat0 + rng.uniform(-10.0, 10.0)
    h0, h1 = rng.uniform(0.0, 400.0, 2)
    cruise = rng.uniform(12_600.0, 13_000.0)

    s = np.linspace(0.0, 1.0, FLIGHT_POINTS)
    lon_deg = (lon0 + span * s) % 360.0
    h = np.interp(s, _PROFILE_S, (h0, cruise, cruise, h1))
    leg = duration * (_PROFILE_S[1] - _PROFILE_S[0])
    h_dot = np.select(
        [s < _PROFILE_S[1], s <= _PROFILE_S[2]],
        [(cruise - h0) / leg, 0.0],
        (h1 - cruise) / leg,
    )
    return Flight(
        t=t0 + s * duration,
        lon=np.radians(lon_deg),
        lat=np.radians(lat0 + (lat1 - lat0) * s),
        h=h,
        h_dot=h_dot,
        seam=lon_deg >= SEAM_DEG,
    )


def stratosphere_mask(f: Flight, dT, dp) -> np.ndarray:
    """Points above the tropopause of their own column."""
    H = ref.geodetic_to_geopotential(f.h)
    return H > ref.geopotential_array(np.full(len(f), ref.HP_TROP), dT, dp)


def grid(seed: int) -> tuple[str, ref.RegularGrid]:
    """Grid-file text for a smooth seeded weather day, plus its reference.

    Values are rounded to 1e-6 before writing, so the text parses back to
    exactly the values the reference interpolates.  The text is written one
    time slice at a time, so that making it takes far less memory than
    loading it.
    """
    rng = _rng(seed, 2)
    T = GRID_T_S[:, None, None]
    LON, LAT = np.meshgrid(np.radians(GRID_LON_DEG), np.radians(GRID_LAT_DEG), indexing="ij")
    # Fixed amplitudes and seeded phases: every seed gives a different day
    # with the same spread of offsets, so the work per point does not
    # depend on the seed.
    phase = 2.0 * math.pi * T / 86_400.0
    wave = np.sin(LON + phase + rng.uniform(0, 2 * math.pi)) * np.cos(LAT)
    ripple = np.sin(2.0 * LAT + 3.0 * LON + rng.uniform(0, 2 * math.pi))
    dT = np.round(4.0 + 8.0 * np.cos(LAT) + 6.0 * wave + 3.0 * ripple, 6)
    dp = np.round(500.0 + 1000.0 * np.cos(LAT) + 1200.0 * wave + 500.0 * ripple, 6)

    lon_deg, lat_deg = (
        a.ravel().tolist() for a in np.meshgrid(GRID_LON_DEG, GRID_LAT_DEG, indexing="ij")
    )
    text = io.StringIO()
    text.write(GRID_HEADER + "\n")
    for k, t in enumerate(GRID_T_S.tolist()):
        text.write("".join(map(
            "{!r},{!r},{!r},{!r},{!r}\n".format,
            itertools.repeat(t), lon_deg, lat_deg, dT[k].ravel().tolist(), dp[k].ravel().tolist(),
        )))
    reference = ref.RegularGrid(
        GRID_T_S,
        [math.radians(v) for v in GRID_LON_DEG.tolist()],
        [math.radians(v) for v in GRID_LAT_DEG.tolist()],
        dT,
        dp,
    )
    return text.getvalue(), reference


@dataclass(frozen=True)
class Observations:
    """An observation file forward-modelled from known offsets."""

    text: str
    rows: list[tuple[float, ...]]  # (t, lon_deg, lat_deg, h, p, T) as written
    delta_T: np.ndarray            # truth [K]
    delta_p: np.ndarray            # truth [Pa]
    planted: np.ndarray            # bool, row lies above the tropopause


def _forward(rng, n, Hp):
    """Station altitude, pressure and temperature for random offsets."""
    dT = rng.uniform(-25.0, 25.0, n)
    dp = rng.uniform(-4000.0, 4000.0, n)
    h = ref.geopotential_to_geodetic(ref.geopotential_array(Hp, dT, dp))
    p = ref.pressure_array(Hp)
    T = ref.standard_temperature_array(Hp) + dT
    return dT, dp, h, p, T


def observations(seed: int) -> Observations:
    rng = _rng(seed, 3)
    n = OBS_ROWS
    above = np.zeros(n, dtype=bool)
    above[rng.choice(n, OBS_PLANTED, replace=False)] = True
    Hp = np.where(above, rng.uniform(11_500.0, 16_000.0, n), rng.uniform(-300.0, 4000.0, n))
    t = rng.uniform(0.0, 86_400.0, n)
    lon = rng.uniform(0.0, 360.0, n)
    lat = rng.uniform(-60.0, 60.0, n)
    dT, dp, h, p, T = _forward(rng, n, Hp)
    rows = list(zip(*(a.tolist() for a in (t, lon, lat, h, p, T))))
    text = OBS_HEADER + "\n" + "".join("{!r},{!r},{!r},{!r},{!r},{!r}\n".format(*r) for r in rows)
    return Observations(text=text, rows=rows, delta_T=dT, delta_p=dp, planted=above)


@dataclass(frozen=True)
class PointCalls:
    """Parameters of the short CLI calls of ``cli_point``."""

    props: tuple[float, float, float]            # hp [m], delta_T, delta_p
    convert: tuple[float, float, float]          # Hp [m], delta_T, delta_p
    identify: tuple[float, float, float]         # h [m], p [Pa], T [K]
    grid_query: tuple[float, float, float, float]  # t [s], lon, lat [deg], hp [m]
    tiny_grid: str                               # grid-file text, 2 x 4 x 3 nodes


def point_calls(seed: int) -> PointCalls:
    rng = _rng(seed, 4)

    def offsets():
        return float(rng.uniform(-25.0, 25.0)), float(rng.uniform(-4000.0, 4000.0))

    props = (float(rng.uniform(-1000.0, 19_000.0)), *offsets())
    convert = (float(rng.uniform(-1000.0, 19_000.0)), *offsets())
    _, _, h, p, T = _forward(rng, 1, rng.uniform(0.0, 3000.0, 1))
    nodes = [
        (t, lon, lat, float(rng.uniform(-20.0, 20.0)), float(rng.uniform(-3000.0, 3000.0)))
        for t in (0.0, 3600.0)
        for lon in (0.0, 90.0, 180.0, 270.0)
        for lat in (-30.0, 0.0, 30.0)
    ]
    tiny = GRID_HEADER + "\n" + "".join(
        "{!r},{!r},{!r},{!r},{!r}\n".format(*node) for node in nodes
    )
    # East of the last longitude node, so the query takes the seam branch.
    grid_query = (
        float(rng.uniform(0.0, 3600.0)),
        float(rng.uniform(275.0, 355.0)),
        float(rng.uniform(-25.0, 25.0)),
        float(rng.uniform(0.0, 12_000.0)),
    )
    return PointCalls(
        props=props,
        convert=convert,
        identify=(float(h[0]), float(p[0]), float(T[0])),
        grid_query=grid_query,
        tiny_grid=tiny,
    )
