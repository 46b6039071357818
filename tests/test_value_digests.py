"""Golden digests of the values the per-point path returns.

Each digest hashes the ``repr`` of every result at seeded points, or the
error class and message where a point is rejected, so a change to any
printed bit, field name or field order shows up here.  The ``repr`` of a
frozen dataclass and of a NamedTuple with the same fields print alike.
"""

import hashlib
import math
import random
from types import ModuleType

import pytest

import insa
from insa import (
    AtmosphereError,
    ConstantField,
    GeodeticPosition,
    GridField,
    Observation,
    OffsetGrid3D,
    Offsets,
    QuasiStaticModel,
    Waypoint,
    WaypointField,
    anchors,
    geodetic_to_geopotential,
    identify_offsets,
    pressure_from_hp,
    state_at_geopotential,
)

TWO_PI = 2.0 * math.pi

DIGESTS = {
    "constant": "91c279b6e3ace4eae154dcf53d6492f364f75ea9bc4310852e1778767aada81c",
    "waypoint": "6cdca6db38026742722ca907cb9658a1a903b7ffbab19e2f34cbba142012b520",
    "grid": "fdb5b17a1717c215b046ee35730a10437eeb96df24962b8410611a9c0a3ee10b",
    "anchors": "fc5f257b374c9340c0f69cd64f64cbd5416c15036b535bcda32eafabe22507fc",
    "identify": "1ffee2ea690fca33999198df88c5a1ee62aa10e2db7787c00db74ad46445c27b",
    "public_names": "ae6429a4bde7775baec65978f237467acf53f6d2a8c015a5c163104378b5099d",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except AtmosphereError as err:
        return f"{type(err).__name__}: {err}"


def _grid_field():
    rng = random.Random(91)
    t_axis, lon_axis, lat_axis = (0.0, 1800.0, 3600.0), (0.0, 1.5, 3.0, 4.5, 6.0), (-0.6, 0.0, 0.6)
    dT = [[[rng.uniform(-20.0, 20.0) for _ in lat_axis] for _ in lon_axis] for _ in t_axis]
    dp = [[[rng.uniform(-3000.0, 3000.0) for _ in lat_axis] for _ in lon_axis] for _ in t_axis]
    return GridField(OffsetGrid3D(t_axis, lon_axis, lat_axis, dT, dp))


FIELDS = {
    "constant": lambda: ConstantField(Offsets(12.5, -1800.0)),
    "waypoint": lambda: WaypointField((
        Waypoint(0.0, 0.3, -0.2, Offsets(-15.0, 900.0)),
        Waypoint(1800.0, 1.2, 0.1, Offsets(8.0, -2500.0)),
        Waypoint(3600.0, 2.0, 0.4, Offsets(18.0, 1200.0)),
    )),
    "grid": _grid_field,
}

# Longitudes on and around the 2*pi seam, including one that wraps from below.
SEAM_LONS = (0.0, 6.0, 6.1, 6.2831853, TWO_PI - 1e-12, -0.05, TWO_PI + 0.05)


def _points(seed, n=240):
    rng = random.Random(seed)
    points = [
        (rng.uniform(0.0, 3599.0), rng.uniform(0.0, TWO_PI), rng.uniform(-0.6, 0.6),
         rng.uniform(-1500.0, 19000.0), rng.uniform(-25.0, 25.0))
        for _ in range(n)
    ]
    # Both layers at the seam.
    points += [
        (900.0 + 100.0 * i, lon, 0.3, h, 5.0)
        for i, lon in enumerate(SEAM_LONS) for h in (3000.0, 14000.0)
    ]
    return points


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_query_and_rates_digest(field_name):
    model = QuasiStaticModel(FIELDS[field_name]())
    lines = []
    for i, (t, lon, lat, h, h_dot) in enumerate(_points(7)):
        pos = GeodeticPosition(lon, lat, h)
        if i % 2:  # the rates first: a memo miss, then a query
            lines.append(_outcome(model.property_rates, t, pos, h_dot))
            lines.append(_outcome(model.query, t, pos))
        else:  # a query, then the rates from the remembered state
            lines.append(_outcome(model.query, t, pos))
            lines.append(_outcome(model.property_rates, t, pos, h_dot))
    assert _digest(lines) == DIGESTS[field_name]


def test_anchors_digest():
    rng = random.Random(13)
    lines = [
        _outcome(anchors, Offsets(rng.uniform(-50.0, 50.0), rng.uniform(-15000.0, 15000.0)))
        for _ in range(500)
    ]
    lines += [_outcome(anchors, o) for o in (Offsets(0.0, 0.0), Offsets(-50.0, 15000.0))]
    assert _digest(lines) == DIGESTS["anchors"]


def test_identify_offsets_digest():
    rng = random.Random(29)
    observations = []
    for _ in range(400):  # forward-modelled stations, then identified
        h = rng.uniform(-400.0, 3000.0)
        o = Offsets(rng.uniform(-50.0, 50.0), rng.uniform(-15000.0, 15000.0))
        state = state_at_geopotential(geodetic_to_geopotential(h), o)
        observations.append((h, state.p, state.T))
    for _ in range(100):  # pressure and temperature drawn apart: mostly rejected
        hp = rng.uniform(-2500.0, 11500.0)
        h, p = rng.uniform(-400.0, 3000.0), pressure_from_hp(max(hp, -2000.0))
        observations.append((h, p, 288.15 - 6.5e-3 * hp + rng.uniform(-55.0, 55.0)))
    lines = [
        _outcome(identify_offsets, Observation(100.0 * i, 0.1 * i, 0.5, h, p, T))
        for i, (h, p, T) in enumerate(observations)
    ]
    assert _digest(lines) == DIGESTS["identify"]


def test_public_names_digest():
    # insa.__all__ is derived from the package's imports, so a helper
    # imported there by mistake would show up in the count and the digest.
    assert len(insa.__all__) == 51
    assert _digest(insa.__all__) == DIGESTS["public_names"]
    namespace = {}
    exec("from insa import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == insa.__all__
    submodules = [m for m in vars(insa).values() if isinstance(m, ModuleType)]
    for name, value in namespace.items():
        assert any(vars(m).get(name) is value for m in submodules), name
