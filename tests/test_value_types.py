"""Value semantics of the value types: immutable, picklable tuples.

``Offsets``, ``AtmosphericState``, ``PropertyRates``,
``AtmosphereAnchors``, ``Observation`` and ``IdentificationRecord`` are
NamedTuples: they print as they did as frozen dataclasses, and compare and
hash as the plain tuple of their fields.  ``Observation`` still checks its
fields, on ``_make`` and ``_replace`` too (see ``test_identification.py``).
The package builds its per-point results with ``tuple.__new__``, so they must
be the very values the constructors build.
"""

import pickle

import pytest

from insa import (
    AtmosphereAnchors,
    AtmosphericState,
    ConstantField,
    GeodeticPosition,
    GridField,
    IdentificationRecord,
    NotInTroposphere,
    Observation,
    OffsetGrid3D,
    Offsets,
    PropertyRates,
    QuasiStaticModel,
    VerticalGradients,
    Waypoint,
    WaypointField,
    anchors,
    identify_offsets,
    identify_offsets_batch,
    state_at_geopotential,
    state_at_pressure_altitude,
    vertical_gradients,
)

OFFSETS = Offsets(1.5, -250.0)
STATE = AtmosphericState(1000.0, 1001.5, 89876.25, 283.5, 281.65, 1.104)
RATES = PropertyRates(-60.0, -0.039, -0.0058)
ANCHORS = AtmosphereAnchors(OFFSETS, 21.0, 288.0, 101075.0, 11030.0, 218.15, -1981.0, 20000.5)
OBSERVATION = Observation(900.0, 0.5, 0.7, 350.0, 98000.0, 290.0)
RECORD = IdentificationRecord(900.0, 0.5, 0.7, OFFSETS)

# Each value, the repr it must keep, and one field to replace.
CASES = {
    "Offsets": (
        OFFSETS,
        "Offsets(delta_T=1.5, delta_p=-250.0)",
        "delta_p",
    ),
    "AtmosphericState": (
        STATE,
        "AtmosphericState(Hp=1000.0, H=1001.5, p=89876.25, T=283.5, T_isa=281.65,"
        " rho=1.104)",
        "rho",
    ),
    "PropertyRates": (
        RATES,
        "PropertyRates(dp_dt=-60.0, dT_dt=-0.039, drho_dt=-0.0058)",
        "dT_dt",
    ),
    "AtmosphereAnchors": (
        ANCHORS,
        "AtmosphereAnchors(offsets=Offsets(delta_T=1.5, delta_p=-250.0), Hp_msl=21.0,"
        " T_isa_msl=288.0, p_msl=101075.0, H_trop=11030.0, T_trop=218.15, H_min=-1981.0,"
        " H_max=20000.5)",
        "H_max",
    ),
    "Observation": (
        OBSERVATION,
        "Observation(t=900.0, lon=0.5, lat=0.7, h=350.0, p=98000.0, T=290.0)",
        "T",
    ),
    "IdentificationRecord": (
        RECORD,
        "IdentificationRecord(t=900.0, lon=0.5, lat=0.7,"
        " offsets=Offsets(delta_T=1.5, delta_p=-250.0), error=None)",
        "t",
    ),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_unchanged(name):
    value, text, _ = CASES[name]
    assert repr(value) == text
    assert str(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_attributes_cannot_be_set(name):
    value, _, field = CASES[name]
    with pytest.raises(AttributeError):
        setattr(value, field, 0.0)
    with pytest.raises(AttributeError):
        value.extra = 0.0


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    value, _, _ = CASES[name]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value
    assert repr(copy) == repr(value)


@pytest.mark.parametrize("name", NAMES)
def test_replace_changes_one_field(name):
    value, _, field = CASES[name]
    changed = value._replace(**{field: 7.25})
    assert getattr(changed, field) == 7.25
    assert type(changed) is type(value)
    assert changed._replace(**{field: getattr(value, field)}) == value
    assert changed._asdict() == {**value._asdict(), field: 7.25}


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_equal_values_and_hashes(name):
    value, _, _ = CASES[name]
    twin = type(value)(*value)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert twin._replace(**{value._fields[-1]: 7.25}) != value


def test_field_names_and_order():
    assert Offsets._fields == ("delta_T", "delta_p")
    assert AtmosphericState._fields == ("Hp", "H", "p", "T", "T_isa", "rho")
    assert PropertyRates._fields == ("dp_dt", "dT_dt", "drho_dt")
    assert AtmosphereAnchors._fields == (
        "offsets", "Hp_msl", "T_isa_msl", "p_msl", "H_trop", "T_trop", "H_min", "H_max",
    )
    assert Observation._fields == ("t", "lon", "lat", "h", "p", "T")
    assert IdentificationRecord._fields == ("t", "lon", "lat", "offsets", "error")
    assert IdentificationRecord._field_defaults == {"offsets": None, "error": None}


def test_tuple_semantics():
    assert Offsets(1.0, 2.0) == (1.0, 2.0)
    assert hash(Offsets(1.0, 2.0)) == hash((1.0, 2.0))
    delta_T, delta_p = OFFSETS
    assert (delta_T, delta_p) == (OFFSETS.delta_T, OFFSETS.delta_p) == (OFFSETS[0], OFFSETS[1])
    assert len(STATE) == 6 and list(STATE)[-1] == STATE.rho
    assert Offsets(1.0, 2.0) < Offsets(1.0, 3.0)
    assert OBSERVATION == (900.0, 0.5, 0.7, 350.0, 98000.0, 290.0)
    assert hash(OBSERVATION) == hash(tuple(OBSERVATION))
    t, lon, lat, offsets, error = RECORD
    assert (t, lon, lat, offsets, error) == (900.0, 0.5, 0.7, OFFSETS, None)
    # Distinct types with equal values compare equal, as tuples do.
    assert PropertyRates(1.0, 2.0, 3.0) == VerticalGradients(1.0, 2.0, 3.0)


def test_anchors_cache_keyed_by_value():
    anchors.cache_clear()
    first = anchors(Offsets(3.0, 1200.0))
    again = anchors(Offsets(3.0, 1200.0))
    assert again is first
    info = anchors.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_anchors_cache_keyed_by_type():
    # An equal plain tuple misses the cached Offsets entry and is checked,
    # which it fails for want of named fields.
    anchors(Offsets(15.0, 2000.0))
    with pytest.raises(TypeError, match=r"^offsets must be an Offsets, got \(15\.0, 2000\.0\)$"):
        anchors((15.0, 2000.0))


BUILT_BY_TUPLE_NEW = (
    Offsets, AtmosphericState, AtmosphereAnchors, PropertyRates, VerticalGradients,
    IdentificationRecord,
)


# Inputs of the per-point paths, built here through the constructors.
GRID = OffsetGrid3D((0.0, 3600.0), (0.25, 0.5), (0.5, 0.75),
                    [[[5.0, 6.0], [7.0, 8.0]]] * 2, [[[250.0, 300.0], [350.0, 400.0]]] * 2)
WAYPOINTS = WaypointField([Waypoint(0.0, 0.3, 0.6, Offsets(-4.0, 900.0)),
                           Waypoint(3600.0, 0.4, 0.7, Offsets(6.0, -300.0))])
CONSTANT = ConstantField(Offsets(15.0, 2000.0))
HERE, THERE = GeodeticPosition(0.375, 0.625, 3000.0), GeodeticPosition(0.3, 0.7, 9500.0)
TROPOSPHERIC = Observation(900.0, 0.5, 0.7, 350.0, 98000.0, 290.0)
STRATOSPHERIC = Observation(950.0, 0.5, 0.7, 350.0, 15000.0, 220.0)
COLUMN = Offsets(4.5, -750.0)


def _hot_path_results():
    """(label, value) for every per-point path that returns one of those types."""
    grid = GridField(GRID)  # a fresh cell memo
    anchors.cache_clear()  # so that anchors() builds, not finds
    yield "anchors", anchors(COLUMN)
    yield "state_at_geopotential", state_at_geopotential(5000.0, COLUMN)
    yield "state_at_pressure_altitude", state_at_pressure_altitude(12500.0, COLUMN)
    yield "vertical_gradients", vertical_gradients(800.0, COLUMN)
    yield "grid miss", grid.evaluate(1800.0, 0.375, 0.625)
    yield "grid hit", grid.evaluate(1900.0, 0.4, 0.6)
    yield "waypoints", WAYPOINTS.evaluate(1200.0, 0.35, 0.65)
    for name, field in (("constant", CONSTANT), ("waypoint", WAYPOINTS), ("grid", grid)):
        model = QuasiStaticModel(field)
        # property_rates solves its own point first, then reuses the query's state.
        yield f"{name} property_rates", model.property_rates(600.0, THERE, -7.5)
        yield f"{name} query", model.query(1800.0, HERE)
        yield f"{name} property_rates at the query", model.property_rates(1800.0, HERE, 12.0)
        yield f"{name} anchors", model._memo[2]
    yield "identify_offsets", identify_offsets(TROPOSPHERIC)
    ok, error = identify_offsets_batch([TROPOSPHERIC, STRATOSPHERIC])
    assert ok.error is None and isinstance(error.error, NotInTroposphere)
    yield "ok record", ok
    yield "error record", error


def _check_constructor_twin(label, value):
    cls = type(value)
    assert cls in BUILT_BY_TUPLE_NEW, label
    assert len(value) == len(cls._fields), label  # a field added without its build site
    twin = cls(*value)
    assert value == twin and repr(value) == repr(twin) and hash(value) == hash(twin), label
    assert pickle.dumps(value) == pickle.dumps(twin), label
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and repr(copy) == repr(value), label
    for field in value:
        if type(field) in BUILT_BY_TUPLE_NEW:
            _check_constructor_twin(f"{label}: {type(field).__name__}", field)


def test_hot_paths_never_enter_a_generated_new(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__}.__new__ called on a per-point path")

    for cls in BUILT_BY_TUPLE_NEW:
        monkeypatch.setattr(cls, "__new__", refuse)
    results = list(_hot_path_results())
    monkeypatch.undo()  # the twins below, and unpickling, go through __new__
    assert {type(value) for _, value in results} == set(BUILT_BY_TUPLE_NEW)
    for label, value in results:
        _check_constructor_twin(label, value)
