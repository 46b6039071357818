"""Value semantics of the checking types, the fields and the model.

``OffsetBounds``, ``GeodeticPosition``, ``QuasiStaticModel``,
``FigureSeries``, ``FigureTable``, ``ConstantField``, ``Waypoint``,
``WaypointField``, ``OffsetGrid3D`` and ``GridField`` are immutable: they
print as ``Type(name=value, ...)``, refuse assignment and deletion, keep
no instance ``__dict__``, and survive ``pickle`` and ``copy.deepcopy``.  The grid types compare and hash
by identity; the others by type and field values.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from insa import (
    ConstantField,
    FigureSeries,
    FigureTable,
    GeodeticPosition,
    GridField,
    OffsetBounds,
    OffsetField,
    OffsetGrid3D,
    Offsets,
    QuasiStaticModel,
    Waypoint,
    WaypointField,
)

OFFSETS = Offsets(15.0, 2000.0)


def _waypoints():
    return (
        Waypoint(0.0, 0.1, 0.2, Offsets(-5.0, 250.0)),
        Waypoint(3600.0, 0.3, 0.4, Offsets(5.0, -250.0)),
    )


def _grid():
    return OffsetGrid3D(
        (0.0, 3600.0), (0.0, 3.0), (-0.5, 0.5),
        np.arange(8.0).reshape(2, 2, 2), np.full((2, 2, 2), 250.0),
    )


_GRID_REPR = (
    "OffsetGrid3D(t_axis=(0.0, 3600.0), lon_axis=(0.0, 3.0), lat_axis=(-0.5, 0.5),"
    " delta_T=[[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, 7.0]]],"
    " delta_p=[[[250.0, 250.0], [250.0, 250.0]], [[250.0, 250.0], [250.0, 250.0]]])"
)

# Each type: a function that builds one value, the repr it must keep, and a field.
CASES = {
    "OffsetBounds": (
        lambda: OffsetBounds(-40.0, 40.0, -10000.0, 12000.0),
        "OffsetBounds(delta_T_min=-40.0, delta_T_max=40.0, delta_p_min=-10000.0,"
        " delta_p_max=12000.0)",
        "delta_p_max",
    ),
    "GeodeticPosition": (
        lambda: GeodeticPosition(-0.5, 0.5, 1000.0),
        "GeodeticPosition(lon=5.783185307179586, lat=0.5, h=1000.0)",
        "lon",
    ),
    "QuasiStaticModel": (
        lambda: QuasiStaticModel(ConstantField(OFFSETS)),
        "QuasiStaticModel(field=ConstantField(offsets=Offsets(delta_T=15.0, delta_p=2000.0)),"
        " bounds=OffsetBounds(delta_T_min=-50.0, delta_T_max=50.0, delta_p_min=-15000.0,"
        " delta_p_max=15000.0))",
        "field",
    ),
    "FigureSeries": (
        lambda: FigureSeries("T_isa_K", (288.15, 287.5), None),
        "FigureSeries(name='T_isa_K', values=(288.15, 287.5), offsets=None)",
        "values",
    ),
    "FigureTable": (
        lambda: FigureTable(
            "Tisa", (0.0, 0.1), (FigureSeries("x", (1.0, 2.0), Offsets(-20.0, 0.0)),)
        ),
        "FigureTable(figure_id='Tisa', abscissa_km=(0.0, 0.1), series=(FigureSeries(name='x',"
        " values=(1.0, 2.0), offsets=Offsets(delta_T=-20.0, delta_p=0.0)),))",
        "series",
    ),
    "ConstantField": (
        lambda: ConstantField(OFFSETS),
        "ConstantField(offsets=Offsets(delta_T=15.0, delta_p=2000.0))",
        "offsets",
    ),
    "Waypoint": (
        lambda: _waypoints()[0],
        "Waypoint(t=0.0, lon=0.1, lat=0.2, offsets=Offsets(delta_T=-5.0, delta_p=250.0))",
        "t",
    ),
    "WaypointField": (
        lambda: WaypointField(_waypoints()),
        "WaypointField(waypoints=(Waypoint(t=0.0, lon=0.1, lat=0.2,"
        " offsets=Offsets(delta_T=-5.0, delta_p=250.0)), Waypoint(t=3600.0, lon=0.3,"
        " lat=0.4, offsets=Offsets(delta_T=5.0, delta_p=-250.0))))",
        "waypoints",
    ),
    "OffsetGrid3D": (_grid, _GRID_REPR, "delta_T"),
    "GridField": (lambda: GridField(_grid()), f"GridField(grid={_GRID_REPR})", "grid"),
}
NAMES = sorted(CASES)
BY_IDENTITY = {"OffsetGrid3D", "GridField"}
BY_VALUE = sorted(set(NAMES) - BY_IDENTITY)


def _same(a, b):
    """Equal by value, or for the grid types the same repr (axes and values)."""
    assert type(a) is type(b)
    assert repr(a) == repr(b)
    if type(a).__name__ not in BY_IDENTITY:
        assert a == b


@pytest.mark.parametrize("name", NAMES)
def test_repr_unchanged(name):
    build, text, _ = CASES[name]
    value = build()
    assert repr(value) == text
    assert str(value) == text


@pytest.mark.parametrize("name", BY_VALUE)
def test_equal_builds_equal_and_hash_alike(name):
    build, _, _ = CASES[name]
    value, twin = build(), build()
    assert twin == value and twin is not value
    assert not twin != value
    assert hash(twin) == hash(value)
    assert value != object()


@pytest.mark.parametrize("name", sorted(BY_IDENTITY))
def test_grid_types_compare_by_identity(name):
    build, _, _ = CASES[name]
    value, twin = build(), build()
    assert value == value and twin != value
    assert hash(value) == object.__hash__(value)
    assert len({value, twin}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_attributes_cannot_be_set_or_deleted(name):
    build, _, field = CASES[name]
    value = build()
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0.0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0.0
    assert repr(value) == before


@pytest.mark.parametrize("name", NAMES)
def test_no_instance_dict(name):
    build, _, _ = CASES[name]
    value = build()
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        vars(value)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    build, _, _ = CASES[name]
    value = build()
    _same(pickle.loads(pickle.dumps(value)), value)


@pytest.mark.parametrize("name", NAMES)
def test_deepcopy_round_trip(name):
    build, _, _ = CASES[name]
    value = build()
    twin = copy.deepcopy(value)
    assert twin is not value
    _same(twin, value)


def test_copies_still_work():
    pos = GeodeticPosition(0.3, 0.5, 1000.0)
    model = QuasiStaticModel(GridField(_grid()))
    model.query(1800.0, pos)  # warms the model's memo and the field's cell
    for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert twin.query(1800.0, pos) == model.query(1800.0, pos)
        assert twin.property_rates(900.0, pos, 5.0) == model.property_rates(900.0, pos, 5.0)
    field = WaypointField(_waypoints())
    twin = pickle.loads(pickle.dumps(field))
    assert twin.evaluate(1800.0, 0.0, 0.0) == field.evaluate(1800.0, 0.0, 0.0)


class _Scaled(OffsetField):
    """A user field with no ``__slots__`` that keeps its own attributes."""

    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor
        self.calls = 0

    def evaluate(self, t, lon, lat):
        self.calls += 1
        o = self.inner.evaluate(t, lon, lat)
        return Offsets(o.delta_T * self.factor, o.delta_p * self.factor)


def test_user_field_sets_attributes_and_serves_a_model():
    field = _Scaled(ConstantField(Offsets(10.0, 1000.0)), 0.5)
    field.label = "half"
    assert vars(field)["label"] == "half"
    model = QuasiStaticModel(field)
    pos = GeodeticPosition(0.0, 0.0, 0.0)
    expected = QuasiStaticModel(ConstantField(Offsets(5.0, 500.0))).query(0.0, pos)
    assert model.query(0.0, pos) == expected
    assert field.calls == 1
    assert math.isfinite(model.property_rates(0.0, pos, 3.0).dp_dt)
    twin = pickle.loads(pickle.dumps(model))
    assert twin.query(0.0, pos) == expected and twin.field.label == "half"

