"""The package's read-only records: immutability, equality, hashing, repr, pickle and copy."""

import copy
import pickle

import numpy as np
import pytest

from ringpiv import BinaryImage, Displacement, GrayImage, PivConfig, VectorField, tile_windows
from ringpiv.synth import FlowSpec, ParticleField, RenderConfig


def records():
    grid = tile_windows(64, 32, 32)
    return {
        "GrayImage": GrayImage(data=np.arange(6, dtype=np.uint16).reshape(2, 3)),
        "BinaryImage": BinaryImage(bits=np.eye(3, dtype=bool)),
        "PivConfig": PivConfig(window_size=16, pattern_size=8, binarization="global", threshold=500),
        "WindowGrid": grid,
        "VectorField": VectorField(
            grid=grid, vectors=[Displacement(1, -2, 60, 0), Displacement(0, 0, 64, 1)]
        ),
        "FlowSpec": FlowSpec.vortex(center=(5.0, 6.0), strength=0.1),
        "RenderConfig": RenderConfig(width=64, height=32, background=77),
        "ParticleField": ParticleField(positions=[[1.5, 2.0], [30.0, 4.25]], radius=2.5),
    }


NAMES = list(records())


def contents(record):
    """What two equal records hold: the arrays and fields of those compared by identity, or the record."""
    if isinstance(record, GrayImage):
        return record.data.tolist()
    if isinstance(record, BinaryImage):
        return record.bits.tolist()
    if isinstance(record, ParticleField):
        return record.positions.tolist(), record.radius
    return record


@pytest.mark.parametrize("name", NAMES)
def test_attributes_cannot_be_set_or_deleted(name):
    record = records()[name]
    attr = {
        "GrayImage": "data", "BinaryImage": "bits", "VectorField": "vectors",
        "FlowSpec": "kind", "RenderConfig": "width", "ParticleField": "positions",
    }.get(name, "window_size")
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, attr, getattr(record, attr))
    with pytest.raises(AttributeError):
        delattr(record, attr)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


def round_trip(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("clone", [round_trip, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_rebuild_an_equal_record(name, clone):
    record = records()[name]
    twin = clone(record)
    assert type(twin) is type(record)
    assert contents(twin) == contents(record)
    assert repr(twin) == repr(record)


@pytest.mark.parametrize("clone", [round_trip, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_rebuilt_image_is_read_only(clone):
    """And a rebuilt ParticleField: every record that holds an array."""
    r = records()
    for record, attr in [(r["GrayImage"], "data"), (r["BinaryImage"], "bits"), (r["ParticleField"], "positions")]:
        array = getattr(clone(record), attr)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1


def test_records_reduce_to_their_constructor_call():
    """So unpickling runs the constructor's checks again."""
    r = records()
    assert r["GrayImage"].__reduce__() == (GrayImage, (r["GrayImage"].data,))
    assert r["PivConfig"].__reduce__() == (PivConfig, (16, 8, "global", 500))
    assert r["VectorField"].__reduce__() == (VectorField, (r["VectorField"].grid, r["VectorField"].vectors))
    assert r["FlowSpec"].__reduce__() == (FlowSpec, ("vortex", 0.0, 0.0, 0.0, (5.0, 6.0), 0.1))
    assert r["RenderConfig"].__reduce__() == (RenderConfig, (64, 32, 77, 900))
    assert r["ParticleField"].__reduce__() == (ParticleField, (r["ParticleField"].positions, 2.5))


def test_config_compares_and_hashes_by_value():
    assert PivConfig() == PivConfig()
    assert hash(PivConfig()) == hash(PivConfig())
    assert PivConfig() != PivConfig(pattern_size=8)
    assert len({PivConfig(), PivConfig(window_size=np.int64(32))}) == 1
    assert PivConfig() != (32, 16, "adaptive", None)
    assert FlowSpec.uniform(3, 1) == FlowSpec("uniform", 3, 1) != FlowSpec.uniform(3, 2)
    assert len({FlowSpec.shear(0.5), FlowSpec(kind="shear", rate=0.5)}) == 1
    assert len({RenderConfig(), RenderConfig(width=np.int64(320))}) == 1


def test_particle_field_compares_by_identity_and_is_hashable():
    a = records()["ParticleField"]
    b = ParticleField(positions=a.positions, radius=a.radius)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_vector_field_compares_by_value_and_is_unhashable():
    a, b = records()["VectorField"], records()["VectorField"]
    assert a == b and a is not b
    assert a != VectorField(grid=a.grid, vectors=[Displacement(0, 0, 64, 0), Displacement(0, 0, 64, 1)])
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_reprs_name_every_field():
    r = records()
    assert repr(r["PivConfig"]) == (
        "PivConfig(window_size=16, pattern_size=8, binarization='global', threshold=500)"
    )
    assert repr(r["WindowGrid"]) == "WindowGrid(window_size=32, cols=2, rows=1)"
    assert repr(r["VectorField"]) == (
        "VectorField(grid=WindowGrid(window_size=32, cols=2, rows=1), "
        "vectors=[Displacement(dx=1, dy=-2, peak_value=60, window_index=0), "
        "Displacement(dx=0, dy=0, peak_value=64, window_index=1)])"
    )
    assert repr(r["BinaryImage"]).startswith("BinaryImage(bits=array([[ True, False, False],")
    assert repr(r["FlowSpec"]) == (
        "FlowSpec(kind='vortex', dx=0.0, dy=0.0, rate=0.0, center=(5.0, 6.0), strength=0.1)"
    )
    assert repr(r["RenderConfig"]) == (
        "RenderConfig(width=64, height=32, background=77, particle_intensity=900)"
    )
    assert repr(r["ParticleField"]).startswith("ParticleField(positions=array([[ 1.5 ,  2.  ],")
    assert repr(r["ParticleField"]).endswith("]]), radius=2.5)")
