"""Value semantics of the scalar API's classes.

``AngleTriple``, ``QualityValue``, ``GrowthFactor`` and ``TrianglePoints``
are frozen dataclasses: equality and hashing over their fields, ``repr``,
pickling and copying, field introspection, and ``dataclasses.replace``,
which builds a new value through the constructor and so repairs an
angle sum again.

The values that hold numpy arrays (``MeshModel``, ``QualityReport``,
``SimpleMeshAngles``, ``SimpleMeshGeometry``, ``MeshQuality``) hold them
read-only as the library builds them, and after a copy or unpickling.
"""

import copy
import dataclasses
import math
import pickle
import weakref

import numpy as np
import pytest

from trismooth import (
    AngleTriple,
    GrowthFactor,
    MeshModel,
    MeshQuality,
    Point2,
    QualityReport,
    QualityValue,
    SimpleMeshAngles,
    SimpleMeshGeometry,
    TrianglePoints,
    analyze,
    iterate_mesh,
    load_mesh,
    mesh_quality,
    optimal_mesh,
    random_mesh,
    reconstruct_geometry,
    transform_mesh,
)
from trismooth.simple_mesh import mesh_steps

PI = math.pi


def tri_of(*coords):
    return TrianglePoints(*(Point2(x, y) for x, y in coords))


def samples():
    return [
        # sums of exactly pi, which the repair leaves as they are
        (AngleTriple(PI / 2, PI / 4, PI / 4), AngleTriple(PI / 4, PI / 2, PI / 4)),
        (QualityValue(0.5), QualityValue(0.25)),
        (GrowthFactor(8.0), GrowthFactor(9.5)),
        (tri_of((0, 0), (1, 0), (0, 1)), tri_of((0, 0), (2, 0), (0, 1))),
    ]


FIELDS = {
    AngleTriple: ("alpha", "beta", "gamma"),
    QualityValue: ("q",),
    GrowthFactor: ("f",),
    TrianglePoints: ("a_vertex", "b_vertex", "c_vertex"),
}


def field_values(v):
    return tuple(getattr(v, name) for name in FIELDS[type(v)])


@pytest.mark.parametrize("pair", samples(), ids=lambda p: type(p[0]).__name__)
def test_equality_and_hash_follow_the_fields(pair):
    one, other = pair
    again = type(one)(*field_values(one))
    assert one == again and hash(one) == hash(again)
    assert hash(one) == hash(field_values(one))
    assert one != other
    assert one != field_values(one)
    assert len({one, again, other}) == 2


@pytest.mark.parametrize("pair", samples(), ids=lambda p: type(p[0]).__name__)
def test_fields_and_keywords(pair):
    one = pair[0]
    names = FIELDS[type(one)]
    assert tuple(f.name for f in dataclasses.fields(one)) == names
    assert type(one).__match_args__ == names
    assert type(one)(**dict(zip(names, field_values(one)))) == one


@pytest.mark.parametrize("pair", samples(), ids=lambda p: type(p[0]).__name__)
def test_repr_names_every_field(pair):
    one = pair[0]
    inner = ", ".join(f"{n}={v!r}" for n, v in zip(FIELDS[type(one)], field_values(one)))
    assert repr(one) == f"{type(one).__name__}({inner})"


@pytest.mark.parametrize("pair", samples(), ids=lambda p: type(p[0]).__name__)
def test_pickle_and_copies_keep_the_value(pair):
    one = pair[0]
    for twin in (
        pickle.loads(pickle.dumps(one)),
        pickle.loads(pickle.dumps(one, protocol=0)),
        copy.copy(one),
        copy.deepcopy(one),
    ):
        assert type(twin) is type(one) and twin == one and hash(twin) == hash(one)
        assert all(a is b or a == b for a, b in zip(field_values(twin), field_values(one)))


@pytest.mark.parametrize("pair", samples(), ids=lambda p: type(p[0]).__name__)
def test_assignment_raises(pair):
    one = pair[0]
    for name in FIELDS[type(one)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(one, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(one, name)
    assert one == type(one)(*field_values(one))


def test_quality_value_orders_by_q():
    lo, mid, hi = QualityValue(0.25), QualityValue(0.5), QualityValue(1.0)
    assert lo < mid < hi and hi > mid >= lo and lo <= QualityValue(0.25)
    assert sorted([hi, lo, mid]) == [lo, mid, hi]
    assert max([lo, hi, mid]) is hi
    with pytest.raises(TypeError):
        lo < 0.5


def test_replace_repairs_the_sum_again():
    t = AngleTriple(PI / 2, PI / 4, PI / 4)
    off = dataclasses.replace(t, alpha=PI / 2 + 5e-10)
    assert off == AngleTriple(PI / 2 + 5e-10, PI / 4, PI / 4)
    assert off.alpha != PI / 2 + 5e-10 and off.beta != PI / 4
    assert math.isclose(off.alpha + off.beta + off.gamma, PI, rel_tol=0, abs_tol=4e-16)
    with pytest.raises(ValueError, match="must sum to pi"):
        dataclasses.replace(t, gamma=PI)
    with pytest.raises(TypeError):
        dataclasses.replace(t, delta=0.0)


def test_replace_on_the_other_classes():
    assert dataclasses.replace(QualityValue(0.5), q=0.75) == QualityValue(0.75)
    assert dataclasses.replace(GrowthFactor(8.0), f=9.0) == GrowthFactor(9.0)
    tri = tri_of((0, 0), (1, 0), (0, 1))
    moved = dataclasses.replace(tri, c_vertex=Point2(0, 2))
    assert moved == tri_of((0, 0), (1, 0), (0, 2)) and moved.area() == 1.0


def test_constructor_arity():
    with pytest.raises(TypeError):
        AngleTriple(PI / 2, PI / 2)
    with pytest.raises(TypeError):
        AngleTriple(PI / 3, PI / 3, PI / 3, 0.0)
    with pytest.raises(TypeError):
        AngleTriple(PI / 3, PI / 3, PI / 3, alpha=PI / 3)


@pytest.mark.parametrize("pair", samples(), ids=lambda p: type(p[0]).__name__)
def test_value_classes_are_slotted(pair):
    # no per-instance __dict__, and so no weak references either
    one = pair[0]
    assert type(one).__slots__ == FIELDS[type(one)]
    assert not hasattr(one, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(one)


#: ``[QualityValue(0.5), GrowthFactor(8.0), TrianglePoints((0, 0), (1, 0), (0, 1))]``
#: as pickled (protocols 0 and 2) before these three classes had slots, when
#: each instance's state was its ``__dict__``.
DICT_STATE_PICKLES = [
    b"(lp0\nccopy_reg\n_reconstructor\np1\n(ctrismooth.angle_dynamics\nQualityValue\np2\n"
    b"c__builtin__\nobject\np3\nNtp4\nRp5\n(dp6\nVq\np7\nF0.5\nsbag1\n"
    b"(ctrismooth.plane_geometry\nGrowthFactor\np8\ng3\nNtp9\nRp10\n(dp11\nVf\np12\nF8.0\nsbag1\n"
    b"(ctrismooth.plane_geometry\nTrianglePoints\np13\ng3\nNtp14\nRp15\n(dp16\nVa_vertex\np17\ng1\n"
    b"(ctrismooth.plane_geometry\nPoint2\np18\ng3\nNtp19\nRp20\n(lp21\nF0.0\naF0.0\nabsVb_vertex\n"
    b"p22\ng1\n(g18\ng3\nNtp23\nRp24\n(lp25\nF1.0\naF0.0\nabsVc_vertex\np26\ng1\n(g18\ng3\nNtp27\n"
    b"Rp28\n(lp29\nF0.0\naF1.0\nabsba.",
    b"\x80\x02]q\x00(ctrismooth.angle_dynamics\nQualityValue\nq\x01)\x81q\x02}q\x03X\x01\x00\x00"
    b"\x00qq\x04G?\xe0\x00\x00\x00\x00\x00\x00sbctrismooth.plane_geometry\nGrowthFactor\nq\x05)"
    b"\x81q\x06}q\x07X\x01\x00\x00\x00fq\x08G@ \x00\x00\x00\x00\x00\x00sb"
    b"ctrismooth.plane_geometry\nTrianglePoints\nq\t)\x81q\n}q\x0b(X\x08\x00\x00\x00a_vertexq\x0c"
    b"ctrismooth.plane_geometry\nPoint2\nq\r)\x81q\x0e]q\x0f(G\x00\x00\x00\x00\x00\x00\x00\x00G"
    b"\x00\x00\x00\x00\x00\x00\x00\x00ebX\x08\x00\x00\x00b_vertexq\x10h\r)\x81q\x11]q\x12(G?\xf0"
    b"\x00\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00ebX\x08\x00\x00\x00c_vertexq\x13h"
    b"\r)\x81q\x14]q\x15(G\x00\x00\x00\x00\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00ebube.",
]


@pytest.mark.parametrize("data", DICT_STATE_PICKLES, ids=["protocol0", "protocol2"])
def test_pickles_from_before_the_slots_load(data):
    expected = [QualityValue(0.5), GrowthFactor(8.0), tri_of((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    loaded = pickle.loads(data)
    assert loaded == expected
    assert [type(v) for v in loaded] == [type(v) for v in expected]


@pytest.mark.parametrize(
    "value",
    [s[0] for s in samples() if not isinstance(s[0], AngleTriple)],
    ids=lambda v: type(v).__name__,
)
def test_dict_state_restores_the_value(value):
    # the state a pickle from before the slots holds: the old __dict__, whose
    # keys need not come in field order
    names = FIELDS[type(value)]
    restored = object.__new__(type(value))
    restored.__setstate__({name: getattr(value, name) for name in reversed(names)})
    assert restored == value and hash(restored) == hash(value)
    assert all(getattr(restored, name) is getattr(value, name) for name in names)



#: The numpy arrays each value holds.
ARRAYS = {
    MeshModel: {"xy", "faces", "angles"},
    QualityReport: {"raw", "angles", "q", "predicted"},
    SimpleMeshAngles: {"angles", "_residuals"},
    SimpleMeshGeometry: {"xy", "_areas"},
    MeshQuality: {"ratios"},
}


def array_values(tmp_path):
    """Each value that holds arrays, built the way a caller gets it."""
    path = tmp_path / "m.off"
    path.write_text("OFF\n5 3 0\n0 0\n1 0\n0 1\n1 1\n2 2\n3 0 1 2\n3 1 3 2\n3 0 3 4\n")
    mesh = load_mesh(path)  # its last face is collinear and dropped
    fan = random_mesh(7, 3)
    ring = [Point2(1, 0), Point2(0, 1), Point2(-1, -1)]
    return {
        "load_mesh": mesh,
        "MeshModel": MeshModel([Point2(0, 0), Point2(1, 0), Point2(0, 1)], [(0, 1, 2)]),
        "reconstruct_geometry": reconstruct_geometry(fan, 1.0)[0],
        "SimpleMeshGeometry": SimpleMeshGeometry(Point2(0, 0), ring),
        "SimpleMeshAngles": SimpleMeshAngles(*optimal_mesh(5).angles.tolist()),
        "optimal_mesh": optimal_mesh(6),
        "random_mesh": fan,
        "transform_mesh": transform_mesh(fan),
        "iterate_mesh": iterate_mesh(fan, 3),
        "mesh_steps": mesh_steps(fan, 5)[1],
        "mesh_steps_past_repeat": mesh_steps(random_mesh(5, 3), 70)[1],
        "analyze": analyze(mesh, (1, 0)),
        "mesh_quality": mesh_quality(fan),
    }


def assert_arrays_read_only(value, how):
    arrays = {name: v for name, v in vars(value).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == ARRAYS[type(value)], how
    for name, array in arrays.items():
        assert not array.flags.writeable, (how, name)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 5.0


def test_every_array_a_value_holds_is_read_only(tmp_path):
    values = array_values(tmp_path)
    assert len(values["load_mesh"].dropped) == 1
    for how, value in values.items():
        assert_arrays_read_only(value, how)
        repr(value)  # builds the lazy views of MeshModel and SimpleMeshGeometry
        assert_arrays_read_only(value, how)
    report = values["analyze"]
    with pytest.raises(ValueError, match="read-only"):
        report.q[0] = 5.0
    assert report.q.max() == report.summary.q_max < 5.0


def test_copies_and_unpickled_values_hold_read_only_arrays(tmp_path):
    for how, value in array_values(tmp_path).items():
        for twin in (
            pickle.loads(pickle.dumps(value)),
            pickle.loads(pickle.dumps(value, protocol=0)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(twin) is type(value), how
            assert_arrays_read_only(twin, how)
            for name in ARRAYS[type(value)]:
                assert np.array_equal(getattr(twin, name), getattr(value, name)), (how, name)
