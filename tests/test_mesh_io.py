"""Tests for mesh file parsing, analysis reports, and SVG rendering."""

import csv
import json
import math
import random
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from trismooth import (
    AngleTriple,
    ColorMap,
    MeshFormatError,
    MeshModel,
    Point2,
    TrianglePoints,
    _text,
    analyze,
    angles_of,
    cli,
    iterate,
    load_mesh,
    mesh_io,
    plane_geometry,
    predict_quality,
    quality,
    render_svg,
    save_off,
)

from conftest import check_output_writer

PI = math.pi
SQRT3 = math.sqrt(3)

MINIMAL_OFF = """OFF
3 1 0
0 0
1 0
0 1
3 0 1 2
"""

# one 90-60-30 triangle and one equilateral, disjoint vertex sets
TWO_TRIANGLE_OFF = f"""OFF
# a comment line

6 2 0
0 0
1 0
0 {SQRT3!r}
2 0
3 0
2.5 {SQRT3 / 2!r}
3 0 1 2
3 3 4 5
"""

OBJ_WITH_SLASHES = """# wavefront subset
o thing
v 0 0 0
v 1 0 0
v 0 1 0
vn 0 0 1
s off
f 1/1/1 2/2/1 3/3/1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def jittered_grid_off(cells, seed):
    """OFF text of a unit-square grid, interior vertices jittered by up to
    0.2 cells per axis, each cell split into two triangles."""
    rng = np.random.default_rng(seed)
    n = cells + 1
    iy, ix = np.divmod(np.arange(n * n), n)
    xy = np.column_stack([ix, iy]).astype(float)
    inner = (ix > 0) & (ix < cells) & (iy > 0) & (iy < cells)
    xy[inner] += rng.uniform(-0.2, 0.2, size=(inner.sum(), 2))
    xy /= cells
    faces = []
    for r in range(cells):
        for c in range(cells):
            a = r * n + c
            faces += [(a, a + 1, a + n + 1), (a, a + n + 1, a + n)]
    lines = [f"OFF\n{n * n} {len(faces)} 0"]
    lines += [f"{x!r} {y!r}" for x, y in xy.tolist()]
    lines += [f"3 {i} {j} {k}" for i, j, k in faces]
    return "\n".join(lines) + "\n"


# --- loading -------------------------------------------------------------------

def test_load_minimal_off(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", MINIMAL_OFF))
    assert len(mesh.vertices) == 3
    assert mesh.triangles == ((0, 1, 2),)
    assert mesh.dropped == ()


def test_load_off_with_comments_and_3d_flattening(tmp_path):
    text = "OFF\n3 1 0\n0 0 5.0\n1 0 5.0\n0 1 5.0\n3 0 1 2\n"
    mesh = load_mesh(write(tmp_path, "m.off", text))
    assert mesh.vertices[1] == Point2(1.0, 0.0)


def test_load_off_rejects_nonplanar_3d(tmp_path):
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 2.0\n3 0 1 2\n"
    with pytest.raises(MeshFormatError):
        load_mesh(write(tmp_path, "m.off", text))


def test_load_off_rejects_non_finite_vertex(tmp_path):
    text = "OFF\n3 1 0\n0 0\ninf 0\n0 1\n3 0 1 2\n"
    with pytest.raises(MeshFormatError) as err:
        load_mesh(write(tmp_path, "m.off", text))
    assert err.value.line == 4


def test_load_off_rejects_quad_face(tmp_path):
    text = "OFF\n4 1 0\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n"
    with pytest.raises(MeshFormatError) as err:
        load_mesh(write(tmp_path, "m.off", text))
    assert "non-triangular" in str(err.value)


def test_load_off_index_out_of_range_names_line(tmp_path):
    text = "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 7\n"
    with pytest.raises(MeshFormatError) as err:
        load_mesh(write(tmp_path, "m.off", text))
    assert "line 6" in str(err.value)
    assert err.value.line == 6


def test_load_off_header_and_truncation_errors(tmp_path):
    with pytest.raises(MeshFormatError):
        load_mesh(write(tmp_path, "m.off", "NOFF\n3 1 0\n"))
    with pytest.raises(MeshFormatError):
        load_mesh(write(tmp_path, "m.off", "OFF\n3 1 0\n0 0\n1 0\n"))
    with pytest.raises(MeshFormatError):
        load_mesh(write(tmp_path, "m.off", ""))


@pytest.mark.parametrize("text", ["OFF\n0 0 0\n", "OFF\n-1 1 0\n0 0\n", "OFF\n3 -1 0\n"])
def test_load_off_counts_need_a_vertex_and_no_negative(tmp_path, text):
    with pytest.raises(MeshFormatError, match="bad counts line") as err:
        load_mesh(write(tmp_path, "m.off", text))
    assert err.value.line == 2


def test_load_obj_with_reference_slashes(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.obj", OBJ_WITH_SLASHES))
    assert len(mesh.vertices) == 3
    assert mesh.triangles == ((0, 1, 2),)


def test_load_obj_rejects_quad(tmp_path):
    text = "v 0 0\nv 1 0\nv 1 1\nv 0 1\nf 1 2 3 4\n"
    with pytest.raises(MeshFormatError) as err:
        load_mesh(write(tmp_path, "m.obj", text))
    assert "non-triangular" in str(err.value)


def test_load_obj_rejects_nonpositive_index(tmp_path):
    text = "v 0 0\nv 1 0\nv 0 1\nf -1 2 3\n"
    with pytest.raises(MeshFormatError):
        load_mesh(write(tmp_path, "m.obj", text))


def test_load_unknown_format(tmp_path):
    path = write(tmp_path, "m.xyz", "whatever")
    with pytest.raises(ValueError):
        load_mesh(path)
    # explicit format overrides the extension
    mesh = load_mesh(write(tmp_path, "data.txt", MINIMAL_OFF), fmt="off")
    assert len(mesh.triangles) == 1


def test_degenerate_faces_dropped_and_reported(tmp_path):
    text = "OFF\n4 2 0\n0 0\n1 0\n2 0\n0 1\n3 0 1 3\n3 0 1 2\n"
    mesh = load_mesh(write(tmp_path, "m.off", text))
    assert mesh.triangles == ((0, 1, 3),)
    assert len(mesh.dropped) == 1
    assert mesh.dropped[0].face_index == 1
    assert mesh.dropped[0].indices == (0, 1, 2)


def test_collinearity_agrees_with_scalar_test_near_threshold(tmp_path):
    # third vertex at a height h over the base: faces on both sides of
    # is_collinear's threshold, with the base at many scales and directions
    rng = np.random.default_rng(7)
    rows, count = [], 600
    for _ in range(count):
        a = rng.uniform(-1, 1, 2) * 10.0 ** rng.integers(-3, 4)
        d = rng.normal(size=2) * 10.0 ** rng.integers(-3, 4)
        h = 10.0 ** rng.uniform(-13.5, -10.5) * np.array([-d[1], d[0]])
        rows += [a, a + d, a + rng.uniform(-1, 2) * d + h]
    rows = np.array(rows).tolist()
    text = f"OFF\n{3 * count} {count} 0\n"
    text += "".join(f"{x!r} {y!r}\n" for x, y in rows)
    text += "".join(f"3 {3 * t} {3 * t + 1} {3 * t + 2}\n" for t in range(count))
    mesh = load_mesh(write(tmp_path, "m.off", text))
    pts = [Point2(x, y) for x, y in rows]
    flat = [TrianglePoints(*pts[3 * t : 3 * t + 3]).is_collinear() for t in range(count)]
    assert [d.face_index for d in mesh.dropped] == [t for t in range(count) if flat[t]]
    assert 50 < sum(flat) < count - 50


def test_longest_edge_is_the_largest_hypot_of_the_three(tmp_path, monkeypatch):
    # measure_faces runs hypot only on the edges whose squares come within
    # 2**-40 of their face's largest (all three when that square is near
    # underflow): the longest edge the flatness and range tests read keeps
    # the bits of the largest of all three hypots, ties and near-ties too
    rng = np.random.default_rng(11)
    count = 3000
    corners = rng.normal(size=(count, 3, 2))
    a, b = corners[:, 0], corners[:, 1]
    turn = np.array([[0.5, SQRT3 / 2], [-SQRT3 / 2, 0.5]])  # a sixth of a turn
    corners[:500, 2] = (a + b)[:500] / 2 + rng.normal(size=(500, 2))  # isosceles
    corners[500:1000, 2] = a[500:1000] + (b - a)[500:1000] @ turn  # equilateral but for rounding
    corners[1000:1500, 2, 0] += rng.choice([-1, 1], 500) * 2.0**-45  # near-ties past 2**-40
    scale = 2.0 ** rng.integers(-505, 505, size=(count, 1, 1))  # squares from 1e-304 to 1e304
    xy = (corners * scale).reshape(-1, 2)
    faces = np.arange(3 * count).reshape(-1, 3)
    recorded, hypots = [], Counter()
    real_flat, real_mapped = plane_geometry._flat, plane_geometry._mapped

    def flat(twice_area, longest_sq):
        recorded.append(longest_sq)
        return real_flat(twice_area, longest_sq)

    def mapped(fn, x, *rest):
        hypots[fn] += x.size
        return real_mapped(fn, x, *rest)

    monkeypatch.setattr(plane_geometry, "_flat", flat)
    monkeypatch.setattr(plane_geometry, "_mapped", mapped)
    plane_geometry.measure_faces(xy, faces)
    longest = np.array([
        max(math.hypot(*(p[(k + 1) % 3] - p[k]).tolist()) for k in range(3))
        for p in xy.reshape(-1, 3, 2)
    ])
    assert np.concatenate(recorded).tobytes() == (longest * longest).tobytes()
    assert count < hypots[math.hypot] < 2 * count  # not every edge

    grid = load_mesh(write(tmp_path, "grid.off", jittered_grid_off(20, seed=0)))
    hypots.clear()
    plane_geometry.measure_faces(grid.xy, grid.faces)
    assert hypots[math.hypot] < 1.1 * len(grid.faces)


def test_mesh_overflow_names_the_face_like_the_scalar_test(tmp_path):
    text = "OFF\n4 2 0\n0 0\n1 0\n0 1\n1e200 0\n3 0 1 2\n3 0 3 2\n"
    with pytest.raises(OverflowError) as mesh_err:
        load_mesh(write(tmp_path, "m.off", text))
    tri = TrianglePoints(Point2(0.0, 0.0), Point2(1e200, 0.0), Point2(0.0, 1.0))
    with pytest.raises(OverflowError) as scalar_err:
        tri.is_collinear()
    assert str(mesh_err.value) == str(scalar_err.value)


def test_mesh_underflow_names_the_face_like_the_scalar_test(tmp_path):
    text = "OFF\n5 2 0\n0 0\n1 0\n0 1\n1e-160 0\n3e-161 8e-161\n3 0 1 2\n3 0 3 4\n"
    with pytest.raises(ArithmeticError) as mesh_err:
        load_mesh(write(tmp_path, "m.off", text))
    tri = TrianglePoints(Point2(0.0, 0.0), Point2(1e-160, 0.0), Point2(3e-161, 8e-161))
    with pytest.raises(ArithmeticError) as scalar_err:
        tri.is_collinear()
    assert type(mesh_err.value) is type(scalar_err.value) is ArithmeticError
    assert str(mesh_err.value) == str(scalar_err.value)
    # a face on one point is still dropped as collinear
    mesh = load_mesh(write(tmp_path, "c.off", "OFF\n4 2 0\n0 0\n1 0\n0 1\n2 2\n3 0 1 2\n3 3 3 3\n"))
    assert [d.face_index for d in mesh.dropped] == [1]


def test_mesh_model_validation():
    pts = (Point2(0, 0), Point2(1, 0), Point2(0, 1))
    with pytest.raises(ValueError):
        MeshModel(pts, ((0, 1, 5),))
    with pytest.raises(ValueError):
        MeshModel(pts[:2], ())
    collinear = (Point2(0, 0), Point2(1, 0), Point2(2, 0))
    with pytest.raises(ValueError):
        MeshModel(collinear, ((0, 1, 2),))
    with pytest.raises(ValueError, match="out of range"):
        MeshModel(pts, ((0, 1, 2), (0, 1, 10**30)))


def test_mesh_model_is_arrays_with_views_built_when_read(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", DROPPED_FACE_OFF))
    assert (mesh.xy.dtype, mesh.xy.shape) == (np.float64, (5, 2))
    assert mesh.faces.dtype == np.int64 and mesh.faces.tolist() == [[0, 1, 3], [1, 4, 3]]
    assert not {"vertices", "triangles"} & set(vars(mesh))
    assert mesh.triangles == ((0, 1, 3), (1, 4, 3))
    assert mesh.vertices == tuple(Point2(x, y) for x, y in mesh.xy.tolist())
    assert mesh.triangle_points(1) == TrianglePoints(Point2(1, 0), Point2(1, 1), Point2(0, 1))
    # the constructor's model is equal; its points are the ones given, its
    # indices (numpy integers too) read as ints
    pts = (Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(0, 1), Point2(1, 1))
    built = MeshModel(pts, [[0, 1, 3], np.array((1, 4, 3))], mesh.dropped)
    assert built == mesh and hash(built) == hash(mesh)
    assert built.vertices is pts and built.triangles == ((0, 1, 3), (1, 4, 3))
    assert {type(i) for t in built.triangles for i in t} == {int}
    assert repr(mesh) == (
        "MeshModel(vertices=(Point2(x=0.0, y=0.0), Point2(x=1.0, y=0.0), "
        "Point2(x=2.0, y=0.0), Point2(x=0.0, y=1.0), Point2(x=1.0, y=1.0)), "
        "triangles=((0, 1, 3), (1, 4, 3)), "
        "dropped=(DegenerateFace(face_index=1, indices=(0, 1, 2)),))"
    )
    for name in ("xy", "faces", "angles", "dropped", "vertices", "triangles"):
        with pytest.raises(AttributeError):
            setattr(mesh, name, None)
    for array in (mesh.xy, mesh.faces, mesh.angles):
        with pytest.raises(ValueError):
            array[0, 0] = 0
    # only the two views are built on demand: any other name is missing, and builds nothing
    fresh = load_mesh(write(tmp_path, "m.off", DROPPED_FACE_OFF))
    assert not hasattr(fresh, "bogus")
    assert not {"vertices", "triangles"} & set(vars(fresh))
    # equal only to a MeshModel, not to the tuple it compares by
    assert (fresh == (fresh.vertices, fresh.triangles, fresh.dropped)) is False


# --- OFF writing -----------------------------------------------------------------

def test_off_roundtrip_is_lossless(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    out = tmp_path / "copy.off"
    save_off(mesh, out)
    again = load_mesh(out)
    assert again.triangles == mesh.triangles
    for p, q in zip(again.vertices, mesh.vertices):
        assert p.x == q.x and p.y == q.y  # bitwise, via %.17g


def test_save_off_matches_per_vertex_writer(tmp_path):
    mesh = load_mesh(write(tmp_path, "grid.off", jittered_grid_off(48, seed=2)))  # two blocks
    save_off(mesh, tmp_path / "copy.off")
    reference = f"OFF\n{len(mesh.vertices)} {len(mesh.triangles)} 0\n"
    reference += "".join(f"{p.x:.17g} {p.y:.17g} 0\n" for p in mesh.vertices)
    reference += "".join(f"3 {i} {j} {k}\n" for i, j, k in mesh.triangles)
    assert (tmp_path / "copy.off").read_bytes() == reference.encode()


# --- analysis ---------------------------------------------------------------------

def test_analyze_equilateral(tmp_path):
    text = f"OFF\n3 1 0\n0 0\n1 0\n0.5 {SQRT3 / 2!r}\n3 0 1 2\n"
    mesh = load_mesh(write(tmp_path, "m.off", text))
    report = analyze(mesh, (1, 5, 9))
    rec = report.triangles[0]
    assert rec.q == pytest.approx(1.0, abs=1e-12)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in rec.predicted)


def test_analyze_two_triangle_fixture(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    report = analyze(mesh, (1, 2))
    assert report.predict_steps == (1, 2)
    first = report.triangles[0]
    assert first.angles.as_tuple() == pytest.approx(
        (PI / 2, PI / 3, PI / 6), abs=1e-10
    )
    assert first.q == pytest.approx(1 / 3, abs=1e-12)
    assert first.predicted[0] == pytest.approx(3 / 5, abs=1e-12)
    assert first.predicted[1] == pytest.approx(7 / 9, abs=1e-12)
    second = report.triangles[1]
    assert second.q == pytest.approx(1.0, abs=1e-12)
    s = report.summary
    assert s.count == 2
    assert s.q_min == pytest.approx(1 / 3, abs=1e-12)
    assert s.q_max == pytest.approx(1.0, abs=1e-12)
    assert sum(s.bin_counts) == 2


def test_analyze_prediction_matches_iteration(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    steps = (0, 1, 2, 7, 12)
    report = analyze(mesh, steps)
    for rec in report.triangles:
        for n, predicted in zip(steps, rec.predicted):
            actual = quality(iterate(rec.angles, n)).q
            assert abs(predicted - actual) < 1e-12


def test_mesh_pass_matches_scalar_path_bit_for_bit(tmp_path):
    mesh = load_mesh(write(tmp_path, "grid.off", jittered_grid_off(32, seed=3)))
    steps = (0, 1, 2, 7)
    report = analyze(mesh, steps)
    path = tmp_path / "grid.svg"
    render_svg(mesh, path)
    polygons = [el for el in ET.parse(path).getroot() if el.tag.endswith("polygon")]
    assert len(report.triangles) == len(polygons) == 2 * 32 * 32
    cmap = ColorMap.default()
    for t, (rec, polygon) in enumerate(zip(report.triangles, polygons)):
        tri = mesh.triangle_points(t)
        angles = angles_of(tri)
        assert rec.angles == angles
        assert rec.q == quality(angles).q
        assert rec.predicted == tuple(predict_quality(angles, s).q for s in steps)
        assert polygon.get("fill") == cmap.colors(np.array([rec.q]))[0]
        corners = " ".join(f"{p.x:.9g},{-p.y:.9g}" for p in tri.vertices())
        assert polygon.get("points") == corners


def test_mesh_pipeline_builds_no_per_face_objects(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "grid.off", jittered_grid_off(8, seed=1))
    calls = Counter()

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[f"{owner.__name__}.{name}"] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(TrianglePoints, "is_collinear")
    count(TrianglePoints, "__init__")
    count(plane_geometry, "angles_of")
    count(AngleTriple, "__init__")
    count(mesh_io.TriangleRecord, "__init__")
    mesh = load_mesh(path)
    render_svg(mesh, tmp_path / "grid.svg")
    report = analyze(mesh, (1, 2, 4))
    report.write_json(tmp_path / "r.json")
    report.write_csv(tmp_path / "r.csv")
    "".join(report.json_chunks())
    argv = ["analyze", str(path), "--steps", "1,2,4", "--report", str(tmp_path / "c.json")]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 128 + 1
    assert calls == Counter()
    # a record is built from the columns only when it is indexed
    assert len(report.triangles) == 128
    assert report.triangles[5].index == 5
    assert calls == Counter({"AngleTriple.__init__": 1, "TriangleRecord.__init__": 1})


def reference_dict(report):
    """The report's JSON document as the records give it (the dict the
    column writers replaced), for json.dumps to write as reference text."""
    return {
        "predict_steps": list(report.predict_steps),
        "triangles": [
            {
                "index": rec.index,
                "alpha": rec.angles.alpha,
                "beta": rec.angles.beta,
                "gamma": rec.angles.gamma,
                "q": rec.q,
                "predicted": {
                    str(s): v for s, v in zip(report.predict_steps, rec.predicted)
                },
            }
            for rec in report.triangles
        ],
        "summary": {
            "count": report.summary.count,
            "min": report.summary.q_min,
            "max": report.summary.q_max,
            "mean": report.summary.q_mean,
            "histogram": {
                "bin_edges": list(report.summary.bin_edges),
                "counts": list(report.summary.bin_counts),
            },
        },
        "dropped_faces": [
            {"face_index": d.face_index, "indices": list(d.indices)}
            for d in report.dropped
        ],
    }


def reference_write_json(report, path):
    """QualityReport.write_json before the column writers."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference_dict(report), fh, indent=2)
        fh.write("\n")


def reference_write_csv(report, path):
    """QualityReport.write_csv before the column writers."""
    header = ["index", "alpha", "beta", "gamma", "q"]
    header += [f"q_pred_{s}" for s in report.predict_steps]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in report.triangles:
            row = [rec.index] + [repr(v) for v in rec.angles.as_tuple() + (rec.q,)]
            writer.writerow(row + [repr(v) for v in rec.predicted])


def reference_lines(report):
    """cmd_analyze's per-triangle lines before the column writers."""
    lines = []
    for rec in report.triangles:
        preds = " ".join(f"q{s}={v:.6f}" for s, v in zip(report.predict_steps, rec.predicted))
        lines.append(f"  triangle {rec.index}: q={rec.q:.6f} {preds}".rstrip())
    return lines


EQUILATERAL_OFF = "OFF\n3 1 0\n0 0\n1 0\n0.5 0.8660254037844386\n3 0 1 2\n"

# a face dropped as collinear between two kept ones
DROPPED_FACE_OFF = "OFF\n5 3 0\n0 0\n1 0\n2 0\n0 1\n1 1\n3 0 1 3\n3 0 1 2\n3 1 4 3\n"

OBJ_TWO_FACES = "v 0 0 0\nv 1 0 0\nv 0.3 1.1 0\nv 1.4 0.9 0\nf 1 2 3\nf 2 4 3\n"


@pytest.mark.parametrize(
    "name, text, steps",
    [
        ("grid.off", jittered_grid_off(32, seed=3), (0, 1, 2, 7)),
        ("grid.off", jittered_grid_off(32, seed=3), ()),
        ("grid.off", jittered_grid_off(48, seed=5), (1, 2)),  # two FACE_BLOCKs
        ("dropped.off", DROPPED_FACE_OFF, (3, 0, 3)),
        ("equilateral.off", EQUILATERAL_OFF, (1, 5)),
        ("mesh.obj", OBJ_TWO_FACES, (0, 2)),
    ],
    ids=["grid-steps", "grid-no-steps", "grid-two-blocks", "dropped-face", "equilateral", "obj"],
)
def test_column_writers_match_reference_writers(tmp_path, capsys, name, text, steps):
    path = write(tmp_path, name, text)
    report = analyze(load_mesh(path), steps)
    if name == "equilateral.off":
        raw = report.raw[0].tolist()
        assert raw[0] + raw[1] + raw[2] == PI  # the repair's scale is exactly 1
    if name == "dropped.off":
        assert len(report.dropped) == 1
    for written, reference in (
        (report.write_json, reference_write_json),
        (report.write_csv, reference_write_csv),
    ):
        written(tmp_path / "new")
        reference(report, tmp_path / "old")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()
    assert "".join(report.json_chunks()) == json.dumps(reference_dict(report), indent=2)
    argv = ["analyze", str(path)] + (["--steps", ",".join(map(str, steps))] if steps else [])
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-len(report.triangles) :] == reference_lines(report)
    assert cli.main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == json.dumps(reference_dict(report), indent=2) + "\n"


def first_faces_off(text, count):
    """OFF ``text`` with only its first ``count`` faces."""
    lines = text.splitlines()
    nv = int(lines[1].split()[0])
    return "\n".join(["OFF", f"{nv} {count} 0", *lines[2 : 2 + nv + count]]) + "\n"


BLOCK_GRID_OFF = jittered_grid_off(46, seed=7)  # 4232 faces


def counted_fields(monkeypatch) -> Counter:
    """Counts of the values the report writers format, by dtype kind: every
    report value goes through ``mesh_io._repr_field``."""
    calls, real = Counter(), mesh_io._repr_field

    def counted(values):
        calls[values.dtype.kind] += values.size
        return real(values)

    monkeypatch.setattr(mesh_io, "_repr_field", counted)
    return calls


@pytest.mark.parametrize(
    "text, steps",
    [
        (jittered_grid_off(8, seed=2), (2, 2, 0)),
        (jittered_grid_off(8, seed=2), ()),
        (DROPPED_FACE_OFF, (1,)),
        (first_faces_off(BLOCK_GRID_OFF, _text.FACE_BLOCK - 1), (1, 2)),
        (first_faces_off(BLOCK_GRID_OFF, _text.FACE_BLOCK), (1, 2)),
        (first_faces_off(BLOCK_GRID_OFF, _text.FACE_BLOCK + 1), (1, 2)),
    ],
    ids=["duplicate-and-zero-steps", "no-steps", "dropped-face", "block-1", "block", "block+1"],
)
def test_shared_block_loop_matches_reference_writers(tmp_path, capsys, monkeypatch, text, steps):
    path = write(tmp_path, "m.off", text)
    report = analyze(load_mesh(path), steps)
    reference_write_json(report, tmp_path / "ref.json")
    reference_write_csv(report, tmp_path / "ref.csv")
    expected = {kind: (tmp_path / f"ref.{kind}").read_bytes() for kind in ("json", "csv")}
    calls = counted_fields(monkeypatch)
    # each value of the report is formatted once for both files together
    report.write(tmp_path / "both.json", tmp_path / "both.csv")
    assert calls == Counter({"f": report.q.size * (4 + len(steps)), "i": report.q.size})
    monkeypatch.undo()
    report.write_json(tmp_path / "alone.json")
    report.write_csv(tmp_path / "alone.csv")
    for name in ("both", "alone"):
        assert (tmp_path / f"{name}.json").read_bytes() == expected["json"]
        assert (tmp_path / f"{name}.csv").read_bytes() == expected["csv"]
    argv = ["analyze", str(path)] + (["--steps", ",".join(map(str, steps))] if steps else [])
    files = ["--report", str(tmp_path / "cli.json"), "--csv", str(tmp_path / "cli.csv")]
    assert cli.main(argv + files) == 0
    assert (tmp_path / "cli.json").read_bytes() == expected["json"]
    assert (tmp_path / "cli.csv").read_bytes() == expected["csv"]
    capsys.readouterr()
    assert cli.main(argv + ["--json"]) == 0
    assert capsys.readouterr().out.encode() == expected["json"]


THIN_FACE_OFF = """OFF
5 3 0
0 0
1 0
0.5 1e-05
0.5 1
2 0.5
3 0 1 2
3 1 3 0
3 1 4 3
"""


def test_report_values_outside_the_fixed_notation_range_keep_their_repr(tmp_path):
    # a face 1e-5 high: angles near 2e-5 rad and q near 6e-6, which repr
    # writes in scientific notation, beside values in fixed notation in the
    # same block and column; the files are json.dump's and csv.writer's bytes
    path = write(tmp_path, "m.off", THIN_FACE_OFF)
    report = analyze(load_mesh(path), (0, 1, 3, 40))
    assert report.angles.min() < 1e-4 and report.q.min() < 1e-4 < report.q.max()
    assert "e-05" in repr(report.angles[0, 0]) and "e-06" in repr(report.q[0])
    reference_write_json(report, tmp_path / "ref.json")
    reference_write_csv(report, tmp_path / "ref.csv")
    report.write(tmp_path / "r.json", tmp_path / "r.csv")
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_reports_format_only_what_is_written(tmp_path, capsys, monkeypatch):
    # analyze without --report or --csv makes no report pass of its own: its
    # text lines format no report field, and --json formats each value once,
    # for stdout
    path = write(tmp_path, "m.off", DROPPED_FACE_OFF)
    report = analyze(load_mesh(path), (1, 2))

    def refuse(*args):
        raise AssertionError("the JSON layout was built for a file not written")

    calls = counted_fields(monkeypatch)
    report.write()
    assert cli.main(["analyze", str(path), "--steps", "1,2"]) == 0
    assert calls == Counter()
    assert cli.main(["analyze", str(path), "--steps", "1,2", "--json"]) == 0
    assert calls == Counter({"f": report.q.size * 6, "i": report.q.size})
    capsys.readouterr()
    monkeypatch.setattr(mesh_io.QualityReport, "_json_layout", refuse)
    report.write(csv_path=tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text().startswith("index,alpha,beta,gamma,q,q_pred_1,q_pred_2")


def test_report_sum_repair_rejects_like_angle_triple(tmp_path):
    raw = np.array(
        [[PI / 2, PI / 3, PI / 6 + 5e-10], [1.0, 1.0, 1.0], [1.0, math.inf, 1.0], [math.nan] * 3]
    )
    angles, q = mesh_io._repaired_quality(raw[:1])
    triple = AngleTriple(*raw[0].tolist())
    assert angles[0].tolist() == list(triple.as_tuple()) and q.tolist() == [quality(triple).q]
    for bad in (raw, raw[[0, 2]], raw[[0, 3]]):
        with pytest.raises(ValueError) as array_err:
            mesh_io._repaired_quality(bad)
        with pytest.raises(ValueError) as scalar_err:
            AngleTriple(*bad[1].tolist())
        assert str(array_err.value) == str(scalar_err.value)
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    object.__setattr__(mesh, "angles", raw[1:])
    with pytest.raises(ValueError, match="must sum to pi"):
        analyze(mesh)
    with pytest.raises(ValueError, match="must sum to pi"):
        render_svg(mesh, tmp_path / "m.svg")


def test_analyze_empty_steps_and_errors(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", MINIMAL_OFF))
    report = analyze(mesh)
    assert report.predict_steps == ()
    assert report.triangles[0].predicted == ()
    with pytest.raises(ValueError):
        analyze(mesh, (-1,))
    with pytest.raises(ValueError):
        analyze(mesh, (), bins=0)


def test_analyze_requires_triangles(tmp_path):
    text = "OFF\n3 0 0\n0 0\n1 0\n0 1\n"
    mesh = load_mesh(write(tmp_path, "m.off", text))
    with pytest.raises(ValueError):
        analyze(mesh)


def test_report_json_and_csv(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    report = analyze(mesh, (1, 2))
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    report.write_json(jpath)
    report.write_csv(cpath)
    doc = json.loads(jpath.read_text())
    assert doc["predict_steps"] == [1, 2]
    assert doc["triangles"][0]["predicted"]["2"] == pytest.approx(7 / 9)
    assert doc["summary"]["count"] == 2
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "alpha", "beta", "gamma", "q", "q_pred_1", "q_pred_2"]
    assert len(rows) == 3
    assert float(rows[1][5]) == pytest.approx(3 / 5, abs=1e-12)


def test_analyze_is_deterministic(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    a = "".join(analyze(mesh, (1, 2)).json_chunks())
    b = "".join(analyze(mesh, (1, 2)).json_chunks())
    assert a == b
    assert a == json.dumps(reference_dict(analyze(mesh, (1, 2))), indent=2)


# --- color map -------------------------------------------------------------------

def test_colormap_default_endpoints():
    cmap = ColorMap.default()
    assert cmap.colors(np.array([1.0, 1e-9])) == ["#313695", "#d73027"]


def test_colormap_parse_and_errors():
    cmap = ColorMap.parse("0:ff0000,0.5:#00ff00,1:0000ff")
    assert cmap.colors(np.array([0.0, 0.25])) == ["#ff0000", "#808000"]
    for bad in (
        "0:ff0000",  # one stop
        "0.5:ff0000,0.1:00ff00",  # descending
        "0:zzz,1:00ff00",  # bad hex
        "0:ff0000,2:00ff00",  # out of range
        "nan:000000,1:ffffff",  # NaN first, middle, last: every comparison with it is false
        "0:000000,nan:777777,1:ffffff",
        "0:000000,nan:ffffff",
        "nonsense",
    ):
        with pytest.raises(ValueError):
            ColorMap.parse(bad)


def reference_color(cmap, q):
    """A quality's colour before the array ramp: walk the stops for one q."""
    qs = [s for s, _ in cmap.stops]
    if q <= qs[0]:
        rgb = cmap.stops[0][1]
    elif q >= qs[-1]:
        rgb = cmap.stops[-1][1]
    else:
        rgb = None
        for (q0, c0), (q1, c1) in zip(cmap.stops, cmap.stops[1:]):
            if q <= q1:
                t = (q - q0) / (q1 - q0)
                rgb = tuple(int(c0[i] + t * (c1[i] - c0[i]) + 0.5) for i in range(3))
                break
        assert rgb is not None
    return "#{:02x}{:02x}{:02x}".format(*rgb)


@pytest.mark.parametrize(
    # the last map puts q = 0.5 on a channel value of exactly 0.5, which
    # rounds up here and to even under np.rint or np.interp's rounding
    "spec", [None, "0:ff0000,0.5:#00ff00,1:0000ff", "0.2:000000,0.7:ffffff", "0:000000,1:010101"]
)
def test_array_ramp_matches_scalar_color(spec):
    cmap = ColorMap.default() if spec is None else ColorMap.parse(spec)
    stops = np.array([s for s, _ in cmap.stops])
    special = [0.0, 1.0, 0.5, 0.25, -0.5, 1.5, -math.inf, math.inf, 5e-324, -5e-324]
    special += np.nextafter(stops, -math.inf).tolist() + stops.tolist()
    special += np.nextafter(stops, math.inf).tolist()
    q = np.concatenate([special, np.random.default_rng(5).uniform(0.0, 1.0, 200_000)])
    assert cmap.colors(q) == [reference_color(cmap, v) for v in q.tolist()]


# --- rendering --------------------------------------------------------------------

def test_render_svg_is_deterministic(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    render_svg(mesh, p1)
    render_svg(mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_render_svg_structure_and_fills(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    path = tmp_path / "mesh.svg"
    render_svg(mesh, path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polys = [el for el in root if el.tag.endswith("polygon")]
    assert len(polys) == 2
    fills = [el.get("fill") for el in polys]
    assert fills[0] != fills[1]
    assert fills[1] == "#313695"  # equilateral hits the q = 1 end


def test_render_low_quality_lands_in_red_band(tmp_path):
    # thin triangle: q well below 0.3
    text = "OFF\n3 1 0\n0 0\n1 0\n0.5 0.05\n3 0 1 2\n"
    mesh = load_mesh(write(tmp_path, "m.off", text))
    q = quality(angles_of(mesh.triangle_points(0))).q
    assert q < 0.3
    path = tmp_path / "thin.svg"
    render_svg(mesh, path)
    root = ET.parse(path).getroot()
    fill = next(el for el in root if el.tag.endswith("polygon")).get("fill")
    r, g, b = int(fill[1:3], 16), int(fill[3:5], 16), int(fill[5:7], 16)
    assert r > g and r > b and r >= 200


def test_render_uniform_quality_uses_one_fill(tmp_path):
    text = (
        f"OFF\n6 2 0\n0 0\n1 0\n0.5 {SQRT3 / 2!r}\n"
        f"2 0\n3 0\n2.5 {SQRT3 / 2!r}\n3 0 1 2\n3 3 4 5\n"
    )
    mesh = load_mesh(write(tmp_path, "m.off", text))
    path = tmp_path / "u.svg"
    render_svg(mesh, path)
    root = ET.parse(path).getroot()
    fills = {el.get("fill") for el in root if el.tag.endswith("polygon")}
    assert fills == {"#313695"}


def test_render_corners_match_per_vertex_format(tmp_path):
    # 4,356 vertices: the corner text is formatted in two blocks
    mesh = load_mesh(write(tmp_path, "grid.off", jittered_grid_off(65, seed=4)))
    render_svg(mesh, tmp_path / "grid.svg")
    polygons = [el for el in ET.parse(tmp_path / "grid.svg").getroot() if el.tag.endswith("polygon")]
    corner = [f"{p.x:.9g},{-p.y:.9g}" for p in mesh.vertices]
    assert [el.get("points") for el in polygons] == [
        " ".join(corner[i] for i in face) for face in mesh.triangles
    ]


def reference_render_svg(mesh, path, colormap=None):
    """The SVG writer as it was before it wrote block by block: every line in
    one list, joined into one document."""
    cmap = colormap if colormap is not None else ColorMap.default()
    pts = mesh.xy * [1.0, -1.0]
    (min_x, min_y), (max_x, max_y) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    span = max(max_x - min_x, max_y - min_y)
    if span <= 0.0:
        span = 1.0
    margin = mesh_io.SVG_MARGIN_FRAC * span
    vb_x, vb_y = min_x - margin, min_y - margin
    vb_w, vb_h = (max_x - min_x) + 2 * margin, (max_y - min_y) + 2 * margin
    height = 800.0 * vb_h / vb_w

    def fmt(v):
        return f"{v:.9g}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(800.0)}" height="{fmt(height)}" '
        f'viewBox="{fmt(vb_x)} {fmt(vb_y)} {fmt(vb_w)} {fmt(vb_h)}">',
    ]
    corner = "".join(_text.block_rows("%.9g,%.9g", "\n", pts)).split("\n")
    stroke = f'stroke="#262626" stroke-width="{fmt(0.002 * span)}"/>'
    _, q = mesh_io._repaired_quality(mesh.angles)
    lines += [
        f'  <polygon points="{corner[i]} {corner[j]} {corner[k]}" '
        f'fill="{fill}" {stroke}'
        for (i, j, k), fill in zip(mesh.faces.tolist(), cmap.colors(q))
    ]
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


@pytest.mark.parametrize(
    "text, spec",
    [
        (jittered_grid_off(65, seed=4), None),
        (jittered_grid_off(65, seed=4), "0:000000, 0.25:#ff8000, 0.7:20a0c0, 1:ffffff"),
        ("OFF\n3 1 0\n0 0\n1 0\n2 0\n3 0 1 2\n", None),
    ],
    ids=["grid", "grid-colormap", "only-face-dropped"],
)
def test_render_svg_matches_joined_reference(tmp_path, text, spec):
    # 8,450 faces are more than two FACE_BLOCKs: the blocks must join seamlessly
    mesh = load_mesh(write(tmp_path, "m.off", text))
    cmap = ColorMap.parse(spec) if spec else None
    render_svg(mesh, tmp_path / "block.svg", cmap)
    reference_render_svg(mesh, tmp_path / "joined.svg", cmap)
    svg = (tmp_path / "block.svg").read_bytes()
    assert svg == (tmp_path / "joined.svg").read_bytes()
    if len(mesh.faces):
        assert len(mesh.faces) > 2 * _text.FACE_BLOCK
        assert svg.count(b"<polygon") == len(mesh.faces)
    else:
        assert svg.endswith(b'">\n</svg>\n') and svg.count(b"\n") == 3


def test_render_viewbox_has_margin(tmp_path):
    mesh = load_mesh(write(tmp_path, "m.off", MINIMAL_OFF))
    path = tmp_path / "m.svg"
    render_svg(mesh, path)
    root = ET.parse(path).getroot()
    x, y, w, h = (float(v) for v in root.get("viewBox").split())
    assert x < 0 < x + w and w > 1.0
    assert w == pytest.approx(1.0 + 0.04, rel=1e-6)
    assert h == pytest.approx(1.0 + 0.04, rel=1e-6)
    assert y == pytest.approx(-1.0 - 0.02, rel=1e-6)


# --- output files ------------------------------------------------------------------

@pytest.mark.parametrize(
    "name, rows_kept, marker",
    [
        ("save_off", 1, b"3 0 1 2\n"),  # the vertex rows, then the faces fail
        ("report json", 0, b"    {\n"),  # the head, then the first block fails
        ("report csv", 0, b"0,"),
        ("render_svg", 1, b"  <polygon"),  # the corner text, then the first polygons fail
    ],
)
def test_writers_write_over_in_place_and_cut_to_length(tmp_path, monkeypatch, name, rows_kept, marker):
    mesh = load_mesh(write(tmp_path, "m.off", TWO_TRIANGLE_OFF))
    report = analyze(mesh, (1, 2))
    writer = {
        "save_off": lambda path: save_off(mesh, path),
        "report json": lambda path: report.write(json_path=path),
        "report csv": lambda path: report.write(csv_path=path),
        "render_svg": lambda path: render_svg(mesh, path),
    }[name]
    # the report's rows come from byte fields, the other writers' from % templates
    rows = "_field_rows" if name.startswith("report") else "block_rows"
    check_output_writer(tmp_path, monkeypatch, writer, mesh_io, rows_kept, marker, rows)


# --- memory ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid_45k(tmp_path_factory):
    """A 45,000-face grid, the size of the grid_45k benchmark's mesh."""
    path = tmp_path_factory.mktemp("grid") / "grid.off"
    path.write_text(jittered_grid_off(150, seed=0))
    return path


def traced_peak(fn) -> float:
    """The tracemalloc peak of ``fn()``, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_load_mesh_parses_one_block_of_lines_at_a_time(grid_45k):
    # the file's line strings and the mesh's arrays take about 8 MiB; every
    # face line's tokens as objects and a list of line numbers took 23 MiB
    assert traced_peak(lambda: load_mesh(grid_45k)) < 12


def test_report_write_formats_one_block_of_values_at_a_time(grid_45k, tmp_path):
    report = analyze(load_mesh(grid_45k), (1, 2, 4))
    # one block's strings for both files take about 7.3 MiB; a (F, 7) table
    # of the whole report's values added 2.2 MiB to that
    peak = traced_peak(lambda: report.write(tmp_path / "r.json", tmp_path / "r.csv"))
    assert peak < 8.5


def test_render_svg_builds_one_block_of_polygons_at_a_time(grid_45k, tmp_path):
    mesh = load_mesh(grid_45k)
    # the corner strings and one block's table take about 3.8 MiB; the fills
    # and the (F, 4) polygon table of the whole mesh took 12.8 MiB
    assert traced_peak(lambda: render_svg(mesh, tmp_path / "m.svg")) < 6


# --- parser fuzzing ----------------------------------------------------------------

FUZZ_TOKENS = "OFF v f 3 0 1 -1 0.5 1e308 nan inf # 1/2".split() + ["\n"] * 4
FUZZ_SEEDS = {
    "off": "OFF \n 4 2 0 \n 0 0 \n 1 0 \n 0 1 \n 1 1 \n 3 0 1 2 \n 3 1 3 2 \n".split(" "),
    "obj": "v 0 0 \n v 1 0 \n v 0 1 \n v 1 1 \n f 1 2 3 \n f 2 4 3 \n".split(" "),
}


def fuzz_text(rng, fmt):
    """A random token stream (after an OFF header, for most OFF files), or a
    valid mesh with one to three tokens dropped, replaced or inserted."""
    if rng.random() < 0.5:
        head = ["OFF", "\n"] if fmt == "off" and rng.random() < 0.8 else []
        return " ".join(head + [rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 30))])
    tokens = list(FUZZ_SEEDS[fmt])
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        action = rng.choice(("drop", "replace", "insert"))
        if action == "drop":
            del tokens[i]
        elif action == "replace":
            tokens[i] = rng.choice(FUZZ_TOKENS)
        else:
            tokens.insert(i, rng.choice(FUZZ_TOKENS))
    return " ".join(tokens)


@pytest.mark.filterwarnings("error")  # a warning would print beside the error line
def test_parser_fuzz_gives_only_documented_exit_codes(tmp_path, capsys):
    rng = random.Random(5)
    codes = Counter()
    for case in range(500):
        fmt = ("off", "obj")[case % 2]
        text = fuzz_text(rng, fmt)
        path = write(tmp_path, f"m.{fmt}", text)
        try:
            code = cli.main(["analyze", str(path)])
        except Exception as exc:  # the CLI must classify every failure itself
            pytest.fail(f"{fmt} input {text!r} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (text, err)
        assert "Traceback" not in err
        assert len(err.splitlines()) == (code != 0), (text, err)
        codes[code] += 1
    # the streams reach past the parsers: some load and analyze, some overflow
    assert min(codes[0], codes[2], codes[3], codes[4]) > 0, codes


# --- the per-line readers, as reference for the bulk readers ------------------------

def reference_significant_lines(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                out.append((lineno, text.split()))
    return out


def reference_vertex_row(tokens, lineno):
    if len(tokens) not in (2, 3):
        raise MeshFormatError(
            f"vertex line must have 2 or 3 floats, got {len(tokens)}", line=lineno
        )
    try:
        values = tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise MeshFormatError(f"bad vertex: {exc}", line=lineno) from exc
    if not all(math.isfinite(v) for v in values):
        raise MeshFormatError("non-finite vertex", line=lineno)
    return lineno, values


def reference_read_off(path):
    lines = reference_significant_lines(path)
    if not lines:
        raise MeshFormatError("empty file", line=1)
    lineno, tokens = lines[0]
    if tokens != ["OFF"]:
        raise MeshFormatError(
            f"expected 'OFF' header, got {' '.join(tokens)!r}", line=lineno
        )
    if len(lines) < 2:
        raise MeshFormatError("missing counts line", line=lineno)
    lineno, tokens = lines[1]
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
    except (ValueError, IndexError) as exc:
        raise MeshFormatError(f"bad counts line: {exc}", line=lineno) from exc
    if nv < 1 or nf < 0:
        raise MeshFormatError(
            f"bad counts line: need vertices >= 1 and faces >= 0, got {nv} and {nf}",
            line=lineno,
        )
    body = lines[2:]
    if len(body) < nv + nf:
        raise MeshFormatError(
            f"expected {nv} vertex and {nf} face lines, found {len(body)}",
            line=lines[-1][0],
        )
    vertex_rows = [reference_vertex_row(tokens, lineno) for lineno, tokens in body[:nv]]
    face_rows = []
    for lineno, tokens in body[nv : nv + nf]:
        if tokens[0] != "3":
            raise MeshFormatError(
                f"non-triangular face (vertex count {tokens[0]})", line=lineno
            )
        if len(tokens) < 4:
            raise MeshFormatError("face line needs 3 vertex indices", line=lineno)
        try:
            idx = (int(tokens[1]), int(tokens[2]), int(tokens[3]))
        except ValueError as exc:
            raise MeshFormatError(f"bad face index: {exc}", line=lineno) from exc
        face_rows.append((lineno, idx))
    return vertex_rows, face_rows


def reference_read_obj(path):
    vertex_rows = []
    face_rows = []
    for lineno, tokens in reference_significant_lines(path):
        key = tokens[0]
        if key == "v":
            vertex_rows.append(reference_vertex_row(tokens[1:], lineno))
        elif key == "f":
            refs = tokens[1:]
            if len(refs) != 3:
                raise MeshFormatError(
                    f"non-triangular face ({len(refs)} vertices)", line=lineno
                )
            idx = []
            for ref in refs:
                head = ref.split("/", 1)[0]
                try:
                    value = int(head)
                except ValueError as exc:
                    raise MeshFormatError(
                        f"bad face reference {ref!r}", line=lineno
                    ) from exc
                if value < 1:
                    raise MeshFormatError(
                        f"face index {value} must be positive (1-based)",
                        line=lineno,
                    )
                idx.append(value - 1)
            face_rows.append((lineno, (idx[0], idx[1], idx[2])))
    if not vertex_rows:
        raise MeshFormatError("no vertex lines found", line=1)
    return vertex_rows, face_rows


def reference_flatten(rows):
    if len({len(coords) for _, coords in rows}) != 1:
        raise MeshFormatError("vertex lines mix 2D and 3D coordinates", line=rows[0][0])
    coords = np.array([c for _, c in rows])
    if coords.shape[1] == 3:
        zs = coords[:, 2].tolist()
        span = max(zs) - min(zs)
        extent = max(1.0, float(np.abs(coords).max()))
        if span > mesh_io.FLATTEN_Z_TOL * extent:
            raise MeshFormatError(
                f"3D mesh is not planar (z span {span:.3e}); only constant-z "
                "inputs are flattened",
                line=rows[0][0],
            )
    return coords[:, :2]


def reference_build_model(vertex_rows, face_rows):
    """(xy, faces, angles, dropped) of the model the per-line readers built."""
    xy = reference_flatten(vertex_rows)
    triangles = tuple(idx for _, idx in face_rows)
    faces = np.array(triangles).reshape(len(triangles), 3)
    outside = (faces < 0) | (faces >= len(xy))
    if outside.any():
        t = int(outside.any(axis=1).argmax())
        raise MeshFormatError(
            f"face index {triangles[t][int(outside[t].argmax())]} out of range "
            f"(mesh has {len(xy)} vertices)",
            line=face_rows[t][0],
        )
    faces = faces.astype(np.int64)
    flat, angles = plane_geometry.measure_faces(xy, faces)
    dropped = tuple(mesh_io.DegenerateFace(int(t), triangles[t]) for t in np.flatnonzero(flat))
    if len(xy) < 3:
        raise ValueError(f"mesh needs at least 3 vertices, got {len(xy)}")
    return xy, faces[~flat], angles[~flat], dropped


def load_outcome(load, path, fmt):
    """What ``load`` makes of the file: the model's arrays and dropped faces
    (arrays as dtype, shape and bytes), or the exception's type, text and line."""
    try:
        *arrays, dropped = load(path, fmt)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], dropped


def bulk_load(path, fmt):
    mesh = load_mesh(path, fmt)
    return mesh.xy, mesh.faces, mesh.angles, mesh.dropped


def reference_load(path, fmt):
    read = {"off": reference_read_off, "obj": reference_read_obj}[fmt]
    return reference_build_model(*read(path))


BIG = "99999999999999999999"  # past int64


def big_off(vertex_lines, face_lines):
    """OFF text of 5000 vertex and 5000 face lines, more than a 4096-line
    block each, with the lines at the given indices replaced."""
    vertices = [vertex_lines.get(i, f"{i} {i * i % 7}") for i in range(5000)]
    faces = [face_lines.get(i, "3 0 1 2") for i in range(5000)]
    return "\n".join(["OFF", "5000 5000 0", *vertices, *faces]) + "\n"


def big_obj(lines, count=6000):
    """OBJ text of ``count`` lines, ``v`` and ``f`` in turn, with the lines
    at the given (0-based) indices replaced."""
    body = [f"v {i} {i * i % 7}" if i % 2 == 0 else "f 1 2 3" for i in range(count)]
    return "\n".join(lines.get(i, line) for i, line in enumerate(body)) + "\n"

# (format, text): what each case exercises is in its id
READER_CASES = {
    "crlf": ("off", MINIMAL_OFF.replace("\n", "\r\n")),
    "crlf-bad-vertex": ("off", "OFF\r\n3 1 0\r\n0 0\r\n1 x\r\n0 1\r\n3 0 1 2\r\n"),
    "lone-cr": ("off", "OFF\r3 1 0\r0 0\r1 0\r0 1\r3 0 1 9\r"),
    "mixed-newlines": ("off", "OFF\r\n\r3 1 0\n\r\n0 0\r1 0\n0 1\r\n3 0 1 7"),
    "no-final-newline": ("off", MINIMAL_OFF.rstrip("\n")),
    "no-final-newline-bad": ("off", "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1"),
    "mid-line-comments": ("off", "# m\nOFF # header\n3 1 0#counts\n0 0 # a\n1 0#\n#\n0 1\n3 0 1 2 # f\n"),
    "comment-cuts-a-token": ("off", "OFF\n3 1 0\n0 0\n1 #0\n0 1\n3 0 1 2\n"),
    "odd-whitespace": ("off", "OFF\n3\t1\t0\n0\x0c0\n1 0\n \x1c0\x851　\n3\t0 1\x0b2\n"),
    "whitespace-only-lines": ("off", "OFF\n \t\n3 1 0\n\x0c\n0 0\n1 0\n \n0 1\n3 0 1 2\n"),
    "mixed-2d-3d": ("off", "OFF\n3 1 0\n0 0\n1 0 0\n0 1\n3 0 1 2\n"),
    "mixed-2d-3d-then-bad-face": ("off", "OFF\n3 1 0\n0 0\n1 0 0\n0 1\n4 0 1 2\n"),
    "planar-3d": ("off", "OFF\n3 1 0\n0 0 2.5\n1 0 2.5\n0 1 2.5\n3 0 1 2\n"),
    "non-planar-z": ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 1e-3\n3 0 1 2\n"),
    "four-vertex-tokens": ("off", "OFF\n3 1 0\n0 0 0 0\n1 0\n0 1\n3 0 1 2\n"),
    "extra-face-tokens": ("off", "OFF\n4 2 0\n0 0\n1 0\n0 1\n1 1\n3 0 1 2 255 0 0\n3 1 3 2 0.5\n"),
    "short-face": ("off", "OFF\n4 2 0\n0 0\n1 0\n0 1\n1 1\n3 0 1 2\n3 1 3\n"),
    "quad-face": ("off", "OFF\n4 1 0\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n"),
    "bad-face-index": ("off", "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2.0\n"),
    "index-past-int64": ("off", f"OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 {BIG}\n"),
    "negative-index-past-int64": ("off", f"OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 -{BIG} {BIG}\n"),
    "index-2**63": ("off", f"OFF\n3 2 0\n0 0\n1 0\n0 1\n3 0 1 2\n3 0 1 {2**63}\n"),
    "small-index-before-past-int64": ("off", f"OFF\n3 2 0\n0 0\n1 0\n0 1\n3 0 1 5\n3 0 {BIG} 2\n"),
    "underscores": ("off", "OFF\n3 1 0\n0 0\n1_0 0\n0 1_0\n3 0 1 0_2\n"),
    "unicode-digits": ("off", "OFF\n٣ ١ ٠\n٠ ٠\n١ 0\n0 ١\n3 ٠ ١ ٢\n"),
    "nan-vertex": ("off", "OFF\n3 1 0\n0 0\nnan 0\n0 1\n3 0 1 2\n"),
    "inf-vertex": ("off", "OFF\n3 1 0\n0 0\n1 0\n0 -inf\n3 0 1 2\n"),
    "float-past-range": ("off", "OFF\n3 1 0\n0 0\n1e400 0\n0 1\n3 0 1 2\n"),
    "zero-faces": ("off", "OFF\n3 0 0\n0 0\n1 0\n0 1\n"),
    "two-vertices": ("off", "OFF\n2 0 0\n0 0\n1 0\n"),
    "trailing-lines-ignored": ("off", MINIMAL_OFF + "garbage here\n"),
    "collinear-dropped": ("off", DROPPED_FACE_OFF),
    "overflow": ("off", "OFF\n4 2 0\n0 0\n1 0\n0 1\n1e200 0\n3 0 1 2\n3 0 3 2\n"),
    "obj-slashes": ("obj", OBJ_WITH_SLASHES),
    "obj-refs": ("obj", "v 0 0\nv 1 0\nv 0 1\nvt 0 0\nf 1/1 2// 3/2/1\n"),
    "obj-face-error-before-vertex-mix": ("obj", "v 0 0\nf 1 2 x\nv 1 0 0\nv 0 1\n"),
    "obj-vertex-error-before-face-error": ("obj", "v 0 0\nv 1 zero\nf 1 2 x\nv 0 1\n"),
    "obj-mixed-2d-3d": ("obj", "v 0 0\nv 1 0 0\nv 0 1\nf 1 2 3\n"),
    "obj-no-vertices": ("obj", "o empty\nf 1 2 3\n"),
    "obj-no-vertices-bad-face": ("obj", "f 1 2\n"),
    "obj-bare-v": ("obj", "v\nv 1 0\nv 0 1\nf 1 2 3\n"),
    "obj-index-zero": ("obj", "v 0 0\nv 1 0\nv 0 1\nf 0 1 2\n"),
    "obj-index-past-int64": ("obj", f"v 0 0\nv 1 0\nv 0 1\nf 1 2 {BIG}\n"),
    "obj-index-out-of-range": ("obj", "v 0 0\nv 1 0\nv 0 1\nf 1 2 4\n"),
    "obj-quad": ("obj", "v 0 0\nv 1 0\nv 1 1\nv 0 1\nf 1 2 3 4\n"),
    "obj-no-faces": ("obj", "v 0 0\nv 1 0\nv 0 1\n"),
    "obj-crlf-comments": ("obj", "v 0 0 # a\r\nv 1 0\r\n# f 9 9 9\r\nv 0 1\r\nf 1 2 3#\r\n"),
    "big-bad-faces-late": ("off", big_off({}, {4321: "3 0 1 x", 4900: "4 0 1 2 3"})),
    "big-bad-vertices-late": ("off", big_off({3000: "1 nan", 4000: "1"}, {10: "3 0 x 2"})),
    "big-mixed-2d-3d": ("off", big_off({2500: "0 0 0"}, {})),
    "big-mixed-2d-3d-then-bad-face": ("off", big_off({2500: "0 0 0"}, {4999: "3 0 1"})),
    "big-obj-face-before-vertex": ("obj", big_obj({5001: "f -1 x 2", 5500: "v 1 x"})),
    # each 4096-line block is uniform on its own: the mix shows only across blocks
    "big-2d-block-then-3d-block": ("off", big_off({i: f"{i} 0 0" for i in range(4096, 5000)}, {})),
    "big-bad-face-in-second-block-only": ("off", big_off({}, {4096: "3 0 1"})),
    "big-index-past-int64-in-second-block": ("off", big_off({}, {4500: f"3 0 1 {BIG}"})),
    # 5000 v and 5000 f lines, so both cross a block edge
    "big-obj-interleaved-across-blocks": ("obj", big_obj({}, 10000)),
}


def assert_bulk_readers_match_per_line_readers(tmp_path):
    # the 500 fuzz streams of the CLI fuzz test, then the targeted cases
    rng = random.Random(5)
    cases = [(fmt, fuzz_text(rng, fmt)) for fmt in ("off", "obj") * 250]
    cases += READER_CASES.values()
    outcomes = Counter()
    for fmt, text in cases:
        path = tmp_path / f"m.{fmt}"
        path.write_bytes(text.encode())
        bulk, reference = load_outcome(bulk_load, path, fmt), load_outcome(reference_load, path, fmt)
        assert bulk == reference, (fmt, text)
        outcomes[bulk[0] if isinstance(bulk[0], type) else "loaded"] += 1
    assert outcomes["loaded"] > 20 and outcomes[MeshFormatError] > 100, outcomes


@pytest.mark.filterwarnings("error")
def test_bulk_readers_match_per_line_readers(tmp_path):
    assert_bulk_readers_match_per_line_readers(tmp_path)


@pytest.mark.filterwarnings("error")
def test_bulk_readers_match_per_line_readers_in_small_blocks(tmp_path, monkeypatch):
    # no fuzz stream has more than 7 vertex or face lines; in blocks of 2,
    # 186 of the 500 are parsed across blocks, and a block can still mix 2D and 3D
    monkeypatch.setattr(mesh_io, "FACE_BLOCK", 2)
    assert_bulk_readers_match_per_line_readers(tmp_path)


def test_reader_cases_reach_their_branches(tmp_path):
    # each targeted case ends where its id says, so the comparison above covers it
    def outcome(case):
        fmt, text = READER_CASES[case]
        path = tmp_path / f"m.{fmt}"
        path.write_bytes(text.encode())
        return load_outcome(bulk_load, path, fmt)

    assert outcome("lone-cr")[1:] == ("line 6: face index 9 out of range (mesh has 3 vertices)", 6)
    assert outcome("mixed-newlines")[1:] == (
        "line 8: face index 7 out of range (mesh has 3 vertices)", 8
    )
    assert outcome("crlf-bad-vertex")[2] == 4
    assert outcome("comment-cuts-a-token")[1].startswith("line 4: vertex line must have 2 or 3")
    assert outcome("mixed-2d-3d-then-bad-face")[1] == "line 6: non-triangular face (vertex count 4)"
    assert outcome("index-past-int64")[1] == f"line 6: face index {BIG} out of range (mesh has 3 vertices)"
    assert outcome("negative-index-past-int64")[1].startswith(f"line 6: face index -{BIG}")
    assert outcome("small-index-before-past-int64")[1].startswith("line 6: face index 5")
    assert outcome("obj-face-error-before-vertex-mix")[1] == "line 2: bad face reference 'x'"
    assert outcome("obj-no-vertices")[1] == "line 1: no vertex lines found"
    assert outcome("obj-index-past-int64")[1].startswith(f"line 4: face index {int(BIG) - 1}")
    for case in ("odd-whitespace", "underscores", "unicode-digits", "extra-face-tokens", "zero-faces"):
        assert isinstance(outcome(case)[0], list), case
    assert outcome("two-vertices")[:2] == (ValueError, "mesh needs at least 3 vertices, got 2")
    # past one 4096-line block, the bad line is found inside the block that fails
    assert outcome("big-bad-faces-late")[1:] == (
        "line 9324: bad face index: invalid literal for int() with base 10: 'x'", 9324
    )
    assert outcome("big-bad-vertices-late")[1:] == ("line 3003: non-finite vertex", 3003)
    assert outcome("big-mixed-2d-3d")[1:] == ("line 3: vertex lines mix 2D and 3D coordinates", 3)
    assert outcome("big-mixed-2d-3d-then-bad-face")[2] == 10002
    assert outcome("big-obj-face-before-vertex")[1:] == (
        "line 5002: face index -1 must be positive (1-based)", 5002
    )
    assert outcome("big-2d-block-then-3d-block")[1:] == (
        "line 3: vertex lines mix 2D and 3D coordinates", 3
    )
    assert outcome("big-bad-face-in-second-block-only")[1:] == (
        "line 9099: face line needs 3 vertex indices", 9099
    )
    assert outcome("big-index-past-int64-in-second-block")[1:] == (
        f"line 9503: face index {BIG} out of range (mesh has 5000 vertices)", 9503
    )
    assert outcome("big-obj-interleaved-across-blocks")[0][1][1] == (5000, 3)  # the faces
