"""Tests for the coordinate-level construction and edge-growth checks."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trismooth import plane_geometry

from trismooth import (
    EQUILATERAL,
    AngleTriple,
    CollinearTriangleError,
    DegenerateTriangleError,
    Point2,
    TrianglePoints,
    angles_of,
    construct_transformed,
    construct_transformed_intersection,
    edge_product_growth_check,
    growth_factor,
    rescale_to_area,
    transform,
)
from trismooth.plane_geometry import (
    DegenerateIntersectionError,
    _intersect_lines,
    _json_rows,
    block_rows,
)

from conftest import coordinate_triangles, random_triangles

PI = math.pi


def law_of_cosines_angles(tri):
    # independent extraction route for cross-checking angles_of
    a, b, c = tri.edge_lengths()
    alpha = math.acos((b * b + c * c - a * a) / (2 * b * c))
    beta = math.acos((a * a + c * c - b * b) / (2 * a * c))
    return alpha, beta, PI - alpha - beta


def tri_of(*coords):
    pts = [Point2(x, y) for x, y in coords]
    return TrianglePoints(pts[0], pts[1], pts[2])


RIGHT_ISOCELES = tri_of((0, 0), (1, 0), (0, 1))
EQUILATERAL_TRI = tri_of((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))


# --- angles_of ---------------------------------------------------------------

def test_angles_of_fixed_cases():
    assert angles_of(RIGHT_ISOCELES).as_tuple() == pytest.approx(
        (PI / 2, PI / 4, PI / 4), abs=1e-12
    )
    assert angles_of(EQUILATERAL_TRI).as_tuple() == pytest.approx(
        (PI / 3, PI / 3, PI / 3), abs=1e-12
    )
    expected = (math.atan(0.5), PI / 2, PI / 2 - math.atan(0.5))
    assert angles_of(tri_of((0, 0), (2, 0), (2, 1))).as_tuple() == pytest.approx(
        expected, abs=1e-12
    )


def test_angles_of_rejects_collinear():
    with pytest.raises(CollinearTriangleError):
        angles_of(tri_of((0, 0), (1, 1), (2, 2)))


def test_collinearity_test_overflow_is_not_collinear():
    # the longest edge squared is inf: the test decides nothing, so it raises
    big = 1e154
    tri = tri_of((-big, -big), (big, 0.0), (0.0, big))
    with pytest.raises(OverflowError, match="overflows"):
        tri.is_collinear()
    with pytest.raises(OverflowError):
        angles_of(tri)


#: A fixed scalene shape whose angles go wrong once its squared edges are
#: subnormal: off by 2.4e-10 at scale 1e-157, a bad angle sum at 1e-160,
#: "collinear" at 1e-170, unless the range test stops it first.
SHAPE = ((0.0, 0.0), (1.0, 0.0), (0.3, 0.8))


def scaled_shape(scale):
    return tri_of(*[(x * scale, y * scale) for x, y in SHAPE])


def test_collinearity_test_underflow_is_not_collinear():
    unit = angles_of(scaled_shape(1.0)).as_tuple()
    assert angles_of(scaled_shape(1e-150)).as_tuple() == pytest.approx(unit, abs=1e-15)
    for scale in (1e-157, 1e-160, 1e-170):
        tri = scaled_shape(scale)
        for call in (tri.is_collinear, lambda: angles_of(tri)):
            with pytest.raises(ArithmeticError, match="squared edge length underflows") as err:
                call()
            assert type(err.value) is ArithmeticError
    # coincident vertices are exactly collinear, not a numeric failure
    assert tri_of((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)).is_collinear()
    with pytest.raises(CollinearTriangleError):
        angles_of(tri_of((1e-300, 0.0), (1e-300, 0.0), (1e-300, 0.0)))


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(math.inf, 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, math.nan)


def test_angles_of_matches_law_of_cosines():
    for tri in random_triangles(200, seed=11):
        got = angles_of(tri).as_tuple()
        ref = law_of_cosines_angles(tri)
        assert got == pytest.approx(ref, abs=1e-10)


def test_angles_sum_to_pi():
    for tri in random_triangles(100, seed=13):
        assert abs(sum(angles_of(tri).as_tuple()) - PI) < 1e-10


@given(t=coordinate_triangles())
@settings(deadline=None)
def test_angles_of_similarity_invariance(t):
    base = angles_of(t).as_tuple()
    # rotate, scale, translate all three vertices
    ang, scale, tx, ty = 0.7853, 3.25, -12.5, 4.75
    ca, sa = math.cos(ang), math.sin(ang)

    def move(p):
        return Point2(
            scale * (ca * p.x - sa * p.y) + tx,
            scale * (sa * p.x + ca * p.y) + ty,
        )

    moved = TrianglePoints(move(t.a_vertex), move(t.b_vertex), move(t.c_vertex))
    assert angles_of(moved).as_tuple() == pytest.approx(base, abs=1e-10)


# --- construction ------------------------------------------------------------

def test_construct_equilateral_doubles_and_keeps_center():
    out = construct_transformed(EQUILATERAL_TRI)
    assert out.edge_lengths() == pytest.approx((2.0, 2.0, 2.0), abs=1e-12)
    c0, c1 = EQUILATERAL_TRI.centroid(), out.centroid()
    assert (c1.x, c1.y) == pytest.approx((c0.x, c0.y), abs=1e-12)


def test_construct_right_isoceles_labeled_angles():
    out = angles_of(construct_transformed(RIGHT_ISOCELES))
    assert out.as_tuple() == pytest.approx(
        (PI / 4, 3 * PI / 8, 3 * PI / 8), abs=1e-10
    )


def test_construct_rejects_collinear():
    with pytest.raises(CollinearTriangleError):
        construct_transformed(tri_of((0, 0), (1, 0), (2, 0)))
    with pytest.raises(CollinearTriangleError):
        construct_transformed_intersection(tri_of((0, 0), (1, 0), (2, 0)))


def test_construction_commutes_with_angle_transform():
    for tri in random_triangles(200, seed=17):
        via_geometry = angles_of(construct_transformed(tri)).as_tuple()
        via_angles = transform(angles_of(tri)).as_tuple()
        assert via_geometry == pytest.approx(via_angles, abs=1e-10)


def test_intersection_route_matches_excenter_route():
    for tri in random_triangles(200, seed=19):
        p = construct_transformed(tri)
        q = construct_transformed_intersection(tri)
        scale = max(tri.edge_lengths())
        for u, v in zip(p.vertices(), q.vertices()):
            assert math.hypot(u.x - v.x, u.y - v.y) <= 1e-9 * scale


#: Apex heights over a base of 2: the angle at the apex is pi less about y,
#: and the excenter weight a + b - c cancels (rounds to 0 from y = 1e-8 down).
THIN_HEIGHTS = [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 3e-12]


def pairwise_mean_error(tri, build):
    a, b, g = angles_of(tri).as_tuple()
    got = angles_of(build(tri)).as_tuple()
    return max(abs(x - y) for x, y in zip(got, (0.5 * (b + g), 0.5 * (a + g), 0.5 * (a + b))))


@pytest.mark.parametrize("y", THIN_HEIGHTS)
def test_thin_obtuse_triangles_get_the_pairwise_means(y):
    assert pairwise_mean_error(tri_of((0, 0), (2, 0), (1, y)), construct_transformed) <= 1e-12
    # off centre and turned, the bisector sum at the obtuse corner cancels too
    c, s = math.cos(0.5), math.sin(0.5)
    turned = tri_of(*((x * c - v * s, x * s + v * c) for x, v in ((0, 0), (2, 0), (0.7, y))))
    assert pairwise_mean_error(turned, construct_transformed_intersection) <= 1e-12


def test_construction_grows_area():
    for tri in random_triangles(100, seed=23):
        assert construct_transformed(tri).area() > tri.area()


@given(t=coordinate_triangles())
@settings(deadline=None)
def test_construction_angle_sum_forced(t):
    out = construct_transformed(t)
    assert abs(sum(angles_of(out).as_tuple()) - PI) < 1e-10


def test_parallel_lines_raise():
    with pytest.raises(DegenerateIntersectionError):
        _intersect_lines(Point2(0, 0), (1.0, 0.0), Point2(0, 1), (1.0, 1e-15))


# --- growth factor -----------------------------------------------------------

def test_growth_factor_values():
    assert growth_factor(EQUILATERAL).f == pytest.approx(8.0, abs=1e-12)
    t = AngleTriple(PI / 2, PI / 4, PI / 4)
    assert growth_factor(t).f == pytest.approx(9.65685424949238, abs=1e-12)


def test_growth_factor_rejects_degenerate():
    thin = AngleTriple(1e-12, (PI - 1e-12) / 2, (PI - 1e-12) / 2)
    with pytest.raises(DegenerateTriangleError):
        growth_factor(thin)


@given(t=st.data())
@settings(deadline=None)
def test_growth_factor_exceeds_one(t):
    triple = t.draw(coordinate_triangles())
    assert growth_factor(angles_of(triple)).f > 1.0


# --- rescaling ---------------------------------------------------------------

def test_rescale_matches_similarity_fixture():
    big = tri_of((0, 0), (4, 0), (0, 4))
    out = rescale_to_area(big, 2.0)
    assert out.area() == pytest.approx(2.0, rel=1e-12)
    c0, c1 = big.centroid(), out.centroid()
    assert (c1.x, c1.y) == pytest.approx((c0.x, c0.y), abs=1e-12)
    a, b, c = out.edge_lengths()
    assert b == pytest.approx(2.0, rel=1e-12)  # legs halve from 4 to 2
    assert c == pytest.approx(2.0, rel=1e-12)
    assert angles_of(out).as_tuple() == pytest.approx(
        angles_of(big).as_tuple(), abs=1e-12
    )


def test_rescale_identity_and_equilateral():
    same = rescale_to_area(RIGHT_ISOCELES, RIGHT_ISOCELES.area())
    for u, v in zip(same.vertices(), RIGHT_ISOCELES.vertices()):
        assert (u.x, u.y) == pytest.approx((v.x, v.y), abs=1e-15)
    side2 = tri_of((0, 0), (2, 0), (1, math.sqrt(3)))
    target = EQUILATERAL_TRI.area()
    small = rescale_to_area(side2, target)
    assert small.edge_lengths() == pytest.approx((1, 1, 1), rel=1e-12)
    c0, c1 = side2.centroid(), small.centroid()
    assert (c1.x, c1.y) == pytest.approx((c0.x, c0.y), abs=1e-12)


def test_rescale_errors():
    with pytest.raises(ValueError):
        rescale_to_area(RIGHT_ISOCELES, 0.0)
    with pytest.raises(ValueError):
        rescale_to_area(RIGHT_ISOCELES, -1.0)
    with pytest.raises(CollinearTriangleError):
        rescale_to_area(tri_of((0, 0), (1, 0), (2, 0)), 1.0)


# --- edge growth report ------------------------------------------------------

def test_growth_report_equilateral_single_step():
    rep = edge_product_growth_check(EQUILATERAL_TRI, 1)
    rec = rep.records[0]
    assert rec.product_ratio == pytest.approx(8.0, abs=1e-12)
    assert rec.factor == pytest.approx(8.0, abs=1e-12)
    assert rec.product_matches_factor
    assert rec.edge_ratios == pytest.approx((2.0, 2.0, 2.0), rel=1e-12)


def test_growth_report_right_isoceles_single_step():
    rep = edge_product_growth_check(RIGHT_ISOCELES, 1)
    rec = rep.records[0]
    assert rec.product_ratio == pytest.approx(9.65685424949238, rel=1e-9)
    assert rec.product_matches_factor


def test_growth_product_ratio_equals_factor_everywhere():
    for tri in random_triangles(50, seed=29):
        rep = edge_product_growth_check(tri, 5)
        assert all(r.product_matches_factor for r in rep.records)


def test_growth_factors_approach_eight():
    rep = edge_product_growth_check(RIGHT_ISOCELES, 30)
    diffs = [abs(r.factor - 8.0) for r in rep.records]
    above_floor = [d for d in diffs if d > 1e-12]
    assert all(b < a for a, b in zip(above_floor, above_floor[1:]))
    assert diffs[-1] < 1e-9


def test_growth_log_cumulative_diverges():
    rep = edge_product_growth_check(RIGHT_ISOCELES, 50)
    logs = rep.log_cumulative
    assert all(b > a for a, b in zip(logs, logs[1:]))
    fmin = min(r.factor for r in rep.records)
    assert logs[-1] >= 50 * math.log(fmin) - 1e-9


def test_growth_rescaling_keeps_coordinates_bounded():
    rep = edge_product_growth_check(RIGHT_ISOCELES, 60)
    # growth is accumulated in log space, not in the working coordinates
    assert rep.log_cumulative[-1] > 100.0
    assert all(math.isfinite(v) for v in rep.log_cumulative)


def three_step_logs(rep, blocks):
    """Over the first 3*blocks steps: each edge's log growth, the log of the
    published reading prod_{j=0..n} f_j, of one factor per three-step block
    prod_{k<n} f_{3k}, and of every step's factor prod_{j<3n} f_j."""
    m = 3 * blocks
    logs = [math.log(r.factor) for r in rep.records]
    edges = tuple(
        math.fsum(math.log(r.edge_ratios[i]) for r in rep.records[:m]) for i in range(3)
    )
    return edges, math.fsum(logs[: blocks + 1]), math.fsum(logs[:m:3]), math.fsum(logs[:m])


def test_growth_three_step_readings_reported_honestly():
    rep = edge_product_growth_check(EQUILATERAL_TRI, 6)
    edges, stated, block, per_step = three_step_logs(rep, 1)
    # single edges grow 8x over three steps; one factor per block matches
    assert edges == pytest.approx((math.log(8),) * 3, abs=1e-9)
    assert all(abs(e - block) <= rep.rtol for e in edges)
    # the as-published product of n+1 factors does not
    assert stated == pytest.approx(math.log(64), abs=1e-9)
    assert not any(abs(e - stated) <= rep.rtol for e in edges)
    # the per-step product tracks the triple product exactly
    assert abs(rep.log_cumulative[2] - per_step) <= rep.rtol


def test_growth_three_step_scalene_product_reading():
    tri = tri_of((0.0, 0.0), (2.0, 0.1), (0.6, 1.3))
    rep = edge_product_growth_check(tri, 9)
    for blocks in range(1, 4):
        _, _, _, per_step = three_step_logs(rep, blocks)
        assert abs(rep.log_cumulative[3 * blocks - 1] - per_step) <= rep.rtol


def test_growth_check_rejects_bad_steps():
    with pytest.raises(ValueError):
        edge_product_growth_check(RIGHT_ISOCELES, 0)


# --- JSON row templates -------------------------------------------------------


@st.composite
def json_tables(draw):
    """A document with an empty top-level list "rows", a placeholder row and
    the rows' values: finite floats for the flat keys after the index and
    for each distinct step of an optional nested dict, which may be empty
    and may name a step twice, as ``analyze --steps 2,2`` does."""
    names = draw(st.lists(st.sampled_from(["alpha", "beta", "gamma", "q"]), unique=True))
    steps = draw(st.none() | st.lists(st.integers(0, 5), max_size=5))
    row = dict.fromkeys(["index", *names], "%s")
    if steps is not None:
        row["predicted"] = dict.fromkeys(steps, "%s")
    width = len(names) + len(row.get("predicted", ()))
    n = draw(st.integers(1, 300))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (n, width), elements=finite))
    # other keys around the list, one of them a nested dict with a list of the same name
    document = {
        "n": n,
        "meta": {"rows": [draw(st.floats(allow_nan=False))], "empty": []},
        "rows": [],
        "summary": {"steps": steps, "empty": {}},
    }
    return document, row, values


def filled(row, index, values):
    """The row of ``row``'s shape that ``values`` fill in order."""
    it = iter(values.tolist())
    out = {key: index if key == "index" else next(it) for key in row if key != "predicted"}
    if "predicted" in row:
        out["predicted"] = {step: next(it) for step in row["predicted"]}
    return out


@settings(max_examples=150, deadline=None)
@given(json_tables(), st.integers(1, 7))
def test_json_rows_fill_to_json_dumps_text(case, block):
    document, row, values = case
    head, template, tail = _json_rows(document, "rows", row)
    text = np.array([[repr(v) for v in r] for r in values.tolist()], dtype=object)
    table = np.column_stack((np.arange(len(values)), text))
    with mock.patch.object(plane_geometry, "FACE_BLOCK", block):  # rows joined across blocks too
        got = head + "".join(block_rows(template, ",\n", table)) + tail
    rows = [filled(row, i, v) for i, v in enumerate(values)]
    assert got == json.dumps({**document, "rows": rows}, indent=2)
