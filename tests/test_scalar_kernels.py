"""The scalar kernels give the reference kernels' bits.

``conftest`` keeps the kernels as first written, one angle and one edge at
a time.  Every float the library returns must have the same bits, and
every error the same type and message, over the edges of each parameter:
angle sums at the repair tolerance, angles at the degeneracy bounds, step
counts to 10**6 and past the clamp, near-collinear triangles and
coordinates where a squared edge leaves the float range.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trismooth import (
    AngleTriple,
    DegenerateTriangleError,
    Point2,
    TrianglePoints,
    angles_of,
    construct_transformed,
    growth_factor,
    iterate,
    iterate_closed_form,
    predict_quality,
    quality,
)

from conftest import (
    CLOSED_FORM_CAP,
    DEGENERACY_EPS,
    STEP_CLAMP,
    SUM_REPAIR_TOL,
    angle_triples,
    coordinate_triangles,
    float_bits,
    outcome,
    reference_angles_of,
    reference_construct_transformed,
    reference_growth_factor,
    reference_is_collinear,
    reference_is_degenerate,
    reference_iterate,
    reference_iterate_closed_form,
    reference_predict_quality,
    reference_quality,
    reference_repair,
)

PI = math.pi
BOUNDS = [0.0, DEGENERACY_EPS, PI - DEGENERACY_EPS, PI]
BOUNDARY_ANGLES = sorted({math.nextafter(x, d) for x in BOUNDS for d in (0.0, 4.0)} | set(BOUNDS))

steps = st.one_of(
    st.integers(0, 64),
    st.integers(0, 10**6),
    st.sampled_from(
        [CLOSED_FORM_CAP, CLOSED_FORM_CAP + 1, 10**6, 10**6 + 1, 10**30, 10**30 + 1]
        + list(range(STEP_CLAMP - 2, STEP_CLAMP + 4))
    ),
)


@st.composite
def off_sums(draw):
    """Three angles whose sum lies up to 1.5 x SUM_REPAIR_TOL from pi, the
    tolerance itself and non-finite sums included."""
    a = draw(st.floats(0.0, PI))
    b = draw(st.floats(0.0, PI - a))
    delta = draw(
        st.floats(-1.5 * SUM_REPAIR_TOL, 1.5 * SUM_REPAIR_TOL)
        | st.sampled_from([0.0, SUM_REPAIR_TOL, -SUM_REPAIR_TOL, math.inf, math.nan])
    )
    return (a, b, PI - a - b + delta)


@st.composite
def boundary_triples(draw):
    """Valid triples with one angle at, or one float from, a degeneracy bound."""
    edge = draw(st.sampled_from(BOUNDARY_ANGLES))
    other = draw(st.floats(0.0, max(0.0, PI - edge)))
    angles = [edge, other, PI - edge - other]
    return draw(st.permutations(angles))


def triples():
    valid = off_sums().filter(lambda x: math.isfinite(sum(x)) and abs(sum(x) - PI) <= SUM_REPAIR_TOL)
    return st.one_of(angle_triples().map(lambda t: t.as_tuple()), boundary_triples(), valid)


@given(angles=off_sums())
@example(angles=(PI / 2, PI / 4, PI / 4))
@example(angles=(PI, 0.0, 0.0))
@example(angles=(math.inf, -math.inf, 0.0))
@example(angles=(math.nan, 0.0, 0.0))
@settings(deadline=None)
def test_sum_repair_matches_reference(angles):
    got = outcome(lambda: AngleTriple(*angles).as_tuple())
    assert float_bits(got) == float_bits(outcome(reference_repair, *angles))


@given(angles=triples(), n=steps)
@example(angles=(PI - DEGENERACY_EPS, DEGENERACY_EPS / 2, DEGENERACY_EPS / 2), n=1)
@example(angles=(DEGENERACY_EPS, PI / 2, PI / 2 - DEGENERACY_EPS), n=STEP_CLAMP + 1)
@settings(deadline=None, max_examples=300)
def test_triple_kernels_match_reference(angles, n):
    t = AngleTriple(*angles)
    stored = t.as_tuple()
    assert float_bits(stored) == float_bits(reference_repair(*angles))
    assert t.is_degenerate() == reference_is_degenerate(stored)
    assert float_bits(quality(t).q) == float_bits(reference_quality(stored))
    assert float_bits(outcome(lambda: iterate(t, n).as_tuple())) == float_bits(
        outcome(reference_iterate, stored, n)
    )
    if n >= 1:
        assert float_bits(outcome(lambda: iterate_closed_form(t, n).as_tuple())) == float_bits(
            outcome(reference_iterate_closed_form, stored, n)
        )
    assert float_bits(outcome(lambda: growth_factor(t).f)) == float_bits(
        outcome(reference_growth_factor, stored)
    )
    for alt_even in (False, True):
        got = outcome(lambda: predict_quality(t, n, alt_even).q)
        if n >= 1 and reference_is_degenerate(stored):
            # iterate's error: a degenerate triple has no next step
            assert got == outcome(reference_iterate, stored, n)
        else:
            assert float_bits(got) == float_bits(reference_predict_quality(stored, n, alt_even))


@pytest.mark.parametrize("alt_even", [False, True])
def test_predict_quality_rejects_degenerate_triples(alt_even):
    t = AngleTriple(PI, 0.0, 0.0)
    for n in (1, 2, 10**6):
        with pytest.raises(DegenerateTriangleError, match=r"^degenerate input triple \(3\.14"):
            predict_quality(t, n, alt_even)
    assert predict_quality(t, 0, alt_even).q == 0.0
    with pytest.raises(ValueError, match="step count must be >= 0"):
        predict_quality(t, -1, alt_even)


def tri(points):
    return TrianglePoints(*(Point2(x, y) for x, y in points))


@st.composite
def near_collinear(draw):
    """C a relative height of about 1e-12 off the line AB, either side."""
    coord = st.floats(-1.0, 1.0)
    ax, ay, bx, by = (draw(coord) for _ in range(4))
    assume(math.hypot(bx - ax, by - ay) > 1e-3)
    s = draw(st.floats(-0.5, 1.5))
    h = draw(st.floats(-14.0, -10.0))
    h = draw(st.sampled_from([1.0, -1.0])) * 10.0**h
    cx = ax + s * (bx - ax) - h * (by - ay)
    cy = ay + s * (by - ay) + h * (bx - ax)
    return ((ax, ay), (bx, by), (cx, cy))


def scaled(shape, exponent):
    return tuple((x * 10.0**exponent, y * 10.0**exponent) for x, y in shape)


def triangles():
    proper = coordinate_triangles().map(lambda t: tuple((p.x, p.y) for p in t.vertices()))
    shapes = st.one_of(proper, near_collinear())
    far = st.integers(140, 160) | st.integers(-160, -140)
    return st.one_of(
        shapes,
        st.builds(scaled, shapes, far),
        st.sampled_from([((0.0, 0.0),) * 3, ((1.0, 1.0), (1.0, 1.0), (2.0, 3.0))]),
    )


@given(points=triangles())
@example(points=((0.0, 0.0), (1e154, 0.0), (0.0, 1e154)))
@example(points=((0.0, 0.0), (1e-155, 0.0), (0.0, 1e-155)))
@example(points=((0.0, 0.0), (1.0, 0.0), (0.5, 1e-13)))
# in range, but the excenter sums overflow: an OverflowError, not Point2's ValueError
@example(points=((0.0, 0.0), (0.0, 1.25e154), (-1.25e144, 1.25e154)))
# a thin obtuse triangle whose excenter weight cancels: the line route
@example(points=((0.0, 0.0), (2.0, 0.0), (0.7, 1e-8)))
@settings(deadline=None, max_examples=300)
def test_triangle_kernels_match_reference(points):
    t = tri(points)
    assert float_bits(outcome(t.is_collinear)) == float_bits(outcome(reference_is_collinear, t))
    assert float_bits(outcome(lambda: angles_of(t).as_tuple())) == float_bits(
        outcome(reference_angles_of, t)
    )
    built = outcome(
        lambda: tuple((p.x, p.y) for p in construct_transformed(t).vertices())
    )
    assert float_bits(built) == float_bits(outcome(reference_construct_transformed, t))
