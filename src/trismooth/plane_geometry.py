"""Coordinate-level triangle construction and edge-growth bookkeeping.

The averaging transformation has a ruler-and-compass realization: draw
the interior angle bisectors, erect perpendiculars to them at the
vertices, and intersect those perpendiculars pairwise.  The new vertices
are the excenters of the original triangle, which each corner's own
frame builds stably.  This module implements both routes, the growth
factor that governs the (divergent) edge lengths, and the rescaling
needed to keep element areas under control.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._text import FACE_BLOCK
from .angle_dynamics import AngleTriple, _count, _field_setters, _nondegenerate, _setstate

__all__ = [
    "Point2", "TrianglePoints", "GrowthFactor", "GrowthReport",
    "CollinearTriangleError", "angles_of", "construct_transformed",
    "construct_transformed_intersection", "growth_factor", "edge_product_growth_check",
    "rescale_to_area",
]

#: Cross products below this, relative to the squared longest edge (or the
#: product of the direction lengths), mark collinear points (parallel lines).
COLLINEAR_REL_EPS = 1e-12

class CollinearTriangleError(ValueError):
    """The operation requires three non-collinear points."""


class DegenerateIntersectionError(ArithmeticError):
    """Two construction lines are parallel within tolerance: for a triangle
    past the collinearity test, a numeric failure."""


@dataclass(frozen=True, slots=True, init=False)
class Point2:
    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point coordinates must be finite, got ({x!r}, {y!r})")
        _set_x(self, x)
        _set_y(self, y)


_set_x, _set_y = _field_setters(Point2)


@dataclass(frozen=True, slots=True)
class TrianglePoints:
    """A planar triangle as three labeled vertices A, B, C.

    Edge lengths follow the opposite-vertex convention: a = |BC|,
    b = |AC|, c = |AB|.  Collinear point sets can be represented (so
    they can be detected and reported); operations that need a proper
    triangle raise CollinearTriangleError.
    """

    a_vertex: Point2
    b_vertex: Point2
    c_vertex: Point2

    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.a_vertex, self.b_vertex, self.c_vertex)

    def edge_lengths(self) -> tuple[float, float, float]:
        """(a, b, c) = (|BC|, |AC|, |AB|)."""
        A, B, C = self.vertices()
        return (
            math.hypot(C.x - B.x, C.y - B.y),
            math.hypot(C.x - A.x, C.y - A.y),
            math.hypot(B.x - A.x, B.y - A.y),
        )

    def doubled_signed_area(self) -> float:
        A, B, C = self.vertices()
        return (B.x - A.x) * (C.y - A.y) - (B.y - A.y) * (C.x - A.x)

    def area(self) -> float:
        return 0.5 * abs(self.doubled_signed_area())

    def centroid(self) -> Point2:
        A, B, C = self.vertices()
        return Point2((A.x + B.x + C.x) / 3.0, (A.y + B.y + C.y) / 3.0)

    def is_collinear(self) -> bool:
        """Area small against the squared longest edge; an ArithmeticError
        when that square leaves the float range (see ``_out_of_range``)."""
        return _measure(self)[0]


def _measure(tri: TrianglePoints) -> tuple:
    """One pass over ``tri``'s edges: whether it is flat, its edge lengths
    (a, b, c), and the edge vectors BC, AC, AB as (ax, ay, bx, by, cx, cy),
    each taken once; raises as ``is_collinear`` does."""
    A, B, C = tri.a_vertex, tri.b_vertex, tri.c_vertex
    ax, ay = C.x - B.x, C.y - B.y
    bx, by = C.x - A.x, C.y - A.y
    cx, cy = B.x - A.x, B.y - A.y
    edges = (math.hypot(ax, ay), math.hypot(bx, by), math.hypot(cx, cy))
    longest = max(edges)
    longest_sq = longest * longest
    if _out_of_range(longest_sq, longest):
        raise _range_error(longest_sq, (A, B, C))
    return _flat(cx * by - cy * bx, longest_sq), edges, (ax, ay, bx, by, cx, cy)


def _flat(twice_area, longest_sq):
    """The collinearity test, for one triangle's floats or arrays of faces."""
    return abs(twice_area) <= COLLINEAR_REL_EPS * longest_sq


def _out_of_range(longest_sq, longest):
    """Where a squared longest edge is inf, or below ``sys.float_info.min``
    from a nonzero edge: there the collinearity test and the angles decide
    nothing.  Coincident vertices (longest edge 0) stay in range, and
    collinear.  One triangle's floats or arrays of faces."""
    return (longest_sq == math.inf) | ((longest_sq < sys.float_info.min) & (longest > 0.0))


def _range_error(longest_sq: float, corners) -> ArithmeticError:
    if longest_sq == math.inf:
        return OverflowError(f"squared edge length overflows for vertices {corners}")
    return ArithmeticError(f"squared edge length underflows for vertices {corners}")


@dataclass(frozen=True, slots=True)
class GrowthFactor:
    """Per-step multiplier of the edge-length triple product, > 1 always."""

    f: float


GrowthFactor.__setstate__ = TrianglePoints.__setstate__ = _setstate


def angles_of(tri: TrianglePoints) -> AngleTriple:
    """Inner angles of a coordinate triangle: alpha at A, beta at B, gamma at C.

    Each is atan2(|u x v|, u . v) of the two edges leaving its corner, some
    of them reversed edge vectors: exact negations, and |u x v| > 0 past
    the flatness test, so each angle keeps its bits."""
    flat, _, (ax, ay, bx, by, cx, cy) = _measure(tri)
    if flat:
        raise CollinearTriangleError(f"collinear vertices {tri.vertices()}")
    return AngleTriple(
        math.atan2(abs(cx * by - cy * bx), cx * bx + cy * by),  # AB, AC
        math.atan2(abs(ay * cx - ax * cy), -(ax * cx + ay * cy)),  # BC, -AB
        math.atan2(abs(bx * ay - by * ax), bx * ax + by * ay),  # -AC, -BC
    )


def _mapped(fn, x: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    # math's functions (hypot, atan2, sin, cos), not numpy's: those differ in the last bit
    values = map(fn, x.flat, *(a.flat for a in rest))
    return np.fromiter(values, dtype=float, count=x.size).reshape(x.shape)


def _measure_block(xy: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, y = xy[faces, 0], xy[faces, 1]
    # as Python floats do, overflow quietly: the range test below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        # at each corner, u runs to the next corner and v to the one after;
        # u is also the edge AB, BC or CA
        ux, uy = x[:, [1, 2, 0]] - x, y[:, [1, 2, 0]] - y
        vx, vy = x[:, [2, 0, 1]] - x, y[:, [2, 0, 1]] - y
        cross, dot = np.abs(ux * vy - uy * vx), ux * vx + uy * vy
        # hypot, within an ulp, orders the edges as their squares do: only
        # an edge whose square is within 2**-40 of its face's largest can
        # be the longest, unless that square is inf or near underflow
        sq = ux * ux + uy * uy
        top = sq.max(axis=1, keepdims=True)
        near = (sq >= top * (1.0 - 2.0**-40)) | (top == math.inf) | (top < 1e-280)
        lengths = np.zeros(sq.shape)
        lengths[near] = _mapped(math.hypot, ux[near], uy[near])
        longest = lengths.max(axis=1)
        longest_sq = longest * longest
    out = np.flatnonzero(_out_of_range(longest_sq, longest))
    if out.size:
        corners = tuple(Point2(*p) for p in xy[faces[out[0]]].tolist())
        raise _range_error(longest_sq[out[0]], corners)
    return _flat(cross[:, 0], longest_sq), _mapped(math.atan2, cross, dot)


def measure_faces(xy: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collinearity flags (F,) and inner angles (F, 3) of many triangles at once.

    ``faces`` holds vertex indices into ``xy`` (V, 2), corners A, B, C per
    row.  This is ``is_collinear`` and ``angles_of`` over arrays, each angle
    from the directions its corner sends to the next two, so each face gets
    the scalar path's bits.
    The angles are alpha, beta, gamma before AngleTriple's sum repair.
    Raises as ``is_collinear`` does, for the first face out of float range.
    """
    flat, angles = np.empty(len(faces), dtype=bool), np.empty((len(faces), 3))
    for start in range(0, len(faces), FACE_BLOCK):
        block = slice(start, start + FACE_BLOCK)
        flat[block], angles[block] = _measure_block(xy, faces[block])
    return flat, angles


def construct_transformed(tri: TrianglePoints) -> TrianglePoints:
    """The transformed triangle: its labeled angles are the pairwise means of
    ``tri``'s, and its area is strictly larger (CollinearTriangleError for a
    collinear ``tri``).

    Its vertices are the excenters of ``tri``, where the perpendiculars to
    the interior bisectors meet; A' is the one on A's bisector, opposite
    the side through B and C, and cyclically.  Each is built in its
    corner's own frame: with u and v the unit vectors along the edges
    leaving P, d = u . v and s the semiperimeter, it is P + s (u + v) /
    (1 + d), or at an obtuse corner (d < 0) the equal P + s (u - v) turned
    a quarter, over u x v.  No two nearly opposite vectors are added, so
    every shape, thin obtuse or with one tiny angle too, gets the pairwise
    means to about 1e-15 rad.
    """
    flat, (a, b, c), (ax, ay, bx, by, cx, cy) = _measure(tri)
    if flat:
        raise CollinearTriangleError(f"collinear vertices {tri.vertices()}")
    # |P' - P| = s / cos(P/2), which the range and flatness tests keep finite
    s = 0.5 * a + 0.5 * b + 0.5 * c
    ax, ay, bx, by, cx, cy = ax / a, ay / a, bx / b, by / b, cx / c, cy / c
    return TrianglePoints(
        _excenter(tri.a_vertex, cx, cy, bx, by, s),  # AB, AC
        _excenter(tri.b_vertex, ax, ay, -cx, -cy, s),  # BC, -AB
        _excenter(tri.c_vertex, -bx, -by, -ax, -ay, s),  # -AC, -BC
    )


def _excenter(p: Point2, ux: float, uy: float, vx: float, vy: float, s: float) -> Point2:
    """The excenter on the bisector at ``p`` of unit edge vectors u and v."""
    d = ux * vx + uy * vy
    if d >= 0.0:
        k = s / (1.0 + d)
        return Point2(p.x + k * (ux + vx), p.y + k * (uy + vy))
    k = s / (ux * vy - uy * vx)
    return Point2(p.x - k * (uy - vy), p.y + k * (ux - vx))


def _bisector_perpendicular(
    at: Point2, toward1: Point2, toward2: Point2
) -> tuple[Point2, tuple[float, float]]:
    # interior-bisector direction from summed unit edge vectors, then a
    # quarter turn; avoids any trigonometric round trip.  At an obtuse corner
    # that sum cancels: the difference of the unit vectors is the same line
    d1x, d1y = toward1.x - at.x, toward1.y - at.y
    d2x, d2y = toward2.x - at.x, toward2.y - at.y
    n1 = math.hypot(d1x, d1y)
    n2 = math.hypot(d2x, d2y)
    u1x, u1y, u2x, u2y = d1x / n1, d1y / n1, d2x / n2, d2y / n2
    if u1x * u2x + u1y * u2y < 0.0:
        return at, (u1x - u2x, u1y - u2y)
    return at, (-(u1y + u2y), u1x + u2x)


def _intersect_lines(
    p: Point2, d: tuple[float, float], q: Point2, e: tuple[float, float]
) -> Point2:
    denom = d[0] * e[1] - d[1] * e[0]
    scale = math.hypot(*d) * math.hypot(*e)
    if abs(denom) <= COLLINEAR_REL_EPS * scale:
        raise DegenerateIntersectionError(
            "construction lines are parallel within tolerance"
        )
    t = ((q.x - p.x) * e[1] - (q.y - p.y) * e[0]) / denom
    return Point2(p.x + t * d[0], p.y + t * d[1])


def construct_transformed_intersection(tri: TrianglePoints) -> TrianglePoints:
    """Literal construction: intersect the perpendiculars to the bisectors.

    At each vertex the interior-bisector direction is rotated a quarter
    turn to get a line through that vertex; A' is the intersection of
    the lines at B and C, B' of those at A and C, C' of those at A and B.
    Serves as the independent cross-check for
    :func:`construct_transformed`.
    """
    if tri.is_collinear():
        raise CollinearTriangleError(f"collinear vertices {tri.vertices()}")
    A, B, C = tri.vertices()
    line_a = _bisector_perpendicular(A, B, C)
    line_b = _bisector_perpendicular(B, C, A)
    line_c = _bisector_perpendicular(C, A, B)
    return TrianglePoints(
        _intersect_lines(*line_b, *line_c),
        _intersect_lines(*line_a, *line_c),
        _intersect_lines(*line_a, *line_b),
    )


def growth_factor(t: AngleTriple) -> GrowthFactor:
    """1 / (sin(alpha/2) sin(beta/2) sin(gamma/2)); 8 for equilateral."""
    a, b, g = _nondegenerate(t)
    return GrowthFactor(1.0 / (math.sin(0.5 * a) * math.sin(0.5 * b) * math.sin(0.5 * g)))


def rescale_to_area(tri: TrianglePoints, target_area: float) -> TrianglePoints:
    """Uniformly scale about the centroid so the area equals ``target_area``."""
    if tri.is_collinear():
        raise CollinearTriangleError(f"collinear vertices {tri.vertices()}")
    if not (target_area > 0.0) or not math.isfinite(target_area):
        raise ValueError(f"target area must be positive, got {target_area!r}")
    s = math.sqrt(target_area / tri.area())
    cen = tri.centroid()

    def scaled(p: Point2) -> Point2:
        return Point2(cen.x + s * (p.x - cen.x), cen.y + s * (p.y - cen.y))

    return TrianglePoints(
        scaled(tri.a_vertex), scaled(tri.b_vertex), scaled(tri.c_vertex)
    )


@dataclass(frozen=True)
class GrowthStepRecord:
    """One construction step: measured edge ratios vs. the growth factor."""

    edge_ratios: tuple[float, float, float]
    product_ratio: float
    factor: float
    product_matches_factor: bool


@dataclass(frozen=True)
class GrowthReport:
    records: tuple[GrowthStepRecord, ...]
    log_cumulative: tuple[float, ...]
    rtol: float


def edge_product_growth_check(
    tri: TrianglePoints, steps: int, rtol: float = 1e-9
) -> GrowthReport:
    """Verify the edge-growth law of the construction against coordinates.

    Runs ``steps`` coordinate-level constructions, measuring at each
    step j the per-edge ratios and the triple-product ratio
    (a'b'c')/(abc), which must equal the growth factor f_j computed from
    the angles at step j.  ``log_cumulative[j]`` is the log of the
    triple-product growth over steps 0..j, the sum of log f_k for k <= j.

    Erratum to the published growth law: over 3n steps a single edge does
    not grow by prod_{j=0..n} f_j.  The equilateral triangle's edges grow
    by prod_{k<n} f_{3k} = 8^n, one factor per three-step block, where the
    published product gives 8^(n+1).  What holds for every triangle is
    that prod_{j<3n} f_j, which ``log_cumulative`` accumulates, is the
    growth of the edge-length triple product.

    The working triangle is rescaled to unit area after every step, with
    the true growth accumulated in log space, so arbitrarily long runs
    cannot overflow.

    Parameters
    ----------
    tri : TrianglePoints
        Non-collinear starting triangle.
    steps : int
        Number of construction steps, >= 1.
    rtol : float
        Relative tolerance for all match booleans.

    Returns
    -------
    GrowthReport
        Per-step records and cumulative log growth.
    """
    steps = _count(steps, 1, "growth check requires steps >= 1")
    cur = rescale_to_area(tri, 1.0)
    records: list[GrowthStepRecord] = []
    log_cum: list[float] = []
    total = 0.0
    for _ in range(steps):
        f_j = growth_factor(angles_of(cur)).f
        new = construct_transformed(cur)
        old_edges = cur.edge_lengths()
        new_edges = new.edge_lengths()
        ratios = tuple(new_edges[i] / old_edges[i] for i in range(3))
        product_ratio = ratios[0] * ratios[1] * ratios[2]
        records.append(
            GrowthStepRecord(
                edge_ratios=ratios,
                product_ratio=product_ratio,
                factor=f_j,
                product_matches_factor=math.isclose(
                    product_ratio, f_j, rel_tol=rtol
                ),
            )
        )
        total += math.log(product_ratio)
        log_cum.append(total)
        cur = rescale_to_area(new, 1.0)
    return GrowthReport(
        records=tuple(records),
        log_cumulative=tuple(log_cum),
        rtol=rtol,
    )
