"""Coordinate-level triangle construction and edge-growth bookkeeping.

The averaging transformation has a ruler-and-compass realization: draw
the interior angle bisectors, erect perpendiculars to them at the
vertices, and intersect those perpendiculars pairwise.  The new vertices
are the excenters of the original triangle, which gives a numerically
stable closed form.  This module implements both routes, the growth
factor that governs the (divergent) edge lengths, and the rescaling
needed to keep element areas under control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angle_dynamics import AngleTriple, DegenerateTriangleError

#: Cross products below this, relative to the squared longest edge (or the
#: product of the direction lengths), mark collinear points (parallel lines).
COLLINEAR_REL_EPS = 1e-12


class CollinearTriangleError(ValueError):
    """The operation requires three non-collinear points."""


class DegenerateIntersectionError(ValueError):
    """Two construction lines are parallel within tolerance."""


@dataclass(frozen=True, slots=True)
class Point2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(
                f"point coordinates must be finite, got ({self.x!r}, {self.y!r})"
            )


@dataclass(frozen=True)
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
        """Area small against the squared longest edge; OverflowError when
        that square overflows, since the test then decides nothing."""
        longest_sq = max(e * e for e in self.edge_lengths())
        if longest_sq == math.inf:
            raise OverflowError(
                f"squared edge length overflows for vertices {self.vertices()}"
            )
        return abs(self.doubled_signed_area()) <= COLLINEAR_REL_EPS * longest_sq


@dataclass(frozen=True)
class GrowthFactor:
    """Per-step multiplier of the edge-length triple product, > 1 always."""

    f: float

    def __float__(self) -> float:
        return self.f


def _vertex_angle(p: Point2, q: Point2, r: Point2) -> float:
    # angle at p between directions to q and to r
    ux, uy = q.x - p.x, q.y - p.y
    vx, vy = r.x - p.x, r.y - p.y
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def angles_of(tri: TrianglePoints) -> AngleTriple:
    """Inner angles of a coordinate triangle: alpha at A, beta at B, gamma at C."""
    if tri.is_collinear():
        raise CollinearTriangleError(f"collinear vertices {tri.vertices()}")
    A, B, C = tri.vertices()
    return AngleTriple(
        _vertex_angle(A, B, C), _vertex_angle(B, C, A), _vertex_angle(C, A, B)
    )


def construct_transformed(tri: TrianglePoints) -> TrianglePoints:
    """Build the transformed triangle from vertex coordinates.

    The perpendiculars to the interior bisectors intersect at the
    excenters of the input triangle, so the production path uses the
    excenter closed form directly: A' = (-a A + b B + c C) / (-a + b + c)
    and cyclically, with A' opposite the side through B and C.  The
    literal line-intersection route is available as
    :func:`construct_transformed_intersection` and must agree with this
    one to high accuracy.

    Parameters
    ----------
    tri : TrianglePoints
        Non-collinear input triangle.

    Returns
    -------
    TrianglePoints
        Triangle whose labeled angles are the pairwise means of the
        input's labeled angles.  Strictly larger in area than the input.
    """
    if tri.is_collinear():
        raise CollinearTriangleError(f"collinear vertices {tri.vertices()}")
    a, b, c = tri.edge_lengths()
    A, B, C = tri.vertices()

    def weighted(wa: float, wb: float, wc: float) -> Point2:
        w = wa + wb + wc
        return Point2(
            (wa * A.x + wb * B.x + wc * C.x) / w,
            (wa * A.y + wb * B.y + wc * C.y) / w,
        )

    return TrianglePoints(
        weighted(-a, b, c), weighted(a, -b, c), weighted(a, b, -c)
    )


def _bisector_perpendicular(
    at: Point2, toward1: Point2, toward2: Point2
) -> tuple[Point2, tuple[float, float]]:
    # interior-bisector direction from summed unit edge vectors, then a
    # quarter turn; avoids any trigonometric round trip
    d1x, d1y = toward1.x - at.x, toward1.y - at.y
    d2x, d2y = toward2.x - at.x, toward2.y - at.y
    n1 = math.hypot(d1x, d1y)
    n2 = math.hypot(d2x, d2y)
    bx = d1x / n1 + d2x / n2
    by = d1y / n1 + d2y / n2
    return at, (-by, bx)


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
    if t.is_degenerate():
        raise DegenerateTriangleError(f"degenerate input triple {t.as_tuple()}")
    s = (
        math.sin(0.5 * t.alpha)
        * math.sin(0.5 * t.beta)
        * math.sin(0.5 * t.gamma)
    )
    return GrowthFactor(1.0 / s)


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

    step: int
    edge_ratios: tuple[float, float, float]
    product_ratio: float
    factor: float
    product_matches_factor: bool


@dataclass(frozen=True)
class ThreeStepRecord:
    """Cumulative growth over 3n steps against candidate factor products.

    Logs are reported instead of raw products so long runs cannot
    overflow.  ``log_stated`` is the as-published reading
    prod_{j=0..n} f_j, ``log_block`` evaluates one factor per 3-step
    block at the block start, and ``log_per_step`` is
    prod_{j=0..3n-1} f_j (which tracks the edge-length triple product,
    not a single edge).  Mismatches are reported, never hidden.
    """

    blocks: int
    log_edge_ratios: tuple[float, float, float]
    log_product_ratio: float
    log_stated: float
    log_block: float
    log_per_step: float
    edges_match_stated: tuple[bool, bool, bool]
    edges_match_block: tuple[bool, bool, bool]
    product_matches_per_step: bool


@dataclass(frozen=True)
class GrowthReport:
    records: tuple[GrowthStepRecord, ...]
    log_cumulative: tuple[float, ...]
    three_step: tuple[ThreeStepRecord, ...]
    rtol: float


def edge_product_growth_check(
    tri: TrianglePoints, steps: int, rtol: float = 1e-9
) -> GrowthReport:
    """Verify the edge-growth law of the construction against coordinates.

    Runs ``steps`` coordinate-level constructions, measuring at each
    step j the per-edge ratios and the triple-product ratio
    (a'b'c')/(abc), which must equal the growth factor f_j computed from
    the angles at step j.  Cumulative products over every window of 3n
    steps are then compared, in log space, against the candidate
    readings of the cumulative growth law (see ThreeStepRecord).

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
        Per-step records, cumulative log growth, and 3n-step comparisons.
    """
    if steps < 1:
        raise ValueError("growth check requires steps >= 1")
    cur = rescale_to_area(tri, 1.0)
    factors: list[float] = []
    records: list[GrowthStepRecord] = []
    log_cum: list[float] = []
    edge_log_cum: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)]
    total = 0.0
    for j in range(steps):
        f_j = growth_factor(angles_of(cur)).f
        factors.append(f_j)
        new = construct_transformed(cur)
        old_edges = cur.edge_lengths()
        new_edges = new.edge_lengths()
        ratios = tuple(new_edges[i] / old_edges[i] for i in range(3))
        product_ratio = ratios[0] * ratios[1] * ratios[2]
        records.append(
            GrowthStepRecord(
                step=j,
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
        prev = edge_log_cum[-1]
        edge_log_cum.append(
            tuple(prev[i] + math.log(ratios[i]) for i in range(3))
        )
        cur = rescale_to_area(new, 1.0)

    three_step: list[ThreeStepRecord] = []
    for blocks in range(1, steps // 3 + 1):
        m = 3 * blocks
        log_edges = edge_log_cum[m]
        log_stated = math.fsum(math.log(f) for f in factors[: blocks + 1])
        log_block = math.fsum(
            math.log(factors[3 * k]) for k in range(blocks)
        )
        log_per_step = math.fsum(math.log(f) for f in factors[:m])
        three_step.append(
            ThreeStepRecord(
                blocks=blocks,
                log_edge_ratios=log_edges,
                log_product_ratio=log_cum[m - 1],
                log_stated=log_stated,
                log_block=log_block,
                log_per_step=log_per_step,
                edges_match_stated=tuple(
                    abs(log_edges[i] - log_stated) <= rtol for i in range(3)
                ),
                edges_match_block=tuple(
                    abs(log_edges[i] - log_block) <= rtol for i in range(3)
                ),
                product_matches_per_step=abs(log_cum[m - 1] - log_per_step)
                <= rtol,
            )
        )
    return GrowthReport(
        records=tuple(records),
        log_cumulative=tuple(log_cum),
        three_step=tuple(three_step),
        rtol=rtol,
    )
