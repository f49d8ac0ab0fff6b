"""Shared generators for seeded random triangles and fan meshes."""

import math

import numpy as np
from hypothesis import strategies as st

from trismooth import AngleTriple, Point2, SimpleMeshAngles, TrianglePoints
from trismooth.plane_geometry import angles_of

PI = math.pi


def random_triples(count, seed, min_angle=0.05):
    """Seeded non-degenerate angle triples with a minimum-angle floor."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        batch = rng.dirichlet((1.0, 1.0, 1.0), size=2 * (count - len(out))) * PI
        for row in batch:
            if row.min() >= min_angle:
                out.append(AngleTriple(row[0], row[1], row[2]))
                if len(out) == count:
                    break
    return out


def random_triangles(count, seed, min_angle=0.05):
    """Seeded coordinate triangles whose smallest angle clears the floor."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        pts = rng.uniform(-1.0, 1.0, size=(3, 2))
        tri = TrianglePoints(
            Point2(pts[0, 0], pts[0, 1]),
            Point2(pts[1, 0], pts[1, 1]),
            Point2(pts[2, 0], pts[2, 1]),
        )
        if tri.is_collinear():
            continue
        if min(angles_of(tri).as_tuple()) < min_angle:
            continue
        out.append(tri)
    return out


def closing_mesh(n, rng, margin=0.05):
    """Random fan mesh that satisfies the constraints AND closes in space.

    The angle constraints alone do not force the chained law-of-sines
    radii around the fan to return to the start, so a one-parameter
    correction (beta[0] += s, beta[1] -= s, which keeps the beta sum) is
    solved by bisection until the log of the radius-ratio product is
    zero.  The objective is strictly increasing in s because
    cot(beta) + cot(gamma) = sin(beta + gamma) / (sin(beta) sin(gamma)) > 0.
    """
    conc = np.full(n, 8.0)
    floor = 0.01
    while True:
        alpha = rng.dirichlet(conc) * (2.0 * PI)
        alpha *= 2.0 * PI / alpha.sum()
        beta = rng.dirichlet(conc) * ((n - 2) * PI / 2.0)
        beta *= (n - 2) * PI / 2.0 / beta.sum()
        gamma = PI - alpha - beta
        if min(alpha.min(), beta.min(), gamma.min()) <= margin:
            continue

        def objective(s):
            b0, b1 = beta[0] + s, beta[1] - s
            g0, g1 = PI - alpha[0] - b0, PI - alpha[1] - b1
            total = math.fsum(
                math.log(math.sin(b)) - math.log(math.sin(g))
                for b, g in zip(beta[2:], gamma[2:])
            )
            return (
                total
                + math.log(math.sin(b0))
                - math.log(math.sin(g0))
                + math.log(math.sin(b1))
                - math.log(math.sin(g1))
            )

        lo = max(floor - beta[0], floor - gamma[1])
        hi = min(gamma[0] - floor, beta[1] - floor)
        if objective(lo) > 0.0 or objective(hi) < 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if objective(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        s = 0.5 * (lo + hi)
        beta[0] += s
        beta[1] -= s
        gamma = PI - alpha - beta
        return SimpleMeshAngles(tuple(alpha), tuple(beta), tuple(gamma))


def mesh_to_dict(m):
    """A fan's interchange form, {"N": ..., "triangles": [{"alpha": ...}, ...]}:
    the document the JSON writers are compared with."""
    return {
        "N": m.n_triangles,
        "triangles": [
            {"alpha": a, "beta": b, "gamma": g} for a, b, g in zip(m.alpha, m.beta, m.gamma)
        ],
    }


@st.composite
def angle_triples(draw, min_angle=0.05):
    """Hypothesis strategy for valid, comfortably non-degenerate triples."""
    a = draw(st.floats(min_angle, PI - 2 * min_angle))
    b = draw(st.floats(min_angle, PI - a - min_angle))
    return AngleTriple(a, b, PI - a - b)


@st.composite
def coordinate_triangles(draw, min_angle=0.05):
    """Hypothesis strategy for well-conditioned coordinate triangles."""
    t = draw(angle_triples(min_angle=min_angle))
    # place by two angles: A at origin, B at (1, 0), C above the base
    tan_a = math.tan(t.alpha)
    tan_b = math.tan(t.beta)
    x = tan_b / (tan_a + tan_b)
    y = x * tan_a
    return TrianglePoints(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(x, y))
