"""Shared generators for seeded random triangles and fan meshes, the scalar
reference code, and the checks every output file writer passes."""

import errno
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
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


# --- reference scalar kernels -----------------------------------------------
# The scalar API's kernels as first written: each angle stepped on its own,
# each edge measured where it is used.  They take and return plain tuples
# (points as Point2), and the library's kernels must give their bits.

SUM_REPAIR_TOL = 1e-9
DEGENERACY_EPS = 1e-9
THIRD_PI = PI / 3.0
CLOSED_FORM_CAP = 500
STEP_CLAMP = 1100
COLLINEAR_REL_EPS = 1e-12


def reference_repair(alpha, beta, gamma):
    """AngleTriple's stored angles for these arguments (or its ValueError)."""
    total = alpha + beta + gamma
    if not math.isfinite(total) or abs(total - PI) > SUM_REPAIR_TOL:
        raise ValueError(f"triangle angles must sum to pi, got {total!r}")
    if total != PI:
        scale = PI / total
        return (alpha * scale, beta * scale, gamma * scale)
    return (alpha, beta, gamma)


def reference_is_degenerate(angles):
    lo, hi = min(angles), max(angles)
    return lo <= DEGENERACY_EPS or hi >= PI - DEGENERACY_EPS


def _reference_degenerate_check(angles):
    from trismooth import DegenerateTriangleError

    if reference_is_degenerate(angles):
        raise DegenerateTriangleError(f"degenerate input triple {tuple(angles)}")


def _reference_step(x, fixed, n):
    if n > STEP_CLAMP:
        n = STEP_CLAMP + n % 2
    return fixed + (-0.5) ** n * (x - fixed)


def reference_iterate(angles, n):
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    if n == 0:
        return tuple(angles)
    _reference_degenerate_check(angles)
    return reference_repair(*[_reference_step(x, THIRD_PI, n) for x in angles])


def reference_iterate_closed_form(angles, n):
    if n < 1:
        raise ValueError("closed-form power requires n >= 1")
    if n > CLOSED_FORM_CAP:
        return reference_iterate(angles, n)
    _reference_degenerate_check(angles)
    seq = [0, 1, 1]  # a_0, a_1, a_2
    while len(seq) <= n:
        seq.append(seq[-1] + 2 * seq[-2])
    lead = 2 * seq[n - 1] - seq[n]
    tail = float(seq[n]) * PI
    scale = float(2**n)
    a, b, g = angles
    return reference_repair(
        (lead * a + tail) / scale, (lead * b + tail) / scale, (lead * g + tail) / scale
    )


def reference_quality(angles):
    return min(angles) / max(angles)


def reference_predict_quality(angles, n, alt_even=False):
    """The quality the first predict_quality gave, degenerate triples too."""
    if n < 0:
        raise ValueError("step count must be >= 0")
    if n == 0:
        return reference_quality(angles)
    if alt_even and n % 2 == 0:
        a0, _, g0 = sorted(angles, reverse=True)
        quarter_k = _reference_step(1.0, 0.0, n)
        b = 3.0 * quarter_k / (1.0 - quarter_k)
        return (PI - b * a0) / (PI - b * g0)
    return reference_quality([_reference_step(x, THIRD_PI, n) for x in angles])


def reference_growth_factor(angles):
    _reference_degenerate_check(angles)
    a, b, g = angles
    return 1.0 / (math.sin(0.5 * a) * math.sin(0.5 * b) * math.sin(0.5 * g))


def _reference_edges(tri):
    A, B, C = tri.a_vertex, tri.b_vertex, tri.c_vertex
    return (
        math.hypot(C.x - B.x, C.y - B.y),
        math.hypot(C.x - A.x, C.y - A.y),
        math.hypot(B.x - A.x, B.y - A.y),
    )


def reference_is_collinear(tri):
    A, B, C = tri.a_vertex, tri.b_vertex, tri.c_vertex
    corners = (A, B, C)
    longest = max(_reference_edges(tri))
    longest_sq = longest * longest
    if longest_sq == math.inf:
        raise OverflowError(f"squared edge length overflows for vertices {corners}")
    if longest_sq < sys.float_info.min and longest > 0.0:
        raise ArithmeticError(f"squared edge length underflows for vertices {corners}")
    twice_area = (B.x - A.x) * (C.y - A.y) - (B.y - A.y) * (C.x - A.x)
    return abs(twice_area) <= COLLINEAR_REL_EPS * longest_sq


def _reference_collinear_check(tri):
    from trismooth import CollinearTriangleError

    if reference_is_collinear(tri):
        corners = (tri.a_vertex, tri.b_vertex, tri.c_vertex)
        raise CollinearTriangleError(f"collinear vertices {corners}")


def _reference_vertex_angle(p, q, r):
    ux, uy = q.x - p.x, q.y - p.y
    vx, vy = r.x - p.x, r.y - p.y
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def reference_angles_of(tri):
    """angles_of's stored angles, after the sum repair."""
    _reference_collinear_check(tri)
    A, B, C = tri.a_vertex, tri.b_vertex, tri.c_vertex
    return reference_repair(
        _reference_vertex_angle(A, B, C),
        _reference_vertex_angle(B, C, A),
        _reference_vertex_angle(C, A, B),
    )


def _reference_excenter(p, q, r, s):
    """The excenter on the interior bisector at ``p``, as (x, y): with u and v
    the unit vectors toward ``q`` and ``r`` and ``s`` the semiperimeter, p + s
    (u + v) / (1 + u . v), or at an obtuse corner p + s (u - v) turned a
    quarter, over u x v."""

    def unit(w):
        dx, dy = w.x - p.x, w.y - p.y
        norm = math.hypot(dx, dy)
        return dx / norm, dy / norm

    (ux, uy), (vx, vy) = unit(q), unit(r)
    cos_p = ux * vx + uy * vy
    if cos_p < 0.0:
        k, (dx, dy) = s / (ux * vy - uy * vx), (-(uy - vy), ux - vx)
    else:
        k, (dx, dy) = s / (1.0 + cos_p), (ux + vx, uy + vy)
    return (p.x + k * dx, p.y + k * dy)


def reference_construct_transformed(tri):
    """construct_transformed's vertices as ((x, y), (x, y), (x, y)): each
    corner's excenter in its own frame."""
    _reference_collinear_check(tri)
    a, b, c = _reference_edges(tri)
    s = 0.5 * a + 0.5 * b + 0.5 * c
    A, B, C = tri.a_vertex, tri.b_vertex, tri.c_vertex
    return (
        _reference_excenter(A, B, C, s),
        _reference_excenter(B, C, A, s),
        _reference_excenter(C, A, B, s),
    )


def outcome(fn, *args):
    """``fn(*args)``'s value, or its exception as (type, message): what two
    implementations must agree on."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


def float_bits(value):
    """Every float in ``value`` (nested tuples) as its ``float.hex``: equal
    only for the same bits, -0.0 apart from 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(float_bits(v) for v in value)
    return value


def check_output_writer(tmp_path, monkeypatch, write, rows_module, rows_kept, marker, rows="block_rows"):
    """``write(path)`` leaves every file as ``open(path, "w")`` would, but
    written over in place: over a longer file it leaves a fresh write's bytes
    and keeps the inode, the mode and a second hard link; it writes a
    symlink's target, existing or not, and ``os.devnull``.  Failing the call
    to the row function ``rows_module.<rows>`` (``block_rows`` or
    ``_field_rows``) after ``rows_kept`` calls makes it raise, leaving
    exactly the text written before: the fresh text up to ``marker``."""
    fresh_path, by_w = tmp_path / "fresh.out", tmp_path / "by_w.out"
    write(fresh_path)
    open(by_w, "w").close()
    fresh = fresh_path.read_bytes()
    assert fresh_path.stat().st_mode == by_w.stat().st_mode
    stale = b"stale tail\n" * (len(fresh) // 4 + 10)

    path, link = tmp_path / "old.out", tmp_path / "link.out"
    path.write_bytes(stale)
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    write(path)
    after = path.stat()
    assert path.read_bytes() == link.read_bytes() == fresh
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)

    for target in (path, tmp_path / "absent.out"):
        symlink = tmp_path / f"to-{target.name}"
        symlink.symlink_to(target)
        write(symlink)
        assert symlink.is_symlink() and target.read_bytes() == fresh

    write(os.devnull)
    assert not Path(os.devnull).is_file()

    real, calls = getattr(rows_module, rows), []

    def failing(*args):
        if len(calls) == rows_kept:
            raise OSError(errno.ENOSPC, "No space left on device")
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rows_module, rows, failing)
    path.write_bytes(stale)
    with pytest.raises(OSError, match="No space left"):
        write(path)
    assert path.read_bytes() == fresh[: fresh.index(marker)] != b""
