"""Constrained angle transformation for single-ring fan meshes.

A fan mesh has one interior vertex joined to N boundary vertices that
form a polygon; triangle i has its apex angle alpha_i at the interior
vertex and base angles beta_i (at boundary vertex i) and gamma_i (at
boundary vertex i+1).  Keeping the mesh connected under per-triangle
transformation requires three families of constraints -- per-triangle
angle sums, the full turn at the interior vertex, and the polygon's
interior-angle budget -- which the corrected transformation preserves
by adding N-dependent constant terms to the plain pairwise means.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import astuple, dataclass, field
from functools import cached_property
from itertools import starmap

import numpy as np

from . import _text
from ._text import _distinct_text, _json_rows, _output, block_rows
from .angle_dynamics import PI, QualityValue, _ArrayValue, _store, after_steps, angle_ratio
from .angle_dynamics import _count
from .plane_geometry import Point2, _mapped

__all__ = [
    "SimpleMeshAngles", "SimpleMeshGeometry", "CorrectionTerms", "ClosureResidual",
    "MeshQuality", "MeshConstraintError", "DegenerateMeshError", "correction_terms",
    "transform_mesh", "iterate_mesh", "mesh_quality", "optimal_mesh", "optimal_quality",
    "random_mesh", "reconstruct_geometry", "load_mesh_angles", "save_mesh_angles",
]

#: Constraint families must hold within this absolute tolerance.
CONSTRAINT_TOL = 1e-10

_NAMES = ("alpha", "beta", "gamma")

#: random_mesh: Dirichlet and Beta concentration, the largest base split,
#: angle floor, and draws before failing.
RANDOM_CONCENTRATION = 8.0
RANDOM_MAX_SPLIT = 0.45
RANDOM_MIN_ANGLE = 1e-3
RANDOM_MAX_TRIES = 1000


class MeshConstraintError(ValueError):
    """Angle data violates the fan-mesh constraint equations."""


class DegenerateMeshError(ArithmeticError):
    """A transformation step produced, or would produce, a non-positive angle."""


@dataclass(frozen=True)
class CorrectionTerms:
    """Constant angle offsets that keep the constraint families invariant."""

    k_alpha: float
    k_beta: float
    k_gamma: float


#: The error for a fan of fewer than 3 triangles, as a count or as angles.
_FAN_SIZE = "fan mesh needs at least 3 triangles, got {n}"


def correction_terms(n: int) -> CorrectionTerms:
    """Correction terms for an N-triangle fan; identically zero at N = 6."""
    n = _count(n, 3, _FAN_SIZE)
    k_alpha = PI * (6 - n) / (2 * n)
    k_beta = PI * (n - 6) / (4 * n)
    return CorrectionTerms(k_alpha, k_beta, k_beta)


@dataclass(frozen=True, init=False)
class SimpleMeshAngles(_ArrayValue):
    """Angle-space state of an N-triangle fan mesh.

    Invariants, enforced on construction within ``CONSTRAINT_TOL``:
    every triangle's angles sum to pi, the apex angles sum to 2 pi, the
    beta angles sum to (N - 2) pi / 2, and every angle is strictly
    positive.  ``angles`` is the fan as one read-only (3, N) array; its rows ``alpha``, ``beta``
    and ``gamma`` are ``cached_property`` views, tuples of Python floats built when first read.
    """

    alpha: tuple[float, ...] = cached_property(lambda m: tuple(m.angles[0].tolist()))
    beta: tuple[float, ...] = cached_property(lambda m: tuple(m.angles[1].tolist()))
    gamma: tuple[float, ...] = cached_property(lambda m: tuple(m.angles[2].tolist()))
    angles: np.ndarray = field(init=False, repr=False, compare=False)
    _residuals: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, alpha: tuple[float, ...], beta: tuple[float, ...], gamma: tuple[float, ...]):
        rows = tuple(map(tuple, (alpha, beta, gamma)))
        n = len(rows[0])
        if n < 3:
            raise MeshConstraintError(_FAN_SIZE.format(n=n))
        if len(rows[1]) != n or len(rows[2]) != n:
            raise MeshConstraintError("angle lists must have equal length")
        x = np.array(rows)
        if x.dtype.kind not in "biuf":
            raise MeshConstraintError("angles must be numbers")
        x = x.astype(float)
        _store(self, angles=x, _residuals=_checked(x[None])[0])

    @property
    def n_triangles(self) -> int:
        return self.angles.shape[1]

    def constraint_residuals(self) -> np.ndarray:
        """Read-only (3,) worst triangle-, apex- and base-sum residuals, measured once."""
        return self._residuals


def _residuals(x: np.ndarray) -> np.ndarray:
    """Triangle-, apex- and base-sum residuals (B, 3) of (B, 3, N) fans."""
    b, _, n = x.shape
    sums = _row_sums(x[:, :2].reshape(2 * b, n)).reshape(b, 2)  # apex, base
    tri = np.abs(x[:, 0] + x[:, 1] + x[:, 2] - PI).max(axis=1)
    return np.column_stack((tri, np.abs(sums - [2.0 * PI, (n - 2) * PI / 2.0])))


def _row_sums(v: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of ``v`` (B, N), positive and finite values.

    Each value splits exactly into h on a grid of 2**-c and the rest v - h.
    With b = (N - 1).bit_length() and the block's frexp exponents spanning at
    most 53 - 2b, either part's N values are integers times one power of two,
    subnormals too, whose sum fits 53 bits: every partial sum is exact in any
    order, and adding the two sums rounds the exact sum half to even, as fsum
    does.  A wider span, or a block under 256 values (where it is faster),
    takes fsum row by row.
    """
    if v.size >= 256:
        e_min, e_max = np.frexp([v.min(), v.max()])[1].tolist()
        b = (v.shape[1] - 1).bit_length()
        if e_max - e_min + 2 * b <= 53:
            c = 53 - b - e_max  # h * 2**c < 2**(53 - b); ldexp, as 2.0**c can overflow
            h = np.ldexp(np.floor(np.ldexp(v, c)), -c)
            return h.sum(axis=1) + (v - h).sum(axis=1)
    return np.array([math.fsum(row) for row in v.tolist()])


def _checked(x: np.ndarray, transformed: bool = False) -> np.ndarray:
    """Check (B, 3, N) fans in order and return their (B, 3) residuals.

    The first fan that fails raises: with ``transformed``, a non-positive
    angle as DegenerateMeshError; then a non-finite or non-positive angle,
    or a residual above ``CONSTRAINT_TOL``, as MeshConstraintError.
    Triangles are searched in order, and alpha, beta, gamma within each.
    """
    ok = np.isfinite(x) & (x > 0.0)
    fails = ~ok.all(axis=(1, 2))
    first = int(fails.argmax()) if fails.any() else len(x)
    res = _residuals(x[:first])  # finite, positive fans only
    over = res.max(axis=1) > CONSTRAINT_TOL
    if over.any():
        tri, apex, base = res[over.argmax()]
        raise MeshConstraintError(
            "constraint equations violated: worst residuals "
            f"triangle_sum={tri:.3e} apex_sum={apex:.3e} base_sum={base:.3e}"
        )
    if first < len(x):
        fan, bad = x[first].T, ~ok[first].T  # (N, 3): triangle-major
        if transformed and (fan <= 0.0).any():
            i, j = divmod(int((fan <= 0.0).argmax()), 3)
            raise DegenerateMeshError(
                f"triangle {i}: transformed {_NAMES[j]} = {fan[i, j]:.6g} <= 0"
            )
        i, j = divmod(int(bad.argmax()), 3)
        raise MeshConstraintError(
            f"triangle {i}: {_NAMES[j]} = {fan[i, j].item()!r} is not positive"
        )
    return res


def _fan(x: np.ndarray, transformed: bool = False) -> SimpleMeshAngles:
    """The fan of the (3, N) float array ``x``, checked by ``_checked`` and
    kept as it is, without the constructor's reading of lists."""
    fan = SimpleMeshAngles.__new__(SimpleMeshAngles)
    return _store(fan, angles=x, _residuals=_checked(x[None], transformed)[0])


@dataclass(frozen=True, eq=False)
class MeshQuality(_ArrayValue):
    """Per-triangle min/max angle ratios (N,), read-only, and their min/max ratio."""

    ratios: np.ndarray
    mesh_q: float

    @property
    def per_triangle(self) -> tuple[QualityValue, ...]:
        return tuple(map(QualityValue, self.ratios.tolist()))


@dataclass(frozen=True)
class ClosureResidual:
    """How far reconstructed coordinates are from closing up.

    ``radius`` is |r_{N+1} - r_1| / r_1 from chaining the law of sines
    around the fan; ``turn`` is the raw apex-angle sum minus 2 pi.  Both
    are data, not errors: a mesh can satisfy the angle constraints and
    still fail to close geometrically.
    """

    radius: float
    turn: float


@dataclass(frozen=True, init=False)
class SimpleMeshGeometry(_ArrayValue):
    """Coordinates of a fan mesh: interior vertex plus ordered boundary.

    ``xy`` holds them as one read-only (N + 1, 2) array, the interior vertex
    first; ``inner_vertex`` and ``boundary`` are ``cached_property`` Point2
    views of it, built when first read.  The areas are measured once."""

    inner_vertex: Point2 = cached_property(lambda g: Point2(*g.xy[0].tolist()))
    boundary: tuple[Point2, ...] = cached_property(
        lambda g: tuple(starmap(Point2, g.xy[1:].tolist()))
    )
    xy: np.ndarray = field(init=False, repr=False, compare=False)
    _areas: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, inner_vertex: Point2, boundary) -> None:
        boundary = tuple(boundary)
        self._keep(np.array([(p.x, p.y) for p in (inner_vertex, *boundary)], dtype=float))
        # the views are the objects given
        _store(self, inner_vertex=inner_vertex, boundary=boundary)

    def _keep(self, xy: np.ndarray) -> SimpleMeshGeometry:
        """Check and keep (N + 1, 2) ``xy``.  Each area is ``doubled_signed_area``'s
        operations in order: overflow gives inf or NaN, and a NaN area passes."""
        if len(xy) < 4:
            raise MeshConstraintError("fan geometry needs >= 3 boundary points")
        (ax, ay), b = xy[0], xy[1:]
        c = np.roll(b, -1, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            areas = (b[:, 0] - ax) * (c[:, 1] - ay) - (b[:, 1] - ay) * (c[:, 0] - ax)
        flat = areas <= 0.0
        if flat.any():
            raise MeshConstraintError(
                f"fan triangle {int(flat.argmax())} is degenerate or flipped"
            )
        return _store(self, xy=xy, _areas=areas)

    def total_area(self) -> float:
        return math.fsum((0.5 * np.abs(self._areas)).tolist())


#: The paper's averaging matrix: each row an exact zero and two exact halves,
#: so any summation order, FMA too, rounds each angle once to 0.5 * (b + g).
_HALF_SUMS = 0.5 * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def fan_step(x: np.ndarray, k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One corrected step of a (3, N) fan: ``0.5 * [b+g, a+g, a+b] + k``.

    ``k`` is the (3, N) array of :func:`_k_rows`.  Above the subnormal
    range each angle gets the scalar expression's bits, through
    ``_HALF_SUMS``.  The result goes into ``out``, which must not overlap ``x``.
    """
    out = np.matmul(_HALF_SUMS, x, out=out)
    out += k
    return out


def _k_rows(n: int) -> np.ndarray:
    """Each angle's :func:`correction_terms` term, as a (3, N) array: a step
    adds it faster than a (3, 1) column it would broadcast."""
    return np.repeat(np.array(astuple(correction_terms(n)))[:, None], n, axis=1)


def transform_mesh(m: SimpleMeshAngles) -> SimpleMeshAngles:
    """One corrected transformation step on every triangle of the fan.

    Per triangle: alpha' = (beta + gamma)/2 + K(alpha) and cyclically,
    with the correction terms of :func:`correction_terms`.  The step
    fails loudly if any output angle is non-positive -- clamping would
    silently break the constraint identities.
    """
    return _fan(fan_step(m.angles, _k_rows(m.n_triangles)), transformed=True)


#: mesh_steps: the most steps in one (B, 3, N) block.  Fans repeat within
#: about 60 steps, and states stepped past a repeat are thrown away.
_STEP_BLOCK = 64


def mesh_steps(m: SimpleMeshAngles, steps: int) -> tuple[np.ndarray, SimpleMeshAngles]:
    """Rows (mesh_q, q_min, q_max, max_residual) for ``m`` and each of its
    ``steps`` successors, and the last fan.

    The successors are the :func:`transform_mesh` states, made by
    :func:`fan_step` ``max(1, min(64, FACE_BLOCK // N))`` steps at a time
    into one (B, 3, N) block; each block is checked, as transform_mesh
    checks, and measured in one pass.  Only the last fan becomes an object.

    Then each state of the block is compared with the state two steps
    before it.  Rounding stops the contraction within about 60 steps, and
    a step is a pure function of the fan, so once state s equals state
    s - 2, the states from s - 2 on alternate (a fixed fan is period 1 of
    that).  Stepping stops there: each later row repeats row s - 1 or s,
    and the last fan is state s or s - 1 by the parity of ``steps - s``,
    all with the bits stepping on would give.
    """
    steps = _count(steps, 0, "step count must be >= 0")
    n = m.n_triangles
    k, block = _k_rows(n), max(1, min(_STEP_BLOCK, _text.FACE_BLOCK // n))
    rows = np.empty((steps + 1, 4))
    rows[0] = _quality_rows(m.angles[None], [m.constraint_residuals().max()])
    if not steps:
        return rows, m
    # buf[:2] holds the two states before the block; before the first
    # block, NaN (equal to no state) and the start fan
    buf = np.full((min(block, steps) + 2, 3, n), np.nan)
    buf[1] = m.angles
    for start in range(1, steps + 1, block):
        b = min(block, steps + 1 - start)
        x = buf[2 : b + 2]
        for i in range(b):
            fan_step(buf[i + 1], k, out=x[i])
        res = _checked(x, transformed=True)
        rows[start : start + b] = _quality_rows(x, res.max(axis=1))
        repeats = (x == buf[:b]).all(axis=(1, 2))
        if repeats.any():
            i = int(repeats.argmax())
            s = start + i
            rows[s + 1 :] = np.resize(rows[s - 1 : s + 1], (steps - s, 4))
            fan = buf[i + 2 - (steps - s) % 2].copy()
            break
        buf[:2] = buf[b : b + 2]
    else:
        fan = x[-1].copy()
    return rows, _fan(fan, transformed=True)


def _quality_rows(x: np.ndarray, worst) -> np.ndarray:
    """(B, 4) rows of mesh_q, q_min, q_max and ``worst`` for (B, 3, N) fans."""
    r = angle_ratio(x[:, 0], x[:, 1], x[:, 2])
    q_min, q_max = r.min(axis=1), r.max(axis=1)
    return np.column_stack((q_min / q_max, q_min, q_max, worst))


def iterate_mesh(m: SimpleMeshAngles, steps: int) -> SimpleMeshAngles:
    """Apply :func:`transform_mesh` ``steps`` times, in closed form.

    Each angle's deviation from :func:`optimal_mesh` is multiplied by -1/2
    per step, so every later angle lies between the positive fixed point
    and x_0 or x_1: checking step 1 for positivity covers the whole run.
    """
    steps = _count(steps, 0, "step count must be >= 0")
    if steps == 0:
        return m
    transform_mesh(m)  # raises DegenerateMeshError if step 1 degenerates
    return _fan(after_steps(m.angles, optimal_mesh(m.n_triangles).angles, steps))


def mesh_quality(m: SimpleMeshAngles) -> MeshQuality:
    """Per-triangle min/max angle ratios and their min/max ratio in turn."""
    r = angle_ratio(*m.angles)
    return MeshQuality(r, (r.min() / r.max()).item())


def optimal_quality(n: int) -> float:
    """Per-triangle quality of the optimal N-fan: (N-2)/4 below 6, else 4/(N-2)."""
    n = _count(n, 3, _FAN_SIZE)
    if n < 6:
        return (n - 2) / 4.0
    return 4.0 / (n - 2)


def optimal_mesh(n: int) -> SimpleMeshAngles:
    """The fixed point: apex angles 2 pi / N, base angles (N-2) pi / (2N)."""
    n = _count(n, 3, _FAN_SIZE)
    apex = 2.0 * PI / n
    base = (n - 2) * PI / (2 * n)
    return SimpleMeshAngles((apex,) * n, (base,) * n, (base,) * n)


def random_mesh(n: int, rng: np.random.Generator | int) -> SimpleMeshAngles:
    """Sample a random constraint-satisfying fan mesh.

    Apex angles are a Dirichlet partition of 2 pi.  Each base sum
    s_i = pi - alpha_i splits as beta_i = s_i (1/2 + d_i) and gamma_i =
    s_i - beta_i, with d_i a centred Beta draw projected so that
    sum(s_i d_i) = 0, which makes the betas sum to (N - 2) pi / 2, and
    scaled so that |d_i| <= ``RANDOM_MAX_SPLIT``.  Draws are rejected until
    all angles -- including those of the following transformation step --
    clear ``RANDOM_MIN_ANGLE``; because deviations halve and alternate in
    sign, that single look-ahead bounds the whole trajectory away from
    zero.  DegenerateMeshError means all ``RANDOM_MAX_TRIES`` draws failed.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    k = _k_rows(n)  # raises below 3 triangles or for a non-integer n
    conc = np.full(n, RANDOM_CONCENTRATION)
    for _ in range(RANDOM_MAX_TRIES):
        alpha = rng.dirichlet(conc) * (2.0 * PI)
        alpha *= 2.0 * PI / alpha.sum()
        base = PI - alpha
        d = rng.beta(RANDOM_CONCENTRATION, RANDOM_CONCENTRATION, n) - 0.5
        d -= (base @ d) / (base @ base) * base
        d *= RANDOM_MAX_SPLIT / max(RANDOM_MAX_SPLIT, np.abs(d).max())
        beta = base * (0.5 + d)
        x = np.stack((alpha, beta, PI - alpha - beta))
        if x.min() <= RANDOM_MIN_ANGLE:
            continue
        fan = _fan(x)  # checked before the look-ahead step
        if fan_step(x, k).min() > RANDOM_MIN_ANGLE:
            return fan
    raise DegenerateMeshError(
        f"no valid random {n}-fan found in {RANDOM_MAX_TRIES} draws"
    )


def reconstruct_geometry(
    m: SimpleMeshAngles, first_radius: float
) -> tuple[SimpleMeshGeometry, ClosureResidual]:
    """Place the fan in coordinates and report how well it closes.

    The interior vertex sits at the origin and boundary vertex 1 at
    ``first_radius`` along +x.  Each next direction turns by alpha_i and
    each next radius follows the law of sines,
    r_{i+1} = r_i sin(beta_i) / sin(gamma_i).  Turning is scaled by
    2 pi / (apex sum) to close exactly (that sum is within ``CONSTRAINT_TOL``
    of 2 pi for every mesh); the residuals report the raw mismatches.
    The fan is valid, so a point or triangle that fails its check has left
    the float range: ArithmeticError, with the check's message.
    """
    if not (first_radius > 0.0) or not math.isfinite(first_radius):
        raise ValueError(f"first radius must be positive, got {first_radius!r}")
    alpha, beta, gamma = m.angles
    turn = math.fsum(alpha.tolist())
    scale = 2.0 * PI / turn
    # accumulate runs left to right: each value gets a running loop's operations
    theta = np.add.accumulate(np.concatenate(([0.0], alpha[:-1] * scale)))
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = _mapped(math.sin, beta) / _mapped(math.sin, gamma)
        r = np.multiply.accumulate(np.concatenate(([first_radius], ratios)))
        xy = np.zeros((len(alpha) + 1, 2))
        xy[1:, 0] = r[:-1] * _mapped(math.cos, theta)
        xy[1:, 1] = r[:-1] * _mapped(math.sin, theta)
    try:
        off = ~np.isfinite(xy).all(axis=1)
        if off.any():  # Point2 raises for the first point off the float range
            Point2(*xy[off.argmax()].tolist())
        geometry = SimpleMeshGeometry.__new__(SimpleMeshGeometry)._keep(xy)
    except ValueError as exc:
        raise ArithmeticError(f"cannot place the fan: {exc}") from None
    radius = abs(r[-1].item() - first_radius) / first_radius
    return geometry, ClosureResidual(radius=radius, turn=turn - 2.0 * PI)


def mesh_from_dict(data: dict) -> SimpleMeshAngles:
    """Validate and build a mesh from its interchange form (radians)."""
    if not isinstance(data, dict):
        raise MeshConstraintError("mesh document must be a JSON object")
    try:
        n = data["N"]
        triangles = data["triangles"]
    except (KeyError, TypeError) as exc:
        raise MeshConstraintError(f"mesh document missing key: {exc}") from exc
    if not isinstance(triangles, list):
        raise MeshConstraintError('"triangles" must be a list')
    if not isinstance(n, int) or n != len(triangles):
        raise MeshConstraintError(
            f'"N" = {n!r} does not match {len(triangles)} triangle records'
        )
    rows: tuple[list[float], ...] = ([], [], [])
    for i, rec in enumerate(triangles):
        if not isinstance(rec, dict):
            raise MeshConstraintError(f"triangle {i}: record must be an object")
        try:
            a, b, g = rec["alpha"], rec["beta"], rec["gamma"]
        except KeyError as exc:
            raise MeshConstraintError(
                f"triangle {i}: missing angle {exc}"
            ) from exc
        for name, v, row in zip(_NAMES, (a, b, g), rows):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise MeshConstraintError(
                    f"triangle {i}: {name} must be a number, got {v!r}"
                )
            try:
                row.append(float(v))
            except OverflowError:  # an int past the float range
                raise MeshConstraintError(
                    f"triangle {i}: {name} is an integer too large for a float"
                ) from None
    return SimpleMeshAngles(*rows)


def load_mesh_angles(path) -> SimpleMeshAngles:
    """Read and validate a fan mesh from its JSON interchange file."""
    return mesh_from_dict(_text._read_json(path))


def mesh_json_chunks(m: SimpleMeshAngles) -> Iterator[str]:
    """The interchange form of ``m``, ``{"N": N, "triangles": [{"alpha": a,
    "beta": b, "gamma": g}, ...]}``, as ``json.dumps(indent=2)`` writes it,
    in pieces.  Each distinct angle is ``repr``'d once: that is ``json``'s
    text for the angles, which ``_checked`` keeps finite and positive."""
    document = {"N": m.n_triangles, "triangles": []}
    head, row, tail = _json_rows(document, "triangles", dict.fromkeys(_NAMES, "%s"))
    yield head
    yield from block_rows(row, ",\n", _distinct_text(m.angles.T))
    yield tail


def _write_fan(chunks, fh) -> None:
    """The fan file into the open ``fh``: ``mesh_json_chunks``' text and a newline."""
    fh.writelines(chunks)
    fh.write("\n")


def save_mesh_angles(m: SimpleMeshAngles, path) -> None:
    """The interchange form of ``m`` as ``json.dump(indent=2)`` writes it,
    plus a newline."""
    with _output(path, "\n") as fh:
        _write_fan(mesh_json_chunks(m), fh)
