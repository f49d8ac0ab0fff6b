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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .angle_dynamics import PI, AngleTriple, QualityValue, after_steps, angle_ratio
from .plane_geometry import Point2, TrianglePoints, angles_of

#: Constraint families must hold within this absolute tolerance.
CONSTRAINT_TOL = 1e-10

#: random_mesh: Dirichlet concentration, angle floor, and draws before failing.
RANDOM_CONCENTRATION = 8.0
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


def correction_terms(n: int) -> CorrectionTerms:
    """Correction terms for an N-triangle fan; identically zero at N = 6."""
    if n < 3:
        raise ValueError(f"fan mesh needs at least 3 triangles, got {n}")
    k_alpha = PI * (6 - n) / (2 * n)
    k_beta = PI * (n - 6) / (4 * n)
    return CorrectionTerms(k_alpha, k_beta, k_beta)


@dataclass(frozen=True)
class ConstraintResiduals:
    """Worst absolute violation of each constraint family."""

    triangle_sum: float
    apex_sum: float
    base_sum: float

    def max(self) -> float:
        return max(self.triangle_sum, self.apex_sum, self.base_sum)


@dataclass(frozen=True)
class SimpleMeshAngles:
    """Angle-space state of an N-triangle fan mesh.

    Invariants, enforced on construction within ``CONSTRAINT_TOL``:
    every triangle's angles sum to pi, the apex angles sum to 2 pi, the
    beta angles sum to (N - 2) pi / 2, and every angle is strictly
    positive.
    """

    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    _residuals: ConstraintResiduals = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "gamma", tuple(self.gamma))
        n = len(self.alpha)
        if n < 3:
            raise MeshConstraintError(
                f"fan mesh needs at least 3 triangles, got {n}"
            )
        if len(self.beta) != n or len(self.gamma) != n:
            raise MeshConstraintError("angle lists must have equal length")
        for i in range(n):
            for name in ("alpha", "beta", "gamma"):
                v = getattr(self, name)[i]
                if not (math.isfinite(v) and v > 0.0):
                    raise MeshConstraintError(
                        f"triangle {i}: {name} = {v!r} is not positive"
                    )
        a, b, g = self.alpha, self.beta, self.gamma
        res = ConstraintResiduals(
            max(abs(a[i] + b[i] + g[i] - PI) for i in range(n)),
            abs(math.fsum(a) - 2.0 * PI),
            abs(math.fsum(b) - (n - 2) * PI / 2.0),
        )
        object.__setattr__(self, "_residuals", res)
        if res.max() > CONSTRAINT_TOL:
            raise MeshConstraintError(
                "constraint equations violated: worst residuals "
                f"triangle_sum={res.triangle_sum:.3e} "
                f"apex_sum={res.apex_sum:.3e} base_sum={res.base_sum:.3e}"
            )

    @property
    def n_triangles(self) -> int:
        return len(self.alpha)

    def triangle(self, i: int) -> AngleTriple:
        return AngleTriple(self.alpha[i], self.beta[i], self.gamma[i])

    def constraint_residuals(self) -> ConstraintResiduals:
        """The residuals measured when the mesh was built."""
        return self._residuals


@dataclass(frozen=True)
class MeshQuality:
    """Per-triangle qualities and their min/max ratio."""

    per_triangle: tuple[QualityValue, ...]
    mesh_q: float


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


@dataclass(frozen=True)
class SimpleMeshGeometry:
    """Coordinates of a fan mesh: interior vertex plus ordered boundary."""

    inner_vertex: Point2
    boundary: tuple[Point2, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundary", tuple(self.boundary))
        if len(self.boundary) < 3:
            raise MeshConstraintError("fan geometry needs >= 3 boundary points")
        for i in range(len(self.boundary)):
            if self.triangle(i).doubled_signed_area() <= 0.0:
                raise MeshConstraintError(
                    f"fan triangle {i} is degenerate or flipped"
                )

    @property
    def n_triangles(self) -> int:
        return len(self.boundary)

    def triangle(self, i: int) -> TrianglePoints:
        nxt = self.boundary[(i + 1) % len(self.boundary)]
        return TrianglePoints(self.inner_vertex, self.boundary[i], nxt)

    def triangles(self) -> tuple[TrianglePoints, ...]:
        return tuple(self.triangle(i) for i in range(len(self.boundary)))

    def triangle_angles(self) -> tuple[AngleTriple, ...]:
        return tuple(angles_of(t) for t in self.triangles())

    def total_area(self) -> float:
        return math.fsum(t.area() for t in self.triangles())


def transform_mesh(m: SimpleMeshAngles) -> SimpleMeshAngles:
    """One corrected transformation step on every triangle of the fan.

    Per triangle: alpha' = (beta + gamma)/2 + K(alpha) and cyclically,
    with the correction terms of :func:`correction_terms`.  The step
    fails loudly if any output angle is non-positive -- clamping would
    silently break the constraint identities.
    """
    k = correction_terms(m.n_triangles)
    new_a: list[float] = []
    new_b: list[float] = []
    new_g: list[float] = []
    for i in range(m.n_triangles):
        a = 0.5 * (m.beta[i] + m.gamma[i]) + k.k_alpha
        b = 0.5 * (m.alpha[i] + m.gamma[i]) + k.k_beta
        g = 0.5 * (m.alpha[i] + m.beta[i]) + k.k_gamma
        for name, v in (("alpha", a), ("beta", b), ("gamma", g)):
            if v <= 0.0:
                raise DegenerateMeshError(
                    f"triangle {i}: transformed {name} = {v:.6g} <= 0"
                )
        new_a.append(a)
        new_b.append(b)
        new_g.append(g)
    return SimpleMeshAngles(tuple(new_a), tuple(new_b), tuple(new_g))


def iterate_mesh(m: SimpleMeshAngles, steps: int) -> SimpleMeshAngles:
    """Apply :func:`transform_mesh` ``steps`` times, in closed form.

    Each angle's deviation from :func:`optimal_mesh` is multiplied by -1/2
    per step, so every later angle lies between the positive fixed point
    and x_0 or x_1: checking step 1 for positivity covers the whole run.
    """
    if steps < 0:
        raise ValueError("step count must be >= 0")
    if steps == 0:
        return m
    transform_mesh(m)  # raises DegenerateMeshError if step 1 degenerates
    opt = optimal_mesh(m.n_triangles)
    x = np.array([m.alpha, m.beta, m.gamma])
    fixed = np.array([opt.alpha, opt.beta, opt.gamma])
    return SimpleMeshAngles(*after_steps(x, fixed, steps).tolist())


def mesh_quality(m: SimpleMeshAngles) -> MeshQuality:
    """Per-triangle min/max angle ratios and their min/max ratio in turn."""
    ratios = [angle_ratio(*abg) for abg in zip(m.alpha, m.beta, m.gamma)]
    qs = tuple(map(QualityValue, ratios))
    return MeshQuality(qs, min(ratios) / max(ratios))


def optimal_quality(n: int) -> float:
    """Per-triangle quality of the optimal N-fan: (N-2)/4 below 6, else 4/(N-2)."""
    if n < 3:
        raise ValueError(f"fan mesh needs at least 3 triangles, got {n}")
    if n < 6:
        return (n - 2) / 4.0
    return 4.0 / (n - 2)


def optimal_mesh(n: int) -> SimpleMeshAngles:
    """The fixed point: apex angles 2 pi / N, base angles (N-2) pi / (2N)."""
    if n < 3:
        raise ValueError(f"fan mesh needs at least 3 triangles, got {n}")
    apex = 2.0 * PI / n
    base = (n - 2) * PI / (2 * n)
    return SimpleMeshAngles((apex,) * n, (base,) * n, (base,) * n)


def random_mesh(n: int, rng: np.random.Generator | int) -> SimpleMeshAngles:
    """Sample a random constraint-satisfying fan mesh.

    Apex angles are a Dirichlet partition of 2 pi, beta angles a Dirichlet
    partition of (N - 2) pi / 2, and gamma completes each triangle.  Draws
    are rejected until all angles -- including those of the following
    transformation step -- clear ``RANDOM_MIN_ANGLE``; because deviations
    halve and alternate in sign, that single look-ahead bounds the whole
    trajectory away from zero.  DegenerateMeshError means all
    ``RANDOM_MAX_TRIES`` draws failed.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    if n < 3:
        raise ValueError(f"fan mesh needs at least 3 triangles, got {n}")
    conc = np.full(n, RANDOM_CONCENTRATION)
    for _ in range(RANDOM_MAX_TRIES):
        alpha = rng.dirichlet(conc) * (2.0 * PI)
        alpha *= 2.0 * PI / alpha.sum()
        beta = rng.dirichlet(conc) * ((n - 2) * PI / 2.0)
        beta *= (n - 2) * PI / 2.0 / beta.sum()
        gamma = PI - alpha - beta
        if min(alpha.min(), beta.min(), gamma.min()) <= RANDOM_MIN_ANGLE:
            continue
        mesh = SimpleMeshAngles(tuple(alpha), tuple(beta), tuple(gamma))
        try:
            nxt = transform_mesh(mesh)
        except DegenerateMeshError:
            continue
        lo = min(min(nxt.alpha), min(nxt.beta), min(nxt.gamma))
        if lo <= RANDOM_MIN_ANGLE:
            continue
        return mesh
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
    """
    if not (first_radius > 0.0) or not math.isfinite(first_radius):
        raise ValueError(f"first radius must be positive, got {first_radius!r}")
    n = m.n_triangles
    turn = math.fsum(m.alpha)
    turn_residual = turn - 2.0 * PI
    scale = 2.0 * PI / turn
    theta = 0.0
    r = first_radius
    points: list[Point2] = []
    for i in range(n):
        points.append(Point2(r * math.cos(theta), r * math.sin(theta)))
        r *= math.sin(m.beta[i]) / math.sin(m.gamma[i])
        theta += m.alpha[i] * scale
    radius_residual = abs(r - first_radius) / first_radius
    geometry = SimpleMeshGeometry(Point2(0.0, 0.0), tuple(points))
    return geometry, ClosureResidual(radius=radius_residual, turn=turn_residual)


def mesh_to_dict(m: SimpleMeshAngles) -> dict:
    """Interchange form: {"N": ..., "triangles": [{"alpha": ...}, ...]}."""
    return {
        "N": m.n_triangles,
        "triangles": [
            {"alpha": m.alpha[i], "beta": m.beta[i], "gamma": m.gamma[i]}
            for i in range(m.n_triangles)
        ],
    }


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
    alpha: list[float] = []
    beta: list[float] = []
    gamma: list[float] = []
    for i, rec in enumerate(triangles):
        if not isinstance(rec, dict):
            raise MeshConstraintError(f"triangle {i}: record must be an object")
        try:
            a, b, g = rec["alpha"], rec["beta"], rec["gamma"]
        except KeyError as exc:
            raise MeshConstraintError(
                f"triangle {i}: missing angle {exc}"
            ) from exc
        for name, v in (("alpha", a), ("beta", b), ("gamma", g)):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise MeshConstraintError(
                    f"triangle {i}: {name} must be a number, got {v!r}"
                )
        alpha.append(float(a))
        beta.append(float(b))
        gamma.append(float(g))
    return SimpleMeshAngles(tuple(alpha), tuple(beta), tuple(gamma))


def load_mesh_angles(path) -> SimpleMeshAngles:
    """Read and validate a fan mesh from its JSON interchange file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return mesh_from_dict(data)


def save_mesh_angles(m: SimpleMeshAngles, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(mesh_to_dict(m), fh, indent=2)
        fh.write("\n")
