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
from dataclasses import astuple, dataclass, field

import numpy as np

from .angle_dynamics import PI, AngleTriple, QualityValue, after_steps, angle_ratio
from .plane_geometry import FACE_BLOCK, Point2, TrianglePoints, block_rows

#: Constraint families must hold within this absolute tolerance.
CONSTRAINT_TOL = 1e-10

_NAMES = ("alpha", "beta", "gamma")

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
    positive.  ``angles`` is the same fan as one read-only (3, N) array,
    rows alpha, beta, gamma; the tuples hold Python floats.
    """

    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    angles: np.ndarray = field(init=False, repr=False, compare=False)
    _residuals: ConstraintResiduals = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, (self.alpha, self.beta, self.gamma)))
        n = len(rows[0])
        if n < 3:
            raise MeshConstraintError(
                f"fan mesh needs at least 3 triangles, got {n}"
            )
        if len(rows[1]) != n or len(rows[2]) != n:
            raise MeshConstraintError("angle lists must have equal length")
        x = np.array(rows)
        if x.dtype.kind not in "biuf":
            raise MeshConstraintError("angles must be numbers")
        x = x.astype(float)
        self._hold(x, _checked(x[None])[0])

    @classmethod
    def _from_checked(cls, x: np.ndarray, residuals: np.ndarray) -> SimpleMeshAngles:
        """The fan of (3, N) array ``x``, which ``_checked`` has passed."""
        m = cls.__new__(cls)
        m._hold(x, residuals)
        return m

    def _hold(self, x: np.ndarray, residuals: np.ndarray) -> None:
        x.flags.writeable = False
        values = (*map(tuple, x.tolist()), x, ConstraintResiduals(*residuals.tolist()))
        for name, value in zip((*_NAMES, "angles", "_residuals"), values):
            object.__setattr__(self, name, value)

    @property
    def n_triangles(self) -> int:
        return len(self.alpha)

    def triangle(self, i: int) -> AngleTriple:
        return AngleTriple(self.alpha[i], self.beta[i], self.gamma[i])

    def constraint_residuals(self) -> ConstraintResiduals:
        """The residuals measured when the mesh was built."""
        return self._residuals


def _residuals(x: np.ndarray) -> np.ndarray:
    """Triangle-, apex- and base-sum residuals (B, 3) of (B, 3, N) fans."""
    n = x.shape[-1]
    return np.column_stack(
        (
            np.abs(x[:, 0] + x[:, 1] + x[:, 2] - PI).max(axis=1),
            [abs(math.fsum(a) - 2.0 * PI) for a in x[:, 0].tolist()],
            [abs(math.fsum(b) - (n - 2) * PI / 2.0) for b in x[:, 1].tolist()],
        )
    )


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


@dataclass(frozen=True, eq=False)
class MeshQuality:
    """Per-triangle min/max angle ratios (N,) and their min/max ratio."""

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

    def total_area(self) -> float:
        return math.fsum(t.area() for t in self.triangles())


def fan_step(x: np.ndarray, k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One corrected step of a (3, N) fan: ``0.5 * [b+g, a+g, a+b] + k``.

    ``k`` is the (3, 1) column of :func:`correction_terms`.  Each angle
    gets the scalar expression's operations in its order, so its bits.
    """
    out = np.add(x[[1, 0, 0]], x[[2, 2, 1]], out=out)
    out *= 0.5
    out += k
    return out


def _k_column(n: int) -> np.ndarray:
    return np.array(astuple(correction_terms(n)))[:, None]


def transform_mesh(m: SimpleMeshAngles) -> SimpleMeshAngles:
    """One corrected transformation step on every triangle of the fan.

    Per triangle: alpha' = (beta + gamma)/2 + K(alpha) and cyclically,
    with the correction terms of :func:`correction_terms`.  The step
    fails loudly if any output angle is non-positive -- clamping would
    silently break the constraint identities.
    """
    x = fan_step(m.angles, _k_column(m.n_triangles))
    return SimpleMeshAngles._from_checked(x, _checked(x[None], transformed=True)[0])


def mesh_steps(m: SimpleMeshAngles, steps: int) -> tuple[np.ndarray, SimpleMeshAngles]:
    """Rows (mesh_q, q_min, q_max, max_residual) for ``m`` and each of its
    ``steps`` successors, and the last fan.

    The successors are the :func:`transform_mesh` states, made by
    :func:`fan_step` ``max(1, FACE_BLOCK // N)`` steps at a time into one
    (B, 3, N) block; each block is checked, as transform_mesh checks,
    and measured in one pass.  Only the last fan becomes an object.
    """
    if steps < 0:
        raise ValueError("step count must be >= 0")
    n = m.n_triangles
    k, block = _k_column(n), max(1, FACE_BLOCK // n)
    rows = np.empty((steps + 1, 4))
    rows[0] = _quality_rows(m.angles[None], [m.constraint_residuals().max()])
    buf = np.empty((min(block, steps), 3, n))
    fan = m.angles
    for start in range(1, steps + 1, block):
        x = buf[: min(block, steps + 1 - start)]
        for out in x:
            fan = fan_step(fan, k, out=out)
        res = _checked(x, transformed=True)
        rows[start : start + len(x)] = _quality_rows(x, res.max(axis=1))
    if not steps:
        return rows, m
    return rows, SimpleMeshAngles._from_checked(fan.copy(), res[-1])


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
    if steps < 0:
        raise ValueError("step count must be >= 0")
    if steps == 0:
        return m
    transform_mesh(m)  # raises DegenerateMeshError if step 1 degenerates
    fixed = optimal_mesh(m.n_triangles).angles
    return SimpleMeshAngles(*after_steps(m.angles, fixed, steps).tolist())


def mesh_quality(m: SimpleMeshAngles) -> MeshQuality:
    """Per-triangle min/max angle ratios and their min/max ratio in turn."""
    r = angle_ratio(*m.angles)
    return MeshQuality(r, (r.min() / r.max()).item())


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
    k = _k_column(n)
    for _ in range(RANDOM_MAX_TRIES):
        alpha = rng.dirichlet(conc) * (2.0 * PI)
        alpha *= 2.0 * PI / alpha.sum()
        beta = rng.dirichlet(conc) * ((n - 2) * PI / 2.0)
        beta *= (n - 2) * PI / 2.0 / beta.sum()
        x = np.stack((alpha, beta, PI - alpha - beta))
        if x.min() <= RANDOM_MIN_ANGLE:
            continue
        residuals = _checked(x[None])[0]
        if fan_step(x, k).min() <= RANDOM_MIN_ANGLE:
            continue
        return SimpleMeshAngles._from_checked(x, residuals)
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
    with open(path, "r", encoding="utf-8-sig") as fh:
        data = json.load(fh)
    return mesh_from_dict(data)


def save_mesh_angles(m: SimpleMeshAngles, path) -> None:
    """``mesh_to_dict(m)`` as ``json.dump(indent=2)`` writes it, plus a newline."""
    row = '    {\n      "alpha": %r,\n      "beta": %r,\n      "gamma": %r\n    }'
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{\n  "N": %d,\n  "triangles": [\n' % m.n_triangles)
        fh.writelines(block_rows(row, ",\n", m.angles.T))
        fh.write("\n  ]\n}\n")
