"""Triangle-mesh ingestion, quality analysis, and SVG rendering.

Readers cover a minimal OFF subset (header, counts, 2D/3D vertices,
triangular faces, # comments) and an OBJ subset (v/f lines, triangles
only).  Planar 3D inputs with constant z are flattened; anything else is
rejected.  Analysis attaches the min/max-angle quality of every triangle
plus closed-form quality predictions for requested transformation steps,
and rendering emits a deterministic SVG with one quality-colored polygon
per triangle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .angle_dynamics import AngleTriple, predict_quality, quality
from .plane_geometry import Point2, TrianglePoints, angles_of

#: 3D meshes flatten only when the z span is below this (scaled) tolerance.
FLATTEN_Z_TOL = 1e-9


class MeshFormatError(ValueError):
    """Mesh file cannot be parsed under the declared format subset."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class DegenerateFace:
    """A face excluded from the model because its vertices are collinear."""

    face_index: int
    indices: tuple[int, int, int]


@dataclass(frozen=True)
class MeshModel:
    """Indexed triangle mesh; degenerate faces are kept out but on record."""

    vertices: tuple[Point2, ...]
    triangles: tuple[tuple[int, int, int], ...]
    dropped: tuple[DegenerateFace, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "triangles", tuple(tuple(t) for t in self.triangles)
        )
        object.__setattr__(self, "dropped", tuple(self.dropped))
        nv = len(self.vertices)
        if nv < 3:
            raise ValueError(f"mesh needs at least 3 vertices, got {nv}")
        for t, (i, j, k) in enumerate(self.triangles):
            for idx in (i, j, k):
                if not 0 <= idx < nv:
                    raise ValueError(
                        f"triangle {t}: vertex index {idx} out of range"
                    )
            if self.triangle_points(t).is_collinear():
                raise ValueError(f"triangle {t} is degenerate (collinear)")

    def triangle_points(self, t: int) -> TrianglePoints:
        i, j, k = self.triangles[t]
        return TrianglePoints(
            self.vertices[i], self.vertices[j], self.vertices[k]
        )


def _significant_lines(path) -> list[tuple[int, list[str]]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                out.append((lineno, text.split()))
    return out


def _flatten(
    rows: list[tuple[int, tuple[float, ...]]],
) -> list[Point2]:
    dims = {len(coords) for _, coords in rows}
    if len(dims) != 1:
        raise MeshFormatError(
            "vertex lines mix 2D and 3D coordinates",
            line=rows[0][0],
        )
    (dim,) = dims
    if dim == 2:
        return [Point2(c[0], c[1]) for _, c in rows]
    zs = [c[2] for _, c in rows]
    span = max(zs) - min(zs)
    extent = max(1.0, max(abs(v) for _, c in rows for v in c))
    if span > FLATTEN_Z_TOL * extent:
        raise MeshFormatError(
            f"3D mesh is not planar (z span {span:.3e}); only constant-z "
            "inputs are flattened",
            line=rows[0][0],
        )
    return [Point2(c[0], c[1]) for _, c in rows]


def _build_model(
    vertex_rows: list[tuple[int, tuple[float, ...]]],
    face_rows: list[tuple[int, tuple[int, int, int]]],
) -> MeshModel:
    vertices = _flatten(vertex_rows)
    nv = len(vertices)
    kept: list[tuple[int, int, int]] = []
    dropped: list[DegenerateFace] = []
    for face_index, (lineno, idx) in enumerate(face_rows):
        for i in idx:
            if not 0 <= i < nv:
                raise MeshFormatError(
                    f"face index {i} out of range (mesh has {nv} vertices)",
                    line=lineno,
                )
        tri = TrianglePoints(vertices[idx[0]], vertices[idx[1]], vertices[idx[2]])
        if tri.is_collinear():
            dropped.append(DegenerateFace(face_index, idx))
        else:
            kept.append(idx)
    return MeshModel(tuple(vertices), tuple(kept), tuple(dropped))


def _parse_floats(tokens: list[str], lineno: int, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise MeshFormatError(f"bad {what}: {exc}", line=lineno) from exc
    if not all(math.isfinite(v) for v in values):
        raise MeshFormatError(f"non-finite {what}", line=lineno)
    return values


def _load_off(path) -> MeshModel:
    lines = _significant_lines(path)
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
    body = lines[2:]
    if len(body) < nv + nf:
        raise MeshFormatError(
            f"expected {nv} vertex and {nf} face lines, found {len(body)}",
            line=lines[-1][0],
        )
    vertex_rows = []
    for lineno, tokens in body[:nv]:
        if len(tokens) not in (2, 3):
            raise MeshFormatError(
                f"vertex line must have 2 or 3 floats, got {len(tokens)}",
                line=lineno,
            )
        vertex_rows.append((lineno, _parse_floats(tokens, lineno, "vertex")))
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
    return _build_model(vertex_rows, face_rows)


def _load_obj(path) -> MeshModel:
    vertex_rows = []
    face_rows = []
    for lineno, tokens in _significant_lines(path):
        key = tokens[0]
        if key == "v":
            coords = tokens[1:]
            if len(coords) not in (2, 3):
                raise MeshFormatError(
                    f"vertex line must have 2 or 3 floats, got {len(coords)}",
                    line=lineno,
                )
            vertex_rows.append((lineno, _parse_floats(coords, lineno, "vertex")))
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
        # every other directive (vn, vt, o, g, s, usemtl, ...) is ignored
    if not vertex_rows:
        raise MeshFormatError("no vertex lines found", line=1)
    return _build_model(vertex_rows, face_rows)


def load_mesh(path, fmt: str | None = None) -> MeshModel:
    """Load a triangle mesh from an OFF or OBJ file.

    Parameters
    ----------
    path : str or Path
        File to read.
    fmt : {"off", "obj"}, optional
        Format; inferred from the filename extension when omitted.

    Returns
    -------
    MeshModel
        Validated mesh.  Degenerate (collinear) faces are excluded from
        ``triangles`` and reported in ``dropped``.

    Raises
    ------
    MeshFormatError
        On any violation of the format subset, naming the line.
    """
    if fmt is None:
        suffix = str(path).rsplit(".", 1)[-1].lower()
        fmt = suffix
    fmt = fmt.lower()
    if fmt == "off":
        return _load_off(path)
    if fmt == "obj":
        return _load_obj(path)
    raise ValueError(f"unsupported mesh format {fmt!r} (use 'off' or 'obj')")


def save_off(mesh: MeshModel, path) -> None:
    """Write the mesh as OFF with full float precision (lossless round trip)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for p in mesh.vertices:
            fh.write(f"{p.x:.17g} {p.y:.17g} 0\n")
        for i, j, k in mesh.triangles:
            fh.write(f"3 {i} {j} {k}\n")


@dataclass(frozen=True)
class TriangleRecord:
    index: int
    angles: AngleTriple
    q: float
    predicted: tuple[float, ...]


@dataclass(frozen=True)
class QualitySummary:
    count: int
    q_min: float
    q_max: float
    q_mean: float
    bin_edges: tuple[float, ...]
    bin_counts: tuple[int, ...]


@dataclass(frozen=True)
class QualityReport:
    """Per-triangle quality data plus predictions and a histogram summary."""

    predict_steps: tuple[int, ...]
    triangles: tuple[TriangleRecord, ...]
    summary: QualitySummary
    dropped: tuple[DegenerateFace, ...] = ()

    def to_dict(self) -> dict:
        return {
            "predict_steps": list(self.predict_steps),
            "triangles": [
                {
                    "index": rec.index,
                    "alpha": rec.angles.alpha,
                    "beta": rec.angles.beta,
                    "gamma": rec.angles.gamma,
                    "q": rec.q,
                    "predicted": {
                        str(s): v
                        for s, v in zip(self.predict_steps, rec.predicted)
                    },
                }
                for rec in self.triangles
            ],
            "summary": {
                "count": self.summary.count,
                "min": self.summary.q_min,
                "max": self.summary.q_max,
                "mean": self.summary.q_mean,
                "histogram": {
                    "bin_edges": list(self.summary.bin_edges),
                    "counts": list(self.summary.bin_counts),
                },
            },
            "dropped_faces": [
                {"face_index": d.face_index, "indices": list(d.indices)}
                for d in self.dropped
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        header = ["index", "alpha", "beta", "gamma", "q"]
        header += [f"q_pred_{s}" for s in self.predict_steps]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for rec in self.triangles:
                row = [
                    rec.index,
                    repr(rec.angles.alpha),
                    repr(rec.angles.beta),
                    repr(rec.angles.gamma),
                    repr(rec.q),
                ]
                row += [repr(v) for v in rec.predicted]
                writer.writerow(row)


def analyze(
    mesh: MeshModel, predict_steps: tuple[int, ...] = (), bins: int = 10
) -> QualityReport:
    """Quality report for every triangle, in index order.

    ``predict_steps`` asks for the closed-form quality after that many
    transformation steps, per triangle.  The histogram covers (0, 1]
    with ``bins`` equal bins; counts always sum to the triangle count.
    """
    steps = tuple(int(s) for s in predict_steps)
    if any(s < 0 for s in steps):
        raise ValueError("prediction steps must be >= 0")
    if bins < 1:
        raise ValueError("histogram needs at least one bin")
    if not mesh.triangles:
        raise ValueError("mesh has no valid triangles to analyze")
    records = []
    for t in range(len(mesh.triangles)):
        angles = angles_of(mesh.triangle_points(t))
        q = quality(angles).q
        predicted = tuple(predict_quality(angles, s).q for s in steps)
        records.append(TriangleRecord(t, angles, q, predicted))
    qs = np.array([rec.q for rec in records])
    counts, edges = np.histogram(qs, bins=bins, range=(0.0, 1.0))
    summary = QualitySummary(
        count=len(records),
        q_min=float(qs.min()),
        q_max=float(qs.max()),
        q_mean=float(qs.mean()),
        bin_edges=tuple(float(e) for e in edges),
        bin_counts=tuple(int(c) for c in counts),
    )
    return QualityReport(steps, tuple(records), summary, mesh.dropped)


def _parse_hex_color(text: str) -> tuple[int, int, int]:
    text = text.strip().lstrip("#")
    if len(text) != 6:
        raise ValueError(f"color must be 6 hex digits, got {text!r}")
    try:
        return (int(text[0:2], 16), int(text[2:4], 16), int(text[4:6], 16))
    except ValueError as exc:
        raise ValueError(f"bad hex color {text!r}") from exc


@dataclass(frozen=True)
class ColorMap:
    """Piecewise-linear map from quality in (0, 1] to an RGB ramp.

    The default runs red (distorted) through orange and green to blue
    (equilateral); see :meth:`default` for the exact stops.
    """

    stops: tuple[tuple[float, tuple[int, int, int]], ...]

    def __post_init__(self) -> None:
        stops = tuple((float(q), tuple(rgb)) for q, rgb in self.stops)
        object.__setattr__(self, "stops", stops)
        if len(stops) < 2:
            raise ValueError("colormap needs at least two stops")
        qs = [q for q, _ in stops]
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValueError(f"colormap stops must be strictly increasing: {qs}")
        if qs[0] < 0.0 or qs[-1] > 1.0:
            raise ValueError(f"colormap stops must lie in [0, 1]: {qs}")
        for _, rgb in stops:
            if len(rgb) != 3 or any(
                not isinstance(v, int) or not 0 <= v <= 255 for v in rgb
            ):
                raise ValueError(f"bad RGB triple {rgb!r}")

    @classmethod
    def default(cls) -> "ColorMap":
        return cls(
            (
                (0.0, (0xD7, 0x30, 0x27)),  # red
                (0.3, (0xFD, 0xAE, 0x61)),  # orange
                (0.5, (0xA6, 0xD9, 0x6A)),  # light green
                (0.8, (0x1A, 0x98, 0x50)),  # green
                (1.0, (0x31, 0x36, 0x95)),  # blue
            )
        )

    @classmethod
    def parse(cls, spec: str) -> "ColorMap":
        """Parse "q:rrggbb,q:rrggbb,..." (with or without # prefixes)."""
        stops = []
        for part in spec.split(","):
            piece = part.strip()
            if ":" not in piece:
                raise ValueError(f"colormap stop {piece!r} must be q:color")
            q_text, color_text = piece.split(":", 1)
            try:
                q = float(q_text)
            except ValueError as exc:
                raise ValueError(f"bad stop position {q_text!r}") from exc
            stops.append((q, _parse_hex_color(color_text)))
        return cls(tuple(stops))

    def color(self, q: float) -> str:
        qs = [s for s, _ in self.stops]
        if q <= qs[0]:
            rgb = self.stops[0][1]
        elif q >= qs[-1]:
            rgb = self.stops[-1][1]
        else:
            rgb = None
            for (q0, c0), (q1, c1) in zip(self.stops, self.stops[1:]):
                if q <= q1:
                    t = (q - q0) / (q1 - q0)
                    rgb = tuple(
                        int(c0[i] + t * (c1[i] - c0[i]) + 0.5) for i in range(3)
                    )
                    break
            assert rgb is not None
        return "#{:02x}{:02x}{:02x}".format(*rgb)


#: Fraction of the larger mesh dimension added around the drawing.
SVG_MARGIN_FRAC = 0.02

_SVG_WIDTH = 800.0


def render_svg(mesh: MeshModel, path, colormap: ColorMap | None = None) -> None:
    """Write a deterministic SVG: one quality-colored polygon per triangle.

    The view box fits the mesh bounds with a 2% margin; y points up.
    Output bytes depend only on the mesh and colormap, so identical
    inputs produce identical files.
    """
    cmap = colormap if colormap is not None else ColorMap.default()
    # flip y so screen orientation matches mathematical orientation
    pts = [(p.x, -p.y) for p in mesh.vertices]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y)
    if span <= 0.0:
        span = 1.0
    margin = SVG_MARGIN_FRAC * span
    vb_x = min_x - margin
    vb_y = min_y - margin
    vb_w = (max_x - min_x) + 2 * margin
    vb_h = (max_y - min_y) + 2 * margin
    height = _SVG_WIDTH * vb_h / vb_w
    stroke_width = 0.002 * span

    def fmt(v: float) -> str:
        return f"{v:.9g}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(_SVG_WIDTH)}" height="{fmt(height)}" '
        f'viewBox="{fmt(vb_x)} {fmt(vb_y)} {fmt(vb_w)} {fmt(vb_h)}">',
    ]
    for t in range(len(mesh.triangles)):
        tri = mesh.triangle_points(t)
        q = quality(angles_of(tri)).q
        fill = cmap.color(q)
        coords = " ".join(
            f"{fmt(p.x)},{fmt(-p.y)}" for p in tri.vertices()
        )
        lines.append(
            f'  <polygon points="{coords}" fill="{fill}" '
            f'stroke="#262626" stroke-width="{fmt(stroke_width)}"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
