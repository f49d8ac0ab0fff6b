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

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import compress, starmap

import numpy as np

from .angle_dynamics import (
    PI,
    SUM_REPAIR_TOL,
    THIRD_PI,
    AngleTriple,
    after_steps,
    angle_ratio,
)
from .plane_geometry import Point2, TrianglePoints, block_rows, measure_faces

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


def _first_outside(faces: np.ndarray, nv: int) -> tuple[int, int] | None:
    """The first face of ``faces`` (F, 3) with a vertex index outside ``nv``
    vertices, with that index; None when every index is inside."""
    outside = (faces < 0) | (faces >= nv)
    if not outside.any():
        return None
    t = int(outside.any(axis=1).argmax())
    return t, faces[t].tolist()[int(outside[t].argmax())]


class MeshModel:
    """Indexed triangle mesh held as arrays; degenerate faces are kept out
    but on record.

    ``xy`` holds the (V, 2) vertex coordinates and ``faces`` the (F, 3)
    int64 vertex indices of the kept faces.  Building one checks every face
    once, in array passes, and keeps what the collinearity test measured:
    ``angles``, the (F, 3) inner angles (alpha, beta, gamma per triangle,
    before AngleTriple's sum repair) that ``analyze`` and ``render_svg``
    read.  ``vertices`` (Point2s) and ``triangles`` (index tuples) are
    read-only views of ``xy`` and ``faces``, built when first read;
    equality, hashing and ``repr`` go through them.
    """

    def __init__(self, vertices, triangles, dropped: tuple[DegenerateFace, ...] = ()):
        vertices = tuple(vertices)
        triangles = tuple(tuple(t) for t in triangles)
        xy = np.array([(p.x, p.y) for p in vertices], dtype=float).reshape(-1, 2)
        faces = _index_array(triangles).reshape(len(triangles), 3)
        outside = _first_outside(faces, len(xy))
        if outside is not None:
            t, index = outside
            raise ValueError(f"triangle {t}: vertex index {index} out of range")
        flat, angles = measure_faces(xy, faces)
        if flat.any():
            raise ValueError(f"triangle {int(flat.argmax())} is degenerate (collinear)")
        self._keep(xy, faces, tuple(dropped), angles)
        # the views are the objects given
        self.__dict__.update(vertices=vertices, triangles=triangles)

    def _keep(self, xy, faces, dropped, angles) -> "MeshModel":
        """Store the checked faces and their angles, if there are 3 vertices."""
        if len(xy) < 3:
            raise ValueError(f"mesh needs at least 3 vertices, got {len(xy)}")
        for name, value in (("xy", xy), ("faces", faces), ("angles", angles)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dropped", dropped)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def vertices(self) -> tuple[Point2, ...]:
        return tuple(starmap(Point2, self.xy.tolist()))

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(map(tuple, self.faces.tolist()))

    def _key(self) -> tuple:
        return (self.vertices, self.triangles, self.dropped)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(vertices={self.vertices!r}, "
            f"triangles={self.triangles!r}, dropped={self.dropped!r})"
        )

    def triangle_points(self, t: int) -> TrianglePoints:
        i, j, k = self.triangles[t]
        return TrianglePoints(
            self.vertices[i], self.vertices[j], self.vertices[k]
        )


# A reader hands on blocks of lines: the significant lines of a file (its
# text with # comments cut, holding more than whitespace) and their 1-based
# line numbers.  Each block is parsed in bulk; when a bulk check fails, the
# per-line checks run over the lines only to name the first bad one.
Block = tuple[list[str], list[int]]


def _significant_lines(path) -> Block:
    with open(path, "r", encoding="utf-8-sig") as fh:
        # text mode reads CR and CRLF as "\n": these are enumerate(fh)'s lines
        lines = [line.partition("#")[0] for line in fh.read().split("\n")]
    numbers = list(compress(range(1, len(lines) + 1), map(str.strip, lines)))
    return [lines[n - 1] for n in numbers], numbers


def _coordinates(lines: list[str]) -> np.ndarray | None:
    """(V, k) floats of vertex lines holding k = 2 or 3 finite floats each;
    None if a line fails ``_vertex_row`` or the lines mix 2D and 3D."""
    counts = set(map(len, map(str.split, lines)))
    if len(counts) != 1 or not counts <= {2, 3}:
        return None
    k = counts.pop()
    try:
        coords = np.fromiter(map(float, " ".join(lines).split()), float, k * len(lines))
    except ValueError:
        return None
    return coords.reshape(-1, k) if np.isfinite(coords).all() else None


def _vertex_row(tokens: list[str], lineno: int) -> None:
    if len(tokens) not in (2, 3):
        raise MeshFormatError(
            f"vertex line must have 2 or 3 floats, got {len(tokens)}", line=lineno
        )
    try:
        values = tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise MeshFormatError(f"bad vertex: {exc}", line=lineno) from exc
    if not all(math.isfinite(v) for v in values):
        raise MeshFormatError("non-finite vertex", line=lineno)


def _flatten(coords: np.ndarray, lineno: int) -> np.ndarray:
    """(V, 2) coordinates of 2D vertices, or of 3D ones with constant z."""
    if coords.shape[1] == 3:
        span = float(coords[:, 2].max() - coords[:, 2].min())
        extent = max(1.0, float(np.abs(coords).max()))
        if span > FLATTEN_Z_TOL * extent:
            raise MeshFormatError(
                f"3D mesh is not planar (z span {span:.3e}); only constant-z "
                "inputs are flattened",
                line=lineno,
            )
    return np.ascontiguousarray(coords[:, :2])


def _index_array(values) -> np.ndarray:
    """Vertex indices (ints, three per face) as an (F, 3) array: int64, or
    object when one is past int64 (out of range, and reported exactly)."""
    try:
        return np.array(values, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        return np.array(values, dtype=object).reshape(-1, 3)


def _indices(tokens: list[str]) -> np.ndarray | None:
    """``int`` of each token, three per face; None if a token is not an int."""
    try:
        return _index_array(list(map(int, tokens)))
    except ValueError:
        return None


def _off_faces(lines: list[str]) -> np.ndarray | None:
    """(F, 3) vertex indices of OFF face lines ``3 i j k`` (later tokens,
    such as colors, are ignored); None if a line fails ``_off_face_row``."""
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    if (counts < 4).any():
        return None
    tokens = np.array(" ".join(lines).split(), dtype=object)
    first = np.cumsum(counts) - counts  # each line's first token
    if not (tokens[first] == "3").all():
        return None
    return _indices(tokens[first[:, None] + (1, 2, 3)].ravel().tolist())


def _off_face_row(tokens: list[str], lineno: int) -> None:
    if tokens[0] != "3":
        raise MeshFormatError(
            f"non-triangular face (vertex count {tokens[0]})", line=lineno
        )
    if len(tokens) < 4:
        raise MeshFormatError("face line needs 3 vertex indices", line=lineno)
    try:
        int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise MeshFormatError(f"bad face index: {exc}", line=lineno) from exc


def _read_off(lines: list[str], numbers: list[int]) -> tuple[Block, Block]:
    """The vertex and face lines of an OFF file, after its header and counts."""
    if not lines:
        raise MeshFormatError("empty file", line=1)
    tokens = lines[0].split()
    if tokens != ["OFF"]:
        raise MeshFormatError(
            f"expected 'OFF' header, got {' '.join(tokens)!r}", line=numbers[0]
        )
    if len(lines) < 2:
        raise MeshFormatError("missing counts line", line=numbers[0])
    tokens = lines[1].split()
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
    except (ValueError, IndexError) as exc:
        raise MeshFormatError(f"bad counts line: {exc}", line=numbers[1]) from exc
    if nv < 1 or nf < 0:
        raise MeshFormatError(
            f"bad counts line: need vertices >= 1 and faces >= 0, got {nv} and {nf}",
            line=numbers[1],
        )
    if len(lines) - 2 < nv + nf:
        raise MeshFormatError(
            f"expected {nv} vertex and {nf} face lines, found {len(lines) - 2}",
            line=numbers[-1],
        )
    v, f = slice(2, 2 + nv), slice(2 + nv, 2 + nv + nf)
    return (lines[v], numbers[v]), (lines[f], numbers[f])


def _obj_faces(lines: list[str]) -> np.ndarray | None:
    """(F, 3) 0-based vertex indices of OBJ face references (``i``, ``i/j``,
    ``i/j/k``; 1-based in the file); None if a line fails ``_obj_face_row``."""
    if any(len(line.split()) != 3 for line in lines):
        return None
    faces = _indices([ref.partition("/")[0] for ref in " ".join(lines).split()])
    if faces is None or not (faces >= 1).all():
        return None
    return faces - 1


def _obj_face_row(refs: list[str], lineno: int) -> None:
    if len(refs) != 3:
        raise MeshFormatError(f"non-triangular face ({len(refs)} vertices)", line=lineno)
    for ref in refs:
        head = ref.split("/", 1)[0]
        try:
            value = int(head)
        except ValueError as exc:
            raise MeshFormatError(f"bad face reference {ref!r}", line=lineno) from exc
        if value < 1:
            raise MeshFormatError(
                f"face index {value} must be positive (1-based)", line=lineno
            )


def _read_obj(lines: list[str], numbers: list[int]) -> tuple[Block, Block]:
    """The ``v`` and ``f`` lines of an OBJ file, without their directive;
    every other directive (vn, vt, o, g, s, usemtl, ...) is ignored."""
    blocks = {"v": ([], []), "f": ([], [])}
    for line, lineno in zip(lines, numbers):
        key, *rest = line.split(None, 1)
        if key in blocks:
            blocks[key][0].append(rest[0] if rest else "")
            blocks[key][1].append(lineno)
    return blocks["v"], blocks["f"]


_FORMATS = {
    "off": (_read_off, _off_faces, _off_face_row),
    "obj": (_read_obj, _obj_faces, _obj_face_row),
}


def _name_first_bad_line(vertices: Block, faces: Block, face_row) -> None:
    """Run the per-line checks over every vertex and face line in file
    order; the first line that fails raises its MeshFormatError."""
    checks = [(n, _vertex_row, line) for line, n in zip(*vertices)]
    checks += [(n, face_row, line) for line, n in zip(*faces)]
    for lineno, check, line in sorted(checks, key=lambda c: c[0]):
        check(line.split(), lineno)


def _build_model(xy: np.ndarray, faces: np.ndarray, numbers: list[int]) -> MeshModel:
    outside = _first_outside(faces, len(xy))
    if outside is not None:
        t, index = outside
        raise MeshFormatError(
            f"face index {index} out of range (mesh has {len(xy)} vertices)",
            line=numbers[t],
        )
    flat, angles = measure_faces(xy, faces)
    dropped = tuple(
        DegenerateFace(t, tuple(faces[t].tolist())) for t in np.flatnonzero(flat).tolist()
    )
    # the faces are checked and measured: skip __init__'s second pass
    return MeshModel.__new__(MeshModel)._keep(xy, faces[~flat], dropped, angles[~flat])


def load_mesh(path, fmt: str | None = None) -> MeshModel:
    """Load a triangle mesh from an OFF or OBJ file.

    Parameters
    ----------
    path : str or Path
        File to read (UTF-8, with or without a byte-order mark).
    fmt : {"off", "obj"}, optional
        Format; inferred from the filename extension when omitted.

    Returns
    -------
    MeshModel
        Validated mesh.  Degenerate (collinear) faces are excluded from
        ``faces`` and reported in ``dropped``.

    Raises
    ------
    MeshFormatError
        On any violation of the format subset, naming the line.
    """
    if fmt is None:
        suffix = str(path).rsplit(".", 1)[-1].lower()
        fmt = suffix
    if fmt.lower() not in _FORMATS:
        raise ValueError(f"unsupported mesh format {fmt!r} (use 'off' or 'obj')")
    read, parse_faces, face_row = _FORMATS[fmt.lower()]
    vertices, faces = read(*_significant_lines(path))
    coords, indices = _coordinates(vertices[0]), parse_faces(faces[0])
    if coords is None or indices is None:
        _name_first_bad_line(vertices, faces, face_row)
    if not vertices[0]:
        raise MeshFormatError("no vertex lines found", line=1)
    if coords is None:  # every line passed its own check
        raise MeshFormatError("vertex lines mix 2D and 3D coordinates", line=vertices[1][0])
    return _build_model(_flatten(coords, vertices[1][0]), indices, faces[1])


def save_off(mesh: MeshModel, path) -> None:
    """Write the mesh as OFF with full float precision (lossless round trip)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"OFF\n{len(mesh.xy)} {len(mesh.faces)} 0\n")
        fh.writelines(block_rows("%.17g %.17g 0\n", "", mesh.xy))
        fh.writelines(block_rows("3 %d %d %d\n", "", mesh.faces))


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


class _Records(Sequence):
    """A report's faces as TriangleRecords, each built when it is indexed."""

    def __init__(self, report: "QualityReport"):
        self._report = report

    def __len__(self) -> int:
        return len(self._report.q)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return tuple(map(self.__getitem__, range(len(self))[t]))
        r, t = self._report, range(len(self))[t]  # IndexError past either end
        # AngleTriple repairs the raw angles itself; repairing twice can move them
        angles = AngleTriple(*r.raw[t].tolist())
        return TriangleRecord(t, angles, r.q[t].item(), tuple(r.predicted[t].tolist()))


@dataclass(frozen=True, eq=False)
class QualityReport:
    """Per-triangle quality of a mesh, held as columns, and a histogram summary.

    ``raw`` is each face's angles as measured (F, 3), ``angles`` the same
    after AngleTriple's sum repair, ``q`` their min/max-angle quality (F,)
    and ``predicted`` the closed-form quality after each of
    ``predict_steps`` (F, S).  ``triangles[t]`` builds face t's
    TriangleRecord from them when it is indexed.  The JSON and CSV writers
    format the columns ``FACE_BLOCK`` faces at a time through ``%r``
    templates: for the finite floats a report holds, that is the text
    ``json`` and ``csv`` write.
    """

    predict_steps: tuple[int, ...]
    raw: np.ndarray
    angles: np.ndarray
    q: np.ndarray
    predicted: np.ndarray
    summary: QualitySummary
    dropped: tuple[DegenerateFace, ...] = ()

    @property
    def triangles(self) -> Sequence[TriangleRecord]:
        return _Records(self)

    def rows(self, template: str, sep: str, *columns: np.ndarray) -> Iterator[str]:
        """Each face's index and its entries of ``columns`` through
        ``template``, faces joined by ``sep``, in ``block_rows`` blocks."""
        return block_rows(template, sep, np.column_stack((np.arange(len(self.q)), *columns)))

    def json_chunks(self) -> Iterator[str]:
        """The report as ``json.dumps(indent=2)`` writes it, in pieces."""
        document = {
            "predict_steps": list(self.predict_steps),
            "triangles": [],
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
        head, _, tail = json.dumps(document, indent=2).partition('"triangles": []')
        steps = list(dict.fromkeys(self.predict_steps))  # a dict keeps one key per step
        predicted = ",".join(f'\n        "{s}": %r' for s in steps)
        template = (
            '    {\n      "index": %d,\n      "alpha": %r,\n      "beta": %r,\n'
            '      "gamma": %r,\n      "q": %r,\n      "predicted": {'
            + (predicted + "\n      " if steps else "")
            + "}\n    }"
        )
        values = self.predicted[:, [self.predict_steps.index(s) for s in steps]]
        yield head + '"triangles": [\n'
        yield from self.rows(template, ",\n", self.angles, self.q, values)
        yield "\n  ]" + tail

    def write_json(self, path) -> None:
        """``json_chunks()`` plus a newline, as ``json.dump(indent=2)`` would."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(self.json_chunks())
            fh.write("\n")

    def write_csv(self, path) -> None:
        """One row per face, as ``csv.writer`` writes it: no field needs quotes."""
        header = ["index", "alpha", "beta", "gamma", "q"]
        header += [f"q_pred_{s}" for s in self.predict_steps]
        template = ",".join(["%d"] + ["%r"] * (len(header) - 1)) + "\r\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(self.rows(template, "", self.angles, self.q, self.predicted))


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
    if not len(mesh.faces):
        raise ValueError("mesh has no valid triangles to analyze")
    angles, q = _repaired_quality(mesh.angles)
    predicted = np.empty((len(q), len(steps)))
    for i, s in enumerate(steps):
        # predict_quality's deviation form, over all faces at once
        predicted[:, i] = angle_ratio(*after_steps(angles, THIRD_PI, s).T) if s else q
    counts, edges = np.histogram(q, bins=bins, range=(0.0, 1.0))
    summary = QualitySummary(
        count=len(q),
        q_min=float(q.min()),
        q_max=float(q.max()),
        q_mean=float(q.mean()),
        bin_edges=tuple(edges.tolist()),
        bin_counts=tuple(counts.tolist()),
    )
    return QualityReport(
        steps, mesh.angles, angles, q, predicted, summary, mesh.dropped
    )


def _repaired_quality(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles (F, 3) as AngleTriple stores them, scaled to sum to pi, and
    each face's quality (F,).  A sum AngleTriple would reject raises its
    ValueError, for the first such face."""
    total = raw[:, 0] + raw[:, 1] + raw[:, 2]
    far = ~(np.abs(total - PI) <= SUM_REPAIR_TOL)  # NaN and inf are far too
    if far.any():
        got = total[far.argmax()].item()
        raise ValueError(f"triangle angles must sum to pi, got {got!r}")
    # a total of exactly pi gives a scale of exactly 1, as AngleTriple skips it
    angles = raw * (PI / total)[:, None]
    return angles, angle_ratio(*angles.T)


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
        if not all(0.0 <= q <= 1.0 for q in qs):  # false for NaN as well
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
        return self.colors(np.array([q]))[0]

    def colors(self, q: np.ndarray) -> list[str]:
        """``#rrggbb`` for each quality in ``q``: linear between the two
        stops around it, rounded half up; the end stops' colours outside."""
        qs = np.array([s for s, _ in self.stops])
        cs = np.array([c for _, c in self.stops], dtype=float)
        end = np.searchsorted(qs, q).clip(1, len(qs) - 1)  # first stop >= q
        q0, q1, c0, c1 = qs[end - 1], qs[end], cs[end - 1], cs[end]
        t = ((q - q0) / (q1 - q0)).clip(0.0, 1.0)[:, None]
        rgb = (c0 + t * (c1 - c0) + 0.5).astype(np.int64)  # truncated, as int() does
        packed = rgb @ np.array([1 << 16, 1 << 8, 1])
        return ["#%06x" % v for v in packed.tolist()]


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
    pts = mesh.xy * [1.0, -1.0]
    (min_x, min_y), (max_x, max_y) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
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
    # "%.9g" is fmt's text; one % per block of corners is faster than one per corner
    corner = "".join(block_rows("%.9g,%.9g", "\n", pts)).split("\n")
    stroke = f'stroke="#262626" stroke-width="{fmt(stroke_width)}"/>'
    _, q = _repaired_quality(mesh.angles)
    lines += [
        f'  <polygon points="{corner[i]} {corner[j]} {corner[k]}" '
        f'fill="{fill}" {stroke}'
        for (i, j, k), fill in zip(mesh.faces.tolist(), cmap.colors(q))
    ]
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
