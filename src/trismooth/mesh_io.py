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

import operator
import os
import sys
from collections.abc import Iterator, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import compress, starmap

import numpy as np

from .angle_dynamics import AngleTriple, _ArrayValue, _predicted_quality, _repaired_quality, _store
from .angle_dynamics import _count
from .plane_geometry import FACE_BLOCK, Point2, TrianglePoints, block_rows, measure_faces
from .plane_geometry import _field_rows, _json_rows, _output, _repr_field

__all__ = [
    "MeshModel", "MeshFormatError", "DegenerateFace", "QualityReport", "ColorMap",
    "load_mesh", "save_off", "analyze", "render_svg",
]

#: 3D meshes flatten only when the z span is below this (scaled) tolerance.
FLATTEN_Z_TOL = 1e-9


class MeshFormatError(ValueError):
    """Mesh file cannot be parsed under the declared format subset."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            line = operator.index(line)  # a Python int, also when read from an array
            message = f"line {line}: {message}"
        self.line = line
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


@dataclass(frozen=True, init=False)
class MeshModel(_ArrayValue):
    """Indexed triangle mesh held as arrays; degenerate faces are kept out
    but on record.

    ``xy`` holds the (V, 2) vertex coordinates and ``faces`` the (F, 3)
    int64 vertex indices of the kept faces.  Building one checks every face
    once, in array passes, and keeps what the collinearity test measured:
    ``angles``, the (F, 3) inner angles (alpha, beta, gamma per triangle,
    before AngleTriple's sum repair) that ``analyze`` and ``render_svg``
    read.  ``vertices`` (Point2s) and ``triangles`` (index tuples) are
    read-only views of ``xy`` and ``faces``, built when first read; the
    dataclass's equality, hashing and ``repr`` go through them.  Each
    triangle given must be three integers (``operator.index`` reads them):
    anything else is a ValueError that names the triangle.
    """

    vertices: tuple[Point2, ...]
    triangles: tuple[tuple[int, int, int], ...]
    dropped: tuple[DegenerateFace, ...]
    xy: np.ndarray = field(repr=False, compare=False)
    faces: np.ndarray = field(repr=False, compare=False)
    angles: np.ndarray = field(repr=False, compare=False)

    def __init__(self, vertices, triangles, dropped: tuple[DegenerateFace, ...] = ()):
        vertices = tuple(vertices)
        faces = []
        for t, face in enumerate(triangles):
            try:  # the unpacking counts the indices, operator.index reads each
                i, j, k = map(operator.index, face)
            except (TypeError, ValueError):
                message = f"triangle {t}: needs 3 integer vertex indices, got {face!r}"
                raise ValueError(message) from None
            faces.append((i, j, k))
        triangles = tuple(faces)
        xy = np.array([(p.x, p.y) for p in vertices], dtype=float).reshape(-1, 2)
        self._check(xy, _index_array(triangles), tuple(dropped))
        # the views are the points given and the indices as read
        _store(self, vertices=vertices, triangles=triangles)

    def _check(self, xy, faces, dropped) -> "MeshModel":
        """Check every face's indices and flatness, then keep it and its angles."""
        outside = _first_outside(faces, len(xy))
        if outside is not None:
            raise ValueError("triangle %d: vertex index %d out of range" % outside)
        flat, angles = measure_faces(xy, faces)
        if flat.any():
            raise ValueError(f"triangle {int(flat.argmax())} is degenerate (collinear)")
        return self._keep(xy, faces, dropped, angles)

    def _keep(self, xy, faces, dropped, angles) -> "MeshModel":
        """Store the checked faces and their angles, if there are 3 vertices."""
        if len(xy) < 3:
            raise ValueError(f"mesh needs at least 3 vertices, got {len(xy)}")
        return _store(self, xy=xy, faces=faces, angles=angles, dropped=dropped)

    _views = {
        "vertices": lambda m: tuple(starmap(Point2, m.xy.tolist())),
        "triangles": lambda m: tuple(map(tuple, m.faces.tolist())),
    }

    def triangle_points(self, t: int) -> TrianglePoints:
        i, j, k = self.triangles[t]
        return TrianglePoints(
            self.vertices[i], self.vertices[j], self.vertices[k]
        )


# A reader hands on blocks of lines: the significant lines of a file (its
# text with # comments cut, holding more than whitespace) and their 1-based
# line numbers: a range, or an int array where lines were dropped between
# them.  A block parser checks its lines' rules in the order a line-by-line
# reader would and raises MeshFormatError without a line number;
# ``_first_bad_line`` runs it again to name the line.  So some line of a
# block fails on its own whenever its parser raises.
Block = tuple[list[str], Sequence[int]]


def _significant_lines(path) -> Block:
    with open(path, "r", encoding="utf-8-sig") as fh:
        # text mode reads CR and CRLF as "\n": these are enumerate(fh)'s lines
        text = fh.read()
    comments, lines = "#" in text, text.split("\n")
    del text  # held only as its lines from here
    if comments:
        lines = [line.partition("#")[0] for line in lines]
    kept = np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))
    numbers = np.flatnonzero(kept) + 1
    if not len(numbers) or numbers[-1] == len(numbers):
        del lines[len(numbers) :]
        return lines, range(1, len(numbers) + 1)
    return list(compress(lines, kept)), numbers


def _coordinates(lines: list[str]) -> np.ndarray | None:
    """(V, k) floats of vertex lines holding k = 2 or 3 finite floats each;
    None if there are no lines or they mix 2D and 3D, which no line shows alone."""
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    bad = (counts < 2) | (counts > 3)
    if bad.any():
        raise MeshFormatError(f"vertex line must have 2 or 3 floats, got {counts[bad.argmax()]}")
    try:
        coords = np.fromiter(map(float, " ".join(lines).split()), float, counts.sum())
    except ValueError as exc:
        raise MeshFormatError(f"bad vertex: {exc}") from exc
    if not np.isfinite(coords).all():
        raise MeshFormatError("non-finite vertex")
    if not lines or counts.min() != counts.max():
        return None
    return coords.reshape(-1, counts[0])


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


def _off_faces(lines: list[str]) -> np.ndarray:
    """(F, 3) vertex indices of OFF face lines ``3 i j k`` (later tokens,
    such as colors, are ignored)."""
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    tokens = np.array(" ".join(lines).split(), dtype=object)
    first = np.cumsum(counts) - counts  # each line's first token
    heads = tokens[first]
    if not (heads == "3").all():
        raise MeshFormatError(f"non-triangular face (vertex count {heads[heads != '3'][0]})")
    if (counts < 4).any():
        raise MeshFormatError("face line needs 3 vertex indices")
    try:
        return _index_array(list(map(int, tokens[first[:, None] + (1, 2, 3)].ravel().tolist())))
    except ValueError as exc:
        raise MeshFormatError(f"bad face index: {exc}") from exc


def _read_off(lines: list[str], numbers: Sequence[int]) -> tuple[Block, Block]:
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


def _obj_faces(lines: list[str]) -> np.ndarray:
    """(F, 3) 0-based vertex indices of OBJ face references (``i``, ``i/j``,
    ``i/j/k``; 1-based in the file), three per line."""
    bad = [n for n in map(len, map(str.split, lines)) if n != 3]
    if bad:
        raise MeshFormatError(f"non-triangular face ({bad[0]} vertices)")
    indices = []
    for ref in " ".join(lines).split():
        try:
            value = int(ref.partition("/")[0])
        except ValueError as exc:
            raise MeshFormatError(f"bad face reference {ref!r}") from exc
        if value < 1:
            raise MeshFormatError(f"face index {value} must be positive (1-based)")
        indices.append(value)
    return _index_array(indices) - 1


def _read_obj(lines: list[str], numbers: Sequence[int]) -> tuple[Block, Block]:
    """The ``v`` and ``f`` lines of an OBJ file, without their directive;
    every other directive (vn, vt, o, g, s, usemtl, ...) is ignored."""
    blocks = {"v": ([], []), "f": ([], [])}
    for line, lineno in zip(lines, numbers):
        parts = line.split(None, 1)  # the directive, then the rest if there is any
        block = blocks.get(parts[0])
        if block:
            block[0].append(parts[1] if len(parts) == 2 else "")
            block[1].append(lineno)
    return tuple((text, np.array(rows, dtype=np.int64)) for text, rows in blocks.values())


_FORMATS = {"off": (_read_off, _off_faces), "obj": (_read_obj, _obj_faces)}


def _first_bad_line(parse, block: Block) -> MeshFormatError | None:
    """The error of the first line of ``block`` that ``parse`` rejects on
    its own, naming that line; None if there is none.  The block is parsed
    in 64 slices, and each slice ``parse`` rejects is searched the same
    way, down to single lines: a line alone costs a block parser's setup."""
    lines, numbers = block
    size = max(1, -(-len(lines) // 64))
    for start in range(0, len(lines), size):
        part = slice(start, start + size)
        try:
            parse(lines[part])
        except MeshFormatError as exc:
            if size == 1:
                return MeshFormatError(str(exc), line=numbers[start])
            found = _first_bad_line(parse, (lines[part], numbers[part]))
            if found is not None:
                return found
    return None


def _split(lines: list[str]) -> Iterator[list[str]]:
    """``lines`` in blocks of ``FACE_BLOCK``; one empty block when there are none."""
    for start in range(0, len(lines) or 1, FACE_BLOCK):
        yield lines[start : start + FACE_BLOCK]


def _parse(path, read, parse_faces) -> tuple[np.ndarray, np.ndarray, Sequence[int]]:
    """The (V, 2) vertices and (F, 3) vertex indices of the file, and its
    face lines' numbers.  Each parser runs over ``FACE_BLOCK`` lines at a
    time; the line text lives in this frame only."""
    vertices, faces = read(*_significant_lines(path))
    try:
        coords = [_coordinates(part) for part in _split(vertices[0])]
        indices = [parse_faces(part) for part in _split(faces[0])]
    except MeshFormatError:
        named = [_first_bad_line(_coordinates, vertices), _first_bad_line(parse_faces, faces)]
        raise min(filter(None, named), key=lambda e: e.line) from None
    if not vertices[0]:
        raise MeshFormatError("no vertex lines found", line=1)
    if any(c is None for c in coords) or len({c.shape[1] for c in coords}) > 1:
        # every line passed its own check
        raise MeshFormatError("vertex lines mix 2D and 3D coordinates", line=vertices[1][0])
    return _flatten(np.concatenate(coords), vertices[1][0]), np.concatenate(indices), faces[1]


def _build_model(xy: np.ndarray, faces: np.ndarray, numbers: Sequence[int]) -> MeshModel:
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
    return _build_model(*_parse(path, *_FORMATS[fmt.lower()]))


def save_off(mesh: MeshModel, path) -> None:
    """Write the mesh as OFF with full float precision (lossless round trip)."""
    with _output(path, "\n") as fh:
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

    def __getitem__(self, t: int) -> TriangleRecord:
        r, t = self._report, range(len(self))[t]  # IndexError past either end
        # AngleTriple repairs the raw angles itself; repairing twice can move them
        angles = AngleTriple(*r.raw[t].tolist())
        return TriangleRecord(t, angles, r.q[t].item(), tuple(r.predicted[t].tolist()))


@dataclass(frozen=True, eq=False)
class QualityReport(_ArrayValue):
    """Per-triangle quality of a mesh, held as columns, and a histogram summary.

    ``raw`` is each face's angles as measured (F, 3), ``angles`` the same
    after AngleTriple's sum repair, ``q`` their min/max-angle quality (F,)
    and ``predicted`` the closed-form quality after each of
    ``predict_steps`` (F, S), all read-only.  Face t's
    TriangleRecord is built from them when ``triangles[t]`` is indexed.
    The JSON and CSV writers share one block loop: for ``FACE_BLOCK``
    faces at a time it turns the face index, the angles, ``q`` and each
    prediction column into a byte field of their ``repr`` text
    (``_repr_field``, exact shortest digits in array passes), each value
    once, and builds each file's rows from those fields as one byte matrix
    (``_field_rows``).  So ``write`` with both paths formats every value
    once for the two files, and holds one block of text at a time.  For
    the finite floats a report holds, ``repr`` is the text ``json`` and
    ``csv`` write.
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

    def _json_layout(self, end: str = "") -> tuple[str, str, str, list[int], str]:
        """The report as ``json.dumps(indent=2)`` writes it, then ``end``."""
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
        row = dict.fromkeys(("index", "alpha", "beta", "gamma", "q"), "%s")
        row["predicted"] = dict.fromkeys(self.predict_steps, "%s")  # one key per step
        head, template, tail = _json_rows(document, "triangles", row)
        columns = [0, 1, 2, 3, 4] + [5 + self.predict_steps.index(s) for s in row["predicted"]]
        return head, template, ",\n", columns, tail + end

    def _csv_layout(self) -> tuple[str, str, str, list[int], str]:
        """One row per face, as ``csv.writer`` writes it: no field needs quotes."""
        header = ["index", "alpha", "beta", "gamma", "q"]
        header += [f"q_pred_{s}" for s in self.predict_steps]
        template = ",".join(["%s"] * len(header)) + "\r\n"
        return ",".join(header) + "\r\n", template, "", list(range(len(header))), ""

    def _pieces(self, *layouts) -> Iterator[list[str]]:
        """Each layout's head, rows block by block, then tail: one list per
        step, a piece per layout.  A layout is (head, row template, row
        separator, columns, tail); its rows are ``_field_rows`` of the
        ``columns`` of the block's fields: the face index, then the ``repr``
        text of alpha, beta, gamma, q and each prediction, made once by
        ``_repr_field`` and shared by every layout."""
        yield [layout[0] for layout in layouts]
        values = (*self.angles.T, self.q, *self.predicted.T)
        for start in range(0, len(self.q), FACE_BLOCK):
            rows = slice(start, start + FACE_BLOCK)
            index = np.arange(start, start + len(self.q[rows]))
            fields = [_repr_field(index), *(_repr_field(column[rows]) for column in values)]
            yield [
                _field_rows(template, sep, [fields[c] for c in columns], start > 0)
                for _, template, sep, columns, _ in layouts
            ]
        yield [layout[-1] for layout in layouts]

    def json_chunks(self) -> Iterator[str]:
        """The report as ``json.dumps(indent=2)`` writes it, in pieces."""
        for (piece,) in self._pieces(self._json_layout()):
            yield piece

    def write(self, json_path=None, csv_path=None) -> None:
        """Write the JSON report to ``json_path`` (``json_chunks()`` plus a
        newline, as ``json.dump(indent=2)`` would) and the CSV to
        ``csv_path``, either or both, in one pass over the faces.

        When the two name one file, it holds the CSV, as writing the JSON
        and then the CSV would leave it.  Only a file written is formatted.
        """
        if json_path is None and csv_path is None:
            return
        with ExitStack() as stack:
            files, layouts = [], []
            outputs = ((json_path, lambda: self._json_layout("\n")), (csv_path, self._csv_layout))
            for path, layout in outputs:
                if path is not None:
                    files.append(stack.enter_context(_output(path, "")))
                    layouts.append(layout())
            if len(files) == 2 and os.path.sameopenfile(files[0].fileno(), files[1].fileno()):
                del files[0], layouts[0]
            for pieces in self._pieces(*layouts):
                for fh, piece in zip(files, pieces):
                    fh.write(piece)

    def write_json(self, path) -> None:
        """``json_chunks()`` plus a newline, as ``json.dump(indent=2)`` would."""
        self.write(json_path=path)

    def write_csv(self, path) -> None:
        """One row per face, as ``csv.writer`` writes it: no field needs quotes."""
        self.write(csv_path=path)


def analyze(
    mesh: MeshModel, predict_steps: tuple[int, ...] = (), bins: int = 10
) -> QualityReport:
    """Quality report for every triangle, in index order.

    ``predict_steps`` asks for the closed-form quality after that many
    transformation steps, per triangle.  The histogram covers (0, 1]
    with ``bins`` equal bins; counts always sum to the triangle count.
    """
    steps = tuple(_count(s, 0, "prediction steps must be >= 0") for s in predict_steps)
    bins = _count(bins, 1, "histogram needs at least one bin")
    if bins > sys.maxsize // 16:  # 8-byte edges, with room to spare in numpy's size limit
        raise ValueError(f"histogram needs at most {sys.maxsize // 16} bins")
    if not len(mesh.faces):
        raise ValueError("mesh has no valid triangles to analyze")
    angles, q = _repaired_quality(mesh.angles)
    predicted = np.empty((len(q), len(steps)))
    for i, s in enumerate(steps):
        predicted[:, i] = _predicted_quality(angles, s) if s else q
    counts, edges = np.histogram(q, bins=bins, range=(0.0, 1.0))
    summary = QualitySummary(
        count=len(q),
        q_min=float(q.min()),
        q_max=float(q.max()),
        q_mean=float(q.mean()),
        bin_edges=tuple(edges.tolist()),
        bin_counts=tuple(counts.tolist()),
    )
    return QualityReport(steps, mesh.angles, angles, q, predicted, summary, mesh.dropped)


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

    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(_SVG_WIDTH)}" height="{fmt(height)}" '
        f'viewBox="{fmt(vb_x)} {fmt(vb_y)} {fmt(vb_w)} {fmt(vb_h)}">\n'
    )
    # "%.9g" is fmt's text; one % per block of corners is faster than one per corner
    corner = np.array("".join(block_rows("%.9g,%.9g", "\n", pts)).split("\n"), dtype=object)
    template = (
        '  <polygon points="%s %s %s" fill="%s" '
        f'stroke="#262626" stroke-width="{fmt(stroke_width)}"/>\n'
    )
    with _output(path, "\n") as fh:
        fh.write(header)
        for start in range(0, len(mesh.faces), FACE_BLOCK):
            rows = slice(start, start + FACE_BLOCK)
            _, q = _repaired_quality(mesh.angles[rows])
            fills = np.array(cmap.colors(q), dtype=object)
            table = np.column_stack((corner[mesh.faces[rows]], fills))
            fh.writelines(block_rows(template, "", table))
        fh.write("</svg>\n")
