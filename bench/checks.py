"""Output checks.  Every expected value is recomputed here with numpy.

Angles come from the vertex coordinates with the same formula the toolkit
documents (the angle at P between PQ and PR is atan2(|u x v|, u . v)), and
every step count is evaluated in deviation form: each angle's deviation
from its fixed point is multiplied by -1/2 per step.  Each function
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

#: Tolerance for angles, qualities and predictions (acceptance criterion 4).
TOL = 1e-12
#: Fan constraint residuals (``simple_mesh.CONSTRAINT_TOL``).
RESIDUAL_TOL = 1e-10
#: Construction commutes with the angle map to this (acceptance criterion 5).
CONSTRUCT_TOL = 1e-10
THIRD_PI = math.pi / 3.0

#: The default colour ramp as documented by ``ColorMap.default``.
DEFAULT_RAMP = (
    (0.0, (0xD7, 0x30, 0x27)),
    (0.3, (0xFD, 0xAE, 0x61)),
    (0.5, (0xA6, 0xD9, 0x6A)),
    (0.8, (0x1A, 0x98, 0x50)),
    (1.0, (0x31, 0x36, 0x95)),
)

_FILL = re.compile(rb'<polygon [^>]*fill="#([0-9a-f]{6})"')


def triangle_angles(p: np.ndarray) -> np.ndarray:
    """``(F, 3, 2)`` vertex coordinates to ``(F, 3)`` inner angles."""

    def at(a, b, c):
        u, v = b - a, c - a
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        return np.arctan2(np.abs(cross), (u * v).sum(axis=1))

    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    return np.stack([at(a, b, c), at(b, c, a), at(c, a, b)], axis=1)


def after_steps(x: np.ndarray, n: int, fixed) -> np.ndarray:
    return fixed + (-0.5) ** n * (x - fixed)


def min_max_quality(x: np.ndarray) -> np.ndarray:
    return x.min(axis=-1) / x.max(axis=-1)


def _worst(name: str, got, want, tol: float) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - want), initial=0.0))
    return [] if err <= tol else [f"{name}: max error {err:.3e} > {tol:.0e}"]


def ramp_channels(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected fill channels, and which of them sit on a rounding edge.

    A channel is int(c0 + t (c1 - c0) + 0.5).  Where that sum lies within
    1e-9 of an integer, a last-bit difference in q may round it either way.
    """
    stops = np.array([s for s, _ in DEFAULT_RAMP])
    rgb = np.array([c for _, c in DEFAULT_RAMP], dtype=float)
    seg = np.clip(np.searchsorted(stops, q, side="left") - 1, 0, len(stops) - 2)
    t = (q - stops[seg]) / (stops[seg + 1] - stops[seg])
    raw = rgb[seg] + t[:, None] * (rgb[seg + 1] - rgb[seg]) + 0.5
    raw = np.where((q <= stops[0])[:, None], rgb[0], raw)
    raw = np.where((q >= stops[-1])[:, None], rgb[-1], raw)
    edge = np.abs(raw - np.rint(raw)) < 1e-9
    return np.floor(raw).astype(int), edge


def svg_fills(svg: bytes) -> np.ndarray:
    hexes = _FILL.findall(svg)
    return np.array([[int(h[i : i + 2], 16) for i in (0, 2, 4)] for h in hexes], dtype=int).reshape(-1, 3)


def check_fills(svg: bytes, q: np.ndarray) -> list[str]:
    fills = svg_fills(svg)
    if len(fills) != len(q):
        return [f"svg has {len(fills)} polygons, expected {len(q)}"]
    want, edge = ramp_channels(q)
    bad = (fills != want) & ~(edge & (np.abs(fills - want) <= 1))
    return [f"svg: {int(bad.any(axis=1).sum())} fills differ from the default ramp"] if bad.any() else []


def check_grid(keep: Path, vertices: np.ndarray, faces: np.ndarray, steps, svg_sha=None, got_sha=None) -> list[str]:
    """The analyze report (JSON, CSV, stdout) and the rendered SVG."""
    problems: list[str] = []
    x = triangle_angles(vertices[faces])
    q = min_max_quality(x)
    n = len(faces)

    report = json.loads((keep / "R.json").read_text(encoding="utf-8"))
    recs = report["triangles"]
    if report["predict_steps"] != list(steps) or len(recs) != n or report["dropped_faces"]:
        return [f"report shape: steps {report['predict_steps']}, {len(recs)} triangles, "
                f"{len(report['dropped_faces'])} dropped; expected {list(steps)}, {n}, 0"]
    if [r["index"] for r in recs] != list(range(n)):
        problems.append("report: triangle indices are not 0..F-1")
    got = np.array([[r["alpha"], r["beta"], r["gamma"], r["q"]] + [r["predicted"][str(s)] for s in steps]
                    for r in recs])
    problems += _worst("report angles", got[:, :3], x, TOL)
    problems += _worst("report q", got[:, 3], q, TOL)
    for i, s in enumerate(steps):
        problems += _worst(f"report q after {s} steps", got[:, 4 + i], min_max_quality(after_steps(x, s, THIRD_PI)), TOL)
    summary = report["summary"]
    problems += _worst("summary min/max/mean", [summary["min"], summary["max"], summary["mean"]],
                       np.array([q.min(), q.max(), q.mean()]), TOL)
    # Binned from the report's own q (checked above): a q one bit from a
    # bin edge may fall on either side of it.
    counts, _ = np.histogram(got[:, 3], bins=10, range=(0.0, 1.0))
    if summary["histogram"]["counts"] != counts.tolist():
        problems.append(f"histogram counts {summary['histogram']['counts']} vs {counts.tolist()}")

    with open(keep / "R.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = ["index", "alpha", "beta", "gamma", "q"] + [f"q_pred_{s}" for s in steps]
    if rows[0] != header or len(rows) != n + 1:
        problems.append(f"csv: header {rows[0]} and {len(rows) - 1} rows")
    else:
        table = np.array([[float(v) for v in row] for row in rows[1:]])
        if not np.array_equal(table[:, 0], np.arange(n)) or not np.array_equal(table[:, 1:], got):
            problems.append("csv values differ from the JSON report")

    svg = (keep / "M.svg").read_bytes()
    problems += check_fills(svg, q)
    if svg_sha is not None and got_sha != svg_sha:
        problems.append(f"svg sha256 {got_sha} differs from the pinned {svg_sha}")

    lines = (keep / "stdout.txt").read_text(encoding="utf-8").splitlines()
    if len(lines) != n + 4 or not lines[0].startswith(f"{n} triangles: q min {got[:, 3].min():.6f}"):
        problems.append(f"stdout: {len(lines)} lines, first {lines[0]!r}")
    return problems


def check_fan(keep: Path, n: int, steps: int, x0: np.ndarray) -> list[str]:
    """simple-mesh output; ``x0`` is the ``(3, N)`` start angles."""
    problems: list[str] = []
    fixed = np.array([2.0 * math.pi / n, (n - 2) * math.pi / (2 * n), (n - 2) * math.pi / (2 * n)])[:, None]
    path = np.stack([after_steps(x0, s, fixed) for s in range(steps + 1)])  # (S+1, 3, N)

    payload = json.loads((keep / "stdout.txt").read_text(encoding="utf-8"))
    entries = payload["steps"]
    if payload["n"] != n or [e["step"] for e in entries] != list(range(steps + 1)):
        return [f"fan N={n}: payload has n={payload['n']} and {len(entries)} steps"]
    worst_res = max(e["max_residual"] for e in entries)
    if worst_res > RESIDUAL_TOL:
        problems.append(f"fan N={n}: constraint residual {worst_res:.3e} > {RESIDUAL_TOL:.0e}")
    problems += _worst(f"fan N={n} mesh_q", [e["mesh_q"] for e in entries],
                       [np.min(q) / np.max(q) for q in min_max_quality(path.transpose(0, 2, 1))], TOL)
    final = payload["final"]
    got = np.array([[t["alpha"], t["beta"], t["gamma"]] for t in final["triangles"]]).T
    if got.shape != (3, n):
        return problems + [f"fan N={n}: final has shape {got.shape}"]
    problems += _worst(f"fan N={n} final angles", got, path[-1], TOL)
    residuals = [np.abs(got.sum(axis=0) - math.pi).max(), abs(math.fsum(got[0]) - 2 * math.pi),
                 abs(math.fsum(got[1]) - (n - 2) * math.pi / 2)]
    if max(residuals) > RESIDUAL_TOL:
        problems.append(f"fan N={n}: final residuals {residuals}")
    if json.loads((keep / "F.json").read_text(encoding="utf-8")) != final:
        problems.append(f"fan N={n}: --output file differs from the printed final angles")
    polygons = (keep / "F.svg").read_bytes().count(b"<polygon ")
    if polygons != n:
        problems.append(f"fan N={n}: svg has {polygons} polygons")
    return problems


def check_triples(keep: Path, rows: np.ndarray, coords: np.ndarray, iterate_steps: int, closed_form_steps,
                  predict_steps, library_quality_after) -> list[str]:
    """triple_batch values.  ``library_quality_after(n)`` is quality(iterate(t, n)) per triple."""
    problems: list[str] = []
    with np.load(keep / "values.npz") as data:
        v = {k: data[k] for k in data.files}
    dev = {n: after_steps(rows, n, THIRD_PI) for n in {iterate_steps, *closed_form_steps, *predict_steps}}
    problems += _worst(f"iterate({iterate_steps}) vs deviation form", v["iterate"], dev[iterate_steps], TOL)
    for n in closed_form_steps:
        problems += _worst(f"closed form({n}) vs deviation form", v[f"closed_form_{n}"], dev[n], TOL)
        if n == iterate_steps:
            problems += _worst(f"closed form({n}) vs iterate", v[f"closed_form_{n}"], v["iterate"], TOL)
    for i, n in enumerate(predict_steps):
        problems += _worst(f"predict_quality({n}) vs deviation form", v["predict"][i], min_max_quality(dev[n]), TOL)
        problems += _worst(f"predict_quality({n}) vs quality(iterate)", v["predict"][i], library_quality_after(n), TOL)
    problems += _worst("quality", v["quality"], min_max_quality(rows), TOL)
    x = triangle_angles(coords)
    problems += _worst("angles_of", v["angles"], x, TOL)
    problems += _worst("angles of the constructed triangle", v["built_angles"], (math.pi - x) / 2.0, CONSTRUCT_TOL)
    want = 1.0 / np.prod(np.sin(0.5 * x), axis=1)
    problems += _worst("growth_factor (relative)", v["growth"] / want, 1.0, TOL)
    return problems
