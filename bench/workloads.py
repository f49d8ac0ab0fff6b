"""The three benchmark workloads: their ops and their staged replays.

Each workload runs a *pass* of ops over its inputs; a pass is one op on
``grid_45k`` and ``triple_batch`` and one op per fan on ``fan_sweep``.

The untimed part of every op (output fingerprints, keeping the first
outputs for the parent's checks) happens in ``child.py``.  Here, an op
is only the calls a user of the toolkit would make: ``trismooth.cli.main``
for ``grid_45k`` and ``fan_sweep``, the scalar library API for
``triple_batch``.

The traced run replays an op's stages through the public functions of
each module, on the same input, with a span around each call.  Stages
under the ``replay`` span together redo the op's work, so the op's wall
time minus their sum is ``cli.self_s``.  Stages under ``probe`` measure
work that happens *inside* a replayed stage (the second validation pass
in ``load_mesh``, ``angles_of`` inside ``analyze`` and ``render_svg``)
and are not added to that sum.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trismooth import (
    AngleTriple,
    MeshModel,
    Point2,
    SimpleMeshAngles,
    TrianglePoints,
    analyze,
    angles_of,
    construct_transformed,
    growth_factor,
    iterate,
    iterate_closed_form,
    load_mesh,
    mesh_quality,
    predict_quality,
    quality,
    random_mesh,
    reconstruct_geometry,
    render_svg,
    save_mesh_angles,
    transform_mesh,
)
from trismooth.cli import main as cli_main

GRID_PREDICT_STEPS = (1, 2, 4)
TRIPLE_ITERATE_STEPS = 8
#: One power on each side of ``angle_dynamics.CLOSED_FORM_CAP`` (500).
TRIPLE_CLOSED_FORM_STEPS = (8, 600)
TRIPLE_PREDICT_STEPS = (1, 2, 4, 8)


@dataclass
class OpOutput:
    """What one op produced, before any check."""

    stdout: str = ""
    files: list[Path] = field(default_factory=list)
    values: dict[str, list] = field(default_factory=dict)


def run_cli(argv: list[str], out: OpOutput) -> None:
    """Call ``trismooth.cli.main`` with stdout captured in memory."""
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    out.stdout += buf.getvalue()
    if code != 0:
        raise RuntimeError(f"trismooth {argv[0]} exited {code}: {err.getvalue().strip()}")


def run_stages(stages, tracer=None, op: int = 0) -> None:
    for name, fn in stages:
        if tracer is None:
            fn()
        else:
            with tracer.span(name, op):
                fn()


class GridWorkload:
    """``trismooth analyze`` then ``trismooth render`` on one 45k mesh."""

    name = "grid_45k"
    timed_span = "cli"
    #: Indices of the op's output files that mesh_io writes.
    mesh_io_outputs = (0, 1, 2)

    def __init__(self, files: dict[str, Path], small: bool = False):
        self.mesh = files["small" if small else "mesh"]
        with open(self.mesh, encoding="utf-8") as fh:
            fh.readline()
            self.n_triangles = int(fh.readline().split()[1])

    def keys(self) -> list[int]:
        return [0]

    def items(self, key: int) -> int:
        return self.n_triangles

    def op(self, key: int, work: Path) -> OpOutput:
        out = OpOutput(files=[work / "R.json", work / "R.csv", work / "M.svg"])
        steps = ",".join(str(s) for s in GRID_PREDICT_STEPS)
        mesh = str(self.mesh)
        run_cli(["analyze", mesh, "--steps", steps, "--report", str(out.files[0]), "--csv", str(out.files[1])], out)
        run_cli(["render", mesh, "--out", str(out.files[2])], out)
        return out

    def replay(self, key: int, work: Path, counts: dict) -> tuple[list, list, list[Path]]:
        """(replay stages, probe stages, files the replay writes)."""
        s: dict = {}
        files = [work / "R.json", work / "R.csv", work / "M.svg"]

        def load_for_analyze():
            s["mesh"] = load_mesh(self.mesh)

        def run_analyze():
            s["report"] = analyze(s["mesh"], GRID_PREDICT_STEPS, bins=10)

        def load_for_render():
            s["mesh2"] = load_mesh(self.mesh)

        def rebuild_model():
            MeshModel(s["mesh"].vertices, s["mesh"].triangles)

        def angles_pass():
            s["angles"] = [angles_of(tp) for tp in s["points"]]

        def predict():
            for step in GRID_PREDICT_STEPS:
                for a in s["angles"]:
                    predict_quality(a, step)

        def quality_pass():
            for a in s["angles"]:
                quality(a)

        def prepare_points():
            mesh = s["mesh"]
            s["points"] = [mesh.triangle_points(t) for t in range(len(mesh.triangles))]
            counts["mesh_io.triangles"] += 2 * len(mesh.triangles)

        replay = [
            ("mesh_io.load_mesh", load_for_analyze),
            ("mesh_io.analyze", run_analyze),
            ("mesh_io.write_json", lambda: s["report"].write_json(files[0])),
            ("mesh_io.write_csv", lambda: s["report"].write_csv(files[1])),
            ("mesh_io.load_mesh", load_for_render),
            ("mesh_io.render_svg", lambda: render_svg(s["mesh2"], files[2])),
        ]
        # analyze and render_svg each compute every triangle's angles and
        # quality, so the probes pay those passes twice, as the op does.
        probe = [
            ("mesh_io.model_validate", rebuild_model),
            ("bench.prepare", prepare_points),
            ("plane_geometry.angles_of", angles_pass),
            ("plane_geometry.angles_of", angles_pass),
            ("angle_dynamics.predict_quality", predict),
            ("angle_dynamics.quality", quality_pass),
            ("angle_dynamics.quality", quality_pass),
        ]
        return replay, probe, files


class FanWorkload:
    """``trismooth simple-mesh --random`` over a seeded sweep of fan sizes."""

    name = "fan_sweep"
    timed_span = "cli"
    mesh_io_outputs = (1,)

    def __init__(self, files: dict[str, Path], small: bool = False):
        spec = json.loads(files["small" if small else "fans"].read_text())
        self.steps = int(spec["steps"])
        self.fans = [(int(n), int(seed)) for n, seed in spec["fans"]]

    def keys(self) -> list[int]:
        return list(range(len(self.fans)))

    def items(self, key: int) -> int:
        return self.fans[key][0] * self.steps

    def op(self, key: int, work: Path) -> OpOutput:
        n, seed = self.fans[key]
        out = OpOutput(files=[work / "F.json", work / "F.svg"])
        argv = ["simple-mesh", "--n", str(n), "--random", str(seed), "--steps", str(self.steps)]
        argv += ["--output", str(out.files[0]), "--svg", str(out.files[1]), "--json"]
        run_cli(argv, out)
        return out

    def replay(self, key: int, work: Path, counts: dict) -> tuple[list, list, list[Path]]:
        n, seed = self.fans[key]
        s: dict = {}
        files = [work / "F.json", work / "F.svg"]

        def draw():
            s["states"] = [random_mesh(n, seed)]

        def step_all():
            states = s["states"]
            for _ in range(self.steps):
                states.append(transform_mesh(states[-1]))
            counts["simple_mesh.tri_steps"] += n * self.steps

        def qualities():
            for m in s["states"]:
                mesh_quality(m)

        def residuals():
            for m in s["states"]:
                m.constraint_residuals()

        def reconstruct():
            first, final = s["states"][0], s["states"][-1]
            geometry, _ = reconstruct_geometry(final, 1.0)
            start, _ = reconstruct_geometry(first, 1.0)
            radius = math.sqrt(start.total_area() / geometry.total_area())
            s["geometry"], _ = reconstruct_geometry(final, radius)

        def build_model():
            g = s["geometry"]
            faces = tuple((0, 1 + i, 1 + (i + 1) % n) for i in range(n))
            s["model"] = MeshModel((g.inner_vertex,) + g.boundary, faces)
            counts["mesh_io.triangles"] += n

        def revalidate():
            for m in s["states"]:
                SimpleMeshAngles(m.alpha, m.beta, m.gamma)

        replay = [
            ("simple_mesh.random_mesh", draw),
            ("simple_mesh.iterate_mesh", step_all),
            ("simple_mesh.mesh_quality", qualities),
            ("simple_mesh.residuals", residuals),
            ("simple_mesh.reconstruct", reconstruct),
            ("mesh_io.model_validate", build_model),
            ("mesh_io.render_svg", lambda: render_svg(s["model"], files[1])),
            ("simple_mesh.save_angles", lambda: save_mesh_angles(s["states"][-1], files[0])),
        ]
        # transform_mesh builds (and so validates) a SimpleMeshAngles per step.
        probe = [("simple_mesh.validate", revalidate)]
        return replay, probe, files


class TripleWorkload:
    """Scalar library calls on 1000 triples and 1000 coordinate triangles."""

    name = "triple_batch"
    timed_span = "op"

    def __init__(self, files: dict[str, Path], small: bool = False):
        prefix = "small_" if small else ""
        rows, coords = np.load(files[prefix + "triples"]), np.load(files[prefix + "triangles"])
        self.rows = [tuple(r) for r in rows.tolist()]
        # Coordinate triangles are input values, built before timing like
        # the grid's OFF file; angle triples are built inside the op.
        self.triangles = [
            TrianglePoints(Point2(*a), Point2(*b), Point2(*c)) for a, b, c in coords.tolist()
        ]

    def keys(self) -> list[int]:
        return [0]

    def items(self, key: int) -> int:
        return len(self.rows)

    def stages(self, out: OpOutput) -> list:
        s: dict = {}
        r = out.values

        def new():
            s["t"] = [AngleTriple(a, b, g) for a, b, g in self.rows]

        def run_iterate():
            r["iterate"] = [iterate(t, TRIPLE_ITERATE_STEPS).as_tuple() for t in s["t"]]

        def closed_form():
            for n in TRIPLE_CLOSED_FORM_STEPS:
                r[f"closed_form_{n}"] = [iterate_closed_form(t, n).as_tuple() for t in s["t"]]

        def predict():
            r["predict"] = [[predict_quality(t, n).q for t in s["t"]] for n in TRIPLE_PREDICT_STEPS]

        def run_quality():
            r["quality"] = [quality(t).q for t in s["t"]]

        def construct():
            s["built"] = [construct_transformed(tri) for tri in self.triangles]

        def angles():
            s["angles"] = [angles_of(tri) for tri in self.triangles]
            r["angles"] = [a.as_tuple() for a in s["angles"]]
            r["built_angles"] = [angles_of(tri).as_tuple() for tri in s["built"]]

        def growth():
            r["growth"] = [growth_factor(a).f for a in s["angles"]]

        return [
            ("angle_dynamics.triple_new", new),
            ("angle_dynamics.iterate", run_iterate),
            ("angle_dynamics.closed_form", closed_form),
            ("angle_dynamics.predict_quality", predict),
            ("angle_dynamics.quality", run_quality),
            ("plane_geometry.construct", construct),
            ("plane_geometry.angles_of", angles),
            ("plane_geometry.growth_factor", growth),
        ]

    def op(self, key: int, work: Path, tracer=None, op_id: int = 0) -> OpOutput:
        out = OpOutput()
        run_stages(self.stages(out), tracer, op_id)
        return out


WORKLOADS = {w.name: w for w in (GridWorkload, FanWorkload, TripleWorkload)}
