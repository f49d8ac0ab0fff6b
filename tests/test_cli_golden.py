"""Golden outputs of the command-line interface.

Each case runs ``cli.main`` in an empty directory that holds only the
inputs below, and pins its exit code, stdout, stderr and every file it
writes against ``tests/golden/cli.json``.  After an intended output
change, regenerate that file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import functools
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from trismooth import MeshModel, SimpleMeshAngles, SimpleMeshGeometry, _text, cli, random_mesh

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
PI = math.pi


def _fan(alpha, beta):
    triangles = [
        {"alpha": a, "beta": b, "gamma": PI - a - b} for a, b in zip(alpha, beta)
    ]
    return json.dumps({"N": len(triangles), "triangles": triangles})


_ADVERSARIAL_ALPHA = [1.7] + [(2 * PI - 1.7) / 11] * 11

INPUTS = {
    "mesh.off": (
        "OFF\n"
        "# a jittered strip; the last face is collinear and gets dropped\n"
        "7 5 0\n"
        "0 0\n1 0\n2.1 0.1\n0 1\n1.1 1.05\n2 1.2\n2 0\n"
        "3 0 1 4\n3 0 4 3\n3 1 2 5\n3 1 5 4\n3 0 1 6\n"
    ),
    "mesh.obj": (
        "# planar OBJ at constant z\n"
        "v 0 0 0.5\nv 1 0 0.5\nv 0.5 0.9 0.5\nv 1.5 0.8 0.5\n"
        "f 1 2 3\nf 2 4 3\n"
    ),
    "fan.json": _fan(
        [1.1, 1.3, 1.2, 1.4, 2 * PI - 5.0],
        [0.9, 1.0, 0.95, 0.85, 1.5 * PI - 3.7],
    ),
    "adversarial.json": _fan(
        _ADVERSARIAL_ALPHA, [(PI - a) / 2 for a in _ADVERSARIAL_ALPHA]
    ),
    # valid, but its first triangle is too thin for the drawing's collinearity test
    "thin.json": _fan(
        [1e-13] + [(2 * PI - 1e-13) / 3] * 3,
        [(PI - 1e-13) / 2] + [(PI - (2 * PI - 1e-13) / 3) / 2] * 3,
    ),
    # its one face is collinear and dropped, so the drawing's span is 0
    "point.off": "OFF\n3 1 0\n1 1\n1 1\n1 1\n3 0 1 2\n",
    "bad.json": "{not json",
    "iterate_cfg.json": json.dumps({"angles": "90,60,30", "degrees": True, "steps": 2}),
    "predict_cfg.json": json.dumps(
        {"angles": "100,50,30", "degrees": True, "steps": "1,2,3", "alt-even": True}
    ),
}

CASES = {
    # iterate
    "iterate_table": ["iterate", "--angles", "90,60,30", "--degrees", "--steps", "4"],
    "iterate_radians_json": [
        "iterate", "--angles", "1.5,1.0,0.6415926535897931", "--steps", "3", "--json",
    ],
    # predict
    "predict_table_default_steps": ["predict", "--angles", "90,60,30", "--degrees"],
    "predict_json": [
        "predict", "--angles", "90,60,30", "--degrees", "--steps", "0,1,2,7", "--json",
    ],
    "predict_alt_even_table": [
        "predict", "--angles", "100,50,30", "--degrees", "--steps", "1,2,3,4", "--alt-even",
    ],
    "predict_alt_even_json": [
        "predict", "--angles", "100,50,30", "--degrees", "--steps", "2,4", "--alt-even",
        "--json",
    ],
    # a degenerate triple has a quality but no step: exit 2, as iterate's
    "predict_degenerate_step0": [
        "predict", "--angles", "180,0,0", "--degrees", "--steps", "0",
    ],
    "exit2_predict_degenerate": [
        "predict", "--angles", "180,0,0", "--degrees", "--steps", "1", "--json",
    ],
    # construct
    "construct_table": ["construct", "--points", "0,0,1,0,0.2,0.7", "--steps", "3"],
    "construct_json_degrees_rescale": [
        "construct", "--points", "0,0,1,0,0.2,0.7", "--steps", "3", "--degrees",
        "--rescale", "--json",
    ],
    # the apex angle is pi less 1e-8
    "construct_thin_obtuse": [
        "construct", "--points", "0,0,2,0,1,1e-8", "--steps", "1", "--json",
    ],
    "construct_svg": [
        "construct", "--points", "0,0,1,0,0,1", "--steps", "2", "--svg", "traj.svg",
        "--colormap", "0:000000,1:ffffff",
    ],
    # simple-mesh
    "simple_mesh_optimal_table": ["simple-mesh", "--n", "5", "--optimal", "--steps", "2"],
    "simple_mesh_random_json": [
        "simple-mesh", "--n", "7", "--random", "3", "--steps", "5", "--json",
    ],
    "simple_mesh_input_output": [
        "simple-mesh", "--input", "fan.json", "--steps", "3", "--output", "final.json",
    ],
    "simple_mesh_svg_output": [
        "simple-mesh", "--n", "8", "--random", "3", "--steps", "10", "--svg", "fan.svg",
        "--output", "final.json",
    ],
    # the fan repeats at step 57: the rows after it, and the files, come from that cycle
    "simple_mesh_repeat_json_files": [
        "simple-mesh", "--n", "5", "--random", "3", "--steps", "70", "--json",
        "--output", "final.json", "--svg", "fan.svg",
    ],
    # every residual of the optimal fan is exactly 0.0
    "simple_mesh_optimal_json": ["simple-mesh", "--n", "5", "--optimal", "--steps", "2", "--json"],
    "simple_mesh_thin_fan": ["simple-mesh", "--input", "thin.json", "--output", "final.json"],
    "simple_mesh_thin_fan_one_step_svg": [
        "simple-mesh", "--input", "thin.json", "--steps", "1", "--svg", "fan.svg",
    ],
    # analyze
    "analyze_table": ["analyze", "mesh.off", "--steps", "1,2"],
    "analyze_obj_json": ["analyze", "mesh.obj", "--bins", "4", "--json"],
    "analyze_reports": [
        "analyze", "mesh.off", "--steps", "1", "--report", "r.json", "--csv", "r.csv",
    ],
    "analyze_reports_json": [
        "analyze", "mesh.obj", "--format", "obj", "--report", "r.json", "--csv", "r.csv",
        "--json",
    ],
    # render
    "render_off": ["render", "mesh.off", "--out", "m.svg"],
    "render_obj_colormap": [
        "render", "mesh.obj", "--format", "obj", "--out", "m.svg",
        "--colormap", "0:ff0000,0.5:00ff00,1:0000ff",
    ],
    "render_no_faces_left": ["render", "point.off", "--out", "m.svg"],
    # --config
    "config_iterate_json": ["iterate", "--config", "iterate_cfg.json", "--json"],
    "config_flag_overrides": ["iterate", "--config", "iterate_cfg.json", "--steps", "4"],
    "config_predict_alt_even": ["predict", "--config", "predict_cfg.json"],
    # exit codes
    "exit2_bad_angle_sum": ["iterate", "--angles", "10,10,10", "--degrees"],
    "exit2_unknown_flag": ["iterate", "--bogus"],
    "exit2_render_needs_out": ["render", "mesh.off"],
    "exit2_negative_random_seed": ["simple-mesh", "--n", "3", "--random", "-1"],
    # one past sys.maxsize // 16 bins; numpy's own errors named no limit
    "exit2_bins_past_size_limit": ["analyze", "mesh.off", "--bins", "576460752303423488"],
    "exit3_missing_mesh": ["analyze", "absent.off"],
    # a flag given as "" is used: the empty path fails to open
    "exit3_empty_report_path": ["analyze", "mesh.off", "--report", ""],
    "exit3_bad_json": ["simple-mesh", "--input", "bad.json"],
    # every squared edge is in range, and step 1 is built in range, but its
    # squared edges are not
    "exit4_construct_step_leaves_range": [
        "construct", "--points", "0,0,0,1.25e154,-1.25e144,1.25e154",
    ],
    # near 1e17 the coordinates lie on a grid of 16: step 1 misses the paper's map
    "exit4_construct_far_from_origin": [
        "construct", "--points=1e17,0,100000000000000016,0,1e17,16", "--rescale", "--steps",
        "3",
    ],
    # near 3.5e15 the coordinates lie on a grid of 0.5: step 1, rescaled, is flat
    "exit4_construct_step_flattened": [
        "construct",
        "--points=3492555186035549.5,3492555186035550.0,3492555186035548.5,"
        "3492555186035548.5,3492555186035550.5,3492555186035550.5",
        "--steps", "3", "--rescale",
    ],
    "exit4_degenerate_fan_step": [
        "simple-mesh", "--input", "adversarial.json", "--steps", "1",
    ],
    "exit4_fan_too_thin_to_draw": [
        "simple-mesh", "--input", "thin.json", "--svg", "fan.svg", "--output", "final.json",
    ],
}


def run_case(argv: list[str], directory: Path) -> dict:
    """Run one CLI call in ``directory``; return everything it produced."""
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    files = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(directory.iterdir())
        if p.name not in INPUTS
    }
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(golden, tmp_path, name):
    expected = golden[name]
    assert expected["argv"] == CASES[name]
    got = run_case(CASES[name], tmp_path)
    assert got["code"] == expected["code"]
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]
    assert got["files"] == expected["files"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_rerun_over_padded_outputs_matches_golden(golden, tmp_path, name):
    # outputs are written over in place: a second run leaves no stale tail
    run_case(CASES[name], tmp_path)
    for path in tmp_path.iterdir():
        if path.name not in INPUTS:
            with path.open("ab") as fh:
                fh.write(b"<stale tail>\n" * 100)
    got = run_case(CASES[name], tmp_path)
    assert got == {key: golden[name][key] for key in got}


def test_error_cases_leave_no_output(golden):
    # each case runs in a directory of inputs only: a failing command leaves no
    # file that was not there before it ran
    failing = [name for name in sorted(CASES) if golden[name]["code"] != 0]
    assert len(failing) >= 10
    assert {name: golden[name]["files"] for name in failing} == dict.fromkeys(failing, {})


def test_json_cases_build_no_text(golden, tmp_path, monkeypatch):
    # under --json main prints only the document, so no command builds its table
    def refuse(*args):
        raise AssertionError("a text table was built under --json")

    monkeypatch.setattr(cli, "_table", refuse)
    names = [name for name in sorted(CASES) if "--json" in CASES[name]]
    assert len(names) >= 5
    for name in names:
        directory = tmp_path / name
        directory.mkdir()
        got = run_case(CASES[name], directory)
        assert got == {key: golden[name][key] for key in got}, name


@pytest.mark.parametrize("block", [1, 2, 3])
def test_every_case_matches_golden_at_small_block_sizes(golden, tmp_path, monkeypatch, block):
    # every block pass cuts its faces or lines with _text.blocks: blocks of 1 to 3
    # put a seam between every few faces and lines, and no seam shows in any output
    monkeypatch.setattr(_text, "FACE_BLOCK", block)
    for name in sorted(CASES):
        directory = tmp_path / name
        directory.mkdir()
        got = run_case(CASES[name], directory)
        assert got == {key: golden[name][key] for key in got}, name


#: The object views of the values held as arrays, each a cached_property.
VIEWS = {
    MeshModel: ("vertices", "triangles"),
    SimpleMeshGeometry: ("inner_vertex", "boundary"),
    SimpleMeshAngles: ("alpha", "beta", "gamma"),
}


def test_no_case_builds_an_object_view(golden, tmp_path, monkeypatch):
    # the commands read the arrays only: a view is built when a caller reads it
    built = Counter()
    for cls, names in VIEWS.items():
        for name in names:
            view = vars(cls)[name]
            assert isinstance(view, functools.cached_property), (cls, name)

            def counted(value, _build=view.func, _name=f"{cls.__name__}.{name}"):
                built[_name] += 1
                return _build(value)

            wrapped = functools.cached_property(counted)
            wrapped.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, wrapped)
    for name in sorted(CASES):
        directory = tmp_path / name
        directory.mkdir()
        got = run_case(CASES[name], directory)
        assert got == {key: golden[name][key] for key in got}, name
    assert built == Counter()
    fan = random_mesh(5, 1)
    assert fan.alpha is fan.alpha and built == Counter({"SimpleMeshAngles.alpha": 1})


def regenerate() -> None:
    doc = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            doc[name] = {"argv": argv} | run_case(argv, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
