"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import trismooth
from trismooth import cli
from trismooth.angle_dynamics import STEP_CLAMP
from trismooth.mesh_io import QualityReport
from trismooth.simple_mesh import mesh_to_dict, optimal_mesh

PI = math.pi

MINIMAL_OFF = "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n"
PREDICT_90_60_30 = ["predict", "--angles", "90,60,30", "--degrees"]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(args, **kwargs):
    """Run ``python *args`` in a subprocess that imports this checkout's package."""
    src = str(Path(trismooth.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
        **kwargs,
    )


# --- iterate -----------------------------------------------------------------

def test_iterate_degrees_table(capsys):
    code, out, _ = run(
        capsys, ["iterate", "--angles", "90,60,30", "--degrees", "--steps", "2"]
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split()
    assert last[0] == "2"
    assert [last[1], last[2], last[3]] == ["67.5000", "60.0000", "52.5000"]


def test_iterate_fixed_point_rows_constant(capsys):
    code, out, _ = run(
        capsys, ["iterate", "--angles", "60,60,60", "--degrees", "--steps", "5"]
    )
    assert code == 0
    rows = out.strip().splitlines()[2:]
    angle_cols = {tuple(r.split()[1:4]) for r in rows}
    assert angle_cols == {("60.0000", "60.0000", "60.0000")}


def test_iterate_json_output(capsys):
    code, out, _ = run(
        capsys,
        ["iterate", "--angles", "90,60,30", "--degrees", "--steps", "4", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["unit"] == "degrees"
    assert len(doc["steps"]) == 5
    assert doc["steps"][2]["alpha"] == pytest.approx(67.5, abs=1e-9)
    assert doc["steps"][2]["deviation_ratio2"] == pytest.approx(0.25, abs=1e-9)
    assert doc["steps"][0]["quality"] == pytest.approx(1 / 3, abs=1e-12)


def test_iterate_rejects_bad_angle_sum(capsys):
    code, _, err = run(
        capsys, ["iterate", "--angles", "10,10,10", "--degrees", "--steps", "2"]
    )
    assert code == 2
    assert "error" in err


def test_iterate_requires_angles(capsys):
    code, _, err = run(capsys, ["iterate", "--steps", "2"])
    assert code == 2
    assert "--angles" in err


# --- predict -----------------------------------------------------------------

def test_predict_values(capsys):
    code, out, _ = run(
        capsys,
        [
            "predict",
            "--angles",
            "90,60,30",
            "--degrees",
            "--steps",
            "1,2",
            "--json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    qs = [e["quality"] for e in doc["predictions"]]
    assert qs[0] == pytest.approx(0.6, abs=1e-12)
    assert qs[1] == pytest.approx(7 / 9, abs=1e-12)


def test_predict_step_zero_and_equilateral(capsys):
    code, out, _ = run(
        capsys,
        ["predict", "--angles", "90,60,30", "--degrees", "--steps", "0", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["predictions"][0]["quality"] == pytest.approx(1 / 3, abs=1e-12)
    code, out, _ = run(
        capsys,
        ["predict", "--angles", "60,60,60", "--degrees", "--steps", "3,8", "--json"],
    )
    doc = json.loads(out)
    assert all(e["quality"] == pytest.approx(1.0) for e in doc["predictions"])


def test_predict_alt_even_column(capsys):
    code, out, _ = run(
        capsys,
        [
            "predict",
            "--angles",
            "90,60,30",
            "--degrees",
            "--steps",
            "2",
            "--alt-even",
            "--json",
        ],
    )
    assert code == 0
    entry = json.loads(out)["predictions"][0]
    assert entry["quality"] == pytest.approx(7 / 9, abs=1e-12)
    assert entry["alt_even_quality"] == pytest.approx(3 / 5, abs=1e-12)


@pytest.mark.parametrize("extra", [[], ["--alt-even"]])
def test_predict_step_count_past_overflow(capsys, extra):
    steps = "1100,1101,1" + "0" * 400
    code, out, err = run(capsys, PREDICT_90_60_30 + ["--steps", steps] + extra)
    assert code == 0, err
    rows = out.strip().splitlines()[1:]
    assert [r.split()[1:] for r in rows] == [["1.000000000000"] * (1 + len(extra))] * 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["iterate", "--angles", "90,60"], "--angles needs exactly 3 values, got 2"),
        (["iterate", "--angles", "90,,60,30"], "could not convert string to float"),
        (PREDICT_90_60_30 + ["--steps", ","], "--steps needs at least one value"),
        (PREDICT_90_60_30 + ["--steps", "1,-2"], "--steps values must be >= 0"),
        (
            ["construct", "--points", "0,0,1"],
            "--points needs 6 values (x1,y1,x2,y2,x3,y3), got 3",
        ),
        (["construct"], "--points is required"),
    ],
)
def test_list_flag_errors(capsys, argv, message):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert message in err


def test_list_flag_skips_empty_step_fields(capsys):
    code, out, _ = run(capsys, PREDICT_90_60_30 + ["--steps", "1,2,", "--json"])
    assert code == 0
    assert [e["step"] for e in json.loads(out)["predictions"]] == [1, 2]


# --- construct ----------------------------------------------------------------

def test_construct_single_step_angles(capsys):
    code, out, _ = run(
        capsys,
        [
            "construct",
            "--points",
            "0,0,1,0,0,1",
            "--steps",
            "1",
            "--degrees",
            "--json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"][1]["angles"] == pytest.approx([45.0, 67.5, 67.5], abs=1e-8)


def test_construct_rescale_keeps_area(capsys):
    code, out, _ = run(
        capsys,
        ["construct", "--points", "0,0,1,0,0,1", "--steps", "5", "--rescale", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    areas = [e["area"] for e in doc["steps"]]
    assert all(a == pytest.approx(0.5, rel=1e-12) for a in areas)


def test_construct_unrescaled_areas_increase(capsys):
    code, out, _ = run(
        capsys,
        ["construct", "--points", "0,0,1,0,0,1", "--steps", "5", "--json"],
    )
    assert code == 0
    areas = [e["area"] for e in json.loads(out)["steps"]]
    assert all(b > a for a, b in zip(areas, areas[1:]))


def test_construct_writes_svg(capsys, tmp_path):
    svg = tmp_path / "traj.svg"
    code, _, _ = run(
        capsys,
        ["construct", "--points", "0,0,1,0,0,1", "--steps", "3", "--svg", str(svg)],
    )
    assert code == 0
    assert svg.read_text().startswith("<?xml")


def test_construct_rejects_collinear(capsys):
    code, _, err = run(capsys, ["construct", "--points", "0,0,1,0,2,0"])
    assert code == 2


def test_construct_overflow_is_numeric_error(capsys):
    # unrescaled edges double each step; at 512 steps their squares overflow
    argv = ["construct", "--points", "0,0,1,0,0,1", "--steps"]
    code, out, err = run(capsys, argv + ["511"])
    assert code == 0, err
    assert "inf" not in out
    code, out, err = run(capsys, argv + ["512"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: squared edge length overflows")
    assert len(err.splitlines()) == 1


# --- simple-mesh ----------------------------------------------------------------

def test_simple_mesh_random_reaches_optimal(capsys):
    code, out, _ = run(
        capsys,
        ["simple-mesh", "--n", "6", "--random", "42", "--steps", "40", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"][-1]["mesh_q"] >= 1 - 1e-6
    k = doc["correction_terms"]
    assert k["k_alpha"] == 0.0 and k["k_beta"] == 0.0 and k["k_gamma"] == 0.0
    assert doc["steps"][-1]["max_residual"] < 1e-10


def test_simple_mesh_optimal_fixed_point(capsys):
    code, out, _ = run(
        capsys, ["simple-mesh", "--n", "4", "--optimal", "--steps", "3", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    expected = mesh_to_dict(optimal_mesh(4))
    assert doc["final"] == expected
    assert doc["reconstruction"]["radius_residual"] <= 1e-9


def test_simple_mesh_deterministic_given_seed(capsys):
    argv = ["simple-mesh", "--n", "5", "--random", "9", "--steps", "4", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simple_mesh_input_file_and_output(capsys, tmp_path):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps(mesh_to_dict(optimal_mesh(5))))
    code, _, _ = run(
        capsys,
        ["simple-mesh", "--input", str(src), "--steps", "2", "--output", str(dst)],
    )
    assert code == 0
    saved = json.loads(dst.read_text())
    assert saved["N"] == 5


def test_simple_mesh_svg(capsys, tmp_path):
    svg = tmp_path / "fan.svg"
    code, _, _ = run(
        capsys,
        ["simple-mesh", "--n", "8", "--random", "3", "--steps", "10", "--svg", str(svg)],
    )
    assert code == 0
    assert svg.exists()


def test_simple_mesh_json_does_not_depend_on_svg(capsys, tmp_path):
    # the reconstruction residuals are the radius-1 ones, drawn or not
    argv = ["simple-mesh", "--n", "8", "--random", "3", "--steps", "10", "--json"]
    _, plain, _ = run(capsys, argv)
    code, drawn, _ = run(capsys, argv + ["--svg", str(tmp_path / "fan.svg")])
    assert code == 0
    assert json.loads(drawn)["reconstruction"] == json.loads(plain)["reconstruction"]
    assert drawn == plain


def test_simple_mesh_bad_json_is_io_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["simple-mesh", "--input", str(bad)])
    assert code == 3


def test_simple_mesh_constraint_violation_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    doc = {
        "N": 4,
        "triangles": [
            {"alpha": PI / 2, "beta": PI / 3, "gamma": PI / 6} for _ in range(4)
        ],
    }
    bad.write_text(json.dumps(doc))
    code, _, _ = run(capsys, ["simple-mesh", "--input", str(bad)])
    assert code == 2


def test_simple_mesh_degenerate_step_is_numeric_error(capsys, tmp_path):
    n = 12
    alpha = [1.7] + [(2 * PI - 1.7) / (n - 1)] * (n - 1)
    doc = {
        "N": n,
        "triangles": [
            {"alpha": a, "beta": (PI - a) / 2, "gamma": (PI - a) / 2}
            for a in alpha
        ],
    }
    src = tmp_path / "adversarial.json"
    src.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["simple-mesh", "--input", str(src), "--steps", "1"])
    assert code == 4
    assert "triangle 0" in err


def test_simple_mesh_random_failure_is_numeric_error(capsys):
    code, out, err = run(capsys, ["simple-mesh", "--n", "1000", "--random", "1"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: no valid random 1000-fan")
    assert len(err.strip().splitlines()) == 1


def test_simple_mesh_source_validation(capsys):
    code, _, _ = run(capsys, ["simple-mesh"])
    assert code == 2
    code, _, _ = run(capsys, ["simple-mesh", "--n", "5"])
    assert code == 2
    code, _, _ = run(
        capsys, ["simple-mesh", "--n", "5", "--optimal", "--random", "1"]
    )
    assert code == 2


def test_simple_mesh_keeps_no_trajectory(capsys):
    # 301 fans of 200 triangles take about 6 MiB when every state is kept
    tracemalloc.start()
    try:
        code = cli.main(["simple-mesh", "--n", "200", "--optimal", "--steps", "300"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def test_simple_mesh_steps_large_fans_in_bounded_blocks(capsys):
    # 1100 steps of 500 triangles run in 8-step (3, 500) blocks; kept, the
    # states would take about 13 MiB even as arrays
    tracemalloc.start()
    try:
        code = cli.main(["simple-mesh", "--n", "500", "--optimal", "--steps", "1100"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 1102 + 1
    assert peak < 2 * 2**20


# --- step limit of iterate, construct and simple-mesh -------------------------------

STEPPING = {
    "iterate": ["iterate", "--angles", "90,60,30", "--degrees"],
    "construct": ["construct", "--points", "0,0,1,0,0,1", "--rescale"],
    "simple-mesh": ["simple-mesh", "--n", "5", "--optimal"],
}


@pytest.mark.parametrize("command", STEPPING)
def test_step_limit(capsys, command):
    code, out, _ = run(capsys, STEPPING[command] + ["--steps", str(STEP_CLAMP)])
    assert code == 0
    rows = [line.split()[0] for line in out.splitlines()]
    assert [r for r in rows if r.isdigit()] == [str(n) for n in range(STEP_CLAMP + 1)]
    code, out, err = run(capsys, STEPPING[command] + ["--steps", str(STEP_CLAMP + 1)])
    assert (code, out, err) == (2, "", f"error: --steps must be <= {STEP_CLAMP}\n")


@pytest.mark.parametrize("command", STEPPING)
def test_huge_step_count_ends_quickly(command):
    # a literal loop over 10**400 steps would never end
    steps = "1" + "0" * 400
    done = run_child(["-m", "trismooth.cli", *STEPPING[command], "--steps", steps])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: --steps must be <= {STEP_CLAMP}\n"


# --- analyze / render -------------------------------------------------------------

def test_analyze_writes_reports(capsys, tmp_path):
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    report = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    code, out, _ = run(
        capsys,
        [
            "analyze",
            str(mesh),
            "--steps",
            "1,2",
            "--report",
            str(report),
            "--csv",
            str(csv_path),
        ],
    )
    assert code == 0
    assert "1 triangles" in out or "triangles" in out
    doc = json.loads(report.read_text())
    assert doc["summary"]["count"] == 1
    assert csv_path.read_text().startswith("index,")


def test_analyze_json_builds_no_text_lines(capsys, tmp_path, monkeypatch):
    # under --json only the document is printed, so the per-face lines are not built
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    templates = Counter()
    rows = QualityReport.rows

    def counted(report, template, *args):
        templates["text" if template.startswith("  triangle") else "json"] += 1
        return rows(report, template, *args)

    monkeypatch.setattr(QualityReport, "rows", counted)
    code, out, _ = run(capsys, ["analyze", str(mesh), "--steps", "1,2", "--json"])
    assert code == 0 and json.loads(out)["summary"]["count"] == 1
    assert templates == Counter({"json": 1})
    code, out, _ = run(capsys, ["analyze", str(mesh), "--steps", "1,2"])
    assert code == 0 and out.splitlines()[-1].startswith("  triangle 0: q=")
    assert templates == Counter({"json": 1, "text": 1})


def test_analyze_missing_file_is_io_error(capsys, tmp_path):
    code, _, _ = run(capsys, ["analyze", str(tmp_path / "absent.off")])
    assert code == 3


def test_analyze_malformed_mesh_is_io_error(capsys, tmp_path):
    mesh = tmp_path / "m.off"
    mesh.write_text("OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 9\n")
    code, _, err = run(capsys, ["analyze", str(mesh)])
    assert code == 3
    assert "line 6" in err


@pytest.mark.parametrize("command", ["analyze", "render"])
@pytest.mark.parametrize("text", ["OFF\n0 0 0\n", "OFF\n-1 1 0\n0 0\n", "OFF\n3 -1 0\n"])
def test_off_counts_without_vertices_are_io_errors(capsys, tmp_path, command, text):
    mesh = tmp_path / "m.off"
    mesh.write_text(text)
    extra = ["--out", str(tmp_path / "m.svg")] if command == "render" else []
    code, out, err = run(capsys, [command, str(mesh), *extra])
    assert (code, out) == (3, "")
    assert err.startswith("error: line 2: bad counts line")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")  # a warning would print beside the error line
@pytest.mark.parametrize("command", ["analyze", "render"])
def test_mesh_overflow_is_numeric_error(capsys, tmp_path, command):
    mesh = tmp_path / "m.off"
    mesh.write_text("OFF\n3 1 0\n0 0\n1e200 0\n0 1e200\n3 0 1 2\n")
    extra = ["--out", str(tmp_path / "m.svg")] if command == "render" else []
    code, out, err = run(capsys, [command, str(mesh), *extra])
    assert (code, out) == (4, "")
    assert err.startswith("error: squared edge length overflows for vertices")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
def test_mesh_overflow_writes_no_report(capsys, tmp_path):
    # the writers' %r templates rely on this: json would write NaN or Infinity
    mesh = tmp_path / "m.off"
    mesh.write_text("OFF\n4 2 0\n0 0\n1 0\n0 1\n1e200 1e200\n3 0 1 2\n3 1 3 2\n")
    report, table = tmp_path / "r.json", tmp_path / "r.csv"
    argv = ["analyze", str(mesh), "--steps", "1", "--report", str(report), "--csv", str(table)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not report.exists() and not table.exists()


def test_render_writes_svg(capsys, tmp_path):
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    out_svg = tmp_path / "m.svg"
    code, _, _ = run(capsys, ["render", str(mesh), "--out", str(out_svg)])
    assert code == 0
    assert out_svg.read_text().count("<polygon") == 1


def test_render_requires_out_and_validates_colormap(capsys, tmp_path):
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    code, _, _ = run(capsys, ["render", str(mesh)])
    assert code == 2
    code, _, _ = run(
        capsys,
        ["render", str(mesh), "--out", str(tmp_path / "x.svg"), "--colormap", "zz"],
    )
    assert code == 2


@pytest.mark.parametrize("spec", ["nan:000000,1:ffffff", "0:000000,nan:ffffff"])
def test_render_nan_colormap_stop_is_usage_error(capsys, tmp_path, spec):
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    svg = tmp_path / "a.svg"
    code, out, err = run(capsys, ["render", str(mesh), "--out", str(svg), "--colormap", spec])
    assert (code, out) == (2, "")
    assert err.startswith("error: colormap stops must lie in [0, 1]")
    assert len(err.splitlines()) == 1
    assert not svg.exists()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("m.off", ["analyze", "{path}"]),
        ("m.obj", ["render", "{path}", "--out", "m.svg"]),
        ("fan.json", ["simple-mesh", "--input", "{path}"]),
        ("cfg.json", ["predict", "--config", "{path}"]),
    ],
)
def test_non_utf8_input_is_io_error(capsys, tmp_path, name, argv):
    # a file that is not UTF-8 is a file-format failure, like malformed JSON
    path = tmp_path / name
    path.write_bytes(b"OFF\n\xff\xfe 3 1 0\n")
    code, out, err = run(capsys, [a.format(path=path) for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("m.off", MINIMAL_OFF.replace("\n", "\r\n"), ["analyze", "{path}"]),
        ("m.obj", "v 0 0\nv 1 0\nv 0 1\nf 1 2 3\n", ["analyze", "{path}", "--json"]),
        ("fan.json", json.dumps(mesh_to_dict(optimal_mesh(4))), ["simple-mesh", "--input", "{path}"]),
        ("cfg.json", '{"angles": "90,60,30", "degrees": true}', ["predict", "--config", "{path}"]),
    ],
    ids=["off-crlf", "obj", "simple-mesh-input", "config"],
)
def test_utf8_byte_order_mark_is_accepted(capsys, tmp_path, name, text, argv):
    # a UTF-8 file saved with a byte-order mark reads as the same file without one
    path = tmp_path / name
    argv = [a.format(path=path) for a in argv]
    path.write_bytes(text.encode())
    plain = run(capsys, argv)
    assert plain[0] == 0 and plain[2] == "", plain
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert run(capsys, argv) == plain


#: A scalene triangle whose angles go wrong once its squared edges are
#: subnormal (scale below about 1.5e-154), unless the range test stops it.
SHAPE = ((0.0, 0.0), (1.0, 0.0), (0.3, 0.8))


def shape_answer(capsys, tmp_path, command, scale):
    """``command`` run on SHAPE scaled by ``scale``: exit code, stdout,
    stderr, and on success what it computed (the angles and qualities, or
    the SVG's fill)."""
    points = [(x * scale, y * scale) for x, y in SHAPE]
    mesh, svg = tmp_path / "s.off", tmp_path / "s.svg"
    mesh.write_text("OFF\n3 1 0\n" + "".join(f"{x!r} {y!r}\n" for x, y in points) + "3 0 1 2\n")
    argv = {
        "analyze": ["analyze", str(mesh), "--steps", "1,2", "--json"],
        "render": ["render", str(mesh), "--out", str(svg)],
        "construct": ["construct", "--points", ",".join(repr(c) for p in points for c in p), "--json"],
    }[command]
    code, out, err = run(capsys, argv)
    if code:
        return code, out, err, None
    if command == "render":
        return code, out, err, svg.read_text().split('fill="')[1][:7]
    doc = json.loads(out)
    if command == "analyze":
        face = doc["triangles"][0]
        computed = [face["alpha"], face["beta"], face["gamma"], face["q"]]
        return code, out, err, computed + list(face["predicted"].values())
    return code, out, err, doc["steps"][0]["angles"] + [e["quality"] for e in doc["steps"]]


@pytest.mark.parametrize("command", ["analyze", "render", "construct"])
def test_tiny_coordinates_keep_their_answer(capsys, tmp_path, command):
    code, _, err, unit = shape_answer(capsys, tmp_path, command, 1.0)
    assert code == 0, err
    code, _, err, tiny = shape_answer(capsys, tmp_path, command, 1e-150)
    assert code == 0, err
    assert tiny == (unit if command == "render" else pytest.approx(unit, abs=1e-15))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-157, 1e-160, 1e-170])
@pytest.mark.parametrize("command", ["analyze", "render", "construct"])
def test_tiny_coordinates_underflow_is_numeric_error(capsys, tmp_path, command, scale):
    code, out, err, _ = shape_answer(capsys, tmp_path, command, scale)
    assert (code, out) == (4, "")
    assert err.startswith("error: squared edge length underflows for vertices")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "s.svg").exists()


#: Two faces of different sizes: over the scales, one leaves the float range
#: before the other.
SCALE_MESH = ((0.0, 0.0), (1.0, 0.0), (0.3, 0.8), (4.0, 3.0))
SCALE_FACES = ((0, 1, 2), (1, 3, 2))


def scaled_mesh_runs(capsys, tmp_path, scale):
    """``analyze --json`` and ``render`` of SCALE_MESH scaled by ``scale``,
    written with %.17g: each run's code, stdout and stderr, and what it
    computed (the faces' angles and qualities, the SVG's fills)."""
    points = [(x * scale, y * scale) for x, y in SCALE_MESH]
    mesh, svg = tmp_path / "s.off", tmp_path / "s.svg"
    svg.unlink(missing_ok=True)
    text = f"OFF\n{len(points)} {len(SCALE_FACES)} 0\n"
    text += "".join("%.17g %.17g\n" % p for p in points)
    mesh.write_text(text + "".join("3 %d %d %d\n" % f for f in SCALE_FACES))
    code, out, err = run(capsys, ["analyze", str(mesh), "--steps", "1,2", "--json"])
    faces = json.loads(out)["triangles"] if code == 0 else []
    angles = [[f["alpha"], f["beta"], f["gamma"], f["q"], *f["predicted"].values()] for f in faces]
    analyzed = (code, out, err, angles)
    code, out, err = run(capsys, ["render", str(mesh), "--out", str(svg)])
    fills = svg.read_text().split('fill="')[1:] if code == 0 else []
    return analyzed, (code, out, err, [f[:7] for f in fills])


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(exponent=st.floats(min_value=-300.0, max_value=300.0))
@example(exponent=-300.0)
@example(exponent=300.0)
@example(exponent=math.log10(1.5e-154))
@example(exponent=153.5)
def test_mesh_scale_keeps_angles_or_is_numeric_error(capsys, tmp_path, exponent):
    # the angles of a mesh do not depend on its scale, up to where a squared
    # edge leaves the float range: there the answer is exit 4, one error line
    scale = 10.0**exponent
    unit = scaled_mesh_runs(capsys, tmp_path, 1.0)
    scaled = scaled_mesh_runs(capsys, tmp_path, scale)
    points = [(x * scale, y * scale) for x, y in SCALE_MESH]
    longest = [
        max(math.dist(points[a], points[b]) for a, b in ((i, j), (j, k), (k, i)))
        for i, j, k in SCALE_FACES
    ]
    leaves = any(d * d == math.inf or (d * d < sys.float_info.min and d > 0) for d in longest)
    for (code, out, err, computed), (_, _, _, expected) in zip(scaled, unit):
        if leaves:
            assert (code, out, computed) == (4, "", []), (scale, err)
            assert err.startswith("error: squared edge length") and len(err.splitlines()) == 1
        else:
            assert (code, err) == (0, ""), scale
            assert len(computed) == len(expected)
            for got, want in zip(computed, expected):
                assert got == (want if isinstance(want, str) else pytest.approx(want, abs=1e-12))


@pytest.mark.skipif(sys.platform != "linux", reason="needs /proc and RLIMIT_AS")
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "tri.off", "--bins", "1000000000"],
        ["simple-mesh", "--n", "100000000", "--optimal"],
    ],
)
def test_out_of_memory_is_numeric_error(tmp_path, argv):
    # the child caps its own address space 256 MiB above what it maps after
    # importing, so the large allocation fails at once instead of being made
    (tmp_path / "tri.off").write_text(MINIMAL_OFF)
    script = (
        "import resource, sys\n"
        "from trismooth import cli\n"
        "mapped = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**28, hard))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    done = run_child(["-c", script, *argv], cwd=tmp_path)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("error: out of memory")
    assert len(done.stderr.splitlines()) == 1


# --- config and argparse behavior ---------------------------------------------------

def test_config_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"angles": "90,60,30", "degrees": True, "steps": 2}))
    code, out, _ = run(capsys, ["iterate", "--config", str(cfg), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["steps"]) == 3
    assert doc["unit"] == "degrees"
    # explicit flag beats the config value
    code, out, _ = run(
        capsys, ["iterate", "--config", str(cfg), "--steps", "4", "--json"]
    )
    assert len(json.loads(out)["steps"]) == 5


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"angles": "90,60,30", "bogus": 1}))
    code, _, _ = run(capsys, ["iterate", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize(
    "cfg",
    [
        {"degrees": "false"},
        {"degrees": 0},
        {"steps": "2"},
        {"steps": 2.0},
        {"steps": True},
    ],
)
def test_config_value_must_fit_its_flag(capsys, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, angles="1.5,1.0,0.6415926535897931")))
    code, out, err = run(capsys, ["iterate", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert "config key" in err


def test_config_false_switch_stays_off(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"angles": "1.5,1.0,0.6415926535897931", "degrees": False})
    )
    code, out, _ = run(capsys, ["iterate", "--config", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["unit"] == "radians"


def test_usage_errors(capsys):
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["iterate", "--bogus"]) == 2


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
