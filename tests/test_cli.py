"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import trismooth
from trismooth import cli
from trismooth.angle_dynamics import STEP_CLAMP
from trismooth.mesh_io import QualityReport
from trismooth.simple_mesh import (
    correction_terms,
    load_mesh_angles,
    mesh_steps,
    optimal_mesh,
    random_mesh,
    reconstruct_geometry,
)

from conftest import mesh_to_dict

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


def test_construct_excenter_overflow_is_numeric_error(capsys):
    # every squared edge is in range, and step 1 is built in range, but its
    # squared edges are not
    code, out, err = run(capsys, ["construct", "--points=0,0,0,1.25e154,-1.25e144,1.25e154"])
    assert (code, out) == (4, "")
    assert err.startswith("error: squared edge length overflows for vertices (Point2(x=-6.25")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("rescale", [False, True])
def test_construct_far_from_origin_is_numeric_error(capsys, rescale):
    # near 1e17 the coordinates lie on a grid of 16, so step 1 is not the paper's
    # map of step 0; the same shape at the origin is
    argv = ["construct", "--steps", "3"] + ["--rescale"] * rescale
    assert run(capsys, argv + ["--points=0,0,16,0,0,16"])[0] == 0
    code, out, err = run(capsys, argv + ["--points=1e17,0,100000000000000016,0,1e17,16"])
    assert (code, out) == (4, "")
    assert err.startswith("error: construct step 1 is lost to rounding: its angles miss")


def test_construct_rescale_off_its_area_is_numeric_error(capsys, monkeypatch):
    rescale = cli.rescale_to_area
    monkeypatch.setattr(cli, "rescale_to_area", lambda tri, area: rescale(tri, area * (1 + 1e-6)))
    code, out, err = run(capsys, ["construct", "--points=0,0,1,0,0,1", "--rescale", "--steps", "2"])
    assert (code, out) == (4, "")
    assert err == "error: construct step 1 is lost to rounding: its area misses the start area by 1e-06 of it\n"


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


def test_simple_mesh_output_read_back_starts_where_the_run_ended(capsys, tmp_path):
    # one fan-file writer and one reader: the --output file is the final fan of
    # the --json document, and read back with --input it starts at step 5's row
    fan = str(tmp_path / "f.json")
    argv = ["simple-mesh", "--n", "7", "--random", "3", "--steps", "5", "--output", fan, "--json"]
    code, stepped, _ = run(capsys, argv)
    assert code == 0
    code, reread, _ = run(capsys, ["simple-mesh", "--input", fan, "--json"])
    assert code == 0
    saved, stepped, reread = json.loads(Path(fan).read_text()), json.loads(stepped), json.loads(reread)
    assert saved == stepped["final"] == reread["final"]
    first, last = reread["steps"][0], stepped["steps"][5]
    assert (first.pop("step"), last.pop("step")) == (0, 5)
    assert first == last


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


@pytest.mark.parametrize(
    "angle, message",
    [
        ("1e400", "triangle 2: beta = inf is not positive"),
        ("1" + "0" * 400, "triangle 2: beta is an integer too large for a float"),
    ],
    ids=["float", "integer"],
)
def test_simple_mesh_angle_past_float_range_is_usage_error(capsys, tmp_path, angle, message):
    doc = mesh_to_dict(optimal_mesh(4))
    doc["triangles"][2]["beta"] = "ANGLE"
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc).replace('"ANGLE"', angle))
    assert run(capsys, ["simple-mesh", "--input", str(path)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "name, argv",
    [
        ("fan.json", ["simple-mesh", "--input", "{path}"]),
        ("cfg.json", ["predict", "--config", "{path}"]),
    ],
)
def test_integer_past_the_digit_limit_is_io_error(capsys, tmp_path, name, argv):
    # int() refuses to read it, so the decoder cannot: a file-format failure
    path = tmp_path / name
    path.write_text('{"angles": [%s, 1, 1]}' % ("1" * (sys.get_int_max_str_digits() + 1)))
    code, out, err = run(capsys, [a.format(path=path) for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: integer over {sys.get_int_max_str_digits()} digits")
    assert len(err.splitlines()) == 1


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


@pytest.mark.parametrize("swapped", [False, True], ids=["underflow", "overflow"])
@pytest.mark.parametrize("svg", [False, True])
def test_simple_mesh_fan_past_float_range_is_numeric_error(capsys, tmp_path, swapped, svg):
    # a valid fan whose radius shrinks (or, swapped, grows) about 2000-fold per
    # triangle for 150 triangles: at radius 1 its points leave the float range
    n, alpha = 300, 2 * PI / 300
    small, large = [1e-5] * 150, [PI - alpha - 1e-5] * 150
    beta = large + small if swapped else small + large
    doc = {
        "N": n,
        "triangles": [{"alpha": alpha, "beta": b, "gamma": PI - alpha - b} for b in beta],
    }
    src = tmp_path / "fan.json"
    src.write_text(json.dumps(doc))
    argv = ["simple-mesh", "--input", str(src)]
    assert run(capsys, argv + ["--steps", "3"])[0] == 0
    code, out, err = run(capsys, argv + (["--svg", str(tmp_path / "fan.svg")] if svg else []))
    detail = "point coordinates must be finite" if swapped else "fan triangle 48 is degenerate"
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot place the fan: {detail}")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "fan.svg").exists()


@pytest.mark.parametrize("steps", ["0", "3", "20"])
def test_simple_mesh_svg_of_a_fan_whose_area_leaves_the_float_range(capsys, tmp_path, steps):
    # valid, and placed at radius 1, but its points reach about 1e166: the
    # doubled areas come out as inf - inf = NaN, so no drawing radius exists
    n, alpha = 300, 2 * PI / 300
    beta = [PI - alpha - 1e-5] * 50 + [1e-5] * 50 + [(PI - alpha) / 2] * 200
    doc = {
        "N": n,
        "triangles": [{"alpha": alpha, "beta": b, "gamma": PI - alpha - b} for b in beta],
    }
    src = tmp_path / "wide.json"
    src.write_text(json.dumps(doc))
    argv = ["simple-mesh", "--input", str(src), "--steps", steps]
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, argv + ["--svg", str(tmp_path / "w.svg"), "--output", str(tmp_path / "f.json")])
    assert (code, out) == (4, "")
    assert err.startswith("error: cannot draw the fan: ")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.json"]


def test_simple_mesh_svg_of_a_fan_whose_area_sum_overflows(capsys, tmp_path):
    # every doubled area is finite, the largest about 3.7e306, but their sum is
    # not: math.fsum raises OverflowError, and no drawing radius exists.  The
    # radius grows by 1.33e154 over 50 triangles, stays for 100, shrinks back
    # over 50, and stays at 1 for the last 100.
    n, alpha = 300, 2 * PI / 300
    s, ratio = PI - alpha, 1.33e154 ** (1 / 50)
    up = math.atan2(ratio * math.sin(s), 1 + ratio * math.cos(s))  # sin(b) / sin(s - b) = ratio
    beta = [up] * 50 + [s / 2] * 100 + [s - up] * 50 + [s / 2] * 100
    doc = {
        "N": n,
        "triangles": [{"alpha": alpha, "beta": b, "gamma": PI - alpha - b} for b in beta],
    }
    src = tmp_path / "wide.json"
    src.write_text(json.dumps(doc))
    areas = reconstruct_geometry(load_mesh_angles(src), 1.0)[0]._areas
    assert np.isfinite(areas).all() and 3e306 < areas.max() < 4e306
    with pytest.raises(OverflowError):
        math.fsum(areas.tolist())
    argv = ["simple-mesh", "--input", str(src)]
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, argv + ["--svg", str(tmp_path / "w.svg")])
    assert (code, out) == (4, "")
    assert err == "error: cannot draw the fan: its area leaves the float range\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.json"]


@pytest.mark.parametrize("before", [None, "an older drawing\n"], ids=["absent", "existing"])
def test_simple_mesh_bad_output_path_leaves_the_svg_as_it_was(capsys, tmp_path, before):
    # the fan file opens before the SVG is drawn: a bad path fails first
    svg, bad = tmp_path / "fan.svg", tmp_path / "missing" / "f.json"
    if before is not None:
        svg.write_text(before)
    argv = ["simple-mesh", "--n", "5", "--optimal", "--svg", str(svg), "--output", str(bad)]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (3, "", f"error: [Errno 2] No such file or directory: {str(bad)!r}\n")
    assert (svg.read_text() if svg.exists() else None) == before


@pytest.mark.parametrize("before", [None, "an older fan\n"], ids=["absent", "existing"])
def test_simple_mesh_undrawable_fan_leaves_the_output_as_it_was(capsys, tmp_path, before):
    # the fan file is open when the drawing fails: its handle wrote nothing, so
    # a file it made goes and an existing one keeps its bytes
    thin = [1e-13] + [(2 * PI - 1e-13) / 3] * 3
    doc = {
        "N": 4,
        "triangles": [{"alpha": a, "beta": (PI - a) / 2, "gamma": (PI - a) / 2} for a in thin],
    }
    src, output = tmp_path / "thin.json", tmp_path / "f.json"
    src.write_text(json.dumps(doc))
    if before is not None:
        output.write_text(before)
    argv = ["simple-mesh", "--input", str(src), "--svg", str(tmp_path / "fan.svg"), "--output", str(output)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: cannot draw the fan: ")
    assert (output.read_text() if output.exists() else None) == before
    assert not (tmp_path / "fan.svg").exists()


def test_simple_mesh_svg_builds_no_points(monkeypatch, capsys, tmp_path):
    made = Counter()

    def counted(self, *args, _inner=trismooth.Point2.__init__, **kwargs):
        made["Point2"] += 1
        _inner(self, *args, **kwargs)

    monkeypatch.setattr(trismooth.Point2, "__init__", counted)
    trismooth.Point2(0.0, 1.0)  # the count sees every construction
    assert made.pop("Point2") == 1
    argv = ["simple-mesh", "--n", "40", "--random", "7", "--steps", "200", "--json"]
    argv += ["--svg", str(tmp_path / "f.svg"), "--output", str(tmp_path / "f.json")]
    assert run(capsys, argv)[0] == 0
    assert made["Point2"] == 0


@pytest.mark.parametrize(
    "n",
    [str(sys.maxsize // 24 + 1), str(sys.maxsize), str(sys.maxsize + 1), "1" + "0" * 30, "1" + "0" * 400],
    ids=["maxsize/24+1", "maxsize", "maxsize+1", "1e30", "1e400"],
)
@pytest.mark.parametrize("source", [["--optimal"], ["--random", "1"]])
def test_simple_mesh_n_past_maxsize_is_usage_error(capsys, n, source):
    # past sys.maxsize // 24 no (3, N) float array fits numpy's size limit:
    # the error names --n, before anything is allocated
    code, out, err = run(capsys, ["simple-mesh", "--n", n, *source])
    assert (code, out) == (2, "")
    assert err == f"error: --n must be at most {sys.maxsize // 24}\n"


BINS_LIMIT = sys.maxsize // 16


@pytest.mark.parametrize(
    "bins",
    [BINS_LIMIT, BINS_LIMIT + 1, 2**63 - 1, 2**63, 10**20],
    ids=["limit", "limit+1", "2**63-1", "2**63", "1e20"],
)
@pytest.mark.parametrize("how", ["flag", "config", "library"])
def test_analyze_bins_past_the_limit_is_usage_error(capsys, tmp_path, bins, how):
    # numpy refuses arrays past sys.maxsize bytes, some with a traceback; at the
    # limit, the 4 EiB of bin edges fail to allocate at once: out of memory
    path = tmp_path / "tri.off"
    path.write_text(MINIMAL_OFF)
    if how == "library":
        mesh = trismooth.load_mesh(path)
        if bins == BINS_LIMIT:
            with pytest.raises(MemoryError):
                trismooth.analyze(mesh, bins=bins)
        else:
            with pytest.raises(ValueError, match=f"^histogram needs at most {BINS_LIMIT} bins$"):
                trismooth.analyze(mesh, bins=bins)
        return
    argv = ["analyze", str(path), "--bins", str(bins)]
    if how == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({"bins": bins}))
        argv = ["analyze", str(path), "--config", str(tmp_path / "cfg.json")]
    code, out, err = run(capsys, argv)
    assert out == "" and len(err.splitlines()) == 1
    if bins == BINS_LIMIT:
        assert code == 4 and err.startswith("error: out of memory")
    else:
        assert (code, err) == (2, f"error: histogram needs at most {BINS_LIMIT} bins\n")


@pytest.mark.parametrize("config", [False, True], ids=["flag", "config"])
def test_simple_mesh_negative_seed_is_usage_error(capsys, tmp_path, config):
    # numpy's own message names no flag: the check comes first and names --random
    argv = ["simple-mesh", "--n", "3", "--random", "-1"]
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 3, "random": -1}))
        argv = ["simple-mesh", "--config", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: --random must be >= 0\n"
    assert run(capsys, ["simple-mesh", "--n", "3", "--random", "0"])[0] == 0


def test_simple_mesh_random_failure_is_numeric_error(capsys):
    code, out, err = run(capsys, ["simple-mesh", "--n", "2000", "--random", "1"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: no valid random 2000-fan")
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


def reference_simple_mesh_document(mesh, steps):
    """simple-mesh's --json document as a dict, which main printed with
    json.dumps(indent=2) before the block templates."""
    rows, final = mesh_steps(mesh, steps)
    _, residual = reconstruct_geometry(final, 1.0)
    return {
        "n": mesh.n_triangles,
        "correction_terms": vars(correction_terms(mesh.n_triangles)),
        "steps": [
            {"step": step, "mesh_q": q, "q_min": q_min, "q_max": q_max, "max_residual": r}
            for step, (q, q_min, q_max, r) in enumerate(rows.tolist())
        ],
        "final": mesh_to_dict(final),
        "reconstruction": {
            "radius_residual": residual.radius,
            "turn_residual": residual.turn,
        },
    }


def overflowing_residual_fan():
    """A valid 3-fan whose radius-1 closure residual overflows to inf: its
    last two gammas are 1e-200 and 1e-300, so the law of sines' last ratio
    is past float range while every vertex stays finite."""
    alpha = [1.0, PI - 0.5, PI - 0.5]
    gamma = [PI / 2 - 1e-200 - 1e-300, 1e-200, 1e-300]
    beta = [PI - a - g for a, g in zip(alpha, gamma)]
    triangles = [dict(alpha=a, beta=b, gamma=g) for a, b, g in zip(alpha, beta, gamma)]
    return {"N": 3, "triangles": triangles}


@pytest.mark.parametrize(
    "source, steps",
    [
        (["--n", "3", "--random", "3"], 200),
        (["--n", "480", "--random", "3"], 200),
        (["--n", "7", "--random", "3"], 5),
        (["--n", "5", "--optimal"], 0),
        (["--n", "6", "--optimal"], 3),
        (["--input", "overflow.json"], 0),
    ],
)
def test_simple_mesh_json_matches_json_dumps(capsys, tmp_path, source, steps):
    fan = tmp_path / "overflow.json"
    fan.write_text(json.dumps(overflowing_residual_fan()))
    argv = ["simple-mesh", *(str(fan) if a == "overflow.json" else a for a in source)]
    code, out, err = run(capsys, [*argv, "--steps", str(steps), "--json"])
    assert (code, err) == (0, "")
    if "--input" in source:
        mesh = load_mesh_angles(fan)
        # json writes a non-finite float as Infinity, and so does simple-mesh
        assert '"radius_residual": Infinity' in out
    elif "--optimal" in source:
        mesh = optimal_mesh(int(source[1]))
    else:
        mesh = random_mesh(int(source[1]), int(source[3]))
    assert out == json.dumps(reference_simple_mesh_document(mesh, steps), indent=2) + "\n"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 80), seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 40))
def test_simple_mesh_json_matches_json_dumps_on_drawn_fans(n, seed, steps):
    out = io.StringIO()
    mesh = random_mesh(n, seed)
    argv = ["simple-mesh", "--n", str(n), "--random", str(seed), "--steps", str(steps), "--json"]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    expected = json.dumps(reference_simple_mesh_document(mesh, steps), indent=2) + "\n"
    assert out.getvalue() == expected


def test_simple_mesh_json_of_fewer_steps_starts_the_longer_one(capsys):
    # simple-mesh stops stepping once a fan equals the fan two steps back: the
    # 200-step document up to its last row is, byte for byte, the start of the
    # 1100-step one, and every row from the repeat on is the row two steps back
    argv = ["simple-mesh", "--n", "40", "--random", "7", "--json", "--steps"]
    short = run(capsys, [*argv, "200"])[1]
    long = run(capsys, [*argv, "1100"])[1]
    assert long.startswith(short[: short.index("\n  ]")] + ",")
    rows = [dict(row, step=0) for row in json.loads(long, parse_float=str)["steps"]]
    assert len(rows) == 1101
    last = max(s for s in range(2, len(rows)) if rows[s] != rows[s - 2])
    assert 2 < last < 200, last


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



@pytest.mark.parametrize("how", ["same path", "symlink", "hard link"])
def test_analyze_report_and_csv_in_one_file_hold_the_csv(capsys, tmp_path, how):
    # writing the JSON and then the CSV to one file leaves the CSV, so only the CSV is written
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    alone, target = tmp_path / "alone.csv", tmp_path / "r.out"
    code, _, _ = run(capsys, ["analyze", str(mesh), "--steps", "1,2", "--csv", str(alone)])
    assert code == 0
    report = target
    if how == "symlink":
        report = tmp_path / "link.out"
        report.symlink_to(target)
    elif how == "hard link":
        target.write_text("old")
        report = tmp_path / "link.out"
        os.link(target, report)
    argv = ["analyze", str(mesh), "--steps", "1,2", "--report", str(report), "--csv", str(target)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [f"wrote {report}", f"wrote {target}"]
    assert target.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("before", [None, "an older report\n"], ids=["absent", "existing"])
def test_analyze_bad_csv_path_leaves_the_report_as_it_was(capsys, tmp_path, before):
    # the CSV fails to open once the report is open: the report's handle wrote
    # nothing, so a file it made goes and an existing one keeps its bytes
    mesh, report = tmp_path / "m.off", tmp_path / "r.json"
    mesh.write_text(MINIMAL_OFF)
    if before is not None:
        report.write_text(before)
    bad = tmp_path / "missing" / "r.csv"
    code, _, err = run(capsys, ["analyze", str(mesh), "--report", str(report), "--csv", str(bad)])
    assert (code, err) == (3, f"error: [Errno 2] No such file or directory: {str(bad)!r}\n")
    assert (report.read_text() if report.exists() else None) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.off"] + ["r.json"] * (before is not None)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_analyze_reports_to_dev_null(capsys, tmp_path):
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    argv = ["analyze", str(mesh), "--report", "/dev/null", "--csv", "/dev/null"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == ["wrote /dev/null", "wrote /dev/null"]


@pytest.mark.parametrize("bad", ["--report", "--csv"])
def test_analyze_unopenable_report_is_io_error(capsys, tmp_path, bad):
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    paths = {"--report": tmp_path / "r.json", "--csv": tmp_path / "r.csv"}
    paths[bad] = tmp_path / "absent" / "r.out"
    argv = ["analyze", str(mesh), *(str(x) for pair in paths.items() for x in pair)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(paths[bad]) in err

def test_analyze_json_builds_no_text_lines(capsys, tmp_path, monkeypatch):
    # under --json only the document is printed, so the per-face lines are not built
    mesh = tmp_path / "m.off"
    mesh.write_text(MINIMAL_OFF)
    templates = Counter()
    rows, pieces = cli.block_rows, QualityReport._pieces

    def counted(template, *args):
        templates["text" if template.startswith("  triangle") else "json"] += 1
        return rows(template, *args)

    def counted_pieces(report, *layouts):
        # the report files' block loop: a layout's row template is its second item
        templates.update("json" if row.startswith("    {") else "csv" for _, row, *_ in layouts)
        return pieces(report, *layouts)

    monkeypatch.setattr(cli, "block_rows", counted)
    monkeypatch.setattr(QualityReport, "_pieces", counted_pieces)
    code, out, _ = run(capsys, ["analyze", str(mesh), "--steps", "1,2", "--json"])
    assert code == 0 and json.loads(out)["summary"]["count"] == 1
    assert templates == Counter({"json": 1})
    code, out, _ = run(capsys, ["analyze", str(mesh), "--steps", "1,2"])
    assert code == 0 and out.splitlines()[-1].startswith("  triangle 0: q=")
    assert templates == Counter({"json": 1, "text": 1})


def test_analyze_json_is_written_in_pieces(tmp_path, monkeypatch):
    # main writes the document chunk by chunk, so no write holds all of it
    cells = 65  # 2 * 65**2 = 8450 faces, past two blocks of 4096
    n = cells + 1
    corners = [r * n + c for r in range(cells) for c in range(cells)]
    text = f"OFF\n{n * n} {2 * len(corners)} 0\n"
    text += "".join(f"{i % n} {i // n}\n" for i in range(n * n))
    text += "".join(f"3 {a} {a + 1} {a + n}\n3 {a + 1} {a + n + 1} {a + n}\n" for a in corners)
    mesh = tmp_path / "grid.off"
    mesh.write_text(text)

    class Recorder(io.StringIO):
        largest = 0

        def write(self, text):
            self.largest = max(self.largest, len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["analyze", str(mesh), "--steps", "1,2,4", "--json"]) == 0
    document = out.getvalue()
    assert json.loads(document)["summary"]["count"] == 2 * len(corners)
    assert 0 < out.largest < len(document) / 2


def test_analyze_missing_file_is_io_error(capsys, tmp_path):
    code, _, _ = run(capsys, ["analyze", str(tmp_path / "absent.off")])
    assert code == 3


def test_analyze_malformed_mesh_is_io_error(capsys, tmp_path):
    # a bad index or token names its line: exit 3 and one "error: line N: ..." line
    for name, text, line in [
        ("m.off", "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 9\n", 6),
        ("m.off", "OFF\n3 1 0\n0 0\n1 x\n0 1\n3 0 1 2\n", 4),
        ("m.obj", "v 0 0\nv 1 0\nv 0 1\nf 1 2 x\n", 4),
    ]:
        mesh = tmp_path / name
        mesh.write_text(text)
        code, out, err = run(capsys, ["analyze", str(mesh)])
        assert (code, out) == (3, ""), text
        assert err.startswith(f"error: line {line}: ") and len(err.splitlines()) == 1, err


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
    "name, argv",
    [
        ("fan.json", ["simple-mesh", "--input", "{path}"]),
        ("cfg.json", ["predict", "--angles", "90,60,30", "--degrees", "--config", "{path}"]),
    ],
)
def test_too_deeply_nested_json_is_io_error(capsys, tmp_path, name, argv):
    # nesting past the decoder's recursion limit is a file-format failure, like malformed JSON
    path = tmp_path / name
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, [a.format(path=path) for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith("error: document nested too deeply")
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
    written with %.17g as OFF and as OBJ, then ``construct --json`` of its
    first face: each run's code, stdout and stderr, and what it computed
    (the faces' angles and qualities, the SVG's fills)."""
    points = [(x * scale, y * scale) for x, y in SCALE_MESH]
    off, obj, svg = tmp_path / "s.off", tmp_path / "s.obj", tmp_path / "s.svg"
    text = f"OFF\n{len(points)} {len(SCALE_FACES)} 0\n"
    text += "".join("%.17g %.17g\n" % p for p in points)
    off.write_text(text + "".join("3 %d %d %d\n" % f for f in SCALE_FACES))
    text = "".join("v %.17g %.17g\n" % p for p in points)
    obj.write_text(text + "".join("f %d %d %d\n" % (i + 1, j + 1, k + 1) for i, j, k in SCALE_FACES))
    runs = []
    for mesh in (off, obj):
        svg.unlink(missing_ok=True)
        code, out, err = run(capsys, ["analyze", str(mesh), "--steps", "1,2", "--json"])
        faces = json.loads(out)["triangles"] if code == 0 else []
        angles = [[f["alpha"], f["beta"], f["gamma"], f["q"], *f["predicted"].values()] for f in faces]
        runs.append((code, out, err, angles))
        code, out, err = run(capsys, ["render", str(mesh), "--out", str(svg)])
        fills = svg.read_text().split('fill="')[1:] if code == 0 else []
        runs.append((code, out, err, [f[:7] for f in fills]))
    first = ",".join("%.17g" % v for i in SCALE_FACES[0] for v in points[i])
    code, out, err = run(capsys, ["construct", "--points", first, "--steps", "0", "--json"])
    angles = json.loads(out)["steps"][0]["angles"] if code == 0 else []
    return runs, (code, out, err, angles)


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
    unit_runs, unit_construct = scaled_mesh_runs(capsys, tmp_path, 1.0)
    runs, construct = scaled_mesh_runs(capsys, tmp_path, scale)
    points = [(x * scale, y * scale) for x, y in SCALE_MESH]
    longest = [
        max(math.dist(points[a], points[b]) for a, b in ((i, j), (j, k), (k, i)))
        for i, j, k in SCALE_FACES
    ]
    leaves = [d * d == math.inf or (d * d < sys.float_info.min and d > 0) for d in longest]
    cases = [(got, unit, any(leaves)) for got, unit in zip(runs, unit_runs)]
    cases.append((construct, unit_construct, leaves[0]))  # construct draws face 0 only
    for (code, out, err, computed), (_, _, _, expected), leaving in cases:
        if leaving:
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


def config_run(capsys, tmp_path, command, cfg):
    """Run ``command --config`` with ``cfg``, after the minimal mesh for
    ``analyze`` and ``render``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    mesh = tmp_path / "tri.off"
    mesh.write_text(MINIMAL_OFF)
    positional = [str(mesh)] if command in ("analyze", "render") else []
    return run(capsys, [command, *positional, "--config", str(path)])


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("analyze", "report", True),
        ("analyze", "csv", 1),
        ("analyze", "format", 5),
        ("analyze", "steps", {"n": 1}),
        ("simple-mesh", "input", 0),
        ("simple-mesh", "output", ["f.json"]),
        ("simple-mesh", "colormap", 5),
        ("render", "out", 7),
        ("render", "colormap", False),
        ("construct", "svg", 1.0),
        ("iterate", "angles", True),
    ],
)
def test_config_string_option_takes_a_json_string(capsys, tmp_path, command, key, value):
    code, out, err = config_run(capsys, tmp_path, command, {key: value})
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: config key {key!r} must be a JSON string")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "tri.off"]


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        ("analyze", {"steps": [1.5]}, "--steps values must be integers"),
        (
            "predict",
            {"angles": "90,60,30", "degrees": True, "steps": [True]},
            "--steps values must be integers",
        ),
        ("predict", {"angles": [90, None, 30]}, "--angles values must be numbers"),
        ("construct", {"points": [[0], 0, 1, 0, 0, 1]}, "--points values must be numbers"),
        # an integer no float can hold, like 1e400 in the same list
        ("predict", {"angles": [10**400, 1, 1]}, "--angles holds an integer too large for a float"),
        (
            "construct",
            {"points": [0, 0, -(10**400), 0, 0, 1]},
            "--points holds an integer too large for a float",
        ),
    ],
)
def test_config_list_holds_numbers(capsys, tmp_path, command, cfg, message):
    code, out, err = config_run(capsys, tmp_path, command, cfg)
    assert (code, out, err) == (2, "", f"error: {message}\n")


#: Each path or colormap option given as "", with the command's other flags and
#: the exit code: a given option is used, so "" fails to open or to parse.
EMPTY_VALUES = [
    ("analyze", "report", [], 3),
    ("analyze", "csv", [], 3),
    ("simple-mesh", "output", ["--n", "5", "--optimal"], 3),
    ("simple-mesh", "svg", ["--n", "5", "--optimal"], 3),
    ("construct", "svg", ["--points", "0,0,1,0,0,1"], 3),
    ("render", "colormap", ["--out", "o.svg"], 2),
    ("construct", "colormap", ["--points", "0,0,1,0,0,1", "--svg", "o.svg"], 2),
    ("simple-mesh", "colormap", ["--n", "5", "--optimal", "--svg", "o.svg"], 2),
]
EMPTY_VALUE_ERRORS = {3: "[Errno 2] No such file or directory: ''", 2: "colormap stop '' must be q:color"}


@pytest.mark.parametrize(
    "command, key, argv, expected, how",
    [
        pytest.param(*case, how, id=f"{case[0]}-{case[1]}-{how}")
        for case in EMPTY_VALUES
        for how in ("flag", "config")
    ]
    + [pytest.param("predict", "config", PREDICT_90_60_30[1:], 3, "flag", id="config-flag")],
)
def test_an_empty_option_value_is_used(capsys, tmp_path, monkeypatch, command, key, argv, expected, how):
    (tmp_path / "tri.off").write_text(MINIMAL_OFF)
    monkeypatch.chdir(tmp_path)
    positional = ["tri.off"] if command in ("analyze", "render") else []
    if how == "flag":
        given = [f"--{key}", ""]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: ""}))
        given = ["--config", "cfg.json"]
    inputs = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run(capsys, [command, *positional, *argv, *given])
    assert (code, out, err) == (expected, "", f"error: {EMPTY_VALUE_ERRORS[expected]}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs  # nothing written


CONFIG_ISOLATION = [
    # (config, argv with --config, argv without it); each config value, leaked
    # into the later call, would change its output or make it fail
    (
        {"angles": "90,60,30", "degrees": True, "steps": 2},
        ["iterate", "--json"],
        ["iterate", "--angles", "1.5,1.0,0.6415926535897931"],
    ),
    (
        {"n": 5, "optimal": True, "steps": 3, "output": "{tmp}/fan.json"},
        ["simple-mesh"],
        ["simple-mesh", "--n", "7", "--random", "1", "--steps", "2"],
    ),
    (
        {"steps": [1, 2], "bins": 3, "report": "{tmp}/r.json"},
        ["analyze", "{mesh}"],
        ["analyze", "{mesh}"],
    ),
]


def test_config_defaults_stay_with_their_call(capsys, tmp_path):
    mesh = tmp_path / "tri.off"
    mesh.write_text(MINIMAL_OFF)

    def fill(argv):
        return [a.replace("{mesh}", str(mesh)) for a in argv]

    later = []
    for n, (cfg, with_config, without) in enumerate(CONFIG_ISOLATION):
        path = tmp_path / f"cfg{n}.json"
        path.write_text(json.dumps(cfg).replace("{tmp}", str(tmp_path)))
        assert run(capsys, [*fill(with_config), "--config", str(path)])[0] == 0
        later.append(run(capsys, fill(without)))
    for (_, _, without), got in zip(CONFIG_ISOLATION, later):
        fresh = run_child(["-m", "trismooth.cli", *fill(without)])
        assert (fresh.returncode, fresh.stderr) == (0, "")
        assert got == (0, fresh.stdout, "")
    assert cli.build_parser() is not cli.build_parser()


def test_usage_errors(capsys):
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["iterate", "--bogus"]) == 2


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


_RATE_TRIPLE = trismooth.AngleTriple(PI / 2, PI / 3, PI / 6)
_TRIANGLE = (trismooth.Point2(0, 0), trismooth.Point2(1, 0), trismooth.Point2(0, 1))
_NOT_AN_INT = "'float' object cannot be interpreted as an integer"

#: Classified errors no other test reaches: a CLI call with its exit code, or a
#: library call with its exception type, and the message either gives.
CLASSIFIED_ERRORS = {
    "config_not_an_object": (
        ["predict", "--config", "list.json"], 2, "config file must hold a JSON object"
    ),
    "config_key_config": (
        ["predict", "--config", "key.json"], 2, "config key 'config' is not allowed"
    ),
    "iterate_negative_steps": (
        ["iterate", "--angles", "90,60,30", "--degrees", "--steps", "-1"], 2,
        "--steps must be >= 0",
    ),
    "input_with_n": (
        ["simple-mesh", "--input", "F", "--n", "3"], 2, "--input excludes --n/--optimal/--random"
    ),
    "colormap_bad_hex": (
        ["render", "tri.off", "--out", "o.svg", "--colormap", "0:zz0000,1:000000"], 2,
        "bad hex color 'zz0000'",
    ),
    "colormap_bad_position": (
        ["render", "tri.off", "--out", "o.svg", "--colormap", "x:ff0000,1:000000"], 2,
        "bad stop position 'x'",
    ),
    "fan_triangles_not_a_list": (
        ["simple-mesh", "--input", "object.json"], 2, '"triangles" must be a list'
    ),
    "fan_record_not_an_object": (
        ["simple-mesh", "--input", "record.json"], 2, "triangle 0: record must be an object"
    ),
    "colormap_rgb_past_255": (
        lambda: trismooth.ColorMap(((0.0, (0, 0, 256)), (1.0, (0, 0, 0)))), ValueError,
        "bad RGB triple (0, 0, 256)",
    ),
    "fan_angles_of_strings": (
        lambda: trismooth.SimpleMeshAngles(*[("a", "b", "c")] * 3),
        trismooth.MeshConstraintError, "angles must be numbers",
    ),
    "fan_geometry_two_points": (
        lambda: trismooth.SimpleMeshGeometry(
            trismooth.Point2(0, 0), [trismooth.Point2(1, 0), trismooth.Point2(0, 1)]
        ),
        trismooth.MeshConstraintError, "fan geometry needs >= 3 boundary points",
    ),
    "mesh_steps_negative": (
        lambda: mesh_steps(optimal_mesh(3), -1), ValueError, "step count must be >= 0"
    ),
    "mesh_steps_text_steps": (
        lambda: mesh_steps(optimal_mesh(3), "3"), TypeError,
        "'str' object cannot be interpreted as an integer",
    ),
    "mesh_steps_whole_float_steps": (
        lambda: mesh_steps(optimal_mesh(3), 2.0), TypeError, _NOT_AN_INT
    ),
    "optimal_quality_two": (
        lambda: trismooth.optimal_quality(2), ValueError,
        "fan mesh needs at least 3 triangles, got 2",
    ),
    "optimal_mesh_two": (
        lambda: trismooth.optimal_mesh(2), ValueError, "fan mesh needs at least 3 triangles, got 2"
    ),
    "coefficient_index_negative": (
        lambda: trismooth.coefficients(3).a(-1), IndexError, "coefficient index must be >= 0"
    ),
    "deviations_after_negative": (
        lambda: trismooth.deviations_after(_RATE_TRIPLE, -1), ValueError,
        "iteration count must be >= 0",
    ),
    # a count is read through operator.index: a fraction is a TypeError, not
    # a complex angle, a rounded step or an answer for a 4.5-triangle fan
    "predict_quality_fractional_steps": (
        lambda: trismooth.predict_quality(_RATE_TRIPLE, 1.5), TypeError, _NOT_AN_INT
    ),
    "iterate_fractional_steps": (
        lambda: trismooth.iterate(_RATE_TRIPLE, 2.5), TypeError, _NOT_AN_INT
    ),
    "deviations_after_fractional_steps": (
        lambda: trismooth.deviations_after(_RATE_TRIPLE, 2.5), TypeError, _NOT_AN_INT
    ),
    "rate_check_fractional_k": (
        lambda: trismooth.convergence_rate_check(_RATE_TRIPLE, 1.5), TypeError, _NOT_AN_INT
    ),
    "closed_form_whole_float_steps": (
        lambda: trismooth.iterate_closed_form(_RATE_TRIPLE, 2.0), TypeError, _NOT_AN_INT
    ),
    # 4 is cached first: 4.0 must not find its entry
    "coefficients_whole_float_count": (
        lambda: [trismooth.coefficients(n) for n in (4, 4.0)], TypeError, _NOT_AN_INT
    ),
    "coefficient_whole_float_index": (
        lambda: trismooth.coefficients(3).a(0.0), TypeError, _NOT_AN_INT
    ),
    "correction_terms_fractional_fan": (
        lambda: trismooth.correction_terms(4.5), TypeError, _NOT_AN_INT
    ),
    "optimal_quality_fractional_fan": (
        lambda: trismooth.optimal_quality(4.5), TypeError, _NOT_AN_INT
    ),
    "random_mesh_whole_float_fan": (
        lambda: trismooth.random_mesh(5.0, 0), TypeError, _NOT_AN_INT
    ),
    "iterate_mesh_fractional_steps": (
        lambda: trismooth.iterate_mesh(trismooth.optimal_mesh(5), 2.5), TypeError, _NOT_AN_INT
    ),
    "growth_check_fractional_steps": (
        lambda: trismooth.edge_product_growth_check(trismooth.TrianglePoints(*_TRIANGLE), 0.5),
        TypeError, _NOT_AN_INT,
    ),
    "analyze_fractional_step": (
        lambda: trismooth.analyze(trismooth.MeshModel(_TRIANGLE, [(0, 1, 2)]), (1.5,)),
        TypeError, _NOT_AN_INT,
    ),
    "analyze_text_step": (
        lambda: trismooth.analyze(trismooth.MeshModel(_TRIANGLE, [(0, 1, 2)]), ("2",)),
        TypeError, "'str' object cannot be interpreted as an integer",
    ),
    "analyze_fractional_bins": (
        lambda: trismooth.analyze(trismooth.MeshModel(_TRIANGLE, [(0, 1, 2)]), bins=2.5),
        TypeError, _NOT_AN_INT,
    ),
    # MeshModel reads each vertex index the same way, and names the triangle
    "mesh_model_fractional_index": (
        lambda: trismooth.MeshModel(_TRIANGLE, [(0, 1, 2), (0.5, 1, 2)]), ValueError,
        "triangle 1: needs 3 integer vertex indices, got (0.5, 1, 2)",
    ),
    "mesh_model_text_indices": (
        lambda: trismooth.MeshModel(_TRIANGLE, [("0", "1", "2")]), ValueError,
        "triangle 0: needs 3 integer vertex indices, got ('0', '1', '2')",
    ),
    "mesh_model_four_indices": (
        lambda: trismooth.MeshModel(_TRIANGLE, [[0, 1, 2, 0]]), ValueError,
        "triangle 0: needs 3 integer vertex indices, got [0, 1, 2, 0]",
    ),
    # k = 500 still gives 0.25
    "rate_check_underflow": (
        lambda: trismooth.convergence_rate_check(_RATE_TRIPLE, 512), ValueError,
        "deviation underflows at k = 512",
    ),
}


@pytest.mark.parametrize("name", sorted(CLASSIFIED_ERRORS))
def test_classified_error_messages(capsys, tmp_path, monkeypatch, name):
    call, kind, message = CLASSIFIED_ERRORS[name]
    if callable(call):
        with pytest.raises(kind) as raised:
            call()
        assert type(raised.value) is kind and str(raised.value) == message
        return
    inputs = {
        "list.json": "[]",
        "key.json": '{"config": "x"}',
        "tri.off": MINIMAL_OFF,
        "object.json": '{"N": 0, "triangles": {}}',
        "record.json": '{"N": 1, "triangles": [1]}',
    }
    for file_name, text in inputs.items():
        (tmp_path / file_name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, call) == (kind, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)  # nothing written


#: Every call that takes a count, as a function of the count.
COUNT_CALLS = {
    "iterate": lambda k: trismooth.iterate(_RATE_TRIPLE, k),
    "deviations_after": lambda k: trismooth.deviations_after(_RATE_TRIPLE, k),
    "coefficients": trismooth.coefficients,
    "coefficient_index": lambda k: trismooth.coefficients(5).a(k),
    "iterate_closed_form": lambda k: trismooth.iterate_closed_form(_RATE_TRIPLE, k),
    "predict_quality": lambda k: trismooth.predict_quality(_RATE_TRIPLE, k, alt_even=True),
    "convergence_rate_check": lambda k: trismooth.convergence_rate_check(_RATE_TRIPLE, k),
    "correction_terms": trismooth.correction_terms,
    "optimal_quality": trismooth.optimal_quality,
    "optimal_mesh": trismooth.optimal_mesh,
    "random_mesh": lambda k: trismooth.random_mesh(k, 0),
    "iterate_mesh": lambda k: trismooth.iterate_mesh(trismooth.random_mesh(5, 0), k),
    "mesh_steps": lambda k: mesh_steps(trismooth.random_mesh(5, 0), k),
    "edge_product_growth_check": lambda k: trismooth.edge_product_growth_check(
        trismooth.TrianglePoints(*_TRIANGLE), k
    ),
    "analyze_predict_steps": lambda k: trismooth.analyze(
        trismooth.MeshModel(_TRIANGLE, [(0, 1, 2)]), (k, 1)
    ),
    "analyze_bins": lambda k: trismooth.analyze(trismooth.MeshModel(_TRIANGLE, [(0, 1, 2)]), bins=k),
}


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_numpy_integer_counts_give_the_int_result(name):
    # pickled, the results match to the bit and hold no numpy integer the int lacks
    call = COUNT_CALLS[name]
    assert pickle.dumps(call(np.int64(4))) == pickle.dumps(call(4))


def test_rate_check_holds_until_the_deviation_underflows():
    assert trismooth.convergence_rate_check(_RATE_TRIPLE, 500) == 0.25
