"""Tests for the constrained fan-mesh transformation and reconstruction."""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from trismooth import (
    AngleTriple,
    DegenerateMeshError,
    MeshConstraintError,
    Point2,
    SimpleMeshAngles,
    SimpleMeshGeometry,
    angles_of,
    correction_terms,
    iterate_mesh,
    load_mesh_angles,
    mesh_quality,
    optimal_mesh,
    optimal_quality,
    QualityValue,
    random_mesh,
    reconstruct_geometry,
    save_mesh_angles,
    transform,
    transform_mesh,
)
from trismooth import cli, simple_mesh
from trismooth.plane_geometry import FACE_BLOCK
from trismooth.simple_mesh import mesh_from_dict, mesh_steps, mesh_to_dict

from conftest import closing_mesh

PI = math.pi


def adversarial_mesh_n12():
    # valid fan whose first apex angle exceeds pi/2, so the N = 12
    # correction (-pi/4) pushes the transformed apex below zero
    n = 12
    alpha = [1.7] + [(2 * PI - 1.7) / (n - 1)] * (n - 1)
    beta = [(PI - a) / 2 for a in alpha]
    gamma = [(PI - a) / 2 for a in alpha]
    return SimpleMeshAngles(tuple(alpha), tuple(beta), tuple(gamma))


# --- scalar reference code: the per-triangle fan path before the (3, N) array ---

def reference_transform_mesh(m):
    """transform_mesh as a per-triangle loop over the angle tuples."""
    k = correction_terms(m.n_triangles)
    new_a, new_b, new_g = [], [], []
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
    return tuple(new_a), tuple(new_b), tuple(new_g)


def reference_residual(a, b, g):
    """The constructor's worst constraint residual, one triangle at a time."""
    n = len(a)
    return max(
        max(abs(a[i] + b[i] + g[i] - PI) for i in range(n)),
        abs(math.fsum(a) - 2.0 * PI),
        abs(math.fsum(b) - (n - 2) * PI / 2.0),
    )


def reference_row(a, b, g):
    """(mesh_q, q_min, q_max, max_residual) as the per-triangle path made them."""
    ratios = [min(abg) / max(abg) for abg in zip(a, b, g)]
    return [min(ratios) / max(ratios), min(ratios), max(ratios), reference_residual(a, b, g)]


def reference_save_mesh_angles(m, path):
    """save_mesh_angles through json.dump, before the %r row template."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(mesh_to_dict(m), fh, indent=2)
        fh.write("\n")


# --- correction terms ---------------------------------------------------------

def test_correction_term_values():
    k6 = correction_terms(6)
    assert (k6.k_alpha, k6.k_beta, k6.k_gamma) == (0.0, 0.0, 0.0)
    k4 = correction_terms(4)
    assert k4.k_alpha == pytest.approx(PI / 4, abs=1e-15)
    assert k4.k_beta == pytest.approx(-PI / 8, abs=1e-15)
    k12 = correction_terms(12)
    assert k12.k_alpha == pytest.approx(-PI / 4, abs=1e-15)
    assert k12.k_beta == pytest.approx(PI / 8, abs=1e-15)


def test_correction_identities_exact():
    for n in range(3, 51):
        k = correction_terms(n)
        assert k.k_alpha + k.k_beta + k.k_gamma == 0.0
        assert k.k_beta == k.k_gamma
        assert k.k_gamma == -k.k_alpha / 2


def test_correction_rejects_small_n():
    with pytest.raises(ValueError):
        correction_terms(2)


# --- mesh construction and validation -----------------------------------------

def test_mesh_constructor_validates():
    with pytest.raises(MeshConstraintError):
        SimpleMeshAngles((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(MeshConstraintError):
        SimpleMeshAngles((1.0,) * 3, (1.0,) * 3, (1.0,) * 4)
    # sums violated
    with pytest.raises(MeshConstraintError):
        SimpleMeshAngles((PI / 2,) * 4, (PI / 3,) * 4, (PI / 6,) * 4)
    # non-positive angle
    bad = [2 * PI / 3] * 3
    with pytest.raises(MeshConstraintError):
        SimpleMeshAngles(tuple(bad), (PI / 2, PI / 2, -0.5), (0.1, 0.1, PI / 2))


def test_constraint_residuals_near_zero_for_optimal():
    for n in range(3, 13):
        m = optimal_mesh(n)
        res = m.constraint_residuals()
        assert res.max() < 1e-12
        assert m.constraint_residuals() is res  # measured once, when built


# --- transformation ------------------------------------------------------------

def test_transform_mesh_fixed_points():
    hexa = optimal_mesh(6)
    out = transform_mesh(hexa)
    assert out.alpha == hexa.alpha and out.beta == hexa.beta
    quad = optimal_mesh(4)
    out4 = transform_mesh(quad)
    assert out4.alpha == quad.alpha
    assert out4.beta == quad.beta
    assert out4.gamma == quad.gamma


def test_transform_mesh_two_step_contraction():
    d = 0.1
    alpha = (PI / 2 + d, PI / 2 - d, PI / 2 + d, PI / 2 - d)
    beta = tuple((PI - a) / 2 for a in alpha)
    m = SimpleMeshAngles(alpha, beta, beta)
    two = iterate_mesh(m, 2)
    for i in range(4):
        dev0 = m.alpha[i] - PI / 2
        dev2 = two.alpha[i] - PI / 2
        assert dev2 == pytest.approx(dev0 / 4, rel=1e-12)


def test_transform_mesh_matches_plain_transform_at_n6():
    m = random_mesh(6, np.random.default_rng(3))
    out = transform_mesh(m)
    for i in range(6):
        # corrections vanish, so the update is the raw pairwise mean
        assert out.alpha[i] == 0.5 * (m.beta[i] + m.gamma[i])
        assert out.beta[i] == 0.5 * (m.alpha[i] + m.gamma[i])
        assert out.gamma[i] == 0.5 * (m.alpha[i] + m.beta[i])
        plain = transform(m.triangle(i))
        assert out.triangle(i).as_tuple() == pytest.approx(
            plain.as_tuple(), abs=1e-12
        )


def test_transform_mesh_fails_loudly_on_degenerate_output():
    m = adversarial_mesh_n12()
    with pytest.raises(DegenerateMeshError) as err:
        transform_mesh(m)
    assert "triangle 0" in str(err.value)
    assert "alpha" in str(err.value)


@pytest.mark.parametrize("n", [3, 5, 9, 40, 500])
def test_iterate_mesh_matches_transform_loop(n):
    # random fans have beta != gamma, so a label swap would show here
    m = random_mesh(n, np.random.default_rng(n))
    cur = m
    for steps in range(0, 31):
        fast = iterate_mesh(m, steps)
        for name in ("alpha", "beta", "gamma"):
            for x, y in zip(getattr(fast, name), getattr(cur, name)):
                assert abs(x - y) <= 1e-12
        cur = transform_mesh(cur)


def test_iterate_mesh_million_steps_reaches_optimal_quickly():
    m = random_mesh(500, 2)
    start = time.perf_counter()
    out = iterate_mesh(m, 10**6)
    elapsed = time.perf_counter() - start
    opt = optimal_mesh(500)
    assert (out.alpha, out.beta, out.gamma) == (opt.alpha, opt.beta, opt.gamma)
    assert elapsed < 0.5


def test_iterate_mesh_raises_on_degenerate_first_step():
    for steps in (1, 2, 30):
        with pytest.raises(DegenerateMeshError) as err:
            iterate_mesh(adversarial_mesh_n12(), steps)
        assert "triangle 0" in str(err.value)


def test_iterate_mesh_limits():
    rng = np.random.default_rng(21)
    m4 = iterate_mesh(random_mesh(4, rng), 60)
    assert all(abs(a - PI / 2) < 1e-9 for a in m4.alpha)
    m8 = iterate_mesh(random_mesh(8, rng), 60)
    assert all(abs(b - 3 * PI / 8) < 1e-9 for b in m8.beta)
    opt = optimal_mesh(5)
    assert iterate_mesh(opt, 17).alpha == opt.alpha
    with pytest.raises(ValueError):
        iterate_mesh(opt, -1)


def test_constraints_preserved_under_iteration():
    rng = np.random.default_rng(33)
    for n in range(3, 13):
        m = random_mesh(n, rng)
        for _ in range(20):
            m = transform_mesh(m)
            assert m.constraint_residuals().max() < 1e-10


def test_two_step_contraction_random_meshes():
    rng = np.random.default_rng(55)
    for n in (3, 5, 9, 12):
        m = random_mesh(n, rng)
        target = 2 * PI / n
        cur = m
        for k in range(1, 6):
            cur = iterate_mesh(cur, 2)
            for i in range(n):
                expect = abs(m.alpha[i] - target) / 4**k
                assert abs(cur.alpha[i] - target) == pytest.approx(
                    expect, rel=1e-10, abs=1e-13
                )


# --- array stepping against the scalar reference ---------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 40, 500])
@pytest.mark.parametrize("start", ["random", "optimal"])
def test_mesh_steps_match_scalar_reference(n, start):
    block = FACE_BLOCK // n
    wanted = sorted({0, 1, block - 1, block, block + 1, 1100})
    m = random_mesh(n, n) if start == "random" else optimal_mesh(n)
    state, rows, finals = (m.alpha, m.beta, m.gamma), [], {}
    for step in range(wanted[-1] + 1):
        if step:
            state = reference_transform_mesh(SimpleMeshAngles(*state))
        rows.append(reference_row(*state))
        if step in wanted:
            finals[step] = state
    for steps in wanted:
        got, final = mesh_steps(m, steps)
        assert got.tolist() == rows[: steps + 1]
        assert (final.alpha, final.beta, final.gamma) == finals[steps]
        assert final.constraint_residuals().max() == rows[steps][3]
    one = transform_mesh(m)
    assert (one.alpha, one.beta, one.gamma) == finals[1]
    assert one.constraint_residuals().max() == rows[1][3]
    assert mesh_quality(one).mesh_q == rows[1][0]


def test_mesh_steps_raise_for_the_first_failing_step(monkeypatch):
    m = optimal_mesh(5)
    fans = [m.angles.copy() for _ in range(4)]
    fans[2][1, 3] = -0.25  # step 3: a degenerate beta in triangle 3
    fans[3][0, 0] = float("nan")

    def replay(x, k, out=None):
        out[...] = fans.pop(0)
        return out

    monkeypatch.setattr(simple_mesh, "fan_step", replay)
    with pytest.raises(DegenerateMeshError, match="^triangle 3: transformed beta = -0.25 <= 0$"):
        mesh_steps(m, 4)
    fans[:] = [m.angles.copy() for _ in range(3)]
    fans[1][2, 4] += 1e-6  # step 2 breaks triangle 4's sum before step 3's NaN
    fans[2][0, 0] = float("nan")
    with pytest.raises(MeshConstraintError, match="triangle_sum=1.000e-06"):
        mesh_steps(m, 3)
    fans[:] = [m.angles.copy()]
    fans[0][2, 1] = float("inf")
    with pytest.raises(MeshConstraintError, match="^triangle 1: gamma = inf is not positive$"):
        mesh_steps(m, 1)


def test_simple_mesh_builds_two_fans_and_no_per_triangle_objects(monkeypatch, capsys):
    made = Counter()
    # every SimpleMeshAngles, checked by its constructor or not, is set up by _hold
    for cls, name in ((SimpleMeshAngles, "_hold"), (QualityValue, "__init__"), (AngleTriple, "__init__")):
        def counted(*args, _inner=getattr(cls, name), _name=cls.__name__, **kwargs):
            made[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    argv = ["simple-mesh", "--n", "40", "--random", "1", "--steps", "200"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 202 + 1
    assert made["SimpleMeshAngles"] <= 2
    assert made["QualityValue"] == made["AngleTriple"] == 0
    assert mesh_quality(optimal_mesh(4)).per_triangle[0].q == 0.5  # built when read
    assert made["QualityValue"] == 4


def test_every_fan_constructor_holds_python_floats(tmp_path):
    m = random_mesh(5, 1)
    save_mesh_angles(m, tmp_path / "m.json")
    fans = [
        optimal_mesh(5),
        m,
        transform_mesh(m),
        iterate_mesh(m, 3),
        mesh_steps(m, 3)[1],
        mesh_from_dict(mesh_to_dict(m)),
        load_mesh_angles(tmp_path / "m.json"),
        SimpleMeshAngles(*np.array([m.alpha, m.beta, m.gamma])),
    ]
    for fan in fans:
        for name in ("alpha", "beta", "gamma"):
            assert {type(v) for v in getattr(fan, name)} == {float}
    assert "float64" not in repr(m)
    assert eval(repr(m), {"SimpleMeshAngles": SimpleMeshAngles}) == m
    assert not m.angles.flags.writeable


@pytest.mark.parametrize("n", [3, 5, 40, 500, 5000])
def test_save_mesh_angles_matches_json_dump(tmp_path, n):
    start = random_mesh(n, n) if n <= 500 else optimal_mesh(n)  # 5000: two blocks
    for m in (start, transform_mesh(start)):
        save_mesh_angles(m, tmp_path / "new.json")
        reference_save_mesh_angles(m, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


# --- quality --------------------------------------------------------------------

def test_mesh_quality_optimal_values():
    q4 = mesh_quality(optimal_mesh(4))
    assert q4.mesh_q == 1.0
    assert all(v.q == pytest.approx(0.5, abs=1e-12) for v in q4.per_triangle)
    q6 = mesh_quality(optimal_mesh(6))
    assert all(v.q == pytest.approx(1.0, abs=1e-12) for v in q6.per_triangle)
    q8 = mesh_quality(optimal_mesh(8))
    assert all(v.q == pytest.approx(2 / 3, abs=1e-12) for v in q8.per_triangle)
    # cross-check against the direct angle ratio
    assert q8.per_triangle[0].q == pytest.approx((PI / 4) / (3 * PI / 8), abs=1e-12)


def test_optimal_quality_formula():
    for n in range(3, 13):
        expected = (n - 2) / 4 if n < 6 else 4 / (n - 2)
        assert optimal_quality(n) == pytest.approx(expected, abs=1e-15)
        qs = mesh_quality(optimal_mesh(n)).per_triangle
        assert all(v.q == pytest.approx(expected, abs=1e-12) for v in qs)
    with pytest.raises(ValueError):
        optimal_quality(2)


def test_mesh_quality_converges_to_one():
    rng = np.random.default_rng(77)
    m = random_mesh(7, rng)
    qs = [mesh_quality(iterate_mesh(m, k)).mesh_q for k in (0, 10, 20, 40)]
    assert qs[-1] > 1 - 1e-6
    assert qs[-1] >= qs[0]


# --- random generation ------------------------------------------------------------

def test_random_mesh_is_deterministic_and_valid():
    a = random_mesh(7, 123)
    b = random_mesh(7, 123)
    assert a.alpha == b.alpha and a.beta == b.beta and a.gamma == b.gamma
    assert a.constraint_residuals().max() < 1e-10
    assert min(min(a.alpha), min(a.beta), min(a.gamma)) > 1e-3
    # the generated mesh survives long iteration
    iterate_mesh(a, 60)


def test_random_mesh_exhausted_draws_are_degenerate_mesh_error():
    with pytest.raises(DegenerateMeshError, match="no valid random 1000-fan"):
        random_mesh(1000, 1)


def test_random_mesh_rejects_small_n():
    with pytest.raises(ValueError):
        random_mesh(2, 1)


# --- reconstruction ------------------------------------------------------------------

def test_reconstruct_optimal_square():
    geom, res = reconstruct_geometry(optimal_mesh(4), 1.0)
    expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for p, (x, y) in zip(geom.boundary, expected):
        assert (p.x, p.y) == pytest.approx((x, y), abs=1e-12)
    assert (geom.inner_vertex.x, geom.inner_vertex.y) == (0.0, 0.0)
    assert res.radius <= 1e-12 and abs(res.turn) <= 1e-12


def test_reconstruct_optimal_hexagon():
    geom, res = reconstruct_geometry(optimal_mesh(6), 1.0)
    for i, p in enumerate(geom.boundary):
        assert math.hypot(p.x, p.y) == pytest.approx(1.0, abs=1e-12)
        theta = math.atan2(p.y, p.x) % (2 * PI)
        assert theta == pytest.approx(i * PI / 3, abs=1e-12)
    assert res.radius <= 1e-12


def test_reconstruct_roundtrip_scale_invariant():
    rng = np.random.default_rng(5)
    for n in (4, 5, 8):
        m = closing_mesh(n, rng)
        for radius in (1.0, 7.3):
            geom, res = reconstruct_geometry(m, radius)
            assert res.radius <= 1e-8 and abs(res.turn) <= 1e-8
            angs = [angles_of(t) for t in geom.triangles()]
            for i in range(n):
                assert angs[i].alpha == pytest.approx(m.alpha[i], abs=1e-8)
                assert angs[i].beta == pytest.approx(m.beta[i], abs=1e-8)
                assert angs[i].gamma == pytest.approx(m.gamma[i], abs=1e-8)


def test_reconstruct_reports_nonclosing_radius():
    alpha = (PI / 2,) * 4
    beta = (PI / 4 + 0.2, PI / 4 - 0.1, PI / 4 - 0.1, PI / 4)
    gamma = tuple(PI - a - b for a, b in zip(alpha, beta))
    m = SimpleMeshAngles(alpha, beta, gamma)
    geom, res = reconstruct_geometry(m, 1.0)
    assert res.radius > 1e-3  # honest residual, not an error
    assert abs(res.turn) <= 1e-12
    assert geom.n_triangles == 4


def test_reconstruct_rejects_bad_radius():
    with pytest.raises(ValueError):
        reconstruct_geometry(optimal_mesh(4), 0.0)


def test_geometry_rejects_flipped_orientation():
    clockwise = (Point2(1, 0), Point2(0, -1), Point2(-1, 0), Point2(0, 1))
    with pytest.raises(MeshConstraintError):
        SimpleMeshGeometry(Point2(0, 0), clockwise)


def test_geometry_total_area():
    geom, _ = reconstruct_geometry(optimal_mesh(4), 1.0)
    assert geom.total_area() == pytest.approx(2.0, rel=1e-12)  # |diag| 2 square


# --- JSON interchange -----------------------------------------------------------------

def test_mesh_json_roundtrip(tmp_path):
    m = random_mesh(5, 9)
    path = tmp_path / "mesh.json"
    save_mesh_angles(m, path)
    again = load_mesh_angles(path)
    assert again.alpha == m.alpha
    assert again.beta == m.beta
    assert again.gamma == m.gamma


def test_mesh_dict_validation():
    good = mesh_to_dict(optimal_mesh(4))
    assert mesh_from_dict(good).alpha == optimal_mesh(4).alpha
    with pytest.raises(MeshConstraintError):
        mesh_from_dict({"triangles": []})
    bad_n = dict(good, N=5)
    with pytest.raises(MeshConstraintError):
        mesh_from_dict(bad_n)
    missing = {"N": 4, "triangles": [{"alpha": 1.0, "beta": 1.0}] * 4}
    with pytest.raises(MeshConstraintError):
        mesh_from_dict(missing)
    not_number = {
        "N": 4,
        "triangles": [{"alpha": "x", "beta": 1.0, "gamma": 1.0}] * 4,
    }
    with pytest.raises(MeshConstraintError):
        mesh_from_dict(not_number)
    with pytest.raises(MeshConstraintError):
        mesh_from_dict([1, 2, 3])


def test_mesh_json_rejects_constraint_violation(tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "N": 4,
        "triangles": [
            {"alpha": PI / 2, "beta": PI / 3, "gamma": PI / 6} for _ in range(4)
        ],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(MeshConstraintError):
        load_mesh_angles(path)
