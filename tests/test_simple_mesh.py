"""Tests for the constrained fan-mesh transformation and reconstruction."""

import contextlib
import functools
import io
import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trismooth import (
    AngleTriple,
    DegenerateMeshError,
    MeshConstraintError,
    Point2,
    SimpleMeshAngles,
    SimpleMeshGeometry,
    TrianglePoints,
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
from trismooth.angle_dynamics import STEP_CLAMP
from trismooth._text import FACE_BLOCK
from trismooth.simple_mesh import mesh_from_dict, mesh_steps

from conftest import check_output_writer, closing_mesh, mesh_to_dict

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


def reference_trajectory(m, steps):
    """The states (alpha, beta, gamma) of the reference loop from ``m`` on,
    and their rows."""
    states = [(m.alpha, m.beta, m.gamma)]
    for _ in range(steps):
        states.append(reference_transform_mesh(SimpleMeshAngles(*states[-1])))
    return states, [reference_row(*state) for state in states]


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


def reference_reconstruct(m, first_radius):
    """reconstruct_geometry as a loop over Point2s and TrianglePoints: the
    boundary points, the closure residuals (radius, turn), or the error."""
    turn = math.fsum(m.alpha)
    scale = 2.0 * PI / turn
    theta, r, points = 0.0, first_radius, []
    try:
        for i in range(m.n_triangles):
            points.append(Point2(r * math.cos(theta), r * math.sin(theta)))
            r *= math.sin(m.beta[i]) / math.sin(m.gamma[i])
            theta += m.alpha[i] * scale
    except ValueError as exc:
        raise ArithmeticError(f"cannot place the fan: {exc}") from None
    inner = Point2(0.0, 0.0)
    for i, (p, q) in enumerate(zip(points, points[1:] + points[:1])):
        if TrianglePoints(inner, p, q).doubled_signed_area() <= 0.0:
            raise ArithmeticError(f"cannot place the fan: fan triangle {i} is degenerate or flipped")
    return [(p.x, p.y) for p in points], (abs(r - first_radius) / first_radius, turn - 2.0 * PI)


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


def test_constraint_residuals_are_a_read_only_row():
    m = random_mesh(9, 4)
    res = m.constraint_residuals()
    assert (res.shape, res.dtype, res.flags.writeable) == ((3,), np.float64, False)
    assert res.tolist() == simple_mesh._residuals(m.angles[None])[0].tolist()


# --- transformation ------------------------------------------------------------

def test_row_sums_take_array_passes_for_a_fan_block(monkeypatch):
    x = np.stack([random_mesh(480, seed).angles for seed in range(8)])
    expected = [[math.fsum(row) for row in x[:, i].tolist()] for i in range(3)]
    monkeypatch.setattr(simple_mesh.math, "fsum", None)  # any fsum call fails
    assert [simple_mesh._row_sums(x[:, i]).tolist() for i in range(3)] == expected


def _value_block(seed, b, n, lo, hi, ties):
    """(b, n) positive floats: log-uniform between 10**lo and 10**hi, or
    ``ties`` near-ties: 2 pi / n nudged by a few ulps and exact binary steps."""
    rng = np.random.default_rng(seed)
    if ties:
        base = np.nextafter(2.0 * PI / n, np.inf) * np.ldexp(1.0, rng.integers(-2, 3, (b, n)))
        return base + np.spacing(base) * rng.integers(-3, 4, (b, n))
    return 10.0 ** rng.uniform(lo, max(lo, hi), (b, n))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 64),
    st.one_of(st.integers(1, 40), st.integers(1, 2000)),
    st.floats(-320.0, 300.0),
    st.one_of(st.floats(0.0, 12.0), st.floats(0.0, 620.0)),
    st.booleans(),
)
def test_row_sums_equal_fsum(seed, b, n, lo, width, ties):
    v = _value_block(seed, b, n, lo, min(lo + width, 300.0), ties)
    got = simple_mesh._row_sums(v)
    assert got.shape == (b,)
    assert got.tolist() == [math.fsum(row) for row in v.tolist()]


def test_row_sums_at_the_edges():
    # blocks of at least 256 values, which take array passes when they can
    near_subnormal = np.ldexp(np.arange(1.0, 321.0).reshape(16, 20) * 12345.0, -1080)
    huge = np.full((100, 3), 1e300)
    # exponents span 55 with b = 2, two past the bound: the low parts' sum
    # 2**-53 + 2**-107 would round to the tie 2**-53, and then to even
    past_bound = np.tile([1.0, 2.0**-53 - 2.0**-55, 2.0**-55 + 2.0**-107], (100, 1))
    assert math.fsum(past_bound[0]) == 1.0 + 2.0**-52
    # 512 values just below 2: the high parts' sums use all 53 bits
    low_bits = np.random.default_rng(0).integers(0, 2**20, (4, 512))
    full = np.nextafter(2.0, 0.0) - np.spacing(1.0) * low_bits
    blocks = (near_subnormal, huge, past_bound, full, np.empty((0, 5)), np.empty((3, 0)))
    for v in blocks + (np.array([[5e-324, 1.0]]),):
        assert simple_mesh._row_sums(v).tolist() == [math.fsum(row) for row in v.tolist()]


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
        plain = transform(AngleTriple(m.alpha[i], m.beta[i], m.gamma[i]))
        assert AngleTriple(out.alpha[i], out.beta[i], out.gamma[i]).as_tuple() == pytest.approx(
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


@settings(max_examples=12, deadline=None)
@given(
    st.one_of(st.integers(3, 64), st.integers(65, 500)),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_mesh_steps_match_the_reference_past_the_repeat(n, seed):
    # mesh_steps stops stepping at the first state equal to the state two
    # steps back; every row and the final fan must still be the reference's
    try:
        m = optimal_mesh(n) if seed is None else random_mesh(n, seed)
    except DegenerateMeshError:
        reject()
    states, rows = reference_trajectory(m, 1100)
    repeat = next(s for s in range(2, len(states)) if states[s] == states[s - 2])
    block = max(1, min(simple_mesh._STEP_BLOCK, FACE_BLOCK // n))
    wanted = {0, 1, 2, block - 1, block, block + 1, 2 * block, 2 * block + 1, 1100}
    wanted |= set(range(repeat - 2, repeat + 3))
    for steps in sorted(wanted):
        got, final = mesh_steps(m, steps)
        assert got.tolist() == rows[: steps + 1]
        assert final.angles.tobytes() == np.array(states[steps]).tobytes()
        expected = SimpleMeshAngles(*states[steps]).constraint_residuals()
        assert final.constraint_residuals().tolist() == expected.tolist()


def test_mesh_steps_stop_stepping_a_repeating_fan(monkeypatch):
    m = random_mesh(30, 4)
    calls = Counter()

    def counted(*args, _inner=simple_mesh.fan_step, **kwargs):
        calls["fan_step"] += 1
        return _inner(*args, **kwargs)

    monkeypatch.setattr(simple_mesh, "fan_step", counted)
    rows, _ = mesh_steps(m, 1100)
    assert calls["fan_step"] <= 128
    assert len(rows) == 1101
    assert rows[-2:].tolist() == rows[-4:-2].tolist()


@functools.cache
def reference_table(n, seed):
    return reference_trajectory(random_mesh(n, seed), STEP_CLAMP)[1]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 12),
    st.integers(0, 3),
    st.one_of(st.integers(0, STEP_CLAMP), st.integers(0, 10**6)),
)
def test_simple_mesh_steps_over_the_whole_range(n, seed, steps):
    argv = ["simple-mesh", "--n", str(n), "--random", str(seed), "--steps", str(steps), "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if steps > STEP_CLAMP:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == f"error: --steps must be <= {STEP_CLAMP}\n"
        return
    assert code == 0
    table = [
        [row["mesh_q"], row["q_min"], row["q_max"], row["max_residual"]]
        for row in json.loads(out.getvalue())["steps"]
    ]
    assert table == reference_table(n, seed)[: steps + 1]


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.just(3), st.integers(3, 40)), elements=st.floats(0.0, 4.0)))
def test_fan_step_into_its_own_fan_is_exact(x):
    k = simple_mesh._k_rows(x.shape[1])
    expected = simple_mesh.fan_step(x.copy(), k).tobytes()
    assert simple_mesh.fan_step(x, k, out=np.empty(x.shape)).tobytes() == expected


def test_mesh_steps_of_a_5000_fan_step_one_fan_in_place():
    # past FACE_BLOCK triangles a block holds one step, so the two states
    # carried into the next block overlap the ones they replace
    m = optimal_mesh(5000)
    rows, final = mesh_steps(m, 3)
    state = m
    for step in range(1, 4):
        state = transform_mesh(state)
        q = mesh_quality(state)
        worst = state.constraint_residuals().max()
        assert rows[step].tolist() == [q.mesh_q, q.ratios.min(), q.ratios.max(), worst]
    assert final.angles.tobytes() == state.angles.tobytes()


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
    big = random_mesh(200, 2)  # 400 apex and base angles: the array sums, not fsum
    fans += [big, transform_mesh(big), iterate_mesh(big, 3), mesh_steps(big, 3)[1]]
    for fan in fans:
        for name in ("alpha", "beta", "gamma"):
            assert {type(v) for v in getattr(fan, name)} == {float}
        # every builder keeps what the public constructor would, to the bit
        built = SimpleMeshAngles(*fan.angles.tolist())
        assert fan.angles.tobytes() == built.angles.tobytes()
        assert fan.constraint_residuals().tobytes() == built.constraint_residuals().tobytes()
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


def test_fan_file_is_written_over_in_place_and_cut_to_length(tmp_path, monkeypatch):
    # the head, then the first block of rows fails
    writer = functools.partial(save_mesh_angles, random_mesh(7, 3))
    check_output_writer(tmp_path, monkeypatch, writer, simple_mesh, 0, b"    {\n")


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


def test_random_mesh_rejects_a_draw_whose_next_step_is_too_thin(monkeypatch):
    # the first draw of seed 149 clears the angle floor and the constraint
    # check, but its step 1 does not clear the floor: the look-ahead rejects it
    expected = random_mesh(200, 149)
    checked, stepped = [], []

    def check(x, *args, _inner=simple_mesh._checked, **kwargs):
        checked.append(x[0].copy())
        return _inner(x, *args, **kwargs)

    def step(x, k, out=None, _inner=simple_mesh.fan_step):
        out = _inner(x, k, out)
        stepped.append(out.min())
        return out

    monkeypatch.setattr(simple_mesh, "_checked", check)
    monkeypatch.setattr(simple_mesh, "fan_step", step)
    m = random_mesh(200, 149)
    assert m == expected and len(checked) == len(stepped) >= 2
    assert stepped[0] <= simple_mesh.RANDOM_MIN_ANGLE < stepped[-1]
    assert not np.array_equal(m.angles, checked[0]) and np.array_equal(m.angles, checked[-1])
    monkeypatch.undo()
    assert transform_mesh(m).angles.min() > simple_mesh.RANDOM_MIN_ANGLE


def test_random_mesh_draws_fans_up_to_1500_triangles():
    # splitting each base sum keeps gamma off the floor; a second Dirichlet
    # draw for the betas ran out of its 1000 draws from about N = 800
    class Counted(np.random.Generator):
        draws = 0

        def dirichlet(self, alpha, size=None):
            self.draws += 1
            return super().dirichlet(alpha, size)

    for n, most in ((800, 4), (1000, 4), (1500, 33)):
        for seed in range(20):
            rng = Counted(np.random.PCG64(seed))  # the stream of random_mesh(n, seed)
            m = random_mesh(n, rng)
            assert m == random_mesh(n, seed) and rng.draws <= most
            assert transform_mesh(m).angles.min() > simple_mesh.RANDOM_MIN_ANGLE


def test_random_mesh_exhausted_draws_are_degenerate_mesh_error():
    with pytest.raises(DegenerateMeshError, match="no valid random 2000-fan"):
        random_mesh(2000, 1)


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


def fan_triangles(geom):
    """The fan's triangles: the inner vertex and each two consecutive boundary points."""
    ring = geom.boundary
    return [TrianglePoints(geom.inner_vertex, p, q) for p, q in zip(ring, ring[1:] + ring[:1])]


def test_reconstruct_roundtrip_scale_invariant():
    rng = np.random.default_rng(5)
    for n in (4, 5, 8):
        m = closing_mesh(n, rng)
        for radius in (1.0, 7.3):
            geom, res = reconstruct_geometry(m, radius)
            assert res.radius <= 1e-8 and abs(res.turn) <= 1e-8
            angs = [angles_of(t) for t in fan_triangles(geom)]
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
    assert len(geom.boundary) == 4


def _wide_fan(n, small, large, eps, order):
    """A valid fan of n equal apex angles whose law-of-sines ratios swing:
    ``small`` triangles with beta = eps, as many with gamma = eps, the rest
    isosceles, in ``order`` (a permutation of range(n))."""
    alpha = 2 * PI / n
    kinds = [eps] * small + [PI - alpha - eps] * large + [(PI - alpha) / 2] * (n - 2 * small)
    beta = [kinds[i] for i in order]
    return SimpleMeshAngles((alpha,) * n, tuple(beta), tuple(PI - alpha - b for b in beta))


@st.composite
def fans_and_radii(draw):
    if draw(st.booleans()):
        n = draw(st.integers(3, 300))
        m = random_mesh(n, draw(st.integers(0, 50)))
        m = mesh_steps(m, draw(st.sampled_from([0, 1, 2, 60])))[1]
    else:
        n = draw(st.integers(3, 320))
        small = draw(st.integers(0, n // 2))
        eps = draw(st.floats(1e-9, 0.3))
        order = draw(st.permutations(range(n)))
        m = _wide_fan(n, small, small, eps, order[::-1] if draw(st.booleans()) else order)
    exponent = draw(st.one_of(st.integers(-1074, 1023), st.sampled_from([-1074, -1022, 1000, 1023])))
    return m, 2.0**exponent * draw(st.floats(1.0, 2.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(fans_and_radii())
def test_reconstruct_matches_the_reference_loop(fan_radius):
    m, radius = fan_radius
    try:
        points, residuals = reference_reconstruct(m, radius)
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError) as got:
            reconstruct_geometry(m, radius)
        assert str(got.value) == str(exc)
        return
    geom, res = reconstruct_geometry(m, radius)
    assert geom.xy.tolist() == [[0.0, 0.0]] + [list(p) for p in points]
    assert [(p.x, p.y) for p in geom.boundary] == points
    assert repr((res.radius, res.turn)) == repr(residuals)


def test_reconstruct_past_the_float_range_names_the_point_or_triangle():
    n, order = 300, range(300)
    grows = _wide_fan(n, 150, 150, 1e-5, [*range(150, 300), *range(150)])  # large betas first
    shrinks = _wide_fan(n, 150, 150, 1e-5, order)
    for m, start in ((grows, "point coordinates must be finite, got ("), (shrinks, "fan triangle 48 is degenerate")):
        with pytest.raises(ArithmeticError) as got:
            reconstruct_geometry(m, 1.0)
        with pytest.raises(ArithmeticError) as expected:
            reference_reconstruct(m, 1.0)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("cannot place the fan: " + start)


def test_geometry_views_are_built_once_from_its_array():
    geom, _ = reconstruct_geometry(optimal_mesh(4), 1.0)
    assert not geom.xy.flags.writeable and geom.xy.shape == (5, 2)
    assert "boundary" not in vars(geom) and "inner_vertex" not in vars(geom)
    assert geom.boundary is geom.boundary and geom.inner_vertex == Point2(0.0, 0.0)
    given_points = (Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1))
    built = SimpleMeshGeometry(Point2(0, 0), list(given_points))
    assert built.boundary == given_points and built == SimpleMeshGeometry(Point2(0, 0), given_points)
    assert built.xy.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    assert hash(built) == hash(SimpleMeshGeometry(Point2(0, 0), given_points))


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


@pytest.mark.parametrize("n", [3, 7, 40, 500])
def test_geometry_areas_are_the_per_triangle_areas(n):
    geom, _ = reconstruct_geometry(random_mesh(n, 2), 0.37)
    assert geom.total_area() == math.fsum(t.area() for t in fan_triangles(geom))
    inner, boundary = geom.inner_vertex, list(geom.boundary)
    boundary[n // 2 + 1] = boundary[n // 2]  # triangle n // 2 is flat
    with pytest.raises(MeshConstraintError, match=f"^fan triangle {n // 2} is degenerate or flipped$"):
        SimpleMeshGeometry(inner, boundary)


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
    huge = {"N": 4, "triangles": [dict(t) for t in good["triangles"]]}
    huge["triangles"][1]["gamma"] = 10**400
    with pytest.raises(MeshConstraintError, match="^triangle 1: gamma is an integer too large"):
        mesh_from_dict(huge)
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
