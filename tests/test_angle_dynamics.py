"""Tests for the averaging transformation, its closed forms, and quality."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings

from trismooth import (
    EQUILATERAL,
    AngleTriple,
    DegenerateTriangleError,
    EquilateralTriangleError,
    coefficients,
    convergence_rate_check,
    deviations_after,
    iterate,
    iterate_closed_form,
    predict_quality,
    quality,
    transform,
)
from trismooth.angle_dynamics import THIRD_PI, angle_ratio

from conftest import angle_triples, random_triples

PI = math.pi


def mean_pairs(a, b, g):
    # hand statement of the construction: each output is the average of
    # the two inputs it does not carry
    return ((b + g) / 2.0, (a + g) / 2.0, (a + b) / 2.0)


def order_perm(angles):
    return tuple(sorted(range(3), key=lambda i: (angles[i], i)))


def paper_quality(t, n):
    # the paper's non-recursive prediction, for sorted a0 >= b0 >= g0:
    # q_2k = (pi + b g0) / (pi + b a0) with b = 3 / (4^k - 1), and
    # q_2k+1 = (pi - b a0) / (pi - b g0) with b = 6 / (4^(k+1) + 2)
    a0, _, g0 = t.sorted_desc()
    if n % 2:
        b = 6.0 / (4.0 ** ((n - 1) // 2 + 1) + 2.0)
        return (PI - b * a0) / (PI - b * g0)
    b = 3.0 / (4.0 ** (n // 2) - 1.0)
    return (PI + b * g0) / (PI + b * a0)


# --- AngleTriple ------------------------------------------------------------

def test_triple_sum_repair():
    t = AngleTriple(PI / 2 + 5e-10, PI / 3, PI / 6)
    assert abs(sum(t.as_tuple()) - PI) < 1e-12
    assert abs(t.alpha - PI / 2) < 1e-9


def test_triple_bad_sum_rejected():
    with pytest.raises(ValueError):
        AngleTriple(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AngleTriple(math.nan, 1.0, 1.0)


def test_triple_degeneracy_marking():
    thin = AngleTriple(1e-12, (PI - 1e-12) / 2, (PI - 1e-12) / 2)
    assert thin.is_degenerate()
    wide = AngleTriple(PI - 1e-12, 5e-13, 5e-13)
    assert wide.is_degenerate()
    assert not EQUILATERAL.is_degenerate()


# --- transform / iterate ----------------------------------------------------

def test_transform_fixed_point():
    out = transform(EQUILATERAL)
    assert out.as_tuple() == pytest.approx(EQUILATERAL.as_tuple(), abs=1e-15)


def test_transform_matches_hand_oracle():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    expected = mean_pairs(*t.as_tuple())
    assert transform(t).as_tuple() == pytest.approx(expected, abs=1e-15)
    assert transform(t).as_tuple() == pytest.approx(
        (PI / 4, PI / 3, 5 * PI / 12), abs=1e-15
    )
    t2 = AngleTriple(PI / 2, PI / 4, PI / 4)
    assert transform(t2).as_tuple() == pytest.approx(
        (PI / 4, 3 * PI / 8, 3 * PI / 8), abs=1e-15
    )


def test_transform_rejects_degenerate():
    thin = AngleTriple(1e-12, (PI - 1e-12) / 2, (PI - 1e-12) / 2)
    with pytest.raises(DegenerateTriangleError):
        transform(thin)


def test_iterate_identity_and_two_steps():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    assert iterate(t, 0) is t
    assert iterate(t, 2).as_tuple() == pytest.approx(
        (3 * PI / 8, PI / 3, 7 * PI / 24), abs=1e-14
    )
    assert iterate(t, np.int64(2)) == iterate(t, 2)  # numpy integers are counts
    with pytest.raises(ValueError):
        iterate(t, -1)


@given(t=angle_triples())
@settings(deadline=None)
def test_iterate_matches_transform_loop(t):
    cur = t
    for n in range(1, 31):
        cur = transform(cur)
        for x, y in zip(iterate(t, n).as_tuple(), cur.as_tuple()):
            assert abs(x - y) <= 1e-12


def test_iterate_million_steps_reaches_fixed_point_quickly():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    start = time.perf_counter()
    out = iterate(t, 10**6)
    elapsed = time.perf_counter() - start
    assert out.as_tuple() == pytest.approx((THIRD_PI,) * 3, abs=1e-15)
    assert elapsed < 0.1


def test_iterate_converges_to_equilateral():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    out = iterate(t, 40)
    assert all(abs(v - PI / 3) < 1e-9 for v in out.as_tuple())


@given(t=angle_triples())
@settings(deadline=None)
def test_angle_sum_conserved(t):
    cur = t
    for _ in range(8):
        cur = transform(cur)
        assert abs(sum(cur.as_tuple()) - PI) < 1e-12


@given(t=angle_triples())
@settings(deadline=None)
def test_non_degeneracy_preserved(t):
    out = transform(t)
    assert all(0.0 < v < PI for v in out.as_tuple())


@given(t=angle_triples())
@settings(deadline=None)
def test_order_exchange_is_two_periodic(t):
    angles = t.as_tuple()
    gaps = [abs(angles[i] - angles[j]) for i in range(3) for j in range(i)]
    if min(gaps) < 1e-6:
        return  # float noise can flip near-ties; exact ties are index-stable
    for n in range(4):
        a = iterate(t, n).as_tuple()
        b = iterate(t, n + 2).as_tuple()
        assert order_perm(a) == order_perm(b)


# --- coefficients -----------------------------------------------------------

def test_coefficient_values():
    seq = coefficients(5)
    assert seq.values == (1, 1, 3, 5, 11)
    assert seq.a(0) == 0
    assert seq.a(4) == 5
    assert seq.a(5) == 11
    assert coefficients(3).values == (1, 1, 3)


def test_coefficients_rejects_zero():
    with pytest.raises(ValueError):
        coefficients(0)


def test_coefficient_recurrence_and_closed_forms_exact():
    seq = coefficients(61)
    # independent recurrence
    ref = [0, 1, 1]
    for n in range(3, 62):
        ref.append(ref[-1] + 2 * ref[-2])
    for k in range(1, 62):
        assert seq.a(k) == ref[k]
    # closed forms, exact integer arithmetic
    for m in range(1, 31):
        assert seq.a(2 * m) == (4**m - 1) // 3
    for m in range(1, 30):
        assert seq.a(2 * m + 1) == (4 ** (m + 1) + 2) // 6


# --- closed-form iteration --------------------------------------------------

def test_closed_form_matches_single_transform():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    assert iterate_closed_form(t, 1).as_tuple() == pytest.approx(
        (PI / 4, PI / 3, 5 * PI / 12), abs=1e-14
    )


def test_closed_form_two_steps_and_fixed_point():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    assert iterate_closed_form(t, 2).as_tuple() == pytest.approx(
        (3 * PI / 8, PI / 3, 7 * PI / 24), abs=1e-14
    )
    eq = iterate_closed_form(EQUILATERAL, 7)
    assert eq.as_tuple() == pytest.approx(EQUILATERAL.as_tuple(), abs=1e-15)


def test_closed_form_rejects_bad_n():
    with pytest.raises(ValueError):
        iterate_closed_form(AngleTriple(PI / 2, PI / 3, PI / 6), 0)


@given(t=angle_triples())
@settings(deadline=None)
def test_closed_form_equals_iteration(t):
    cur = t
    for n in range(1, 26):
        cur = transform(cur)
        closed = iterate_closed_form(t, n)
        for x, y in zip(closed.as_tuple(), cur.as_tuple()):
            assert abs(x - y) < 1e-12


def test_deviation_branch_agrees_with_iteration():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    via_cap = iterate_closed_form(t, 600)  # above CLOSED_FORM_CAP
    direct = t
    for _ in range(600):
        direct = transform(direct)
    for x, y in zip(via_cap.as_tuple(), direct.as_tuple()):
        assert abs(x - y) < 1e-12


def test_closed_form_huge_n_hits_fixed_point():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    # 10**400 cannot be turned into a float; the step count is clamped
    for n in (2000, 10**400, 10**400 + 1):
        out = iterate_closed_form(t, n)
        assert out.as_tuple() == pytest.approx(EQUILATERAL.as_tuple(), abs=1e-15)


def test_deviations_are_exact_halvings():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    devs0 = [v - PI / 3 for v in t.as_tuple()]
    expected = list(devs0)
    for n in range(1, 120):
        expected = [-0.5 * d for d in expected]  # exact in binary floats
        assert deviations_after(t, n) == tuple(expected)


def test_deviations_consistent_with_iteration():
    for t in random_triples(50, seed=7):
        for n in (1, 5, 12, 30):
            devs = deviations_after(t, n)
            it = iterate(t, n).as_tuple()
            for d, v in zip(devs, it):
                assert abs((PI / 3 + d) - v) < 1e-12


# --- quality ----------------------------------------------------------------

def test_quality_values():
    assert quality(EQUILATERAL).q == 1.0
    assert quality(AngleTriple(PI / 2, PI / 3, PI / 6)).q == pytest.approx(
        1 / 3, abs=1e-12
    )
    assert quality(AngleTriple(PI / 2, PI / 4, PI / 4)).q == pytest.approx(
        1 / 2, abs=1e-12
    )


def test_predict_quality_frozen_values():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    assert predict_quality(t, 1).q == pytest.approx(3 / 5, abs=1e-12)
    assert predict_quality(t, 2).q == pytest.approx(7 / 9, abs=1e-12)
    assert predict_quality(EQUILATERAL, 17).q == pytest.approx(1.0, abs=1e-15)
    assert predict_quality(t, 0).q == quality(t).q
    assert predict_quality(t, np.int32(2)) == predict_quality(t, 2)
    with pytest.raises(ValueError):
        predict_quality(t, -1)


def test_predict_quality_matches_paper_form_within_1e15():
    # the deviation-form kernel against the paper's closed form, the
    # reproduced result; the two differ only in rounding
    for t in random_triples(500, seed=11):
        for n in range(1, 31):
            assert abs(predict_quality(t, n).q - paper_quality(t, n)) <= 1e-15


def test_predict_quality_past_float_range_of_4_to_the_k():
    # 4.0**k overflows at k = 512, i.e. n >= 1023
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    for n in (1022, 1023, 1100, 1101, 10**6, 10**400, 10**400 + 1):
        assert predict_quality(t, n).q == 1.0
        assert predict_quality(t, n, alt_even=True).q == 1.0


def test_predict_quality_alt_even_disagrees_with_iteration():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    oracle = quality(iterate(t, 2)).q
    assert oracle == pytest.approx(7 / 9, abs=1e-12)
    alt = predict_quality(t, 2, alt_even=True).q
    assert alt == pytest.approx(3 / 5, abs=1e-12)
    assert abs(alt - oracle) > 0.1
    # the odd-step form is shared by both variants
    assert predict_quality(t, 3, alt_even=True).q == predict_quality(t, 3).q


@given(t=angle_triples())
@settings(deadline=None)
def test_predict_quality_equals_iterated_quality(t):
    cur = t
    for n in range(0, 13):
        assert abs(predict_quality(t, n).q - quality(cur).q) < 1e-12
        cur = transform(cur)


def test_angle_ratio_returns_its_input_type():
    # reports write repr() of these floats; a numpy scalar's repr differs
    assert type(angle_ratio(PI / 2, PI / 3, PI / 6)) is float
    rows = random_triples(500, seed=31)
    columns = np.array([t.as_tuple() for t in rows]).T
    ratios = angle_ratio(*columns)
    assert isinstance(ratios, np.ndarray) and ratios.shape == (500,)
    assert ratios.tolist() == [angle_ratio(*t.as_tuple()) for t in rows]


@given(t=angle_triples())
@settings(deadline=None)
def test_quality_in_unit_interval(t):
    q = quality(t).q
    assert 0.0 < q <= 1.0


# --- convergence rate -------------------------------------------------------

def test_rate_is_exactly_one_quarter():
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    assert convergence_rate_check(t, 1) == 0.25
    assert convergence_rate_check(AngleTriple(PI / 2, PI / 4, PI / 4), 3) == 0.25
    assert convergence_rate_check(t, 20) == 0.25


def test_rate_rejects_equilateral_and_bad_k():
    with pytest.raises(EquilateralTriangleError):
        convergence_rate_check(EQUILATERAL, 1)
    with pytest.raises(ValueError):
        convergence_rate_check(AngleTriple(PI / 2, PI / 3, PI / 6), 0)


def test_contraction_identity_via_iteration():
    # alpha_4 - pi/3 == (1/16) (alpha_0 - pi/3) for the 90-60-30 triangle
    t = AngleTriple(PI / 2, PI / 3, PI / 6)
    alpha4 = iterate(t, 4).alpha
    assert math.isclose(alpha4 - PI / 3, (PI / 6) / 16, rel_tol=1e-12)
