"""Angle-space dynamics of the pairwise-mean triangle transformation.

A triangle's similarity class is fixed by its three inner angles.  The
transformation studied here replaces each angle by the mean of the other
two, which drives every non-degenerate triangle toward the equilateral
one.  The map scales each angle's deviation from pi/3 by -1/2 per step,
so its n-th power has a closed form; this module provides the map, its
closed-form powers, the min/max-angle quality measure with non-recursive
step predictions, and the machinery to verify the exact 1/4 contraction
per double step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

PI = math.pi
THIRD_PI = math.pi / 3.0

#: Angles within this distance of 0 or pi mark a triple as degenerate.
DEGENERACY_EPS = 1e-9

#: Angle sums farther than this from pi are rejected; closer ones are repaired.
SUM_REPAIR_TOL = 1e-9

#: Above this power, closed-form evaluation switches to deviation form.
CLOSED_FORM_CAP = 500

#: Step counts past this act as this one or the next (same parity): (-1/2)^n
#: is already 0 there, and a huge int must never be turned into a float.
STEP_CLAMP = 1100


class DegenerateTriangleError(ValueError):
    """The operation requires a non-degenerate triangle."""


class EquilateralTriangleError(ValueError):
    """The operation is undefined at the equilateral fixed point."""


@dataclass(frozen=True, slots=True, init=False)
class AngleTriple:
    """Labeled inner angles of a triangle, in radians, summing to pi.

    Sums within ``SUM_REPAIR_TOL`` of pi are repaired by uniform scaling;
    anything farther off is rejected.  Angles within ``DEGENERACY_EPS`` of
    0 or pi do not fail construction -- they mark the triple as
    degenerate, and operations that need non-degeneracy raise.
    """

    alpha: float
    beta: float
    gamma: float

    def __init__(self, alpha: float, beta: float, gamma: float) -> None:
        total = alpha + beta + gamma
        if total != PI:
            if not abs(total - PI) <= SUM_REPAIR_TOL:  # NaN and inf are far too
                raise ValueError(f"triangle angles must sum to pi, got {total!r}")
            scale = PI / total
            alpha, beta, gamma = alpha * scale, beta * scale, gamma * scale
        _set_alpha(self, alpha)
        _set_beta(self, beta)
        _set_gamma(self, gamma)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)

    def sorted_desc(self) -> tuple[float, float, float]:
        """Angles in descending order (the similarity-class representative)."""
        a, b, g = sorted((self.alpha, self.beta, self.gamma), reverse=True)
        return (a, b, g)

    def is_degenerate(self) -> bool:
        lo, hi = DEGENERACY_EPS, PI - DEGENERACY_EPS
        return not (lo < self.alpha < hi and lo < self.beta < hi and lo < self.gamma < hi)


def _nondegenerate(t: AngleTriple) -> tuple[float, float, float]:
    """``t``'s angles; DegenerateTriangleError if ``t`` is degenerate."""
    if t.is_degenerate():
        raise DegenerateTriangleError(f"degenerate input triple {t.as_tuple()}")
    return (t.alpha, t.beta, t.gamma)


def _field_setters(cls) -> tuple:
    """Each field's slot ``__set__`` of a frozen slotted dataclass: its own
    ``__init__`` sets each field once, cheaper than ``object.__setattr__``."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


def _setstate(self, state) -> None:
    """Unpickle a frozen dataclass from a dict of its attributes (as pickled
    without slots) or from its field values (with slots), through ``_store``."""
    if not isinstance(state, dict):
        state = dict(zip([f.name for f in fields(self)], state))
    _store(self, **state)


def _store(value, **named):
    """Set ``named`` on the frozen ``value`` past its ``__setattr__`` and
    return it; every numpy array among them is made read-only first."""
    for name, item in named.items():
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
        object.__setattr__(value, name, item)
    return value


class _ArrayValue:
    """Base of the frozen dataclasses that hold numpy arrays: their fields are
    set and unpickled through ``_store``, so every array is read-only, and
    ``_views`` maps names to builders of object views, built on first read."""

    _views: dict = {}
    __setstate__ = _setstate

    def __getattr__(self, name: str):
        # called only for what the instance lacks: build a view once and keep it
        build = type(self)._views.get(name)
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        view = build(self)
        _store(self, **{name: view})
        return view


_set_alpha, _set_beta, _set_gamma = _field_setters(AngleTriple)


def _repaired_quality(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AngleTriple's sum repair over (F, 3) angles: the angles as AngleTriple
    stores them, scaled to sum to pi, and each face's quality (F,).  A sum
    AngleTriple would reject raises its ValueError, for the first such face."""
    total = raw[:, 0] + raw[:, 1] + raw[:, 2]
    far = ~(np.abs(total - PI) <= SUM_REPAIR_TOL)  # NaN and inf are far too
    if far.any():
        got = total[far.argmax()].item()
        raise ValueError(f"triangle angles must sum to pi, got {got!r}")
    # a total of exactly pi gives a scale of exactly 1, as AngleTriple skips it
    angles = raw * (PI / total)[:, None]
    return angles, angle_ratio(*angles.T)


EQUILATERAL = AngleTriple(THIRD_PI, THIRD_PI, THIRD_PI)


@dataclass(frozen=True, order=True, slots=True, init=False)
class QualityValue:
    """Ratio of smallest to largest inner angle; 1 only for equilateral."""

    q: float

    def __init__(self, q: float) -> None:
        _set_q(self, q)


(_set_q,) = _field_setters(QualityValue)
QualityValue.__setstate__ = _setstate


@dataclass(frozen=True)
class CoefficientSequence:
    """Exact integers a_1..a_n with a_1 = a_2 = 1, a_n = a_{n-1} + 2 a_{n-2}.

    These drive the closed-form n-th power of the averaging map.  The
    index-0 extension a_0 = 0 makes the power formulas valid from n = 1.
    """

    values: tuple[int, ...]

    def a(self, k: int) -> int:
        if k < 0:
            raise IndexError("coefficient index must be >= 0")
        if k == 0:
            return 0
        return self.values[k - 1]


def after_steps(x, fixed, n: int):
    """``x`` after ``n`` steps of a map that multiplies ``x - fixed`` by -1/2.

    Triangles use ``fixed`` = pi/3, fans optimal_mesh(N); floats, arrays,
    or a triangle's three angles as a tuple, which gives a tuple.  The
    power of two scales exactly and underflows to 0, never overflows;
    ``n`` past ``STEP_CLAMP`` is clamped, keeping its parity.
    """
    if n > STEP_CLAMP:
        n = STEP_CLAMP + n % 2
    r = (-0.5) ** n
    if type(x) is tuple:
        a, b, g = x
        return (fixed + r * (a - fixed), fixed + r * (b - fixed), fixed + r * (g - fixed))
    return fixed + r * (x - fixed)


def angle_ratio(a, b, g):
    """Smallest over largest of three angles; floats or arrays.

    Floats give a float of their own type (a Python float's repr is what
    the reports write); arrays give the elementwise ratios.  The float
    test comes first: the scalar API calls this once per triangle, and
    compares as the ``min`` and ``max`` builtins do, without their calls.
    """
    if isinstance(a, float):
        lo = b if b < a else a
        hi = b if b > a else a
        return (g if g < lo else lo) / (g if g > hi else hi)
    return np.minimum(np.minimum(a, b), g) / np.maximum(np.maximum(a, b), g)


def transform(t: AngleTriple) -> AngleTriple:
    """Replace each angle by the mean of the other two.

    Preserves the angle sum and non-degeneracy; raises
    DegenerateTriangleError when the input is already degenerate.
    """
    a, b, g = _nondegenerate(t)
    return AngleTriple(0.5 * (b + g), 0.5 * (a + g), 0.5 * (a + b))


def iterate(t: AngleTriple, n: int) -> AngleTriple:
    """Apply the transformation ``n`` times; n = 0 returns ``t`` unchanged.

    Evaluated in closed deviation form.  One degeneracy check suffices, as
    a step maps angles in (eps, pi - eps) into (eps, pi / 2).
    """
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    if n == 0:
        return t
    return AngleTriple(*after_steps(_nondegenerate(t), THIRD_PI, n))


@lru_cache(maxsize=None)
def coefficients(n: int) -> CoefficientSequence:
    """Coefficients a_1..a_n of the closed-form power, by exact recurrence."""
    if n < 1:
        raise ValueError("coefficient count must be >= 1")
    vals = [1, 1]
    while len(vals) < n:
        vals.append(vals[-1] + 2 * vals[-2])
    return CoefficientSequence(tuple(vals[:n]))


def deviations_after(t: AngleTriple, n: int) -> tuple[float, float, float]:
    """Per-angle deviations from pi/3 after ``n`` steps, evaluated exactly.

    The map acts on each labeled deviation as multiplication by -1/2, and
    scaling a float by a power of two is lossless, so this path carries
    no rounding error beyond the initial subtraction.  It is the stable
    way to measure contraction rates once the angles are close to pi/3.
    """
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    return tuple(after_steps(x - THIRD_PI, 0.0, n) for x in t.as_tuple())


def iterate_closed_form(t: AngleTriple, n: int) -> AngleTriple:
    """Compute the n-th iterate directly, without looping over transform.

    Uses angle_n = ((2 a_{n-1} - a_n) * angle_0 + a_n * pi) / 2^n.  Above
    ``CLOSED_FORM_CAP`` the a_n / 2^n ratio is a quotient of exponentially
    growing quantities, so evaluation switches to deviation form around
    pi/3.
    """
    if n < 1:
        raise ValueError("closed-form power requires n >= 1")
    if n > CLOSED_FORM_CAP:
        return iterate(t, n)
    a, b, g = _nondegenerate(t)
    lead, tail, scale = _closed_form_terms(n)
    return AngleTriple(
        (lead * a + tail) / scale,
        (lead * b + tail) / scale,
        (lead * g + tail) / scale,
    )


@lru_cache(maxsize=None)
def _closed_form_terms(n: int) -> tuple[float, float, float]:
    """iterate_closed_form's 2 a_{n-1} - a_n, a_n pi and 2^n as floats: an
    int times a float is the int's float times it."""
    seq = coefficients(n)
    return float(2 * seq.a(n - 1) - seq.a(n)), float(seq.a(n)) * PI, float(2**n)


def quality(t: AngleTriple) -> QualityValue:
    """Min/max inner-angle ratio; scale-free, 1 iff equilateral."""
    return QualityValue(angle_ratio(t.alpha, t.beta, t.gamma))


def predict_quality(
    t: AngleTriple, n: int, alt_even: bool = False
) -> QualityValue:
    """Quality after ``n`` steps, without iterating.

    The min/max ratio of the closed-form angles :func:`after_steps`; it
    agrees with the paper's non-recursive q_{2k} / q_{2k+1} form within
    1e-15 and, unlike it, cannot overflow at large ``n``.

    ``alt_even`` selects an alternative even-step form for n = 2k, with
    sorted angles a0 >= b0 >= g0 and b = 3 / (4^k - 1):
    (pi - b*a0) / (pi - b*g0).  It mirrors the paper's odd-step expression
    but disagrees with direct iteration (e.g. it yields 3/5 instead of 7/9
    at n = 2 for the 90-60-30 triangle); it is kept for comparison output
    only.

    Parameters
    ----------
    t : AngleTriple
        Initial angles; degenerate ones raise DegenerateTriangleError for
        n >= 1, as ``iterate`` does.
    n : int
        Step count, >= 0.  For n = 0 the current quality is returned.
    alt_even : bool
        Use the alternative even-step expression (see above).
    """
    if n < 0:
        raise ValueError("step count must be >= 0")
    if n == 0:
        return quality(t)
    angles = _nondegenerate(t)
    if alt_even and n % 2 == 0:
        a0, _, g0 = t.sorted_desc()
        # 3 / (4^k - 1), written with 4^-k = (-1/2)^n so that large k gives 0
        quarter_k = after_steps(1.0, 0.0, n)
        b = 3.0 * quarter_k / (1.0 - quarter_k)
        return QualityValue((PI - b * a0) / (PI - b * g0))
    return QualityValue(angle_ratio(*after_steps(angles, THIRD_PI, n)))


def _predicted_quality(angles: np.ndarray, n: int) -> np.ndarray:
    """predict_quality's deviation form over (F, 3) angles, for n >= 1: the
    quality (F,) of each face after ``n`` steps."""
    return angle_ratio(*after_steps(angles, THIRD_PI, n).T)


def convergence_rate_check(t: AngleTriple, k: int) -> float:
    """Two-step contraction ratio of the largest-angle deviation.

    Returns |a_{2k} - pi/3| / |a_{2k-2} - pi/3| along the track of the
    initially largest angle, evaluated in deviation form (exact under
    float halving), so the result is 1/4 for every non-equilateral
    input until the deviation underflows.
    """
    if k < 1:
        raise ValueError("rate check requires k >= 1")
    dev = max(t.as_tuple()) - THIRD_PI
    if dev <= 0.0:
        raise EquilateralTriangleError(
            "contraction ratio is 0/0 for the equilateral triple"
        )
    num = abs(after_steps(dev, 0.0, 2 * k))
    den = abs(after_steps(dev, 0.0, 2 * (k - 1)))
    if num < sys.float_info.min:
        raise ValueError(f"deviation underflows at k = {k}")
    return num / den
