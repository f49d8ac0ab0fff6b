"""Tests for the text helpers: JSON row templates, the ``%`` row writer,
report text from byte fields and the fans' distinct-value text."""

import json
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trismooth import _text
from trismooth._text import _distinct_text, _field_rows, _json_rows, _repr_field, block_rows

PI = math.pi


# --- JSON row templates -------------------------------------------------------


@st.composite
def json_tables(draw):
    """A document with an empty top-level list "rows", a placeholder row and
    the rows' values: finite floats for the flat keys after the index and
    for each distinct step of an optional nested dict, which may be empty
    and may name a step twice, as ``analyze --steps 2,2`` does."""
    names = draw(st.lists(st.sampled_from(["alpha", "beta", "gamma", "q"]), unique=True))
    steps = draw(st.none() | st.lists(st.integers(0, 5), max_size=5))
    row = dict.fromkeys(["index", *names], "%s")
    if steps is not None:
        row["predicted"] = dict.fromkeys(steps, "%s")
    width = len(names) + len(row.get("predicted", ()))
    n = draw(st.integers(1, 300))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (n, width), elements=finite))
    # other keys around the list, one of them a nested dict with a list of the same name
    document = {
        "n": n,
        "meta": {"rows": [draw(st.floats(allow_nan=False))], "empty": []},
        "rows": [],
        "summary": {"steps": steps, "empty": {}},
    }
    return document, row, values


def filled(row, index, values):
    """The row of ``row``'s shape that ``values`` fill in order."""
    it = iter(values.tolist())
    out = {key: index if key == "index" else next(it) for key in row if key != "predicted"}
    if "predicted" in row:
        out["predicted"] = {step: next(it) for step in row["predicted"]}
    return out


@settings(max_examples=150, deadline=None)
@given(json_tables(), st.integers(1, 7))
def test_json_rows_fill_to_json_dumps_text(case, block):
    document, row, values = case
    head, template, tail = _json_rows(document, "rows", row)
    text = np.array([[repr(v) for v in r] for r in values.tolist()], dtype=object)
    table = np.column_stack((np.arange(len(values)), text))
    with mock.patch.object(_text, "FACE_BLOCK", block):  # rows joined across blocks too
        got = head + "".join(block_rows(template, ",\n", table)) + tail
    rows = [filled(row, i, v) for i, v in enumerate(values)]
    assert got == json.dumps({**document, "rows": rows}, indent=2)


# --- report text from byte fields ---------------------------------------------


def short_decimals(rng, count):
    """Floats read from decimals of 1 to 17 random digits, 1e-5 to 1e17."""
    digits = rng.integers(1, 18, count)
    mantissas = [rng.integers(10 ** (d - 1), 10**d) for d in digits.tolist()]
    exponents = rng.integers(-5, 17, count) - digits
    return np.array([float(f"{m}e{e}") for m, e in zip(mantissas, exponents.tolist())])


def test_repr_field_is_each_values_repr():
    # _shortest's exact digits against repr: every class of rounding span,
    # and the values repr writes in scientific notation, one by one
    rng = np.random.default_rng(30)
    edges = [1e-4, 1e16, 0.1, 1.0, 9.5, 2.0**53, 2.0**-14]
    classes = {
        "uniform (0, pi)": rng.uniform(0.0, PI, 10**6),
        "log-uniform 1e-4.5 .. 1e16.5": 10.0 ** rng.uniform(-4.5, 16.5, 10**6),
        "[2**50, 2**51), half-integer ties": rng.uniform(2.0**50, 2.0**51, 10**5),
        "three decimals": np.round(rng.uniform(0.0, 1000.0, 10**5), 3),
        "multiples of 0.1": np.arange(1, 10**5) * 0.1,
        "short decimals": short_decimals(rng, 10**5),
        "powers of two": 2.0 ** np.arange(-20, 60),
        "neighbours of the range ends and powers": np.concatenate(
            [np.nextafter(edges, 0.0), edges, np.nextafter(edges, math.inf)]
        ),
        "outside the range": np.array(
            [0.0, -0.0, 5e-324, 1e-300, 1e300, -1.5, -1e-5, math.inf, -math.inf, math.nan]
        ),
        "ints": np.array([0, 7, 10, 99, 100, 12345, 10**17, 10**18 - 1, 10**18, -1, -10**18]),
    }
    for name, values in classes.items():
        field = _repr_field(values)
        assert field.dtype == np.uint8 and len(field) == len(values), name
        got = _field_rows("%s", "\n", [field], False).split("\n")
        want = list(map(repr, values.tolist()))
        first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert len(got) == len(want) and first is None, (name, first, got[first], want[first])
    assert _repr_field(np.empty(0)).shape[0] == 0
    assert _repr_field(np.array([[0.5, 2.0], [3.0, 1e-5]])).shape[0] == 4  # flat order


@settings(max_examples=150, deadline=None)
@given(json_tables(), st.booleans())
def test_field_rows_fill_like_block_rows(case, lead):
    document, row, values = case
    head, template, tail = _json_rows(document, "rows", row)
    fields = [_repr_field(np.arange(len(values))), *map(_repr_field, values.T)]
    text = np.array([[repr(v) for v in r] for r in values.tolist()], dtype=object)
    table = np.column_stack((np.arange(len(values)), text))
    with mock.patch.object(_text, "FACE_BLOCK", len(values)):  # one block
        (expected,) = block_rows(template, ",\n", table)
    assert _field_rows(template, ",\n", fields, lead) == (",\n" if lead else "") + expected


# --- fan text -----------------------------------------------------------------


def test_distinct_text_is_each_values_repr():
    values = np.array([[0.1, 0.0, 0.1], [3.0, 1e-300, 0.30000000000000004]])
    text = _distinct_text(values)
    assert text.shape == values.shape and text.dtype == object
    assert text.tolist() == [[repr(v) for v in row] for row in values.tolist()]
    assert _distinct_text(np.empty((0, 4))).shape == (0, 4)
