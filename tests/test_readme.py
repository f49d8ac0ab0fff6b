"""The README's library quick tour runs, and its commented values hold;
every public name imports from the package."""

import math
from pathlib import Path

import pytest

import trismooth

PI = math.pi

README = Path(__file__).resolve().parents[1] / "README.md"

#: Each commented tour line's expression and the value its comment gives.
TOUR_VALUES = {
    "iterate(t, 2).as_tuple()": (3 * PI / 8, PI / 3, 7 * PI / 24),
    "quality(t).q": 1 / 3,
    "predict_quality(t, 2).q": 7 / 9,
    "predict_quality(t, 10**6).q": 1.0,
    "mesh_quality(iterate_mesh(mesh, 60)).mesh_q": 1.0,
}


def tour_block() -> str:
    after = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs_and_its_values_hold():
    block = tour_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    commented = [
        line.split("#", 1)[0].strip() for line in block.splitlines() if "#" in line
    ]
    for expression, expected in TOUR_VALUES.items():
        assert expression in commented, f"the tour no longer shows {expression}"
        tolerance = 1e-6 if "mesh_q" in expression else 1e-15
        assert eval(expression, namespace) == pytest.approx(expected, abs=tolerance)


def test_every_public_name_imports_and_none_repeats():
    names = trismooth.__all__
    assert sorted(set(names)) == sorted(names)
    namespace: dict = {}
    exec("from trismooth import *", namespace)  # an AttributeError for a name the package lacks
    assert set(names) <= namespace.keys()
