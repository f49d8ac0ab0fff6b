"""The README's library quick tour runs, and its commented values hold;
every public name imports from the package, and each is declared by the
module that defines it."""

import ast
import importlib
import inspect
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


#: The package's public names, module by module, in the order the package joins them.
PUBLIC_NAMES = {
    "angle_dynamics": {
        "AngleTriple", "CoefficientSequence", "QualityValue", "DegenerateTriangleError",
        "EquilateralTriangleError", "DEGENERACY_EPS", "EQUILATERAL", "transform", "iterate",
        "iterate_closed_form", "deviations_after", "coefficients", "quality",
        "predict_quality", "convergence_rate_check",
    },
    "plane_geometry": {
        "Point2", "TrianglePoints", "GrowthFactor", "GrowthReport", "CollinearTriangleError",
        "angles_of", "construct_transformed", "construct_transformed_intersection",
        "growth_factor", "edge_product_growth_check", "rescale_to_area",
    },
    "simple_mesh": {
        "SimpleMeshAngles", "SimpleMeshGeometry", "CorrectionTerms", "ClosureResidual",
        "MeshQuality", "MeshConstraintError", "DegenerateMeshError", "correction_terms",
        "transform_mesh", "iterate_mesh", "mesh_quality", "optimal_mesh", "optimal_quality",
        "random_mesh", "reconstruct_geometry", "load_mesh_angles", "save_mesh_angles",
    },
    "mesh_io": {
        "MeshModel", "MeshFormatError", "DegenerateFace", "QualityReport", "ColorMap",
        "load_mesh", "save_off", "analyze", "render_svg",
    },
}


def defined_at_top_level(module) -> set:
    """Names a module's own statements bind: def, class and assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_public_name_imports_and_none_repeats():
    """Each module's __all__ is its pinned names, each bound by the module's
    own statements and by a star import of it; the package's __all__ joins
    the four without repeats, and a star import of the package binds it."""
    joined = []
    for name, expected in PUBLIC_NAMES.items():
        module = importlib.import_module(f"trismooth.{name}")
        assert set(module.__all__) == expected and len(module.__all__) == len(expected)
        assert expected <= defined_at_top_level(module), name
        namespace: dict = {}
        exec(f"from trismooth.{name} import *", namespace)
        assert namespace.keys() - {"__builtins__"} == expected, name
        joined += module.__all__
    assert trismooth.__all__ == joined and len(set(joined)) == len(joined) == 52
    namespace = {}
    exec("from trismooth import *", namespace)  # an AttributeError for a name the package lacks
    assert namespace.keys() - {"__builtins__"} == set(joined)


def call_sites(source: str, dotted: str) -> list[str]:
    """Qualified names of the functions in ``source`` whose code reads the
    attribute ``dotted`` (as ``name.attr``), one entry per read."""
    owner, attr = dotted.split(".")
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr == attr:
            if isinstance(node.value, ast.Name) and node.value.id == owner:
                sites.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_each_count_and_fan_rule_is_written_once():
    """A count is read by ``_count`` only, and past its constructor a fan is
    made by ``_fan`` only; ``MeshFormatError`` and ``MeshModel`` read a line
    number and vertex indices, which are not counts."""
    sources = sorted((Path(trismooth.__file__).parent).glob("*.py"))
    index, new = [], []
    for path in sources:
        source = path.read_text(encoding="utf-8")
        index += [f"{path.stem}.{site}" for site in call_sites(source, "operator.index")]
        new += [f"{path.stem}.{site}" for site in call_sites(source, "SimpleMeshAngles.__new__")]
    assert sorted(index) == [
        "angle_dynamics._count", "mesh_io.MeshFormatError.__init__", "mesh_io.MeshModel.__init__"
    ]
    assert new == ["simple_mesh._fan"]


def name_sites(source: str, name: str) -> list[str]:
    """Qualified scopes in ``source`` (the module's own as "") that bind or
    read ``name``: as a bare name, an attribute, an imported name, or the
    name of a def or class, one entry per use."""
    sites = []

    def visit(node, scope):
        used = (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and (node.asname or node.name) == name
            or isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
        if used:
            sites.append(".".join(scope))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_blocks_and_views_each_have_one_owner():
    """Only ``_text`` binds ``FACE_BLOCK``, and only ``_text.blocks`` and
    ``mesh_steps`` (whose step blocks are sized from it) read it; no module
    builds attributes in a ``__getattr__`` hook."""
    sites = {}
    for path in sorted((Path(trismooth.__file__).parent).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for name in ("FACE_BLOCK", "__getattr__", "_views", "_hold"):
            sites.setdefault(name, [])
            sites[name] += [f"{path.stem}:{site}" for site in name_sites(source, name)]
    assert sorted(sites.pop("FACE_BLOCK")) == [
        "_text:", "_text:blocks", "_text:blocks", "simple_mesh:mesh_steps"
    ]
    assert sites == {"__getattr__": [], "_views": [], "_hold": []}
