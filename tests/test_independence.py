"""The per-point reference route shares no code with the compiled route.

Every profile is held to the per-point route once at each grid point, so
that route must stay an independent witness: measures.py and every
measure_at method (with the field and symbol evaluations they call) may
not name any part of the compiled route.  Checked on the source, without
importing it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "daugavetlab"

COMPILED_ROUTE = {
    "IndexSpace", "symbol_codes", "tabulate",
    "cmul", "modulus",
    "CompiledFamily", "compile_family", "compiled_family", "memoized",
}

#: Methods of circle.py that measure_at evaluates at each point.
POINT_EVALUATIONS = {("ScalarField", "__call__"), ("SymbolMap", "__call__"),
                     ("Arc", "contains")}


def names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def methods(tree: ast.Module):
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    yield cls.name, fn


def reference_route() -> list[tuple[str, ast.AST]]:
    parts = [("measures.py", ast.parse((SRC / "measures.py").read_text()))]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls, fn in methods(tree):
            if fn.name == "measure_at" or (path.name == "circle.py"
                                           and (cls, fn.name) in POINT_EVALUATIONS):
                parts.append((f"{path.name}:{cls}.{fn.name}", fn))
    return parts


def test_the_reference_route_is_found():
    found = {where for where, _ in reference_route()}
    assert {"operators.py:WeightedComposition.measure_at",
            "operators.py:FiniteRankOperator.measure_at",
            "operators.py:ConvexCombination.measure_at",
            "operators.py:OperatorExpr.measure_at",
            "circle.py:ScalarField.__call__", "circle.py:SymbolMap.__call__",
            "circle.py:Arc.contains"} <= found


@pytest.mark.parametrize("node", [pytest.param(node, id=where)
                                  for where, node in reference_route()])
def test_reference_route_names_nothing_of_the_compiled_route(node):
    assert not names(node) & COMPILED_ROUTE
