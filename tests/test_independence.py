"""The per-point reference route shares no code with the compiled route.

Every profile is held to the per-point route once at each grid point, in
columns (measures.column_norms), so that route must stay an independent
witness: measures.py, every measure_at method and PER_POINT_HELPERS (with
the field and symbol evaluations they call, every function of circle.py
or measures.py and every method of circle.py, measures.py or operators.py
that any of these names, to any depth) may not name any part of the
compiled route.  The methods include properties such as
FiniteRankOperator.plan and SymbolMap.table_images.  Checked on the
source, without importing it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "daugavetlab"

COMPILED_ROUTE = {
    "IndexSpace", "index_space", "symbol_codes", "_symbol_codes", "_closed_form_codes",
    "tabulate", "_tabulate", "arc_mask", "cmul", "modulus",
    "CompiledFamily", "compile_family", "compiled_family", "memoized",
}

#: Modules whose module-level functions the route is followed into.
HELPER_MODULES = ("circle.py", "measures.py")

#: Modules whose methods (properties too) the route is followed into.
METHOD_MODULES = ("circle.py", "measures.py", "operators.py")

#: Module-level functions that witness compiled values point by point or,
#: as the reference pass's entry point does, in columns.
PER_POINT_HELPERS = {("criteria.py", "_direct_deficiency"), ("measures.py", "column_norms")}

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


def helpers() -> dict[str, list[tuple[str, ast.FunctionDef]]]:
    """Module-level functions of HELPER_MODULES and methods of
    METHOD_MODULES, by name."""
    found: dict[str, list] = {}
    for module in HELPER_MODULES:
        for fn in ast.parse((SRC / module).read_text()).body:
            if isinstance(fn, ast.FunctionDef):
                found.setdefault(fn.name, []).append((f"{module}:{fn.name}", fn))
    for module in METHOD_MODULES:
        for cls, fn in methods(ast.parse((SRC / module).read_text())):
            found.setdefault(fn.name, []).append((f"{module}:{cls}.{fn.name}", fn))
    return found


def reference_route() -> list[tuple[str, ast.AST]]:
    parts = [("measures.py", ast.parse((SRC / "measures.py").read_text()))]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls, fn in methods(tree):
            if fn.name == "measure_at" or (path.name == "circle.py"
                                           and (cls, fn.name) in POINT_EVALUATIONS):
                parts.append((f"{path.name}:{cls}.{fn.name}", fn))
        parts += [(f"{path.name}:{fn.name}", fn) for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in PER_POINT_HELPERS]
    # follow every name of a helper function or method, called, passed or
    # read as a property, to any depth
    table, seen = helpers(), {where for where, _ in parts}
    todo = [node for _, node in parts]
    while todo:
        for name in sorted(names(todo.pop()) & table.keys()):
            for where, node in table[name]:
                if where not in seen:
                    seen.add(where)
                    parts.append((where, node))
                    todo.append(node)
    return parts


def test_the_reference_route_is_found():
    found = {where for where, _ in reference_route()}
    assert {"operators.py:WeightedComposition.measure_at",
            "operators.py:FiniteRankOperator.measure_at",
            "operators.py:OperatorExpr.measure_at",
            "circle.py:ScalarField.__call__", "circle.py:SymbolMap.__call__",
            "circle.py:Arc.contains",
            "circle.py:_gap", "circle.py:_grid_index", "circle.py:frac_mod1",
            "circle.py:_as_fraction", "circle.py:SymbolMap.table_images",
            "operators.py:FiniteRankOperator.plan", "measures.py:merge_plan",
            "measures.py:apply_plan", "criteria.py:_direct_deficiency",
            "measures.py:column_norms", "measures.py:_block_norms", "measures.py:_slots",
            "measures.py:_rows", "measures.py:_blocks"} <= found


@pytest.mark.parametrize("node", [pytest.param(node, id=where)
                                  for where, node in reference_route()])
def test_reference_route_names_nothing_of_the_compiled_route(node):
    assert not names(node) & COMPILED_ROUTE
