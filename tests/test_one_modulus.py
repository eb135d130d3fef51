"""Every reported modulus goes through circle.modulus.

numpy's np.abs differs from CPython's abs() of a complex in the last bit
on about a third of random values, so a reader that takes it reports a
second value for a modulus the verified route computes once.  The one
exception is rotation_max_norm's lambda search, which is held to the
analytic maximum only within its Lipschitz slack.  The disk model is
sampled numpy work and takes np.abs throughout.  Checked on the source,
without importing it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "daugavetlab"

#: (module, function, assigned name) of each np.abs the circle model may take.
LAMBDA_SEARCH = {("operators.py", "rotation_max_norm", "still"),
                 ("operators.py", "rotation_max_norm", "cap"),
                 ("operators.py", "rotation_max_norm", "vals")}


def is_np_abs(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in ("abs", "absolute")
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def np_abs_sites(module: str) -> list[tuple[str, str | None, str | None]]:
    """(module, enclosing top-level function, name assigned by the enclosing
    statement) of each np.abs the module names."""
    sites = []

    def visit(node, fn, target):
        if isinstance(node, ast.FunctionDef) and fn is None:
            fn = node.name
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            target = next((t.id for t in targets if isinstance(t, ast.Name)), None)
        if is_np_abs(node):
            sites.append((module, fn, target))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, target)

    visit(ast.parse((SRC / module).read_text()), None, None)
    return sites


def test_criteria_names_no_np_abs():
    assert np_abs_sites("criteria.py") == []


def test_the_circle_model_takes_np_abs_only_in_the_lambda_search():
    circle_modules = sorted(p.name for p in SRC.glob("*.py") if p.name != "disk.py")
    assert "operators.py" in circle_modules
    sites = [site for module in circle_modules for site in np_abs_sites(module)]
    assert set(sites) <= LAMBDA_SEARCH


def test_the_guard_finds_np_abs():
    assert np_abs_sites("disk.py")
    assert set(np_abs_sites("operators.py")) == LAMBDA_SEARCH
