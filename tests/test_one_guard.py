"""Each side condition on a grid, a table symbol, a search ladder, a
Blaschke evaluation or a boundary point is raised by one function: grids,
sample fields and table symbols share one size check, tables and ladders
(radii and counts) are checked when they are made, blaschke_eval and the
ladder walk share one closed-disk guard and one pole guard, and half_plus,
ArcNeighborhood and the counterexample operator share one rule that omega
lies on the circle.  Checked on the source, without importing it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "daugavetlab"

#: Each message and the one function that raises it.
GUARDS = {
    "grid needs at least 2 points": "circle.py:_check_grid_size",
    "symbol table entries must be grid indices": "circle.py:SymbolMap.__post_init__",
    "outside the closed unit disk": "disk.py:_in_closed_disk",
    "too close to the pole of the": "disk.py:_denominator",
    "radii must lie in (0, 1)": "disk.py:SearchLadder.__post_init__",
    "max_depth must be at least 0": "disk.py:SearchLadder.__post_init__",
    "max_monomial must be at least 0": "disk.py:SearchLadder.__post_init__",
    "samples must be at least 1": "disk.py:SearchLadder.__post_init__",
    "omega must be on the circle": "disk.py:_on_circle",
}


def raising_functions(source: str, message: str) -> list[str]:
    """Qualified names of the functions (class methods as Class.method)
    with a raise statement whose string literals hold message."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise):
                text = "".join(c.value for c in ast.walk(child)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if message in text:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


@pytest.mark.parametrize("message", GUARDS)
def test_each_guard_is_raised_in_one_function(message):
    modules = sorted(SRC.rglob("*.py"))
    assert {p.name for p in modules} >= {"circle.py", "disk.py"}
    sites = [f"{p.name}:{name}" for p in modules
             for name in raising_functions(p.read_text(), message)]
    assert sites == [GUARDS[message]]


def test_the_guard_finds_a_duplicate():
    source = '''
def blaschke_eval(B, z):
    if abs(z) > 1:
        raise ValueError("evaluation point outside the closed unit disk")

class Walk:
    def run(self, z, a):
        if abs(z) > 1:
            raise ValueError("evaluation point " "outside the closed unit disk")
        raise ValueError(f"evaluation too close to the pole of the {a!r} factor")
'''
    assert raising_functions(source, "outside the closed unit disk") == [
        "blaschke_eval", "Walk.run"]
    assert raising_functions(source, "too close to the pole of the") == ["Walk.run"]
