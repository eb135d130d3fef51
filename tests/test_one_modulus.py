"""Every reported modulus goes through circle.modulus, in both models.

numpy's np.abs differs from CPython's abs() of a complex in the last bit
on about a third of random values, and which values depends on the SIMD
kernels numpy picks for the CPU, so a reader that takes it reports a
second value for a modulus the verified route computes once.  Two kinds
of np.abs are allowed, each listed by name: the two native searches,
rotation_max_norm's lambda search (held to the analytic maximum within its
Lipschitz slack) and the disk's ladder walk (its inputs' projection, caps
and scores, whose winners are re-scored in portable arithmetic), and the
disk's two guards that only compare a modulus with a threshold.  Checked
on the source, without importing it.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "daugavetlab"

#: (module, function, assigned name) of each np.abs the lambda search takes.
LAMBDA_SEARCH = {("operators.py", "rotation_max_norm", "still"),
                 ("operators.py", "rotation_max_norm", "cap"),
                 ("operators.py", "rotation_max_norm", "vals")}

#: Each np.abs of the ladder walk: the projection of phi onto the closed
#: disk, the caps and the native scores.
LADDER_WALK = {("disk.py", "disk_norm_lower_bound", "moduli"),
               ("disk.py", "_ladder_walk", "u_sup"),
               ("disk.py", "_ladder_walk", "t_sup"),
               ("disk.py", "_ladder_walk", "f_sup"),
               ("disk.py", "_ladder_walk", "value")}

#: The closed-disk guard and the pole guard of every Blaschke evaluation.
DISK_GUARDS = {("disk.py", "_in_closed_disk", None), ("disk.py", "_denominator", None)}


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


def modules() -> list[str]:
    found = sorted(p.name for p in SRC.glob("*.py"))
    assert {"operators.py", "disk.py", "criteria.py"} <= set(found)
    return found


def test_criteria_names_no_np_abs():
    assert np_abs_sites("criteria.py") == []


def test_np_abs_appears_only_in_the_two_searches_and_the_disk_guards():
    sites = [site for module in modules() for site in np_abs_sites(module)]
    assert set(sites) <= LAMBDA_SEARCH | LADDER_WALK | DISK_GUARDS


def test_no_module_evaluates_a_polynomial_with_numpy():
    # numpy's polynomial package multiplies with its native complex product
    for module in modules():
        assert not re.search(r"\b(np|numpy)\.polynomial\b", (SRC / module).read_text()), module


def test_the_guard_finds_np_abs():
    assert set(np_abs_sites("operators.py")) == LAMBDA_SEARCH
    assert set(np_abs_sites("disk.py")) == LADDER_WALK | DISK_GUARDS
