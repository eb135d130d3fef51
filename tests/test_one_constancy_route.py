"""A check that holds a verified profile reads |u| off it.

The profile holds sup|u| and the smallest |u|, each held to the reference
pass's |u(s)| at its point, so the |u| preconditions of rotation-max, the
fat-preimage counterexample and refinement read them there and take no
second route.  circle.modulus_constancy tabulates |u| on its own: besides
its definition and the package export, only the modulus-dip constructor,
which needs |u| before it has an operator, names it.  Checked on the
source, without importing it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "daugavetlab"

NAME = "modulus_constancy"

#: (module, enclosing top-level definition) of each place the package may
#: name modulus_constancy: its definition, the package's __all__ and the
#: modulus-dip constructor.
ALLOWED = {("circle.py", NAME), ("__init__.py", None),
           ("criteria.py", "counterexample_nonconstant_modulus")}


def naming_sites(module: str, source: str) -> list[tuple[str, str | None]]:
    """(module, enclosing top-level definition) of each definition, name,
    attribute or string that names modulus_constancy; imports are left to
    imports()."""
    sites = []

    def visit(node, top):
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if defines and top is None:
            top = node.name
        if ((defines and node.name == NAME)
                or (isinstance(node, ast.Name) and node.id == NAME)
                or (isinstance(node, ast.Attribute) and node.attr == NAME)
                or (isinstance(node, ast.Constant) and node.value == NAME)):
            sites.append((module, top))
        for child in ast.iter_child_nodes(node):
            visit(child, top)

    visit(ast.parse(source), None)
    return sites


def imports(source: str) -> bool:
    """Whether the source imports modulus_constancy by name."""
    return any(isinstance(node, ast.alias) and node.name == NAME
               for node in ast.walk(ast.parse(source)))


def modules() -> dict[str, str]:
    found = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert {"circle.py", "criteria.py", "operators.py"} <= set(found)
    return found


def test_only_the_allowed_places_name_it():
    sites = {site for module, source in modules().items()
             for site in naming_sites(module, source)}
    assert sites == ALLOWED


def test_only_the_modules_that_use_it_import_it():
    assert {module for module, source in modules().items() if imports(source)} == {
        module for module, _ in ALLOWED if module != "circle.py"}


def test_the_guard_finds_a_planted_name():
    source = (SRC / "operators.py").read_text()
    assert naming_sites("operators.py", source) == [] and not imports(source)
    planted = (source + "\nfrom .circle import modulus_constancy\n\n\n"
               "def planted(wc, grid):\n"
               "    return modulus_constancy(wc.u, grid).constant\n")
    assert naming_sites("operators.py", planted) == [("operators.py", "planted")]
    assert imports(planted)
