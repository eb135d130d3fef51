"""No check tabulates a field outside a compiled family or a profile.

|u| has one route: the profile holds sup|u| and inf|u|, each held to the
reference pass's |u(s)| at its point, and every |u| precondition reads them
there, the modulus-dip constructor's included (it profiles uC_phi with the
zero operator).  So circle.tabulate, which defines it, and operators.py,
which compiles families and profiles from it, are the only modules of the
package that name it.  Checked on the source, without importing it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "daugavetlab"

NAME = "tabulate"


def names_it(source: str) -> bool:
    """Whether the source defines, imports, names, reads as an attribute or
    spells out as a string the name tabulate."""
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name == NAME)
                or (isinstance(node, ast.alias) and node.name == NAME)
                or (isinstance(node, ast.Name) and node.id == NAME)
                or (isinstance(node, ast.Attribute) and node.attr == NAME)
                or (isinstance(node, ast.Constant) and node.value == NAME)):
            return True
    return False


def modules() -> dict[str, str]:
    found = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert {"circle.py", "criteria.py", "operators.py"} <= set(found)
    return found


def test_only_circle_and_operators_name_it():
    assert {module for module, source in modules().items() if names_it(source)} == {
        "circle.py", "operators.py"}


def test_the_guard_finds_a_planted_name():
    source = (SRC / "criteria.py").read_text()
    assert not names_it(source)
    assert names_it(source + "\nfrom .circle import tabulate\n")
