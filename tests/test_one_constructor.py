"""Every measure is validated by AtomicMeasure.__post_init__, once, when
it is made.  No module may make an instance past its __init__, so no
module names object.__new__.  Checked on the source, without importing
it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "daugavetlab"


def object_new_sites(source: str) -> list[int]:
    """Line numbers where the source names object.__new__."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"]


def test_no_module_names_object_new():
    modules = sorted(SRC.rglob("*.py"))
    assert any(p.name == "measures.py" for p in modules)
    sites = {p.name: object_new_sites(p.read_text()) for p in modules}
    assert {name: lines for name, lines in sites.items() if lines} == {}


def test_the_guard_finds_object_new():
    source = "mu = object.__new__(AtomicMeasure)\nobject.__setattr__(mu, 'atoms', ())\n"
    assert object_new_sites(source) == [1]
