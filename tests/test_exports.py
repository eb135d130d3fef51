"""Every exported name resolves, so a name deleted from a module cannot stay
in an export list, and every name the README's API table lists is exported."""

import importlib
import pkgutil
import re
from pathlib import Path

import daugavetlab


def test_every_exported_name_resolves():
    modules = [daugavetlab] + [
        importlib.import_module(f"daugavetlab.{info.name}")
        for info in pkgutil.iter_modules(daugavetlab.__path__)
        if info.name != "__main__"]  # importing it runs the command line
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) >= 8
    missing = [f"{m.__name__}.{name}" for m in exported for name in m.__all__
               if not hasattr(m, name)]
    assert missing == []


def test_readme_api_table_names_only_exports():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## What is in the box", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row)]
    assert len(names) >= 30
    assert [name for name in names if name not in daugavetlab.__all__] == []
