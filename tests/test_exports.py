"""Every exported name resolves, so a name deleted from a module cannot stay
in an export list."""

import importlib
import pkgutil

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
