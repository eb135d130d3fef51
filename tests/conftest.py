"""pyproject's `pythonpath = ["src"]` lets the tests import daugavetlab from
this checkout without installing it; this fixture does the same for the
tests that start `python -m daugavetlab` in a subprocess."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_subprocess_path():
    with pytest.MonkeyPatch.context() as mp:
        path = os.environ.get("PYTHONPATH")
        mp.setenv("PYTHONPATH", os.pathsep.join([SRC, path]) if path else SRC)
        yield
