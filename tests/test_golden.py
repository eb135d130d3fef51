"""Golden report bytes.

Every scenario under golden/scenarios renders, as `daugavetlab verify`
would, to exactly the bytes stored under golden/reports, and so does
`run_selftest(0)`.  The reports were written before the circle model was
compiled to index space; a change that means to alter them reruns
golden/regenerate.py and names every changed value in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.name for p in (GOLDEN / "scenarios").glob("*.json"))

_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def golden(name: str) -> str:
    return (GOLDEN / "reports" / name).read_text(encoding="utf-8")


def test_every_scenario_has_a_report_and_nothing_else():
    reports = sorted(p.name for p in (GOLDEN / "reports").glob("*.json"))
    assert reports == sorted(SCENARIOS + [f"selftest-{regenerate.SELFTEST_SEED}.json"])
    assert len(SCENARIOS) == 9


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_report_matches_golden_bytes(name):
    assert regenerate.render(GOLDEN / "scenarios" / name) == golden(name)


def test_selftest_report_matches_golden_bytes():
    assert regenerate.render_selftest() == golden(f"selftest-{regenerate.SELFTEST_SEED}.json")
