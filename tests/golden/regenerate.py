"""Rewrite the golden reports from the golden scenarios.

    python3 tests/golden/regenerate.py

Renders every ``scenarios/<name>.json`` as ``daugavetlab verify`` would
(default tolerance, the scenario's own seed) into ``reports/<name>.json``,
and ``run_selftest(0)`` into ``reports/selftest-0.json``.  The program is
imported from this checkout's ``src/``.

Run it only for a change that means to alter report values, and name every
value that changed in CHANGES.md; ``tests/test_golden.py`` holds every
other change to the bytes as a failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from daugavetlab import (  # noqa: E402
    parse_scenario_file,
    render_report_json,
    run_scenario,
    run_selftest,
)

SCENARIOS = HERE / "scenarios"
REPORTS = HERE / "reports"
SELFTEST_SEED = 0


def render(scenario: Path) -> str:
    return render_report_json(run_scenario(parse_scenario_file(str(scenario))))


def render_selftest() -> str:
    return render_report_json(run_selftest(SELFTEST_SEED))


def main() -> int:
    REPORTS.mkdir(exist_ok=True)
    for scenario in sorted(SCENARIOS.glob("*.json")):
        (REPORTS / scenario.name).write_text(render(scenario), encoding="utf-8")
    (REPORTS / f"selftest-{SELFTEST_SEED}.json").write_text(render_selftest(),
                                                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
