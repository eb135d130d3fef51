"""Print one sha256 over the benchmark decks' reports and the selftest.

    python3 tests/golden/deck_digest.py

Renders, in order, the circle-large and disk-ladder decks of seeds 1-3
(generated by ``perfbench/workloads.py``, which is only read) as
``daugavetlab verify`` would, and ``run_selftest(0..3)``, then prints the
sha256 of all those reports together and how many there are.  A change
that means to keep every report byte prints the same digest before and
after it; ``deck.sha256`` beside this script holds that line, and
``tests/test_golden.py`` recomputes it.  A change that means to alter
report bytes rewrites it (``python3 tests/golden/deck_digest.py >
tests/golden/deck.sha256``) and names the change.  The program is
imported from this checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from daugavetlab import (  # noqa: E402
    parse_scenario,
    render_report_json,
    run_scenario,
    run_selftest,
)

SEEDS = (1, 2, 3)
WORKLOADS = ("circle-large", "disk-ladder")
SELFTEST_SEEDS = (0, 1, 2, 3)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "deck_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reports():
    """Every report as the bytes the CLI writes, in a fixed order."""
    workloads = load_workloads()
    for workload in WORKLOADS:
        for seed in SEEDS:
            for scenario, _ in workloads.generate(workload, seed):
                # the benchmark parses the scenario back from its JSON text
                parsed = parse_scenario(json.loads(json.dumps(scenario)))
                yield render_report_json(run_scenario(parsed)).encode("utf-8")
    for seed in SELFTEST_SEEDS:
        yield render_report_json(run_selftest(seed)).encode("utf-8")


def digest() -> str:
    """The sha256 of every report and how many there are, as one line."""
    sha, count = hashlib.sha256(), 0
    for out in reports():
        # each report's length first, so no two lists of reports hash alike
        sha.update(len(out).to_bytes(8, "little"))
        sha.update(out)
        count += 1
    return f"{sha.hexdigest()}  {count} reports"


def main() -> int:
    print(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
