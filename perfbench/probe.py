"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py SRC_DIR INPUTS_JSON

Imports daugavetlab from SRC_DIR and parses every scenario in INPUTS_JSON
(a JSON list; entries that are not objects, such as selftest seeds, are
only loaded).  Prints {"import_s": ..., "parse_s": ...}.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import daugavetlab  # noqa: E402

imported = time.perf_counter()
with open(sys.argv[2], encoding="utf-8") as fh:
    inputs = json.load(fh)
for entry in inputs:
    if isinstance(entry, dict):
        daugavetlab.parse_scenario(entry)
parsed = time.perf_counter()
print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported}))
