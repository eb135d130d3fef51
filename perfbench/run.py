"""Benchmark for daugavetlab: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload selftest --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One process runs one workload on one thread.

A *unit* is either one scenario taken through ``parse_scenario`` ->
``run_scenario`` -> ``render_report_json`` (what ``daugavetlab verify``
does after import), or one ``run_selftest(seed)`` followed by
``render_report_json``.  Units run in a closed loop with one caller, in
whole rounds over the workload's deck (see workloads.py) until
``--seconds`` have passed, so every run does the same mix of work.  Each
output is checked (checks.py) and must repeat byte for byte when its
input repeats.

``--trace 0`` reports the end-to-end metrics:

  setup_s          median wall time of a fresh interpreter that imports
                   daugavetlab and parses the generated inputs (generation
                   excluded), over SETUP_REPEATS probes
  units_per_s      units / summed unit wall time
  latency_p50_ms   median unit wall time
  latency_tail_ms  unit wall time at the highest percentile with at least
                   ten samples above it; with fewer than 20 samples that
                   percentile would sit below the median, so the maximum is
                   reported instead.  The record names the percentile.
  peak_rss_mb      peak resident set of this process

``failed_fraction`` (failed units / attempted units) is printed with them
and is carried by the result's ``failed`` and ``attempted``.  It is left
out of the result's metrics because a healthy run reads exactly 0 there,
which no relative bound can compare.

``--trace 1`` runs every unit twice, untraced and traced in alternating
order, and reports the per-layer metrics of tracing.py as means per
traced unit, plus ``trace.overhead`` (traced over untraced units/s).

The last line of standard output is the result object; the full record
(environment, percentiles, spans of a traced run) is written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "units_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "circle.tabulate_ms": "ms", "measures.family_ms": "ms",
    "measures.atoms_per_point_max": "count", "measures.atoms_per_point_mean": "count",
    "measures.oracle_ms": "ms",
    "operators.profile_ms": "ms", "operators.profile_calls": "count",
    "operators.perturbed_norm_ms": "ms", "operators.operator_norm_ms": "ms",
    "operators.convex_combo_ms": "ms", "operators.family_passes": "count",
    "operators.lambda_search_ms": "ms", "operators.grid_points": "count",
    "criteria.equation_ms": "ms", "criteria.sweep_ms": "ms",
    "criteria.s_epsilon_ms": "ms", "criteria.counterexample_ms": "ms",
    "criteria.refinement_ms": "ms", "criteria.convex_ms": "ms",
    "disk.ladder_ms": "ms", "disk.ladder_functions": "count",
    "disk.ladder_evals": "count", "disk.certified_ms": "ms",
    "disk.c_conditions_ms": "ms",
    "scenarios.parse_ms": "ms", "scenarios.run_ms": "ms",
    "scenarios.render_ms": "ms", "scenarios.report_bytes": "bytes",
    "sampling.generate_ms": "ms", "selftest.self_ms": "ms",
    "cli.import_ms": "ms", "trace.overhead": "ratio",
}

#: span name behind each "<layer>_ms" metric that is a self time
SELF_TIMES = {
    "operators.profile_ms": "operators.profile",
    "operators.perturbed_norm_ms": "operators.perturbed_norm",
    "operators.operator_norm_ms": "operators.operator_norm",
    "operators.convex_combo_ms": "operators.convex_combo",
    "operators.lambda_search_ms": "operators.lambda_search",
    "criteria.equation_ms": "criteria.equation",
    "criteria.sweep_ms": "criteria.sweep",
    "criteria.s_epsilon_ms": "criteria.s_epsilon",
    "criteria.counterexample_ms": "criteria.counterexample",
    "criteria.refinement_ms": "criteria.refinement",
    "criteria.convex_ms": "criteria.convex",
    "disk.ladder_ms": "disk.ladder",
    "disk.certified_ms": "disk.certified",
    "disk.c_conditions_ms": "disk.c_conditions",
    "scenarios.parse_ms": "scenarios.parse",
    "scenarios.run_ms": "scenarios.run",
    "scenarios.render_ms": "scenarios.render",
    "sampling.generate_ms": "sampling.generate",
    "selftest.self_ms": "selftest",
}

FIELD_MAKERS = ("random_unimodular_field", "random_constant_modulus_field",
                "random_nonconstant_weight")


class SetupError(RuntimeError):
    pass


def load_program():
    """Import daugavetlab from this checkout's src/, never from elsewhere."""
    init = SRC / "daugavetlab" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no program sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import daugavetlab
    if Path(daugavetlab.__file__).resolve() != init.resolve():
        raise SetupError(f"imported daugavetlab from {daugavetlab.__file__}")
    return daugavetlab


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    above it, or the maximum when that percentile would be below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def _commit() -> str:
    """HEAD of the checkout's own git metadata, if it has any."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
            "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
            "machine": platform.machine(), "commit": _commit()}


def measure_setup(inputs: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up probes and the import time each reported."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC),
                               str(inputs)], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


class Bench:
    def __init__(self, prog, workload: str, deck: list) -> None:
        self.prog = prog
        self.workload = workload
        self.deck = deck
        self.texts = (None if workload == "selftest"
                      else [json.dumps(scenario) for scenario, _ in deck])

    def unit(self, index: int, tracer) -> tuple[bytes, object]:
        """One timed unit; returns the report bytes and the parsed scenario."""
        prog = self.prog

        def span(name):
            return tracer.span(name) if tracer is not None else nullcontext({})

        if self.texts is None:
            with span("selftest"):
                report = prog.run_selftest(self.deck[index])
            scenario = None
        else:
            with span("scenarios.parse"):
                scenario = prog.parse_scenario(json.loads(self.texts[index]))
            with span("scenarios.run"):
                report = prog.run_scenario(scenario)
        with span("scenarios.render") as counts:
            out = prog.render_report_json(report).encode("utf-8")
            counts["bytes"] = len(out)
        return out, scenario

    def check(self, index: int, out: bytes) -> list[str]:
        report = json.loads(out)
        if self.texts is None:
            return checks.selftest(report)
        expect = self.deck[index][1]
        if self.workload == "circle-large":
            return checks.circle(report, expect)
        return checks.disk(report, expect)


def direct_pass(prog, scenario, captured: list[tuple], totals: dict) -> None:
    """Time the per-point layers of one unit by walking its objects once.

    Tabulation evaluates u and phi at every grid point, the family pass
    builds every measure of T, the oracle pass takes both norms of every
    measure the selftest checks; none of these calls is wrapped.
    """
    tabulate, families, measures = [], [], []
    if scenario is not None and getattr(scenario, "n", None) and scenario.weight:
        grid = prog.GridCircle(scenario.n)
        tabulate = [(scenario.weight, grid), (scenario.symbol, grid)]
        families = [(scenario.operator, grid)]
    for name, obj, size, parent in captured:
        if name in FIELD_MAKERS or name == "random_symbol":
            tabulate.append((obj, prog.GridCircle(size)))
        elif name == "random_finite_rank":
            families.append((obj, prog.GridCircle(size)))
        elif name == "random_measure" and parent == "selftest":
            measures.append((obj, prog.GridCircle(size)))

    if tabulate:
        start = time.perf_counter()
        for fn, grid in tabulate:
            for p in grid.points():
                fn(p)
        totals["tabulate_s"] += time.perf_counter() - start
    atoms = []
    if families:
        start = time.perf_counter()
        for op, grid in families:
            atoms.extend(len(op.measure_at(p)) for p in grid.points())
        totals["family_s"] += time.perf_counter() - start
    if measures:
        start = time.perf_counter()
        for mu, grid in measures:
            prog.norm_oracle(mu, grid)
            prog.total_variation(mu)
        totals["oracle_s"] += time.perf_counter() - start
    totals["atoms_max"] = max([totals["atoms_max"], *atoms])
    totals["atoms_sum"] += sum(atoms)
    totals["atoms_points"] += len(atoms)


def run(bench: Bench, seconds: float, trace: bool) -> dict:
    tracer = tracing.Tracer() if trace else None
    latencies, traced, untraced = [], [], []
    failures: list[str] = []
    failed_units = attempted = rounds = 0
    digests: dict[int, bytes] = {}
    direct = {"tabulate_s": 0.0, "family_s": 0.0, "oracle_s": 0.0,
              "atoms_max": 0, "atoms_sum": 0, "atoms_points": 0}
    start = time.perf_counter()
    while True:
        for index in range(len(bench.deck)):
            if not trace:
                modes = (False,)
            elif (index + rounds) % 2 == 0:
                modes = (False, True)
            else:
                modes = (True, False)
            for with_trace in modes:
                gc.collect()
                attempted += 1
                problems: list[str] = []
                if with_trace:
                    tracer.unit = attempted
                    tracer.captured.clear()
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    out, scenario = bench.unit(index, tracer if with_trace else None)
                except Exception as exc:  # any exception fails the unit
                    problems.append(f"{type(exc).__name__}: {exc}")
                finally:
                    elapsed = time.perf_counter() - t0
                    if with_trace:
                        tracer.uninstall()
                latencies.append(elapsed)
                if not problems:
                    problems = bench.check(index, out)
                    digest = hashlib.sha256(out).digest()
                    if digests.setdefault(index, digest) != digest:
                        problems.append("report bytes differ from an earlier "
                                        "run of the same input")
                if problems:
                    failed_units += 1
                    failures.extend(f"deck[{index}] {p}" for p in problems)
                    continue
                if trace:
                    (traced if with_trace else untraced).append(elapsed)
                if with_trace:
                    direct_pass(bench.prog, scenario, tracer.captured, direct)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "attempted": attempted, "failed": failed_units,
            "failures": failures, "rounds": rounds, "tracer": tracer,
            "traced": traced, "untraced": untraced, "direct": direct}


def end_to_end(result: dict, setup_walls: list[float]) -> tuple[dict, dict]:
    lat = result["latencies"]
    tail, pct = tail_latency(lat)
    values = {
        "setup_s": statistics.median(setup_walls),
        "units_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"tail_percentile": pct, "samples": len(lat),
             "failed_fraction": result["failed"] / result["attempted"]}
    return values, notes


def per_layer(result: dict, import_times: list[float]) -> dict:
    units = max(1, len(result["traced"]))
    totals = tracing.layer_totals(result["tracer"].spans)

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    direct = result["direct"]
    family = [totals.get(name, {}) for name in tracing.FAMILY_PASSES]
    values = {key: 1000.0 * total(span, "self_s") / units
              for key, span in SELF_TIMES.items()}
    values.update({
        "circle.tabulate_ms": 1000.0 * direct["tabulate_s"] / units,
        "measures.family_ms": 1000.0 * direct["family_s"] / units,
        "measures.atoms_per_point_max": float(direct["atoms_max"]),
        "measures.atoms_per_point_mean": (direct["atoms_sum"] / direct["atoms_points"]
                                          if direct["atoms_points"] else 0.0),
        "measures.oracle_ms": 1000.0 * direct["oracle_s"] / units,
        "operators.profile_calls": total("operators.profile", "calls") / units,
        "operators.family_passes": sum(t.get("calls", 0) for t in family) / units,
        "operators.grid_points": sum(t.get("grid_points", 0) for t in family) / units,
        "disk.ladder_functions": total("disk.ladder", "functions") / units,
        "disk.ladder_evals": total("disk.ladder", "evals") / units,
        "scenarios.report_bytes": total("scenarios.render", "bytes") / units,
        "cli.import_ms": 1000.0 * statistics.median(import_times),
        "trace.overhead": (sum(result["untraced"]) / sum(result["traced"])
                           if result["traced"] else 0.0),
    })
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        prog = load_program()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    deck = workloads.generate(args.workload, args.seed)
    bench = Bench(prog, args.workload, deck)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workdir / "inputs.json"
        inputs.write_text(json.dumps(deck if args.workload == "selftest"
                                     else [scenario for scenario, _ in deck]))
        setup_walls, import_times = measure_setup(inputs)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for scenario in workloads.warmup_scenarios():
        try:
            prog.render_report_json(prog.run_scenario(prog.parse_scenario(scenario)))
        except Exception:  # the timed units report what is broken
            pass

    result = run(bench, args.seconds, trace)
    if trace:
        metrics = per_layer(result, import_times)
        units, notes = PER_LAYER, {"traced_units": len(result["traced"])}
    else:
        metrics, notes = end_to_end(result, setup_walls)
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "units": {"attempted": result["attempted"], "failed": result["failed"],
                  "rounds": result["rounds"], "deck": len(deck)},
        "notes": notes, "metrics": metrics,
        "setup_walls_s": setup_walls, "import_s": import_times,
        "latencies_s": result["latencies"], "failures": result["failures"][:50],
    }
    if trace:
        record["spans"] = result["tracer"].spans
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    for key, value in metrics.items():
        print(f"{key:32s} {value:14.6g} {units[key]}")
    for key, value in notes.items():
        print(f"{key:32s} {value:14.6g}")
    for line in result["failures"][:10]:
        print(f"FAILED {line}")
    print(json.dumps({"environment": record["environment"], "units": record["units"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
