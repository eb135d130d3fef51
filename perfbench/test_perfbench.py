"""Tests for the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

prog = run.load_program()


def _report(scenario: dict) -> dict:
    text = prog.render_report_json(prog.run_scenario(prog.parse_scenario(scenario)))
    return json.loads(text)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_always_gives_the_same_inputs(workload):
    first = json.dumps(workloads.generate(workload, 7))
    assert json.dumps(workloads.generate(workload, 7)) == first
    assert json.dumps(workloads.generate(workload, 8)) != first


@pytest.mark.parametrize("workload", ["circle-large", "disk-ladder"])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_generated_scenario_parses(workload, seed):
    for scenario, _ in workloads.generate(workload, seed):
        sc = prog.parse_scenario(json.loads(json.dumps(scenario)))
        assert sc.checks


def test_inputs_use_rational_coordinates_and_no_planned_removals():
    text = json.dumps([s for s, _ in workloads.circle_large(3)]
                      + [s for s, _ in workloads.disk_ladder(3)])
    for key in ("phase_grid", "threads", "timings"):
        assert f'"{key}"' not in text
    for scenario, _ in workloads.circle_large(3):
        for key in ("center", "half_width", "value", "shift", "pos", "target"):
            for value in _values(scenario, key):
                assert isinstance(value, str), (key, value)


def _values(obj, key):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == key:
                yield v
            yield from _values(v, key)
    elif isinstance(obj, list):
        for v in obj:
            yield from _values(v, key)


@pytest.mark.parametrize("kind", sorted(workloads.CIRCLE_TEMPLATES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_circle_closed_forms_hold_at_small_n(kind, seed):
    scenario, expect = workloads.CIRCLE_TEMPLATES[kind](workloads._rng(seed, 0), 128)
    report = _report(scenario)
    assert checks.circle(report, expect) == []
    if kind == "readme":
        gap = next(c for c in report["checks"] if c["name"] == "equation")["values"]["gap"]
        assert abs(gap - checks.readme_gap(128)) <= 1e-12


@pytest.mark.parametrize("kind,depth,samples",
                         [("inner", 3, 8192), ("certified", 2, 4096)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_planted_disk_verdicts_hold(kind, depth, samples, seed):
    scenario, expect = workloads.DISK_TEMPLATES[kind](workloads._rng(seed, 0), depth, samples)
    assert checks.disk(_report(scenario), expect) == []


def test_checks_reject_a_wrong_planted_gap():
    scenario, expect = workloads.circle_dip(workloads._rng(0, 0), 128)
    report = _report(scenario)
    assert checks.circle(report, dict(expect, modulus_gap=0.25))


def test_readme_gap_is_below_the_sweep_ladder_at_benchmark_sizes():
    scenario, _ = workloads.circle_readme(workloads._rng(0, 0), 4096)
    scenario["checks"] = [{"name": "equation"}, {"name": "criterion-sweep"}]
    records = {c["name"]: c for c in _report(scenario)["checks"]}
    assert checks.sweep_unresolved(records["criterion-sweep"],
                                   records["equation"]["values"]["gap"])


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    values = [float(v) for v in range(40)]
    assert run.tail_latency(values) == (29.0, 75.0)
    assert run.tail_latency(values[:19]) == (18.0, 100.0)


def test_self_time_subtracts_direct_children():
    spans = [[0, "a", 0.0, 10.0, None, 1, {}],
             [1, "b", 1.0, 4.0, 0, 1, {"grid_points": 8}],
             [2, "c", 2.0, 3.0, 1, 1, {}],
             [3, "b", 5.0, 6.0, 0, 1, {"grid_points": 8}]]
    totals = tracing.layer_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["calls"] == 2 and totals["b"]["grid_points"] == 16


def test_tracing_changes_no_bytes_and_restores_the_program():
    scenario, _ = workloads.circle_closed(workloads._rng(0, 0), 128)
    plain = prog.render_report_json(prog.run_scenario(prog.parse_scenario(scenario)))
    original = prog.operators.perturbation_profile
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = prog.render_report_json(prog.run_scenario(prog.parse_scenario(scenario)))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert prog.operators.perturbation_profile is original
    assert prog.criteria.perturbation_profile is original
    names = {span[1] for span in tracer.spans}
    assert {"operators.profile", "criteria.sweep", "criteria.refinement"} <= names


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "selftest",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
