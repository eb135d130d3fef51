"""Scenario parsing, report rendering and the command line."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daugavetlab import measures, scenarios
from daugavetlab.cli import main
from daugavetlab.scenarios import (
    CHECKS,
    ScenarioError,
    parse_scenario,
    render_report_csv,
    render_report_json,
    run_scenario,
)

WINDOW = {
    "space": {"kind": "circle", "n": 64},
    "weight": {"kind": "constant", "re": 1.0},
    "symbol": {"kind": "doubling"},
    "operator": {"kind": "finite_rank", "terms": [
        {"g": {"kind": "cosine", "amplitude": 0.5, "offset": 0.5, "frequency": 1},
         "atoms": [{"pos": "0", "re": -1.0}]}]},
    "checks": [{"name": "equation"}],
}


def scenario(**overrides):
    obj = json.loads(json.dumps(WINDOW))
    obj.update(overrides)
    return obj


class TestParsing:
    def test_minimal_scenario_parses(self):
        sc = parse_scenario(scenario())
        assert sc.n == 64
        assert sc.weight is not None

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match="scenario: unknown field"):
            parse_scenario(scenario(bogus=1))

    def test_unknown_check_name(self):
        with pytest.raises(ScenarioError, match=r"checks\[0\].name"):
            parse_scenario(scenario(checks=[{"name": "nope"}]))

    def test_unknown_check_parameter(self):
        with pytest.raises(ScenarioError, match=r"checks\[0\]"):
            parse_scenario(scenario(checks=[{"name": "equation", "extra": 1}]))

    def test_t_outside_unit_interval(self):
        with pytest.raises(ScenarioError, match="scenario.t"):
            parse_scenario(scenario(t=1.5))

    def test_float_grid_coordinate_rejected(self):
        bad = scenario(operator={"kind": "finite_rank", "terms": [
            {"g": {"kind": "constant", "re": 1.0},
             "atoms": [{"pos": 0.125, "re": 1.0}]}]})
        with pytest.raises(ScenarioError, match="rational strings"):
            parse_scenario(bad)

    def test_malformed_rational(self):
        bad = scenario(operator={"kind": "finite_rank", "terms": [
            {"g": {"kind": "constant", "re": 1.0},
             "atoms": [{"pos": "1/0", "re": 1.0}]}]})
        with pytest.raises(ScenarioError, match="malformed rational"):
            parse_scenario(bad)

    def test_sample_field_length_must_match_grid(self):
        bad = scenario(weight={"kind": "samples",
                               "values": [{"re": 1.0}] * 63})
        with pytest.raises(ScenarioError, match="64"):
            parse_scenario(bad)

    def test_grid_size_floor(self):
        with pytest.raises(ScenarioError, match="space.n"):
            parse_scenario(scenario(space={"kind": "circle", "n": 1}))

    def test_missing_checks(self):
        obj = scenario()
        del obj["checks"]
        with pytest.raises(ScenarioError, match="missing required"):
            parse_scenario(obj)


class TestRunning:
    def test_equation_record_shape(self):
        rep = run_scenario(parse_scenario(scenario()))
        rec = rep["checks"][0]
        assert rec["name"] == "equation"
        assert rec["verdict"] in {"holds", "fails"}
        assert set(rec["values"]) == {"lhs", "rhs", "gap"}

    def test_check_error_is_recorded_not_raised(self):
        # rotation-max on a dipping weight is a precondition error
        obj = scenario(weight={"kind": "tent_dip", "center": "0",
                               "half_width": "1/4", "depth": 0.5},
                       checks=[{"name": "rotation-max"}])
        rep = run_scenario(parse_scenario(obj))
        rec = rep["checks"][0]
        assert rec["verdict"] == "error"
        assert "constant" in rec["error"]

    @pytest.mark.parametrize("obj, message", [
        (scenario(checks=[{"name": "s-epsilon", "epsilon": -1}]),
         "epsilon must be positive, got -1.0"),
        ({"disk": {"weight": {"kind": "constant", "re": 1.0},
                   "symbol": {"kind": "scaled_identity", "re": 0.5}},
          "checks": [{"name": "disk-certified", "omega": {"re": 1.0}, "epsilon": 0.9,
                      "half_angle": 0.1, "samples": 64}]},
         "epsilon must lie in (0, min(1 - 0.5, 1.0/3)), got 0.9"),
    ], ids=["s-epsilon", "disk-certified"])
    def test_epsilon_error_names_the_key(self, obj, message):
        rec = run_scenario(parse_scenario(obj))["checks"][0]
        assert rec["verdict"] == "error" and rec["error"] == f"check.epsilon: {message}"

    def test_reports_are_byte_identical(self):
        sc = parse_scenario(scenario(checks=[
            {"name": "equation"}, {"name": "criterion-sweep"},
            {"name": "s-epsilon", "epsilon": 0.01}]))
        a = render_report_json(run_scenario(sc))
        b = render_report_json(run_scenario(sc))
        assert a == b

    def test_timings_are_off_by_default(self):
        rep = run_scenario(parse_scenario(scenario()))
        assert "runtime_ms" not in rep["checks"][0]
        rep2 = run_scenario(parse_scenario(scenario()), timings=True)
        assert "runtime_ms" in rep2["checks"][0]

    def test_csv_rendering_of_gap_sequences(self):
        # the equation record holds no gaps and adds no line
        obj = scenario(checks=[{"name": "equation"}, {"name": "refinement", "sizes": [8, 16]}])
        rep = run_scenario(parse_scenario(obj))
        csv = render_report_csv(rep)
        lines = csv.strip().splitlines()
        assert lines[0] == "check,n,gap"
        assert lines[1].startswith("refinement,8,")
        assert len(lines) == 3

    def test_fractions_render_as_exact_strings(self):
        obj = scenario(checks=[{"name": "s-epsilon", "epsilon": 0.01}])
        text = render_report_json(run_scenario(parse_scenario(obj)))
        assert '"fraction": "63/64"' in text


def pin(values):
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return {"length": len(values), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def samples(n, k):
    return {"kind": "samples", "values": [{"re": 1.0 + (i % k) / 8, "im": -0.5}
                                          for i in range(n)]}


def table(n, k):
    return {"kind": "table", "map": [(k * i) % n for i in range(n)]}


def upsampled(obj, k):
    """obj on a grid k times finer: each sample repeated k times, and each
    block of k points mapped to where the table maps the block's first."""
    if isinstance(obj, list):
        return [upsampled(v, k) for v in obj]
    if not isinstance(obj, dict):
        return obj
    if obj.get("kind") == "samples":
        return dict(obj, values=[v for v in obj["values"] for _ in range(k)])
    if obj.get("kind") == "table":
        return dict(obj, map=[k * m for m in obj["map"] for _ in range(k)])
    return {key: upsampled(v, k) for key, v in obj.items()}


class TestEcho:
    """Reports echo the scenario with each samples or table list pinned by
    its length and the sha256 of its canonical JSON."""

    def test_each_bulk_list_is_pinned_by_length_and_digest(self):
        n = 16
        obj = scenario(
            space={"kind": "circle", "n": n},
            weight={"kind": "product", "factors": [samples(n, 3), {"kind": "constant",
                                                                   "re": 1.0}]},
            symbol={"kind": "constant_on_arc", "value": "0", "center": "1/2",
                    "half_width": "1/8", "base": table(n, 3)},
            symbol2=table(n, 5),
            operator={"kind": "sum", "terms": [
                {"kind": "weighted_composition", "weight": samples(n, 5),
                 "symbol": table(n, 7)},
                {"kind": "finite_rank", "terms": [
                    {"g": samples(n, 7), "atoms": [{"pos": "1/4", "re": 1.0}]}]}]},
            checks=[{"name": "equation", "tol": samples(n, 2)},
                    {"name": "refinement", "sizes": [8, 16]}])
        echo = run_scenario(parse_scenario(json.loads(json.dumps(obj))))["scenario"]
        expected = json.loads(json.dumps(obj))
        factors = expected["weight"]["factors"]
        factors[0]["values"] = pin(factors[0]["values"])
        expected["symbol"]["base"]["map"] = pin(expected["symbol"]["base"]["map"])
        expected["symbol2"]["map"] = pin(expected["symbol2"]["map"])
        wc, rank = expected["operator"]["terms"]
        wc["weight"]["values"] = pin(wc["weight"]["values"])
        wc["symbol"]["map"] = pin(wc["symbol"]["map"])
        rank["terms"][0]["g"]["values"] = pin(rank["terms"][0]["g"]["values"])
        # check values are echoed as written, whatever they look like
        assert echo == expected
        assert echo["checks"] == obj["checks"]

    def test_report_size_does_not_grow_with_n(self):
        golden = Path(__file__).resolve().parent / "golden" / "scenarios"
        obj = json.loads((golden / "circle-tabulated-256.json").read_text(encoding="utf-8"))
        fine = upsampled(obj, 32)
        fine["space"]["n"] = 8192
        small, large = (run_scenario(parse_scenario(o)) for o in (obj, fine))
        assert [r["verdict"] for r in small["checks"]] == [r["verdict"] for r in large["checks"]]
        small, large = render_report_json(small), render_report_json(large)
        assert large.count('"length": 8192') == 3
        assert abs(len(large) - len(small)) < 2048

    def test_a_phase_grid_exits_one(self, tmp_path):
        obj = dict(DISK, checks=[{"name": "disk-lower-bound", "phase_grid": 256}])
        code, out, err = verify(write(tmp_path, obj))
        assert code == 1 and out == ""
        assert "scenario.checks[0]" in err and "phase_grid" in err

    def test_a_version_1_scenario_exits_one(self, tmp_path):
        code, out, err = verify(write(tmp_path, scenario(schema_version="1")))
        assert code == 1 and out == "" and "scenario.schema_version" in err

    def test_a_version_2_scenario_is_verified(self, tmp_path):
        code, out, err = verify(write(tmp_path, scenario(schema_version="2")))
        assert code == 0 and err == ""
        assert json.loads(out)["scenario"]["schema_version"] == "2"

    @pytest.mark.parametrize("values", [
        [], [{"re": 1.0}], [{"re": 0.5, "im": -0.25}, {"im": 1e-320, "re": -0.0}],
        [3, -0.0, 1e-320, 2.5, -7], [-0.0], [1e-320],
        [{"re": i / 7, "im": -i} for i in range(3 * measures.BLOCK + 5)],
        list(range(2 * measures.BLOCK)),
        list(range(measures.BLOCK + 1))])
    def test_digest_is_length_and_sha256_of_one_compact_dump(self, values):
        assert scenarios._digest(values) == pin(values)


DISK = {
    "disk": {"weight": {"kind": "constant", "re": 1.0},
             "symbol": {"kind": "scaled_identity", "re": 1.0}},
    "checks": [{"name": "disk-c-conditions"}],
}


#: A disk polynomial whose values overflow on the circle, and a symbol
#: inside the disk.
BIG_POLYNOMIAL = {"kind": "polynomial", "coeffs": [{"re": 1e308}] * 3}
HALF_IDENTITY = {"kind": "scaled_identity", "re": 0.5}


def disk_record(**params):
    name = params.pop("name", "disk-c-conditions")
    obj = dict(DISK, checks=[{"name": name, **params}])
    return run_scenario(parse_scenario(obj))["checks"][0]


class TestDiskParameters:
    def test_fractional_samples_rejected(self):
        rec = disk_record(samples=2.5)
        assert rec["verdict"] == "error" and rec["error"].startswith("check.samples:")

    def test_boolean_samples_rejected(self):
        rec = disk_record(samples=True)
        assert rec["verdict"] == "error" and rec["error"].startswith("check.samples:")

    def test_string_samples_recorded_not_raised(self, tmp_path, capsys):
        rec = disk_record(samples="abc")
        assert rec["verdict"] == "error" and rec["error"].startswith("check.samples:")
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(dict(DISK, checks=[{"name": "disk-c-conditions",
                                                     "samples": "abc"}])))
        assert main(["verify", "--scenario", str(p)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_negative_depth_rejected(self):
        rec = disk_record(name="disk-lower-bound", max_depth=-1)
        assert rec["verdict"] == "error" and rec["error"].startswith("check.max_depth:")

    def test_zero_samples_rejected(self):
        for name in ("disk-c-conditions", "disk-lower-bound"):
            rec = disk_record(name=name, samples=0)
            assert rec["verdict"] == "error" and rec["error"].startswith("check.samples:")
        rec = disk_record(name="disk-certified", omega={"re": 1.0}, epsilon=0.05,
                          half_angle=0.1, samples=0)
        assert rec["verdict"] == "error" and rec["error"].startswith("check.samples:")

    def test_sizes_are_capped_before_allocation(self):
        rec = disk_record(samples=2 ** 20 + 1)
        assert rec["error"].startswith("check.samples:")
        rec = disk_record(name="disk-lower-bound", max_depth=10 ** 12)
        assert rec["error"].startswith("check.max_depth:")
        rec = disk_record(name="disk-lower-bound", max_monomial=10 ** 12)
        assert rec["error"].startswith("check.max_monomial:")
        rec = disk_record(name="disk-lower-bound", max_monomial=-1)
        assert rec["error"].startswith("check.max_monomial:")

    def test_ladder_family_bound_is_the_family_size(self):
        # radii [0.5] give the pool {0, 0.5, -0.5}: C(3 + 47, 47) = 19600
        # Blaschke members and 447 - 47 = 400 monomials
        ladder = scenarios._ladder([0.5], max_depth=47, max_monomial=447)
        assert sum(1 for _ in ladder.test_functions()) == scenarios.MAX_LADDER_FAMILY

    @pytest.mark.parametrize("radii, max_depth, max_monomial, key", [
        ([0.5], 47, 448, "max_monomial"),
        ([0.5], 48, 447, "max_depth"),
        ([0.5], 10 ** 30, 0, "max_depth"),
        ([k / 40_001 for k in range(1, 40_001)], 10 ** 30, 0, "max_depth"),
    ], ids=["monomials", "depth", "huge-depth", "huge-depth-and-pool"])
    def test_ladder_family_bound_names_its_key(self, radii, max_depth, max_monomial, key):
        rec = disk_record(name="disk-lower-bound", radii=radii, max_depth=max_depth,
                          max_monomial=max_monomial)
        assert rec["verdict"] == "error" and rec["error"] == (
            f"check.{key}: ladder family exceeds {scenarios.MAX_LADDER_FAMILY} functions")

    @pytest.mark.parametrize("omega, half_angle, key", [
        ({"re": 2.0}, 0.1, "omega"), ({"re": 0.6, "im": 0.6}, 4.0, "omega"),
        ({"re": 1.0}, 4.0, "half_angle"), ({"re": 0.0, "im": -1.0}, 0.0, "half_angle")])
    def test_certified_arc_error_names_the_key_at_fault(self, omega, half_angle, key):
        rec = disk_record(name="disk-certified", omega=omega, epsilon=0.05,
                          half_angle=half_angle, samples=64)
        assert rec["verdict"] == "error" and rec["error"].startswith(f"check.{key}: {key} ")

    def test_benchmark_sized_ladder_still_runs(self):
        rec = disk_record(name="disk-lower-bound", max_depth=5, samples=16)
        assert rec["verdict"] == "computed"
        assert rec["values"]["family_size"] == 803


class TestRunnerGuards:
    """Each missing piece a check needs gives an error record naming it."""

    @staticmethod
    def error(obj):
        record = run_scenario(parse_scenario(obj))["checks"][0]
        assert record["verdict"] == "error"
        return record["error"]

    def test_equation_needs_a_weight(self):
        obj = scenario()
        del obj["weight"]
        assert self.error(obj) == "scenario.weight: required by this check"

    def test_circle_check_needs_a_single_grid_size(self):
        obj = scenario(space={"kind": "circle", "sizes": [8, 16]})
        assert self.error(obj) == "scenario.space.n: this check needs a single grid size"

    def test_convex_needs_t(self):
        obj = scenario(symbol2={"kind": "identity"}, checks=[{"name": "convex"}])
        assert self.error(obj) == "scenario.t: required by this check"

    def test_refinement_needs_sizes(self):
        obj = scenario(checks=[{"name": "refinement"}])
        assert self.error(obj) == "check.sizes: refinement needs sizes here or in space.sizes"

    @pytest.mark.parametrize("where", ["check", "space"])
    def test_refinement_sizes_below_8_are_named(self, where):
        # the preimage diagnostic runs at resolution 4/n, which needs n >= 8;
        # the library's rule names the size, not the diagnostic's delta
        check = {"name": "refinement", "sizes": [8, 4]}
        obj = scenario(checks=[check])
        if where == "space":
            del check["sizes"]
            obj["space"] = {"kind": "circle", "n": 64, "sizes": [8, 4]}
        key = "check.sizes" if where == "check" else "scenario.space.sizes"
        assert self.error(obj) == (f"{key}: sizes must be at least 8 for the "
                                   "preimage diagnostic at resolution 4/n, got 4")

    def test_ladder_radius_must_lie_inside_the_disk(self):
        obj = dict(DISK, checks=[{"name": "disk-lower-bound", "radii": [1.0]}])
        assert self.error(obj) == "check.radii: radii must lie in (0, 1), got 1.0"

    def test_refinement_of_a_sampled_operator_subsamples_it(self):
        # the README window with g given by its 64 samples: at sizes that
        # divide 64 the samples are g's values, so the gaps are the closed
        # form (1 - cos(2 pi/m))/2
        values = [{"re": 0.5 + 0.5 * math.cos(2.0 * math.pi * k / 64), "im": 0.0}
                  for k in range(64)]
        obj = scenario(operator={"kind": "finite_rank", "terms": [
            {"g": {"kind": "samples", "values": values}, "atoms": [{"pos": "0", "re": -1.0}]}]},
            checks=[{"name": "refinement", "sizes": [8, 16, 64]}])
        record = run_scenario(parse_scenario(obj))["checks"][0]
        assert record["verdict"] == "computed"
        gaps = record["values"]["gaps"]
        assert [gp["n"] for gp in gaps] == [8, 16, 64]
        for gp in gaps:
            want = (1.0 - math.cos(2.0 * math.pi / gp["n"])) / 2.0
            assert gp["gap"] == pytest.approx(want, abs=1e-15)


def overflowing(check):
    """The README window with symbol2 and t, and a T whose every atom weighs
    1e300 * 1e10 = inf."""
    return scenario(symbol2={"kind": "rotation", "shift": "1/64"}, t=0.5,
                    operator={"kind": "finite_rank", "terms": [
                        {"g": {"kind": "constant", "re": 1e300},
                         "atoms": [{"pos": "0", "re": 1e10}, {"pos": "1/2", "re": 1e10}]}]},
                    checks=[check])


def rank_one_at(coeff, pos="0"):
    """A finite-rank T with g = 1 and one atom of weight coeff at pos."""
    return {"kind": "finite_rank", "terms": [
        {"g": {"kind": "constant", "re": 1.0}, "atoms": [{"pos": pos, **coeff}]}]}


#: Every check of the circle that needs no further input.
CIRCLE_CHECKS = [{"name": "equation"}, {"name": "criterion-sweep"}, {"name": "rotation-max"},
                 {"name": "convex"}, {"name": "s-epsilon", "epsilon": 0.5},
                 {"name": "refinement", "sizes": [8, 16]}]


#: A weight whose |u| runs from 1/2 to 3/2: spread 1.
DIPPING = {"kind": "cosine", "amplitude": 0.5, "offset": 1.0}


class TestModulusPreconditions:
    """The text of each |u| precondition, as its record reports it."""

    @pytest.mark.parametrize("weight, check, error", [
        (DIPPING, {"name": "rotation-max"},
         "|u| must be constant within 1e-09 for the rotation maximum (spread 1.000e+00)"),
        (DIPPING, {"name": "counterexample-preimage", "target": "0", "center": "1/2",
                   "half_width": "1/8"},
         "|u| must be constant within 1e-09 here (spread 1.000e+00)"),
        ({"kind": "constant", "re": 0.0}, {"name": "counterexample-preimage", "target": "0",
                                           "center": "1/2", "half_width": "1/8"},
         "the weight must be nonzero"),
        (DIPPING, {"name": "refinement", "sizes": [16, 32]},
         "|u| must be constant for the refinement harness (spread 1.000e+00 at n=16)"),
        ({"kind": "constant", "re": 1.0}, {"name": "counterexample-modulus"},
         "|u| is constant within 1e-09 (spread 0.000e+00); this constructor needs a "
         "modulus dip"),
    ], ids=["rotation-max", "preimage", "preimage-zero-weight", "refinement", "modulus-dip"])
    def test_precondition_text(self, weight, check, error):
        rec = run_scenario(parse_scenario(scenario(weight=weight, checks=[check])))["checks"][0]
        assert rec["verdict"] == "error" and rec["error"] == error

    def test_an_infinite_operator_norm_comes_before_the_modulus(self):
        # every check that reads a profile reports its ||T||, whatever |u| is
        obj = scenario(weight=DIPPING,
                       operator={"kind": "sum", "terms": [rank_one_at({"re": 1e308})] * 2},
                       checks=[{"name": "equation"}, {"name": "rotation-max"},
                               {"name": "refinement", "sizes": [16, 32]}])
        records = run_scenario(parse_scenario(obj))["checks"]
        assert [r.get("error") for r in records] == ["||T|| = inf is not finite"] * 3


class TestCli:
    def run_cli(self, tmp_path, args, scenario_obj=None):
        argv = list(args)
        if scenario_obj is not None:
            p = tmp_path / "scenario.json"
            p.write_text(json.dumps(scenario_obj))
            argv += ["--scenario", str(p)]
        return main(argv)

    def test_verify_exit_zero(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, ["verify"], scenario()) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["checks"][0]["name"] == "equation"

    def test_bad_scenario_exit_one(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, ["verify"], scenario(bogus=1)) == 1
        assert "unknown field" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["verify", "--scenario", "/no/such/file.json"]) == 1

    def test_subcommand_restricts_checks(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, ["sweep"], scenario()) == 1
        assert "not valid here" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,allowed", [
        ("sweep", "['refinement']"),
        ("disk", "['disk-automorphism', 'disk-c-conditions', 'disk-certified', "
                 "'disk-lower-bound']")])
    def test_a_subcommand_runs_only_its_group(self, subcommand, allowed):
        sc = parse_scenario(scenario())
        with pytest.raises(ScenarioError) as exc:
            run_scenario(sc, subcommand=subcommand)
        assert str(exc.value) == ("scenario.checks: check 'equation' is not valid "
                                  f"here; allowed: {allowed}")
        assert run_scenario(sc, subcommand="verify") == run_scenario(sc)

    @pytest.mark.parametrize("subcommand", ["sweeps", "Verify", "selftest"])
    def test_an_unknown_subcommand_is_a_bad_argument(self, subcommand):
        with pytest.raises(ValueError, match=f"unknown subcommand '{subcommand}'"):
            run_scenario(parse_scenario(scenario()), subcommand=subcommand)

    def test_out_file_and_reproducibility(self, tmp_path):
        obj = scenario(checks=[{"name": "equation"}, {"name": "s-epsilon", "epsilon": 0.01}])
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(obj))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--scenario", str(p), "--out", str(a)]) == 0
        assert main(["verify", "--scenario", str(p), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_selftest_subcommand(self, tmp_path):
        out = tmp_path / "st.json"
        assert main(["selftest", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    @pytest.mark.parametrize("command", ["verify", "selftest"])
    @pytest.mark.parametrize("where", ["missing/r.json", "."])
    def test_unwritable_out_exits_one_naming_the_path(self, tmp_path, capsys, command, where):
        out = tmp_path / where
        args = [command, "--out", str(out)]
        if command == "verify":
            args += ["--scenario", str(write(tmp_path, scenario()))]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "cannot be written" in lines[0] and str(out) in lines[0]

    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
    def test_selftest_seed_is_a_nonnegative_integer(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", seed])
        err = capsys.readouterr().err
        assert exc.value.code == 1 and "argument --seed: expected a non-negative integer" in err

    def test_module_entrypoint(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(scenario()))
        proc = subprocess.run(
            [sys.executable, "-m", "daugavetlab", "verify", "--scenario", str(p)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema_version"] == "2"

    def test_zero_disk_symbol_leaves_stderr_empty(self, tmp_path):
        # a symbol with zeros on the boundary samples once divided 0 by 0
        # while clipping to the closed disk and printed a RuntimeWarning
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps({
            "disk": {"weight": {"kind": "constant", "re": 1.0},
                     "symbol": {"kind": "constant", "re": 0.0},
                     "operator": {"kind": "point_eval", "tau": {"re": 0.3},
                                  "g": {"kind": "constant", "re": 1.0}, "c": {"re": 1.0}}},
            "checks": [{"name": "disk-lower-bound", "max_depth": 2, "samples": 64}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "daugavetlab", "verify", "--scenario", str(p)],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["checks"][0]["verdict"] == "computed"

    @pytest.mark.parametrize("obj, message", [
        # the gap ||T|| = 1 is below one ulp of sup|u| = 1e16
        (scenario(weight={"kind": "tent_dip", "center": "0", "half_width": "1/4",
                          "depth": 5e15, "top": 1e16},
                  checks=[{"name": "counterexample-modulus"}]),
         "constructed counterexample has no positive gap (0.0)"),
        # every atom weighs 1e300 * 1e10 = inf, so no active set is ever nonempty
        (scenario(operator={"kind": "finite_rank", "terms": [
            {"g": {"kind": "constant", "re": 1e300},
             "atoms": [{"pos": "0", "re": 1e10}, {"pos": "1/2", "re": 1e10}]}]},
                  checks=[{"name": "criterion-sweep"}]),
         "||T|| = inf is not finite"),
        *[(overflowing(check), "||T|| = inf is not finite") for check in (
            {"name": "equation"}, {"name": "rotation-max"}, {"name": "convex"},
            {"name": "refinement", "sizes": [8, 16]}, {"name": "s-epsilon", "epsilon": 0.5})],
    ], ids=["gap-below-rounding", "infinite-operator-norm", "infinite-norm-equation",
            "infinite-norm-rotation-max", "infinite-norm-convex", "infinite-norm-refinement",
            "infinite-norm-s-epsilon"])
    def test_valid_input_beyond_float_reach_is_an_error_record(self, tmp_path, obj, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = verify(write(tmp_path, obj))
        assert code == 0 and err == "" and not caught
        rec = strict_json(out)["checks"][0]
        assert rec["verdict"] == "error" and rec["error"].startswith(message)

    @pytest.mark.parametrize("obj, message", [
        (scenario(weight={"kind": "tent", "center": "0", "half_width": "0"}),
         "scenario.weight.half_width: half_width must lie in (0, 1/2], got 0"),
        ({"disk": {"weight": {"kind": "constant", "re": 1.0},
                   "symbol": {"kind": "scaled_identity", "re": 0.5},
                   "operator": {"kind": "point_eval", "tau": {"re": 0.3}, "c": {"re": 1.0},
                                "g": {"kind": "half_plus", "omega": {"re": 2.0}}}},
          "checks": [{"name": "disk-c-conditions"}]},
         "scenario.disk.operator.g.omega: omega must be on the circle"),
    ], ids=["tent-half-width", "half-plus-omega"])
    def test_constructor_error_exits_one_naming_the_key(self, tmp_path, obj, message):
        code, out, err = verify(write(tmp_path, obj))
        assert code == 1 and out == "" and err.startswith(f"error: {message}")

    def test_gap_above_rounding_is_still_certified(self, tmp_path):
        obj = scenario(weight={"kind": "tent_dip", "center": "0", "half_width": "1/4",
                               "depth": 5e14, "top": 1e15},
                       checks=[{"name": "counterexample-modulus"}])
        code, out, _ = verify(write(tmp_path, obj))
        rec = strict_json(out)["checks"][0]
        assert code == 0 and rec["verdict"] == "gap-certified"
        assert rec["values"]["certified_gap"] == 1.0


def verify(path, *flags):
    """Run `daugavetlab verify` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--scenario", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict token {token}")
    return json.loads(text, parse_constant=reject)


def write(tmp_path, obj=None, text=None):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(obj) if text is None else text)
    return p


class TestSchemaRegressions:
    """Values the one schema now rejects, each accepted or fatal before it."""

    @pytest.mark.parametrize("tol", ["abc", True, -1])
    def test_tol_is_a_finite_nonnegative_real(self, tmp_path, tol):
        obj = scenario(disk=DISK["disk"], checks=[
            {"name": name, "tol": tol}
            for name in ("equation", "criterion-sweep", "disk-c-conditions")])
        code, out, err = verify(write(tmp_path, obj))
        assert code == 0 and "Traceback" not in err
        for rec in strict_json(out)["checks"]:
            assert rec["verdict"] == "error" and rec["error"].startswith("check.tol:")

    def test_integer_tol_echoes_as_written(self):
        rec = run_scenario(parse_scenario(scenario(
            checks=[{"name": "equation", "tol": 0}])))["checks"][0]
        assert rec["params"]["tol"] == 0 and type(rec["params"]["tol"]) is int

    def test_boolean_lambda_grid_rejected(self):
        obj = scenario(checks=[{"name": "rotation-max", "lambda_grid": True}])
        rec = run_scenario(parse_scenario(obj))["checks"][0]
        assert rec["verdict"] == "error" and rec["error"].startswith("check.lambda_grid:")

    @pytest.mark.parametrize("sizes", [[8, 2.5], "ab", [], [8, 1]])
    def test_refinement_sizes_are_integers_of_at_least_two(self, sizes):
        obj = scenario(checks=[{"name": "refinement", "sizes": sizes}])
        rec = run_scenario(parse_scenario(obj))["checks"][0]
        assert rec["verdict"] == "error" and rec["error"].startswith("check.sizes")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_literals_rejected_at_load(self, tmp_path, token):
        text = json.dumps(scenario()).replace('"re": 1.0', f'"re": {token}', 1)
        code, out, err = verify(write(tmp_path, text=text))
        assert code == 1 and out == "" and "non-finite" in err

    def test_non_finite_tol_literal_rejected_at_load(self, tmp_path):
        text = json.dumps(scenario(checks=[{"name": "equation", "tol": 1}]))
        text = text.replace('"tol": 1', '"tol": 1e400')
        code, out, err = verify(write(tmp_path, text=text))
        assert code == 1 and out == "" and "non-finite" in err

    def test_non_finite_tol_value_is_a_check_error(self):
        obj = scenario(checks=[{"name": "equation", "tol": float("inf")}])
        rec = run_scenario(parse_scenario(obj))["checks"][0]
        assert rec["verdict"] == "error" and rec["error"].startswith("check.tol:")

    def test_non_finite_weight_value_rejected(self):
        with pytest.raises(ScenarioError, match=r"scenario\.weight\.re"):
            parse_scenario(scenario(weight={"kind": "constant", "re": float("inf")}))

    @pytest.mark.parametrize("symbol, path", [
        ({"kind": "rotation", "shift": 0.125}, "scenario.symbol.shift"),
        ({"kind": "constant_on_arc", "value": "0", "center": "0", "half_width": 0.25},
         "scenario.symbol.half_width")])
    def test_real_coordinate_exits_one_naming_its_path(self, tmp_path, symbol, path):
        code, out, err = verify(write(tmp_path, scenario(symbol=symbol)))
        assert code == 1 and out == ""
        assert f"{path}: coordinates and widths are rational strings" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_cli_tol_is_a_finite_nonnegative_real(self, tmp_path, tol):
        code, out, err = verify(write(tmp_path, scenario()), "--tol", tol)
        assert code == 1 and out == "" and "tol" in err

    def test_undecodable_file_exit_one(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_bytes(b"\xff\xfe{}")
        code, out, err = verify(p)
        assert code == 1 and out == "" and "invalid JSON" in err

    def test_deeply_nested_file_exit_one(self, tmp_path):
        code, out, err = verify(write(tmp_path, text="[" * 200_000 + "]" * 200_000))
        assert code == 1 and out == "" and "invalid JSON" in err

    def test_deeply_nested_components_exit_one(self, tmp_path):
        field = {"kind": "constant", "re": 1.0}
        for _ in range(300):
            field = {"kind": "product", "factors": [field, {"kind": "constant", "re": 1.0}]}
        code, out, err = verify(write(tmp_path, scenario(weight=field)))
        assert code == 1 and out == "" and "nested past 32 levels" in err

    # each component nests inside the one before: (key, field, innermost, wrap)
    NESTED = {
        "product": ("weight", ".factors[0]", {"kind": "constant", "re": 1.0},
                    lambda c: {"kind": "product",
                               "factors": [c, {"kind": "constant", "re": 1.0}]}),
        "scaled": ("operator", ".inner", {"kind": "zero"},
                   lambda c: {"kind": "scaled", "coeff": {"re": 0.5}, "inner": c}),
        "constant_on_arc": ("symbol", ".base", {"kind": "doubling"},
                            lambda c: {"kind": "constant_on_arc", "value": "0",
                                       "center": "1/2", "half_width": "1/8", "base": c}),
    }

    @pytest.mark.parametrize("kind", sorted(NESTED))
    @pytest.mark.parametrize("levels", [32, 33])
    def test_components_nest_at_most_32_levels(self, tmp_path, kind, levels):
        key, step, component, wrap = self.NESTED[kind]
        for _ in range(levels - 1):
            component = wrap(component)
        code, out, err = verify(write(tmp_path, scenario(**{key: component})))
        if levels == 32:
            assert code == 0 and err == "", err
            assert strict_json(out)["checks"][0]["verdict"] in ("holds", "fails")
        else:
            assert code == 1 and out == ""
            path = f"scenario.{key}" + step * 32
            assert err.startswith(f"error: {path}: nested past 32 levels\n")

    @pytest.mark.parametrize("depth", [500, 33])
    def test_deeply_nested_check_value_exit_one(self, tmp_path, depth):
        tol = 1.0
        for _ in range(depth):
            tol = [tol]
        code, out, err = verify(write(tmp_path, scenario(checks=[{"name": "equation",
                                                                  "tol": tol}])))
        assert code == 1 and out == ""
        assert err.startswith("error: scenario.checks[0].tol: nested past 32 levels")

    def test_check_value_at_the_nesting_bound_is_a_check_error(self, tmp_path):
        tol = 1.0
        for _ in range(32):
            tol = {"a": tol}
        code, out, err = verify(write(tmp_path, scenario(checks=[{"name": "equation",
                                                                  "tol": tol}])))
        assert code == 0, err
        assert strict_json(out)["checks"][0]["error"].startswith("check.tol:")

    def test_non_finite_result_from_finite_input_is_a_check_error(self, tmp_path):
        big = {"kind": "constant", "re": 1e308}
        obj = {"disk": {"weight": big, "symbol": {"kind": "scaled_identity", "re": 1.0},
                        "operator": {"kind": "point_eval", "tau": {"re": 0.0}, "g": big,
                                     "c": {"re": 1.0}}},
               "checks": [{"name": "disk-lower-bound", "max_depth": 0,
                           "max_monomial": 1, "samples": 4}]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = verify(write(tmp_path, obj))
        assert code == 0 and err == "" and caught == []
        rec = strict_json(out)["checks"][0]
        assert rec["verdict"] == "error"
        assert rec["error"] == "values.lower_bound = inf is not finite"

    @pytest.mark.parametrize("overrides,error", [
        ({"weight": {"kind": "tent", "center": "1/2", "half_width": "1/8",
                     "peak": 1.7e308, "base": -1.7e308}}, "sup|u| = nan is not finite"),
        ({"weight": {"kind": "cosine", "amplitude": 1.7e308, "offset": 1.7e308}},
         "sup|u| = inf is not finite"),
        ({"weight": {"kind": "constant", "re": 1e308},
          "symbol": {"kind": "constant_on_arc", "value": "0", "center": "1/2",
                     "half_width": "1/8"},
          "checks": [{"name": "counterexample-preimage", "target": "0", "center": "1/2",
                      "half_width": "1/16"}]},
         "values.certified_gap = inf is not finite")],
        ids=["tent", "cosine", "preimage"])
    def test_non_finite_check_value_is_a_check_error(self, tmp_path, overrides, error):
        # the whole report once failed to render: exit 1, naming no path
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = verify(write(tmp_path, scenario(**overrides)))
        assert code == 0 and err == "" and caught == []
        rec = strict_json(out)["checks"][0]
        assert rec["verdict"] == "error" and rec["error"] == error

    @pytest.mark.parametrize("weight, text", [
        ({"kind": "cosine", "amplitude": 1.5e308, "offset": 1.5e308}, "inf"),
        ({"kind": "tent", "center": "1/2", "half_width": "1/8", "peak": 1.7e308,
          "base": -1.7e308}, "nan")], ids=["cosine", "tent"])
    def test_a_weight_modulus_past_a_float_reads_the_same_in_every_circle_check(
            self, tmp_path, weight, text):
        # the profile refuses sup|u| as it refuses ||T||; convex has no weight
        checks = CIRCLE_CHECKS + [{"name": "counterexample-modulus"}]
        obj = scenario(weight=weight, symbol={"kind": "identity"},
                       symbol2={"kind": "identity"}, t=0.5, checks=checks,
                       operator=rank_one_at({"re": 1.0}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = verify(write(tmp_path, obj))
        assert code == 0 and err == "" and caught == []
        records = {c["name"]: r for c, r in zip(checks, strict_json(out)["checks"])}
        assert records.pop("convex")["verdict"] == "holds"
        assert {name: r.get("error") for name, r in records.items()} == dict.fromkeys(
            records, f"sup|u| = {text} is not finite")

    @pytest.mark.parametrize("overrides, verdict, error", [
        # u(s) + m_s and sup|u| + |m_s| overflow, and their difference is nan
        ({"weight": {"kind": "constant", "re": 1e308}, "symbol": {"kind": "identity"},
          "operator": {"kind": "finite_rank", "terms": [
              {"g": {"kind": "tent", "center": "0", "half_width": "1/64"},
               "atoms": [{"pos": "0", "re": 1e308}]}]},
          "checks": [{"name": "criterion-sweep"}]},
         "error", "values.levels[0].sup_value = nan is not finite"),
        # the branch for symbols that differ overflows, where they never do
        ({"symbol": {"kind": "identity"}, "symbol2": {"kind": "identity"}, "t": 0.5,
          "operator": rank_one_at({"re": 1e308}), "checks": [{"name": "convex"}]},
         "holds", None)], ids=["criterion-sweep", "convex"])
    def test_a_huge_mass_in_a_deficiency_warns_of_nothing(self, tmp_path, overrides,
                                                           verdict, error):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = verify(write(tmp_path, scenario(**overrides)))
        assert code == 0 and err == "" and caught == []
        rec = strict_json(out)["checks"][0]
        assert (rec["verdict"], rec.get("error")) == (verdict, error)

    @pytest.mark.parametrize("flags", [["--tol", "abc"], ["--format", "xml"], ["--bogus"]])
    def test_rejected_flag_exits_one(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scenario", str(write(tmp_path, scenario())), *flags])
        assert exc.value.code == 1 and "error:" in capsys.readouterr().err

    def test_missing_scenario_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 1 and "--scenario" in capsys.readouterr().err

    def test_overflow_in_a_check_is_a_check_error(self):
        big = {"kind": "constant", "re": 1.5e308}
        obj = scenario(weight=big, operator={"kind": "finite_rank", "terms": [
            {"g": big, "atoms": [{"pos": "0", "re": 1.0}]}]})
        rec = run_scenario(parse_scenario(obj))["checks"][0]
        assert rec["verdict"] == "error" and "overflow" in rec["error"]

    def test_an_overflowing_atom_reads_the_same_in_every_circle_check(self):
        # convex takes ||T|| from operator_norm, whose witness |mu_s| at the
        # largest row overflows as the other checks' reference pass does
        obj = scenario(symbol2={"kind": "identity"}, t=0.5, checks=CIRCLE_CHECKS,
                       operator=rank_one_at({"re": 1.5e308, "im": 1.5e308}))
        records = run_scenario(parse_scenario(obj))["checks"]
        assert [r.get("error") for r in records] == ["absolute value too large"] * 6

    @pytest.mark.parametrize("overrides,sha256", [
        ({"operator": rank_one_at({"re": 1.5e308, "im": 1.5e308}),
          "checks": [{"name": "equation"}, {"name": "s-epsilon", "epsilon": 0.5}]},
         "b5d5876941ede9132a7498d2e985eb29f5cd5ed811ed4dac902f3a3229ce0d68"),
        ({"operator": {"kind": "sum", "terms": [rank_one_at({"re": 1e308})] * 2}},
         "9cd8363410f9d9ebabc7c4db5cbac3f4e5264f31ed540b96a1c49d2b6b5f4846"),
        # two atoms apart, each of 1e308: the sum of a row overflows
        ({"symbol2": {"kind": "identity"}, "t": 0.5, "checks": CIRCLE_CHECKS,
          "operator": {"kind": "sum", "terms": [rank_one_at({"re": 1e308}),
                                                rank_one_at({"re": 1e308}, pos="1/2")]}},
         "96074673a9b245a6742e1cdfc76e4fc0e63db7bdcc91ba114597c4bf9ab0f2a6"),
        ({"weight": {"kind": "constant", "re": 1.5e308, "im": 1.5e308},
          "checks": [{"name": "equation"}, {"name": "rotation-max"}]},
         "6dd6744c6115b3b32c51bd04316e59f92aef3a0d90518cf87a93359f2a407cc8")],
        ids=["atom-modulus", "sum-of-weights", "row-sum", "weight-modulus"])
    def test_overflow_inside_numpy_warns_of_nothing(self, tmp_path, overrides, sha256):
        # every check records an error, in the bytes frozen before numpy's
        # warnings were silenced; "always", since Python otherwise shows a
        # warning once per line and one an earlier test raised would hide
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = verify(write(tmp_path, scenario(**overrides)))
        assert code == 0 and err == "" and caught == []
        assert all(r["verdict"] == "error" for r in json.loads(out)["checks"])
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("weight, symbol, check, error", [
        # every ladder score is nan, so no member beats the walk's start
        (BIG_POLYNOMIAL, HALF_IDENTITY,
         {"name": "disk-lower-bound", "max_depth": 1, "samples": 64},
         "values.lower_bound = nan is not finite"),
        (BIG_POLYNOMIAL, HALF_IDENTITY, {"name": "disk-c-conditions", "samples": 64},
         "values.detail.weight_spread = inf is not finite"),
        (BIG_POLYNOMIAL, HALF_IDENTITY,
         {"name": "disk-certified", "omega": {"re": 1.0}, "epsilon": 0.05,
          "half_angle": 0.1, "samples": 64},
         "values.bound = inf is not finite"),
        ({"kind": "constant", "re": 1.0}, BIG_POLYNOMIAL,
         {"name": "disk-lower-bound", "max_depth": 1, "samples": 64},
         "symbol leaves the closed disk by inf; test functions cannot be composed with it"),
        # finite symbol values whose differences overflow
        ({"kind": "constant", "re": 1.0},
         {"kind": "polynomial", "coeffs": [{"re": 1e308}, {"re": 1e308, "im": 1e308}]},
         {"name": "disk-c-conditions", "samples": 64},
         "values.detail.inner_defect = inf is not finite"),
    ], ids=["lower-bound", "c-conditions", "certified", "symbol-lower-bound",
            "symbol-c-conditions"])
    def test_an_overflowing_disk_polynomial_is_an_error_record(self, tmp_path, weight,
                                                               symbol, check, error):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = verify(write(tmp_path, {"disk": {"weight": weight,
                                                              "symbol": symbol},
                                                     "checks": [check]}))
        assert code == 0 and err == "" and caught == []
        rec = strict_json(out)["checks"][0]
        assert rec["verdict"] == "error" and rec["error"] == error

    @pytest.mark.parametrize("value", [10 ** 12, 2 ** 20 + 1])
    def test_point_counts_are_bounded(self, value):
        with pytest.raises(ScenarioError, match=r"scenario\.space\.n"):
            parse_scenario(scenario(space={"kind": "circle", "n": value}))
        with pytest.raises(ScenarioError, match=r"scenario\.space\.sizes\[1\]"):
            parse_scenario(scenario(space={"kind": "circle", "n": 64, "sizes": [8, value]}))
        for params, key in (({"name": "refinement", "sizes": [8, value]}, "check.sizes[1]:"),
                            ({"name": "rotation-max", "lambda_grid": value},
                             "check.lambda_grid:")):
            rec = run_scenario(parse_scenario(scenario(checks=[params])))["checks"][0]
            assert rec["verdict"] == "error" and rec["error"].startswith(key)

    @pytest.mark.parametrize("value", [10 ** 12, 1025])
    def test_max_monomial_is_bounded(self, value):
        rec = disk_record(name="disk-lower-bound", max_monomial=value)
        assert rec["verdict"] == "error" and rec["error"].startswith("check.max_monomial:")

    def test_max_monomial_bound_itself_runs(self):
        rec = disk_record(name="disk-lower-bound", max_depth=0, max_monomial=1024, samples=1)
        assert rec["verdict"] == "computed" and rec["values"]["family_size"] == 1025

    @pytest.mark.parametrize("where", ["weight", "checks"])
    def test_unhashable_kind_or_name_rejected(self, where):
        obj = (scenario(weight={"kind": ["constant"]}) if where == "weight"
               else scenario(checks=[{"name": ["equation"]}]))
        with pytest.raises(ScenarioError, match="unknown"):
            parse_scenario(obj)

    @pytest.mark.parametrize("bad", [{"re": float("inf")}, {"re": 1.0, "im": float("nan")},
                                     {"re": True}, {"re": 1.0, "x": 0.0}, [1.0]])
    def test_sample_entries_are_finite_complex_objects(self, bad):
        values = [{"re": 1.0}, {"re": 1, "im": 2}] + [{"re": 0.5, "im": -0.5}] * 62
        sc = parse_scenario(scenario(weight={"kind": "samples", "values": values}))
        assert sc.weight.samples[:3] == (1 + 0j, 1 + 2j, 0.5 - 0.5j)
        values[5] = bad
        with pytest.raises(ScenarioError, match=r"scenario\.weight\.values\[5\]"):
            parse_scenario(scenario(weight={"kind": "samples", "values": values}))

    @pytest.mark.parametrize("key,value,path", [
        ("operator", {"kind": "finite_rank", "terms": []}, r"scenario\.operator\.terms"),
        ("operator", {"kind": "sum", "terms": []}, r"scenario\.operator\.terms"),
        ("weight", {"kind": "product", "factors": [{"kind": "constant", "re": 1.0}]},
         r"scenario\.weight\.factors"),
        ("checks", [], r"scenario\.checks")])
    def test_list_lengths_are_checked(self, key, value, path):
        with pytest.raises(ScenarioError, match=path + ": expected a list"):
            parse_scenario(scenario(**{key: value}))

    def test_constructor_error_names_the_component(self):
        bad = scenario(weight={"kind": "tent", "center": "0", "half_width": "0"})
        with pytest.raises(ScenarioError, match=r"scenario\.weight\.half_width: half_width"):
            parse_scenario(bad)


class TestScaleInvariance:
    """Valid inputs far from unit magnitude give a report, not exit 2."""

    def test_finite_rank_scenario_scaled_by_a_million_verifies(self, tmp_path):
        rng = np.random.default_rng(5)
        n, big = 32, 1e6

        def cx(z):
            return {"re": float(z.real), "im": float(z.imag)}

        terms = [{"g": {"kind": "samples", "values": [
                     cx(big * complex(*rng.standard_normal(2))) for _ in range(n)]},
                  "atoms": [{"pos": f"{int(k)}/{n}", **cx(complex(*rng.standard_normal(2)))}
                            for k in rng.choice(n, 3, replace=False)]}
                 for _ in range(3)]
        obj = scenario(space={"kind": "circle", "n": n},
                       weight={"kind": "samples", "values": [
                           cx(big * np.exp(2j * np.pi * rng.random())) for _ in range(n)]},
                       symbol2={"kind": "identity"}, t=0.5,
                       operator={"kind": "finite_rank", "terms": terms},
                       checks=[{"name": "equation"}, {"name": "criterion-sweep"},
                               {"name": "rotation-max"}, {"name": "convex"}])
        code, out, err = verify(write(tmp_path, obj))
        assert code == 0, err
        records = strict_json(out)["checks"]
        assert all(r["verdict"] in ("holds", "fails") for r in records)
        assert records[1]["values"]["agrees_with_equation"] is True

    def test_disk_weight_past_two_to_the_twenty_gets_a_lower_bound(self):
        obj = {"disk": {"weight": {"kind": "constant", "re": 1048577},
                        "symbol": {"kind": "polynomial", "coeffs": [
                            {"re": 0.0}, {"re": 0.0}, {"re": 1.0}]}},
               "checks": [{"name": "disk-lower-bound"}]}
        record = run_scenario(parse_scenario(obj))["checks"][0]
        assert record["verdict"] == "computed"
        assert record["values"]["lower_bound"] == pytest.approx(1048577, rel=1e-12)

    def test_deep_ladder_rounding_at_unit_magnitude_is_no_violation(self):
        # zeros at radius 0.999 magnify the rounding of |phi(z)| = 1: with
        # numpy 2.4 the best ladder value lies 1.4e-12 above the triangle
        # bound 1, which a plain REL_TOL slack would reject
        obj = {"disk": {"weight": {"kind": "constant", "re": 1.0},
                        "symbol": {"kind": "blaschke", "zeros": [{"re": -0.2, "im": 0.1}],
                                   "constant": {"re": math.cos(0.3), "im": math.sin(0.3)}}},
               "checks": [{"name": "disk-lower-bound", "max_depth": 5, "max_monomial": 0}]}
        record = run_scenario(parse_scenario(obj))["checks"][0]
        assert record["verdict"] == "computed"
        if record["values"]["lower_bound"] <= 1.0:
            pytest.skip("this numpy rounds the best ladder value to at most 1")

    def test_huge_cosine_perturbation_passes_rotation_max(self, tmp_path):
        obj = scenario(operator={"kind": "finite_rank", "terms": [
            {"g": {"kind": "cosine", "amplitude": 3.4e15, "frequency": 1},
             "atoms": [{"pos": "0", "re": 1.0}, {"pos": "1/4", "re": 0.5, "im": 0.5}]}]},
            checks=[{"name": "rotation-max", "tol": 4.0}])  # a few units in the last place
        code, out, err = verify(write(tmp_path, obj))
        assert code == 0, err
        assert strict_json(out)["checks"][0]["verdict"] == "holds"


def test_readme_lists_every_check_parameter():
    """The README check table has one row per declared parameter and no
    other row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line.split(" | ")[:3] for line in readme.splitlines() if line.startswith("| `")]
    declared = [[f"| `{name}`", check.group, f"`{key}`"]
                for name, check in CHECKS.items() for key in check.params]
    assert sorted(rows) == sorted(declared)


#: Cells of the README check table that state a range the library enforces
#: when the check runs, on top of the schema's reader.
LIBRARY_RANGES = {
    ("refinement", "sizes"): "non-empty list of integers in `[8, 2^20]`",
}


def _int_range(reader):
    """The README's words for an Int reader's range, or for a list of them."""
    if isinstance(reader, scenarios.ListOf):
        assert reader.least == 1 and reader.most == math.inf
        return "non-empty list of " + _int_range(reader.item).replace("integer", "integers", 1)
    if reader.hi == math.inf:
        return f"integer >= {reader.lo}"
    hi = "2^20" if reader.hi == 2 ** 20 else reader.hi
    return f"integer in `[{reader.lo}, {hi}]`"


def _default_cell(default):
    if default is scenarios.RUN_TOL:
        return "`--tol`"
    if default is ...:
        return "required"
    if default is None:
        return "`space.sizes`"
    if isinstance(default, (list, tuple)):
        return f"`{json.dumps(list(default))}`"
    return str(default)


def test_readme_check_table_defaults_and_integer_ranges_follow_the_schema():
    """The README check table's default column is each parameter's declared
    default, and its range column is each integer reader's range, except
    where LIBRARY_RANGES names a range the library enforces."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cells = {(row[0][3:-1], row[2][1:-1]): row[3:5] for row in
             (line.split(" | ") for line in readme.splitlines() if line.startswith("| `"))}
    for name, check in CHECKS.items():
        for key, (reader, default) in check.params.items():
            rng, dflt = cells[name, key]
            assert dflt.removesuffix(" |") == _default_cell(default), (name, key)
            item = reader.item if isinstance(reader, scenarios.ListOf) else reader
            if (name, key) in LIBRARY_RANGES:
                assert rng == LIBRARY_RANGES[name, key]
            elif isinstance(item, scenarios.Int):
                assert rng == _int_range(reader), (name, key)


# --- fuzzing the command line ----------------------------------------------

FUZZ_BASES = (
    scenario(checks=[{"name": "equation", "tol": 1e-9},
                     {"name": "rotation-max", "lambda_grid": 16},
                     {"name": "refinement", "sizes": [8, 16]}]),
    dict(DISK, checks=[{"name": "disk-c-conditions", "samples": 64, "tol": 1e-9},
                       {"name": "disk-lower-bound", "max_depth": 1, "samples": 64}]),
)
#: Integers are small or out of range, never a large in-range size, so every
#: example runs in milliseconds.
FUZZ_INTS = st.integers(max_value=64) | st.integers(min_value=2 ** 20 + 1)
FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | FUZZ_INTS | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
FUZZ_KEYS = st.text(max_size=6) | st.sampled_from(
    ["kind", "re", "im", "n", "sizes", "tol", "samples", "lambda_grid", "max_monomial",
     "seed", "t"])


def _nodes(obj, path=()):
    yield path, obj
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated_scenarios(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    value = draw(FUZZ_JSON)
    if draw(st.booleans()):
        leaves = [p for p, node in _nodes(obj) if p and not isinstance(node, (dict, list))]
        path = draw(st.sampled_from(leaves))
        _at(obj, path[:-1])[path[-1]] = value
    else:
        objects = [p for p, node in _nodes(obj) if isinstance(node, dict)]
        _at(obj, draw(st.sampled_from(objects)))[draw(FUZZ_KEYS)] = value
    return obj


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=mutated_scenarios())
def test_cli_survives_arbitrary_json(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(obj))  # allow_nan: NaN and Infinity tokens can occur
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, _ = verify(path)
    assert code in (0, 1)
    if code == 0:
        strict_json(out)
