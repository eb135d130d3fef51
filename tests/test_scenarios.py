"""Scenario parsing, report rendering and the command line."""

import json
import subprocess
import sys

import pytest

from daugavetlab.cli import main
from daugavetlab.scenarios import (
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

    def test_reports_are_byte_identical(self):
        sc = parse_scenario(scenario(checks=[
            {"name": "equation"}, {"name": "criterion-sweep"},
            {"name": "s-epsilon", "epsilon": 0.01}]))
        a = render_report_json(run_scenario(sc))
        b = render_report_json(run_scenario(sc))
        assert a == b

    def test_threads_do_not_change_bytes(self):
        sc = parse_scenario(scenario(checks=[
            {"name": "equation"}, {"name": "criterion-sweep"},
            {"name": "rotation-max"}]))
        a = render_report_json(run_scenario(sc, threads=1))
        b = render_report_json(run_scenario(sc, threads=4))
        assert a == b

    def test_timings_are_off_by_default(self):
        rep = run_scenario(parse_scenario(scenario()))
        assert "runtime_ms" not in rep["checks"][0]
        rep2 = run_scenario(parse_scenario(scenario()), timings=True)
        assert "runtime_ms" in rep2["checks"][0]

    def test_csv_rendering_of_gap_sequences(self):
        obj = scenario(checks=[{"name": "refinement", "sizes": [8, 16]}])
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


DISK = {
    "disk": {"weight": {"kind": "constant", "re": 1.0},
             "symbol": {"kind": "scaled_identity", "re": 1.0}},
    "checks": [{"name": "disk-c-conditions"}],
}


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

    def test_benchmark_sized_ladder_still_runs(self):
        rec = disk_record(name="disk-lower-bound", max_depth=5, samples=16)
        assert rec["verdict"] == "computed"
        assert rec["values"]["family_size"] == 803


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

    def test_module_entrypoint(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(scenario()))
        proc = subprocess.run(
            [sys.executable, "-m", "daugavetlab", "verify", "--scenario", str(p)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema_version"] == "1"
