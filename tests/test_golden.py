"""Golden report bytes.

Every scenario under golden/scenarios renders, as `daugavetlab verify`
would, to exactly the bytes stored under golden/reports, and so does
`run_selftest(0)`.  The reports were written before the circle model was
compiled to index space; a change that means to alter them reruns
golden/regenerate.py and names every changed value in CHANGES.md.

The reports of the benchmark decks and of run_selftest(0..3) hash to the
line frozen in golden/deck.sha256 (see golden/deck_digest.py).

Schema version 2 changed three things only: the echo pins each samples or
table list by its length and sha256, ladder checks no longer echo
phase_grid, and the version reads "2".  Undoing those three on each
golden report gives back, byte for byte, the version 1 report whose
sha256 is frozen below.

Within version 2, some values later moved in their last bits: when the
criterion sweep and rotation-max began to read the one verified sup|u|
and ||T|| and to take every reported modulus through circle.modulus, and
when blaschke_eval began to divide out each factor before multiplying by
it.  MOVED holds each such value as it was before; putting them back
gives the earlier version 2 report, whose sha256 is frozen too.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
from test_render import two_pass

from daugavetlab.scenarios import parse_scenario, render_report_json, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.name for p in (GOLDEN / "scenarios").glob("*.json"))

_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


_spec = importlib.util.spec_from_file_location("deck_digest", GOLDEN / "deck_digest.py")
deck_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(deck_digest)


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


def test_deck_reports_match_the_frozen_digest():
    assert deck_digest.digest() == (GOLDEN / "deck.sha256").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("name", [name for name in SCENARIOS if not name.startswith("disk-")])
def test_check_order_changes_no_record(name):
    # the checks of a run share its profiles, each with the norms it took
    # when it was built, so no record depends on which check built it
    obj = json.loads((GOLDEN / "scenarios" / name).read_text(encoding="utf-8"))

    def records(checks):
        report = run_scenario(parse_scenario(dict(obj, checks=checks)))
        return [render_report_json(record) for record in report["checks"]]

    assert records(obj["checks"][::-1]) == records(obj["checks"])[::-1]


#: JSON path of the criterion sweep's levels in the scenario reports.
SWEEP = ("checks", 1, "values", "levels")

#: The values that moved when the readers took one sup|u|, one ||T|| and
#: circle.modulus, and when blaschke_eval's factors were associated as
#: out * ((z - a) / den): the earlier value, by golden report and JSON path.
MOVED = {
    "circle-closed-256.json": {(*SWEEP, 3, "sup_value"): 0.0},
    "circle-tabulated-256.json": {
        **{(*SWEEP, k, "sup_value"): -1.1102230246251565e-16 for k in (2, 3)},
        **{(*SWEEP, k, "sup_value"): -2.220446049250313e-16 for k in range(4, 21)}},
    "off-grid-rational.json": {
        **{(*SWEEP, k, "sup_value"): -2.220446049250313e-16 for k in range(2, 9)},
        **{(*SWEEP, k, "sup_value"): -3.3306690738754696e-16 for k in range(9, 21)}},
    "operator-expr.json": {
        **{(*SWEEP, k, "sup_value"): 0.0 for k in range(2, 21)},
        ("checks", 2, "values", "max"): 3.1534601281551966,
        ("checks", 2, "values", "deviation"): 0.0},
    "selftest-0.json": {("stages", 2, "values", "worst"): 1.7763568394002505e-15},
    "disk-automorphism-256.json": {
        ("checks", 0, "values", "detail", "symbol_spread"): 1.9999103816591992,
        ("checks", 1, "values", "lower_bound"): 1.758890472575364,
        ("checks", 2, "values", "deficit"): 0.02373331954956237,
        ("checks", 2, "values", "lower_bound"): 1.758890472575364},
}

#: sha256 of each golden report before the values in MOVED moved.
V2_SHA256 = {
    "circle-closed-256.json": "6163c65206c5b86ba4889d8f7f49419914f1ffcdadf23a3dbf81e1d27fd28082",
    "circle-dip-256.json": "b9e0b0dc64cf43f36a9d00a519a327b04da3db4bb39003015029c63ad9c387b7",
    "circle-readme-256.json": "4c4870ffd9db6cd75f4e684d6b69a61c6bbbc9382bbb16d680d5be9ba419309e",
    "circle-tabulated-256.json":
        "f984ac7aa01e5a1207da552f8835985952feae58b16373c9cfd8f9da8ce16f87",
    "disk-automorphism-256.json":
        "09b335ed92b8bb704a90dd63c5faebbce8b9e04a8cba0781e23e66dd576e7ecf",
    "disk-contraction-256.json":
        "a42b68a47a07a18ff814ce766b3bd4e4d64352bd44203489e324c4464b7403c7",
    "off-grid-rational.json": "6c50f406ed10a73e861303dfd0740a14664ec4c3767b383a384bafde69b22151",
    "operator-expr.json": "f2a00585a26a4429351672243fd69a2c325012a87a29fc49390c3891cc514bcd",
    "readme.json": "83ac80b82da6747b7632f9e71843a6e77312385be1b342df5742d5411778ddf5",
    "selftest-0.json": "f703edd43077cf86752cb50ab3a0e954fa9383a42d8235de799d538c1f665f6f",
}


def version_2(name: str) -> dict:
    """The golden report with each value in MOVED put back; each must be a
    float that differs from it now."""
    report = json.loads(golden(name))
    for path, old in MOVED.get(name, {}).items():
        parent = report
        for key in path[:-1]:
            parent = parent[key]
        assert type(parent[path[-1]]) is float and parent[path[-1]] != old
        parent[path[-1]] = old
    return report


def test_only_last_bit_value_keys_moved():
    assert set(MOVED) <= set(V2_SHA256) == set(V1_SHA256)
    keys = {path[-1] for table in MOVED.values() for path in table}
    assert keys <= {"sup_value", "max", "deviation", "worst",
                    "symbol_spread", "lower_bound", "deficit"}


@pytest.mark.parametrize("name", sorted(V2_SHA256))
def test_only_the_moved_values_changed(name):
    text = two_pass(version_2(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == V2_SHA256[name]


#: sha256 of each golden report as schema version 1 wrote it.
V1_SHA256 = {
    "circle-closed-256.json": "da952a975f6da126605e9c99b79ff683a57857675891488a21954e30a700016c",
    "circle-dip-256.json": "80a2994f39c8824787afbf7a1eccefa50ef71293e2864d3ebd63bdfa8a0e297a",
    "circle-readme-256.json": "6c1ee761283e39a065845c9c2067fbab8ba1ff53d31265b4ce6934b8c243b106",
    "circle-tabulated-256.json":
        "cb21bf24c6b7d4fd53f02277ecd1fe0dd25a63a951e5660b9d8a612f5febe8f0",
    "disk-automorphism-256.json":
        "ab7ad8207d8df7bdede4ba23210da1a39fcead6bcbad262040ba7fa1ca2b35ca",
    "disk-contraction-256.json":
        "27ff8a78e4602c4b9f71780080c88195b03dc4dd8ad2bb96d8cb876c561a89a5",
    "off-grid-rational.json": "2fcccdecea5dc362623d5d22c7337a3ce3ed2f352d0c0d81b9c7bd31fd304aad",
    "operator-expr.json": "271c530a84808f2220790285cffdbbf6e84e64e2565decbd385a6ac7d62dc2d5",
    "readme.json": "3ed988ce0f0aa3adf6297a19aa42a5af4a15eea80386bfac8bed26f60746617d",
    "selftest-0.json": "f3f8f221b173625a3eebbfaac0c6fd8bb3622164b0efbe614522793dfa89606c",
}


def unpinned(echo, given):
    """echo with each {"length", "sha256"} pin replaced by the list of the
    scenario file it pins, once the pin is checked; everything else in
    echo must equal the file."""
    if isinstance(echo, dict) and set(echo) == {"length", "sha256"} and isinstance(given, list):
        text = json.dumps(given, sort_keys=True, separators=(",", ":"))
        assert echo == {"length": len(given),
                        "sha256": hashlib.sha256(text.encode()).hexdigest()}
        return given
    if isinstance(echo, dict):
        assert isinstance(given, dict) and set(echo) == set(given)
        return {k: unpinned(v, given[k]) for k, v in echo.items()}
    if isinstance(echo, list):
        assert isinstance(given, list) and len(echo) == len(given)
        return [unpinned(e, g) for e, g in zip(echo, given)]
    assert echo == given and type(echo) is type(given)
    return echo


def version_1(name: str) -> dict:
    report = version_2(name)
    assert report["schema_version"] == "2"
    report["schema_version"] = "1"
    if name in SCENARIOS:
        given = json.loads((GOLDEN / "scenarios" / name).read_text(encoding="utf-8"))
        report["scenario"] = unpinned(report["scenario"], given)
    for record in report.get("checks", []):
        if record["name"] in ("disk-lower-bound", "disk-automorphism") \
                and record["verdict"] != "error":
            assert "phase_grid" not in record["params"]
            record["params"]["phase_grid"] = 256
    return report


def test_every_golden_report_has_a_frozen_version_1_digest():
    assert sorted(V1_SHA256) == sorted(p.name for p in (GOLDEN / "reports").glob("*.json"))


@pytest.mark.parametrize("name", sorted(V1_SHA256))
def test_only_the_version_2_keys_changed(name):
    text = two_pass(version_1(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == V1_SHA256[name]
