"""Output checks on rendered reports.

Each check reads the report the user would see (the rendered JSON, parsed
back) and tests it against the paper's closed forms and invariants or
against what the generator planted.  None compares with stored output of
the library, so the checks hold on every seed and survive any refactor
that keeps behaviour.  Every function returns a list of failure messages;
an empty list means the unit's output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Float slack for inequalities that hold exactly in real arithmetic.
ROUNDING = 1e-12


def _records(report: dict, fails: list[str]) -> dict[str, dict]:
    by_name = {}
    for record in report.get("checks", []):
        if record.get("verdict") == "error":
            fails.append(f"{record['name']}: verdict error: {record.get('error')}")
        by_name[record["name"]] = record
    return by_name


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def readme_gap(n: int) -> float:
    """Additivity gap of the README window/doubling example on n points."""
    return (1.0 - math.cos(2.0 * math.pi / n)) / 2.0


def sweep_unresolved(sweep: dict, gap: float) -> bool:
    """True when the equation's gap lies where the dyadic ladder cannot see it.

    A sweep that holds at its finest level eps_min certifies a point whose
    deficiency is within tol and whose total variation is within eps_min of
    ||T||, so the gap is below eps_min + tol.  Sweep and equation must
    therefore agree unless tol < gap < eps_min + tol; inside that band (the
    README case at n >= 3217, for one) the grid is finer than the ladder.
    """
    tol = sweep["params"]["tol"]
    levels = sweep["values"]["levels"]
    eps_min = min(level["epsilon"] for level in levels)
    return tol < gap < eps_min + tol


def circle(report: dict, expect: dict) -> list[str]:
    fails: list[str] = []
    records = _records(report, fails)
    n = report["scenario"]["space"]["n"]

    eq = records.get("equation")
    if eq is not None:
        v = eq["values"]
        if v["lhs"] > v["rhs"] + ROUNDING * max(1.0, v["rhs"]):
            fails.append(f"equation: lhs {v['lhs']!r} > rhs {v['rhs']!r}")

    sweep = records.get("criterion-sweep")
    if sweep is not None:
        # the sweep's equivalence with the equation is only claimed on grids
        # its ladder resolves (criterion_sweep docstring)
        resolved = eq is None or not sweep_unresolved(sweep, eq["values"]["gap"])
        if resolved and sweep["values"]["agrees_with_equation"] is not True:
            fails.append("criterion-sweep: disagrees with the equation")
        if eq is not None and sweep["values"]["equation_holds"] != (eq["verdict"] == "holds"):
            fails.append("criterion-sweep: equation_holds differs from the equation check")

    rot = records.get("rotation-max")
    if "constant_modulus" in expect:
        if rot is None or rot["verdict"] != "holds":
            fails.append("rotation-max: must hold for a constant-modulus weight")
        elif eq is not None:
            # the maximum over unimodular rescalings is sup|u| + ||T|| and
            # bounds the lambda = 1 norm from above
            if not _close(rot["values"]["max"], eq["values"]["rhs"], 1e-9):
                fails.append(f"rotation-max: max {rot['values']['max']!r} != "
                             f"sup|u| + ||T|| = {eq['values']['rhs']!r}")
            if rot["values"]["max"] < eq["values"]["lhs"] - ROUNDING:
                fails.append("rotation-max: max below the lambda = 1 norm")

    for name in ("counterexample-modulus", "counterexample-preimage"):
        rec = records.get(name)
        if rec is not None and rec["verdict"] != "error":
            if not rec["values"]["certified_gap"] > 0:
                fails.append(f"{name}: gap {rec['values']['certified_gap']!r} not positive")
    for name, key in (("counterexample-modulus", "modulus_gap"),
                      ("counterexample-preimage", "preimage_gap")):
        if key in expect:
            rec = records.get(name)
            if rec is None or rec["verdict"] == "error":
                fails.append(f"{name}: planted case did not run")
            elif not _close(rec["values"]["certified_gap"], expect[key], 1e-9):
                fails.append(f"{name}: gap {rec['values']['certified_gap']!r} "
                             f"!= planted {expect[key]!r}")

    conv = records.get("convex")
    if conv is not None and conv["verdict"] != "error":
        v = conv["values"]
        if v["norm"] > v["upper"] + ROUNDING * max(1.0, v["upper"]):
            fails.append(f"convex: norm {v['norm']!r} > upper {v['upper']!r}")

    eps = records.get("s-epsilon")
    if eps is not None and eps["verdict"] != "error":
        frac = Fraction(eps["values"]["fraction"])
        if not (0 <= frac <= 1 and n % frac.denominator == 0):
            fails.append(f"s-epsilon: {frac} is not a count over n = {n}")

    ref = records.get("refinement")
    if ref is not None and ref["verdict"] != "error":
        for gp in ref["values"]["gaps"]:
            if gp["perturbed"] > gp["upper"] + ROUNDING * max(1.0, gp["upper"]):
                fails.append(f"refinement: lhs > rhs at n = {gp['n']}")

    if expect.get("readme_window"):
        if eq is None or abs(eq["values"]["gap"] - readme_gap(n)) > 1e-12:
            fails.append(f"equation: README gap law broken at n = {n}")
        if rot is None or abs(rot["values"]["max"] - 2.0) > 1e-12:
            fails.append("rotation-max: README maximum is not 2")
        if eps is None or eps["values"]["fraction"] != f"{n - 1}/{n}":
            fails.append("s-epsilon: README fraction is not (n - 1)/n")
        if ref is None or ref["verdict"] == "error":
            fails.append("refinement: README sweep did not run")
        else:
            for gp in ref["values"]["gaps"]:
                if abs(gp["gap"] - readme_gap(gp["n"])) > 1e-12:
                    fails.append(f"refinement: README gap law broken at n = {gp['n']}")
    return fails


def disk(report: dict, expect: dict) -> list[str]:
    fails: list[str] = []
    records = _records(report, fails)
    lower = records.get("disk-lower-bound")
    if lower is None or lower["verdict"] == "error":
        fails.append("disk-lower-bound: did not run")
        return fails
    bound = lower["values"]["lower_bound"]

    if "c_conditions" in expect:
        cc = records.get("disk-c-conditions")
        if cc is None or cc["verdict"] != expect["c_conditions"]:
            fails.append("disk-c-conditions: planted conditions do not all hold")
        auto = records.get("disk-automorphism")
        if auto is None or auto["verdict"] == "error":
            fails.append("disk-automorphism: did not run")
        elif not -1e-9 <= auto["values"]["deficit"] <= expect["automorphism_deficit"]:
            fails.append(f"disk-automorphism: deficit {auto['values']['deficit']!r}")
        if not 0 < bound <= expect["norm_bound"] + 1e-9:
            fails.append(f"disk-lower-bound: {bound!r} outside (0, sup|u| + ||T||]")

    if expect.get("certified"):
        cert = records.get("disk-certified")
        if cert is None or cert["verdict"] != "certified":
            fails.append("disk-certified: planted counterexample not certified")
        else:
            # the scenario operator is -T, so the ladder bounds the same
            # norm from below that the two-arc argument bounds from above
            if not cert["values"]["margin"] > 0:
                fails.append("disk-certified: margin not positive")
            if bound > cert["values"]["bound"] + 1e-9:
                fails.append(f"disk: lower bound {bound!r} above certified "
                             f"upper bound {cert['values']['bound']!r}")
    return fails


def selftest(report: dict) -> list[str]:
    failed = [st["name"] for st in report.get("stages", []) if not st.get("passed")]
    if report.get("passed") is not True or failed:
        return [f"selftest: stages failed: {failed}"]
    return []
