"""Scenario files, check runners and deterministic reports.

A scenario is a JSON object naming a space, a weight, symbols, an optional
perturbation, and a list of named checks.  Parsing is strict: unknown keys,
malformed coordinates or out-of-range parameters are rejected with the
offending path.  Grid coordinates are written as exact rational strings
("3/8"); floats are reserved for continuous quantities.

Reports echo the scenario, the effective parameters of every check, the
verdicts and the witnesses.  Given the same scenario and seed the rendered
report is byte-identical across reruns: floats serialize through Python's
shortest round-trip repr, keys are sorted, and no wall-clock data is
embedded (timing collection is opt-in and off by default).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from . import disk as dsk
from .circle import Arc, Coordinate, GridCircle, ScalarField, SymbolMap, frac_mod1
from .criteria import (
    convex_center_check,
    counterexample_fat_preimage,
    counterexample_nonconstant_modulus,
    criterion_sweep,
    equation_holds,
    refinement_convergence,
    s_epsilon_fraction,
)
from .measures import AtomicMeasure
from .operators import (
    ConvexCombination,
    FiniteRankOperator,
    OperatorExpr,
    SupportsMeasureAt,
    WeightedComposition,
    operator_norm,
    rotation_max_norm,
    scaled,
    zero_operator,
)

__all__ = [
    "ScenarioError",
    "Scenario",
    "parse_scenario",
    "parse_scenario_file",
    "run_scenario",
    "render_report_json",
    "render_report_csv",
    "CIRCLE_CHECKS",
    "COUNTEREXAMPLE_CHECKS",
    "DISK_CHECKS",
    "SWEEP_CHECKS",
]

SCHEMA_VERSION = "1"

CIRCLE_CHECKS = ("equation", "criterion-sweep", "rotation-max", "convex",
                 "s-epsilon", "refinement")
COUNTEREXAMPLE_CHECKS = ("counterexample-modulus", "counterexample-preimage")
DISK_CHECKS = ("disk-c-conditions", "disk-lower-bound", "disk-certified",
               "disk-automorphism")
SWEEP_CHECKS = ("refinement",)
ALL_CHECKS = CIRCLE_CHECKS + COUNTEREXAMPLE_CHECKS + DISK_CHECKS

#: Bounds on disk sample counts and on the closed-form size of a ladder
#: family, checked before anything is allocated or enumerated.
MAX_DISK_SAMPLES = 2 ** 20
MAX_LADDER_FAMILY = 20_000


class ScenarioError(ValueError):
    """Scenario file rejected; the message carries the offending path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _check_keys(obj: Any, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(path, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(path, f"unknown field(s) {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ScenarioError(path, f"missing required field(s) {missing}")


def _real(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a real number, got {value!r}")
    return float(value)


def _integer(value: Any, path: str, lo: float = -math.inf,
             hi: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ScenarioError(path, f"{value} is outside [{lo}, {hi}]")
    return value


def _complex_value(obj: Any, path: str) -> complex:
    _check_keys(obj, path, ("re",), ("im",))
    return complex(_real(obj["re"], f"{path}.re"),
                   _real(obj.get("im", 0.0), f"{path}.im"))


def _position(value: Any, path: str, exact: bool) -> Coordinate:
    """Rational strings ("3/8") give exact grid coordinates; plain reals are
    only allowed where continuous coordinates make sense."""
    if isinstance(value, str):
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(path, f"malformed rational {value!r}") from None
        return frac_mod1(q)
    if isinstance(value, bool):
        raise ScenarioError(path, f"expected a coordinate, got {value!r}")
    if isinstance(value, int):
        return frac_mod1(Fraction(value))
    if isinstance(value, float):
        if exact:
            raise ScenarioError(
                path, "grid coordinates must be rational strings like \"3/8\"")
        return frac_mod1(value)
    raise ScenarioError(path, f"expected a coordinate, got {value!r}")


def _width(value: Any, path: str) -> Coordinate:
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(path, f"malformed rational {value!r}") from None
    return _real(value, path)


# ---------------------------------------------------------------------------
# circle-model component parsers
# ---------------------------------------------------------------------------

def parse_field(obj: Any, path: str, n: int | None) -> ScalarField:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError(path, "expected a field object with a \"kind\"")
    kind = obj["kind"]
    if kind == "constant":
        _check_keys(obj, path, ("kind", "re"), ("im",))
        return ScalarField.constant(_complex_value(
            {k: v for k, v in obj.items() if k != "kind"}, path))
    if kind == "unimodular_exp":
        _check_keys(obj, path, ("kind",), ("winding", "scale"))
        scale = (_complex_value(obj["scale"], f"{path}.scale")
                 if "scale" in obj else 1 + 0j)
        return ScalarField.unimodular_exp(
            winding=_integer(obj.get("winding", 1), f"{path}.winding"), scale=scale)
    if kind == "cosine":
        _check_keys(obj, path, ("kind",), ("amplitude", "offset", "frequency"))
        return ScalarField.cosine(
            amplitude=_real(obj.get("amplitude", 1.0), f"{path}.amplitude"),
            offset=_real(obj.get("offset", 0.0), f"{path}.offset"),
            frequency=_integer(obj.get("frequency", 1), f"{path}.frequency"))
    if kind == "tent":
        _check_keys(obj, path, ("kind", "center", "half_width"), ("peak", "base"))
        return ScalarField.tent(
            center=_position(obj["center"], f"{path}.center", exact=False),
            half_width=_width(obj["half_width"], f"{path}.half_width"),
            peak=_real(obj.get("peak", 1.0), f"{path}.peak"),
            base=_real(obj.get("base", 0.0), f"{path}.base"))
    if kind == "tent_dip":
        _check_keys(obj, path, ("kind", "center", "half_width", "depth"), ("top",))
        return ScalarField.tent_dip(
            center=_position(obj["center"], f"{path}.center", exact=False),
            half_width=_width(obj["half_width"], f"{path}.half_width"),
            depth=_real(obj["depth"], f"{path}.depth"),
            top=_real(obj.get("top", 1.0), f"{path}.top"))
    if kind == "samples":
        _check_keys(obj, path, ("kind", "values"))
        if n is None:
            raise ScenarioError(path, "sampled fields need a grid size in space.n")
        values = obj["values"]
        if not isinstance(values, list) or len(values) != n:
            raise ScenarioError(f"{path}.values", f"expected {n} complex entries")
        return ScalarField.from_samples(
            [_complex_value(v, f"{path}.values[{i}]") for i, v in enumerate(values)], n)
    if kind == "product":
        _check_keys(obj, path, ("kind", "factors"))
        factors = obj["factors"]
        if not isinstance(factors, list) or len(factors) != 2:
            raise ScenarioError(f"{path}.factors", "expected exactly two factor fields")
        return ScalarField.product(
            parse_field(factors[0], f"{path}.factors[0]", n),
            parse_field(factors[1], f"{path}.factors[1]", n))
    raise ScenarioError(f"{path}.kind", f"unknown field kind {kind!r}")


def parse_symbol(obj: Any, path: str, n: int | None) -> SymbolMap:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError(path, "expected a symbol object with a \"kind\"")
    kind = obj["kind"]
    if kind == "identity":
        _check_keys(obj, path, ("kind",))
        return SymbolMap.identity()
    if kind == "rotation":
        _check_keys(obj, path, ("kind", "shift"))
        return SymbolMap.rotation(_position(obj["shift"], f"{path}.shift", exact=False))
    if kind == "doubling":
        _check_keys(obj, path, ("kind",))
        return SymbolMap.doubling()
    if kind == "constant_on_arc":
        _check_keys(obj, path, ("kind", "value", "center", "half_width"), ("base",))
        base = (parse_symbol(obj["base"], f"{path}.base", n)
                if "base" in obj else None)
        try:
            arc = Arc(_position(obj["center"], f"{path}.center", exact=False),
                      _width(obj["half_width"], f"{path}.half_width"))
        except ValueError as exc:
            raise ScenarioError(f"{path}.half_width", str(exc)) from None
        return SymbolMap.constant_on_arc(
            _position(obj["value"], f"{path}.value", exact=False), arc, base)
    if kind == "table":
        _check_keys(obj, path, ("kind", "map"))
        if n is None:
            raise ScenarioError(path, "table symbols need a grid size in space.n")
        mapping = obj["map"]
        if not isinstance(mapping, list) or len(mapping) != n:
            raise ScenarioError(f"{path}.map", f"expected {n} grid indices")
        try:
            return SymbolMap.from_table(
                [_integer(k, f"{path}.map[{i}]") for i, k in enumerate(mapping)], n)
        except ValueError as exc:
            raise ScenarioError(f"{path}.map", str(exc)) from None
    raise ScenarioError(f"{path}.kind", f"unknown symbol kind {kind!r}")


def parse_atoms(obj: Any, path: str) -> AtomicMeasure:
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(path, "expected a non-empty list of atoms")
    pairs = []
    for i, atom in enumerate(obj):
        _check_keys(atom, f"{path}[{i}]", ("pos", "re"), ("im",))
        pos = _position(atom["pos"], f"{path}[{i}].pos", exact=True)
        w = complex(_real(atom["re"], f"{path}[{i}].re"),
                    _real(atom.get("im", 0.0), f"{path}[{i}].im"))
        pairs.append((pos, w))
    return AtomicMeasure.from_atoms(pairs)


def parse_operator(obj: Any, path: str, n: int | None) -> SupportsMeasureAt:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError(path, "expected an operator object with a \"kind\"")
    kind = obj["kind"]
    if kind == "zero":
        _check_keys(obj, path, ("kind",))
        return zero_operator()
    if kind == "finite_rank":
        _check_keys(obj, path, ("kind", "terms"))
        terms_obj = obj["terms"]
        if not isinstance(terms_obj, list) or not terms_obj:
            raise ScenarioError(f"{path}.terms", "expected a non-empty list of terms")
        terms = []
        for i, term in enumerate(terms_obj):
            _check_keys(term, f"{path}.terms[{i}]", ("g", "atoms"))
            terms.append((parse_field(term["g"], f"{path}.terms[{i}].g", n),
                          parse_atoms(term["atoms"], f"{path}.terms[{i}].atoms")))
        return FiniteRankOperator(tuple(terms))
    if kind == "weighted_composition":
        _check_keys(obj, path, ("kind", "weight", "symbol"))
        return WeightedComposition(parse_field(obj["weight"], f"{path}.weight", n),
                                   parse_symbol(obj["symbol"], f"{path}.symbol", n))
    if kind == "scaled":
        _check_keys(obj, path, ("kind", "coeff", "inner"))
        return scaled(parse_operator(obj["inner"], f"{path}.inner", n),
                      _complex_value(obj["coeff"], f"{path}.coeff"))
    if kind == "sum":
        _check_keys(obj, path, ("kind", "terms"))
        terms_obj = obj["terms"]
        if not isinstance(terms_obj, list) or not terms_obj:
            raise ScenarioError(f"{path}.terms", "expected a non-empty list of operators")
        expr = OperatorExpr(())
        for i, term in enumerate(terms_obj):
            inner = parse_operator(term, f"{path}.terms[{i}]", n)
            expr = expr + inner
        return expr
    raise ScenarioError(f"{path}.kind", f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# disk component parsers
# ---------------------------------------------------------------------------

def parse_disk_function(obj: Any, path: str) -> dsk.DiskFunction:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError(path, "expected a disk function object with a \"kind\"")
    kind = obj["kind"]
    try:
        if kind == "constant":
            _check_keys(obj, path, ("kind", "re"), ("im",))
            return dsk.DiskFunction.constant(_complex_value(
                {k: v for k, v in obj.items() if k != "kind"}, path))
        if kind == "polynomial":
            _check_keys(obj, path, ("kind", "coeffs"))
            coeffs = obj["coeffs"]
            if not isinstance(coeffs, list) or not coeffs:
                raise ScenarioError(f"{path}.coeffs", "expected a non-empty list")
            return dsk.DiskFunction.polynomial(
                [_complex_value(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs)])
        if kind == "scaled_identity":
            _check_keys(obj, path, ("kind", "re"), ("im",))
            return dsk.DiskFunction.scaled_identity(_complex_value(
                {k: v for k, v in obj.items() if k != "kind"}, path))
        if kind == "half_plus":
            _check_keys(obj, path, ("kind", "omega"))
            return dsk.DiskFunction.half_plus(_complex_value(obj["omega"], f"{path}.omega"))
        if kind == "blaschke":
            _check_keys(obj, path, ("kind", "zeros"), ("constant", "scale"))
            zeros = obj["zeros"]
            if not isinstance(zeros, list):
                raise ScenarioError(f"{path}.zeros", "expected a list of zeros")
            constant = (_complex_value(obj["constant"], f"{path}.constant")
                        if "constant" in obj else 1 + 0j)
            scale = (_complex_value(obj["scale"], f"{path}.scale")
                     if "scale" in obj else 1 + 0j)
            B = dsk.BlaschkeProduct(
                unimodular_constant=constant,
                zeros=tuple(_complex_value(a, f"{path}.zeros[{i}]")
                            for i, a in enumerate(zeros)))
            return dsk.DiskFunction.blaschke_multiple(B, scale)
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(path, str(exc)) from None
    raise ScenarioError(f"{path}.kind", f"unknown disk function kind {kind!r}")


def parse_disk_operator(obj: Any, path: str) -> dsk.RankOneDiskOperator:
    _check_keys(obj, path, ("kind", "tau", "g", "c"))
    if obj["kind"] != "point_eval":
        raise ScenarioError(f"{path}.kind", f"unknown disk operator kind {obj['kind']!r}")
    try:
        return dsk.RankOneDiskOperator(
            tau=_complex_value(obj["tau"], f"{path}.tau"),
            g=parse_disk_function(obj["g"], f"{path}.g"),
            c=_complex_value(obj["c"], f"{path}.c"))
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# scenario object
# ---------------------------------------------------------------------------

CHECK_PARAMS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "equation": ((), ("tol",)),
    "criterion-sweep": ((), ("tol",)),
    "rotation-max": ((), ("tol", "lambda_grid")),
    "convex": ((), ("tol",)),
    "s-epsilon": (("epsilon",), ()),
    "refinement": ((), ("sizes", "tol")),
    "counterexample-modulus": ((), ("tol",)),
    "counterexample-preimage": (("target", "center", "half_width"), ("tol",)),
    "disk-c-conditions": ((), ("samples", "tol")),
    "disk-lower-bound": ((), ("radii", "phase_grid", "max_depth",
                              "max_monomial", "samples")),
    "disk-certified": (("omega", "epsilon", "half_angle"), ("samples",)),
    "disk-automorphism": ((), ("radii", "phase_grid", "max_depth",
                               "max_monomial", "samples")),
}


@dataclass
class Scenario:
    raw: dict
    seed: int
    n: int | None
    sizes: list[int] | None
    weight: ScalarField | None
    symbol: SymbolMap | None
    symbol2: SymbolMap | None
    t: float | None
    operator: SupportsMeasureAt
    disk_weight: dsk.DiskFunction | None
    disk_symbol: dsk.DiskFunction | None
    disk_operator: dsk.RankOneDiskOperator | None
    checks: list[dict] = field(default_factory=list)

    def grid(self) -> GridCircle:
        if self.n is None:
            raise ScenarioError("space.n", "this check needs a single grid size")
        return GridCircle(self.n)


def parse_scenario(obj: Any) -> Scenario:
    _check_keys(obj, "scenario",
                ("checks",),
                ("schema_version", "seed", "space", "weight", "symbol", "symbol2",
                 "t", "operator", "disk"))
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError("scenario.schema_version",
                            f"unsupported version {version!r}")
    seed = _integer(obj.get("seed", 0), "scenario.seed")

    n: int | None = None
    sizes: list[int] | None = None
    if "space" in obj:
        space = obj["space"]
        _check_keys(space, "scenario.space", ("kind",), ("n", "sizes"))
        if space["kind"] != "circle":
            raise ScenarioError("scenario.space.kind",
                                f"unknown space kind {space['kind']!r}")
        if "n" in space:
            n = _integer(space["n"], "scenario.space.n")
            if n < 2:
                raise ScenarioError("scenario.space.n", f"grid size {n} < 2")
        if "sizes" in space:
            raw_sizes = space["sizes"]
            if not isinstance(raw_sizes, list) or not raw_sizes:
                raise ScenarioError("scenario.space.sizes", "expected a non-empty list")
            sizes = [_integer(s, f"scenario.space.sizes[{i}]")
                     for i, s in enumerate(raw_sizes)]
            if any(s < 2 for s in sizes):
                raise ScenarioError("scenario.space.sizes", "grid sizes must be >= 2")

    weight = parse_field(obj["weight"], "scenario.weight", n) if "weight" in obj else None
    symbol = parse_symbol(obj["symbol"], "scenario.symbol", n) if "symbol" in obj else None
    symbol2 = (parse_symbol(obj["symbol2"], "scenario.symbol2", n)
               if "symbol2" in obj else None)
    t = None
    if "t" in obj:
        t = _real(obj["t"], "scenario.t")
        if not (0.0 <= t <= 1.0):
            raise ScenarioError("scenario.t", f"convex weight {t} outside [0, 1]")
    operator = (parse_operator(obj["operator"], "scenario.operator", n)
                if "operator" in obj else zero_operator())

    disk_weight = disk_symbol = disk_operator = None
    if "disk" in obj:
        disk = obj["disk"]
        _check_keys(disk, "scenario.disk", (), ("weight", "symbol", "operator"))
        if "weight" in disk:
            disk_weight = parse_disk_function(disk["weight"], "scenario.disk.weight")
        if "symbol" in disk:
            disk_symbol = parse_disk_function(disk["symbol"], "scenario.disk.symbol")
        if "operator" in disk:
            disk_operator = parse_disk_operator(disk["operator"], "scenario.disk.operator")

    checks_obj = obj["checks"]
    if not isinstance(checks_obj, list) or not checks_obj:
        raise ScenarioError("scenario.checks", "expected a non-empty list of checks")
    checks = []
    for i, entry in enumerate(checks_obj):
        path = f"scenario.checks[{i}]"
        if not isinstance(entry, dict) or "name" not in entry:
            raise ScenarioError(path, "expected a check object with a \"name\"")
        name = entry["name"]
        if name not in CHECK_PARAMS:
            raise ScenarioError(f"{path}.name", f"unknown check {name!r}; "
                                f"valid names: {sorted(CHECK_PARAMS)}")
        required, optional = CHECK_PARAMS[name]
        _check_keys(entry, path, ("name",) + required, optional)
        checks.append(dict(entry))

    return Scenario(raw=obj, seed=seed, n=n, sizes=sizes, weight=weight,
                    symbol=symbol, symbol2=symbol2, t=t, operator=operator,
                    disk_weight=disk_weight, disk_symbol=disk_symbol,
                    disk_operator=disk_operator, checks=checks)


def parse_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError("scenario", f"invalid JSON: {exc}") from None
    return parse_scenario(obj)


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------

def _need(sc: Scenario, attr: str, where: str):
    value = getattr(sc, attr)
    if value is None:
        raise ScenarioError(f"scenario.{where}", "required by this check")
    return value


def _wc(sc: Scenario) -> WeightedComposition:
    return WeightedComposition(_need(sc, "weight", "weight"),
                               _need(sc, "symbol", "symbol"))


def _run_equation(sc: Scenario, p: dict, tol: float) -> dict:
    tol = p.get("tol", tol)
    res = equation_holds(_wc(sc), sc.operator, sc.grid(), tol=tol)
    return {"params": {"tol": tol, "n": sc.n},
            "verdict": "holds" if res.holds else "fails",
            "values": {"lhs": res.lhs, "rhs": res.rhs, "gap": res.gap}}


def _run_criterion_sweep(sc: Scenario, p: dict, tol: float) -> dict:
    tol = p.get("tol", tol)
    grid = sc.grid()
    wc = _wc(sc)
    sweep = criterion_sweep(wc, sc.operator, grid, tol=tol)
    eq = equation_holds(wc, sc.operator, grid, tol=tol)
    return {"params": {"tol": tol, "n": sc.n},
            "verdict": "holds" if sweep.holds else "fails",
            "values": {
                "equation_holds": eq.holds,
                "agrees_with_equation": sweep.holds == eq.holds,
                "levels": [
                    {"epsilon": r.epsilon, "active_set_size": r.active_set_size,
                     "sup_value": r.sup_value, "holds": r.holds}
                    for r in sweep.results
                ]}}


def _run_rotation_max(sc: Scenario, p: dict, tol: float) -> dict:
    tol = p.get("tol", tol)
    lambda_grid = p.get("lambda_grid", 4096)
    if not isinstance(lambda_grid, int) or lambda_grid < 1:
        raise ScenarioError("check.lambda_grid", f"bad grid size {lambda_grid!r}")
    grid = sc.grid()
    wc = _wc(sc)
    res = rotation_max_norm(wc, sc.operator, grid, lambda_grid=lambda_grid, tol=tol)
    expected = wc.weight_sup(grid) + operator_norm(sc.operator, grid)
    deviation = abs(res.max - expected)
    return {"params": {"tol": tol, "lambda_grid": lambda_grid, "n": sc.n},
            "verdict": "holds" if deviation <= tol else "fails",
            "values": {"max": res.max, "expected": expected,
                       "deviation": deviation, "searched": res.searched,
                       "argmax_lambda": res.argmax_lambda}}


def _run_convex(sc: Scenario, p: dict, tol: float) -> dict:
    tol = p.get("tol", tol)
    if sc.t is None:
        raise ScenarioError("scenario.t", "required by the convex check")
    cc = ConvexCombination(sc.t, _need(sc, "symbol", "symbol"),
                           _need(sc, "symbol2", "symbol2"))
    res = convex_center_check(cc, sc.operator, sc.grid(), tol=tol)

    def summary(pairs):
        values = [v for _, v in pairs]
        if not values:
            return {"count": 0}
        return {"count": len(values), "max": max(values), "min": min(values)}

    return {"params": {"tol": tol, "t": sc.t, "n": sc.n},
            "verdict": "holds" if res.holds else "fails",
            "values": {"norm": res.norm, "upper": res.upper, "gap": res.gap,
                       "delta": summary(res.delta),
                       "delta_tilde": summary(res.delta_tilde)}}


def _run_s_epsilon(sc: Scenario, p: dict, tol: float) -> dict:
    epsilon = _real(p["epsilon"], "check.epsilon")
    fraction = s_epsilon_fraction(_wc(sc), sc.operator, epsilon, sc.grid())
    return {"params": {"epsilon": epsilon, "n": sc.n},
            "verdict": "computed",
            "values": {"fraction": fraction}}


def _run_refinement(sc: Scenario, p: dict, tol: float) -> dict:
    tol = p.get("tol", tol)
    sizes = p.get("sizes", sc.sizes)
    if not sizes:
        raise ScenarioError("check.sizes",
                            "refinement needs sizes here or in space.sizes")
    seq = refinement_convergence(_need(sc, "weight", "weight"),
                                 _need(sc, "symbol", "symbol"),
                                 sc.operator, sizes, tol=tol)
    return {"params": {"tol": tol, "sizes": list(sizes)},
            "verdict": "computed",
            "values": {"gaps": [
                {"n": gp.n, "gap": gp.gap, "perturbed": gp.perturbed,
                 "upper": gp.upper, "nowhere_dense_ok": gp.nowhere_dense_ok}
                for gp in seq]}}


def _cex_record(res, extra_params: dict, tol: float, n: int) -> dict:
    return {"params": dict(extra_params, tol=tol, n=n),
            "verdict": "gap-certified",
            "values": {"certified_gap": res.certified_gap,
                       "perturbed_norm": res.perturbed, "upper": res.upper,
                       "weight_sup": res.weight_sup, "t_norm": res.t_norm},
            "witness": dict(res.detail)}


def _run_cex_modulus(sc: Scenario, p: dict, tol: float) -> dict:
    tol = p.get("tol", tol)
    res = counterexample_nonconstant_modulus(_need(sc, "weight", "weight"),
                                             _need(sc, "symbol", "symbol"),
                                             sc.grid(), tol=tol)
    return _cex_record(res, {}, tol, sc.n)


def _run_cex_preimage(sc: Scenario, p: dict, tol: float) -> dict:
    tol = p.get("tol", tol)
    target = _position(p["target"], "check.target", exact=False)
    try:
        arc = Arc(_position(p["center"], "check.center", exact=False),
                  _width(p["half_width"], "check.half_width"))
    except ValueError as exc:
        raise ScenarioError("check.half_width", str(exc)) from None
    res = counterexample_fat_preimage(_need(sc, "weight", "weight"),
                                      _need(sc, "symbol", "symbol"),
                                      target, arc, sc.grid(), tol=tol)
    return _cex_record(res, {"target": target, "center": arc.center,
                             "half_width": arc.half_width}, tol, sc.n)


def _ladder_from(p: dict) -> dsk.SearchLadder:
    kwargs = {}
    if "radii" in p:
        radii = p["radii"]
        if not isinstance(radii, list) or not radii:
            raise ScenarioError("check.radii", "expected a non-empty list of radii")
        kwargs["radii"] = tuple(_real(r, "check.radii") for r in radii)
    bounds = {"phase_grid": (-math.inf, math.inf), "max_depth": (0, math.inf),
              "max_monomial": (0, math.inf), "samples": (1, MAX_DISK_SAMPLES)}
    for key, (lo, hi) in bounds.items():
        if key in p:
            kwargs[key] = _integer(p[key], f"check.{key}", lo, hi)
    try:
        ladder = dsk.SearchLadder(**kwargs)
        pool = len(ladder.zero_pool())  # validates radii
    except ValueError as exc:
        raise ScenarioError("check.radii", str(exc)) from None
    # C(pool + d - 1, d) zero multisets at each depth d, summed until past
    # the cap, plus the monomials beyond max_depth
    blaschke = term = 1
    for d in range(1, ladder.max_depth + 1):
        term = term * (pool + d - 1) // d
        blaschke += term
        if blaschke > MAX_LADDER_FAMILY:
            raise ScenarioError("check.max_depth",
                                f"ladder family exceeds {MAX_LADDER_FAMILY} functions")
    if blaschke + max(0, ladder.max_monomial - ladder.max_depth) > MAX_LADDER_FAMILY:
        raise ScenarioError("check.max_monomial",
                            f"ladder family exceeds {MAX_LADDER_FAMILY} functions")
    return ladder


def _disk_samples(p: dict) -> int:
    return _integer(p.get("samples", 4096), "check.samples", 1, MAX_DISK_SAMPLES)


def _run_disk_c_conditions(sc: Scenario, p: dict, tol: float) -> dict:
    samples = _disk_samples(p)
    tol = p.get("tol", tol)
    res = dsk.check_c_conditions(_need(sc, "disk_weight", "disk.weight"),
                                 _need(sc, "disk_symbol", "disk.symbol"),
                                 samples=samples, tol=tol)
    return {"params": {"samples": samples, "tol": tol},
            "verdict": "all-hold" if res.all_hold else "violated",
            "values": {"weight_modulus_constant": res.weight_modulus_constant,
                       "symbol_inner": res.symbol_inner,
                       "symbol_nonconstant": res.symbol_nonconstant,
                       "detail": dict(res.detail)}}


def _run_disk_lower_bound(sc: Scenario, p: dict, tol: float) -> dict:
    ladder = _ladder_from(p)
    res = dsk.disk_norm_lower_bound(_need(sc, "disk_weight", "disk.weight"),
                                    _need(sc, "disk_symbol", "disk.symbol"),
                                    sc.disk_operator, ladder=ladder)
    return {"params": {"radii": list(ladder.radii), "phase_grid": ladder.phase_grid,
                       "max_depth": ladder.max_depth,
                       "max_monomial": ladder.max_monomial,
                       "samples": ladder.samples},
            "verdict": "computed",
            "values": {"lower_bound": res.bound, "family_size": res.family_size},
            "witness": dict(res.witness)}


def _run_disk_certified(sc: Scenario, p: dict, tol: float) -> dict:
    omega = _complex_value(p["omega"], "check.omega")
    epsilon = _real(p["epsilon"], "check.epsilon")
    half_angle = _real(p["half_angle"], "check.half_angle")
    samples = _disk_samples(p)
    try:
        arc = dsk.ArcNeighborhood(omega, half_angle)
    except ValueError as exc:
        raise ScenarioError("check.half_angle", str(exc)) from None
    res = dsk.certified_counterexample_bound(
        _need(sc, "disk_weight", "disk.weight"),
        _need(sc, "disk_symbol", "disk.symbol"),
        omega, epsilon, arc, samples=samples)
    certified = res.valid and res.margin > 0
    return {"params": {"omega": omega, "epsilon": epsilon,
                       "half_angle": half_angle, "samples": samples},
            "verdict": "certified" if certified else "not-certified",
            "values": {"bound": res.bound, "margin": res.margin,
                       "valid": res.valid, "on_arc": res.on_arc,
                       "off_arc": res.off_arc, "delta": res.delta,
                       "detail": dict(res.detail)}}


def _run_disk_automorphism(sc: Scenario, p: dict, tol: float) -> dict:
    ladder = _ladder_from(p)
    symbol = _need(sc, "disk_symbol", "disk.symbol")
    if symbol.kind != "blaschke":
        raise ScenarioError("scenario.disk.symbol",
                            "automorphism check needs a blaschke symbol")
    if abs(abs(symbol.scale) - 1.0) > 1e-12:
        raise ScenarioError("scenario.disk.symbol",
                            "automorphism scale must be unimodular")
    B = dsk.BlaschkeProduct(
        unimodular_constant=symbol.scale * symbol.blaschke.unimodular_constant,
        zeros=symbol.blaschke.zeros)
    operator = sc.disk_operator
    if operator is None:
        raise ScenarioError("scenario.disk.operator", "required by this check")
    res = dsk.automorphism_identity_check(B, operator, ladder=ladder)
    return {"params": {"radii": list(ladder.radii), "samples": ladder.samples,
                       "max_depth": ladder.max_depth,
                       "max_monomial": ladder.max_monomial,
                       "phase_grid": ladder.phase_grid},
            "verdict": "computed",
            "values": {"lower_bound": res.lower, "target": res.target,
                       "deficit": res.deficit},
            "witness": dict(res.witness)}


RUNNERS: dict[str, Callable[[Scenario, dict, float], dict]] = {
    "equation": _run_equation,
    "criterion-sweep": _run_criterion_sweep,
    "rotation-max": _run_rotation_max,
    "convex": _run_convex,
    "s-epsilon": _run_s_epsilon,
    "refinement": _run_refinement,
    "counterexample-modulus": _run_cex_modulus,
    "counterexample-preimage": _run_cex_preimage,
    "disk-c-conditions": _run_disk_c_conditions,
    "disk-lower-bound": _run_disk_lower_bound,
    "disk-certified": _run_disk_certified,
    "disk-automorphism": _run_disk_automorphism,
}


def _run_one(sc: Scenario, entry: dict, tol: float, timings: bool) -> dict:
    name = entry["name"]
    params = {k: v for k, v in entry.items() if k != "name"}
    record: dict = {"name": name}
    if timings:
        import time
        start = time.perf_counter()
    try:
        record.update(RUNNERS[name](sc, params, tol))
    except (ScenarioError, ValueError) as exc:
        record.update({"params": params, "verdict": "error", "error": str(exc)})
    if timings:
        record["runtime_ms"] = (time.perf_counter() - start) * 1000.0
    return record


def run_scenario(sc: Scenario, tol: float = 1e-9, seed: int | None = None,
                 threads: int = 1, timings: bool = False,
                 allowed: tuple[str, ...] | None = None) -> dict:
    """Run every check of a scenario and assemble the report dict.

    Individual check failures (bad preconditions, missing pieces) are
    recorded with verdict "error" and never abort the run; an
    InvariantViolation does abort, since it means the tool itself is wrong.
    """
    if allowed is not None:
        for entry in sc.checks:
            if entry["name"] not in allowed:
                raise ScenarioError(
                    "scenario.checks",
                    f"check {entry['name']!r} is not valid here; "
                    f"allowed: {sorted(allowed)}")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(
                lambda entry: _run_one(sc, entry, tol, timings), sc.checks))
    else:
        records = [_run_one(sc, entry, tol, timings) for entry in sc.checks]
    from . import __version__
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": {"name": "daugavetlab", "version": __version__},
        "seed": sc.seed if seed is None else seed,
        "scenario": sc.raw,
        "checks": records,
    }


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def jsonable(value: Any) -> Any:
    """Recursively rewrite report values into JSON-safe primitives.

    Rationals become exact "p/q" strings, complex numbers {"re", "im"}
    pairs; floats pass through untouched (json emits the shortest
    round-trip decimal, so no precision is lost)."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.complexfloating,)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.bool_):
        return bool(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


def render_report_json(report: dict) -> str:
    return json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"


def render_report_csv(report: dict) -> str:
    """Gap sequences as flat CSV (check name, grid size, gap)."""
    lines = ["check,n,gap"]
    for record in report.get("checks", []):
        gaps = record.get("values", {}).get("gaps")
        if not gaps:
            continue
        for gp in gaps:
            lines.append(f"{record['name']},{gp['n']},{gp['gap']!r}")
    return "\n".join(lines) + "\n"
