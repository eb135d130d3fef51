"""Scenario files, check runners and deterministic reports.

A scenario is a JSON object naming a space, a weight, symbols, an optional
perturbation, and a list of named checks.  One schema, declared below as
data, says which keys each object may carry and the type, range and
default of every value; for checks it also names the CLI group and the
runner.  Parsing is strict: unknown or missing keys, malformed coordinates
and out-of-range values are rejected with the offending path, and so is a
component (field, symbol, operator) nested past MAX_NESTING levels, the
outermost being level 1.  Check parameters are keyed at parse time and
read when the check runs, so a bad value becomes an "error" record for
that check alone (one nested past MAX_NESTING is rejected).  Coordinates
and half-widths are exact rational strings ("3/8"); floats are reserved
for continuous quantities.

Reports echo the scenario, the effective parameters of every check, the
verdicts and the witnesses.  The echo pins each grid-sized list (a samples
field's values, a table symbol's map) by its length and the sha256 of its
canonical JSON, serialised with one json.dumps(sort_keys=True,
separators=(",", ":")), so a report's size follows its checks, not the grid.
Given the same scenario and seed the rendered report is byte-identical
across reruns: render_report_json is json.dumps(indent=2, sort_keys=True,
allow_nan=False) of plain JSON values, and no wall-clock data is embedded
(timing collection is opt-in and off by default).
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from . import disk as dsk
from .circle import (
    Arc,
    GridCircle,
    ScalarField,
    SymbolMap,
    frac_mod1,
    shared_compilation,
)
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
    FiniteRankOperator,
    OperatorExpr,
    SupportsMeasureAt,
    WeightedComposition,
    rotation_max_norm,
    scaled,
    zero_operator,
)

__all__ = [
    "ScenarioError",
    "Scenario",
    "Check",
    "CHECKS",
    "parse_scenario",
    "parse_scenario_file",
    "run_scenario",
    "render_report_json",
    "render_report_csv",
]

SCHEMA_VERSION = "2"

#: One bound on every point count a scenario can ask for (grid sizes, disk
#: samples, lambda grids), checked before anything is allocated.
MAX_POINTS = 2 ** 20
#: How deep a check value may nest (it is echoed before a reader bounds
#: it), and how many components may nest inside one another.
MAX_NESTING = 32
#: Ladder cost grows with the square of max_monomial.
MAX_MONOMIAL = 1024
#: Bound on the closed-form size of a ladder family, checked before it is
#: enumerated.
MAX_LADDER_FAMILY = 20_000

_FLOAT_MAX = sys.float_info.max


class ScenarioError(ValueError):
    """Scenario file rejected; the message carries the offending path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# the schema language
#
# A reader takes (value, path, n, depth), n being the scenario's grid size or
# None and depth the number of components (Kinds objects) it is read inside,
# and returns the parsed value or raises ScenarioError naming the path.  A
# spec maps every key an object may carry to (reader, default); a default of
# ... marks the key required.
# ---------------------------------------------------------------------------

def _bounds(lo: float, hi: float) -> str:
    if hi == math.inf:
        return "" if lo == -math.inf else f" >= {lo}"
    return f" in [{lo}, {hi}]"


def _check_keys(obj: Any, path: str, spec: dict, fixed: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(path, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(spec) - set(fixed))
    if unknown:
        raise ScenarioError(path, f"unknown field(s) {unknown}")
    missing = sorted(k for k, (_, default) in spec.items()
                     if default is ... and k not in obj)
    if missing:
        raise ScenarioError(path, f"missing required field(s) {missing}")


def _read(obj: Any, path: str, spec: dict, n: int | None = None, depth: int = 0,
          fixed: tuple[str, ...] = ()) -> dict:
    """Check obj's keys against spec (plus the fixed keys its caller reads)
    and read every declared value, defaults filled in."""
    _check_keys(obj, path, spec, fixed)
    return {key: read(obj[key], f"{path}.{key}", n, depth) if key in obj else default
            for key, (read, default) in spec.items()}


@dataclass(frozen=True)
class Real:
    """A finite JSON number in [lo, hi], read as a float.  With cast=False
    an integer stays as written, so an echoed "tol": 0 reads 0."""

    lo: float = -math.inf
    hi: float = math.inf
    cast: bool = True

    def __call__(self, value: Any, path: str, n: int | None = None, depth: int = 0) -> Any:
        x = math.nan
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            x = float(value) if -_FLOAT_MAX <= value <= _FLOAT_MAX else math.inf
        if not (math.isfinite(x) and self.lo <= x <= self.hi):
            raise ScenarioError(path, f"expected a finite real{_bounds(self.lo, self.hi)}, "
                                      f"got {value!r}")
        return x if self.cast else value


@dataclass(frozen=True)
class Int:
    """A JSON integer in [lo, hi]."""

    lo: float = -math.inf
    hi: float = math.inf

    def __call__(self, value: Any, path: str, n: int | None = None, depth: int = 0) -> int:
        if (isinstance(value, bool) or not isinstance(value, int)
                or not self.lo <= value <= self.hi):
            raise ScenarioError(path, f"expected an integer{_bounds(self.lo, self.hi)}, "
                                      f"got {value!r}")
        return value


@dataclass(frozen=True)
class ListOf:
    """A JSON list with least..most items, each read by item."""

    item: Callable
    least: int = 1
    most: float = math.inf

    def __call__(self, value: Any, path: str, n: int | None = None, depth: int = 0) -> list:
        if not isinstance(value, list) or not self.least <= len(value) <= self.most:
            raise ScenarioError(path, "expected a list with length"
                                      f"{_bounds(self.least, self.most)}")
        return [self.item(v, f"{path}[{i}]", n, depth) for i, v in enumerate(value)]


def _key_at_fault(exc: Exception, keys) -> str | None:
    """The key in keys that exc's message opens with, as the library's rules
    on one value do ("epsilon must be positive, ..."); None if there is
    none, or if exc is a ScenarioError, which names its path already."""
    word = str(exc).split(" ", 1)[0]
    return word if word in keys and not isinstance(exc, ScenarioError) else None


@dataclass(frozen=True)
class Obj:
    """A JSON object read by spec and built by build(**values).  A
    ValueError from build names the key its message opens with (see
    _key_at_fault), or else the object, as breaking a rule across keys."""

    spec: dict
    build: Callable

    def __call__(self, value: Any, path: str, n: int | None = None, depth: int = 0,
                 fixed: tuple[str, ...] = ()) -> Any:
        args = _read(value, path, self.spec, n, depth, fixed)
        try:
            return self.build(**args)
        except ValueError as exc:
            key = _key_at_fault(exc, self.spec)
            raise ScenarioError(f"{path}.{key}" if key else path, str(exc)) from None


@dataclass(frozen=True)
class Kinds:
    """A JSON object whose "kind" picks the Obj that reads the rest: a
    component, read inside at most MAX_NESTING - 1 others."""

    what: str
    kinds: dict[str, Obj] = field(default_factory=dict)

    def __call__(self, value: Any, path: str, n: int | None = None, depth: int = 0) -> Any:
        if depth == MAX_NESTING:
            raise ScenarioError(path, f"nested past {MAX_NESTING} levels")
        if not isinstance(value, dict) or "kind" not in value:
            raise ScenarioError(path, f"expected a {self.what} object with a \"kind\"")
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in self.kinds:
            raise ScenarioError(f"{path}.kind", f"unknown {self.what} kind {kind!r}")
        return self.kinds[kind](value, path, n, depth + 1, fixed=("kind",))


REAL = Real()
INT = Int()
SIZE = Int(2, MAX_POINTS)
COMPLEX = Obj({"re": (REAL, ...), "im": (REAL, 0.0)}, lambda re, im: complex(re, im))


def _rational(value: Any, path: str, n: int | None = None, depth: int = 0) -> Fraction:
    """A rational string ("3/8")."""
    if not isinstance(value, str):
        raise ScenarioError(path, "coordinates and widths are rational strings like "
                                  f"\"3/8\", got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(path, f"malformed rational {value!r}") from None


def _position(value: Any, path: str, n: int | None = None, depth: int = 0) -> Fraction:
    """A grid coordinate: a rational string, reduced into [0, 1)."""
    return frac_mod1(_rational(value, path))


def _sized(value: Any, path: str, n: int | None, what: str) -> None:
    if n is None:
        raise ScenarioError(path, f"{what} need a grid size in space.n")
    if not isinstance(value, list) or len(value) != n:
        raise ScenarioError(path, f"expected {n} {what}")


# Sampled fields and table symbols are the bulk of a large circle scenario,
# so their entries are read by tight loops that build a path only for a bad
# entry; the general readers then raise the precise error.

def _samples(value: Any, path: str, n: int | None, depth: int = 0) -> list[complex]:
    _sized(value, path, n, "complex entries")
    out = []
    for i, v in enumerate(value):
        if type(v) is dict and v.keys() <= COMPLEX.spec.keys():
            re, im = v.get("re"), v.get("im", 0.0)
            if (type(re) is float and type(im) is float and
                    -_FLOAT_MAX <= re <= _FLOAT_MAX and -_FLOAT_MAX <= im <= _FLOAT_MAX):
                out.append(complex(re, im))
                continue
        out.append(COMPLEX(v, f"{path}[{i}]"))
    return out


def _indices(value: Any, path: str, n: int | None, depth: int = 0) -> list[int]:
    _sized(value, path, n, "grid indices")
    for i, k in enumerate(value):
        if type(k) is not int:
            INT(k, f"{path}[{i}]")
    return value


# ---------------------------------------------------------------------------
# scenario components (Kinds are filled after creation so that they can nest)
# ---------------------------------------------------------------------------

FIELD = Kinds("field")
SYMBOL = Kinds("symbol")
OPERATOR = Kinds("operator")
DISK_FUNCTION = Kinds("disk function")

FIELD.kinds.update({
    "constant": Obj(COMPLEX.spec, lambda re, im: ScalarField.constant(complex(re, im))),
    "unimodular_exp": Obj({"winding": (INT, 1), "scale": (COMPLEX, 1 + 0j)},
                          ScalarField.unimodular_exp),
    "cosine": Obj({"amplitude": (REAL, 1.0), "offset": (REAL, 0.0),
                   "frequency": (INT, 1)}, ScalarField.cosine),
    "tent": Obj({"center": (_position, ...), "half_width": (_rational, ...),
                 "peak": (REAL, 1.0), "base": (REAL, 0.0)}, ScalarField.tent),
    "tent_dip": Obj({"center": (_position, ...), "half_width": (_rational, ...),
                     "depth": (REAL, ...), "top": (REAL, 1.0)}, ScalarField.tent_dip),
    "samples": Obj({"values": (_samples, ...)},
                   lambda values: ScalarField.from_samples(values, len(values))),
    "product": Obj({"factors": (ListOf(FIELD, 2, 2), ...)},
                   lambda factors: ScalarField.product(*factors)),
})

SYMBOL.kinds.update({
    "identity": Obj({}, SymbolMap.identity),
    "rotation": Obj({"shift": (_position, ...)}, SymbolMap.rotation),
    "doubling": Obj({}, SymbolMap.doubling),
    "constant_on_arc": Obj(
        {"value": (_position, ...), "center": (_position, ...),
         "half_width": (_rational, ...), "base": (SYMBOL, None)},
        lambda value, center, half_width, base:
            SymbolMap.constant_on_arc(value, Arc(center, half_width), base)),
    "table": Obj({"map": (_indices, ...)},
                 lambda map: SymbolMap.from_table(map, len(map))),
})

ATOM = Obj({"pos": (_position, ...), "re": (REAL, ...),
            "im": (REAL, 0.0)}, lambda pos, re, im: (pos, complex(re, im)))
TERM = Obj({"g": (FIELD, ...), "atoms": (ListOf(ATOM), ...)},
           lambda g, atoms: (g, AtomicMeasure.from_atoms(atoms)))

OPERATOR.kinds.update({
    "zero": Obj({}, zero_operator),
    "finite_rank": Obj({"terms": (ListOf(TERM), ...)},
                       lambda terms: FiniteRankOperator(tuple(terms))),
    "weighted_composition": Obj({"weight": (FIELD, ...), "symbol": (SYMBOL, ...)},
                                lambda weight, symbol: WeightedComposition(weight, symbol)),
    "scaled": Obj({"coeff": (COMPLEX, ...), "inner": (OPERATOR, ...)},
                  lambda coeff, inner: scaled(inner, coeff)),
    "sum": Obj({"terms": (ListOf(OPERATOR), ...)},
               lambda terms: sum(terms, OperatorExpr(()))),
})

DISK_FUNCTION.kinds.update({
    "constant": Obj(COMPLEX.spec,
                    lambda re, im: dsk.DiskFunction.constant(complex(re, im))),
    "polynomial": Obj({"coeffs": (ListOf(COMPLEX), ...)}, dsk.DiskFunction.polynomial),
    "scaled_identity": Obj(
        COMPLEX.spec, lambda re, im: dsk.DiskFunction.scaled_identity(complex(re, im))),
    "half_plus": Obj({"omega": (COMPLEX, ...)}, dsk.DiskFunction.half_plus),
    "blaschke": Obj(
        {"zeros": (ListOf(COMPLEX, 0), ...), "constant": (COMPLEX, 1 + 0j),
         "scale": (COMPLEX, 1 + 0j)},
        lambda zeros, constant, scale: dsk.DiskFunction.blaschke_multiple(
            dsk.BlaschkeProduct(unimodular_constant=constant, zeros=tuple(zeros)), scale)),
})

DISK_OPERATOR = Kinds("disk operator", {"point_eval": Obj(
    {"tau": (COMPLEX, ...), "g": (DISK_FUNCTION, ...), "c": (COMPLEX, ...)},
    dsk.RankOneDiskOperator)})

SPACE = Kinds("space", {"circle": Obj(
    {"n": (SIZE, None), "sizes": (ListOf(SIZE), None)}, dict)})


# ---------------------------------------------------------------------------
# scenario object
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """The decoded JSON, space's n and sizes, then one field per _SCENARIO key."""

    raw: dict
    n: int | None
    sizes: list[int] | None
    schema_version: str
    seed: int
    weight: ScalarField | None
    symbol: SymbolMap | None
    symbol2: SymbolMap | None
    t: float | None
    operator: SupportsMeasureAt
    disk: dict
    checks: list[dict]

    def grid(self) -> GridCircle:
        if self.n is None:
            raise ScenarioError("scenario.space.n", "this check needs a single grid size")
        return GridCircle(self.n)


def _version(value: Any, path: str, n: int | None = None, depth: int = 0) -> str:
    if value != SCHEMA_VERSION:
        raise ScenarioError(path, f"unsupported version {value!r}")
    return value


def _check_entry(entry: Any, path: str, n: int | None = None, depth: int = 0) -> dict:
    """A check's name and keys are fixed at parse time; its values are read
    when it runs (see _run_one)."""
    if not isinstance(entry, dict) or "name" not in entry:
        raise ScenarioError(path, "expected a check object with a \"name\"")
    name = entry["name"]
    if not isinstance(name, str) or name not in CHECKS:
        raise ScenarioError(f"{path}.name", f"unknown check {name!r}; "
                            f"valid names: {sorted(CHECKS)}")
    _check_keys(entry, path, CHECKS[name].params, fixed=("name",))
    for key, value in entry.items():
        if not _nests_at_most(value, MAX_NESTING):
            raise ScenarioError(f"{path}.{key}", f"nested past {MAX_NESTING} levels")
    return dict(entry)


def _nests_at_most(value: Any, levels: int) -> bool:
    if not isinstance(value, (dict, list)):
        return True
    children = value.values() if isinstance(value, dict) else value
    return levels > 0 and all(_nests_at_most(v, levels - 1) for v in children)


#: Top-level keys; "space" is read first, since its n sizes the components.
_SCENARIO = {
    "schema_version": (_version, SCHEMA_VERSION),
    "seed": (INT, 0),
    "weight": (FIELD, None),
    "symbol": (SYMBOL, None),
    "symbol2": (SYMBOL, None),
    "t": (Real(0.0, 1.0), None),
    "operator": (OPERATOR, zero_operator()),
    "disk": (Obj({"weight": (DISK_FUNCTION, None), "symbol": (DISK_FUNCTION, None),
                  "operator": (DISK_OPERATOR, None)}, dict), {}),
    "checks": (ListOf(_check_entry), ...),
}


def parse_scenario(obj: Any) -> Scenario:
    space = {"n": None, "sizes": None}
    if isinstance(obj, dict) and "space" in obj:
        space = SPACE(obj["space"], "scenario.space")
    return Scenario(raw=obj, **space,
                    **_read(obj, "scenario", _SCENARIO, space["n"], fixed=("space",)))


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):  # NaN, Infinity, or a literal past the float range
        raise ValueError(f"non-finite number {token}")
    return x


def parse_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        # malformed JSON or UTF-8, a non-finite number, an over-long integer
        except (ValueError, RecursionError) as exc:
            raise ScenarioError("scenario", f"invalid JSON: {exc}") from None
    return parse_scenario(obj)


# ---------------------------------------------------------------------------
# check runners: each takes the scenario and every declared parameter as a
# keyword, and returns the record's verdict, values and witness, plus any
# "params" the echo adds to the declared ones
# ---------------------------------------------------------------------------

def _need(value: Any, where: str):
    if value is None:
        raise ScenarioError(f"scenario.{where}", "required by this check")
    return value


def _wc(sc: Scenario) -> WeightedComposition:
    return WeightedComposition(_need(sc.weight, "weight"), _need(sc.symbol, "symbol"))


def _run_equation(sc: Scenario, tol: float) -> dict:
    res = equation_holds(_wc(sc), sc.operator, sc.grid(), tol=tol)
    return {"params": {"n": sc.n},
            "verdict": "holds" if res.holds else "fails",
            "values": {"lhs": res.lhs, "rhs": res.rhs, "gap": res.gap}}


def _run_criterion_sweep(sc: Scenario, tol: float) -> dict:
    grid = sc.grid()
    wc = _wc(sc)
    sweep = criterion_sweep(wc, sc.operator, grid, tol=tol)
    eq = equation_holds(wc, sc.operator, grid, tol=tol)
    return {"params": {"n": sc.n},
            "verdict": "holds" if sweep.holds else "fails",
            "values": {
                "equation_holds": eq.holds,
                "agrees_with_equation": sweep.holds == eq.holds,
                "levels": [
                    {"epsilon": r.epsilon, "active_set_size": r.active_set_size,
                     "sup_value": r.sup_value, "holds": r.holds}
                    for r in sweep.results
                ]}}


def _run_rotation_max(sc: Scenario, tol: float, lambda_grid: int) -> dict:
    res = rotation_max_norm(_wc(sc), sc.operator, sc.grid(), lambda_grid=lambda_grid, tol=tol)
    deviation = abs(res.max - res.expected)
    return {"params": {"n": sc.n},
            "verdict": "holds" if deviation <= tol else "fails",
            "values": {"max": res.max, "expected": res.expected,
                       "deviation": deviation, "searched": res.searched,
                       "argmax_lambda": res.argmax_lambda}}


def _run_convex(sc: Scenario, tol: float) -> dict:
    res = convex_center_check(_need(sc.t, "t"), _need(sc.symbol, "symbol"),
                              _need(sc.symbol2, "symbol2"), sc.operator,
                              sc.grid(), tol=tol)

    def summary(a):
        if not a.size:
            return {"count": 0}
        return {"count": int(a.size), "max": float(a.max()), "min": float(a.min())}

    return {"params": {"t": sc.t, "n": sc.n},
            "verdict": "holds" if res.holds else "fails",
            "values": {"norm": res.norm, "upper": res.upper, "gap": res.gap,
                       "delta": summary(res.deficiency[~res.same_symbol]),
                       "delta_tilde": summary(res.deficiency[res.same_symbol])}}


def _run_s_epsilon(sc: Scenario, epsilon: float) -> dict:
    fraction = s_epsilon_fraction(_wc(sc), sc.operator, epsilon, sc.grid())
    return {"params": {"n": sc.n},
            "verdict": "computed",
            "values": {"fraction": fraction}}


def _run_refinement(sc: Scenario, sizes: list[int] | None, tol: float) -> dict:
    where = "check.sizes" if sizes else "scenario.space.sizes"
    sizes = sizes or sc.sizes
    if not sizes:
        raise ScenarioError("check.sizes",
                            "refinement needs sizes here or in space.sizes")
    wc = _wc(sc)
    try:
        seq = refinement_convergence(wc.u, wc.phi, sc.operator, sizes, tol=tol)
    except ValueError as exc:  # a rule on the sizes names the key they came from
        if _key_at_fault(exc, ("sizes",)):
            raise ScenarioError(where, str(exc)) from None
        raise
    return {"params": {"sizes": list(sizes)},
            "verdict": "computed",
            "values": {"gaps": [
                {"n": gp.n, "gap": gp.gap, "perturbed": gp.perturbed,
                 "upper": gp.upper, "nowhere_dense_ok": gp.nowhere_dense_ok}
                for gp in seq]}}


def _cex_record(res, n: int) -> dict:
    return {"params": {"n": n},
            "verdict": "gap-certified",
            "values": {"certified_gap": res.certified_gap,
                       "perturbed_norm": res.perturbed, "upper": res.upper,
                       "weight_sup": res.weight_sup, "t_norm": res.t_norm},
            "witness": dict(res.detail)}


def _run_cex_modulus(sc: Scenario, tol: float) -> dict:
    wc = _wc(sc)
    res = counterexample_nonconstant_modulus(wc.u, wc.phi, sc.grid(), tol=tol)
    return _cex_record(res, sc.n)


def _run_cex_preimage(sc: Scenario, target: Fraction, center: Fraction,
                      half_width: Fraction, tol: float) -> dict:
    wc = _wc(sc)
    res = counterexample_fat_preimage(wc.u, wc.phi, target, Arc(center, half_width),
                                      sc.grid(), tol=tol)
    return _cex_record(res, sc.n)


def _ladder(radii: list[float], **counts: int) -> dsk.SearchLadder:
    ladder = dsk.SearchLadder(radii=tuple(radii), **counts)
    pool = len(ladder.zero_pool())  # validates radii
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


def _run_disk_c_conditions(sc: Scenario, samples: int, tol: float) -> dict:
    res = dsk.check_c_conditions(_need(sc.disk.get("weight"), "disk.weight"),
                                 _need(sc.disk.get("symbol"), "disk.symbol"),
                                 samples=samples, tol=tol)
    return {"verdict": "all-hold" if res.all_hold else "violated",
            "values": {"weight_modulus_constant": res.weight_modulus_constant,
                       "symbol_inner": res.symbol_inner,
                       "symbol_nonconstant": res.symbol_nonconstant,
                       "detail": dict(res.detail)}}


def _run_disk_lower_bound(sc: Scenario, **ladder: Any) -> dict:
    res = dsk.disk_norm_lower_bound(_need(sc.disk.get("weight"), "disk.weight"),
                                    _need(sc.disk.get("symbol"), "disk.symbol"),
                                    sc.disk.get("operator"), ladder=_ladder(**ladder))
    return {"verdict": "computed",
            "values": {"lower_bound": res.bound, "family_size": res.family_size},
            "witness": dict(res.witness)}


def _run_disk_certified(sc: Scenario, omega: complex, epsilon: float,
                        half_angle: float, samples: int) -> dict:
    arc = dsk.ArcNeighborhood(omega, half_angle)
    res = dsk.certified_counterexample_bound(_need(sc.disk.get("weight"), "disk.weight"),
                                             _need(sc.disk.get("symbol"), "disk.symbol"),
                                             omega, epsilon, arc, samples=samples)
    certified = res.valid and res.margin > 0
    return {"verdict": "certified" if certified else "not-certified",
            "values": {"bound": res.bound, "margin": res.margin,
                       "valid": res.valid, "on_arc": res.on_arc,
                       "off_arc": res.off_arc, "delta": res.delta,
                       "detail": dict(res.detail)}}


def _run_disk_automorphism(sc: Scenario, **ladder: Any) -> dict:
    ladder = _ladder(**ladder)
    symbol = _need(sc.disk.get("symbol"), "disk.symbol")
    if symbol.kind != "blaschke":
        raise ScenarioError("scenario.disk.symbol",
                            "automorphism check needs a blaschke symbol")
    if abs(abs(symbol.scale) - 1.0) > dsk.UNIMODULAR_TOL:
        raise ScenarioError("scenario.disk.symbol",
                            "automorphism scale must be unimodular")
    B = dsk.BlaschkeProduct(
        unimodular_constant=symbol.scale * symbol.blaschke.unimodular_constant,
        zeros=symbol.blaschke.zeros)
    operator = _need(sc.disk.get("operator"), "disk.operator")
    res = dsk.automorphism_identity_check(B, operator, ladder=ladder)
    return {"verdict": "computed",
            "values": {"lower_bound": res.lower, "target": res.target,
                       "deficit": res.deficit},
            "witness": dict(res.witness)}


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """A check's CLI group (the subcommand that runs it besides verify:
    "sweep", "counterexample" or "disk"; "verify" for verify only), its
    runner, and the spec of its parameters."""

    group: str
    run: Callable[..., dict]
    params: dict


#: Default of a tol parameter: the tolerance the run was given.
RUN_TOL = object()

_tol = Real(0.0, cast=False)
TOL = (_tol, RUN_TOL)
SAMPLES = (Int(1, MAX_POINTS), 4096)
LADDER = {"radii": (ListOf(REAL), dsk.SearchLadder.radii),
          "max_depth": (Int(0), dsk.SearchLadder.max_depth),
          "max_monomial": (Int(0, MAX_MONOMIAL), dsk.SearchLadder.max_monomial),
          "samples": SAMPLES}

CHECKS: dict[str, Check] = {
    "equation": Check("verify", _run_equation, {"tol": TOL}),
    "criterion-sweep": Check("verify", _run_criterion_sweep, {"tol": TOL}),
    "rotation-max": Check("verify", _run_rotation_max,
                          {"tol": TOL, "lambda_grid": (Int(1, MAX_POINTS), 4096)}),
    "convex": Check("verify", _run_convex, {"tol": TOL}),
    "s-epsilon": Check("verify", _run_s_epsilon, {"epsilon": (REAL, ...)}),
    "refinement": Check("sweep", _run_refinement,
                        {"sizes": (ListOf(SIZE), None), "tol": TOL}),
    "counterexample-modulus": Check("counterexample", _run_cex_modulus, {"tol": TOL}),
    "counterexample-preimage": Check(
        "counterexample", _run_cex_preimage,
        {"target": (_position, ...), "center": (_position, ...),
         "half_width": (_rational, ...), "tol": TOL}),
    "disk-c-conditions": Check("disk", _run_disk_c_conditions,
                               {"samples": SAMPLES, "tol": TOL}),
    "disk-lower-bound": Check("disk", _run_disk_lower_bound, LADDER),
    "disk-certified": Check(
        "disk", _run_disk_certified,
        {"omega": (COMPLEX, ...), "epsilon": (REAL, ...), "half_angle": (REAL, ...),
         "samples": SAMPLES}),
    "disk-automorphism": Check("disk", _run_disk_automorphism, LADDER),
}


def _run_one(sc: Scenario, entry: dict, tol: float, timings: bool) -> dict:
    name = entry["name"]
    check = CHECKS[name]
    given = {k: v for k, v in entry.items() if k != "name"}
    record: dict = {"name": name}
    if timings:
        import time
        start = time.perf_counter()
    try:
        args = {k: tol if v is RUN_TOL else v
                for k, v in _read(given, "check", check.params, sc.n).items()}
        out = check.run(sc, **args)
        at = _non_finite(out)
        if at is not None:
            raise ValueError(f"{at[0]} = {at[1]!r} is not finite")
        record.update(out, params={**args, **out.get("params", {})})
    except (ValueError, OverflowError) as exc:
        key = _key_at_fault(exc, check.params)
        record.update({"params": given, "verdict": "error",
                       "error": f"check.{key}: {exc}" if key else str(exc)})
    if timings:
        record["runtime_ms"] = (time.perf_counter() - start) * 1000.0
    return record


def _non_finite(value: Any, path: str = "") -> tuple[str, Any] | None:
    """The dotted path and value of the first NaN or infinity in a check's
    output, in the order the check built it; None if every number is
    finite."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, (float, complex, np.inexact)) and not cmath.isfinite(value):
        return path, value
    else:
        return None
    return next(filter(None, (_non_finite(v, p) for p, v in items)), None)


#: The scenario keys that hold components, and the grid-sized list of each
#: component kind that has one.
_COMPONENTS = ("weight", "symbol", "symbol2", "operator", "disk")
_BULK = {"samples": "values", "table": "map"}


def _pinned(component: Any) -> Any:
    """A parsed component as echoed: each samples or table list becomes its
    length and the sha256 of its canonical JSON (sorted keys, compact)."""
    if isinstance(component, list):
        return [_pinned(v) for v in component]
    if not isinstance(component, dict):
        return component
    bulk = _BULK.get(component.get("kind"))
    return {k: _digest(v) if k == bulk else _pinned(v) for k, v in component.items()}


def _digest(values: list) -> dict:
    """{length, sha256} of one json.dumps(values, sort_keys=True,
    separators=(",", ":"))."""
    import hashlib
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return {"length": len(values), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def run_scenario(sc: Scenario, tol: float = 1e-9, timings: bool = False,
                 subcommand: str = "verify") -> dict:
    """Run every check of a scenario and assemble the report dict.

    A subcommand other than verify runs only its Check.group's checks, and
    a scenario with any other check raises ScenarioError, as does a tol that
    is not a finite real >= 0; a subcommand that is neither verify nor a
    group raises ValueError.  Individual check failures (bad parameter
    values or preconditions, missing pieces, float overflow, a NaN or
    infinity in a check's values) are recorded with verdict "error" and
    never abort the run; an InvariantViolation does abort, since it means
    the tool itself is wrong.
    """
    tol = _tol(tol, "tol")
    if subcommand != "verify" and subcommand not in {c.group for c in CHECKS.values()}:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    allowed = sorted(name for name, c in CHECKS.items() if subcommand in ("verify", c.group))
    refused = [entry["name"] for entry in sc.checks if entry["name"] not in allowed]
    if refused:
        raise ScenarioError("scenario.checks", f"check {refused[0]!r} is not valid here; "
                                               f"allowed: {allowed}")
    with shared_compilation():  # every check reads the same compiled profiles
        records = [_run_one(sc, entry, tol, timings) for entry in sc.checks]
    echo = {k: _pinned(v) if k in _COMPONENTS else v for k, v in sc.raw.items()}
    return {**report_envelope(sc.seed), "scenario": echo, "checks": records}


def report_envelope(seed: int) -> dict:
    """The keys every report opens with: schema version, generator and seed."""
    from . import __version__
    return {"schema_version": SCHEMA_VERSION,
            "generator": {"name": "daugavetlab", "version": __version__}, "seed": seed}


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """value with string keys, rationals as exact "p/q" strings, complex
    numbers as {"re", "im"} pairs and numpy scalars as Python values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.complexfloating):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


def render_report_json(report: dict) -> str:
    """Strict JSON, keys sorted and indented by two spaces: a NaN or
    infinity raises ValueError instead of printing."""
    return json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_report_csv(report: dict) -> str:
    """Gap sequences as flat CSV (check name, grid size, gap)."""
    lines = ["check,n,gap"]
    for record in report.get("checks", []):
        gaps = record.get("values", {}).get("gaps")
        if not gaps:
            continue
        for gp in gaps:
            if not math.isfinite(gp["gap"]):
                raise ValueError(f"non-finite gap {gp['gap']!r} at n={gp['n']}")
            lines.append(f"{record['name']},{gp['n']},{gp['gap']!r}")
    return "\n".join(lines) + "\n"
