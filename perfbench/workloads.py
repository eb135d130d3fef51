"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into a *deck*: a fixed-order list of entries
that one benchmark round runs once each.  A circle or disk deck has the
same shape for every seed (which template sits at which position, grid
sizes, term and atom counts, ladder depth and sample counts); the seed
draws only the numbers inside it.  A selftest deck is a run of successive
seeds.  Rounds therefore do nearly the same work whatever the seed, which
keeps medians comparable across seeds and across runs of different length.

Circle and disk entries are ``(scenario, expect)`` pairs.  ``scenario`` is
plain JSON that the program parses like a scenario file; ``expect`` holds
the closed forms the benchmark planted and checks the report against, and
is never shown to the program.  Selftest entries are seeds.

Inputs stay inside the scenario format as the roadmap plans to tighten it:
grid coordinates are rational strings only, ``phase_grid`` is never set,
and ``threads``/``timings`` are never passed.  Every scenario lists exactly
the checks whose preconditions its inputs meet, so a verdict of ``error``
always means a failure.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

#: Templates and grid sizes of one circle-large round, about 18 s at the
#: seed commit on a 2-core x86-64 host.  All but the one-atom README case
#: cost 4-6 s, so the median pools three of them.
CIRCLE_DECK = (("tabulated", 4096), ("closed", 4096),
               ("dip", 8192), ("readme", 8192))

#: (template, max_depth, samples) of one disk-ladder round.  Ladder size
#: times samples is 11-13 million evaluations for every entry, so the
#: median pools all of them.  The C-conditions are sampled at 4096 points.
DISK_DECK = (("inner", 4, 16384), ("inner", 5, 8192), ("certified", 5, 16384),
             ("inner", 5, 8192))

#: Successive selftest seeds per round; battery cost varies by about 10%
#: with the seed, so a round averages several.
SELFTEST_DECK = 8


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _cx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _pos(k: int, n: int) -> str:
    """Rational-string grid coordinate k/n, reduced into [0, 1)."""
    return str(Fraction(int(k) % n, n))


def _unit(rng: np.random.Generator) -> complex:
    return cmath.exp(2j * math.pi * float(rng.random()))


def _samples(values) -> dict:
    return {"kind": "samples", "values": [_cx(v) for v in values]}


def _closed_g(rng: np.random.Generator, kind: str, n: int) -> dict:
    if kind == "cosine":
        return {"kind": "cosine", "amplitude": 0.2 + 0.6 * float(rng.random()),
                "offset": float(rng.standard_normal()),
                "frequency": int(rng.integers(1, 5))}
    if kind == "tent":
        return {"kind": "tent", "center": _pos(rng.integers(0, n), n),
                "half_width": _pos(rng.integers(n // 64, n // 4), n),
                "peak": 1.0 + float(rng.random()), "base": float(rng.random()) - 0.5}
    if kind == "unimodular_exp":
        return {"kind": "unimodular_exp", "winding": int(rng.integers(0, 4)),
                "scale": _cx((0.5 + float(rng.random())) * _unit(rng))}
    if kind == "constant":
        return {"kind": "constant", **_cx((0.5 + float(rng.random())) * _unit(rng))}
    raise ValueError(kind)


def _atoms(rng: np.random.Generator, n: int, count: int) -> list[dict]:
    idx = rng.choice(n, size=count, replace=False)
    return [{"pos": _pos(k, n), "re": float(rng.standard_normal()),
             "im": float(rng.standard_normal())} for k in idx]


def _finite_rank(rng: np.random.Generator, n: int, g_kinds, atom_counts) -> dict:
    """Terms pair each g kind with an atom count; both orders are shuffled so
    the seed moves which field carries how many atoms, never the totals."""
    kinds = list(g_kinds)
    counts = list(atom_counts)
    rng.shuffle(kinds)
    rng.shuffle(counts)
    terms = []
    for kind, count in zip(kinds, counts):
        if kind == "samples":
            g = _samples(0.7 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        else:
            g = _closed_g(rng, kind, n)
        terms.append({"g": g, "atoms": _atoms(rng, n, count)})
    return {"kind": "finite_rank", "terms": terms}


def _convex_part(rng: np.random.Generator, n: int) -> dict:
    return {"symbol2": {"kind": "rotation", "shift": _pos(rng.integers(1, n), n)},
            "t": round(0.2 + 0.6 * float(rng.random()), 6)}


def _epsilon_check(rng: np.random.Generator) -> dict:
    return {"name": "s-epsilon", "epsilon": round(0.01 + 0.49 * float(rng.random()), 6)}


def _arc(rng: np.random.Generator, n: int, widest: int) -> tuple[int, int]:
    """(center index, half width in grid steps) of a planted fat arc."""
    return int(rng.integers(0, n)), int(rng.integers(n // 64, widest + 1))


def circle_tabulated(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """Sampled weight of constant modulus c, a table symbol that collapses a
    planted arc onto one target, and three terms mixing sampled and
    closed-form g.  The fat-preimage constructor's gap is then c/2."""
    c = 0.5 + 1.5 * float(rng.random())
    weight = _samples(c * np.exp(2j * np.pi * rng.random(n)))
    mult = int(rng.choice([2, 3, 5]))
    shift = int(rng.integers(0, n))
    table = [(mult * k + shift) % n for k in range(n)]
    center, half = _arc(rng, n, n // 16)
    target = int(rng.integers(0, n))
    for k in range(center - half, center + half + 1):
        table[k % n] = target
    scenario = {
        "space": {"kind": "circle", "n": n},
        "weight": weight,
        "symbol": {"kind": "table", "map": table},
        **_convex_part(rng, n),
        "operator": _finite_rank(rng, n, ("samples", "cosine", "tent"), (8, 3, 1)),
        "checks": [
            {"name": "equation"}, {"name": "criterion-sweep"},
            {"name": "rotation-max"}, _epsilon_check(rng), {"name": "convex"},
            {"name": "counterexample-preimage", "target": _pos(target, n),
             "center": _pos(center, n), "half_width": _pos(half, n)},
        ],
    }
    return scenario, {"constant_modulus": c, "preimage_gap": c / 2.0}


def circle_closed(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """Unimodular closed-form weight and a closed-form symbol constant on a
    planted arc, so every circle check but the modulus constructor applies.
    With |u| = 1 the fat-preimage gap is the canonical 1/2."""
    center, half = _arc(rng, n, n // 4)
    target = int(rng.integers(0, n))
    base = ({"kind": "doubling"} if rng.integers(0, 2) == 0 else
            {"kind": "rotation", "shift": _pos(rng.integers(1, n), n)})
    scenario = {
        "space": {"kind": "circle", "n": n},
        "weight": {"kind": "unimodular_exp", "winding": int(rng.integers(0, 4)),
                   "scale": _cx(_unit(rng))},
        "symbol": {"kind": "constant_on_arc", "value": _pos(target, n),
                   "center": _pos(center, n), "half_width": _pos(half, n),
                   "base": base},
        **_convex_part(rng, n),
        "operator": _finite_rank(rng, n, ("unimodular_exp", "cosine"), (5, 2)),
        "checks": [
            {"name": "equation"}, {"name": "criterion-sweep"},
            {"name": "rotation-max"}, _epsilon_check(rng), {"name": "convex"},
            {"name": "counterexample-preimage", "target": _pos(target, n),
             "center": _pos(center, n), "half_width": _pos(half, n)},
            {"name": "refinement", "sizes": [1024, 2048, 4096]},
        ],
    }
    return scenario, {"constant_modulus": 1.0, "preimage_gap": 0.5}


def circle_dip(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """Weight with a tent dip of depth 1/2 below a plateau at 1 and a random
    table symbol.  The modulus constructor hangs a unit tent on the dip, so
    its certified gap is the canonical 1/2 whatever the symbol."""
    center = int(rng.integers(0, n))
    half = int(rng.integers(n // 32, n // 8 + 1))
    scenario = {
        "space": {"kind": "circle", "n": n},
        "weight": {"kind": "tent_dip", "center": _pos(center, n),
                   "half_width": _pos(half, n), "depth": 0.5, "top": 1.0},
        "symbol": {"kind": "table", "map": [int(k) for k in rng.integers(0, n, n)]},
        **_convex_part(rng, n),
        "operator": _finite_rank(rng, n, ("samples", "constant"), (6, 2)),
        "checks": [
            {"name": "equation"}, {"name": "criterion-sweep"},
            _epsilon_check(rng), {"name": "convex"},
            {"name": "counterexample-modulus"},
        ],
    }
    return scenario, {"modulus_gap": 0.5}


def circle_readme(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """The README example: u = 1, angle doubling, T f = -f(0) * window with
    the cosine window (1 + cos 2 pi s) / 2.  Its gap is (1 - cos(2 pi/n))/2
    at every grid size, ||T|| = 1, and the aligned mass is nonzero only at
    s = 0, so the s-epsilon fraction is (n - 1)/n for any epsilon <= 1."""
    scenario = {
        "space": {"kind": "circle", "n": n},
        "weight": {"kind": "constant", "re": 1.0},
        "symbol": {"kind": "doubling"},
        **_convex_part(rng, n),
        "operator": {"kind": "finite_rank", "terms": [
            {"g": {"kind": "cosine", "amplitude": 0.5, "offset": 0.5, "frequency": 1},
             "atoms": [{"pos": "0", "re": -1.0}]}]},
        "checks": [
            {"name": "equation"}, {"name": "criterion-sweep"},
            {"name": "rotation-max"}, _epsilon_check(rng), {"name": "convex"},
            {"name": "refinement", "sizes": [64, 128, 256]},
        ],
    }
    return scenario, {"constant_modulus": 1.0, "readme_window": True}


CIRCLE_TEMPLATES = {"tabulated": circle_tabulated, "closed": circle_closed,
                    "dip": circle_dip, "readme": circle_readme}


def disk_inner(rng: np.random.Generator, depth: int, samples: int) -> tuple[dict, dict]:
    """Blaschke-multiple weight (|u| = |scale| on the boundary) and a
    one-zero Blaschke symbol, which is an automorphism: the C-conditions
    hold and the ladder certifies ||C_phi + T|| = 1 + ||T|| from below."""
    scale = (0.5 + 1.5 * float(rng.random())) * _unit(rng)
    g = (0.5 + 0.5 * float(rng.random())) * _unit(rng)
    c = (0.5 + 0.5 * float(rng.random())) * _unit(rng)
    ladder = {"max_depth": depth, "samples": samples}
    scenario = {
        "disk": {
            "weight": {"kind": "blaschke",
                       "zeros": [_cx(0.7 * math.sqrt(float(rng.random())) * _unit(rng))],
                       "scale": _cx(scale)},
            "symbol": {"kind": "blaschke", "constant": _cx(_unit(rng)),
                       "zeros": [_cx(0.5 * math.sqrt(float(rng.random())) * _unit(rng))]},
            "operator": {"kind": "point_eval",
                         "tau": _cx(0.5 * math.sqrt(float(rng.random())) * _unit(rng)),
                         "g": {"kind": "constant", **_cx(g)}, "c": _cx(c)},
        },
        "checks": [
            {"name": "disk-c-conditions", "samples": 4096},
            {"name": "disk-lower-bound", **ladder},
            {"name": "disk-automorphism", **ladder},
        ],
    }
    return scenario, {"c_conditions": "all-hold", "automorphism_deficit": 1e-2,
                      "norm_bound": abs(scale) + abs(c) * abs(g)}


def disk_certified(rng: np.random.Generator, depth: int, samples: int) -> tuple[dict, dict]:
    """Constant weight u, contraction symbol phi(z) = s z and the canonical
    rank-one T at omega.  The arc and epsilon are planted inside the
    certificate's hypotheses, so ||uC_phi - T|| is certified below
    |u| + ||T||; the scenario's operator is -T, whose ladder lower bound
    must stay under that certified upper bound."""
    u = (0.5 + 1.5 * float(rng.random())) * _unit(rng)
    s = (0.25 + 0.25 * float(rng.random())) * _unit(rng)
    omega = _unit(rng)
    half_angle = round(0.05 + 0.1 * float(rng.random()), 6)
    epsilon = round(abs(s) * half_angle * 1.1, 9)
    scenario = {
        "disk": {
            "weight": {"kind": "constant", **_cx(u)},
            "symbol": {"kind": "scaled_identity", **_cx(s)},
            "operator": {"kind": "point_eval", "tau": _cx(s * omega),
                         "g": {"kind": "half_plus", "omega": _cx(omega)},
                         "c": _cx(-u)},
        },
        "checks": [
            {"name": "disk-certified", "omega": _cx(omega), "epsilon": epsilon,
             "half_angle": half_angle, "samples": samples},
            {"name": "disk-lower-bound", "max_depth": depth, "samples": samples},
        ],
    }
    return scenario, {"certified": True}


DISK_TEMPLATES = {"inner": disk_inner, "certified": disk_certified}


def circle_large(seed: int) -> list[tuple[dict, dict]]:
    return [CIRCLE_TEMPLATES[kind](_rng(seed, i), n)
            for i, (kind, n) in enumerate(CIRCLE_DECK)]


def disk_ladder(seed: int) -> list[tuple[dict, dict]]:
    return [DISK_TEMPLATES[kind](_rng(seed, i), depth, samples)
            for i, (kind, depth, samples) in enumerate(DISK_DECK)]


def selftest_seeds(seed: int) -> list[int]:
    return [seed * SELFTEST_DECK + i for i in range(SELFTEST_DECK)]


def warmup_scenarios() -> list[dict]:
    """Small versions of every template, run once untimed so that lazy
    imports and first-call costs are paid before timing starts."""
    out = [CIRCLE_TEMPLATES[kind](_rng(0, i), 128)[0]
           for i, kind in enumerate(CIRCLE_TEMPLATES)]
    out += [DISK_TEMPLATES[kind](_rng(0, i), 2, 512)[0]
            for i, kind in enumerate(DISK_TEMPLATES)]
    return out


WORKLOADS = ("circle-large", "selftest", "disk-ladder")


def generate(workload: str, seed: int) -> list:
    if workload == "circle-large":
        return circle_large(seed)
    if workload == "disk-ladder":
        return disk_ladder(seed)
    if workload == "selftest":
        return selftest_seeds(seed)
    raise ValueError(f"unknown workload {workload!r}")
