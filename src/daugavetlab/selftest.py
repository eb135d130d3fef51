"""Built-in verification battery.

Runs a fixed, seeded sweep over every capability: exact norms against the
reference summation, criterion/equation agreement on random instances,
rotation extrema, both counterexample constructors at their canonical
parameters, the refinement law, convex combinations of composition
operators, and the disk-algebra searches.  The resulting report is fully
deterministic: same seed, same bytes.
"""

from __future__ import annotations

from fractions import Fraction

from . import disk as dsk
from .circle import Arc, GridCircle, ScalarField, SymbolMap, compiles
from .criteria import (
    convex_center_check,
    counterexample_fat_preimage,
    counterexample_nonconstant_modulus,
    criterion_sweep,
    equation_holds,
    refinement_convergence,
    s_epsilon_fraction,
)
from .measures import norm_oracle, total_variation
from .operators import (
    FiniteRankOperator,
    WeightedComposition,
    rank_one,
    rotation_max_norm,
)
from .sampling import (
    default_rng,
    random_finite_rank,
    random_measure,
    random_nonconstant_weight,
    random_symbol,
    random_unimodular_field,
)
from .scenarios import report_envelope

__all__ = ["run_selftest"]


def _stage(name: str, passed: bool, **values) -> dict:
    record = {"name": name, "passed": bool(passed)}
    if values:
        record["values"] = values
    return record


def _measure_batch(seed: int, rounds: int) -> dict:
    rng = default_rng(seed)
    grid = GridCircle(64)
    worst = 0.0
    for _ in range(rounds):
        mu = random_measure(rng, grid)
        worst = max(worst, abs(norm_oracle(mu, grid) - total_variation(mu)))
    return _stage("measure-norms", worst <= 1e-12, rounds=rounds, worst=worst)


def _random_instance(rng, grid: GridCircle) -> tuple[WeightedComposition, FiniteRankOperator]:
    """uC_phi with a unimodular u and T, drawn in that order: u, phi, T."""
    u = random_unimodular_field(rng, grid.n)
    phi = random_symbol(rng, grid)
    return WeightedComposition(u, phi), random_finite_rank(rng, grid)


def _criterion_batch(seed: int, rounds: int) -> dict:
    rng = default_rng(seed)
    grid = GridCircle(64)
    agreements = 0
    for _ in range(rounds):
        wc, T = _random_instance(rng, grid)
        eq = equation_holds(wc, T, grid)
        sweep = criterion_sweep(wc, T, grid)
        agreements += eq.holds == sweep.holds
    return _stage("criterion-vs-equation", agreements == rounds,
                  rounds=rounds, agreements=agreements)


def _rotation_batch(seed: int, rounds: int) -> dict:
    rng = default_rng(seed)
    grid = GridCircle(64)
    worst = 0.0
    for _ in range(rounds):
        res = rotation_max_norm(*_random_instance(rng, grid), grid)
        worst = max(worst, abs(res.max - res.expected))
    return _stage("rotation-max", worst <= 1e-12, rounds=rounds, worst=worst)


def _canonical_counterexamples() -> list[dict]:
    grid = GridCircle(64)
    u_dip = ScalarField.tent_dip(Fraction(0), Fraction(1, 4), depth=0.5)
    dip = counterexample_nonconstant_modulus(u_dip, SymbolMap.identity(), grid)
    one = ScalarField.constant(1.0)
    arc = Arc(Fraction(0), Fraction(1, 4))
    phi = SymbolMap.constant_on_arc(Fraction(0), arc)
    fat = counterexample_fat_preimage(one, phi, Fraction(0), arc, grid)
    return [_stage(name, abs(res.perturbed - 1.5) <= 1e-9 and abs(res.certified_gap - 0.5) <= 1e-9,
                   perturbed=res.perturbed, gap=res.certified_gap)
            for name, res in (("counterexample-modulus", dip), ("counterexample-preimage", fat))]


def _random_counterexamples(seed: int, rounds: int) -> dict:
    rng = default_rng(seed)
    grid = GridCircle(64)
    ok = 0
    minimum = float("inf")
    for _ in range(rounds):
        u = random_nonconstant_weight(rng, grid.n)
        phi = random_symbol(rng, grid)
        res = counterexample_nonconstant_modulus(u, phi, grid)
        ok += res.certified_gap > 1e-6
        minimum = min(minimum, res.certified_gap)
    return _stage("counterexample-random", ok == rounds,
                  rounds=rounds, smallest_gap=minimum)


def _readme_window() -> tuple[ScalarField, SymbolMap, FiniteRankOperator]:
    """The README window case: u = 1, phi doubling and T f = -f(0) g with
    g = (1 + cos 2 pi s) / 2."""
    g = ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1)
    return (ScalarField.constant(1.0), SymbolMap.doubling(),
            rank_one(g, scale=-1.0, at=Fraction(0)))


def _refinement_stage() -> dict:
    sizes = [2 ** k for k in range(3, 11)]
    seq = refinement_convergence(*_readme_window(), sizes)
    gaps = [gp.gap for gp in seq]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    return _stage("refinement", decreasing and gaps[-1] < 1e-5,
                  first=gaps[0], last=gaps[-1])


def _convex_stage() -> dict:
    grid = GridCircle(64)
    phi = SymbolMap.doubling()
    psi = SymbolMap.rotation(Fraction(1, 64))
    T = rank_one(ScalarField.constant(1.0), scale=-1.0, at=Fraction(0))
    res = convex_center_check(0.4, phi, psi, T, grid)
    return _stage("convex", res.holds and abs(res.norm - 2.0) <= 1e-12,
                  norm=res.norm, gap=res.gap)


def _s_epsilon_stage() -> dict:
    u, phi, T = _readme_window()
    frac = s_epsilon_fraction(WeightedComposition(u, phi), T, 0.01, GridCircle(64))
    return _stage("s-epsilon", frac == Fraction(63, 64), fraction=str(frac))


def _disk_stages() -> list[dict]:
    one = dsk.DiskFunction.constant(1.0)
    square = dsk.DiskFunction.polynomial([0.0, 0.0, 1.0])
    T1 = dsk.RankOneDiskOperator(tau=0.0, g=one, c=-1.0)
    lower = dsk.disk_norm_lower_bound(one, square, T1)

    half = dsk.DiskFunction.scaled_identity(0.5)
    arc = dsk.ArcNeighborhood(1 + 0j, 0.1)
    cert = dsk.certified_counterexample_bound(one, half, 0.05, arc)

    auto = dsk.BlaschkeProduct(zeros=(0.5 + 0j,))
    T2 = dsk.RankOneDiskOperator(tau=auto(0.0), g=one, c=1.0)
    ident = dsk.automorphism_identity_check(auto, T2)

    return [
        _stage("disk-lower-bound", lower.bound >= 1.99, bound=lower.bound),
        _stage("disk-certified", cert.valid and cert.margin >= 1e-3,
               bound=cert.bound, margin=cert.margin),
        _stage("disk-automorphism", ident.deficit <= 1e-2,
               lower=ident.lower, target=ident.target),
    ]


@compiles
def run_selftest(seed: int = 0) -> dict:
    """Run the whole battery; returns a report dict with a per-stage verdict."""
    stages = [
        _measure_batch(seed, rounds=100),
        _criterion_batch(seed + 1, rounds=50),
        _rotation_batch(seed + 2, rounds=25),
        *_canonical_counterexamples(),
        _random_counterexamples(seed + 3, rounds=25),
        _refinement_stage(),
        _convex_stage(),
        _s_epsilon_stage(),
        *_disk_stages(),
    ]
    return {**report_envelope(seed), "kind": "selftest",
            "passed": all(stage["passed"] for stage in stages), "stages": stages}
