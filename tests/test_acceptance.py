"""Acceptance battery: every headline capability at its stated tolerance.

Each test prints exactly one PASS/FAIL line (visible under pytest -s) and
asserts the same condition, so the suite is green exactly when every line
says PASS.
"""

import math
import time
from fractions import Fraction

from daugavetlab import disk as dsk
from daugavetlab.circle import Arc, GridCircle, ScalarField, SymbolMap
from daugavetlab.criteria import (
    convex_center_check,
    counterexample_fat_preimage,
    counterexample_nonconstant_modulus,
    criterion_sweep,
    equation_holds,
    refinement_convergence,
)
from daugavetlab.measures import direct_norms, norm_oracle, total_variation
from daugavetlab.operators import (
    WeightedComposition,
    operator_norm,
    rank_one,
    rotation_max_norm,
)
from daugavetlab.sampling import (
    default_rng,
    random_finite_rank,
    random_measure,
    random_nonconstant_weight,
    random_symbol,
    random_unimodular_field,
)
from daugavetlab.scenarios import render_report_json
from daugavetlab.selftest import run_selftest


def report(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def window_operator():
    return rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                    at=Fraction(0), scale=-1.0)


def test_01_criterion_matches_equation_on_200_instances():
    rng = default_rng(101)
    grid = GridCircle(64)
    start = time.perf_counter()
    agreements = 0
    for _ in range(200):
        wc = WeightedComposition(random_unimodular_field(rng, grid.n),
                                 random_symbol(rng, grid))
        T = random_finite_rank(rng, grid)
        agreements += (criterion_sweep(wc, T, grid).holds
                       == equation_holds(wc, T, grid).holds)
    elapsed = time.perf_counter() - start
    report("1 criterion-equivalence",
           agreements == 200 and elapsed < 10.0,
           f"{agreements}/200 agree at n=64 in {elapsed:.2f}s")


def test_02_rotation_identity_on_100_instances():
    rng = default_rng(202)
    grid = GridCircle(64)
    worst = 0.0
    for _ in range(100):
        wc = WeightedComposition(random_unimodular_field(rng, grid.n),
                                 random_symbol(rng, grid))
        T = random_finite_rank(rng, grid)
        res = rotation_max_norm(wc, T, grid)
        expected = wc.weight_sup(grid) + operator_norm(T, grid)
        worst = max(worst, abs(res.max - expected))
    report("2 rotation-maximum", worst <= 1e-12,
           f"worst deviation {worst:.3e} over 100 instances")


def test_03_counterexample_constructors():
    grid = GridCircle(64)
    dip = counterexample_nonconstant_modulus(
        ScalarField.tent_dip(Fraction(0), Fraction(1, 4), depth=0.5),
        SymbolMap.identity(), grid)
    arc = Arc(Fraction(0), Fraction(1, 4))
    fat = counterexample_fat_preimage(
        ScalarField.constant(1.0),
        SymbolMap.constant_on_arc(Fraction(0), arc), Fraction(0), arc, grid)
    canonical_ok = (abs(dip.perturbed - 1.5) <= 1e-9
                    and abs(dip.certified_gap - 0.5) <= 1e-9
                    and abs(fat.perturbed - 1.5) <= 1e-9
                    and abs(fat.certified_gap - 0.5) <= 1e-9)

    rng = default_rng(303)
    smallest = float("inf")
    certified = 0
    for _ in range(100):
        u = random_nonconstant_weight(rng, grid.n)
        res = counterexample_nonconstant_modulus(u, random_symbol(rng, grid), grid)
        certified += res.certified_gap > 1e-6
        smallest = min(smallest, res.certified_gap)
    report("3 counterexamples",
           canonical_ok and certified == 100,
           f"canonical 1.5/0.5 within 1e-9; {certified}/100 random gaps > 1e-6 "
           f"(smallest {smallest:.3e})")


def test_04_refinement_gap_law():
    sizes = [2 ** k for k in range(3, 11)]
    seq = refinement_convergence(ScalarField.constant(1.0), SymbolMap.doubling(),
                                 window_operator(), sizes)
    gaps = [gp.gap for gp in seq]
    law_ok = all(abs(gp.gap - (1 - math.cos(2 * math.pi / gp.n)) / 2) <= 1e-12
                 for gp in seq)
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    tail_ok = gaps[-1] < 1e-5

    arc = Arc(Fraction(0), Fraction(1, 4))
    control = refinement_convergence(
        ScalarField.constant(1.0), SymbolMap.constant_on_arc(Fraction(0), arc),
        rank_one(ScalarField.tent(Fraction(0), Fraction(1, 4), peak=-1.0, base=-0.5),
                 at=Fraction(0)),
        sizes)
    control_ok = all(gp.gap >= 0.49 for gp in control)

    report("4 refinement-law",
           law_ok and shrinking and tail_ok and control_ok,
           f"gap matches (1-cos(2pi/n))/2 to 1e-12 on n=8..1024, "
           f"gap(1024)={gaps[-1]:.3e}, control gap stays "
           f">= {min(gp.gap for gp in control):.3f}")


def test_05_convex_combinations():
    T = window_operator()
    n = 1024
    grid = GridCircle(n)
    worst_gap = 0.0
    worst_delta = -float("inf")
    for t in (0.0, 0.25, 0.5, 1.0):
        res = convex_center_check(t, SymbolMap.doubling(),
                                  SymbolMap.rotation(Fraction(1, n)), T, grid)
        worst_gap = max(worst_gap, res.gap)
        worst_delta = max(worst_delta, float(res.deficiency.max()))

    noncvx = counterexample_nonconstant_modulus(
        ScalarField.cosine(amplitude=1.0, offset=0.0, frequency=1),
        SymbolMap.doubling(), GridCircle(64))

    report("5 convex-combinations",
           worst_gap < 1e-4 and worst_delta <= 1e-12
           and noncvx.certified_gap > 0.4,
           f"gap(1024) <= {worst_gap:.3e} over t in {{0, .25, .5, 1}}, "
           f"deficiencies <= {worst_delta:.1e}, "
           f"nonconvex witness gap {noncvx.certified_gap:.3f}")


def test_06_measure_norms_against_duality_oracle():
    rng = default_rng(606)
    grid = GridCircle(64)
    worst = 0.0
    decomposed = 0
    for _ in range(500):
        mu = random_measure(rng, grid)
        worst = max(worst, abs(norm_oracle(mu, grid) - total_variation(mu)))
        p, m = mu.atoms[0]
        split = abs(m) + direct_norms(mu, p, -m)[1]
        decomposed += abs(split - total_variation(mu)) <= 1e-12
    report("6 measure-norms", worst <= 1e-12 and decomposed == 500,
           f"500 measures, duality oracle within {worst:.3e}, "
           f"decomposition exact {decomposed}/500")


def test_07_disk_algebra():
    one = dsk.DiskFunction.constant(1.0)
    square = dsk.DiskFunction.polynomial([0.0, 0.0, 1.0])

    conditions = [
        dsk.check_c_conditions(one, square),
        dsk.check_c_conditions(
            dsk.DiskFunction.constant(2j),
            dsk.DiskFunction.blaschke_multiple(
                dsk.BlaschkeProduct(zeros=(0.5 + 0j, 0j)))),
        dsk.check_c_conditions(
            one, dsk.DiskFunction.blaschke_multiple(
                dsk.BlaschkeProduct(zeros=(0.3j, -0.4 + 0j, 0j)))),
    ]
    a_ok = all(c.all_hold for c in conditions)

    T = dsk.RankOneDiskOperator(tau=0.0, g=one, c=-1.0)
    b = dsk.disk_norm_lower_bound(one, square, T)
    b_ok = b.bound >= 1.99

    half = dsk.DiskFunction.scaled_identity(0.5)
    omega = 1 + 0j
    cert = dsk.certified_counterexample_bound(
        one, half, omega, 0.05, dsk.ArcNeighborhood(omega, 0.1))
    negated = dsk.RankOneDiskOperator(tau=cert.operator.tau, g=cert.operator.g,
                                      c=-cert.operator.c)
    sampled = dsk.disk_norm_lower_bound(
        one, half, negated, ladder=dsk.SearchLadder(samples=10_000))
    c_ok = (cert.valid and cert.margin >= 1e-3
            and sampled.bound <= cert.bound + 1e-9)

    auto = dsk.BlaschkeProduct(zeros=(0.5 + 0j,))
    ident = dsk.automorphism_identity_check(
        auto, dsk.RankOneDiskOperator(tau=auto(0.0), g=one, c=1.0))
    d_ok = ident.lower >= 1.99

    report("7 disk-algebra", a_ok and b_ok and c_ok and d_ok,
           f"conditions 3/3, lower bound {b.bound:.4f} >= 1.99, certified "
           f"margin {cert.margin:.2e} dominating {sampled.samples} samples, "
           f"automorphism lower {ident.lower:.4f}")


def test_08_selftest_determinism():
    start = time.perf_counter()
    first = render_report_json(run_selftest(seed=0))
    second = render_report_json(run_selftest(seed=0))
    elapsed = time.perf_counter() - start
    passed = '"passed": true' in first
    report("8 selftest-determinism",
           first == second and passed and elapsed < 60.0,
           f"two runs byte-identical, battery green, {elapsed:.2f}s for both")
