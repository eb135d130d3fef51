"""Norm identities, the active-set criterion and the certified counterexamples."""

import dataclasses
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from daugavetlab import criteria, operators
from daugavetlab.circle import (
    Arc,
    GridCircle,
    ScalarField,
    SymbolMap,
    modulus,
)
from daugavetlab.criteria import (
    TARGET_SAMPLES,
    convex_center_check,
    counterexample_fat_preimage,
    counterexample_nonconstant_modulus,
    criterion_sup,
    criterion_sweep,
    equation_holds,
    open_set_criterion,
    refinement_convergence,
    s_epsilon_fraction,
)
from daugavetlab.errors import InvariantViolation
from daugavetlab.measures import total_variation
from daugavetlab.operators import (
    FiniteRankOperator,
    WeightedComposition,
    operator_norm,
    perturbation_profile,
    perturbed_norm,
    rank_one,
    rotation_max_norm,
    zero_operator,
)
from daugavetlab.scenarios import parse_scenario, run_scenario
from daugavetlab.sampling import (
    default_rng,
    random_fat_preimage_setup,
    random_finite_rank,
    random_nonconstant_weight,
    random_symbol,
    random_unimodular_field,
)


def canonical_window_instance(n=64):
    u = ScalarField.constant(1.0)
    phi = SymbolMap.doubling()
    T = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                 at=Fraction(0), scale=-1.0)
    return WeightedComposition(u, phi), T, GridCircle(n)


class TestEquation:
    def test_zero_perturbation_always_holds(self):
        g = GridCircle(32)
        wc = WeightedComposition(ScalarField.unimodular_exp(winding=1),
                                 SymbolMap.doubling())
        res = equation_holds(wc, zero_operator(), g)
        assert res.holds and res.gap == 0.0

    def test_positive_point_mass_holds(self):
        # atom aligned with phi(s) and matching phase adds up, never cancels
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        res = equation_holds(wc, T, g)
        assert res.holds
        assert res.lhs == pytest.approx(2.0, abs=1e-15)

    def test_window_instance_fails_by_the_grid_gap(self):
        wc, T, g = canonical_window_instance(64)
        res = equation_holds(wc, T, g)
        assert not res.holds
        assert res.gap == pytest.approx((1 - math.cos(2 * math.pi / 64)) / 2, abs=1e-14)


class TestCriterion:
    def test_sup_is_zero_when_equation_holds(self):
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        res = criterion_sup(wc, T, 0.5, g)
        assert res.holds and res.sup_value == pytest.approx(0.0, abs=1e-12)
        assert res.active_set_size >= 1

    def test_fat_preimage_sup_is_minus_half(self):
        # on the flattened arc the deficiency is |1 + g(s)| - (1 + |g(s)|);
        # the active set includes points with g = -1/2, where it equals -1
        g = GridCircle(64)
        arc = Arc(Fraction(0), Fraction(1, 4))
        phi = SymbolMap.constant_on_arc(Fraction(0), arc)
        u = ScalarField.constant(1.0)
        gfun = ScalarField.tent(Fraction(0), Fraction(1, 4), peak=-1.0, base=-0.5)
        T = rank_one(ScalarField.product(gfun, u), at=Fraction(0))
        res = criterion_sup(wc := WeightedComposition(u, phi), T, 0.25, g)
        assert not res.holds
        assert res.sup_value <= -0.5

    def test_sweep_agrees_with_equation_on_random_instances(self):
        rng = default_rng(5)
        g = GridCircle(64)
        for _ in range(40):
            u = random_unimodular_field(rng, g.n)
            phi = random_symbol(rng, g)
            T = random_finite_rank(rng, g)
            wc = WeightedComposition(u, phi)
            assert criterion_sweep(wc, T, g).holds == equation_holds(wc, T, g).holds

    def test_sweep_ladder_shape(self):
        wc, T, g = canonical_window_instance(64)
        sw = criterion_sweep(wc, T, g)
        t_norm = operator_norm(T, g)
        eps = [r.epsilon for r in sw.results]
        assert len(eps) == 22
        assert eps[0] == pytest.approx(t_norm)
        assert eps[-1] == pytest.approx(t_norm + 1.0)  # always-active level
        assert all(a > b for a, b in zip(eps[:-1], eps[1:-1]))  # dyadic descent
        assert sw.results[-1].active_set_size == g.n

    def test_sweep_agrees_with_equation_where_the_dyadic_ladder_is_too_coarse(self):
        # from n = 3217 on the window's grid gap is below ||T|| * 2^-20, so
        # only the data level isolates s = 0, where the deficiency is -2
        wc, T, g = canonical_window_instance(4096)
        sw = criterion_sweep(wc, T, g)
        eq = equation_holds(wc, T, g)
        assert not eq.holds and eq.gap > 1e-9
        assert sw.holds == eq.holds
        finest = sw.results[-1]
        assert len(sw.results) == 23
        assert finest.epsilon < operator_norm(T, g) * 2.0 ** -20
        assert finest.active_set_size == 1 and not finest.holds

    def test_data_level_one_rounding_step_below_the_norm(self):
        # the only gap is 2^-53: its half rounds back to ||T|| = 1 and would
        # leave the level's active set empty, so the level sits at the gap
        g = GridCircle(8)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        samples = [1.0, 1.0 - 2.0 ** -53] + [0.0] * 6
        T = rank_one(ScalarField.from_samples(samples, 8), at=Fraction(0))
        sw = criterion_sweep(wc, T, g, tol=0.0)
        assert len(sw.results) == 23
        finest = sw.results[-1]
        assert finest.epsilon == 2.0 ** -53 and finest.active_set_size == 1

    def test_an_epsilon_below_one_rounding_step_keeps_the_points_at_the_norm(self):
        # ||T|| - 1e-12 rounds back to ||T|| = 1e6, so the level is the
        # points that attain ||T||: all 16 here, as at epsilon = 1e-9, and
        # the 8 points of the larger coefficient below
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.constant(1e6), at=Fraction(0))
        assert 1e6 - 1e-12 == 1e6
        res = criterion_sup(wc, T, 1e-12, g)
        assert res.active_set_size == 16 and res.holds
        coarser = criterion_sup(wc, T, 1e-9, g)
        assert (res.active_set_size, res.sup_value) == (coarser.active_set_size,
                                                        coarser.sup_value)
        T = rank_one(ScalarField.from_samples([1e6] * 8 + [1e6 - 1.0] * 8, 16), at=Fraction(0))
        assert criterion_sup(wc, T, 1e-12, g).active_set_size == 8

    def test_zero_operator_sweep_is_single_level(self):
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        sw = criterion_sweep(wc, zero_operator(), g)
        assert sw.holds and len(sw.results) == 1

    def test_open_set_criterion_on_arc(self):
        g = GridCircle(64)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        res = open_set_criterion(wc, T, Arc(Fraction(0), Fraction(1, 8)), g)
        assert res.holds
        assert res.points == 17  # 64/4 + 1 grid points on the closed arc


def per_level_criterion(prof, deficiency, epsilon, tol):
    """criterion_sup at one level by its own pass over the points: the
    per-level rule, the reference for the one-pass routine."""
    tv, t_norm = prof.total_variation, prof.t_norm
    level = t_norm - epsilon
    active = tv >= t_norm if level == t_norm else tv > level
    if not active.any():
        raise InvariantViolation("empty active set; the norm supremum must belong to it")
    sup_value = float(deficiency[active].max())
    if sup_value > 1e-12 * max(1.0, prof.weight_sup, t_norm):
        raise InvariantViolation(f"criterion supremum {sup_value!r} is positive")
    return criteria.CriterionResult(epsilon=float(epsilon), active_set_size=int(active.sum()),
                                    sup_value=sup_value, holds=sup_value >= -tol)


def levels_of(prof, extra=()):
    """The sweep's ladder for the profile's ||T||, and extra levels."""
    t_norm = prof.t_norm
    return [t_norm * 2.0 ** -k for k in range(21) if t_norm > 0.0] + [t_norm + 1.0, *extra]


def profile_with(tv, weight, aligned):
    """A profile with the given total variations and deficiency parts."""
    weight, aligned = np.asarray(weight, dtype=complex), np.asarray(aligned, dtype=complex)
    tv = np.asarray(tv, dtype=float)
    off = tv - np.abs(aligned)
    return operators.PerturbationProfile(weight, aligned, off, tv, np.abs(weight + aligned) + off,
                                         float(np.abs(weight).max()), float(np.abs(weight).min()),
                                         float(tv.max()))


class TestOnePassLevels:
    """Every level of the one-pass routine is what the per-level rule gives."""

    def assert_levels(self, prof, epsilons, tol=1e-9):
        got = criteria._criterion_levels(prof, epsilons, tol)
        want = [per_level_criterion(prof, criteria._deficiency(prof), eps, tol)
                for eps in epsilons]
        # repr tells the bits of every float, a nan included
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert all(type(r.active_set_size) is int for r in got)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        wc, T, g = sampled_instance(seed)
        prof = perturbation_profile(wc, T, g)
        self.assert_levels(prof, levels_of(prof, [1e-300, prof.t_norm / 3]))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_profiles(self, seed):
        rng = np.random.default_rng(seed)
        tv = rng.choice([0.5, 1.0, 1.5, 2.0], 64) * rng.random()
        weight = np.exp(2j * np.pi * rng.random(64))
        aligned = np.where(rng.random(64) < 0.5, 0.0, tv * np.exp(2j * np.pi * rng.random(64)))
        prof = profile_with(tv, weight, aligned)
        self.assert_levels(prof, levels_of(prof, rng.random(8) * prof.t_norm))

    def test_ties_at_the_norm_and_levels_below_one_rounding_step(self):
        tv = [1e6, 1e6, 1e6 - 1.0, 1e6, 0.0, 1e6 - 1e-10, 2.0, 1e6]
        aligned = [-1e6, 1e6, 0.0, 1e6j, 0.0, 0.0, -2.0, 0.0]
        prof = profile_with(tv, np.ones(8), aligned)
        assert 1e6 - 1e-12 == 1e6
        self.assert_levels(prof, levels_of(prof, [1e-12, 1e-10, 2e-10, 0.5, 1.0, 2e-300]))

    def test_the_appended_finest_level(self):
        wc, T, g = canonical_window_instance(4096)
        prof = perturbation_profile(wc, T, g)
        sw = criterion_sweep(wc, T, g)
        assert len(sw.results) == 23
        want = [per_level_criterion(prof, criteria._deficiency(prof), r.epsilon, 1e-9)
                for r in sw.results]
        assert list(sw.results) == want

    def test_zero_operator(self):
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.unimodular_exp(2), SymbolMap.doubling())
        prof = perturbation_profile(wc, zero_operator(), g)
        self.assert_levels(prof, levels_of(prof, [1e-300, 0.5]))

    def test_a_nan_deficiency_propagates_as_the_per_level_rule_does(self):
        prof = profile_with([1.0, 2.0, 2.0, 0.5], [1.0, math.nan, 1.0, 1.0], [0.5, 1.0, 1.0, 0.0])
        self.assert_levels(prof, levels_of(prof))

    def test_an_empty_active_set_is_an_invariant_violation(self):
        prof = profile_with([1.0, 0.5], np.ones(2), np.zeros(2))
        prof = dataclasses.replace(prof, t_norm=2.0)
        with pytest.raises(InvariantViolation, match="^empty active set"):
            criteria._criterion_levels(prof, [1e-300], 1e-9)

    def test_a_corrupted_deficiency_is_caught(self, monkeypatch):
        original = criteria._deficiency

        def corrupted(prof):
            d = original(prof)
            d[int(np.argmax(prof.total_variation))] = 0.25
            return d

        monkeypatch.setattr(criteria, "_deficiency", corrupted)
        wc, T, g = canonical_window_instance(64)
        for run in (lambda: criterion_sweep(wc, T, g), lambda: criterion_sup(wc, T, 0.5, g)):
            with pytest.raises(InvariantViolation,
                               match=r"^criterion supremum 0\.25 is positive; the deficiency"):
                run()


class TestSEpsilon:
    def test_canonical_value(self):
        wc, T, g = canonical_window_instance(64)
        assert s_epsilon_fraction(wc, T, 0.01, g) == Fraction(63, 64)

    def test_counts_small_aligned_mass_directly(self):
        # independent count: walk the grid and compare atom masses one by one
        wc, T, g = canonical_window_instance(64)
        count = 0
        for s in g.points():
            m = dict(T.measure_at(s).atoms).get(wc.phi(s), 0j)
            if abs(complex(wc.u(s)) * 0 + m) < 0.01:  # aligned mass of T alone
                count += 1
        assert Fraction(count, g.n) == s_epsilon_fraction(wc, T, 0.01, g)

    def test_epsilon_must_be_positive(self):
        # NaN fails every comparison, so the test is "not epsilon > 0"
        wc, T, g = canonical_window_instance(16)
        for check in (s_epsilon_fraction, criterion_sup):
            for epsilon in (0.0, float("nan")):
                with pytest.raises(ValueError, match="epsilon must be positive"):
                    check(wc, T, epsilon, g)


def point_moduli(u, g):
    """|u(s)| at every grid point, by the per-point evaluation."""
    return [abs(u(p)) for p in g.points()]


def point_norm(T, g):
    """||T||: the largest total variation of mu_s, by the per-point route."""
    return max(total_variation(T.measure_at(p)) for p in g.points())


def sampled_instance(seed, n=64):
    """The selftest's criterion instance: unimodular u, random phi and T."""
    rng = default_rng(seed)
    g = GridCircle(n)
    u = random_unimodular_field(rng, g.n)
    phi = random_symbol(rng, g)
    return WeightedComposition(u, phi), random_finite_rank(rng, g), g


class TestOneSupAndOneNorm:
    """Every reader takes sup|u|, ||T|| and the per-point total variations
    from its profile, and moduli through circle.modulus.  The profile's
    norms are the per-point max |u(s)| and max |mu_s|, so a reader's values
    follow from those bit for bit."""

    @staticmethod
    def deficiency(wc, T, g):
        prof = perturbation_profile(wc, T, g)
        return prof, (modulus(prof.weight + prof.aligned_mass)
                      - (max(point_moduli(wc.u, g)) + modulus(prof.aligned_mass)))

    def test_the_profile_holds_the_standalone_norms(self):
        for seed in range(10):
            wc, T, g = sampled_instance(seed)
            prof = perturbation_profile(wc, T, g)
            assert (prof.weight_sup, prof.t_norm) == (max(point_moduli(wc.u, g)),
                                                      point_norm(T, g))
            assert np.array_equal(prof.split, modulus(prof.weight + prof.aligned_mass)
                                  + prof.off_mass)

    def test_sweep_levels_follow_from_the_verified_norms(self):
        differ = []
        for seed in range(50):
            wc, T, g = sampled_instance(seed)
            prof, deficiency = self.deficiency(wc, T, g)
            t_norm = operator_norm(T, g)
            for r in criterion_sweep(wc, T, g).results:
                active = prof.total_variation > t_norm - r.epsilon
                if (r.sup_value, r.active_set_size) != (float(deficiency[active].max()),
                                                         int(active.sum())):
                    differ.append(seed)
                    break
        assert differ == []

    def test_criterion_sup_and_open_set_follow_from_the_verified_norms(self):
        arc = Arc(Fraction(1, 8), Fraction(1, 8))
        on_arc = np.array([arc.contains(p) for p in GridCircle(64).points()])
        for seed in range(10):
            wc, T, g = sampled_instance(seed)
            prof, deficiency = self.deficiency(wc, T, g)
            t_norm = operator_norm(T, g)
            active = prof.total_variation > t_norm - t_norm / 4
            res = criterion_sup(wc, T, t_norm / 4, g)
            assert (res.sup_value, res.active_set_size) == (float(deficiency[active].max()),
                                                            int(active.sum()))
            res = open_set_criterion(wc, T, arc, g)
            assert (res.sup_value, res.points) == (float(deficiency[on_arc].max()),
                                                   int(on_arc.sum()))

    def test_results_return_the_norms_they_read(self):
        for seed in range(10):
            wc, T, g = sampled_instance(seed)
            weight_sup, t_norm = max(point_moduli(wc.u, g)), operator_norm(T, g)
            eq = equation_holds(wc, T, g)
            assert (eq.weight_sup, eq.t_norm, eq.rhs) == (weight_sup, t_norm,
                                                          weight_sup + t_norm)
            assert rotation_max_norm(wc, T, g).expected == weight_sup + t_norm

    @pytest.mark.parametrize("read", [
        pytest.param(lambda wc, T, g: criterion_sweep(wc, T, g), id="criterion_sweep"),
        pytest.param(lambda wc, T, g: criterion_sup(wc, T, 0.5, g), id="criterion_sup")])
    def test_a_bare_call_compiles_the_family_once(self, monkeypatch, read):
        wc, T, g = sampled_instance(0)
        calls = []
        original = operators.compile_family

        def spy(op, space):
            calls.append(op)
            return original(op, space)

        monkeypatch.setattr(operators, "compile_family", spy)
        read(wc, T, g)
        assert calls.count(T) == 1


class TestModulusDipCounterexample:
    def test_canonical_values(self):
        g = GridCircle(64)
        u = ScalarField.tent_dip(Fraction(0), Fraction(1, 4), depth=0.5)
        res = counterexample_nonconstant_modulus(u, SymbolMap.identity(), g)
        assert res.perturbed == pytest.approx(1.5, abs=1e-9)
        assert res.certified_gap == pytest.approx(0.5, abs=1e-9)
        assert res.upper == pytest.approx(2.0, abs=1e-15)

    def test_certificate_is_recomputable(self):
        g = GridCircle(64)
        u = ScalarField.tent_dip(Fraction(0), Fraction(1, 4), depth=0.5)
        res = counterexample_nonconstant_modulus(u, SymbolMap.identity(), g)
        wc = WeightedComposition(u, SymbolMap.identity())
        assert perturbed_norm(wc, res.operator, g) == pytest.approx(res.perturbed, abs=1e-15)
        assert (max(point_moduli(u, g)) + operator_norm(res.operator, g)
                == pytest.approx(res.upper, abs=1e-15))

    def test_gap_beats_half_spread_on_random_instances(self):
        rng = default_rng(9)
        g = GridCircle(64)
        for _ in range(40):
            u = random_nonconstant_weight(rng, g.n)
            phi = random_symbol(rng, g)
            mods = point_moduli(u, g)
            spread = max(mods) - min(mods)
            res = counterexample_nonconstant_modulus(u, phi, g)
            assert res.certified_gap >= spread / 2 - 1e-9

    def test_rejects_constant_modulus(self):
        g = GridCircle(32)
        with pytest.raises(ValueError):
            counterexample_nonconstant_modulus(
                ScalarField.constant(1.0), SymbolMap.identity(), g)


class TestFatPreimageCounterexample:
    def test_canonical_values(self):
        g = GridCircle(64)
        arc = Arc(Fraction(0), Fraction(1, 4))
        phi = SymbolMap.constant_on_arc(Fraction(0), arc)
        res = counterexample_fat_preimage(
            ScalarField.constant(1.0), phi, Fraction(0), arc, g)
        assert res.perturbed == pytest.approx(1.5, abs=1e-9)
        assert res.certified_gap == pytest.approx(0.5, abs=1e-9)

    def test_globally_constant_symbol_inverts_the_split(self):
        # when the arc is everything the off-arc branch vanishes and the
        # norm collapses to the on-arc value 1/2
        g = GridCircle(64)
        arc = Arc(Fraction(0), Fraction(1, 2))
        phi = SymbolMap.constant_on_arc(Fraction(0), arc)
        res = counterexample_fat_preimage(
            ScalarField.constant(1.0), phi, Fraction(0), arc, g)
        assert res.perturbed == pytest.approx(0.5, abs=1e-9)
        assert res.certified_gap == pytest.approx(1.5, abs=1e-9)

    def test_randomized_instances_certify(self):
        rng = default_rng(21)
        g = GridCircle(64)
        for _ in range(40):
            u, phi, target, arc = random_fat_preimage_setup(rng, g)
            res = counterexample_fat_preimage(u, phi, target, arc, g)
            assert res.certified_gap > 1e-6

    def test_rejects_arc_not_in_preimage(self):
        g = GridCircle(64)
        arc = Arc(Fraction(0), Fraction(1, 4))
        with pytest.raises(ValueError):
            counterexample_fat_preimage(
                ScalarField.constant(1.0), SymbolMap.identity(),
                Fraction(0), arc, g)

    def test_rejects_nonconstant_modulus(self):
        g = GridCircle(64)
        arc = Arc(Fraction(0), Fraction(1, 4))
        phi = SymbolMap.constant_on_arc(Fraction(0), arc)
        u = ScalarField.tent_dip(Fraction(0), Fraction(1, 4), depth=0.5)
        with pytest.raises(ValueError):
            counterexample_fat_preimage(u, phi, Fraction(0), arc, g)


class TestFatPreimagePrecondition:
    """The precondition's errors are read off arc_mask and symbol_codes,
    and each is confirmed point by point before it is reported."""

    def setup_method(self):
        self.g = GridCircle(64)
        self.arc = Arc(Fraction(0), Fraction(1, 4))  # the points -16/64..16/64
        self.phi = SymbolMap.constant_on_arc(Fraction(0), self.arc)
        self.one = ScalarField.constant(1.0)

    def test_a_code_off_by_one_on_the_arc_is_caught(self, monkeypatch):
        original = criteria.symbol_codes

        def corrupted(phi, n):
            codes = original(phi, n).copy()
            codes[3] += 1
            return codes

        monkeypatch.setattr(criteria, "symbol_codes", corrupted)
        with pytest.raises(InvariantViolation, match=re.escape(
                "the symbol codes put phi(3/64) off Fraction(0, 1) on the arc, but "
                "U.covers(3, 64) is True and phi(3/64) = Fraction(0, 1)")):
            counterexample_fat_preimage(self.one, self.phi, Fraction(0), self.arc, self.g)

    def test_a_mask_past_the_arc_is_caught(self, monkeypatch):
        original = criteria.arc_mask

        def widened(U, n):
            mask = original(U, n).copy()
            mask[n // 2] = True
            return mask

        monkeypatch.setattr(criteria, "arc_mask", widened)
        with pytest.raises(InvariantViolation, match=re.escape(
                "U.covers(32, 64) is False and phi(1/2) = Fraction(1, 2)")):
            counterexample_fat_preimage(self.one, self.phi, Fraction(0), self.arc, self.g)

    def test_an_empty_mask_over_grid_points_is_caught(self, monkeypatch):
        monkeypatch.setattr(criteria, "arc_mask", lambda U, n: np.zeros(n, dtype=bool))
        message = "arc_mask finds no grid point on .*, but Arc.covers finds 33 at n=64$"
        with pytest.raises(InvariantViolation, match=message):
            counterexample_fat_preimage(self.one, self.phi, Fraction(0), self.arc, self.g)
        wc, T, g = canonical_window_instance()
        with pytest.raises(InvariantViolation, match=message):  # the same rule, shared
            open_set_criterion(wc, T, self.arc, g)

    def test_true_failures_keep_their_messages(self):
        between = Arc(Fraction(1, 128), Fraction(1, 512))  # no point of the 64-point grid
        with pytest.raises(ValueError, match="^arc contains no grid point$"):
            counterexample_fat_preimage(self.one, self.phi, Fraction(0), between, self.g)
        wc, T, g = canonical_window_instance()
        with pytest.raises(ValueError, match="^arc contains no grid point$"):
            open_set_criterion(wc, T, between, g)
        with pytest.raises(ValueError, match=re.escape(
                "arc is not inside the preimage of Fraction(0, 1): "
                "phi(1/64) = Fraction(1, 64)")):
            counterexample_fat_preimage(self.one, SymbolMap.identity(), Fraction(0),
                                        self.arc, self.g)


class TestRefinement:
    def test_gap_law_for_the_cosine_window(self):
        u = ScalarField.constant(1.0)
        phi = SymbolMap.doubling()
        T = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                     at=Fraction(0), scale=-1.0)
        sizes = [2 ** k for k in range(3, 11)]
        seq = refinement_convergence(u, phi, T, sizes)
        for gp in seq:
            law = (1.0 - math.cos(2.0 * math.pi / gp.n)) / 2.0
            assert gp.gap == pytest.approx(law, abs=1e-12)
            assert gp.gap <= 2.0 * math.pi ** 2 / gp.n ** 2
            assert gp.nowhere_dense_ok

    def test_flattened_symbol_control_does_not_converge(self):
        u = ScalarField.constant(1.0)
        arc = Arc(Fraction(0), Fraction(1, 4))
        phi = SymbolMap.constant_on_arc(Fraction(0), arc)
        gfun = ScalarField.tent(Fraction(0), Fraction(1, 4), peak=-1.0, base=-0.5)
        T = rank_one(gfun, at=Fraction(0))
        seq = refinement_convergence(u, phi, T, [64, 256, 1024])
        for gp in seq:
            assert gp.gap == pytest.approx(0.5, abs=1e-12)
            assert not gp.nowhere_dense_ok  # fat preimage flags the diagnostic

    def test_rejects_sampled_fields(self):
        u = ScalarField.from_samples([1.0] * 8, 8)
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        with pytest.raises(ValueError):
            refinement_convergence(u, SymbolMap.doubling(), T, [8, 16])

    def test_rejects_nonconstant_modulus(self):
        u = ScalarField.tent_dip(Fraction(0), Fraction(1, 4), depth=0.5)
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        with pytest.raises(ValueError):
            refinement_convergence(u, SymbolMap.doubling(), T, [8, 16])

    @pytest.mark.parametrize("sizes, bad", [([4, 8], 4), ([16, 7], 7), ([2], 2)])
    def test_rejects_sizes_below_8_up_front(self, sizes, bad):
        # the preimage diagnostic's resolution 4/n exceeds 1/2 below n = 8
        wc, T, _ = canonical_window_instance()
        with pytest.raises(ValueError, match=f"^sizes must be at least 8 .*, got {bad}$"):
            refinement_convergence(wc.u, wc.phi, T, sizes)


class TestConvexCenter:
    def test_golden_instance(self):
        g = GridCircle(64)
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0), scale=-1.0)
        res = convex_center_check(0.4, SymbolMap.doubling(),
                                  SymbolMap.rotation(Fraction(1, 64)), T, g)
        assert res.holds
        assert res.norm == 2.0
        assert (res.deficiency <= 1e-12).all()
        # one read-only value per grid point; 2s = s + 1/64 at s = 1/64 only
        assert res.deficiency.shape == res.same_symbol.shape == (g.n,)
        assert np.flatnonzero(res.same_symbol).tolist() == [1]
        assert not (res.deficiency.flags.writeable or res.same_symbol.flags.writeable)

    def test_endpoints_reduce_to_single_composition(self):
        g = GridCircle(64)
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0), scale=-1.0)
        phi, psi = SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, 64))
        for t in (0.0, 1.0):
            res = convex_center_check(t, phi, psi, T, g)
            wc = WeightedComposition(ScalarField.constant(1.0), phi if t == 1.0 else psi)
            assert res.norm == pytest.approx(perturbed_norm(wc, T, g), abs=1e-15)

    def test_window_gap_shrinks_with_n(self):
        T = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                     at=Fraction(0), scale=-1.0)
        gaps = []
        for n in (64, 256, 1024):
            gaps.append(convex_center_check(0.5, SymbolMap.doubling(),
                                            SymbolMap.rotation(Fraction(1, n)), T,
                                            GridCircle(n)).gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-4

    def test_weight_outside_convex_class_defeats_the_bound(self):
        # a genuinely oscillating weight breaks constant-modulus convexity:
        # the dip constructor certifies a gap far above the convex tolerance
        g = GridCircle(64)
        u = ScalarField.cosine(amplitude=1.0, offset=0.0, frequency=1)
        res = counterexample_nonconstant_modulus(u, SymbolMap.doubling(), g)
        assert res.certified_gap > 0.4


class TestSharedProfiles:
    SCENARIO = {
        "space": {"kind": "circle", "n": 32},
        "weight": {"kind": "unimodular_exp", "winding": 1},
        "symbol": {"kind": "constant_on_arc", "value": "1/4", "center": "1/2",
                   "half_width": "1/8", "base": {"kind": "doubling"}},
        "symbol2": {"kind": "rotation", "shift": "1/32"},
        "t": 0.25,
        "operator": {"kind": "finite_rank", "terms": [
            {"g": {"kind": "cosine", "amplitude": 0.5, "offset": 0.5},
             "atoms": [{"pos": "1/4", "re": -1.0}, {"pos": "1/3", "re": 0.0, "im": 0.5}]}]},
        "checks": [
            {"name": "equation"}, {"name": "criterion-sweep"}, {"name": "rotation-max"},
            {"name": "s-epsilon", "epsilon": 0.1}, {"name": "convex"},
            {"name": "counterexample-preimage", "target": "1/4", "center": "1/2",
             "half_width": "1/8"},
            {"name": "refinement", "sizes": [16, 32]},
        ],
    }

    def test_each_profile_is_cross_checked_once_per_run(self, monkeypatch):
        sc = parse_scenario(self.SCENARIO)
        calls, weights, images = Counter(), Counter(), Counter()

        def norm_point(op, n):
            """Where operator_norm measures op: the first point attaining it."""
            tvs = [total_variation(op.measure_at(p)) for p in GridCircle(n).points()]
            return Fraction(tvs.index(max(tvs)), n)

        # operator_norm measures T in convex alone: every other check reads
        # ||T|| off its profile, whose reference pass held every row
        norms = [norm_point(sc.operator, 32)]
        # the convex check measures T at the largest and the smallest
        # deficiency on each side of phi(s) == psi(s)
        convex = convex_center_check(sc.t, sc.symbol, sc.symbol2, sc.operator, GridCircle(32))
        extremes = []
        for part in (convex.same_symbol, ~convex.same_symbol):
            ks, values = np.flatnonzero(part), convex.deficiency[part]
            extremes += [Fraction(int(ks[values.argmax()]), 32),
                         Fraction(int(ks[values.argmin()]), 32)]

        def counting(cls, method, counter):
            original = getattr(cls, method)

            def call(self, s):
                counter[s] += 1
                return original(self, s)

            monkeypatch.setattr(cls, method, call)

        def counting_at(cls, method, counter, of):
            """Count the per-point evaluations on integers, the ones the
            calls delegate to, at Fraction(num, den)."""
            original = getattr(cls, method)

            def call(self, num, den):
                if self == of:
                    counter[Fraction(num, den)] += 1
                return original(self, num, den)

            monkeypatch.setattr(cls, method, call)

        (g, _), = sc.operator.terms
        coefficients = Counter()
        counting(FiniteRankOperator, "measure_at", calls)
        counting_at(ScalarField, "value_at", weights, of=sc.weight)
        counting_at(ScalarField, "value_at", coefficients, of=g)
        counting_at(SymbolMap, "image_at", images, of=sc.symbol)
        report = run_scenario(sc)
        assert [r["verdict"] for r in report["checks"]] == [
            "holds", "holds", "holds", "computed", "holds", "gap-certified", "computed"]
        # three profiles: the scenario's at n = 32 and n = 16, the
        # counterexample's operator at n = 32, whose reference passes
        # measure no point one at a time.  Only the witnesses above measure
        # T, and the convex check measures cc + T once, at s = 0, where its
        # norm is
        expected = Counter([Fraction(0)] + norms + extremes)
        assert calls == expected
        # each profile's pass reads g(s) at every point of its grid, and
        # every measure of the scenario's operator above evaluates g once
        assert coefficients == (Counter(GridCircle(32).points() + GridCircle(16).points())
                                + expected)
        # u and phi once per point per grid: the counterexample's profile
        # shares the scenario's (u, phi) at n = 32, and every |u|
        # precondition reads a profile.  Besides, the counterexample's
        # operator has the coefficient g * u, which its profile evaluates
        # once per point, and which evaluates u each time; refinement
        # samples phi at TARGET_SAMPLES points k/8 of each of its two
        # grids, and the convex check evaluates phi at s = 0 in its
        # measures of cc and of cc + T, whose norms are attained there, and
        # at its deficiency extremes
        once = Counter(GridCircle(32).points() + GridCircle(16).points())
        assert weights == once + Counter(GridCircle(32).points())
        assert images == once + Counter([Fraction(k, TARGET_SAMPLES)
                                         for k in range(TARGET_SAMPLES)] * 2
                                        + [Fraction(0)] * 2 + extremes)

    def test_arc_scan_names_the_first_point_off_target(self):
        g = GridCircle(64)
        phi = SymbolMap.constant_on_arc(Fraction(0), Arc(Fraction(0), Fraction(1, 8)))
        U = Arc(Fraction(1, 16), Fraction(1, 8))
        first = next(p for p in g.points() if U.contains(p) and phi(p) != 0)
        with pytest.raises(ValueError, match=re.escape(f"phi({first}) = {phi(first)!r}") + "$"):
            counterexample_fat_preimage(ScalarField.constant(1.0), phi, Fraction(0), U, g)
