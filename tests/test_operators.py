"""Operator norms through measure families, checked against direct application.

The oracle here is deliberately independent of the library's own norm path:
it applies operators to concrete tabulated functions and takes suprema of
pointwise values, so agreement is evidence rather than tautology.
"""

import cmath
import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from daugavetlab import circle, criteria, operators, selftest
from daugavetlab.circle import (
    Arc,
    GridCircle,
    ScalarField,
    SymbolMap,
    shared_compilation,
    symbol_codes,
)
from daugavetlab.criteria import convex_center_check
from daugavetlab.errors import InvariantViolation
from daugavetlab.measures import BLOCK, AtomicMeasure, _blocks, linear_combine, total_variation
from daugavetlab.operators import (
    FiniteRankOperator,
    OperatorExpr,
    WeightedComposition,
    as_expr,
    compiled_family,
    convex_combination,
    operator_norm,
    perturbation_profile,
    perturbed_norm,
    rank_one,
    rotation_max_norm,
    scaled,
    zero_operator,
)
from daugavetlab.scenarios import parse_scenario, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden" / "scenarios"


def apply_via_measures(T, f, s):
    """<f, mu_s>, the defining action."""
    return sum((f[p] * w for p, w in T.measure_at(s).atoms), 0j)


def sup_application_norm(T, grid, functions):
    """sup over the supplied unit-ball functions of sup_s |(Tf)(s)|."""
    return max(
        max(abs(apply_via_measures(T, f, s)) for s in grid.points())
        for f in functions)


def aligned_functions_for(T, grid):
    """For each point s, the tabulated unit function whose phases align with
    the atoms of mu_s; these witness the supremum exactly."""
    out = []
    for s in grid.points():
        f = {p: 1 + 0j for p in grid.points()}
        for p, w in T.measure_at(s).atoms:
            if w != 0:
                f[p] = w.conjugate() / abs(w)
        out.append(f)
    return out


class TestMeasureFamilies:
    def test_weighted_composition_single_atom(self):
        u = ScalarField.cosine(amplitude=0.5, offset=1.0, frequency=1)
        wc = WeightedComposition(u, SymbolMap.doubling())
        mu = wc.measure_at(Fraction(1, 4))
        assert mu.atoms == ((Fraction(1, 2), complex(u(Fraction(1, 4)), 0)),)

    def test_finite_rank_combines_terms(self):
        g1 = ScalarField.constant(2.0)
        g2 = ScalarField.constant(1j)
        T = FiniteRankOperator(((g1, AtomicMeasure.from_atoms([(Fraction(0), 1 + 0j)])),
                                (g2, AtomicMeasure.from_atoms([(Fraction(0), 1 + 0j)]))))
        mu = T.measure_at(Fraction(1, 8))
        assert mu.atoms == ((Fraction(0), 2 + 1j),)

    def test_expr_sum_merges_atoms(self):
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        total = as_expr(wc) + T
        mu = total.measure_at(Fraction(0))
        assert mu.atoms == ((Fraction(0), 2 + 0j),)

    def test_scaled_and_zero(self):
        T = scaled(rank_one(ScalarField.constant(1.0), at=Fraction(0)), 3j)
        assert T.measure_at(Fraction(0)).atoms == ((Fraction(0), 3j),)
        assert zero_operator().measure_at(Fraction(0)).atoms == ()

    def test_operator_norm_of_rank_one(self):
        g = GridCircle(32)
        T = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                     at=Fraction(0), scale=-1.0)
        assert operator_norm(T, g) == pytest.approx(1.0, abs=1e-15)  # peak of g


class TestPerturbedNorm:
    def test_matches_application_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        g = GridCircle(16)
        for _ in range(20):
            u = ScalarField.from_samples(
                np.exp(2j * np.pi * rng.random(g.n)), g.n)
            phi = SymbolMap.from_table(rng.integers(0, g.n, size=g.n).tolist(), g.n)
            terms = []
            for _ in range(rng.integers(1, 3)):
                vals = 0.5 * (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
                atom_pos = Fraction(int(rng.integers(0, g.n)), g.n)
                terms.append((ScalarField.from_samples(vals, g.n),
                              AtomicMeasure.from_atoms([(atom_pos, 1 + 0j)])))
            T = FiniteRankOperator(tuple(terms))
            wc = WeightedComposition(u, phi)

            total = as_expr(wc) + T
            witnesses = aligned_functions_for(total, g)
            oracle = sup_application_norm(total, g, witnesses)
            assert perturbed_norm(wc, T, g) == pytest.approx(oracle, abs=1e-12)

    def test_doubling_with_cosine_window(self):
        # aligned mass cancels everywhere except one grid step from the
        # window peak, leaving 2 - (1 - cos(2 pi / n)) / 2
        g = GridCircle(64)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        T = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                     at=Fraction(0), scale=-1.0)
        expected = 2.0 - (1.0 - math.cos(2.0 * math.pi / 64)) / 2.0
        assert perturbed_norm(wc, T, g) == pytest.approx(expected, abs=1e-14)

    def test_profile_splits_into_aligned_and_off_mass(self):
        g = GridCircle(8)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.constant(0.5), at=Fraction(0))
        prof = perturbation_profile(wc, T, g)
        k = 0  # grid index of s = 0
        assert prof.aligned_mass[k] == pytest.approx(0.5)  # atom sits on phi(0)
        assert prof.off_mass[k] == pytest.approx(0.0)
        j = 4  # grid index of s = 1/2
        assert prof.aligned_mass[j] == pytest.approx(0.0)
        assert prof.off_mass[j] == pytest.approx(0.5)

    def test_perturbation_by_negated_composition_cancels(self):
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        T = scaled(wc, -1.0)
        assert perturbed_norm(wc, T, g) == 0.0

    def test_nan_weight_is_refused(self):
        # the profile refuses a sup|u| that is not finite, as it refuses
        # ||T||, so no norm reads 0.0 from max(0.0, nan)
        u = ScalarField.from_samples([math.nan] + [1.0] * 7, 8)
        wc = WeightedComposition(u, SymbolMap.identity())
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        with pytest.raises(ValueError, match=r"^sup\|u\| = nan is not finite$"):
            perturbed_norm(wc, T, GridCircle(8))

    def test_unreduced_rational_is_the_same_point(self):
        # 5/4 and -3/4 are 1/4 on the circle: same norm, arc and tent
        g = GridCircle(8)
        wc = WeightedComposition(ScalarField.tent(Fraction(1, 4), Fraction(1, 8)),
                                 SymbolMap.identity())
        for at in (Fraction(1, 4), Fraction(5, 4), Fraction(-3, 4)):
            assert perturbed_norm(wc, rank_one(ScalarField.constant(-1.0), at=at), g) == 1.0
        assert Arc(Fraction(5, 4), Fraction(1, 8)).contains(Fraction(0)) is False
        assert ScalarField.tent(Fraction(5, 4), Fraction(1, 8))(Fraction(0)) == 0j


class TestRotationMax:
    def test_zero_perturbation(self):
        g = GridCircle(32)
        wc = WeightedComposition(ScalarField.unimodular_exp(winding=1),
                                 SymbolMap.doubling())
        res = rotation_max_norm(wc, zero_operator(), g)
        assert res.max == pytest.approx(1.0, abs=1e-15)
        assert res.searched == pytest.approx(1.0, abs=1e-15)

    def test_negated_composition_recovers_additivity(self):
        # T = -uC_phi destroys the norm at lambda = 1 but lambda = -1 restores it
        g = GridCircle(32)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        res = rotation_max_norm(wc, scaled(wc, -1.0), g)
        assert res.max == pytest.approx(2.0, abs=1e-15)
        assert res.argmax_lambda == pytest.approx(-1.0)

    def test_real_scalar_mode(self):
        g = GridCircle(32)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        res = rotation_max_norm(wc, scaled(wc, -1.0), g, lambda_grid=2)
        assert res.lambda_grid == 2
        assert res.searched == pytest.approx(2.0, abs=1e-15)

    def test_rejects_nonconstant_modulus(self):
        g = GridCircle(32)
        u = ScalarField.tent_dip(Fraction(0), Fraction(1, 4), depth=0.5)
        wc = WeightedComposition(u, SymbolMap.identity())
        with pytest.raises(ValueError):
            rotation_max_norm(wc, zero_operator(), g)

    def test_first_maximiser_wins_across_blocks(self):
        # |T| is tiny next to the weight, so every lambda attains the same
        # maximum; over 2^17 lambdas, in blocks of measures.BLOCK, the first
        # one is reported
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.tent(Fraction(1, 2), Fraction(1, 4), peak=2.0, base=1e-3),
                     at=Fraction(0))
        res = rotation_max_norm(wc, T, g, lambda_grid=2 ** 17)
        assert res.searched == res.max == 3.0
        assert res.argmax_lambda == 1 + 0j

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=20, deadline=None)
    def test_scaling_is_lipschitz_in_lambda(self, k):
        # moving lambda by an angle step changes the norm by at most ||T|| step
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        T = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                     at=Fraction(0), scale=-1.0)
        t_norm = operator_norm(T, g)
        step = 2.0 * math.pi / 64
        lam1 = cmath.exp(1j * step * k)
        lam2 = cmath.exp(1j * step * (k + 1))
        n1 = perturbed_norm(wc, scaled(T, lam1), g)
        n2 = perturbed_norm(wc, scaled(T, lam2), g)
        assert abs(n1 - n2) <= t_norm * step + 1e-12


def full_lambda_search(prof, lambda_grid):
    """The unpruned lambda search, the reference: every moving point at
    every lambda, a block of lambdas at a time.  (searched, the first
    maximizing lambda.)"""
    lam = np.exp(2j * np.pi * np.arange(lambda_grid) / lambda_grid)
    searched = -np.inf
    arg_idx = 0
    moving = prof.aligned_mass != 0
    still = np.abs(prof.weight[~moving]) + prof.off_mass[~moving]
    floor = still.max(initial=-np.inf)
    weight, aligned = prof.weight[moving], prof.aligned_mass[moving]
    off = prof.off_mass[moving]
    for cols in _blocks(lambda_grid, weight.size):
        vals = np.abs(weight[None, :] + lam[cols, None] * aligned[None, :])
        vals += off[None, :]
        per_lambda = np.maximum(vals.max(axis=1, initial=-np.inf), floor)
        k = int(np.argmax(per_lambda))
        if float(per_lambda[k]) > searched:
            searched = float(per_lambda[k])
            arg_idx = cols.start + k
    return searched, complex(lam[arg_idx])


def synthetic_profile(weight, aligned, off):
    """A profile of the given per-point parts, consistent with itself:
    total variation |m| + off, ||T|| its largest entry."""
    weight, aligned = np.asarray(weight, dtype=complex), np.asarray(aligned, dtype=complex)
    off = np.asarray(off, dtype=float)
    tv = np.abs(aligned) + off
    split = np.abs(weight + aligned) + off
    return operators.PerturbationProfile(weight, aligned, off, tv, split,
                                         float(np.abs(weight).max()), float(np.abs(weight).min()),
                                         float(tv.max()))


def search_on(monkeypatch, prof, lambda_grid):
    """rotation_max_norm on a synthetic profile, which is all it reads.  Its
    |u| precondition reads the profile too, whose unimodular weights may be
    scaled far beyond the absolute tol: tol is the profile's own spread."""
    monkeypatch.setattr(operators, "perturbation_profile", lambda wc, T, grid: prof)
    wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
    return rotation_max_norm(wc, zero_operator(), GridCircle(prof.weight.size),
                             lambda_grid=lambda_grid, tol=prof.weight_sup - prof.weight_inf)


def random_profile(rng, n, scale=1.0):
    weight = np.exp(2j * np.pi * rng.random(n))
    aligned = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (rng.random(n) < 0.3)
    off = rng.random(n) * rng.random()
    return synthetic_profile(scale * weight, scale * aligned, scale * off)


LAMBDA_GRIDS = [1, 2, 3, 4096, 2 ** 17]


class TestPrunedLambdaSearch:
    """The lambda search visits moving points by descending cap and stops
    below the best value found; it reports what the full search does."""

    def assert_same_as_full(self, monkeypatch, prof, lambda_grid):
        res = search_on(monkeypatch, prof, lambda_grid)
        searched, argmax = full_lambda_search(prof, lambda_grid)
        assert res.searched.hex() == searched.hex()
        assert (res.argmax_lambda.real.hex(), res.argmax_lambda.imag.hex()) == (
            argmax.real.hex(), argmax.imag.hex())
        assert 0 <= res.evaluated <= int(np.count_nonzero(prof.aligned_mass))
        return res

    @pytest.mark.parametrize("lambda_grid", LAMBDA_GRIDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_profiles(self, monkeypatch, seed, lambda_grid):
        rng = np.random.default_rng(seed)
        self.assert_same_as_full(monkeypatch, random_profile(rng, 64), lambda_grid)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.parametrize("lambda_grid", LAMBDA_GRIDS)
    def test_extreme_magnitudes(self, monkeypatch, scale, lambda_grid):
        prof = random_profile(np.random.default_rng(7), 64, scale=scale)
        self.assert_same_as_full(monkeypatch, prof, lambda_grid)

    @pytest.mark.parametrize("lambda_grid", LAMBDA_GRIDS)
    def test_no_moving_point(self, monkeypatch, lambda_grid):
        prof = synthetic_profile(np.ones(16), np.zeros(16), np.linspace(0.0, 1.0, 16))
        res = self.assert_same_as_full(monkeypatch, prof, lambda_grid)
        assert res.evaluated == 0 and res.searched == 2.0

    @pytest.mark.parametrize("lambda_grid", LAMBDA_GRIDS)
    def test_floor_above_every_cap(self, monkeypatch, lambda_grid):
        aligned = np.where(np.arange(16) % 2, 0.25, 0.0)
        off = np.where(np.arange(16) == 4, 3.0, 0.5)
        res = self.assert_same_as_full(monkeypatch, synthetic_profile(np.ones(16), aligned, off),
                                       lambda_grid)
        assert res.evaluated == 0 and res.searched == 4.0

    @pytest.mark.parametrize("lambda_grid", LAMBDA_GRIDS)
    def test_all_caps_equal(self, monkeypatch, lambda_grid):
        phases = np.exp(2j * np.pi * np.arange(16) / 7)
        self.assert_same_as_full(monkeypatch, synthetic_profile(np.ones(16), 0.5 * phases,
                                                                np.zeros(16)), lambda_grid)

    @pytest.mark.parametrize("lambda_grid", [4, 8, 4096, 2 ** 17])
    def test_two_points_reach_the_maximum_at_different_lambdas(self, monkeypatch, lambda_grid):
        # point 0 peaks at lambda = -1, point 1 at lambda = -i and point 2 at
        # lambda = 1, all at 2; the first of them on the grid, lambda = 1, wins
        prof = synthetic_profile(np.ones(4), [-1.0, 1j, 1.0, 0.0], np.zeros(4))
        res = self.assert_same_as_full(monkeypatch, prof, lambda_grid)
        assert res.searched == 2.0 and res.argmax_lambda == 1 + 0j

    @pytest.mark.parametrize("lambda_grid", [4096, 2 ** 17])
    def test_only_the_tile_of_a_dominant_point_is_evaluated(self, monkeypatch, lambda_grid):
        # every point moves, and the first tile's best, 2 at point 37, lies
        # above every other cap, 1.01
        aligned = np.full(64, 0.01)
        aligned[37] = 1.0
        res = self.assert_same_as_full(monkeypatch, synthetic_profile(
            np.ones(64), aligned, np.zeros(64)), lambda_grid)
        assert res.evaluated == max(1, BLOCK // lambda_grid)

    @pytest.mark.parametrize("seed", range(8))
    def test_selftest_instances(self, seed):
        rng = np.random.default_rng(seed)
        g = GridCircle(64)
        for _ in range(5):
            wc, T = selftest._random_instance(rng, g)
            with shared_compilation():
                res = rotation_max_norm(wc, T, g)
                prof = perturbation_profile(wc, T, g)
            searched, argmax = full_lambda_search(prof, 4096)
            assert (res.searched, res.argmax_lambda) == (searched, argmax)
            assert res.evaluated <= int(np.count_nonzero(prof.aligned_mass))

    @pytest.mark.parametrize("lambda_grid", [1, 4096])
    def test_an_overflowing_cap_warns_of_nothing(self, lambda_grid):
        # T = -uC_phi with |u| = 1e308: |u| + |m| overflows at every point,
        # and so do the values near lambda = -1, while the profile stays finite
        g = GridCircle(8)
        wc = WeightedComposition(ScalarField.constant(1e308), SymbolMap.identity())
        T = WeightedComposition(ScalarField.constant(-1e308), SymbolMap.identity())
        res = rotation_max_norm(wc, T, g, lambda_grid=lambda_grid)
        with np.errstate(over="ignore"):
            searched, argmax = full_lambda_search(perturbation_profile(wc, T, g), lambda_grid)
        assert (res.searched, res.argmax_lambda) == (searched, argmax)
        assert res.searched == (0.0 if lambda_grid == 1 else math.inf)
        assert res.max == math.inf and res.evaluated == 8  # an inf cap never stops it

    def test_the_lambda_grid_is_built_once_per_block(self, monkeypatch):
        builds = []
        original = circle.CompiledMemo.get

        def spy(memo, key, build):
            if key[0] != "lambdas":
                return original(memo, key, build)
            return original(memo, key, lambda: builds.append(key) or build())

        monkeypatch.setattr(circle.CompiledMemo, "get", spy)
        selftest.run_selftest(0)
        assert builds == [("lambdas", 4096)]
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        for _ in range(2):
            rotation_max_norm(wc, scaled(wc, -1.0), g, lambda_grid=64)
        assert builds == [("lambdas", 4096), ("lambdas", 64), ("lambdas", 64)]

    def test_the_search_does_not_read_the_analytic_moduli(self, monkeypatch):
        # the README window case: the one moving point, s = 0, peaks at 2 at
        # lambda = -1, above every other point.  With the analytic maximum
        # scaled down, the search must still find 2 and report it exceeded
        g = GridCircle(64)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        T = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                     at=Fraction(0), scale=-1.0)
        original = operators.modulus
        with shared_compilation():
            perturbation_profile(wc, T, g)
            monkeypatch.setattr(operators, "modulus", lambda z: 0.9 * original(z))
            with pytest.raises(InvariantViolation,
                               match=r"^lambda search 2\.0 exceeded the analytic maximum"):
                rotation_max_norm(wc, T, g)


class TestHashOnce:
    """The memo's keys keep their hash, which is the dataclass's own."""

    def instances(self):
        u, phi = ScalarField.cosine(0.5, 0.5), SymbolMap.constant_on_arc(
            Fraction(1, 3), Arc(Fraction(1, 4), Fraction(1, 8)))
        T = rank_one(u, at=Fraction(1, 5), scale=-0.5j)
        wc = WeightedComposition(ScalarField.constant(1.0), phi)
        return [u, phi, phi.arc, T.terms[0][1], T, wc, as_expr(T) + wc]

    def test_the_hash_is_the_hash_of_the_field_tuple(self):
        for x in self.instances():
            want = hash(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))
            first, kept = hash(x), hash(x)
            assert first == kept == want and x.__dict__["_hash"] == want

    def test_fields_repr_and_equality_are_unchanged(self):
        for x, y in zip(self.instances(), self.instances()):
            assert x is not y and x == y and hash(x) == hash(y)
            assert "_hash" not in repr(x)
            assert "_hash" not in {f.name for f in dataclasses.fields(x)}
        assert [f.name for f in dataclasses.fields(WeightedComposition)] == ["u", "phi"]
        assert [f.name for f in dataclasses.fields(AtomicMeasure)] == ["atoms"]
        assert ScalarField.constant(1.0) != ScalarField.constant(2.0)

    def test_replace_gives_a_fresh_hash(self):
        u = ScalarField.constant(1.0)
        hash(u)
        v = dataclasses.replace(u, value=2 + 0j)
        assert v != u
        assert hash(v) == hash(tuple(getattr(v, f.name) for f in dataclasses.fields(v)))
        assert hash(dataclasses.replace(v, value=1 + 0j)) == hash(u)

    def test_equal_components_share_one_profile(self, monkeypatch):
        builds = []
        original = operators._checked_profile
        monkeypatch.setattr(operators, "_checked_profile",
                            lambda *args: builds.append(args) or original(*args))
        g = GridCircle(32)
        with shared_compilation():
            for _ in range(2):
                wc, T = self.instances()[5:]
                perturbation_profile(wc, T, g)
        assert len(builds) == 1


class TestConvexCombination:
    def test_combination_norm_is_one(self):
        g = GridCircle(64)
        cc = convex_combination(0.4, SymbolMap.doubling(),
                                SymbolMap.rotation(Fraction(1, 64)))
        assert operator_norm(cc, g) == pytest.approx(1.0, abs=1e-15)

    def test_atoms_merge_where_symbols_agree(self):
        cc = convex_combination(0.25, SymbolMap.identity(), SymbolMap.identity())
        assert cc.measure_at(Fraction(0)).atoms == ((Fraction(0), 1 + 0j),)

    def test_golden_instance_reaches_two_exactly(self):
        # doubling and the 1/64 rotation merge at s = 1/64; with g = 1 the
        # perturbation adds a full extra unit there
        g = GridCircle(64)
        cc = convex_combination(0.4, SymbolMap.doubling(),
                                SymbolMap.rotation(Fraction(1, 64)))
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0), scale=-1.0)
        assert operator_norm(OperatorExpr(((1.0, cc), (1.0, T))), g) == 2.0

    def test_rejects_t_outside_unit_interval(self):
        for t in (1.5, -0.25, math.nan):
            with pytest.raises(ValueError, match=r"convex weight t must lie in \[0, 1\]"):
                convex_combination(t, SymbolMap.identity(), SymbolMap.identity())


# ---------------------------------------------------------------------------
# the compiled route against the per-point reference
# ---------------------------------------------------------------------------

BIG = 10 ** 40 + 1


def bits(values, dtype):
    return np.asarray(values, dtype=dtype).tobytes()


def mass_at(mu, t):
    """The weight mu carries at the reduced point t (0 if no atom there)."""
    return dict(mu.atoms).get(t, 0j)


def reference_profile(wc, T, grid):
    """The per-point profile: one measure per point, its mass at phi(s) and
    its variation away from phi(s)."""
    weight, aligned, off, tv = [], [], [], []
    for p in grid.points():
        mu = T.measure_at(p)
        target = wc.phi(p)
        weight.append(wc.u(p))
        aligned.append(mass_at(mu, target))
        off.append(math.fsum(abs(w) for pos, w in mu.atoms if pos != target))
        tv.append(total_variation(mu))
    return weight, aligned, off, tv


def reference_convex_rows(cc, T, grid):
    return [total_variation(linear_combine([1.0, 1.0], [cc.measure_at(p), T.measure_at(p)]))
            for p in grid.points()]


def reference_deficiencies(t, phi, psi, T, grid):
    """(delta, delta_tilde) of convex_center_check, point by point."""
    delta, delta_tilde = [], []
    for p in grid.points():
        mu = T.measure_at(p)
        fp, gp = phi(p), psi(p)
        m_phi = mass_at(mu, fp)
        if fp == gp:
            delta_tilde.append((p, abs(1.0 + m_phi) - (1.0 + abs(m_phi))))
        else:
            m_psi = mass_at(mu, gp)
            delta.append((p, abs(t + m_phi) + abs(1.0 - t + m_psi)
                          - (1.0 + abs(m_phi) + abs(m_psi))))
    return delta, delta_tilde


def random_field(rng, n):
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return ScalarField.constant(complex(*rng.standard_normal(2)))
    if kind == 1:
        return ScalarField.unimodular_exp(int(rng.integers(-3, 4)),
                                          complex(*rng.standard_normal(2)))
    if kind == 2:
        return ScalarField.cosine(float(rng.standard_normal()), float(rng.standard_normal()),
                                  int(rng.integers(0, 5)))
    if kind == 3:
        return ScalarField.tent(Fraction(int(rng.integers(0, 3 * n)), 3 * n),
                                Fraction(int(rng.integers(1, n)), 2 * n),
                                peak=float(rng.standard_normal()), base=float(rng.random()))
    if kind == 4:
        return ScalarField.tent_dip(Fraction(1, BIG), Fraction(1, 3), depth=0.5)
    if kind == 5:
        return ScalarField.from_samples(rng.standard_normal(n) + 1j * rng.standard_normal(n), n)
    return ScalarField.product(ScalarField.cosine(frequency=int(rng.integers(1, 4))),
                               ScalarField.unimodular_exp(scale=0.5j))


def random_symbol_map(rng, n):
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return SymbolMap.identity()
    if kind == 1:
        return SymbolMap.doubling()
    if kind == 2:
        return SymbolMap.rotation(Fraction(int(rng.integers(0, n)), n))
    if kind == 3:
        return SymbolMap.rotation(Fraction(int(rng.integers(1, 7)), 7))
    if kind == 4:
        return SymbolMap.from_table(rng.integers(0, n, size=n).tolist(), n)
    return SymbolMap.constant_on_arc(
        Fraction(int(rng.integers(0, n)), n),
        Arc(Fraction(int(rng.integers(0, n)), n), Fraction(int(rng.integers(1, n // 2)), n)),
        base=SymbolMap.rotation(Fraction(1, BIG)))


def random_position(rng, n):
    return [Fraction(int(rng.integers(0, n)), n), Fraction(1, 7), Fraction(2, BIG),
            Fraction(int(rng.integers(0, 3)), 3)][int(rng.integers(0, 4))]


def random_operator(rng, n, depth=0):
    kind = int(rng.integers(0, 5 if depth < 2 else 2))
    if kind == 0:
        return zero_operator()
    if kind == 1:
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            atoms = [(random_position(rng, n), complex(*rng.standard_normal(2)))
                     for _ in range(int(rng.integers(1, 4)))]
            terms.append((random_field(rng, n), AtomicMeasure.from_atoms(atoms)))
        return FiniteRankOperator(tuple(terms))
    if kind == 2:
        return WeightedComposition(random_field(rng, n), random_symbol_map(rng, n))
    if kind == 3:
        return scaled(random_operator(rng, n, depth + 1), complex(*rng.standard_normal(2)))
    return sum((random_operator(rng, n, depth + 1) for _ in range(2)), zero_operator())


# Generated operators for the differential test: few positions, so atoms of
# different terms coincide; weights and fields that cancel exactly; the
# 40-digit denominators; unreduced positions; nested sums and scalings.
HN = 12
H_POSITIONS = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(5, 12), Fraction(1, 7),
                               Fraction(2, BIG), Fraction(-3, 4), Fraction(13, 12)])
H_WEIGHTS = st.sampled_from([1 + 0j, -1 + 0j, 0.5j, -0.5j, 0.3 - 0.7j, -0.3 + 0.7j])
H_FIELDS = st.sampled_from([
    ScalarField.constant(1.0), ScalarField.constant(-1.0), ScalarField.constant(0.5j),
    ScalarField.cosine(amplitude=0.5, offset=0.5), ScalarField.unimodular_exp(2, 0.5 + 0.5j),
    ScalarField.tent(Fraction(1, BIG), Fraction(1, 3), peak=-1.0, base=0.25),
    ScalarField.from_samples([complex(k % 3 - 1, k % 2) for k in range(HN)], HN)])
H_SYMBOLS = st.sampled_from([
    SymbolMap.identity(), SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, 4)),
    SymbolMap.rotation(Fraction(1, BIG)), SymbolMap.from_table([0, 3] * (HN // 2), HN),
    SymbolMap.constant_on_arc(Fraction(1, 4), Arc(Fraction(0), Fraction(1, 6)))])
H_MEASURES = st.lists(st.tuples(H_POSITIONS, H_WEIGHTS), min_size=1,
                      max_size=3).map(AtomicMeasure.from_atoms)
H_COMPOSITIONS = st.builds(WeightedComposition, H_FIELDS, H_SYMBOLS)
H_OPERATORS = st.recursive(
    st.one_of(
        st.lists(st.tuples(H_FIELDS, H_MEASURES), min_size=1, max_size=3)
        .map(lambda terms: FiniteRankOperator(tuple(terms))),
        H_COMPOSITIONS,
        st.builds(convex_combination, st.sampled_from([0.0, 0.25, 0.5]), H_SYMBOLS, H_SYMBOLS)),
    lambda inner: st.one_of(
        st.builds(scaled, inner, H_WEIGHTS),
        st.lists(inner, min_size=2, max_size=3).map(lambda ops: sum(ops, zero_operator())),
        st.lists(st.tuples(H_WEIGHTS, inner), min_size=1, max_size=3)
        .map(lambda terms: OperatorExpr(tuple(terms))),
        inner.map(lambda op: as_expr(op) + scaled(op, -1.0))),
    max_leaves=4)
CANCELLING = as_expr(rank_one(ScalarField.constant(1.0), at=Fraction(1, 4))) + rank_one(
    ScalarField.constant(1.0), at=Fraction(5, 4), scale=-1.0)


class TestCompiledRoute:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(wc=H_COMPOSITIONS, T=H_OPERATORS)
    @example(wc=WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity()),
             T=CANCELLING)
    @example(wc=WeightedComposition(ScalarField.constant(1.0), SymbolMap.rotation(Fraction(1, 4))),
             T=scaled(CANCELLING + as_expr(WeightedComposition(
                 ScalarField.constant(-1.0), SymbolMap.rotation(Fraction(1, 4)))), 0.5j))
    def test_generated_profiles_match_the_reference_bit_for_bit(self, wc, T):
        g = GridCircle(HN)
        weight, aligned, off, tv = reference_profile(wc, T, g)
        prof = perturbation_profile(wc, T, g)
        assert bits(prof.weight, complex) == bits(weight, complex)
        assert bits(prof.aligned_mass, complex) == bits(aligned, complex)
        assert bits(prof.off_mass, float) == bits(off, float)
        assert bits(prof.total_variation, float) == bits(tv, float)

    @pytest.mark.parametrize("seed", range(40))
    def test_profile_and_rows_match_the_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        g = GridCircle(int(rng.choice([12, 16, 21])))
        wc = WeightedComposition(random_field(rng, g.n), random_symbol_map(rng, g.n))
        T = random_operator(rng, g.n)
        weight, aligned, off, tv = reference_profile(wc, T, g)
        with shared_compilation():
            assert compiled_family(T, g.n) is not None
            assert symbol_codes(wc.phi, g.n) is not None
            prof = perturbation_profile(wc, T, g)
        assert bits(prof.weight, complex) == bits(weight, complex)
        assert bits(prof.aligned_mass, complex) == bits(aligned, complex)
        assert bits(prof.off_mass, float) == bits(off, float)
        assert bits(prof.total_variation, float) == bits(tv, float)
        assert operator_norm(T, g) == max(tv)

    @pytest.mark.parametrize("seed", range(20))
    def test_convex_values_match_the_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = GridCircle(int(rng.choice([12, 16, 21])))
        t = float(rng.random())
        phi, psi = random_symbol_map(rng, g.n), random_symbol_map(rng, g.n)
        cc = convex_combination(t, phi, psi)
        T = random_operator(rng, g.n)
        rows = reference_convex_rows(cc, T, g)
        assert operator_norm(OperatorExpr(((1.0, cc), (1.0, T))), g) == max(rows)
        assert operator_norm(cc, g) == max(total_variation(cc.measure_at(p))
                                           for p in g.points())
        delta, delta_tilde = reference_deficiencies(t, phi, psi, T, g)
        res = convex_center_check(t, phi, psi, T, g, tol=1e-9)
        for mask, want in ((~res.same_symbol, delta), (res.same_symbol, delta_tilde)):
            assert [g.coord(k) for k in np.flatnonzero(mask)] == [p for p, _ in want]
            assert bits(res.deficiency[mask], float) == bits([v for _, v in want], float)

    def test_operator_of_its_own_is_rejected(self):
        # the operators are a closed set: a type of the caller's own is named
        class Delegate:
            def __init__(self, inner):
                self.inner = inner

            def measure_at(self, s):
                return self.inner.measure_at(s)

        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.unimodular_exp(), SymbolMap.doubling())
        T = Delegate(rank_one(ScalarField.cosine(), at=Fraction(1, 3), scale=0.5j))
        for run in (lambda: perturbed_norm(wc, T, g), lambda: operator_norm(T, g),
                    lambda: operator_norm(as_expr(T) + T, g)):
            with pytest.raises(TypeError, match="Delegate is not an operator"):
                run()

    def test_zero_operator_profile(self):
        g = GridCircle(8)
        wc = WeightedComposition(ScalarField.constant(2.0), SymbolMap.doubling())
        prof = perturbation_profile(wc, zero_operator(), g)
        assert not prof.aligned_mass.any() and not prof.total_variation.any()
        assert perturbed_norm(wc, zero_operator(), g) == 2.0

    def test_memo_stays_bounded_over_a_battery(self):
        # one block, many instances: the memo keeps at most MEMO_SIZE entries
        g = GridCircle(8)
        T = rank_one(ScalarField.constant(0.5), at=Fraction(0))
        with shared_compilation():
            for k in range(3 * circle.MEMO_SIZE):
                wc = WeightedComposition(ScalarField.constant(1.0 + k), SymbolMap.identity())
                assert perturbed_norm(wc, T, g) == 1.5 + k
            assert len(circle._MEMO.get().entries) == circle.MEMO_SIZE
        assert circle._MEMO.get() is None

    def test_profile_arrays_are_read_only(self):
        g = GridCircle(8)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        prof = perturbation_profile(wc, rank_one(ScalarField.constant(0.5), at=Fraction(0)), g)
        with pytest.raises(ValueError):
            prof.off_mass[0] = 1.0


class TestCrossCheckFires:
    """The per-point reference pass rejects a wrong compiled profile."""

    @pytest.mark.parametrize("k, where", [(0, "on target"), (3, "off target")])
    def test_corrupt_compiled_weight_is_caught_at_its_point(self, monkeypatch, k, where):
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.cosine(offset=0.5, amplitude=0.25), at=Fraction(0))
        original = operators.compile_family

        def corrupted(op, space):
            fam = original(op, space)
            weights = fam.weights.copy()
            weights[0, k] += 0.25  # the atom at 0: s = 0 maps onto it, s = 3/16 does not
            tv = fam.tv.copy()
            tv[k] = abs(complex(weights[0, k]))
            return operators.CompiledFamily(fam.codes, weights, fam.present, tv)

        monkeypatch.setattr(operators, "compile_family", corrupted)
        with pytest.raises(InvariantViolation, match=f"at s={Fraction(k, 16)}$"):
            perturbed_norm(wc, T, g)

    @pytest.mark.parametrize("k, where", [(3, "no atom of mu_s at phi(s)"),
                                          (0, "u(s) + mu_s({phi(s)}) = 0")])
    def test_corrupt_split_is_caught_at_its_point(self, monkeypatch, k, where):
        # the direct norm appends |u(s)| at s = 3/16 and adds u(s) to an
        # atom it cancels at s = 0
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.constant(-1.0), at=Fraction(0))
        p = Fraction(k, 16)
        assert mass_at(T.measure_at(p), wc.phi(p)) == (-1 if k == 0 else 0)
        original = operators._compiled_profile

        def corrupted(wc, T, grid):
            weight, *rest = original(wc, T, grid)
            weight = weight.copy()
            weight[k] += 0.25
            return (weight, *rest)

        monkeypatch.setattr(operators, "_compiled_profile", corrupted)
        with pytest.raises(InvariantViolation, match=f"aligned/off-target split .* at s={p}$"):
            perturbation_profile(wc, T, g)

    def test_corrupt_weight_that_keeps_the_split_is_caught_at_its_point(self, monkeypatch):
        # at s = 0 the aligned mass is 1, so u = -3 there keeps |u + m| = 2,
        # and the split with it, but makes |u| the largest: sup|u| catches it
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        original = operators._compiled_profile

        def corrupted(wc, T, grid):
            weight, *rest = original(wc, T, grid)
            weight = weight.copy()
            weight[0] = -3.0
            return (weight, *rest)

        monkeypatch.setattr(operators, "_compiled_profile", corrupted)
        with pytest.raises(InvariantViolation, match=r"tabulated \|u\| 3\.0 .* at s=0$"):
            perturbation_profile(wc, T, g)

    def test_corrupt_row_total_variation_is_caught(self, monkeypatch):
        g = GridCircle(16)
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        T = rank_one(ScalarField.constant(0.5), at=Fraction(1, 2))
        original = operators.compile_family

        def corrupted(op, space):
            fam = original(op, space)
            tv = fam.tv.copy()
            tv[5] *= 1.5
            return operators.CompiledFamily(fam.codes, fam.weights, fam.present, tv)

        monkeypatch.setattr(operators, "compile_family", corrupted)
        with pytest.raises(InvariantViolation, match="compiled total variation .* at s=5/16$"):
            perturbation_profile(wc, T, g)

    @pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6], ids=["raised", "lowered"])
    def test_corrupt_tabulated_modulus_is_caught_at_its_point(self, monkeypatch, factor):
        # |u| = 1 everywhere, so the corrupted value becomes the largest or
        # the smallest modulus, and the spread alone would read a dip.  No
        # mass is aligned at s = 23/64, and the off-target variation there
        # takes up the change, so the split still matches its direct norm
        original = operators._compiled_profile

        def corrupted(wc, T, grid):
            weight, aligned, off, tv = original(wc, T, grid)
            weight, off = weight.copy(), off.copy()
            before = abs(complex(weight[23]))
            weight[23] *= factor
            off[23] += before - abs(complex(weight[23]))
            return weight, aligned, off, tv

        monkeypatch.setattr(operators, "_compiled_profile", corrupted)
        wc = WeightedComposition(ScalarField.unimodular_exp(1), SymbolMap.doubling())
        T = rank_one(ScalarField.constant(1.0), at=Fraction(0))
        with pytest.raises(InvariantViolation, match=r"tabulated \|u\| .* at s=23/64$"):
            rotation_max_norm(wc, T, GridCircle(64))

    def test_corrupt_convex_norm_row_is_caught(self, monkeypatch):
        # the rows of cc + T peak at s = 1/16 with 1.96..., below 1 + ||T|| = 2,
        # so a raised row there still passes the additivity bound
        g = GridCircle(16)
        phi, psi = SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, 16))
        T = rank_one(ScalarField.cosine(offset=0.5, amplitude=0.5), at=Fraction(0), scale=-1.0)
        assert convex_center_check(0.5, phi, psi, T, g).gap > 0.02
        original = operators.compile_family

        def corrupted(op, space):
            fam = original(op, space)
            if not (isinstance(op, OperatorExpr) and op.terms[-1][1] == T):
                return fam
            assert int(np.argmax(fam.tv)) == 1
            tv = fam.tv.copy()
            tv[1] += 0.01
            return operators.CompiledFamily(fam.codes, fam.weights, fam.present, tv)

        monkeypatch.setattr(operators, "compile_family", corrupted)
        with pytest.raises(InvariantViolation, match="compiled norm .* at s=1/16$"):
            convex_center_check(0.5, phi, psi, T, g)

    @pytest.mark.parametrize("norm", [
        operator_norm,
        lambda T, g: convex_center_check(0.5, SymbolMap.doubling(),
                                         SymbolMap.rotation(Fraction(1, 16)), T, g)],
        ids=["operator-norm", "convex"])
    def test_corrupt_norm_is_caught_where_it_is_attained(self, monkeypatch, norm):
        g = GridCircle(16)
        T = rank_one(ScalarField.tent(Fraction(5, 16), Fraction(1, 4), peak=2.0, base=0.5),
                     at=Fraction(0))
        original = operators.compile_family

        def corrupted(op, space):
            fam = original(op, space)
            if op != T:
                return fam
            tv = fam.tv.copy()
            tv[int(np.argmax(tv))] *= 1 + 1e-6
            return operators.CompiledFamily(fam.codes, fam.weights, fam.present, tv)

        monkeypatch.setattr(operators, "compile_family", corrupted)
        with pytest.raises(InvariantViolation, match="compiled norm .* at s=5/16$"):
            norm(T, g)

    @pytest.mark.parametrize("name, s", [("off-grid-rational", "0"),
                                         ("circle-dip-256", "35/256")])
    def test_corrupt_convex_deficiency_is_caught_at_its_point(self, monkeypatch, name, s):
        # one point mass off by 1e-6 relative moves only the min of a part,
        # which the report shows
        obj = json.loads((GOLDEN / f"{name}.json").read_text())
        sc = parse_scenario(dict(obj, checks=[{"name": "convex"}]))
        original = criteria.point_masses

        def corrupted(fam, targets):
            mass, slot = original(fam, targets)
            mass = mass.copy()
            mass[np.flatnonzero(mass)[0]] *= 1 + 1e-6
            return mass, slot

        monkeypatch.setattr(criteria, "point_masses", corrupted)
        with pytest.raises(InvariantViolation, match=f"deficiency .* at s={s}$"):
            run_scenario(sc)

    def test_corrupt_symbol_code_is_caught_at_its_point(self, monkeypatch):
        # phi and psi never agree on the grid, so a psi code set to phi's
        # makes a one-point same_symbol part, which is its own extreme
        g = GridCircle(16)
        phi, psi = SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, 32))
        T = rank_one(ScalarField.constant(0.5), at=Fraction(0))
        original = criteria.symbol_codes

        def corrupted(symbol, n):
            codes = original(symbol, n).copy()
            if symbol == psi:
                codes[3] = original(phi, n)[3]
            return codes

        monkeypatch.setattr(criteria, "symbol_codes", corrupted)
        with pytest.raises(InvariantViolation, match=r"phi\(s\) == psi\(s\) is False.* at s=3/16$"):
            convex_center_check(0.5, phi, psi, T, g)

    def test_selftest_convex_instance_measures_its_norm_point(self, monkeypatch):
        calls = []
        for cls in (WeightedComposition, FiniteRankOperator, OperatorExpr):
            def spy(self, s, original=cls.measure_at):
                calls.append(s)
                return original(self, s)
            monkeypatch.setattr(cls, "measure_at", spy)
        assert selftest._convex_stage()["passed"]
        assert calls
