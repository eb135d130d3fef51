"""Disk-algebra searches: Blaschke families, certified bounds, automorphisms."""

import cmath
import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from daugavetlab import disk
from daugavetlab.disk import (
    ArcNeighborhood,
    BlaschkeProduct,
    DiskFunction,
    RankOneDiskOperator,
    SearchLadder,
    automorphism_identity_check,
    blaschke_eval,
    certified_counterexample_bound,
    check_c_conditions,
    disk_counterexample_operator,
    disk_norm_lower_bound,
)
from daugavetlab.errors import REL_TOL, InvariantViolation


class TestBlaschke:
    def test_boundary_modulus_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = rng.integers(1, 5)
            zeros = tuple(0.95 * rng.random() * np.exp(2j * np.pi * rng.random())
                          for _ in range(k))
            B = BlaschkeProduct(zeros=zeros)
            z = np.exp(2j * np.pi * rng.random(64))
            assert np.max(np.abs(np.abs(blaschke_eval(B, z)) - 1.0)) < 1e-12

    def test_vanishes_at_its_zeros(self):
        B = BlaschkeProduct(zeros=(0.5 + 0j, -0.3j))
        assert abs(B(0.5)) < 1e-15
        assert abs(B(-0.3j)) < 1e-15
        assert B.degree == 2

    def test_monomial_is_a_degenerate_product(self):
        B = BlaschkeProduct(zeros=(0j, 0j, 0j))
        z = 0.5 * cmath.exp(0.7j)
        assert B(z) == pytest.approx(z ** 3, abs=1e-15)

    def test_rejects_zero_outside_disk(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=(1.2 + 0j,))

    def test_rejects_non_unimodular_constant(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(unimodular_constant=0.5, zeros=())

    def test_rejects_evaluation_outside_closed_disk(self):
        B = BlaschkeProduct(zeros=(0.5 + 0j,))
        with pytest.raises(ValueError):
            B(1.5 + 0j)


class TestDiskFunctions:
    def test_polynomial_evaluation(self):
        f = DiskFunction.polynomial([1.0, 0.0, -2.0])
        assert f(0.5) == pytest.approx(1.0 - 0.5, abs=1e-15)

    def test_affine_sup_norm_is_exact(self):
        f = DiskFunction.polynomial([0.3, -0.7j])
        value, exact = f.sup_norm()
        assert exact
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_blaschke_sup_norm_is_exact_one(self):
        f = DiskFunction.blaschke_multiple(BlaschkeProduct(zeros=(0.4 + 0j,)))
        value, exact = f.sup_norm()
        assert exact and value == 1.0

    def test_half_plus_peaks_at_omega(self):
        g = DiskFunction.half_plus(1 + 0j)
        assert g(1.0) == pytest.approx(1.0, abs=1e-15)
        assert g(-1.0) == pytest.approx(0.0, abs=1e-15)
        value, exact = g.sup_norm()
        assert exact and value == pytest.approx(1.0, abs=1e-15)

    def test_scaled_identity(self):
        f = DiskFunction.scaled_identity(0.5)
        assert f(1 + 0j) == pytest.approx(0.5, abs=1e-15)


class TestCConditions:
    def test_three_positive_examples(self):
        one = DiskFunction.constant(1.0)
        cases = [
            (one, DiskFunction.polynomial([0.0, 0.0, 1.0])),          # z^2
            (DiskFunction.constant(2j),
             DiskFunction.blaschke_multiple(BlaschkeProduct(zeros=(0.5 + 0j, 0j)))),
            (one, DiskFunction.blaschke_multiple(
                BlaschkeProduct(zeros=(0.3j, -0.4 + 0j, 0j)))),
        ]
        for u, phi in cases:
            res = check_c_conditions(u, phi)
            assert res.all_hold, res.detail

    def test_nonconstant_weight_fails(self):
        u = DiskFunction.polynomial([0.5, 0.5])
        phi = DiskFunction.polynomial([0.0, 0.0, 1.0])
        res = check_c_conditions(u, phi)
        assert not res.weight_modulus_constant and not res.all_hold

    def test_non_inner_symbol_fails(self):
        res = check_c_conditions(DiskFunction.constant(1.0),
                                 DiskFunction.scaled_identity(0.5))
        assert not res.symbol_inner and not res.all_hold

    def test_constant_symbol_fails(self):
        res = check_c_conditions(DiskFunction.constant(1.0),
                                 DiskFunction.constant(0.3))
        assert not res.symbol_nonconstant and not res.all_hold


class TestLowerBound:
    def test_plain_composition_reaches_its_weight(self):
        # with T = 0 the constant test function f = 1 already attains sup|u|
        one = DiskFunction.constant(1.0)
        res = disk_norm_lower_bound(one, DiskFunction.polynomial([0.0, 0.0, 1.0]))
        assert res.bound == pytest.approx(1.0, abs=1e-12)

    def test_point_eval_perturbation_near_two(self):
        one = DiskFunction.constant(1.0)
        square = DiskFunction.polynomial([0.0, 0.0, 1.0])
        T = RankOneDiskOperator(tau=0.0, g=one, c=-1.0)
        res = disk_norm_lower_bound(one, square, T)
        assert res.bound >= 1.99
        assert res.witness["kind"] == "blaschke"

    def test_family_size_matches_ladder(self):
        ladder = SearchLadder(radii=(0.9,), max_depth=2, max_monomial=4)
        one = DiskFunction.constant(1.0)
        res = disk_norm_lower_bound(one, DiskFunction.polynomial([0.0, 0.0, 1.0]),
                                    ladder=ladder)
        # constant, depth 1: 3 zeros, depth 2: 6 multisets, monomials z^3, z^4
        assert res.family_size == 12

    def test_never_exceeds_triangle_bound(self):
        rng = np.random.default_rng(17)
        one = DiskFunction.constant(1.0)
        ladder = SearchLadder(radii=(0.9,), max_depth=2, max_monomial=4, samples=512)
        for _ in range(10):
            a = 0.8 * rng.random() * np.exp(2j * np.pi * rng.random())
            tau = 0.8 * rng.random() * np.exp(2j * np.pi * rng.random())
            c = complex(rng.standard_normal(), rng.standard_normal())
            phi = DiskFunction.blaschke_multiple(BlaschkeProduct(zeros=(a,)))
            T = RankOneDiskOperator(tau=tau, g=DiskFunction.half_plus(1 + 0j), c=c)
            res = disk_norm_lower_bound(one, phi, T, ladder=ladder)
            assert res.bound <= 1.0 + abs(c) + 1e-6

    def test_rejects_symbol_leaving_the_disk(self):
        with pytest.raises(ValueError):
            disk_norm_lower_bound(DiskFunction.constant(1.0),
                                  DiskFunction.polynomial([0.0, 2.0]))

    @pytest.mark.parametrize("phi", [DiskFunction.constant(0.0),
                                     DiskFunction.scaled_identity(0.0)])
    def test_symbol_vanishing_at_samples_warns_nothing(self, phi):
        T = RankOneDiskOperator(tau=0.3, g=DiskFunction.constant(1.0), c=1.0)
        ladder = SearchLadder(max_depth=2, samples=64)
        one = DiskFunction.constant(1.0)
        for op in (None, T):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = disk_norm_lower_bound(one, phi, op, ladder)
            with np.errstate(all="ignore"):
                reference = reference_lower_bound(one, phi, op, ladder)
            assert (res.bound, res.witness, res.family_size) == reference

    def test_value_a_billionth_over_the_bound_still_raises(self, monkeypatch):
        # the default ladder's slack tracks its rounding (about 1e-11 at unit
        # magnitude), well under the 1e-9 an exact bound has always allowed
        monkeypatch.setattr(DiskFunction, "sup_norm",
                            lambda self, samples=4096: (1.0 - 1e-9, True))
        with pytest.raises(InvariantViolation, match="exceeds the triangle bound"):
            disk_norm_lower_bound(DiskFunction.constant(1.0),
                                  DiskFunction.polynomial([0.0, 0.0, 1.0]))


def reference_lower_bound(u, phi, T, ladder):
    """The per-function route: blaschke_eval on every test_functions() entry,
    first maximiser in ladder order."""
    m = ladder.samples
    z = np.exp(2j * np.pi * np.arange(m) / m)
    uz = np.asarray(u(z))
    phiz = np.asarray(phi(z))
    phiz = np.where(np.abs(phiz) > 1.0, phiz / np.abs(phiz), phiz)
    best, witness, count = -1.0, {}, 0
    for desc, f in ladder.test_functions():
        count += 1
        values = uz * blaschke_eval(f, phiz)
        if T is not None:
            values = values + T.c * blaschke_eval(f, complex(T.tau)) * np.asarray(T.g(z))
        values = np.abs(values)
        k = int(np.argmax(values))
        if float(values[k]) > best:
            best = float(values[k])
            witness = dict(desc)
            witness.update({"sample_index": k, "z": complex(z[k])})
    return best, witness, count


def random_disk_point(rng, radius):
    return radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def unit(rng):
    return cmath.exp(2j * math.pi * rng.random())


def inner_case(rng):
    """Shaped like the benchmark's inner template: |u| constant on the
    boundary, phi an automorphism, T a point evaluation at |tau| <= 0.5."""
    u = DiskFunction.blaschke_multiple(
        BlaschkeProduct(zeros=(random_disk_point(rng, 0.7),)),
        scale=(0.5 + 1.5 * rng.random()) * unit(rng))
    phi = DiskFunction.blaschke_multiple(
        BlaschkeProduct(unimodular_constant=unit(rng), zeros=(random_disk_point(rng, 0.5),)))
    T = RankOneDiskOperator(tau=random_disk_point(rng, 0.5),
                            g=DiskFunction.constant((0.5 + 0.5 * rng.random()) * unit(rng)),
                            c=(0.5 + 0.5 * rng.random()) * unit(rng))
    return u, phi, T


def certified_case(rng):
    """Shaped like the benchmark's certified template: constant u, a
    contraction phi(z) = s z and -T for the canonical T at omega."""
    u = (0.5 + 1.5 * rng.random()) * unit(rng)
    s = (0.25 + 0.25 * rng.random()) * unit(rng)
    omega = unit(rng)
    T = RankOneDiskOperator(tau=s * omega, g=DiskFunction.half_plus(omega), c=-u)
    return DiskFunction.constant(u), DiskFunction.scaled_identity(s), T


def contraction_case(rng):
    """No T, and a symbol that stays inside the disk."""
    u = DiskFunction.polynomial(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    phi = [DiskFunction.scaled_identity(random_disk_point(rng, 0.9)),
           DiskFunction.polynomial([random_disk_point(rng, 0.3), 0.4, 0.2j])
           ][int(rng.integers(0, 2))]
    return u, phi, None


H_POINTS = st.builds(cmath.rect, st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))
H_UNITS = st.builds(cmath.rect, st.just(1.0), st.floats(0.0, 2 * math.pi))
H_SCALARS = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
H_WEIGHTS = st.one_of(
    st.builds(DiskFunction.constant, H_SCALARS),
    st.builds(lambda a, s: DiskFunction.blaschke_multiple(BlaschkeProduct(zeros=(a,)), s),
              H_POINTS, H_SCALARS),
    st.lists(H_SCALARS, min_size=1, max_size=3).map(DiskFunction.polynomial))
H_SYMBOLS = st.one_of(
    st.builds(lambda c, zs: DiskFunction.blaschke_multiple(BlaschkeProduct(c, tuple(zs))),
              H_UNITS, st.lists(H_POINTS, min_size=1, max_size=2)),
    st.builds(lambda r, w: DiskFunction.scaled_identity(r * w), st.floats(0.0, 1.0), H_UNITS),
    st.builds(lambda a, r, w: DiskFunction.polynomial([a, (1.0 - abs(a)) * r * w]),
              H_POINTS, st.floats(0.0, 1.0), H_UNITS),
    st.builds(lambda r, w: DiskFunction.constant(r * w), st.floats(0.0, 1.0), H_UNITS))
H_OPERATORS = st.one_of(st.none(), st.builds(
    RankOneDiskOperator,
    tau=st.one_of(H_POINTS, H_UNITS),
    g=st.one_of(st.builds(DiskFunction.half_plus, H_UNITS),
                st.builds(DiskFunction.constant, H_SCALARS)),
    c=H_SCALARS))
H_LADDERS = st.builds(
    SearchLadder,
    radii=st.lists(st.sampled_from([0.3, 0.5, 0.9, 0.99, 0.999]), min_size=1,
                   max_size=2).map(tuple),
    max_depth=st.integers(0, 3), max_monomial=st.integers(0, 5), samples=st.integers(1, 64))


class TestLadderWalk:
    """The prefix walk against blaschke_eval per function, compared with ==."""

    def random_case(self, rng):
        u = [DiskFunction.polynomial(rng.standard_normal(3) + 1j * rng.standard_normal(3)),
             DiskFunction.blaschke_multiple(BlaschkeProduct(zeros=(random_disk_point(rng, 0.9),)),
                                            scale=complex(rng.standard_normal(), 1.0)),
             DiskFunction.constant(complex(rng.standard_normal(), rng.standard_normal()))
             ][int(rng.integers(0, 3))]
        phi = [DiskFunction.blaschke_multiple(BlaschkeProduct(
                   zeros=tuple(random_disk_point(rng, 0.95) for _ in range(int(rng.integers(1, 3)))))),
               DiskFunction.polynomial([random_disk_point(rng, 0.3), 0.4, 0.3j]),
               DiskFunction.scaled_identity(random_disk_point(rng, 1.0))
               ][int(rng.integers(0, 3))]
        T = RankOneDiskOperator(
            tau=random_disk_point(rng, 1.0),
            g=[DiskFunction.half_plus(cmath.exp(2j * math.pi * rng.random())),
               DiskFunction.polynomial([0.2, random_disk_point(rng, 0.5), 0.1j])
               ][int(rng.integers(0, 2))],
            c=complex(rng.standard_normal(), rng.standard_normal()))
        radii = tuple(float(r) for r in 0.05 + 0.949 * rng.random(int(rng.integers(1, 3))))
        return u, phi, T, radii

    def test_matches_per_function_route(self):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            u, phi, T, radii = self.random_case(rng)
            ladder = SearchLadder(radii=radii, max_depth=trial % 5,
                                  max_monomial=int(rng.integers(0, 8)),
                                  samples=int(rng.integers(1, 200)))
            for op in (None, T):
                res = disk_norm_lower_bound(u, phi, op, ladder)
                bound, witness, count = reference_lower_bound(u, phi, op, ladder)
                assert res.bound == bound
                assert res.witness == witness
                assert res.family_size == count

    @pytest.mark.parametrize("u, phi, samples", [
        (1j, DiskFunction.scaled_identity(1.0), 1),
        (cmath.exp(0.3j), DiskFunction.constant(1.0), 64),
    ])
    def test_full_tie_keeps_the_first_function(self, u, phi, samples):
        # phi(z) = 1 at every sample, where each factor is (1 - a) / (1 - a):
        # the maximum is a tie between many ladder functions
        ladder = SearchLadder(max_depth=3, max_monomial=6, samples=samples)
        res = disk_norm_lower_bound(DiskFunction.constant(u), phi, None, ladder)
        phiz = np.asarray(phi(np.exp(2j * np.pi * np.arange(samples) / samples)))
        maxima = [float(np.max(np.abs(u * blaschke_eval(f, phiz))))
                  for _, f in ladder.test_functions()]
        assert max(maxima) == res.bound and maxima.count(res.bound) > 1
        assert res.witness == {"kind": "blaschke", "zeros": [], "phase": 0.0,
                               "sample_index": 0, "z": 1 + 0j}
        assert (res.bound, res.witness, res.family_size) == reference_lower_bound(
            DiskFunction.constant(u), phi, None, ladder)

    def test_pole_still_raises(self):
        class PoleLadder(SearchLadder):
            def test_functions(self):
                yield from super().test_functions()
                f = BlaschkeProduct(zeros=(0.5 + 0j,))
                object.__setattr__(f, "zeros", (1 + 0j,))  # bypass the |a| < 1 check
                yield {"kind": "blaschke", "zeros": [1.0], "phase": 0.0}, f

        ladder = PoleLadder(max_depth=1, max_monomial=0, samples=8)
        one = DiskFunction.constant(1.0)
        identity = DiskFunction.scaled_identity(1.0)
        with pytest.raises(ValueError, match="pole of the"):
            disk_norm_lower_bound(one, identity, None, ladder)
        with pytest.raises(ValueError, match="pole of the"):
            reference_lower_bound(one, identity, None, ladder)

    def test_evaluation_outside_the_disk_still_raises(self):
        T = RankOneDiskOperator(tau=0.5, g=DiskFunction.constant(1.0), c=1.0)
        object.__setattr__(T, "tau", 1.5 + 0j)  # bypass the closed-disk check
        ladder = SearchLadder(max_depth=1, samples=8)
        one = DiskFunction.constant(1.0)
        with pytest.raises(ValueError, match="outside the closed unit disk"):
            disk_norm_lower_bound(one, DiskFunction.scaled_identity(0.5), T, ladder)
        with pytest.raises(ValueError, match="leaves the closed disk"):
            disk_norm_lower_bound(one, DiskFunction.scaled_identity(1.5), None, ladder)


    def check(self, u, phi, T, ladder):
        """The pruned walk, warning-free, against the reference route."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = disk_norm_lower_bound(u, phi, T, ladder)
        with np.errstate(all="ignore"):  # the reference's clip divides every sample
            reference = reference_lower_bound(u, phi, T, ladder)
        assert (res.bound, res.witness, res.family_size) == reference
        assert 1 <= res.evaluated <= res.family_size
        return res

    @pytest.mark.parametrize("case", [inner_case, certified_case, contraction_case])
    def test_template_cases_skip_and_match_the_reference(self, case):
        rng = np.random.default_rng(11)
        for trial in range(6):
            ladder = SearchLadder(max_depth=2 + trial % 2, samples=int(rng.integers(64, 512)))
            res = self.check(*case(rng), ladder)
            assert res.evaluated < res.family_size

    def test_nothing_is_skipped_when_every_cap_reaches_the_best(self):
        # f = 1 attains |1 + 1| = 2 at z = tau = 1, and every member has
        # sup |f| = 1 = |f(tau)|, so no cap falls below 2
        one = DiskFunction.constant(1.0)
        T = RankOneDiskOperator(tau=1.0, g=one, c=1.0)
        ladder = SearchLadder(max_depth=3, max_monomial=6, samples=128)
        res = self.check(one, DiskFunction.scaled_identity(1.0), T, ladder)
        assert res.bound == 2.0
        assert res.evaluated == res.family_size

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(u=H_WEIGHTS, phi=H_SYMBOLS, T=H_OPERATORS, ladder=H_LADDERS)
    @example(u=DiskFunction.constant(1.0), phi=DiskFunction.scaled_identity(1.0),
             T=RankOneDiskOperator(tau=1.0, g=DiskFunction.constant(1.0), c=1.0),
             ladder=SearchLadder(radii=(0.999,), max_depth=3, max_monomial=5, samples=1))
    def test_generated_cases_match_the_reference(self, u, phi, T, ladder):
        self.check(u, phi, T, ladder)

    def test_witness_shares_nothing_with_the_memoized_tree(self):
        one = DiskFunction.constant(1.0)
        T = RankOneDiskOperator(tau=0.0, g=one, c=-1.0)
        args = (one, DiskFunction.polynomial([0.0, 0.0, 1.0]), T,
                SearchLadder(radii=(0.9,), max_depth=2, max_monomial=3, samples=64))
        first = disk_norm_lower_bound(*args)
        expected = copy.deepcopy(first)
        assert first.witness["zeros"]
        first.witness["zeros"].append(0.5)
        first.witness["zeros"][0] = -1.0
        assert disk_norm_lower_bound(*args) == expected

    def test_radii_given_as_a_list_still_work(self):
        ladder = SearchLadder(radii=[0.9, 0.5], max_depth=2, samples=32)
        assert ladder == SearchLadder(radii=(0.9, 0.5), max_depth=2, samples=32)
        self.check(DiskFunction.constant(1.0), DiskFunction.scaled_identity(0.5), None, ladder)

    def test_subclass_ladder_gets_its_own_tree(self):
        # a plain ladder with the pole ladder's field values runs first, so
        # a memo keyed on field values alone would hand the pole ladder a
        # tree without its pole factor
        disk_norm_lower_bound(DiskFunction.constant(1.0), DiskFunction.scaled_identity(1.0),
                              None, SearchLadder(max_depth=1, max_monomial=0, samples=8))
        self.test_pole_still_raises()


def divided_last(B, z):
    """blaschke_eval as it associated each factor before the ladder walk
    formed each factor once, out * (z - a) / den, kept to bound what that
    change moved."""
    arr = np.asarray(z, dtype=complex)
    out = np.full(arr.shape, B.unimodular_constant, dtype=complex)
    for a in B.zeros:
        out = out * (arr - a) / (1.0 - np.conj(a) * arr)
    return out


def member_scores(u, phi, T, ladder, evaluate):
    """(max_k |u f(phi) + c f(tau) g|, its first k) of every test_functions()
    member, each f evaluated by evaluate, as reference_lower_bound scores it."""
    m = ladder.samples
    z = np.exp(2j * np.pi * np.arange(m) / m)
    uz = np.asarray(u(z))
    phiz = np.asarray(phi(z))
    phiz = np.where(np.abs(phiz) > 1.0, phiz / np.abs(phiz), phiz)
    scores = []
    for _, f in ladder.test_functions():
        values = uz * evaluate(f, phiz)
        if T is not None:
            values = values + T.c * evaluate(f, complex(T.tau)) * np.asarray(T.g(z))
        values = np.abs(values)
        k = int(np.argmax(values))
        scores.append((float(values[k]), k))
    return scores


class TestFactorAssociation:
    """Dividing out each factor before multiplying by it moved ladder values
    in their last bits, never by more than the walk's skip slack, and the
    walk forms each factor once, only when a scored member needs it."""

    @pytest.mark.parametrize("case", [inner_case, certified_case])
    def test_moved_values_stay_inside_the_skip_slack(self, case):
        rng = np.random.default_rng(25)
        for trial in range(4):
            ladder = SearchLadder(radii=(0.5, 0.9, 0.99, 0.999)[trial:], max_depth=4 + trial % 2,
                                  samples=int(rng.integers(256, 1024)))
            u, phi, T = case(rng)
            scale = disk._ladder_scale(ladder, 1.0)

            def within_slack(new, old):
                return abs(new - old) <= 2.0 * REL_TOL * max(1.0, scale * max(new, old))

            now = member_scores(u, phi, T, ladder, blaschke_eval)
            before = member_scores(u, phi, T, ladder, divided_last)
            assert all(within_slack(a, b) for (a, _), (b, _) in zip(now, before))
            best = max(value for value, _ in before)
            first = next(i for i, (value, _) in enumerate(before) if value == best)
            res = disk_norm_lower_bound(u, phi, T, ladder)
            assert within_slack(res.bound, best)
            desc = list(ladder.test_functions())[first][0]
            assert {k: v for k, v in res.witness.items() if k != "z"} == {
                **desc, "sample_index": before[first][1]}

    def formed(self, monkeypatch, u, phi, T, ladder):
        """The walk's result and the pool zeros whose factor it formed at
        the samples (0-d factors at tau apart), in order."""
        factor, calls = disk._factor, []

        def spy(arr, a, den):
            calls.append((a, np.ndim(arr)))
            return factor(arr, a, den)

        monkeypatch.setattr(disk, "_factor", spy)
        res = disk_norm_lower_bound(u, phi, T, ladder)
        assert [a for a, ndim in calls if not ndim] == (
            [] if T is None else [complex(a) for a in ladder.zero_pool()])
        return res, [a for a, ndim in calls if ndim]

    @pytest.mark.parametrize("case", [certified_case, contraction_case])
    def test_each_factor_is_formed_at_most_once(self, monkeypatch, case):
        rng = np.random.default_rng(11)
        for trial in range(4):
            ladder = SearchLadder(max_depth=2 + trial % 2, samples=int(rng.integers(64, 512)))
            res, formed = self.formed(monkeypatch, *case(rng), ladder)
            assert res.evaluated > 1
            assert 1 <= len(formed) == len(set(formed)) <= len(ladder.zero_pool())

    def test_a_walk_that_scores_only_the_root_forms_none(self, monkeypatch):
        # the deck's inner entries: at f = 1 the dense samples score nearly
        # max|u| + |c| max|g|, and every child's cap falls short of that by
        # |c| max|g| (1 - |f(tau)|), since no factor is unimodular at tau
        rng = np.random.default_rng(11)
        for trial in range(4):
            ladder = SearchLadder(max_depth=4 + trial % 2, samples=int(rng.integers(1024, 4096)))
            res, formed = self.formed(monkeypatch, *inner_case(rng), ladder)
            assert (res.evaluated, formed) == (1, [])


class TestCertifiedBound:
    def canonical(self, half_angle=0.1):
        one = DiskFunction.constant(1.0)
        half = DiskFunction.scaled_identity(0.5)
        omega = 1 + 0j
        arc = ArcNeighborhood(omega, half_angle)
        return certified_counterexample_bound(one, half, omega, 0.05, arc)

    def test_canonical_numbers(self):
        res = self.canonical()
        # chain: 0.05 / 0.45^2 + 0.05 + 0.5, off-arc: 1 + cos(0.05)
        assert res.on_arc == pytest.approx(0.05 / 0.2025 + 0.55, abs=1e-15)
        assert res.off_arc == pytest.approx(1.0 + math.cos(0.05), abs=1e-15)
        assert res.bound == pytest.approx(1.9987502603949663, abs=1e-15)
        assert res.margin == pytest.approx(1.0 - math.cos(0.05), abs=1e-15)
        assert res.valid
        assert res.margin >= 1e-3

    def test_slightly_wider_arc_breaks_the_increment_check(self):
        # at half-angle 0.1001 the sampled |phi(z) - phi(omega)| tops epsilon
        res = self.canonical(half_angle=0.1001)
        assert not res.valid
        assert res.detail["phi_increment"] > 0.05

    def test_bound_dominates_sampled_norm(self):
        res = self.canonical()
        T = res.operator
        one = DiskFunction.constant(1.0)
        half = DiskFunction.scaled_identity(0.5)
        negated = RankOneDiskOperator(tau=T.tau, g=T.g, c=-T.c)
        sampled = disk_norm_lower_bound(one, half, negated)
        assert sampled.bound <= res.bound + 1e-9

    def test_epsilon_range_is_enforced(self):
        one = DiskFunction.constant(1.0)
        half = DiskFunction.scaled_identity(0.5)
        arc = ArcNeighborhood(1 + 0j, 0.1)
        with pytest.raises(ValueError):
            certified_counterexample_bound(one, half, 1 + 0j, 0.6, arc)  # > 1 - r

    def test_arc_must_sit_at_omega(self):
        one = DiskFunction.constant(1.0)
        half = DiskFunction.scaled_identity(0.5)
        with pytest.raises(ValueError):
            certified_counterexample_bound(one, half, 1 + 0j, 0.05,
                                           ArcNeighborhood(1j, 0.1))

    def test_operator_requires_interior_target(self):
        one = DiskFunction.constant(1.0)
        square = DiskFunction.polynomial([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            disk_counterexample_operator(one, square, 1 + 0j)  # phi(1) = 1


class TestAutomorphism:
    def test_identity_attained_for_simple_factor(self):
        phi = BlaschkeProduct(zeros=(0.5 + 0j,))
        T = RankOneDiskOperator(tau=phi(0.0), g=DiskFunction.constant(1.0), c=1.0)
        res = automorphism_identity_check(phi, T)
        assert res.deficit <= 1e-2
        assert res.target == pytest.approx(2.0, abs=1e-12)

    def test_rotation_with_point_eval(self):
        phi = BlaschkeProduct(unimodular_constant=cmath.exp(0.3j), zeros=(0j,))
        T = RankOneDiskOperator(tau=0.3, g=DiskFunction.half_plus(1 + 0j), c=0.7)
        res = automorphism_identity_check(phi, T)
        assert res.target == pytest.approx(1.7, abs=1e-12)
        assert res.deficit <= 1e-2
        assert res.lower <= res.target + 1e-9

    def test_bound_a_billionth_over_the_exact_norm_still_raises(self, monkeypatch):
        phi = BlaschkeProduct(zeros=(0.5 + 0j,))
        T = RankOneDiskOperator(tau=0.0, g=DiskFunction.constant(1.0), c=1.0)
        over = disk.LowerBoundResult(bound=2.0 + 1e-9, witness={}, family_size=1,
                                     samples=4096, evaluated=1)
        monkeypatch.setattr(disk, "disk_norm_lower_bound", lambda *args: over)
        with pytest.raises(InvariantViolation, match="exceeds the exact norm"):
            automorphism_identity_check(phi, T)

    def test_rejects_higher_degree(self):
        phi = BlaschkeProduct(zeros=(0j, 0j))
        T = RankOneDiskOperator(tau=0.0, g=DiskFunction.constant(1.0), c=1.0)
        with pytest.raises(ValueError):
            automorphism_identity_check(phi, T)
