"""The per-point reference pieces, pinned bit for bit to their earlier
algorithms.

linear_combine and FiniteRankOperator.measure_at apply a merge plan to
canonical measures without re-normalising them (the operator builds its
plan once), direct_norms adds u's atom in place of a second merge, tents
and arcs measure distances in integers, tables and sample fields find
grid indices with one divmod, and rotations, doubling and the
trigonometric fields evaluate a point from its integer numerator and
denominator.  AtomicMeasure validates every measure once, when it is
made, those applied from a merge plan included.  A convex combination is
an operator sum of two weighted compositions.  Each is held here to the
algorithm it replaced, copied below as the oracle: the Fraction route to
the circle distance and to rotations and doubling, a full from_atoms
pass, the sort-and-merge linear_combine, and the ConvexCombination
operator with its own compiled family, per-point measure and perturbed
norm.  The reference pass in columns (measures.column_norms) is held in
turn to the per-point route it batches: direct_norms of measure_at at
every grid point.  Each field and symbol kind has one per-point
implementation on integers (value_at, image_at), held here to the call at
the Fraction it names, at every reduction of the point; the columns of
the pass build no Fraction.
"""

import itertools
import math
import numbers
import re
import struct
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

from daugavetlab import operators
from daugavetlab.circle import (
    Arc,
    GridCircle,
    ScalarField,
    SymbolMap,
    frac_mod1,
    modulus,
    shared_compilation,
    symbol_codes,
    tabulate,
)
from daugavetlab.criteria import convex_center_check
from daugavetlab.disk import SearchLadder
from daugavetlab.measures import (
    AtomicMeasure,
    apply_plan,
    column_norms,
    direct_norms,
    linear_combine,
    merge_plan,
    total_variation,
)
from daugavetlab.operators import (
    FiniteRankOperator,
    OperatorExpr,
    WeightedComposition,
    as_expr,
    compiled_family,
    convex_combination,
    perturbation_profile,
    point_masses,
    rank_one,
    scaled,
)

# ---------------------------------------------------------------------------
# the earlier algorithms
# ---------------------------------------------------------------------------


def old_order(atom):
    pos = atom[0]
    return pos.numerator / pos.denominator, pos


def old_from_atoms(pairs):
    items = sorted(((frac_mod1(pos), complex(w)) for pos, w in pairs), key=old_order)
    merged = []
    for pos, w in items:
        if merged and merged[-1][0] == pos:
            merged[-1] = (pos, merged[-1][1] + w)
        else:
            merged.append((pos, w))
    return AtomicMeasure(tuple((pos, w) for pos, w in merged if w != 0))


def old_linear_combine(coeffs, measures):
    if len(coeffs) != len(measures):
        raise ValueError(f"{len(coeffs)} coefficients for {len(measures)} measures")
    pairs = []
    for c, mu in zip(coeffs, measures):
        c = complex(c)
        if c == 0:
            continue
        pairs.extend((pos, c * w) for pos, w in mu.atoms)
    return old_from_atoms(pairs)


def parent_merged(items):
    keyed = [((pos.numerator / pos.denominator, pos), pos, w) for pos, w in items]
    keyed.sort(key=itemgetter(0))
    merged = []
    last = None
    for key, pos, w in keyed:
        if key == last:
            merged[-1] = (pos, merged[-1][1] + w)
        else:
            merged.append((pos, w))
            last = key
    return AtomicMeasure(tuple((pos, w) for pos, w in merged if w != 0))


def parent_linear_combine(coeffs, measures):
    """linear_combine as it was before merge plans: every scaled atom
    sorted and merged at each call."""
    if len(coeffs) != len(measures):
        raise ValueError(f"{len(coeffs)} coefficients for {len(measures)} measures")
    pairs = []
    for c, mu in zip(coeffs, measures):
        c = complex(c)
        if c == 0:
            continue
        pairs.extend((pos, c * w) for pos, w in mu.atoms)
    return parent_merged(pairs)


def old_direct(mu, t, w):
    """The direct norm as the reference pass took it: uC_phi's atom merged
    into mu_s through linear_combine."""
    return total_variation(old_linear_combine([1.0, 1.0], [old_from_atoms([(t, w)]), mu]))


def old_circle_distance(a, b):
    d = abs(a - b)
    d = d % 1 if int(d) else d
    return min(d, 1 - d)


def old_tent(u, s):
    ratio = old_circle_distance(s, u.center) / u.half_width
    bump = max(0.0, 1.0 - float(ratio))
    return complex(u.base + (u.peak - u.base) * bump)


def old_as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return Fraction(int(x))
    raise TypeError(f"coordinates are exact rationals (an int or a Fraction), "
                    f"got {type(x).__name__} {x!r}")


def old_index_of(p, n):
    """GridCircle(n).index_of(p), whose grid check runs first."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got n={n}")
    scaled = old_as_fraction(p) * n
    if scaled.denominator != 1:
        raise ValueError(f"{p!r} is not a grid point of the {n}-point grid")
    return scaled.numerator % n


def parent_convex_family(t, phi, psi, n):
    """ConvexCombination's compiled family: two one-slot unit-weight
    families, combined with coefficients t and 1 - t.  Needs a
    shared_compilation() block."""
    one = operators._canonical([symbol_codes(phi, n)], [1 + 0j], [True], n)
    other = operators._canonical([symbol_codes(psi, n)], [1 + 0j], [True], n)
    return operators._combine([t, 1.0 - t], [one, other], n)


def parent_convex_measure(t, phi, psi, s):
    """ConvexCombination.measure_at."""
    return linear_combine([t, 1.0 - t], [AtomicMeasure.from_atoms([(phi(s), 1 + 0j)]),
                                         AtomicMeasure.from_atoms([(psi(s), 1 + 0j)])])


def parent_convex_center(t, phi, psi, T, grid):
    """(norm, gap, delta, delta_tilde) of convex_center_check on a
    ConvexCombination, its perturbed norm from convex_combo_perturbed_norm."""
    n = grid.n
    with shared_compilation():
        cc = parent_convex_family(t, phi, psi, n)
        fam = compiled_family(T, n)
        norm = float(operators._combine([1.0, 1.0], [cc, fam], n).tv.max())
        gap = float(cc.tv.max()) + float(fam.tv.max()) - norm
        phi_codes, psi_codes = symbol_codes(phi, n), symbol_codes(psi, n)
        m_phi, m_psi = point_masses(fam, phi_codes)[0], point_masses(fam, psi_codes)[0]
    same = phi_codes == psi_codes
    values = np.where(
        same,
        modulus(1.0 + m_phi) - (1.0 + modulus(m_phi)),
        (modulus(t + m_phi) + modulus(1.0 - t + m_psi))
        - (1.0 + modulus(m_phi) + modulus(m_psi)))
    delta, delta_tilde = [], []
    for p, same_symbol, value in zip(grid.points(), same.tolist(), values.tolist()):
        (delta_tilde if same_symbol else delta).append((p, value))
    return norm, gap, delta, delta_tilde


def bits(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def measure_bits(mu: AtomicMeasure):
    return [(pos, bits(w)) for pos, w in mu.atoms]


def raised(fn, *args):
    try:
        fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# positions on a coarse grid tie often; the huge denominators put distinct
# positions on one float
positions = st.one_of(
    st.integers(0, 7).map(lambda k: Fraction(k, 8)),
    st.sampled_from([Fraction(1, 10 ** 40), Fraction(1, 10 ** 40 + 1),
                     Fraction(10 ** 40, 10 ** 40 + 1), Fraction(1, 3)]))
weights = st.one_of(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([1 + 0j, -1 + 0j, 0.5j, 0.1 + 0.2j, -0.1 - 0.2j]))
measures = st.lists(st.tuples(positions, weights), max_size=6).map(old_from_atoms)
coeffs = st.one_of(st.sampled_from([0, 0j, 1.0, -1.0, 1j]), weights)


class TestLinearCombine:
    @given(st.lists(st.tuples(coeffs, measures), max_size=4))
    def test_matches_the_full_merge(self, terms):
        cs, mus = [c for c, _ in terms], [mu for _, mu in terms]
        assert measure_bits(linear_combine(cs, mus)) == measure_bits(old_linear_combine(cs, mus))

    @pytest.mark.parametrize("cs, atoms", [
        # tied positions across measures
        ([1.0, 2.0, 1j], [[(Fraction(1, 8), 1.0), (Fraction(1, 2), 2.0)],
                          [(Fraction(1, 2), -0.5), (Fraction(3, 4), 1j)],
                          [(Fraction(1, 8), 0.25)]]),
        # exact cancellation to zero at 1/2, and everywhere
        ([1.0, 1.0], [[(Fraction(1, 2), 0.1 + 0.2j), (Fraction(0), 1.0)],
                      [(Fraction(1, 2), -0.1 - 0.2j)]]),
        ([1.0, -1.0], [[(Fraction(1, 3), 0.7)], [(Fraction(1, 3), 0.7)]]),
        # zero coefficients skip their measure
        ([0, 0j, 2.0], [[(Fraction(0), 1.0)], [(Fraction(1, 4), 1.0)],
                        [(Fraction(1, 4), 1.0)]]),
        # distinct positions that share a float
        ([1.0, 1.0], [[(Fraction(1, 10 ** 40 + 1), 1.0)], [(Fraction(1, 10 ** 40), 2.0)]]),
    ], ids=["ties", "cancel-one", "cancel-all", "zero-coefficients", "same-float"])
    def test_cases(self, cs, atoms):
        mus = [old_from_atoms(a) for a in atoms]
        assert measure_bits(linear_combine(cs, mus)) == measure_bits(old_linear_combine(cs, mus))

    def test_length_mismatch_message_is_unchanged(self):
        mu = old_from_atoms([(Fraction(0), 1.0)])
        assert raised(linear_combine, [1.0], [mu, mu]) == raised(old_linear_combine,
                                                                  [1.0], [mu, mu])


class TestMergePlan:
    """The planned merge, held bit for bit to the sort-and-merge one."""

    special = st.sampled_from([0, 0.0, -0.0, 0j, complex(-0.0, -0.0), complex(0.0, -0.0),
                               math.inf, -math.inf, complex(0, math.inf), math.nan,
                               complex(math.nan, 0), complex(1, math.nan)])
    coefficients = st.one_of(special, coeffs)

    @staticmethod
    def operator(cs, mus):
        """The finite-rank operator whose measure at every point is
        sum_i cs[i] * mus[i]."""
        return FiniteRankOperator(tuple((ScalarField.constant(c), mu)
                                        for c, mu in zip(cs, mus)))

    def check(self, cs, mus):
        want = measure_bits(parent_linear_combine(cs, mus))
        assert measure_bits(linear_combine(cs, mus)) == want
        T = self.operator(cs, mus)
        for s in (Fraction(0), Fraction(3, 8)):
            assert measure_bits(T.measure_at(s)) == want

    @given(st.lists(st.tuples(coefficients, measures), max_size=5))
    def test_matches_the_parent_merge(self, terms):
        self.check([c for c, _ in terms], [mu for _, mu in terms])

    @pytest.mark.parametrize("cs, atoms", [
        # zero and negative-zero coefficients skip their measure
        ([-0.0, complex(-0.0, -0.0), 1.0], [[(Fraction(1, 8), 1.0)], [(Fraction(1, 8), 2.0)],
                                            [(Fraction(1, 8), -0.0 + 0j)]]),
        # inf and NaN coefficients, alone and meeting a finite term
        ([math.inf, 1.0], [[(Fraction(1, 4), 1 + 1j)], [(Fraction(1, 4), 2.0)]]),
        ([complex(math.nan, 0), 1j], [[(Fraction(0), 1.0)], [(Fraction(1, 2), 1.0)]]),
        ([complex(0, math.inf), -1.0], [[(Fraction(1, 3), 0.5j)], [(Fraction(1, 3), 0.5j)]]),
        # positions that coincide across three terms, summed in term order
        ([0.1, 0.2, 0.3], [[(Fraction(1, 8), 1.0), (Fraction(1, 2), 1.0)],
                           [(Fraction(1, 8), 1.0), (Fraction(1, 2), -3.0)],
                           [(Fraction(1, 8), 1.0)]]),
        # exact cancellation to zero, at one position and at every one
        ([1.0, -1.0], [[(Fraction(1, 2), 0.1 + 0.2j), (Fraction(0), 1.0)],
                       [(Fraction(1, 2), 0.1 + 0.2j)]]),
        ([2.0, -1.0], [[(Fraction(1, 3), 0.35)], [(Fraction(1, 3), 0.7)]]),
        # sums that reach -0.0 parts without being zero
        ([-1.0, 1.0], [[(Fraction(0), complex(0.0, 1.0))], [(Fraction(0), complex(-0.0, 2.0))]]),
    ], ids=["zero-coefficients", "inf", "nan", "inf-imaginary", "coincide", "cancel-one",
            "cancel-all", "negative-zero-parts"])
    def test_cases(self, cs, atoms):
        self.check(cs, [old_from_atoms(a) for a in atoms])

    def test_the_plan_is_built_once_per_operator(self, monkeypatch):
        # the reference pass reads the plan and the coefficients' columns:
        # each g_i(s) made by its per-point evaluation once per grid point
        # and grid, and no measure made one point at a time
        builds, points, evaluated = [], [], Counter()
        plan, measure_at = operators.merge_plan, FiniteRankOperator.measure_at
        value_at = ScalarField.value_at
        monkeypatch.setattr(operators, "merge_plan",
                            lambda lists: builds.append(1) or plan(lists))
        monkeypatch.setattr(FiniteRankOperator, "measure_at",
                            lambda self, s: points.append(s) or measure_at(self, s))
        monkeypatch.setattr(ScalarField, "value_at", lambda self, num, den: evaluated.update(
            [(self, Fraction(num, den))]) or value_at(self, num, den))
        T = self.operator([0.5, 1j], [old_from_atoms([(Fraction(1, 4), 1.0)]),
                                      old_from_atoms([(Fraction(1, 4), 2.0),
                                                      (Fraction(1, 2), 1.0)])])
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        perturbation_profile(wc, T, GridCircle(64))
        perturbation_profile(wc, T, GridCircle(32))
        assert len(builds) == 1
        assert points == []
        every = GridCircle(64).points() + GridCircle(32).points()
        assert evaluated == Counter([(g, s) for g in (wc.u, *(g for g, _ in T.terms))
                                     for s in every])


class TestValidationAtConstruction:
    """AtomicMeasure validates every measure once, when it is made: the
    measures applied from a merge plan and those of from_atoms pass the
    same check as a hand-built one."""

    fields = st.one_of(
        coeffs.map(ScalarField.constant),
        st.sampled_from([ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=3),
                         ScalarField.unimodular_exp(winding=-2, scale=0.3 - 0.4j),
                         ScalarField.tent(Fraction(1, 4), Fraction(1, 8), peak=-1.0),
                         ScalarField.tent(Fraction(0), Fraction(1, 2), base=0.5)]))

    @given(st.lists(st.tuples(fields, measures), max_size=4),
           st.lists(st.fractions(), min_size=1, max_size=4))
    @example([(ScalarField.constant(1.0), old_from_atoms([(Fraction(1, 2), 1.0)])),
              (ScalarField.constant(-1.0), old_from_atoms([(Fraction(1, 2), 1.0)]))],
             [Fraction(0)])
    def test_applied_measures_pass_full_validation(self, terms, points):
        T = FiniteRankOperator(tuple(terms))
        for s in points:
            mu = T.measure_at(s)
            assert AtomicMeasure(mu.atoms) == mu

    @given(st.lists(st.tuples(st.one_of(positions, st.fractions(), st.integers(-3, 3)),
                              weights), max_size=6))
    @example([(Fraction(1, 2), 1.0), (Fraction(3, 2), -1.0), (Fraction(-1, 4), 0.5j)])
    def test_from_atoms_passes_full_validation(self, pairs):
        mu = AtomicMeasure.from_atoms(pairs)
        assert AtomicMeasure(mu.atoms) == mu
        assert measure_bits(mu) == measure_bits(old_from_atoms(pairs))

    @pytest.mark.parametrize("position, message", [
        (Fraction(5, 4), "atom position 5/4 lies outside [0, 1)"),
        (Fraction(-1, 4), "atom position -1/4 lies outside [0, 1)"),
        (0, "atom position 0 is not a Fraction"),
    ], ids=["above-one", "negative", "int"])
    def test_a_plan_over_bad_positions_makes_no_measure(self, position, message):
        plan = merge_plan([[(Fraction(1, 4), 1.0)], [(position, 1.0)]])
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_plan(plan, [1.0, 1.0])

    def test_every_measure_is_validated_when_it_is_made(self, monkeypatch):
        made = []
        post_init = AtomicMeasure.__post_init__
        monkeypatch.setattr(AtomicMeasure, "__post_init__",
                            lambda self: made.append(self) or post_init(self))
        mu = old_from_atoms([(Fraction(1, 8), 1.0), (Fraction(1, 2), -1j)])
        T = FiniteRankOperator(((ScalarField.cosine(), mu), (ScalarField.constant(2j), mu)))
        wc = WeightedComposition(ScalarField.cosine(), SymbolMap.doubling())
        made.clear()
        want = [T.measure_at(Fraction(k, 8)) for k in range(8)]
        want += [wc.measure_at(Fraction(k, 8)) for k in range(8)]
        want.append(AtomicMeasure.from_atoms([(Fraction(9, 8), 1.0), (Fraction(1, 8), 1.0)]))
        want.append(linear_combine([1.0, 0.5j], [mu, want[-1]]))
        assert len(made) == len(want)
        assert all(got is measure for got, measure in zip(made, want))


class TestIntegerPoints:
    """Rotation, doubling and the trigonometric fields evaluate a point
    from its integer numerator and denominator, bit for bit as the
    Fraction route did."""

    points = st.one_of(st.fractions(), st.integers(-10, 10),
                       st.sampled_from([Fraction(1, 10 ** 40 + 1), Fraction(-7, 4),
                                        Fraction(10 ** 40, 10 ** 40 + 1)]))
    shifts = st.one_of(st.fractions(), st.sampled_from([Fraction(1, 3), Fraction(-1, 10 ** 30)]))

    @given(points, shifts)
    def test_rotation_and_doubling(self, s, shift):
        image = SymbolMap.rotation(shift)(s)
        assert image == frac_mod1(Fraction(s) + frac_mod1(shift))
        assert type(image) is Fraction and 0 <= image < 1
        assert SymbolMap.doubling()(s) == frac_mod1(2 * Fraction(s))

    @given(points, st.integers(-5, 5))
    def test_cosine_and_unimodular_exp(self, s, k):
        x = float(Fraction(s))
        cos = ScalarField.cosine(amplitude=0.7, offset=-0.2, frequency=k)
        assert bits(cos(s)) == bits(complex(-0.2 + 0.7 * math.cos(2.0 * math.pi * k * x)))
        exp = ScalarField.unimodular_exp(winding=k, scale=0.6 + 0.8j)
        theta = 2.0 * math.pi * k * x
        assert bits(exp(s)) == bits((0.6 + 0.8j) * complex(math.cos(theta), math.sin(theta)))


class TestDirectNorm:
    @given(measures, positions, weights)
    def test_matches_the_merged_total_variation(self, mu, t, w):
        assert direct_norms(mu, t, w) == (total_variation(mu), old_direct(mu, t, w))

    @pytest.mark.parametrize("where", ["on target", "off target", "cancels", "u = 0",
                                       "u = 0 off target", "unreduced target"])
    def test_cases(self, where):
        mu = old_from_atoms([(Fraction(1, 8), 0.3 - 0.4j), (Fraction(1, 2), 1.5),
                             (Fraction(3, 4), -0.25j)])
        t, w = {"on target": (Fraction(1, 2), 0.1 + 2j),
                "off target": (Fraction(1, 4), 0.1 + 2j),
                "cancels": (Fraction(1, 2), -1.5 + 0j),
                "u = 0": (Fraction(1, 2), 0j),
                "u = 0 off target": (Fraction(1, 4), 0j),
                "unreduced target": (Fraction(-1, 2), 0.5 + 0j)}[where]
        tv, direct = direct_norms(mu, t, w)
        assert struct.pack("<d", tv) == struct.pack("<d", total_variation(mu))
        assert struct.pack("<d", direct) == struct.pack("<d", old_direct(mu, t, w))

    def test_empty_measure(self):
        assert direct_norms(AtomicMeasure(), Fraction(1, 3), 3 - 4j) == (0.0, 5.0)
        assert direct_norms(AtomicMeasure(), Fraction(1, 3), 0j) == (0.0, 0.0)


class TestColumnNorms:
    """column_norms, the reference pass in columns, held bit for bit to
    direct_norms(T.measure_at(s), phi(s), u(s)) at every grid point, for
    every kind of operator: the same two norms, or the same exception."""

    fields = st.one_of(
        st.one_of(coeffs, st.sampled_from([-0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]))
        .map(ScalarField.constant),
        st.sampled_from([ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=2),
                         ScalarField.unimodular_exp(winding=-1, scale=0.3 - 0.4j),
                         ScalarField.tent(Fraction(1, 4), Fraction(1, 8), peak=-1.0),
                         ScalarField.tent(Fraction(0), Fraction(1, 2), peak=-0.5, base=0.5)]))
    symbols = st.sampled_from([
        SymbolMap.identity(), SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, 3)),
        SymbolMap.rotation(Fraction(1, 10 ** 40 + 1)),
        SymbolMap.constant_on_arc(Fraction(1, 2), Arc(Fraction(0), Fraction(1, 4))),
        SymbolMap.constant_on_arc(Fraction(1, 3), Arc(Fraction(1, 2), Fraction(1, 8)))])
    compositions = st.builds(WeightedComposition, fields, symbols)
    finite_ranks = st.lists(st.tuples(fields, measures), max_size=3).map(
        lambda terms: FiniteRankOperator(tuple(terms)))
    operators_ = st.recursive(
        st.one_of(compositions, finite_ranks),
        lambda parts: st.lists(st.tuples(coeffs, parts), max_size=3).map(
            lambda terms: OperatorExpr(tuple(terms))),
        max_leaves=5)

    @staticmethod
    def per_point(wc, T, n):
        """direct_norms at every point, or the first exception raised."""
        try:
            return [direct_norms(T.measure_at(p), wc.phi(p), wc.u(p))
                    for p in GridCircle(n).points()]
        except OverflowError as exc:
            return type(exc), str(exc)

    @staticmethod
    def columns(wc, T, n):
        try:
            with shared_compilation():
                tv, direct = column_norms(operators._columns(T, n),
                                          operators._pointwise(wc, n))
        except OverflowError as exc:
            return type(exc), str(exc)
        return list(zip(tv.tolist(), direct.tolist()))

    @staticmethod
    def same(a, b):
        """Equal bits, or both NaN (whose sign and payload no route fixes)."""
        if isinstance(a, tuple) or isinstance(b, tuple):  # an exception
            return a == b
        return len(a) == len(b) and all(
            (math.isnan(x) and math.isnan(y)) or struct.pack("<d", x) == struct.pack("<d", y)
            for pair_a, pair_b in zip(a, b) for x, y in zip(pair_a, pair_b))

    @settings(max_examples=60, deadline=None)
    @given(compositions, operators_, st.sampled_from([2, 5, 8, 64]))
    # atoms that cancel at 1/2, the target at every point
    @example(WeightedComposition(ScalarField.constant(2.0),
                                 SymbolMap.constant_on_arc(Fraction(1, 2), Arc(Fraction(0),
                                                                               Fraction(1, 2)))),
             as_expr(rank_one(ScalarField.cosine(), Fraction(1, 2), 0.3))
             + rank_one(ScalarField.cosine(), Fraction(1, 2), -0.3), 8)
    # nested sums with zero coefficients and -0.0 parts, off-grid atoms
    @example(WeightedComposition(ScalarField.constant(1j), SymbolMap.rotation(Fraction(1, 3))),
             OperatorExpr(((0, rank_one(ScalarField.constant(1.0), Fraction(1, 3))),
                           (1.0, as_expr(rank_one(ScalarField.constant(complex(-0.0, 1.0)),
                                                  Fraction(1, 3), -1.0))
                            + scaled(WeightedComposition(ScalarField.constant(1j),
                                                         SymbolMap.rotation(Fraction(1, 3))),
                                     complex(0.0, -0.0))))), 5)
    # a finite-rank sum that cancels to zero at 1/4 and an operator sum that
    # cancels at 1/2, each scaled by inf: the dropped atoms give no inf * 0
    @example(WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity()),
             OperatorExpr((
                 (math.inf, FiniteRankOperator(((ScalarField.constant(1.0),
                                                 old_from_atoms([(Fraction(1, 4), 0.5)])),
                                                (ScalarField.constant(-1.0),
                                                 old_from_atoms([(Fraction(1, 4), 0.5)]))))),
                 (math.inf, as_expr(rank_one(ScalarField.constant(1.0), Fraction(1, 2), 0.5))
                  + rank_one(ScalarField.constant(1.0), Fraction(1, 2), -0.5)))), 8)
    # an infinite weight, the same inf from both routes
    @example(WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity()),
             rank_one(ScalarField.constant(math.inf), Fraction(0)), 8)
    # weights whose abs() overflows, and moduli whose sum overflows in fsum
    @example(WeightedComposition(ScalarField.constant(1.5e308 + 1.5e308j), SymbolMap.doubling()),
             rank_one(ScalarField.constant(1.0), Fraction(0)), 8)
    @example(WeightedComposition(ScalarField.constant(1e308), SymbolMap.doubling()),
             FiniteRankOperator(((ScalarField.constant(1e308),
                                  old_from_atoms([(Fraction(1, 4), 1.0), (Fraction(1, 2), 1.0)])),
                                 )), 8)
    def test_matches_direct_norms_at_every_point(self, wc, T, n):
        with np.errstate(all="ignore"):
            want, got = self.per_point(wc, T, n), self.columns(wc, T, n)
        assert self.same(got, want), (got, want)


class TestIntegerDistances:
    tents = [ScalarField.tent(Fraction(1, 4), Fraction(1, 8), peak=1.3, base=-0.4),
             ScalarField.tent(Fraction(0), Fraction(1, 2)),
             ScalarField.tent_dip(Fraction(5, 7), Fraction(1, 3), depth=0.6),
             ScalarField.tent(Fraction(1, 10 ** 40 + 1), Fraction(1, 10 ** 20 + 3)),
             ScalarField.tent(Fraction(3, 10), Fraction(1, 5))]
    points = [Fraction(9, 4), Fraction(-1, 3), Fraction(1, 10 ** 40 + 1),
              Fraction(2, 10 ** 40 + 1), Fraction(-1, 10 ** 40 + 1), Fraction(0), 3, -2,
              Fraction(1, 4), Fraction(3, 8), Fraction(7, 10)]

    @pytest.mark.parametrize("u", tents, ids=range(len(tents)))
    def test_tent_matches_the_fraction_route(self, u):
        for s in self.points:
            assert bits(u(s)) == bits(old_tent(u, s)), s

    @given(st.fractions(), st.fractions(min_value=0, max_value=1).filter(bool),
           st.fractions())
    @example(Fraction(9, 4), Fraction(1, 8), Fraction(0))
    @example(Fraction(-1, 3), Fraction(1, 2), Fraction(1, 10 ** 40 + 1))
    def test_tent_and_arc_match_the_fraction_route(self, center, width, s):
        h = min(width, Fraction(1, 2))
        u = ScalarField.tent(center, h, peak=2.5, base=-1.0)
        assert bits(u(s)) == bits(old_tent(u, s))
        arc = Arc(center, h)
        assert arc.contains(s) == (old_circle_distance(s, arc.center) <= arc.half_width)

    def test_float_point_is_rejected(self):
        u = ScalarField.tent(Fraction(0), Fraction(1, 4))
        with pytest.raises(TypeError, match="exact rationals"):
            u(0.25)
        with pytest.raises(TypeError, match="exact rationals"):
            Arc(Fraction(0), Fraction(1, 4)).contains(0.25)


class TestGridIndex:
    n = 8
    samples = ScalarField.from_samples([complex(k, -k) for k in range(8)], 8)
    table = SymbolMap.from_table([(3 * k + 1) % 8 for k in range(8)], 8)

    @pytest.mark.parametrize("p", [Fraction(3, 8), Fraction(11, 8), Fraction(-1, 8), 0, 5,
                                   Fraction(1, 3), Fraction(1, 16), 0.375, 0.0])
    def test_samples_and_table_match_index_of(self, p):
        old = raised(old_index_of, p, self.n)
        if old is None:
            k = old_index_of(p, self.n)
            assert self.samples(p) == self.samples.samples[k]
            assert self.table(p) == Fraction(self.table.table[k], self.n)
            assert GridCircle(self.n).index_of(p) == k
        else:
            assert raised(self.samples, p) == old
            assert raised(self.table, p) == old
            assert raised(GridCircle(self.n).index_of, p) == old

    def test_off_grid_and_float_messages(self):
        with pytest.raises(ValueError, match=r"^Fraction\(1, 3\) is not a grid point of "
                                             r"the 8-point grid$"):
            self.samples(Fraction(1, 3))
        with pytest.raises(TypeError, match=r"^coordinates are exact rationals \(an int or "
                                            r"a Fraction\), got float 0\.5$"):
            self.table(0.5)

    @pytest.mark.parametrize("make, message", [
        (lambda: ScalarField(kind="samples", samples=(1 + 0j, 2 + 0j, 3 + 0j), n=4),
         "sample table has 3 entries for an n=4 grid"),
        (lambda: SymbolMap(kind="table", table=(0, 1, 2), n=4),
         "symbol table has 3 entries for an n=4 grid"),
        (lambda: ScalarField.from_samples([1, 2], 3), "sample table has 2 entries for an n=3 grid"),
        # the length is checked before the entries
        (lambda: SymbolMap.from_table([0, 1, 5], 2), "symbol table has 3 entries for an n=2 grid"),
        (lambda: SymbolMap.from_table([0, 1, 5], 3),
         r"symbol table entries must be grid indices in \[0, n\)"),
        # a grid below two points
        (lambda: ScalarField(kind="samples", n=0), "grid needs at least 2 points, got n=0"),
        (lambda: ScalarField(kind="samples", samples=(1j,), n=1),
         "grid needs at least 2 points, got n=1"),
        (lambda: SymbolMap(kind="table", table=(0,), n=1),
         "grid needs at least 2 points, got n=1"),
        # a table that points off its grid
        (lambda: SymbolMap(kind="table", table=(0, 9), n=2),
         r"symbol table entries must be grid indices in \[0, n\)"),
        (lambda: SymbolMap(kind="table", table=(0, 9, 1), n=3),
         r"symbol table entries must be grid indices in \[0, n\)"),
        (lambda: SearchLadder(radii=(1.5,)), r"radii must lie in \(0, 1\), got 1\.5"),
        # else numpy raises on an empty sample array, or a negative depth
        # runs the monomials alone
        (lambda: SearchLadder(samples=0), "samples must be at least 1, got 0"),
        (lambda: SearchLadder(max_depth=-1), "max_depth must be at least 0, got -1"),
        (lambda: SearchLadder(max_monomial=-1), "max_monomial must be at least 0, got -1"),
    ], ids=["samples", "table", "from-samples", "from-table", "from-table-entries",
            "samples-n0", "samples-n1", "table-n1", "table-off-grid", "table-off-grid-n3",
            "ladder-radii", "ladder-samples", "ladder-max-depth", "ladder-max-monomial"])
    def test_a_table_is_checked_when_it_is_made(self, make, message):
        # else tabulate reads fewer values than the grid has points, and the
        # equation raises IndexError
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_a_coarser_grid_reads_the_samples_off_the_table(self, monkeypatch):
        u = ScalarField.from_samples([complex(k, -k) for k in range(64)], 64)
        want = [bits(u(Fraction(k, 8))) for k in range(8)]
        calls = []
        value_at = ScalarField.value_at
        monkeypatch.setattr(ScalarField, "value_at", lambda self, num, den: calls.append(
            (num, den)) or value_at(self, num, den))
        values = tabulate(u, 8)
        assert calls == []
        assert [bits(v) for v in values] == want


def evaluated(fn, *args):
    """fn(*args) as ("value", its bits or pair), or the exception's type and
    message."""
    try:
        out = fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(out, complex):
        return "value", bits(out)
    return "value", (out.numerator, out.denominator) if isinstance(out, Fraction) else out


def table_field(n):
    return ScalarField.from_samples([complex(k, -k) for k in range(n)], n)


def table_symbol(n):
    return SymbolMap.from_table([(5 * k + 3) % n for k in range(n)], n)


class TestEvaluationsOnIntegers:
    """ScalarField.value_at(a, b) and SymbolMap.image_at(a, b), the one
    per-point implementation of each kind, held to the calls at
    Fraction(a, b): the same bits, the same lowest-terms image in [0, 1),
    or the same exception, whether a/b is reduced or not."""

    closed_fields = [
        ScalarField.constant(0.3 - 2j), ScalarField.unimodular_exp(3, 0.6 + 0.8j),
        ScalarField.unimodular_exp(-2), ScalarField.cosine(0.7, -0.2, 5),
        ScalarField.tent(Fraction(1, 4), Fraction(1, 8), peak=1.3, base=-0.4),
        ScalarField.tent(Fraction(1, 10 ** 40 + 1), Fraction(1, 10 ** 20 + 3)),
        ScalarField.tent_dip(Fraction(5, 7), Fraction(1, 3), depth=0.6),
        ScalarField.tent(Fraction(0), Fraction(1, 2))]
    bad_fields = [ScalarField(kind="bogus")]
    closed_symbols = [
        SymbolMap.identity(), SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, 3)),
        SymbolMap.rotation(Fraction(-1, 10 ** 30)), SymbolMap.rotation(Fraction(7, 64))]
    bad_symbols = [SymbolMap(kind="bogus")]

    fields = st.recursive(
        st.one_of(st.sampled_from(closed_fields + bad_fields),
                  st.integers(2, 64).map(table_field)),
        lambda parts: st.tuples(parts, parts).map(lambda lr: ScalarField.product(*lr)),
        max_leaves=4)
    symbols = st.recursive(
        st.one_of(st.sampled_from(closed_symbols + bad_symbols),
                  st.integers(2, 64).map(table_symbol)),
        lambda bases: st.builds(
            lambda base, value, center, h: SymbolMap.constant_on_arc(value, Arc(center, h),
                                                                     base),
            bases, st.fractions(), st.fractions(),
            st.fractions(min_value=0, max_value=Fraction(1, 2)).filter(bool)),
        max_leaves=3)
    # points k/n, n <= 64, inside [0, 1) and out of it, unreduced by m, and
    # off-grid rationals with huge denominators
    points = st.one_of(
        st.builds(lambda a, b, m: (a * m, b * m), st.integers(-130, 130), st.integers(1, 64),
                  st.sampled_from([1, 2, 3, 64])),
        st.tuples(st.integers(-10 ** 45, 10 ** 45),
                  st.sampled_from([10 ** 40 + 1, 2 ** 70, 3 ** 50])))

    @settings(max_examples=150, deadline=None)
    @given(fields, points)
    @example(ScalarField.product(table_field(8), ScalarField.product(
        ScalarField.cosine(), table_field(8))), (6, 16))
    @example(table_field(8), (1, 3))
    @example(table_field(8), (2, 3))
    def test_a_field_is_the_same_at_every_reduction(self, u, point):
        a, b = point
        assert evaluated(u.value_at, a, b) == evaluated(u, Fraction(a, b))

    @settings(max_examples=150, deadline=None)
    @given(symbols, points)
    @example(SymbolMap.constant_on_arc(Fraction(1, 3), Arc(0, Fraction(1, 8)),
                                       table_symbol(8)), (1, 3))
    def test_a_symbol_is_the_same_at_every_reduction(self, phi, point):
        a, b = point
        got = evaluated(phi.image_at, a, b)
        assert got == evaluated(phi, Fraction(a, b))
        if got[0] == "value":
            num, den = got[1]
            assert type(num) is int and type(den) is int
            assert 0 <= num < den and math.gcd(num, den) == 1

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_every_grid_point_reduced_or_not(self, n):
        fields = self.closed_fields + [table_field(n),
                                       ScalarField.product(table_field(n),
                                                           self.closed_fields[1])]
        symbols = self.closed_symbols + [
            table_symbol(n),
            SymbolMap.constant_on_arc(Fraction(1, 3), Arc(Fraction(1, 2), Fraction(1, 8)),
                                      SymbolMap.rotation(Fraction(1, 10 ** 40 + 1)))]
        for k in range(n):
            for m in (1, 2):
                for u in fields:
                    assert evaluated(u.value_at, m * k, m * n) == evaluated(u, Fraction(k, n))
                for phi in symbols:
                    assert evaluated(phi.image_at, m * k, m * n) == evaluated(phi, Fraction(k, n))

    def test_errors_come_in_the_same_order(self):
        # an invalid table is refused when it is made, see
        # TestGridIndex.test_a_table_is_checked_when_it_is_made
        assert evaluated(table_field(8).value_at, 2, 6) == (
            ValueError, "Fraction(1, 3) is not a grid point of the 8-point grid")


class TestNoFractionPerPoint:
    """The reference pass's columns evaluate every field and symbol at the
    integers (k, n) and build no Fraction at all."""

    @pytest.mark.parametrize("n", [256, 2048])
    def test_the_columns_construct_no_fraction(self, n, monkeypatch):
        table = SymbolMap.from_table([(3 * k + 1) % n for k in range(n)], n)
        T = FiniteRankOperator((
            (ScalarField.from_samples([complex(k % 7, -1) for k in range(n)], n),
             old_from_atoms([(Fraction(1, 4), 1.0), (Fraction(1, 3), -0.5j)])),
            (ScalarField.tent(Fraction(1, 5), Fraction(1, 8), peak=2.0),
             old_from_atoms([(Fraction(1, 4), 0.5)])),
            (ScalarField.cosine(0.5, 0.5, 3), old_from_atoms([(Fraction(0), 1.0)]))))
        compositions = [
            WeightedComposition(ScalarField.from_samples([1j ** k for k in range(n)], n), table),
            WeightedComposition(ScalarField.unimodular_exp(2, 0.6 + 0.8j),
                                SymbolMap.constant_on_arc(Fraction(1, 2),
                                                          Arc(Fraction(1, 8), Fraction(1, 16)),
                                                          SymbolMap.rotation(Fraction(1, 3))))]
        T.plan  # built once, before the count
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *args, **kwargs: made.append(args)
                            or new(cls, *args, **kwargs))
        with shared_compilation():
            columns = [operators._columns(T, n)] + [operators._pointwise(wc, n)
                                                    for wc in compositions]
        monkeypatch.undo()
        assert made == []
        assert [c.size for c in columns[0].coeffs] == [n] * 3
        assert all(atom.num.size == atom.weight.size == n for atom in columns[1:])


class TestConvexCombination:
    """convex_combination, an operator sum of two weighted compositions,
    held bit for bit to the ConvexCombination operator it replaced."""

    symbols = [SymbolMap.identity(), SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, 8)),
               SymbolMap.rotation(Fraction(1, 3)), SymbolMap.rotation(Fraction(1, 10 ** 40 + 1)),
               SymbolMap.constant_on_arc(Fraction(1, 4), Arc(Fraction(0), Fraction(1, 6)))]
    pairs = list(itertools.product(symbols, repeat=2))  # phi == psi included
    perturbations = [
        rank_one(ScalarField.constant(1.0), at=Fraction(0), scale=-1.0),
        rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
                 at=Fraction(1, 3), scale=0.5j),
        scaled(WeightedComposition(ScalarField.unimodular_exp(1), SymbolMap.doubling()), -0.5),
        # two terms that merge at 0: (t + 0.3) - 0.1 and t + (0.3 - 0.1) round
        # apart, so the perturbed norm must sum cc + T as two terms
        as_expr(rank_one(ScalarField.constant(1.0), at=Fraction(0), scale=0.3))
        + rank_one(ScalarField.constant(1.0), at=Fraction(0), scale=-0.1)]

    @staticmethod
    def array_bits(a):
        return a.dtype, a.shape, a.tobytes()

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.4, 0.5, 1.0])
    def test_family_and_measures_match_the_parent(self, t, n):
        for phi, psi in self.pairs:
            cc = convex_combination(t, phi, psi)
            with shared_compilation():
                want = parent_convex_family(t, phi, psi, n)
                got = compiled_family(cc, n)
                for field in ("codes", "weights", "present", "tv"):
                    assert (self.array_bits(getattr(got, field))
                            == self.array_bits(getattr(want, field))), (phi, psi, field)
            for s in GridCircle(n).points():
                assert (measure_bits(cc.measure_at(s))
                        == measure_bits(parent_convex_measure(t, phi, psi, s))), (phi, psi, s)

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.4, 0.5, 1.0])
    def test_convex_center_check_matches_the_parent(self, t, n):
        grid = GridCircle(n)
        for T in self.perturbations:
            for phi, psi in self.pairs:
                res = convex_center_check(t, phi, psi, T, grid)
                norm, gap, delta, delta_tilde = parent_convex_center(t, phi, psi, T, grid)
                assert bits(res.norm) == bits(norm) and bits(res.gap) == bits(gap)
                for mask, want in ((~res.same_symbol, delta), (res.same_symbol, delta_tilde)):
                    assert [grid.coord(k) for k in np.flatnonzero(mask)] == [p for p, _ in want]
                    assert ([bits(v) for v in res.deficiency[mask].tolist()]
                            == [bits(v) for _, v in want])
