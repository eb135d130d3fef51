"""Atomic measures: canonical form, total variation, the duality oracle."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from daugavetlab.circle import GridCircle
from daugavetlab.measures import (
    AtomicMeasure,
    direct_norms,
    integrate,
    linear_combine,
    norm_oracle,
    total_variation,
)

positions = st.integers(min_value=0, max_value=15).map(lambda k: Fraction(k, 16))
weights = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
atom_lists = st.lists(st.tuples(positions, weights), min_size=1, max_size=6)


class TestCanonicalForm:
    def test_atoms_merge_and_sort(self):
        mu = AtomicMeasure.from_atoms([
            (Fraction(1, 2), 1.0), (Fraction(0), 2.0), (Fraction(1, 2), 1j)])
        assert mu.atoms == ((Fraction(0), 2 + 0j), (Fraction(1, 2), 1 + 1j))

    def test_exact_zero_weights_are_dropped(self):
        mu = AtomicMeasure.from_atoms([(Fraction(0), 1.0), (Fraction(0), -1.0)])
        assert mu.atoms == ()
        assert total_variation(mu) == 0.0

    def test_wraparound_merge(self):
        # 1 and 0, -1/4 and 3/4 are the same points of the circle
        mu = AtomicMeasure.from_atoms([(Fraction(0), 1.0), (Fraction(1), 1.0),
                                       (Fraction(-1, 4), 1j), (Fraction(3, 4), 1.0)])
        assert mu.atoms == ((Fraction(0), 2 + 0j), (Fraction(3, 4), 1 + 1j))

    @pytest.mark.parametrize("atoms, message", [
        # cancelling duplicates
        (((Fraction(1, 4), 1 + 0j), (Fraction(1, 4), -1 + 0j)),
         "atom positions are not strictly ascending at 1/4"),
        (((Fraction(1, 2), 1 + 0j), (Fraction(1, 4), 1 + 0j)),
         "atom positions are not strictly ascending at 1/4"),
        (((Fraction(1, 4), 0j),), "atom at 1/4 has weight zero"),
        (((0.25, 1 + 0j),), "atom position 0.25 is not a Fraction"),
        (((0, 1 + 0j),), "atom position 0 is not a Fraction"),
        (((Fraction(5, 4), 1 + 0j),), "atom position 5/4 lies outside [0, 1)"),
        (((Fraction(-1, 4), 1 + 0j),), "atom position -1/4 lies outside [0, 1)"),
    ], ids=["duplicate", "descending", "zero-weight", "float", "int", "unreduced",
            "negative"])
    def test_non_canonical_measure_is_rejected(self, atoms, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AtomicMeasure(atoms)


class TestTotalVariation:
    def test_three_atom_example(self):
        mu = AtomicMeasure.from_atoms([
            (Fraction(0), 3 + 4j), (Fraction(1, 4), -2.0), (Fraction(1, 2), 1j)])
        assert total_variation(mu) == pytest.approx(8.0, abs=1e-15)  # 5 + 2 + 1

    @given(atom_lists, weights)
    def test_absolute_homogeneity(self, atoms, c):
        mu = AtomicMeasure.from_atoms(atoms)
        scaled = linear_combine([c], [mu])
        assert total_variation(scaled) == pytest.approx(
            abs(c) * total_variation(mu), rel=1e-9, abs=1e-9)

    @given(atom_lists, atom_lists)
    def test_triangle_inequality(self, a, b):
        mu, nu = AtomicMeasure.from_atoms(a), AtomicMeasure.from_atoms(b)
        lhs = total_variation(linear_combine([1.0, 1.0], [mu, nu]))
        assert lhs <= total_variation(mu) + total_variation(nu) + 1e-9

    @given(atom_lists)
    def test_decomposes_at_every_point(self, atoms):
        # |mu| = |mu({p})| + |mu|(S - {p}) for any single point p; cancelling
        # the atom at p leaves the variation away from p
        mu = AtomicMeasure.from_atoms(atoms)
        for p, m in mu.atoms:
            split = abs(m) + direct_norms(mu, p, -m)[1]
            assert split == pytest.approx(total_variation(mu), rel=1e-12, abs=1e-12)


class TestDualityOracle:
    def test_oracle_matches_tv_on_example(self):
        g = GridCircle(16)
        mu = AtomicMeasure.from_atoms([
            (Fraction(0), 3 + 4j), (Fraction(1, 4), -2.0), (Fraction(1, 2), 1j)])
        assert norm_oracle(mu, g) == pytest.approx(total_variation(mu), abs=1e-12)

    def test_oracle_rejects_off_grid_atoms(self):
        g = GridCircle(8)
        with pytest.raises(ValueError):
            norm_oracle(AtomicMeasure.from_atoms([(Fraction(1, 3), 1 + 0j)]), g)

    def test_random_phases_never_beat_the_norm(self):
        # 10^4 random unit-modulus test vectors stay below the aligned value
        rng = np.random.default_rng(42)
        g = GridCircle(16)
        mu = AtomicMeasure.from_atoms([
            (Fraction(k, 16), complex(w_re, w_im))
            for k, w_re, w_im in zip(
                rng.choice(16, size=5, replace=False),
                rng.standard_normal(5), rng.standard_normal(5))])
        nrm = norm_oracle(mu, g)
        positions = [p for p, _ in mu.atoms]
        ws = np.array([w for _, w in mu.atoms])
        best = 0.0
        for _ in range(10_000):
            f = np.exp(2j * np.pi * rng.random(len(positions)))
            best = max(best, abs(np.sum(f * ws)))
        assert best <= nrm + 1e-12
        assert best >= 0.95 * nrm  # phases come close after 10^4 draws

    def test_integrate_is_linear(self):
        mu = AtomicMeasure.from_atoms([(Fraction(0), 2.0), (Fraction(1, 2), -1j)])
        f = lambda s: complex(math.cos(2 * math.pi * float(s)), 0.0)
        g = lambda s: 1j
        lhs = integrate(lambda s: f(s) + g(s), mu)
        assert lhs == pytest.approx(integrate(f, mu) + integrate(g, mu), abs=1e-12)


class TestLinearCombine:
    def test_zero_coefficients_are_skipped(self):
        mu = linear_combine([0.0, 2.0], [AtomicMeasure.from_atoms([(Fraction(0), 1 + 0j)]),
                                         AtomicMeasure.from_atoms([(Fraction(1, 2), 1 + 0j)])])
        assert mu.atoms == ((Fraction(1, 2), 2 + 0j),)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            linear_combine([1.0], [AtomicMeasure.from_atoms([(Fraction(0), 1 + 0j)]),
                                   AtomicMeasure.from_atoms([(Fraction(1, 2), 1 + 0j)])])
