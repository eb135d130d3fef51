"""Seeded random instance generators for batch verification runs.

Everything draws from a numpy PCG64 generator, so a seed pins the entire
batch; grid-mode objects get exact rational coordinates.  Used by the
selftest battery and the acceptance suite.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .circle import Arc, GridCircle, ScalarField, SymbolMap
from .measures import AtomicMeasure
from .operators import FiniteRankOperator

__all__ = [
    "default_rng",
    "random_unimodular_field",
    "random_nonconstant_weight",
    "random_symbol",
    "random_measure",
    "random_finite_rank",
    "random_fat_preimage_setup",
]


def default_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unimodular_field(rng: np.random.Generator, n: int) -> ScalarField:
    """Tabulated field with |u| = 1 at every grid point."""
    phases = rng.random(n)
    return ScalarField.from_samples(np.exp(2j * np.pi * phases).tolist(), n)


def random_nonconstant_weight(rng: np.random.Generator, n: int) -> ScalarField:
    """Weight whose modulus genuinely varies (spread at least 0.2)."""
    if rng.integers(0, 2) == 0:
        center = Fraction(int(rng.integers(0, n)), n)
        half_width = Fraction(int(rng.integers(2, max(3, n // 4))), n)
        depth = 0.2 + 0.6 * rng.random()
        return ScalarField.tent_dip(center, half_width, depth=depth, top=1.0)
    amplitude = 0.1 + 0.4 * rng.random()
    return ScalarField.cosine(amplitude=amplitude, offset=1.0,
                              frequency=int(rng.integers(1, 4)))


def random_symbol(rng: np.random.Generator, grid: GridCircle) -> SymbolMap:
    """Doubling, a rational rotation, or an identity patched constant on an arc."""
    n = grid.n
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return SymbolMap.doubling()
    if pick == 1:
        return SymbolMap.rotation(Fraction(int(rng.integers(0, n)), n))
    value = Fraction(int(rng.integers(0, n)), n)
    center = Fraction(int(rng.integers(0, n)), n)
    half_width = Fraction(int(rng.integers(2, max(3, n // 8))), n)
    return SymbolMap.constant_on_arc(value, Arc(center, half_width))


def random_measure(rng: np.random.Generator, grid: GridCircle,
                   max_atoms: int = 8) -> AtomicMeasure:
    """Atoms at distinct grid points with complex gaussian weights."""
    count = int(rng.integers(1, max_atoms + 1))
    idx = rng.choice(grid.n, size=count, replace=False)
    weights = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return AtomicMeasure.from_atoms(
        (Fraction(int(k), grid.n), complex(w)) for k, w in zip(idx, weights))


def random_finite_rank(rng: np.random.Generator, grid: GridCircle,
                       max_terms: int = 3, max_atoms: int = 4) -> FiniteRankOperator:
    """Sum of up to max_terms tensor terms g (x) mu with tabulated g."""
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        values = 0.7 * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
        g = ScalarField.from_samples(values.tolist(), grid.n)
        terms.append((g, random_measure(rng, grid, max_atoms)))
    return FiniteRankOperator(tuple(terms))


def random_fat_preimage_setup(rng: np.random.Generator, grid: GridCircle):
    """(u, phi, t, U) with phi constant equal to t on the arc U and |u| constant."""
    n = grid.n
    target = Fraction(int(rng.integers(0, n)), n)
    center = Fraction(int(rng.integers(0, n)), n)
    half_width = Fraction(int(rng.integers(2, max(3, n // 4))), n)
    U = Arc(center, half_width)
    phi = SymbolMap.constant_on_arc(target, U)
    c = 0.2 + 1.8 * rng.random()
    phase = np.exp(2j * np.pi * rng.random())
    u = ScalarField.unimodular_exp(winding=int(rng.integers(0, 4)),
                                   scale=c * phase)
    return u, phi, target, U
