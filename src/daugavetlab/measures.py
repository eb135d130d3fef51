"""Finitely-atomic complex measures on the circle and their exact norms.

For a finite atom list the dual norm on continuous functions is the total
variation, a plain sum of weight moduli.  Atoms are kept sorted by position
with coinciding positions merged and zero weights dropped, so measure
identity is canonical and all sums run in a fixed order (math.fsum, exactly
rounded, makes the reductions order-independent anyway).  Positions are
exact rationals in [0, 1), so two atoms coincide exactly when their
positions compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .circle import GridCircle, frac_mod1

__all__ = [
    "AtomicMeasure",
    "dirac",
    "linear_combine",
    "total_variation",
    "point_mass",
    "tv_excluding",
    "integrate",
    "norm_oracle",
]


def _order(atom: tuple[Fraction, complex]) -> tuple[float, Fraction]:
    """Sort key of an atom: its position, exactly.  The correctly rounded
    float comes first (rounding is monotone), so most comparisons skip
    Fraction arithmetic; the Fraction breaks ties."""
    pos = atom[0]
    return pos.numerator / pos.denominator, pos


@dataclass(frozen=True)
class AtomicMeasure:
    """Canonical finite atom list: Fraction positions in [0, 1), strictly
    ascending, and nonzero weights.  Build one with from_atoms; a
    hand-built atom list that is not canonical raises ValueError."""

    atoms: tuple[tuple[Fraction, complex], ...] = ()

    def __post_init__(self) -> None:
        last_num, last_den = -1, 1
        for pos, w in self.atoms:
            if not isinstance(pos, Fraction):
                raise ValueError(f"atom position {pos!r} is not a Fraction")
            num, den = pos.numerator, pos.denominator
            if not (0 <= num < den):
                raise ValueError(f"atom position {pos} lies outside [0, 1)")
            if num * last_den <= last_num * den:
                raise ValueError(f"atom positions are not strictly ascending at {pos}")
            if w == 0:
                raise ValueError(f"atom at {pos} has weight zero")
            last_num, last_den = num, den

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[Fraction, complex]]) -> "AtomicMeasure":
        """Reduce every position into [0, 1), merge coinciding atoms and drop
        zero weights."""
        items = sorted(((frac_mod1(pos), complex(w)) for pos, w in pairs), key=_order)
        merged: list[tuple[Fraction, complex]] = []
        for pos, w in items:
            if merged and merged[-1][0] == pos:
                merged[-1] = (pos, merged[-1][1] + w)
            else:
                merged.append((pos, w))
        return cls(tuple((pos, w) for pos, w in merged if w != 0))

    def __len__(self) -> int:
        return len(self.atoms)


def dirac(t: Fraction) -> AtomicMeasure:
    """Unit point mass at t."""
    return AtomicMeasure.from_atoms([(t, 1 + 0j)])


def linear_combine(coeffs: Sequence[complex],
                   measures: Sequence[AtomicMeasure]) -> AtomicMeasure:
    """sum_i coeffs[i] * measures[i], re-canonicalized."""
    if len(coeffs) != len(measures):
        raise ValueError(f"{len(coeffs)} coefficients for {len(measures)} measures")
    pairs: list[tuple[Fraction, complex]] = []
    for c, mu in zip(coeffs, measures):
        c = complex(c)
        if c == 0:
            continue
        pairs.extend((pos, c * w) for pos, w in mu.atoms)
    return AtomicMeasure.from_atoms(pairs)


def total_variation(mu: AtomicMeasure) -> float:
    """Exact dual norm: sum of weight moduli."""
    return math.fsum(abs(w) for _, w in mu.atoms)


def point_mass(mu: AtomicMeasure, t: Fraction) -> complex:
    """Weight carried at t, reduced mod 1 (0 if no atom there)."""
    t = frac_mod1(t)
    return next((w for pos, w in mu.atoms if pos == t), 0j)


def tv_excluding(mu: AtomicMeasure, points: Iterable[Fraction]) -> float:
    """Total variation of the restriction away from the given points,
    reduced mod 1."""
    excluded = [frac_mod1(p) for p in points]
    return math.fsum(abs(w) for pos, w in mu.atoms if pos not in excluded)


def integrate(f: Callable[[Fraction], complex], mu: AtomicMeasure) -> complex:
    """Pairing <f, mu> = sum_i w_i f(x_i)."""
    terms = [complex(f(pos)) * w for pos, w in mu.atoms]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def norm_oracle(mu: AtomicMeasure, grid: GridCircle) -> float:
    """Independent dual-norm witness for on-grid measures.

    Builds the phase-aligned field f(x_i) = conj(w_i)/|w_i| (extendable to a
    continuous function of sup norm 1 on the circle, atoms being finitely
    many) and returns |<f, mu>|.  Must reproduce total_variation; computed
    through the pairing so the code path shares nothing with it.
    """
    for pos, _ in mu.atoms:
        if not grid.contains(pos):
            raise ValueError(f"atom at {pos!r} is off the {grid.n}-point grid")
    values = {pos: w.conjugate() / abs(w) for pos, w in mu.atoms}

    def f(pos: Fraction) -> complex:
        return values[pos]

    return abs(integrate(f, mu))
