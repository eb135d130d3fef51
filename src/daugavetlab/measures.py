"""Finitely-atomic complex measures on the circle and their exact norms.

For a finite atom list the dual norm on continuous functions is the total
variation, a plain sum of weight moduli.  Atoms are kept sorted by position
with coinciding positions merged and zero weights dropped, so measure
identity is canonical and all sums run in a fixed order (math.fsum, exactly
rounded, makes the reductions order-independent anyway).  Positions are
exact rationals in [0, 1), so two atoms coincide exactly when their
positions compare equal.

The reference pass of operators.py runs here once per grid point.  A
merge plan lists the ascending distinct positions of some atom lists, each
with the (list index, weight) pairs found there in list order: merge_plan
is the one sort-and-group routine, from_atoms sums a plan's weights as
they stand, and apply_plan sums coefficient times weight.  linear_combine
plans its canonical measures at each call; a FiniteRankOperator plans its
fixed measures once and applies the plan to the coefficients g_i(s) at
every point, so no point sorts anything.  A plan's positions are validated
once, when the plan is made (Fractions in [0, 1), strictly ascending), and
apply_plan drops zero sums, so the measures it builds are canonical without
a second pass of AtomicMeasure's validation.  from_atoms builds its
measure from a plan in the same way; a hand-built AtomicMeasure is
validated in full.  direct_norms takes the moduli of mu_s's atoms once
and returns both the total variation of mu_s and that of
mu_s + u(s) delta_{phi(s)}, adding u's atom in place, with no second
merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .circle import GridCircle, frac_mod1

__all__ = [
    "AtomicMeasure",
    "MergePlan",
    "merge_plan",
    "apply_plan",
    "linear_combine",
    "total_variation",
    "direct_norms",
    "integrate",
    "norm_oracle",
]


@dataclass(frozen=True)
class AtomicMeasure:
    """Canonical finite atom list: Fraction positions in [0, 1), strictly
    ascending, and nonzero weights.  Build one with from_atoms; a
    hand-built atom list that is not canonical raises ValueError."""

    atoms: tuple[tuple[Fraction, complex], ...] = ()

    def __post_init__(self) -> None:
        _check_positions(self.atoms, nonzero=True)

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[Fraction, complex]]) -> "AtomicMeasure":
        """Reduce every position into [0, 1), merge coinciding atoms in the
        given order and drop zero weights.  The plan validated the
        positions, so the measure is not validated again."""
        plan = merge_plan([[(frac_mod1(pos), complex(w)) for pos, w in pairs]])
        atoms = []
        for pos, parts in plan.entries:
            total = parts[0][1]
            for _, w in parts[1:]:
                total = total + w
            if total != 0:
                atoms.append((pos, total))
        return _trusted(tuple(atoms))

    def __len__(self) -> int:
        return len(self.atoms)


def _check_positions(pairs, nonzero: bool) -> None:
    """ValueError unless the first items of pairs are Fractions in [0, 1),
    strictly ascending, and (with nonzero) no second item is zero."""
    last_num, last_den = -1, 1
    for pos, w in pairs:
        if not isinstance(pos, Fraction):
            raise ValueError(f"atom position {pos!r} is not a Fraction")
        num, den = pos.as_integer_ratio()
        if not (0 <= num < den):
            raise ValueError(f"atom position {pos} lies outside [0, 1)")
        if num * last_den <= last_num * den:
            raise ValueError(f"atom positions are not strictly ascending at {pos}")
        if nonzero and w == 0:
            raise ValueError(f"atom at {pos} has weight zero")
        last_num, last_den = num, den


def _trusted(atoms: tuple[tuple[Fraction, complex], ...]) -> AtomicMeasure:
    """The AtomicMeasure of atoms already known canonical, without a second
    validation: positions from a MergePlan and nonzero weights."""
    mu = object.__new__(AtomicMeasure)
    object.__setattr__(mu, "atoms", atoms)
    return mu


@dataclass(frozen=True)
class MergePlan:
    """Ascending distinct positions, each with the (list index, weight)
    pairs that sit there, in list order.  The positions are validated when
    the plan is made: Fractions in [0, 1), strictly ascending."""

    entries: tuple[tuple[Fraction, list[tuple[int, complex]]], ...]

    def __post_init__(self) -> None:
        _check_positions(self.entries, nonzero=False)


def merge_plan(atom_lists: Sequence[Sequence[tuple[Fraction, complex]]]) -> MergePlan:
    """The merge plan of atom lists with positions in [0, 1): a stable sort
    by position, then the atoms of each position gathered in that order.
    The plan checks its positions as it is made (see MergePlan)."""
    # the key is the position exactly: its correctly rounded float first
    # (rounding is monotone), then the Fraction to break ties.  Different
    # positions nearly always differ in their float, so few Fractions are
    # compared, and equal keys are equal positions.
    try:
        keyed = [((pos.numerator / pos.denominator, pos), pos, i, w)
                 for i, atoms in enumerate(atom_lists) for pos, w in atoms]
    except AttributeError:  # a position without numerator and denominator
        bad = next(pos for atoms in atom_lists for pos, _ in atoms
                   if not isinstance(pos, Fraction))
        raise ValueError(f"atom position {bad!r} is not a Fraction") from None
    keyed.sort(key=itemgetter(0))
    entries: list[tuple[Fraction, list[tuple[int, complex]]]] = []
    last = None
    for key, pos, i, w in keyed:
        if key == last:
            entries[-1][1].append((i, w))
        else:
            entries.append((pos, [(i, w)]))
            last = key
    return MergePlan(tuple(entries))


def apply_plan(plan: MergePlan, coeffs: Sequence[complex]) -> AtomicMeasure:
    """sum_i coeffs[i] * measures[i] for the measures the plan was made of:
    a zero coefficient skips its measure, the others scale each weight
    (complex(c) * w), each position sums its terms in measure order, and
    zero sums are dropped.  The plan validated its positions, so the
    measure is not validated again."""
    cs = [complex(c) for c in coeffs]
    atoms = []
    for pos, parts in plan.entries:
        total = None
        for i, w in parts:
            c = cs[i]
            if c == 0:
                continue
            total = c * w if total is None else total + c * w
        if total is not None and total != 0:
            atoms.append((pos, total))
    return _trusted(tuple(atoms))


def linear_combine(coeffs: Sequence[complex],
                   measures: Sequence[AtomicMeasure]) -> AtomicMeasure:
    """sum_i coeffs[i] * measures[i], re-canonicalized.  The measures are
    canonical already, so their atoms are merged as they stand."""
    if len(coeffs) != len(measures):
        raise ValueError(f"{len(coeffs)} coefficients for {len(measures)} measures")
    return apply_plan(merge_plan([mu.atoms for mu in measures]), coeffs)


def total_variation(mu: AtomicMeasure) -> float:
    """Exact dual norm: sum of weight moduli."""
    return math.fsum(abs(w) for _, w in mu.atoms)


def direct_norms(mu: AtomicMeasure, t: Fraction, w: complex) -> tuple[float, float]:
    """(total_variation(mu), total_variation(mu + w delta_t)), t reduced
    mod 1, from one list of moduli and without a merge: w joins mu's atom
    at t, or stands as an atom of its own."""
    # positions are Fractions in lowest terms: equal exactly when their
    # numerators and denominators are
    t = frac_mod1(t)
    num, den = t.numerator, t.denominator
    moduli, at = [], -1
    for pos, m in mu.atoms:
        if pos.numerator == num and pos.denominator == den:
            at = len(moduli)
        moduli.append(abs(m))
    tv = math.fsum(moduli)
    if at >= 0:
        moduli[at], w = abs(mu.atoms[at][1] + w), 0j
    moduli.append(abs(w))
    return tv, math.fsum(moduli)


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
