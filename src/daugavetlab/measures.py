"""Finitely-atomic complex measures on the circle and their exact norms.

For a finite atom list the dual norm on continuous functions is the total
variation, a plain sum of weight moduli.  Atoms are kept sorted by position
with coinciding positions merged and zero weights dropped, so measure
identity is canonical and all sums run in a fixed order (math.fsum, exactly
rounded, makes the reductions order-independent anyway).  Positions are
exact rationals in [0, 1), so two atoms coincide exactly when their
positions compare equal.

The merge plan.  A merge plan is the ascending tuple of the distinct
positions of some atom lists, each with the (list index, weight) pairs
found there in list order: merge_plan is the one sort-and-group routine,
from_atoms sums a plan's weights as they stand, and apply_plan sums
coefficient times weight.  linear_combine plans its canonical measures at
each call; a FiniteRankOperator plans its fixed measures once and applies
the plan to the coefficients g_i(s), so no point sorts anything.  Every
measure, these included, is validated once, when it is made, by
AtomicMeasure itself.  direct_norms takes the moduli of mu_s's atoms once
and returns both the total variation of mu_s and that of mu_s + u(s)
delta_{phi(s)}, adding u's atom in place, with no second merge.

Reference pass.  column_norms is the reference pass of operators.py: the
same two norms as direct_norms(T.measure_at(s), phi(s), u(s)), bit for
bit, at every point of a grid at once.  It reads columns of per-point
values, one entry per grid point: u(s), phi(s) as its exact numerator and
denominator (a MovingAtom), and each coefficient g_i(s).  Block by block
(_blocks), it builds mu_s as atom slots the way measure_at does: a
PlannedColumns (a finite-rank family) applies its merge plan one entry at
a time, a zero coefficient skipping its term, the first term starting the
sum and zero sums dropped; a MovingAtom is one slot, absent where its
weight is 0; a ColumnSum (an operator sum) scales each part's slots by
its coefficient, skips a part whose coefficient is 0, adds a slot into
the earlier present slot at the same exact position, and drops zero sums.
Products repeat CPython's complex * in real arithmetic, moduli are
np.hypot (abs() of a complex, which raises OverflowError where hypot of
finite parts overflows, as column_norms then does), and each point's
norms are one math.fsum of its moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .circle import GridCircle, frac_mod1, hash_once

__all__ = [
    "AtomicMeasure",
    "linear_combine",
    "total_variation",
    "direct_norms",
    "MovingAtom",
    "PlannedColumns",
    "ColumnSum",
    "column_norms",
    "integrate",
    "norm_oracle",
]


@dataclass(frozen=True)
class AtomicMeasure:
    """Canonical finite atom list: Fraction positions in [0, 1), strictly
    ascending, and nonzero weights.  Every measure is validated here, once,
    when it is made: an atom list that is not canonical raises ValueError.
    from_atoms makes one of any atom list."""

    atoms: tuple[tuple[Fraction, complex], ...] = ()

    __hash__ = hash_once

    def __post_init__(self) -> None:
        last_num, last_den = -1, 1
        for pos, w in self.atoms:
            if not isinstance(pos, Fraction):
                raise ValueError(f"atom position {pos!r} is not a Fraction")
            num, den = pos.as_integer_ratio()
            if not (0 <= num < den):
                raise ValueError(f"atom position {pos} lies outside [0, 1)")
            if num * last_den <= last_num * den:
                raise ValueError(f"atom positions are not strictly ascending at {pos}")
            if w == 0:
                raise ValueError(f"atom at {pos} has weight zero")
            last_num, last_den = num, den

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[Fraction, complex]]) -> "AtomicMeasure":
        """Reduce every position into [0, 1), merge coinciding atoms in the
        given order and drop zero weights."""
        atoms = []
        for pos, parts in merge_plan([[(frac_mod1(pos), complex(w)) for pos, w in pairs]]):
            total = parts[0][1]
            for _, w in parts[1:]:
                total = total + w
            if total != 0:
                atoms.append((pos, total))
        return cls(tuple(atoms))

    def __len__(self) -> int:
        return len(self.atoms)


#: Ascending distinct positions, each with the (list index, weight) pairs
#: that sit there, in list order.
MergePlan = tuple[tuple[Fraction, list[tuple[int, complex]]], ...]


def merge_plan(atom_lists: Sequence[Sequence[tuple[Fraction, complex]]]) -> MergePlan:
    """The merge plan of atom lists whose positions are Fractions in
    [0, 1): a stable sort by position, then the atoms of each position
    gathered in that order."""
    # the key is the position exactly: its correctly rounded float first
    # (rounding is monotone), then the Fraction to break ties.  Different
    # positions nearly always differ in their float, so few Fractions are
    # compared, and equal keys are equal positions.
    keyed = [((pos.numerator / pos.denominator, pos), pos, i, w)
             for i, atoms in enumerate(atom_lists) for pos, w in atoms]
    keyed.sort(key=itemgetter(0))
    entries: list[tuple[Fraction, list[tuple[int, complex]]]] = []
    last = None
    for key, pos, i, w in keyed:
        if key == last:
            entries[-1][1].append((i, w))
        else:
            entries.append((pos, [(i, w)]))
            last = key
    return tuple(entries)


def apply_plan(plan: MergePlan, coeffs: Sequence[complex]) -> AtomicMeasure:
    """sum_i coeffs[i] * measures[i] for the measures the plan was made of:
    a zero coefficient skips its measure, the others scale each weight
    (complex(c) * w), each position sums its terms in measure order, and
    zero sums are dropped."""
    cs = [complex(c) for c in coeffs]
    atoms = []
    for pos, parts in plan:
        total = None
        for i, w in parts:
            c = cs[i]
            if c == 0:
                continue
            total = c * w if total is None else total + c * w
        if total is not None and total != 0:
            atoms.append((pos, total))
    return AtomicMeasure(tuple(atoms))


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


#: Values per block where a pass over every point would otherwise hold
#: Python objects or temporaries for the whole grid: the compiled route's
#: row sums and off-target rows and column_norms read blocks of at most
#: about this many values.
BLOCK = 1 << 14


def _blocks(k: int, m: int = 1) -> list[slice]:
    """Slices over k columns of an (m, k) array, each of at most about
    BLOCK values (one column at least)."""
    step = max(1, BLOCK // max(1, m))
    return [slice(a, a + step) for a in range(0, k, step)]


@dataclass(frozen=True, eq=False)
class MovingAtom:
    """s -> weight(s) delta_{t(s)} at the points of a grid, the family of
    a weighted composition: t(s) = num/den in lowest terms and in [0, 1)
    (int64 arrays, or object arrays where an int does not fit) and the
    complex weight(s) = u(s)."""

    num: np.ndarray
    den: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True, eq=False)
class PlannedColumns:
    """s -> sum_i coeffs[i](s) * mu_i at the points of a grid, the mu_i
    given by their merge plan: the family of a finite-rank operator."""

    plan: MergePlan
    coeffs: tuple[np.ndarray, ...]  # complex, one per measure of the plan


@dataclass(frozen=True, eq=False)
class ColumnSum:
    """s -> sum_j c_j * nu_j(s): the family of an operator sum."""

    terms: tuple[tuple[complex, "ColumnFamily"], ...]


ColumnFamily = Union[MovingAtom, PlannedColumns, ColumnSum]


def _rows(fam: ColumnFamily) -> int:
    """How many atom slots _slots gives for fam."""
    if isinstance(fam, MovingAtom):
        return 1
    if isinstance(fam, PlannedColumns):
        return len(fam.plan)
    return sum(_rows(part) for c, part in fam.terms if complex(c) != 0)


def _slots(fam: ColumnFamily, cols: slice) -> list[list]:
    """fam's measures at the points cols as atom slots [num, den, re, im,
    present]: the position (ints, or arrays over cols), the weight's real
    and imaginary parts, and where the slot holds an atom.  The present
    slots of a point sit at distinct positions and carry the weights of
    measure_at there, bit for bit; an absent slot's parts mean nothing."""
    if isinstance(fam, MovingAtom):
        w = fam.weight[cols]
        return [[fam.num[cols], fam.den[cols], w.real, w.imag, w != 0]]
    if isinstance(fam, PlannedColumns):
        cs = [(c.real, c.imag, c != 0) for c in (c[cols] for c in fam.coeffs)]
        slots = []
        for pos, parts in fam.plan:
            started = None
            for i, w in parts:
                (cr, ci, nz), w = cs[i], complex(w)
                pr = cr * w.real - ci * w.imag
                pi = cr * w.imag + ci * w.real
                if started is None:  # the first term starts the sum
                    re, im, started = pr, pi, nz
                else:  # a zero coefficient skips its term
                    re = np.where(nz, np.where(started, re + pr, pr), re)
                    im = np.where(nz, np.where(started, im + pi, pi), im)
                    started = started | nz
            slots.append([pos.numerator, pos.denominator, re, im,
                          started & ((re != 0) | (im != 0))])
        return slots
    slots = []
    for c, part in fam.terms:
        c = complex(c)
        if c == 0:
            continue
        for num, den, re, im, present in _slots(part, cols):
            re, im = c.real * re - c.imag * im, c.real * im + c.imag * re
            for slot in slots:  # at most one earlier slot holds the position
                at = (slot[0] == num) & (slot[1] == den)
                if not np.any(at):
                    continue
                same = at & present & slot[4]
                slot[2] = np.where(same, slot[2] + re, slot[2])
                slot[3] = np.where(same, slot[3] + im, slot[3])
                present = present & ~same
            slots.append([num, den, re, im, present])
    for slot in slots:
        slot[4] = slot[4] & ((slot[2] != 0) | (slot[3] != 0))
    return slots


def _overflows(re, im, mod):
    """Where abs(complex(re, im)) raises: hypot of finite parts overflows."""
    return np.isinf(mod) & np.isfinite(re) & np.isfinite(im)


def _fsums(rows: np.ndarray) -> list[float]:
    """math.fsum down each column of an (m, k) array."""
    return list(map(math.fsum, rows.T.tolist()))


def column_norms(fam: ColumnFamily, wc: MovingAtom) -> tuple[np.ndarray, np.ndarray]:
    """direct_norms(mu_s, t(s), u(s)) at every point of the grid, mu_s the
    measure of fam and u(s) delta_{t(s)} wc's atom: the total variations
    of mu_s and of mu_s + u(s) delta_{t(s)}, as two float arrays, bit for
    bit as the per-point route gives them.  Where that route's abs() or
    math.fsum raises OverflowError, so does this, at the first such
    point."""
    n = wc.weight.size
    tv, direct = np.empty(n), np.empty(n)
    # a block holds about four (slots + 1, points) float arrays at once
    # (the parts, the moduli and the joined moduli), so together they stay
    # near BLOCK values
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in _blocks(n, 4 * (_rows(fam) + 1)):
            tv[cols], direct[cols] = _block_norms(_slots(fam, cols), wc, cols)
    return tv, direct


def _block_norms(slots: list[list], wc: MovingAtom, cols: slice) -> tuple[list, list]:
    """column_norms at the points cols, from fam's slots there stacked into
    (slots, points) arrays: u(s) joins the atom at t(s) or stands as one
    more modulus."""
    w, num, den = wc.weight[cols], wc.num[cols], wc.den[cols]
    ur, ui, shape = w.real, w.imag, (len(slots), w.size)
    re, im = (np.array([slot[i] for slot in slots], dtype=float).reshape(shape) for i in (2, 3))
    hit = np.array([slot[4] for slot in slots], dtype=bool).reshape(shape)  # present, for now
    moduli = np.hypot(re, im)
    over_tv = (hit & _overflows(re, im, moduli)).any(axis=0)
    np.copyto(moduli, 0.0, where=~hit)
    for row, (pnum, pden, *_) in enumerate(slots):  # present at t(s)
        hit[row] &= (pnum == num) & (pden == den)
    found = hit.any(axis=0)
    re += ur
    im += ui
    joined = np.empty((len(slots) + 1, w.size))
    np.hypot(re, im, out=joined[:-1])
    over_joined = (hit & _overflows(re, im, joined[:-1])).any(axis=0)
    np.copyto(joined[:-1], moduli, where=~hit)
    np.hypot(ur, ui, out=joined[-1])
    over_joined |= ~found & _overflows(ur, ui, joined[-1])
    joined[-1, found] = 0.0
    # the per-point route sums the points before the first abs() that
    # raises, and that point's measure before its own joined atom
    bad = np.flatnonzero(over_tv | over_joined)
    stop = int(bad[0]) if bad.size else w.size
    tv, direct = _fsums(moduli[:, :stop]), _fsums(joined[:, :stop])
    if stop < w.size:
        if not over_tv[stop]:
            math.fsum(moduli[:, stop].tolist())
        raise OverflowError("absolute value too large")
    return tv, direct


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
