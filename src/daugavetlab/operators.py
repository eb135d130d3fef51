"""Operators on the discretized circle, represented by their measure families.

Every operator here acts on continuous functions through a family of atomic
measures: T is stored as s -> mu_s with (Tf)(s) = <f, mu_s>, so operator
norms are exact suprema of total variations over the grid.  A weighted
composition u * (f o phi) has the one-atom family u(s) * delta_{phi(s)};
finite-rank perturbations contribute finitely many moving atoms.

The perturbed norm of uC_phi + T splits at each point into the aligned part
|u(s) + mu_s({phi(s)})| plus the off-target variation.  perturbation_profile
holds the split and its parts at every grid point, each point's total
variation |mu_s|, sup|u|, inf|u| and ||T||: every circle check but the convex
one reads its norms and |u| there; operator_norm serves the convex check.

Compiled route.  Inside a shared_compilation() block (see circle.py) an
operator compiles once per grid to a family of atom slots: for each slot
an exact integer code per point (where the atom sits), a complex weight
per point and a presence mask, merged and zero-dropped exactly as
AtomicMeasure.from_atoms and linear_combine do, in their order of
summation.  Fields come from circle.tabulate, symbol images from
circle.symbol_codes, products and moduli through circle.cmul and
circle.modulus, and row sums through math.fsum, so every array is bit for
bit what the per-point route computes.  The slots are merged in place in
preallocated (m, n) arrays, and every pass that makes Python numbers or
(m, k) temporaries walks blocks of about measures.BLOCK values, so a
family costs little more than its own arrays.  Families and profiles are
kept in the block's memo, keyed by value, so every check of a scenario
reads the same profile; the operators, fields, symbols and measures in a
key keep their hash after its first use (circle.hash_once).

The operators are the three classes below and their nested sums; the
compiler covers all of them, and any other type raises TypeError.  A
convex combination t*C_phi + (1-t)*C_psi is such a sum
(convex_combination).

Reference pass.  The first time a profile is built, the per-point route
runs once over every grid point, in columns: measures.column_norms gives,
bit for bit as direct_norms(T.measure_at(s), phi(s), u(s)) would, both
the total variation of mu_s and the norm of mu_s + u(s) delta_{phi(s)},
with u's atom added in place rather than merged as a second measure.  It
reads the per-point evaluations of wc.u, wc.phi and each coefficient g_i
of T at every grid point k/n, given as the integers (k, n):
ScalarField.value_at(k, n) and SymbolMap.image_at(k, n), phi's image as
its exact numerator and denominator.  These are the implementations that
u(s), phi(s) and g_i(s) delegate to, so no Fraction is built per point.
Each is made once per (field or symbol, grid) in a shared_compilation()
block and read by every profile there.  The pass also reads a finite-rank
T's merge plan, built once per operator from measures that validated
themselves when they were made.  The direct norm must match the compiled
split |u + m| + off, and the total variation of mu_s the compiled row
total variation, to errors.agree's relative tolerance, else
InvariantViolation names the point.  The reference pass is a check only:
it builds nothing the checks read and names nothing of the compiled route,
so it stays an independent witness.  Once it passes, the profile takes
||T||, its largest row (ValueError when it is not finite), and sup|u| and
inf|u|, each held to the pass's u(s) at the first point attaining it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .circle import (
    GridCircle,
    IndexSpace,
    ScalarField,
    SymbolMap,
    _frozen,
    cmul,
    compiles,
    hash_once,
    index_space,
    memoized,
    modulus,
    symbol_codes,
    tabulate,
)
from .errors import REL_TOL, agree, at_most
from .measures import (
    BLOCK,
    AtomicMeasure,
    ColumnFamily,
    ColumnSum,
    MergePlan,
    MovingAtom,
    PlannedColumns,
    _blocks,
    apply_plan,
    column_norms,
    linear_combine,
    merge_plan,
    total_variation,
)

__all__ = [
    "SupportsMeasureAt",
    "WeightedComposition",
    "FiniteRankOperator",
    "OperatorExpr",
    "rank_one",
    "convex_combination",
    "as_expr",
    "scaled",
    "zero_operator",
    "operator_norm",
    "perturbation_profile",
    "perturbed_norm",
    "RotationMaxResult",
    "rotation_max_norm",
]


@dataclass(frozen=True)
class WeightedComposition:
    """f -> u * (f o phi); measure family u(s) * delta_{phi(s)}."""

    u: ScalarField
    phi: SymbolMap

    __hash__ = hash_once

    def measure_at(self, s: Fraction) -> AtomicMeasure:
        return AtomicMeasure.from_atoms([(self.phi(s), self.u(s))])


@dataclass(frozen=True)
class FiniteRankOperator:
    """f -> sum_i <f, mu_i> g_i; measure family sum_i g_i(s) * mu_i."""

    terms: tuple[tuple[ScalarField, AtomicMeasure], ...]

    __hash__ = hash_once

    @functools.cached_property
    def plan(self) -> MergePlan:
        """The merge plan of the mu_i, built once from measures that
        validated themselves: only the coefficients g_i(s) change from
        point to point."""
        return merge_plan([mu.atoms for _, mu in self.terms])

    def measure_at(self, s: Fraction) -> AtomicMeasure:
        return apply_plan(self.plan, [g(s) for g, _ in self.terms])


@dataclass(frozen=True)
class OperatorExpr:
    """Formal sum of scaled operators, combined at the measure level."""

    terms: tuple[tuple[complex, SupportsMeasureAt], ...] = ()

    __hash__ = hash_once

    def measure_at(self, s: Fraction) -> AtomicMeasure:
        return linear_combine([c for c, _ in self.terms],
                              [op.measure_at(s) for _, op in self.terms])

    def __add__(self, other: SupportsMeasureAt) -> "OperatorExpr":
        return OperatorExpr(self.terms + as_expr(other).terms)


#: The operators of the library: a closed set, every member of which
#: compiles.
SupportsMeasureAt = Union[WeightedComposition, FiniteRankOperator, OperatorExpr]


def rank_one(g: ScalarField, at: Fraction,
             scale: complex = 1.0) -> FiniteRankOperator:
    """The ubiquitous f -> scale * f(at) * g."""
    return FiniteRankOperator(((g, AtomicMeasure.from_atoms([(at, scale)])),))


def convex_combination(t: float, phi: SymbolMap, psi: SymbolMap) -> OperatorExpr:
    """t*C_phi + (1-t)*C_psi; family t*delta_{phi(s)} + (1-t)*delta_{psi(s)}."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"convex weight t must lie in [0, 1], got {t}")
    one = ScalarField.constant(1.0)
    return OperatorExpr(((t, WeightedComposition(one, phi)),
                         (1.0 - t, WeightedComposition(one, psi))))


def as_expr(op: SupportsMeasureAt) -> OperatorExpr:
    if isinstance(op, OperatorExpr):
        return op
    return OperatorExpr(((1 + 0j, op),))


def scaled(op: SupportsMeasureAt, coeff: complex) -> OperatorExpr:
    return OperatorExpr(tuple((complex(coeff) * c, inner) for c, inner in as_expr(op).terms))


def zero_operator() -> OperatorExpr:
    return OperatorExpr(())


# ---------------------------------------------------------------------------
# compiled families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledFamily:
    """s -> mu_s on one grid as m atom slots, each canonical at every point:
    present slots sit at distinct codes and carry nonzero weights."""

    codes: np.ndarray     # (m, n) int64, in the block's index space
    weights: np.ndarray   # (m, n) complex, 0 where absent
    present: np.ndarray   # (m, n) bool
    tv: np.ndarray        # (n,) total variation, exactly rounded


def _row_fsum(values: np.ndarray) -> np.ndarray:
    """math.fsum down each column of an (m, k) array, OverflowError included.

    With m <= 2 one numpy sum is that value wherever it is finite.  Else
    math.fsum runs per column, on the Python floats of one block of
    columns at a time (_blocks), so the floats alive at once stay bounded
    whatever k is.
    """
    m, k = values.shape
    if m <= 2:  # a single rounding of the exact sum, as fsum gives
        with np.errstate(over="ignore"):  # an inf goes on to fsum, which raises
            out = values.sum(axis=0) if m else np.zeros(k)
        if np.isfinite(out).all():
            return out
    out = np.empty(k)
    for cols in _blocks(k, m):
        out[cols] = [math.fsum(col) for col in values[:, cols].T.tolist()]
    return out


def _canonical(codes: list, weights, present: list, n: int) -> CompiledFamily:
    """Merge coinciding atoms in slot order and drop zero weights, as
    AtomicMeasure.from_atoms does at every point.

    Slot i is codes[i], the i-th item of weights (any iterable, read once,
    so a caller can form each row as it is stored) and present[i]; each
    may be a scalar or an (n,) array.  The slots fill preallocated (m, n)
    arrays one at a time, and a slot merges into the earlier slot that
    holds its code at a point (at most one does) in place: that slot's
    weight gains it, the slot itself goes absent there.  Then zero
    weights go absent, absent weights become 0j, and slots absent
    everywhere are dropped.  The row total variations are summed per
    block of points.
    """
    m = len(codes)
    C = np.empty((m, n), dtype=np.int64)
    W = np.empty((m, n), dtype=complex)
    P = np.empty((m, n), dtype=bool)
    same = np.empty(n, dtype=bool)
    for i, w in enumerate(weights):
        C[i], W[i], P[i] = codes[i], w, present[i]
        for j in range(i):
            np.equal(C[j], C[i], out=same)
            same &= P[j]
            same &= P[i]
            if same.any():
                with np.errstate(over="ignore"):  # inf, as from_atoms's merge gives
                    np.add(W[j], W[i], out=W[j], where=same)
                P[i] &= ~same
    for i in range(m):
        P[i] &= W[i] != 0
        np.copyto(W[i], 0j, where=~P[i])
    keep = P.any(axis=1)
    if not keep.all():
        C, W, P = C[keep], W[keep], P[keep]
    tv = np.empty(n)
    for cols in _blocks(n, len(W)):
        tv[cols] = _row_fsum(modulus(W[:, cols]))
    return CompiledFamily(C, W, P, tv)


def _combine(coeffs, families: list[CompiledFamily], n: int) -> CompiledFamily:
    """linear_combine on compiled families: zero coefficients skip their
    family, the others scale every weight (complex(c) * w), one slot at a
    time as _canonical stores it."""
    terms = [(c, fam) for c, fam in zip(map(complex, coeffs), families) if c != 0]
    return _canonical([row for _, fam in terms for row in fam.codes],
                      (cmul(c, row) for c, fam in terms for row in fam.weights),
                      [row for _, fam in terms for row in fam.present], n)


def compile_family(T: SupportsMeasureAt, space: IndexSpace) -> CompiledFamily:
    """The family of T on space's grid."""
    n = space.n
    if isinstance(T, WeightedComposition):
        w = tabulate(T.u, n)
        return _canonical([symbol_codes(T.phi, n)], [w], [w != 0], n)
    if isinstance(T, FiniteRankOperator):
        codes, present, atoms = [], [], []
        for g, mu in T.terms:
            c = tabulate(g, n)
            nonzero = c != 0
            for pos, w in mu.atoms:
                codes.append(space.code(pos))
                present.append(nonzero)
                atoms.append((c, complex(w)))
        return _canonical(codes, (cmul(c, w) for c, w in atoms), present, n)
    if isinstance(T, OperatorExpr):
        return _combine([c for c, _ in T.terms],
                        [compiled_family(op, n) for _, op in T.terms], n)
    raise TypeError(f"{type(T).__name__} is not an operator of daugavetlab: use "
                    "WeightedComposition, FiniteRankOperator or OperatorExpr")


def compiled_family(T: SupportsMeasureAt, n: int) -> CompiledFamily:
    """T's family on the n-point grid, compiled once per shared_compilation()
    block (which this needs: its codes belong to the block's index space)."""
    return memoized("family", n, (T,), lambda: compile_family(T, index_space(n)))


def point_masses(fam: CompiledFamily, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weight each point's measure carries at its target, targets given
    as codes (0 if no atom there): (mass, the slot that holds it or -1)."""
    if not len(fam.codes):
        return np.zeros(targets.size, dtype=complex), np.full(targets.size, -1)
    hit = fam.present & (fam.codes == targets)
    found = hit.any(axis=0)
    slot = hit.argmax(axis=0)
    mass = np.where(found, fam.weights[slot, np.arange(targets.size)], 0j)
    return mass, np.where(found, slot, -1)


# ---------------------------------------------------------------------------
# norms and the profile
# ---------------------------------------------------------------------------

@compiles
def operator_norm(T: SupportsMeasureAt, grid: GridCircle) -> float:
    """sup over grid points of the total variation of the measure family,
    held to total_variation(mu_s) at the first point that attains it.
    ValueError when it is not finite."""
    tv = compiled_family(T, grid.n).tv
    k = int(np.argmax(tv))
    norm, p = float(tv[k]), grid.coord(k)
    if not math.isfinite(norm):
        raise ValueError(f"||T|| = {norm!r} is not finite")
    direct = total_variation(T.measure_at(p))
    agree(norm, direct, lambda: f"compiled norm {norm!r} disagrees with the measure's "
                                f"total variation {direct!r} at s={p}")
    return norm


@dataclass(frozen=True)
class PerturbationProfile:
    """Per-point data of uC_phi + T: weight u(s), aligned mass mu_s({phi(s)}),
    off-target variation |mu_s|(S - {phi(s)}), total variation |mu_s|(S) and
    the split |u(s) + mu_s({phi(s)})| + off; and sup|u|, inf|u| and ||T||."""

    weight: np.ndarray           # complex
    aligned_mass: np.ndarray     # complex
    off_mass: np.ndarray         # real
    total_variation: np.ndarray  # real
    split: np.ndarray            # real
    weight_sup: float
    weight_inf: float
    t_norm: float


def _compiled_profile(wc: WeightedComposition, T: SupportsMeasureAt,
                      grid: GridCircle) -> tuple[np.ndarray, ...]:
    """Weight, aligned mass, off-target and total variation, read off T's
    compiled family at phi's codes."""
    n = grid.n
    fam = compiled_family(T, n)
    aligned, slot = point_masses(fam, symbol_codes(wc.phi, n))
    off = fam.tv.copy()
    rows = np.flatnonzero(slot >= 0)  # the rest have no atom on target: off = tv exactly
    m = len(fam.codes)
    for block in _blocks(rows.size, m):
        at = rows[block]
        rest = fam.present[:, at] & (np.arange(m)[:, None] != slot[at])
        off[at] = _row_fsum(np.where(rest, modulus(fam.weights[:, at]), 0.0))
    return tabulate(wc.u, n), aligned, off, fam.tv


def _values(g: ScalarField, n: int) -> np.ndarray:
    """g(k/n) at every grid point, by the per-point g.value_at(k, n), once
    per (g, n) in the current block (the values exactly, complex)."""
    return memoized("values", n, (g,), lambda: np.fromiter(
        (g.value_at(k, n) for k in range(n)), dtype=complex, count=n))


def _pointwise(wc: WeightedComposition, n: int) -> MovingAtom:
    """phi(k/n) and u(k/n) at every grid point, by the per-point
    evaluations: phi's image_at(k, n), its exact numerator and denominator
    (int64 arrays, or object arrays once one does not fit), once per
    (phi, n) in the current block and made a block of points at a time,
    and u(s) from _values."""
    def images():
        num, den = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        for cols in _blocks(n):
            parts = tuple(zip(*(wc.phi.image_at(k, n) for k in range(n)[cols])))
            try:
                num[cols], den[cols] = parts
            except OverflowError:
                num, den = num.astype(object), den.astype(object)
                num[cols], den[cols] = parts
        return num, den

    return MovingAtom(*memoized("images", n, (wc.phi,), images), _values(wc.u, n))


def _columns(T: SupportsMeasureAt, n: int) -> ColumnFamily:
    """T's family on the n-point grid as column_norms reads it, from the
    per-point calls (_pointwise, _values) and T's merge plans."""
    if isinstance(T, WeightedComposition):
        return _pointwise(T, n)
    if isinstance(T, FiniteRankOperator):
        return PlannedColumns(T.plan, tuple(_values(g, n) for g, _ in T.terms))
    # the compiled profile has rejected every other type already
    return ColumnSum(tuple((c, _columns(op, n)) for c, op in T.terms))


def _checked_profile(wc: WeightedComposition, T: SupportsMeasureAt,
                     grid: GridCircle) -> PerturbationProfile:
    """The compiled profile and its norms, after one reference pass over
    every point.

    That pass (column_norms) computes total_variation(mu_s) and the direct
    norm of mu_s + u(s) delta_{phi(s)} at every point, and the profile's
    row total variation and split are held to them.  The columns it reads
    are made once per field, symbol and grid in the block, so profiles
    that share u, phi or a coefficient evaluate it once.
    """
    weight, aligned, off, tv = _compiled_profile(wc, T, grid)
    with np.errstate(over="ignore"):  # inf, as the per-point sum gives
        split = modulus(weight + aligned) + off
    ref_tv, ref = column_norms(_columns(T, grid.n), _pointwise(wc, grid.n))
    # the two routes usually agree bit for bit, and equal values always
    # pass, so only a differing point goes through the tolerance rule
    for k in np.flatnonzero((ref_tv != tv) | (ref != split)).tolist():
        p = grid.coord(k)
        row, direct_tv = float(tv[k]), float(ref_tv[k])
        if direct_tv != row:
            agree(row, direct_tv, lambda: f"compiled total variation {row!r} disagrees "
                                          f"with the measure's total variation "
                                          f"{direct_tv!r} at s={p}")
        s, direct = float(split[k]), float(ref[k])
        if direct != s:
            agree(s, direct, lambda: f"aligned/off-target split {s!r} disagrees with "
                                     f"direct total variation {direct!r} at s={p}")
    mods, u = modulus(weight), _values(wc.u, grid.n)
    for k in (int(mods.argmax()), int(mods.argmin())):
        tabulated, u_k = float(mods[k]), abs(complex(u[k]))
        agree(tabulated, u_k, lambda: f"tabulated |u| {tabulated!r} disagrees with "
                                      f"|u(s)| {u_k!r} at s={grid.coord(k)}")
    t_norm = float(tv.max())
    if not math.isfinite(t_norm):
        raise ValueError(f"||T|| = {t_norm!r} is not finite")
    for a in (weight, aligned, off, tv, split):
        a.flags.writeable = False
    return PerturbationProfile(weight, aligned, off, tv, split, float(mods.max()),
                               float(mods.min()), t_norm)


@compiles
def perturbation_profile(wc: WeightedComposition, T: SupportsMeasureAt,
                         grid: GridCircle) -> PerturbationProfile:
    """The profile of uC_phi + T on the grid, cross-checked point by point
    the first time it is built in a shared_compilation() block (read-only
    arrays).  ValueError when ||T|| is not finite."""
    return memoized("profile", grid.n, (wc.u, wc.phi, T),
                    lambda: _checked_profile(wc, T, grid))


def perturbed_norm(wc: WeightedComposition, T: SupportsMeasureAt,
                   grid: GridCircle) -> float:
    """Exact norm of uC_phi + T on the grid model: its profile's largest split."""
    return float(perturbation_profile(wc, T, grid).split.max())


@dataclass(frozen=True)
class RotationMaxResult:
    max: float               # analytic maximum over unimodular scalings
    expected: float          # sup|u| + ||T||, which max must equal
    searched: float          # best value found on the lambda grid
    argmax_lambda: complex   # first grid maximizer, smallest argument in [0, 2pi)
    lambda_grid: int
    evaluated: int           # moving points whose lambda values were computed


@compiles
def rotation_max_norm(wc: WeightedComposition, T: SupportsMeasureAt,
                      grid: GridCircle, lambda_grid: int = 4096,
                      tol: float = 1e-9) -> RotationMaxResult:
    """max over |lambda| = 1 of ||uC_phi + lambda T|| for constant-modulus u.

    The analytic value sup_s(|u(s)| + |mu_s({phi(s)})| + off-target mass)
    collapses to sup|u| + ||T||; the lambda-grid search must come within
    (2*pi/lambda_grid) * ||T|| of it (Lipschitz bound) and must not exceed
    it, up to errors.at_most's relative tolerance, else InvariantViolation.
    lambda_grid=2 restricts to real scalars {1, -1}.

    The search takes its own moduli, with np.abs (see circle.py), so it
    stays a witness of the analytic maximum.  A point without aligned mass
    gives |u(s)| + off(s) at every lambda.  The others are visited by
    descending cap |u(s)| + |mu_s({phi(s)})| + off(s), which bounds their
    values, in tiles of about measures.BLOCK values, until a cap lies more
    than twice the relative tolerance below the best value found: the rest
    can move neither that value nor its first maximizer.
    """
    if lambda_grid < 1:
        raise ValueError(f"lambda_grid must be positive, got {lambda_grid}")
    prof = perturbation_profile(wc, T, grid)
    spread = prof.weight_sup - prof.weight_inf
    if not spread <= tol:
        raise ValueError(
            f"|u| must be constant within {tol} for the rotation maximum "
            f"(spread {spread:.3e})")
    lam = memoized("lambdas", lambda_grid, (), lambda: _frozen(
        np.exp(2j * np.pi * np.arange(lambda_grid) / lambda_grid)))
    moving = prof.aligned_mass != 0
    weight, aligned, off = prof.weight[moving], prof.aligned_mass[moving], prof.off_mass[moving]
    # |u| + |m| may overflow where no value does: inf, which never stops the search
    with np.errstate(over="ignore"):
        analytic = float(np.max(modulus(prof.weight) + modulus(prof.aligned_mass)
                                + prof.off_mass))
        still = np.abs(prof.weight[~moving]) + prof.off_mass[~moving]
        best = float(still.max(initial=-np.inf))
        per_lambda = np.full(lambda_grid, best)
        cap = np.abs(weight) + np.abs(aligned) + off
        order = np.argsort(cap)[::-1]  # descending, a NaN first: it never stops the search
        step, evaluated = max(1, BLOCK // lambda_grid), 0
        for start in range(0, order.size, step):
            pts = order[start:start + step]
            pts = pts[~(cap[pts] + 2 * REL_TOL * np.maximum(1.0, cap[pts]) < best)]
            if not pts.size:
                break
            w, a, o = weight[pts], aligned[pts], off[pts]
            for cols in _blocks(lambda_grid, pts.size):
                vals = np.abs(w[None, :] + lam[cols, None] * a[None, :])
                vals += o[None, :]
                np.maximum(per_lambda[cols], vals.max(axis=1), out=per_lambda[cols])
            evaluated += pts.size
            best = max(best, float(per_lambda.max()))
    arg_idx = int(np.argmax(per_lambda))  # the first maximizer
    searched = float(per_lambda[arg_idx])
    at_most(searched, analytic,
            lambda: f"lambda search {searched!r} exceeded the analytic maximum {analytic!r}")
    slack = (2.0 * math.pi / lambda_grid) * prof.t_norm
    at_most(analytic - searched, slack,
            lambda: f"lambda search {searched!r} missed the analytic maximum {analytic!r} "
                    f"by more than {slack!r}", scale=analytic)
    return RotationMaxResult(max=analytic, expected=prof.weight_sup + prof.t_norm,
                             searched=searched, argmax_lambda=complex(lam[arg_idx]),
                             lambda_grid=lambda_grid, evaluated=evaluated)
