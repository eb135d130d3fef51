"""Norm-equation checks for perturbed weighted compositions on the circle.

The central question: for which weights u, symbols phi and finite-rank
perturbations T does the exact additivity

    ||uC_phi + T|| = sup|u| + ||T||

hold on the grid model?  equation_holds settles it by direct norm
computation.  criterion_sup evaluates the equivalent pointwise test: over
the active set of points whose measure nearly attains ||T||, the phase
deficiency |u(s) + m_s| - (sup|u| + |m_s|) must reach zero (m_s is the mass
the perturbation places exactly on phi(s)).  Sweeping epsilon downward
through a dyadic ladder makes the two routes comparable on finite grids;
every level is read off one pass over the points sorted by total
variation.
Both routes read sup|u| and ||T|| off their shared, verified profile, as
the |u| preconditions below read sup|u| - inf|u|; moduli go by circle.modulus.

The two counterexample constructors certify strict failure: one exploits a
non-constant |u| by hanging a rank-one tent on the modulus minimum, the
other a symbol that collapses an arc onto one target.  Both return an
operator together with a certified positive gap, each norm evaluated
exactly on the grid.

refinement_convergence tracks the gap under grid refinement, and
convex_center_check covers perturbations of convex combinations of two
composition operators, reporting the per-point deficiencies that keep the
combination from breaking additivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import (
    Arc,
    GridCircle,
    ScalarField,
    SymbolMap,
    arc_mask,
    compiles,
    frac_mod1,
    index_space,
    modulus,
    modulus_constancy,
    preimage_nowhere_dense_at_resolution,
    symbol_codes,
    tabulate,
)
from .errors import InvariantViolation, agree, at_most
from .operators import (
    FiniteRankOperator,
    OperatorExpr,
    PerturbationProfile,
    SupportsMeasureAt,
    WeightedComposition,
    compiled_family,
    convex_combination,
    operator_norm,
    perturbation_profile,
    perturbed_norm,
    point_masses,
    rank_one,
)

__all__ = [
    "CriterionResult",
    "criterion_sup",
    "OpenSetCriterionResult",
    "open_set_criterion",
    "EquationResult",
    "equation_holds",
    "SweepResult",
    "criterion_sweep",
    "s_epsilon_fraction",
    "CounterexampleResult",
    "counterexample_nonconstant_modulus",
    "counterexample_fat_preimage",
    "GapPoint",
    "refinement_convergence",
    "ConvexCheckResult",
    "convex_center_check",
]

#: Symbol values sampled per grid size for refinement_convergence's
#: preimage diagnostic.
TARGET_SAMPLES = 8


# ---------------------------------------------------------------------------
# pointwise criterion and the norm equation
# ---------------------------------------------------------------------------

def _deficiency(prof: PerturbationProfile) -> np.ndarray:
    """|u(s) + m_s| - (sup|u| + |m_s|), always <= 0 up to rounding."""
    return (modulus(prof.weight + prof.aligned_mass)
            - (prof.weight_sup + modulus(prof.aligned_mass)))


@dataclass(frozen=True)
class CriterionResult:
    epsilon: float
    active_set_size: int
    sup_value: float
    holds: bool


def _criterion_levels(prof: PerturbationProfile, epsilons,
                      tol: float) -> tuple[CriterionResult, ...]:
    """criterion_sup at each level epsilon, in one pass over the profile.

    The points are sorted once by descending total variation, so every
    active set is a prefix of that order, and its supremum is the running
    maximum of the _deficiency at the prefix's end; np.searchsorted reads
    each prefix's length.  Below one rounding step of ||T||
    (t_norm - epsilon == t_norm) the active set is the points that attain
    ||T||, as the sweep's one-rounding-step level picks them.
    """
    tv, t_norm = prof.total_variation, prof.t_norm
    order = np.argsort(tv)[::-1]
    descending = -tv[order]  # ascending, as searchsorted reads it
    running = np.maximum.accumulate(_deficiency(prof)[order])
    scale = max(prof.weight_sup, t_norm)
    results = []
    for epsilon in epsilons:
        level = t_norm - epsilon
        size = int(np.searchsorted(descending, -t_norm, side="right") if level == t_norm
                   else np.searchsorted(descending, -level, side="left"))
        if not size:
            raise InvariantViolation(
                "empty active set; the norm supremum must belong to it")
        sup_value = float(running[size - 1])
        at_most(sup_value, 0.0, lambda: f"criterion supremum {sup_value!r} is positive; "
                                        "the deficiency is bounded by zero", scale=scale)
        results.append(CriterionResult(epsilon=float(epsilon), active_set_size=size,
                                       sup_value=sup_value, holds=sup_value >= -tol))
    return tuple(results)


@compiles
def criterion_sup(wc: WeightedComposition, T: SupportsMeasureAt, epsilon: float,
                  grid: GridCircle, tol: float = 1e-9) -> CriterionResult:
    """Pointwise additivity test at one active-set level epsilon > 0.

    Active set: grid points s whose measure mu_s has total variation above
    ||T|| - epsilon.  The reported supremum of the phase deficiency over it
    is always <= 0; additivity at this level means it reaches 0 within tol.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return _criterion_levels(perturbation_profile(wc, T, grid), [epsilon], tol)[0]


def _arc_points(U: Arc, grid: GridCircle) -> np.ndarray:
    """arc_mask(U, grid.n), which must hold a grid point.  An empty mask is
    confirmed with Arc.covers at every grid point before it is reported."""
    mask = arc_mask(U, grid.n)
    if not mask.any():
        covered = sum(U.covers(k, grid.n) for k in range(grid.n))
        if covered:
            raise InvariantViolation(f"arc_mask finds no grid point on {U}, but Arc.covers "
                                     f"finds {covered} at n={grid.n}")
        raise ValueError("arc contains no grid point")
    return mask


@dataclass(frozen=True)
class OpenSetCriterionResult:
    sup_value: float
    points: int
    holds: bool


@compiles
def open_set_criterion(wc: WeightedComposition, T: SupportsMeasureAt, U: Arc,
                       grid: GridCircle, tol: float = 1e-9) -> OpenSetCriterionResult:
    """Same deficiency supremum, restricted to the grid points of an arc."""
    deficiency = _deficiency(perturbation_profile(wc, T, grid))
    mask = _arc_points(U, grid)
    sup_value = float(deficiency[mask].max())
    return OpenSetCriterionResult(sup_value=sup_value, points=int(mask.sum()),
                                  holds=sup_value >= -tol)


@dataclass(frozen=True)
class EquationResult:
    holds: bool
    lhs: float   # ||uC_phi + T||
    rhs: float   # sup|u| + ||T||
    gap: float   # rhs - lhs, >= 0 up to rounding
    weight_sup: float
    t_norm: float


@compiles
def equation_holds(wc: WeightedComposition, T: SupportsMeasureAt,
                   grid: GridCircle, tol: float = 1e-9) -> EquationResult:
    """Does ||uC_phi + T|| equal sup|u| + ||T|| on the grid, within tol?"""
    prof = perturbation_profile(wc, T, grid)
    lhs = perturbed_norm(wc, T, grid)
    rhs = prof.weight_sup + prof.t_norm
    at_most(lhs, rhs, f"norm {lhs!r} exceeds the additivity bound {rhs!r}")
    gap = rhs - lhs
    return EquationResult(holds=gap <= tol, lhs=lhs, rhs=rhs, gap=gap,
                          weight_sup=prof.weight_sup, t_norm=prof.t_norm)


@dataclass(frozen=True)
class SweepResult:
    holds: bool
    results: tuple[CriterionResult, ...]


@compiles
def criterion_sweep(wc: WeightedComposition, T: SupportsMeasureAt,
                    grid: GridCircle, tol: float = 1e-9) -> SweepResult:
    """Run criterion_sup over the dyadic ladder ||T|| * 2^-k, k = 0..20,
    plus the always-active level ||T|| + 1, plus one level read off the
    data when the ladder is too coarse for the grid.

    As epsilon shrinks the active set narrows to the points attaining
    ||T||, where additivity lives or dies, so all levels holding matches
    equation_holds.  The dyadic ladder resolves a grid only if its finest
    level admits no point more than tol below ||T||; the README window case
    breaks that from n = 3217 on.  Then a last level is appended halfway
    between tol and the smallest gap ||T|| - tv(s) above tol, whose active
    set is exactly the points within tol of ||T||.  Every point that lets
    the equation hold within tol stays active there, so the extra level
    never turns an agreement into a disagreement.
    """
    prof = perturbation_profile(wc, T, grid)
    tv, t_norm = prof.total_variation, prof.t_norm
    epsilons = [t_norm * 2.0 ** -k for k in range(21) if t_norm > 0.0]
    epsilons.append(t_norm + 1.0)
    floor = max(tol, 0.0)
    gaps = t_norm - tv
    gaps = gaps[gaps > floor]
    if gaps.size and float(gaps.min()) < t_norm * 2.0 ** -20:
        gap = float(gaps.min())
        eps = 0.5 * (floor + gap)
        if t_norm - eps == t_norm:
            eps = gap  # one rounding step: the half would round back to ||T||
        epsilons.append(eps)
    results = _criterion_levels(prof, epsilons, tol)
    return SweepResult(holds=all(r.holds for r in results), results=results)


def s_epsilon_fraction(wc: WeightedComposition, T: SupportsMeasureAt,
                       epsilon: float, grid: GridCircle) -> Fraction:
    """Fraction of grid points whose aligned mass |mu_s({phi(s)})| is below epsilon.

    When additivity holds for every unimodular rescaling of T, this set is
    dense in the limit; the exact count-over-n ratio quantifies it at finite n.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    prof = perturbation_profile(wc, T, grid)
    small = modulus(prof.aligned_mass) < epsilon
    return Fraction(int(small.sum()), grid.n)


# ---------------------------------------------------------------------------
# certified counterexample constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleResult:
    operator: FiniteRankOperator
    certified_gap: float   # (sup|u| + ||T||) - ||uC_phi + T||, positive
    perturbed: float       # ||uC_phi + T||
    upper: float           # sup|u| + ||T||
    weight_sup: float
    t_norm: float
    detail: dict


@compiles
def counterexample_nonconstant_modulus(u: ScalarField, phi: SymbolMap,
                                       grid: GridCircle,
                                       tol: float = 1e-9) -> CounterexampleResult:
    """Rank-one operator breaking additivity whenever |u| is not constant.

    Hangs T f = f(s0) * v on the modulus minimum s0, with v a tent peaking
    at 1 there and supported where |u| stays below sup|u| - spread/2.  Any
    point can then contribute at most |u(s)| + v(s) < sup|u| + 1 to the
    perturbed norm, pinning the gap at spread/2 or better.
    """
    report = modulus_constancy(u, grid, tol=tol)
    weight_sup, spread = report.value, report.spread
    if report.constant:
        raise ValueError(
            f"|u| is constant within {tol} (spread {spread:.3e}); "
            "this constructor needs a modulus dip")
    mods = modulus(tabulate(u, grid.n)).tolist()
    s0_idx = mods.index(min(mods))
    s0 = grid.coord(s0_idx)
    threshold = weight_sup - spread / 2.0

    # widest symmetric radius around s0 on which |u| stays strictly below
    # the threshold; s0 itself always qualifies
    steps = 0
    while steps + 1 <= (grid.n - 1) // 2:
        left = mods[(s0_idx - (steps + 1)) % grid.n]
        right = mods[(s0_idx + (steps + 1)) % grid.n]
        if left < threshold and right < threshold:
            steps += 1
        else:
            break
    half_width = max(Fraction(steps, 2 * grid.n), Fraction(1, 2 * grid.n))

    v = ScalarField.tent(center=s0, half_width=half_width, peak=1.0, base=0.0)
    T = rank_one(v, s0)
    return _certify(WeightedComposition(u, phi), T, grid,
                    detail={"kind": "modulus-dip", "s0": s0,
                            "tent_half_width": half_width,
                            "modulus_spread": spread})


@compiles
def counterexample_fat_preimage(u: ScalarField, phi: SymbolMap, t: Fraction,
                                U: Arc, grid: GridCircle,
                                tol: float = 1e-9) -> CounterexampleResult:
    """Rank-one operator breaking additivity when phi collapses the arc U to t.

    Requires |u| constant and nonzero.  T f = f(t) * g * u with g a tent
    running from -1 at the arc center to -1/2 at its boundary and beyond.
    Inside U the aligned mass cancels against u down to sup|u|/2; outside,
    values top out at (3/2) sup|u|, leaving a gap of sup|u|/2.
    """
    t = frac_mod1(t)
    wc = WeightedComposition(u, phi)
    g = ScalarField.tent(U.center, U.half_width, peak=-1.0, base=-0.5)
    T = rank_one(ScalarField.product(g, u), t)
    prof = perturbation_profile(wc, T, grid)
    spread = prof.weight_sup - prof.weight_inf
    if not spread <= tol:
        raise ValueError(f"|u| must be constant within {tol} here (spread {spread:.3e})")
    if prof.weight_sup <= tol:
        raise ValueError("the weight must be nonzero")
    on_arc = _arc_points(U, grid)
    misses = np.flatnonzero(on_arc & (symbol_codes(phi, grid.n) != index_space(grid.n).code(t)))
    if misses.size:  # the compiled route's first miss, confirmed at its point
        k = int(misses[0])
        p, covers = grid.coord(k), U.covers(k, grid.n)
        image = phi(p)
        if not covers or image == t:
            raise InvariantViolation(
                f"the symbol codes put phi({p}) off {t!r} on the arc, but U.covers({k}, "
                f"{grid.n}) is {covers} and phi({p}) = {image!r}")
        raise ValueError(f"arc is not inside the preimage of {t!r}: phi({p}) = {image!r}")
    return _certify(wc, T, grid,
                    detail={"kind": "fat-preimage", "target": t,
                            "arc_center": U.center, "arc_half_width": U.half_width})


def _certify(wc: WeightedComposition, T: FiniteRankOperator, grid: GridCircle,
             detail: dict) -> CounterexampleResult:
    eq = equation_holds(wc, T, grid)
    if not eq.gap > 0:
        raise ValueError(
            f"constructed counterexample has no positive gap ({eq.gap!r}) in floating "
            f"point: ||uC_phi + T|| = {eq.lhs!r}, sup|u| + ||T|| = {eq.rhs!r}")
    return CounterexampleResult(operator=T, certified_gap=eq.gap, perturbed=eq.lhs,
                                upper=eq.rhs, weight_sup=eq.weight_sup, t_norm=eq.t_norm,
                                detail=detail)


# ---------------------------------------------------------------------------
# refinement and convex-combination harnesses
# ---------------------------------------------------------------------------

def _field_closed_form(u: ScalarField) -> bool:
    if u.kind == "samples":
        return False
    if u.kind == "product":
        return all(_field_closed_form(f) for f in u.factors)
    return True


def _symbol_closed_form(phi: SymbolMap) -> bool:
    if phi.kind == "table":
        return False
    if phi.kind == "constant_on_arc":
        return _symbol_closed_form(phi.base)
    return True


@dataclass(frozen=True)
class GapPoint:
    n: int
    gap: float
    perturbed: float
    upper: float
    nowhere_dense_ok: bool   # preimage diagnostic at resolution 4/n


@compiles
def refinement_convergence(u: ScalarField, phi: SymbolMap, T: SupportsMeasureAt,
                           sizes, tol: float = 1e-9) -> list[GapPoint]:
    """Additivity gap of uC_phi + T across grid sizes.

    Requires closed-form u and phi (shared across grids) with |u| constant,
    and sizes of at least 8.  For symbols whose preimages are thin at
    resolution 4/n the gap decays like the weight field's modulus of
    continuity; the per-size diagnostic flag records whether that thinness
    held, and a failing flag (e.g. a symbol constant on an arc) is exactly
    the case where the gap persists.
    """
    if not _field_closed_form(u):
        raise ValueError("refinement needs a closed-form weight, not samples")
    if not _symbol_closed_form(phi):
        raise ValueError("refinement needs a closed-form symbol, not a table")
    sizes = [int(n) for n in sizes]
    if not sizes:
        raise ValueError("no grid sizes given")
    if min(sizes) < 8:  # the diagnostic's resolution 4/n must be at most 1/2
        raise ValueError(f"sizes must be at least 8 for the preimage diagnostic "
                         f"at resolution 4/n, got {min(sizes)}")
    out: list[GapPoint] = []
    wc = WeightedComposition(u, phi)
    for n in sizes:
        grid = GridCircle(n)
        prof = perturbation_profile(wc, T, grid)
        spread = prof.weight_sup - prof.weight_inf
        if not spread <= tol:
            raise ValueError(
                f"|u| must be constant for the refinement harness "
                f"(spread {spread:.3e} at n={n})")
        eq = equation_holds(wc, T, grid, tol=tol)
        delta = Fraction(4, n)
        targets = dict.fromkeys(phi(grid.coord(k * n // TARGET_SAMPLES))
                                for k in range(TARGET_SAMPLES))
        ok = all(
            preimage_nowhere_dense_at_resolution(phi, tval, delta, grid)
            for tval in targets
        )
        out.append(GapPoint(n=n, gap=eq.gap, perturbed=eq.lhs, upper=eq.rhs,
                            nowhere_dense_ok=ok))
    return out


def _direct_deficiency(t: float, phi: SymbolMap, psi: SymbolMap, T: SupportsMeasureAt,
                       p: Fraction) -> tuple[bool, float]:
    """(phi(p) == psi(p), the deficiency at p) from T.measure_at(p), in the compiled order."""
    a, b = phi(p), psi(p)
    masses = dict.fromkeys((a, b), 0j) | dict(T.measure_at(p).atoms)
    m, q = masses[a], masses[b]
    if a == b:
        return True, abs(1.0 + m) - (1.0 + abs(m))
    return False, (abs(t + m) + abs(1.0 - t + q)) - (1.0 + abs(m) + abs(q))


@dataclass(frozen=True)
class ConvexCheckResult:
    """The arrays are read-only and indexed like the grid, as a profile's."""

    holds: bool
    gap: float
    norm: float              # ||t C_phi + (1-t) C_psi + T||
    upper: float             # 1 + ||T||
    deficiency: np.ndarray   # real: delta off same_symbol, delta_tilde on it
    same_symbol: np.ndarray  # bool: phi(s) == psi(s)


@compiles
def convex_center_check(t: float, phi: SymbolMap, psi: SymbolMap, T: SupportsMeasureAt,
                        grid: GridCircle, tol: float = 1e-9) -> ConvexCheckResult:
    """Additivity of T against the convex combination t*C_phi + (1-t)*C_psi.

    Besides the norm comparison, reports the pointwise deficiencies that
    control it: on the set where the symbols disagree,

        delta(s) = |t + m_phi| + |1-t + m_psi| - (1 + |m_phi| + |m_psi|),

    and |1 + m_phi| - (1 + |m_phi|) where they agree; both are <= 0, and
    additivity means they climb to 0 along the relevant points.  Each norm
    is operator_norm's, held to the measure where it is attained, and each
    part's largest and smallest deficiency to _direct_deficiency.
    """
    cc = convex_combination(t, phi, psi)
    combo_norm = operator_norm(cc, grid)
    agree(combo_norm, 1.0,
          f"a convex combination of compositions has norm 1, got {combo_norm!r}")
    t_norm = operator_norm(T, grid)
    # cc + T as two terms: flattening T's terms into cc's would change the
    # order of summation
    norm = operator_norm(OperatorExpr(((1.0, cc), (1.0, T))), grid)
    upper = combo_norm + t_norm
    at_most(norm, upper, f"norm {norm!r} exceeds the bound {upper!r}")
    gap = upper - norm

    fam = compiled_family(T, grid.n)
    phi_codes, psi_codes = symbol_codes(phi, grid.n), symbol_codes(psi, grid.n)
    m_phi, m_psi = point_masses(fam, phi_codes)[0], point_masses(fam, psi_codes)[0]
    same = phi_codes == psi_codes
    values = np.where(
        same,
        modulus(1.0 + m_phi) - (1.0 + modulus(m_phi)),
        (modulus(t + m_phi) + modulus(1.0 - t + m_psi))
        - (1.0 + modulus(m_phi) + modulus(m_psi)))
    for k in np.flatnonzero(values > 0.0).tolist():  # at_most never raises on a value <= 0
        value = float(values[k])
        at_most(value, 0.0, f"positive deficiency {value!r} at s={grid.coord(k)}; "
                            "bounded by zero", scale=max(combo_norm, t_norm))
    for ks in map(np.flatnonzero, (same, ~same)):  # the extremes the report shows
        for k in ks[[values[ks].argmax(), values[ks].argmin()]] if ks.size else ():
            p, value = grid.coord(int(k)), float(values[k])
            same_p, direct = _direct_deficiency(t, phi, psi, T, p)
            if same_p != same[k]:
                raise InvariantViolation(f"phi(s) == psi(s) is {same_p}, but the symbol "
                                         f"codes say {not same_p} at s={p}")
            agree(value, direct, lambda: f"deficiency {value!r} disagrees with the direct "
                                         f"deficiency {direct!r} at s={p}")
    values.flags.writeable = same.flags.writeable = False
    return ConvexCheckResult(holds=gap <= tol, gap=gap, norm=norm, upper=upper,
                             deficiency=values, same_symbol=same)
