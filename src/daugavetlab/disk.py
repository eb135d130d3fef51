"""Boundary-value model for weighted compositions of analytic disk functions.

Functions analytic on the unit disk and continuous up to the boundary peak
their modulus on the circle, so norms here are suprema over dense circle
samples; Blaschke products supply the inner symbols and the test-function
ladder.  Exact analytic values are used wherever a closed form exists
(inner parts have modulus 1, an affine a + b z has sup |a| + |b|), sampled
suprema elsewhere, and every result records which one it got.

Two one-sided tools replace the circle model's exact norms:

* disk_norm_lower_bound certifies ||uC_phi + T|| from below by evaluating
  the operator on a deterministic ladder of sup-norm-1 test functions.
* certified_counterexample_bound certifies ||uC_phi - T|| from above, for
  the canonical rank-one T built at a boundary point omega, by a two-arc
  argument: a difference chain with a Cauchy-type increment bound near
  omega, plain triangle inequality off the arc.  A positive margin below
  sup|u| + ||T|| certifies that additivity fails for -T.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import REL_TOL, at_most

__all__ = [
    "BlaschkeProduct",
    "blaschke_eval",
    "DiskFunction",
    "RankOneDiskOperator",
    "ArcNeighborhood",
    "SearchLadder",
    "CConditions",
    "check_c_conditions",
    "LowerBoundResult",
    "disk_norm_lower_bound",
    "disk_counterexample_operator",
    "CertifiedBound",
    "certified_counterexample_bound",
    "AutomorphismResult",
    "automorphism_identity_check",
]

UNIMODULAR_TOL = 1e-12
BOUNDARY_SLACK = 1e-12


@dataclass(frozen=True)
class BlaschkeProduct:
    """lambda * prod_k (z - a_k) / (1 - conj(a_k) z), |lambda| = 1, |a_k| < 1."""

    unimodular_constant: complex = 1 + 0j
    zeros: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if abs(abs(self.unimodular_constant) - 1.0) > UNIMODULAR_TOL:
            raise ValueError(
                f"leading constant must be unimodular, |{self.unimodular_constant}| "
                f"= {abs(self.unimodular_constant)!r}")
        for a in self.zeros:
            if abs(a) >= 1.0:
                raise ValueError(f"zero {a!r} is not inside the open disk")

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        return blaschke_eval(self, z)


def blaschke_eval(B: BlaschkeProduct, z):
    """Evaluate on the closed disk (scalar or ndarray); rejects |z| > 1.

    The product is formed factor by factor in tuple order, each factor
    (z - a) / (1 - conj(a) z) divided out before it multiplies the product
    so far, so a ladder walk that forms each factor once and multiplies
    by it gets the same bits."""
    arr = np.asarray(z, dtype=complex)
    if arr.size and float(np.max(np.abs(arr))) > 1.0 + BOUNDARY_SLACK:
        raise ValueError("evaluation point outside the closed unit disk")
    out = np.full(arr.shape, B.unimodular_constant, dtype=complex)
    for a in B.zeros:
        den = 1.0 - np.conj(a) * arr
        if arr.size and float(np.min(np.abs(den))) < 1e-300:
            raise ValueError(f"evaluation too close to the pole of the {a!r} factor")
        out = out * ((arr - a) / den)
    if arr.shape == ():
        return complex(out)
    return out


@dataclass(frozen=True)
class DiskFunction:
    """Analytic function given as a constant, a polynomial (ascending
    coefficients), or a scalar multiple of a Blaschke product."""

    kind: str
    value: complex = 0j
    coeffs: tuple[complex, ...] = ()
    scale: complex = 1 + 0j
    blaschke: BlaschkeProduct | None = None

    @classmethod
    def constant(cls, value: complex) -> "DiskFunction":
        return cls(kind="constant", value=complex(value))

    @classmethod
    def polynomial(cls, coeffs) -> "DiskFunction":
        coeffs = tuple(complex(c) for c in coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        return cls(kind="polynomial", coeffs=coeffs)

    @classmethod
    def scaled_identity(cls, scale: complex) -> "DiskFunction":
        return cls.polynomial([0j, complex(scale)])

    @classmethod
    def half_plus(cls, omega: complex) -> "DiskFunction":
        """g(z) = (1 + conj(omega) z) / 2: peaks at 1 in z = omega, sup 1."""
        if abs(abs(omega) - 1.0) > UNIMODULAR_TOL:
            raise ValueError(f"omega must be on the circle, |omega| = {abs(omega)!r}")
        return cls.polynomial([0.5, 0.5 * complex(omega).conjugate()])

    @classmethod
    def blaschke_multiple(cls, blaschke: BlaschkeProduct,
                          scale: complex = 1 + 0j) -> "DiskFunction":
        return cls(kind="blaschke", blaschke=blaschke, scale=complex(scale))

    def __call__(self, z):
        if self.kind == "constant":
            arr = np.asarray(z)
            if arr.shape == ():
                return self.value
            return np.full(arr.shape, self.value, dtype=complex)
        if self.kind == "polynomial":
            res = np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex),
                                                   np.asarray(self.coeffs))
            if np.asarray(z).shape == ():
                return complex(res)
            return res
        if self.kind == "blaschke":
            return self.scale * blaschke_eval(self.blaschke, z)
        raise ValueError(f"unknown disk function kind {self.kind!r}")

    def sup_norm(self, samples: int = 4096) -> tuple[float, bool]:
        """(sup over the closed disk, exact?).  Exact for constants, Blaschke
        multiples and affine polynomials; otherwise a dense boundary sample
        (a lower estimate, by the maximum principle tight as samples grow)."""
        if self.kind == "constant":
            return abs(self.value), True
        if self.kind == "blaschke":
            return abs(self.scale), True
        if self.kind == "polynomial" and len(self.coeffs) <= 2:
            return math.fsum(abs(c) for c in self.coeffs), True
        z = np.exp(2j * np.pi * np.arange(samples) / samples)
        return float(np.max(np.abs(self(z)))), False


@dataclass(frozen=True)
class RankOneDiskOperator:
    """T f = c * f(tau) * g with tau in the closed disk; ||T|| = |c| * sup|g|."""

    tau: complex
    g: DiskFunction
    c: complex

    def __post_init__(self) -> None:
        if abs(self.tau) > 1.0 + BOUNDARY_SLACK:
            raise ValueError(f"evaluation point tau={self.tau!r} outside the closed disk")

    def norm(self, samples: int = 4096) -> tuple[float, bool]:
        g_sup, exact = self.g.sup_norm(samples)
        return abs(self.c) * g_sup, exact


@dataclass(frozen=True)
class ArcNeighborhood:
    """Closed boundary arc {omega e^{i theta} : |theta| <= half_angle}."""

    omega: complex
    half_angle: float

    def __post_init__(self) -> None:
        if abs(abs(self.omega) - 1.0) > UNIMODULAR_TOL:
            raise ValueError(f"omega must be on the circle, |omega| = {abs(self.omega)!r}")
        if not (0.0 < self.half_angle < math.pi):
            raise ValueError(f"half_angle must lie in (0, pi), got {self.half_angle}")

    def samples(self, m: int) -> np.ndarray:
        thetas = np.linspace(-self.half_angle, self.half_angle, m)
        return self.omega * np.exp(1j * thetas)

    def complement_samples(self, m: int) -> np.ndarray:
        thetas = np.linspace(self.half_angle, 2.0 * math.pi - self.half_angle,
                             m + 2)[1:-1]
        return self.omega * np.exp(1j * thetas)


# ---------------------------------------------------------------------------
# condition checks and the lower-bound search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CConditions:
    weight_modulus_constant: bool   # |u| constant and nonzero on the boundary
    symbol_inner: bool              # |phi| = 1 on the boundary
    symbol_nonconstant: bool
    detail: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return (self.weight_modulus_constant and self.symbol_inner
                and self.symbol_nonconstant)


def check_c_conditions(u: DiskFunction, phi: DiskFunction, samples: int = 4096,
                       tol: float = 1e-9) -> CConditions:
    """Sampled check of the three hypotheses behind boundary additivity:
    constant nonzero |u|, inner phi, non-constant phi."""
    z = np.exp(2j * np.pi * np.arange(samples) / samples)
    u_mod = np.abs(u(z))
    phi_vals = np.asarray(phi(z))
    u_spread = float(u_mod.max() - u_mod.min())
    u_min = float(u_mod.min())
    inner_defect = float(np.max(np.abs(np.abs(phi_vals) - 1.0)))
    symbol_spread = float(np.max(np.abs(phi_vals - phi_vals[0])))
    return CConditions(
        weight_modulus_constant=(u_spread <= tol and u_min > tol),
        symbol_inner=inner_defect <= tol,
        symbol_nonconstant=symbol_spread > tol,
        detail={"weight_spread": u_spread, "weight_min_modulus": u_min,
                "inner_defect": inner_defect, "symbol_spread": symbol_spread,
                "samples": samples, "tol": tol},
    )


@dataclass(frozen=True)
class SearchLadder:
    """Deterministic test-function family: Blaschke products with zeros drawn
    (with repetition, up to max_depth factors) from {0} and +/- radii, plus
    pure monomials up to degree max_monomial.

    test_functions() is the one definition of the family, its order and its
    size.  disk_norm_lower_bound walks it depth first over shared zero
    prefixes, one complex multiply by a once-formed factor per evaluated
    function, skips every subtree whose certified cap stays below the best
    value so far, and still reports the first maximiser in test_functions()
    order; blaschke_eval on each member is the reference route the walk is
    tested against.

    Every member has phase 0: the searched operators are linear, so a
    unimodular prefactor never changes the sampled modulus.
    """

    radii: tuple[float, ...] = (0.9, 0.99, 0.999)
    max_depth: int = 3
    max_monomial: int = 16
    samples: int = 4096

    def __post_init__(self) -> None:
        # hashable, so the ladder can key _ladder_tree's memo
        object.__setattr__(self, "radii", tuple(self.radii))

    def zero_pool(self) -> list[float]:
        pool = {0.0}
        for r in self.radii:
            if not (0.0 < r < 1.0):
                raise ValueError(f"radii must lie in (0, 1), got {r!r}")
            pool.add(r)
            pool.add(-r)
        return sorted(pool)

    def test_functions(self):
        """Yield (description, BlaschkeProduct) in a fixed lexicographic
        order; every product has leading constant 1."""
        pool = self.zero_pool()
        for depth in range(self.max_depth + 1):
            for zeros in itertools.combinations_with_replacement(pool, depth):
                yield ({"kind": "blaschke", "zeros": list(zeros), "phase": 0.0},
                       BlaschkeProduct(zeros=tuple(complex(a) for a in zeros)))
        for degree in range(self.max_depth + 1, self.max_monomial + 1):
            yield ({"kind": "monomial", "degree": degree, "phase": 0.0},
                   BlaschkeProduct(zeros=(0j,) * degree))


@functools.lru_cache(maxsize=8)
def _ladder_tree(ladder: SearchLadder) -> tuple[list, int, list[complex]]:
    """Prefix tree of the zero tuples of ladder.test_functions().

    A node is [ladder index, description, {zero: child}].  A prefix that is
    not itself a family member has index None, and a repeated tuple keeps
    its first index.  Also returns the family size and the distinct zeros
    in order of first use.

    Memoized per ladder (dataclass equality also compares the class, so a
    subclass with its own test_functions() gets its own tree).  Callers
    must not mutate the tree or hand out its descriptions.
    """
    root: list = [None, None, {}]
    zeros: dict[complex, None] = {}
    size = 0
    for size, (desc, f) in enumerate(ladder.test_functions(), start=1):
        node = root
        for a in f.zeros:
            children = node[2]
            if a not in children:
                children[a] = [None, None, {}]
                zeros.setdefault(a)
            node = children[a]
        if node[0] is None:
            node[0], node[1] = size - 1, desc
    return root, size, list(zeros)


def _factor(arr: np.ndarray, a: complex, den):
    """The factor (arr - a) / den at each point of arr, with
    den = 1 - conj(a) arr, as blaschke_eval forms it."""
    return (arr - a) / den


def _ladder_walk(root: list, zeros: list[complex], uz: np.ndarray, phiz: np.ndarray,
                 T: RankOneDiskOperator | None, gz: np.ndarray | None, scale: float
                 ) -> tuple[float, int, int, dict | None, int]:
    """Score the members of a _ladder_tree depth first over its shared zero
    prefixes: max_k |u(z_k) f(phi(z_k)) + c f(tau) g(z_k)|, without the
    second term when T is None.  Returns the best value, its ladder index,
    sample index and (shared, uncopied) description, and how many members
    were evaluated.

    A child is its parent times one factor, associated as blaschke_eval
    associates it (out * ((arr - a) / den), factors in tuple order), so
    every value is bit-identical to the per-function route; f(tau) rides
    along as a 0-d chain.  Each pool zero's factor at phiz is formed once,
    when the first scored member needs it, so a scored member costs one
    complex multiply per sample; its 0-d factor at tau, which each child's
    cap reads, is formed up front.  The closed-disk and pole checks run
    once per point array and pool zero, before any factor is formed, with
    blaschke_eval's messages.  Ties go to the smallest ladder index.

    Branch and bound: a factor has modulus at most 1 on the closed disk, so
    below a node |f(phi(z_k))| <= M, the least max_k |f(phi(z_k))| on the
    path to it (1 at the root), and |f(tau)| <= |f_node(tau)|.  Every
    member under a child therefore scores at most
    U M_parent + C |f_child(tau)|, with U = max|u(z_k)| and
    C = |c| max|g(z_k)|.  The child's subtree is skipped, its arrays never
    formed, when that cap plus twice the slack errors.at_most gives the
    ladder's rounding (scale = _ladder_scale(ladder, 1.0)) is strictly
    below the best so far.  A skipped member can then neither win nor tie,
    so the result is that of the full walk; a NaN cap never skips.

    Memory: the walk allocates nothing per member.  Each pool zero holds
    one array at phiz, its den until the factor is formed in its place.  A
    node's f goes into the one buffer of its depth, which the next node of
    that depth overwrites only after the node's whole subtree has been
    walked (the stack pops depth first); the scores, the c f(tau) g term
    and the moduli reuse one buffer each, through the same operations in
    the same order, so every value stays bit-identical.
    """
    points = [phiz] if T is None else [phiz, np.asarray(complex(T.tau), dtype=complex)]
    for arr in points:
        if arr.size and float(np.max(np.abs(arr))) > 1.0 + BOUNDARY_SLACK:
            raise ValueError("evaluation point outside the closed unit disk")
    factors = {}
    for a in zeros:
        factors[a] = []
        for arr in points:
            den = 1.0 - np.conj(a) * arr
            if arr.size and float(np.min(np.abs(den))) < 1e-300:
                raise ValueError(f"evaluation too close to the pole of the {a!r} factor")
            factors[a].append(den)
    if T is not None:  # 0-d, so forming them up front costs next to nothing
        for a in zeros:
            factors[a][1] = _factor(points[1], a, factors[a][1])
    formed = set()  # pool zeros whose factor at phiz replaced its den
    u_sup = float(np.max(np.abs(uz)))
    t_sup = 0.0 if T is None else abs(T.c) * float(np.max(np.abs(gz)))

    best, best_index, best_k, best_desc, evaluated = -1.0, -1, 0, None, 0
    values = [np.full(arr.shape, 1 + 0j) for arr in points]
    f_at = [values[0]]  # f's buffer at each depth (see Memory above)
    scores, term = np.empty_like(values[0]), np.empty_like(values[0])
    moduli = np.empty(phiz.shape)
    stack = [(root, values, 1.0, None, 0)]
    while stack:
        node, values, f_sup, a, depth = stack.pop()
        if a is not None:
            cap = u_sup * f_sup
            if T is not None:
                f_tau = values[1] * factors[a][1]
                cap += t_sup * abs(complex(f_tau))
            # at best = inf a skipped member could still tie
            if cap + 2.0 * REL_TOL * max(1.0, scale * cap) < best < math.inf:
                continue
            if depth == len(f_at):
                f_at.append(np.empty_like(values[0]))
            if a not in formed:
                formed.add(a)
                factors[a][0] = _factor(phiz, a, factors[a][0])
            f = np.multiply(values[0], factors[a][0], out=f_at[depth])
            values = [f] if T is None else [f, f_tau]
        index, desc, children = node
        if index is not None:
            evaluated += 1
            np.multiply(uz, values[0], out=scores)
            if T is not None:
                scores += np.multiply(T.c * complex(values[1]), gz, out=term)
            np.abs(scores, out=moduli)
            k = int(np.argmax(moduli))
            value = float(moduli[k])
            if value > best or (value == best and index < best_index):
                best, best_index, best_k, best_desc = value, index, k, desc
        if children:
            f_sup = min(f_sup, float(np.max(np.abs(values[0], out=moduli))))
            stack.extend((child, values, f_sup, b, depth + 1)
                         for b, child in reversed(children.items()))
    return best, best_index, best_k, best_desc, evaluated


def _ladder_scale(ladder: SearchLadder, bound: float) -> float:
    """errors.at_most's scale for a ladder value against bound: a zero at
    radius r magnifies the rounding of |phi(z)| = 1 +- eps by up to
    (1 + r)/(1 - r) per factor, so allow 8 ulps of max_depth such factors
    (or of max_monomial), never less than REL_TOL * max(1, bound)."""
    r = max(abs(a) for a in ladder.zero_pool())
    growth = max(ladder.max_depth * (1.0 + r) / (1.0 - r), float(ladder.max_monomial))
    return bound * max(1.0, 8.0 * float(np.finfo(float).eps) * growth / REL_TOL)


@dataclass(frozen=True)
class LowerBoundResult:
    bound: float
    witness: dict       # test function description + attaining sample
    family_size: int
    samples: int
    evaluated: int      # members whose sample values were computed


def disk_norm_lower_bound(u: DiskFunction, phi: DiskFunction,
                          T: RankOneDiskOperator | None = None,
                          ladder: SearchLadder = SearchLadder()) -> LowerBoundResult:
    """Certified lower bound for ||uC_phi + T|| on the disk algebra.

    Every ladder function has sup norm at most 1 and every sample point sits
    on the boundary, so each evaluated |u(z) f(phi(z)) + (Tf)(z)| is a true
    lower bound; the result is their maximum, with the first witness in
    ladder order.  Requires phi to map into the closed disk.

    _ladder_walk evaluates the ladder depth first over shared zero
    prefixes, one complex multiply per sample for each evaluated test
    function on top of its parent (each factor is formed once per call),
    and skips every subtree whose certified cap cannot reach the best value
    so far.  Values are bit-identical to blaschke_eval per function (the
    reference route), and ties go to the smallest test_functions() index,
    so bound and witness depend neither on the walk order nor on what was
    skipped.
    family_size counts the whole ladder, evaluated only what was scored.
    """
    m = ladder.samples
    z = np.exp(2j * np.pi * np.arange(m) / m)
    uz = np.asarray(u(z))
    phiz = np.asarray(phi(z))
    modulus = np.abs(phiz)
    overflow = float(np.max(modulus)) - 1.0
    if overflow > 1e-9:
        raise ValueError(
            f"symbol leaves the closed disk by {overflow:.3e}; "
            "test functions cannot be composed with it")
    phiz = np.divide(phiz, modulus, out=phiz.astype(complex), where=modulus > 1.0)
    gz = None if T is None else np.asarray(T.g(z))

    root, count, zeros = _ladder_tree(ladder)
    best, index, k, desc, evaluated = _ladder_walk(root, zeros, uz, phiz, T, gz,
                                                   _ladder_scale(ladder, 1.0))
    witness = {} if index < 0 else {**copy.deepcopy(desc), "sample_index": k,
                                    "z": complex(z[k])}
    u_sup = u.sup_norm(m)[0]
    t_norm = T.norm(m)[0] if T is not None else 0.0
    at_most(best, u_sup + t_norm,
            f"lower bound {best!r} exceeds the triangle bound {u_sup + t_norm!r}",
            scale=_ladder_scale(ladder, u_sup + t_norm))
    return LowerBoundResult(bound=best, witness=witness, family_size=count,
                            samples=m, evaluated=evaluated)


# ---------------------------------------------------------------------------
# the boundary counterexample and its certified bound
# ---------------------------------------------------------------------------

def disk_counterexample_operator(u: DiskFunction, phi: DiskFunction,
                                 omega: complex) -> RankOneDiskOperator:
    """The canonical rank-one perturbation at a boundary point omega:
    T f = u(omega) f(phi(omega)) g with g = (1 + conj(omega) z)/2.

    Needs phi(omega) strictly inside the disk and u(omega) nonzero; then
    ||T|| = |u(omega)| exactly.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > UNIMODULAR_TOL:
        raise ValueError(f"omega must be on the circle, |omega| = {abs(omega)!r}")
    tau = complex(phi(omega))
    if abs(tau) >= 1.0:
        raise ValueError(
            f"phi(omega) = {tau!r} is not strictly inside the disk")
    c = complex(u(omega))
    if c == 0:
        raise ValueError("u vanishes at omega; the construction needs u(omega) != 0")
    return RankOneDiskOperator(tau=tau, g=DiskFunction.half_plus(omega), c=c)


@dataclass(frozen=True)
class CertifiedBound:
    bound: float        # certified upper bound for ||uC_phi - T||
    margin: float       # (sup|u| + ||T||) - bound; positive = additivity broken
    valid: bool         # all sampled arc conditions + the chain sanity bound
    on_arc: float       # difference-chain bound A near omega
    off_arc: float      # triangle bound B away from omega
    delta: float        # sup of |g| off the arc (closed form cos(half_angle/2))
    operator: RankOneDiskOperator
    detail: dict


def certified_counterexample_bound(u: DiskFunction, phi: DiskFunction,
                                   omega: complex, epsilon: float,
                                   arc: ArcNeighborhood,
                                   samples: int = 4096) -> CertifiedBound:
    """Two-arc certified upper bound for ||uC_phi - T||, T the canonical
    rank-one perturbation at omega.

    Near omega (on the arc, verified on samples): for any f with sup|f| <= 1,
    |u(z) f(phi(z)) - u(omega) f(phi(omega)) g(z)| chains through three
    increments -- a Cauchy-type bound sup|u| epsilon / (1 - (r+epsilon))^2
    for moving phi(z) to phi(omega) inside radius r + epsilon, epsilon for
    moving u(z) to u(omega), and |u(omega)| |1 - g(z)| <= |u(omega)|/2 for
    discounting g.  Off the arc, |g| <= delta = cos(half_angle/2) caps the
    subtracted term, giving sup|u| + |u(omega)| delta.

    The reported bound max(on_arc, off_arc) is certified whenever `valid`;
    a positive margin then witnesses ||uC_phi + (-T)|| < sup|u| + ||-T||.
    """
    omega = complex(omega)
    if abs(complex(arc.omega) - omega) > 1e-12:
        raise ValueError("arc must be centered at omega")
    T = disk_counterexample_operator(u, phi, omega)
    r = abs(T.tau)
    u_omega = abs(T.c)
    if not (0.0 < epsilon < min(1.0 - r, u_omega / 3.0)):
        raise ValueError(
            f"epsilon must lie in (0, min(1 - {r!r}, {u_omega!r}/3)), got {epsilon}")

    u_sup, u_sup_exact = u.sup_norm(samples)

    z_arc = arc.samples(samples)
    g_arc = np.asarray(T.g(z_arc))
    phi_arc = np.asarray(phi(z_arc))
    u_arc = np.asarray(u(z_arc))
    phi_increment = float(np.max(np.abs(phi_arc - T.tau)))
    g_defect = float(np.max(np.abs(1.0 - g_arc)))
    u_increment = float(np.max(np.abs(u_arc - T.c)))
    arc_ok = (phi_increment <= epsilon and g_defect < 0.5
              and u_increment < epsilon)

    on_arc = (u_sup * epsilon / (1.0 - (r + epsilon)) ** 2
              + epsilon + u_omega / 2.0)
    chain_cap = u_sup + (5.0 / 6.0) * u_omega
    chain_ok = on_arc <= chain_cap + 1e-12

    delta = math.cos(arc.half_angle / 2.0)
    z_off = arc.complement_samples(samples)
    sampled_delta = float(np.max(np.abs(np.asarray(T.g(z_off)))))
    at_most(sampled_delta, delta,
            f"sampled off-arc sup {sampled_delta!r} exceeds the closed form {delta!r}")
    off_arc = u_sup + u_omega * delta

    bound = max(on_arc, off_arc)
    margin = (u_sup + u_omega) - bound
    return CertifiedBound(
        bound=bound, margin=margin, valid=arc_ok and chain_ok,
        on_arc=on_arc, off_arc=off_arc, delta=delta, operator=T,
        detail={"phi_increment": phi_increment, "g_defect": g_defect,
                "u_increment": u_increment, "chain_ok": chain_ok,
                "chain_cap": chain_cap, "r": r, "epsilon": epsilon,
                "u_omega": u_omega, "u_sup": u_sup,
                "u_sup_exact": u_sup_exact, "sampled_delta": sampled_delta,
                "half_angle": arc.half_angle, "samples": samples,
                "exhibited": "uC_phi - T"},
    )


@dataclass(frozen=True)
class AutomorphismResult:
    lower: float     # certified lower bound for ||C_phi + T||
    target: float    # 1 + ||T||
    deficit: float   # target - lower, >= 0
    witness: dict


def automorphism_identity_check(phi: BlaschkeProduct,
                                T: RankOneDiskOperator,
                                ladder: SearchLadder = SearchLadder()) -> AutomorphismResult:
    """For a disk automorphism phi, ||C_phi + T|| = 1 + ||T|| exactly; the
    ladder search certifies the identity from below.  phi must be a single
    Blaschke factor (times a unimodular constant)."""
    if phi.degree != 1:
        raise ValueError(
            f"automorphisms are degree-1 Blaschke products, got degree {phi.degree}")
    res = disk_norm_lower_bound(DiskFunction.constant(1 + 0j),
                                DiskFunction.blaschke_multiple(phi), T, ladder)
    t_norm, _ = T.norm(ladder.samples)
    target = 1.0 + t_norm
    at_most(res.bound, target,
            f"lower bound {res.bound!r} exceeds the exact norm {target!r}",
            scale=_ladder_scale(ladder, target))
    deficit = target - res.bound
    return AutomorphismResult(lower=res.bound, target=target, deficit=deficit,
                              witness=res.witness)
