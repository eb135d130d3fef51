"""Boundary-value model for weighted compositions of analytic disk functions.

Functions analytic on the unit disk and continuous up to the boundary peak
their modulus on the circle, so norms here are suprema over dense circle
samples; Blaschke products supply the inner symbols and the test-function
ladder.  Exact analytic values are used wherever a closed form exists
(inner parts have modulus 1, an affine a + b z has sup |a| + |b|), sampled
suprema elsewhere, and every result records which one it got.  A ladder's
radii and counts are checked when it is made; one function holds each
Blaschke guard, and one the rule that omega lies on the circle.

The arithmetic rule of circle.py holds here too: every product behind a
reported value is taken with circle.cmul and every modulus with
circle.modulus.  DiskFunction and blaschke_eval evaluate that way, on the
one m-point boundary grid (_boundary) of the block.  The one exception is
the ladder walk, a search in numpy's native complex multiply and np.abs:
it only finds the (member, sample) pairs near its best score, and
_rescore re-forms those in portable arithmetic, bit for bit as
blaschke_eval forms them, so no reported bound or witness depends on the
SIMD kernels numpy picks for the CPU.  The ladder's prefix tree
(_ladder_tree) is the one record of the family's shared zero prefixes:
the walk hands the re-score tree nodes, and the re-score descends the
same tree to them.  A search without an operator runs the zero operator.

Two one-sided tools replace the circle model's exact norms:

* disk_norm_lower_bound certifies ||uC_phi + T|| from below by evaluating
  the operator on a deterministic ladder of sup-norm-1 test functions.
* certified_counterexample_bound certifies ||uC_phi - T|| from above, for
  the canonical rank-one T built at the arc's center omega, by a two-arc
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

from .circle import _frozen, cmul, memoized, modulus
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


def _on_circle(omega) -> None:
    """The rule on a boundary point omega (an arc's center, the peak of
    half_plus, the counterexample's point): |omega| = 1."""
    if abs(abs(omega) - 1.0) > UNIMODULAR_TOL:
        raise ValueError(f"omega must be on the circle, |omega| = {abs(omega)!r}")


def _boundary(m: int) -> np.ndarray:
    """The m sample points exp(2 pi i k/m) of the circle (read-only), made
    once per shared_compilation() block."""
    return memoized("boundary", m, (),
                    lambda: _frozen(np.exp(2j * np.pi * np.arange(m) / m)))


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


def _in_closed_disk(arr: np.ndarray) -> None:
    """The closed-disk guard of every Blaschke evaluation: rejects a point
    array with |z| > 1 (beyond BOUNDARY_SLACK)."""
    if arr.size and float(np.max(np.abs(arr))) > 1.0 + BOUNDARY_SLACK:
        raise ValueError("evaluation point outside the closed unit disk")


def _denominator(arr: np.ndarray, a: complex, mul) -> np.ndarray:
    """1 - conj(a) arr, the denominator of the a factor at each point of
    arr, multiplied with mul; the pole guard of every Blaschke evaluation
    rejects one that vanishes."""
    den = 1.0 - mul(complex(a).conjugate(), arr)
    if arr.size and float(np.min(np.abs(den))) < 1e-300:
        raise ValueError(f"evaluation too close to the pole of the {a!r} factor")
    return den


def _factor(arr: np.ndarray, a: complex, den):
    """The factor (arr - a) / den at each point of arr, with
    den = _denominator(arr, a, mul)."""
    return (arr - a) / den


def _blaschke(B: BlaschkeProduct, arr: np.ndarray, mul) -> np.ndarray:
    """B at each point of the complex ndarray arr, every product taken with
    mul: factor by factor in tuple order, each factor (z - a) / (1 - conj(a) z)
    divided out before it multiplies the product so far."""
    _in_closed_disk(arr)
    out = np.full(arr.shape, B.unimodular_constant, dtype=complex)
    for a in B.zeros:
        out = mul(out, _factor(arr, a, _denominator(arr, a, mul)))
    return out


def blaschke_eval(B: BlaschkeProduct, z):
    """Evaluate on the closed disk (scalar or ndarray), in portable
    arithmetic (circle.cmul); rejects |z| > 1."""
    arr = np.asarray(z, dtype=complex)
    out = _blaschke(B, arr, cmul)
    return complex(out) if arr.shape == () else out


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
        _on_circle(omega)
        return cls.polynomial([0.5, 0.5 * complex(omega).conjugate()])

    @classmethod
    def blaschke_multiple(cls, blaschke: BlaschkeProduct,
                          scale: complex = 1 + 0j) -> "DiskFunction":
        return cls(kind="blaschke", blaschke=blaschke, scale=complex(scale))

    def __call__(self, z):
        """Evaluate (scalar or ndarray) in portable arithmetic (circle.cmul)."""
        arr = np.asarray(z, dtype=complex)
        out = self._at(arr, cmul)
        return complex(out) if arr.shape == () else out

    def _at(self, arr: np.ndarray, mul) -> np.ndarray:
        """The values at each point of the complex ndarray arr, every product
        taken with mul: the one formula of each kind."""
        if self.kind == "constant":
            return np.full(arr.shape, self.value, dtype=complex)
        if self.kind == "polynomial":
            out = np.full(arr.shape, self.coeffs[-1], dtype=complex)
            # Horner; inf or nan where its sums overflow, reported as not finite
            with np.errstate(over="ignore", invalid="ignore"):
                for c in self.coeffs[-2::-1]:
                    out = mul(out, arr) + c
            return out
        if self.kind == "blaschke":
            return mul(self.scale, _blaschke(self.blaschke, arr, mul))
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
        return float(np.max(modulus(self(_boundary(samples))))), False


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
        _on_circle(self.omega)
        if not (0.0 < self.half_angle < math.pi):
            raise ValueError(f"half_angle must lie in (0, pi), got {self.half_angle}")

    def samples(self, m: int) -> np.ndarray:
        thetas = np.linspace(-self.half_angle, self.half_angle, m)
        return cmul(self.omega, np.exp(1j * thetas))

    def complement_samples(self, m: int) -> np.ndarray:
        thetas = np.linspace(self.half_angle, 2.0 * math.pi - self.half_angle,
                             m + 2)[1:-1]
        return cmul(self.omega, np.exp(1j * thetas))


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
    z = _boundary(samples)
    u_mod = modulus(u(z))
    phi_vals = phi(z)
    # inf or nan where u or phi overflows: the record reports it as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        u_spread = float(u_mod.max() - u_mod.min())
        symbol_spread = float(np.max(modulus(phi_vals - phi_vals[0])))
    u_min = float(u_mod.min())
    inner_defect = float(np.max(np.fabs(modulus(phi_vals) - 1.0)))
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
    size; _ladder_tree records its zero tuples once, as a prefix tree.
    disk_norm_lower_bound searches that tree depth first in native
    arithmetic, one complex multiply by a once-formed factor per evaluated
    function, skips every subtree whose certified cap stays below the best
    value so far, and re-scores the members it found near the best by
    descending the same tree in portable arithmetic.  It reports the first
    maximiser in test_functions() order of the portable per-function route
    (blaschke_eval on each member, products through cmul, moduli through
    modulus), the reference route the walk is tested against.

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
        for r in self.radii:
            if not (0.0 < r < 1.0):
                raise ValueError(f"radii must lie in (0, 1), got {r!r}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be at least 0, got {self.max_depth!r}")
        if self.max_monomial < 0:
            raise ValueError(f"max_monomial must be at least 0, got {self.max_monomial!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples!r}")

    def zero_pool(self) -> list[float]:
        return sorted({0.0, *self.radii, *(-r for r in self.radii)})

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
    """Prefix tree of the zero tuples of ladder.test_functions(): the one
    record of the family's shared prefixes, which the walk and the
    re-score both descend.

    A node is [ladder index, description, {zero: child}, parent], the
    root's parent None.  A prefix that is not itself a family member has
    index None, and a repeated tuple keeps its first index.  Also returns
    the family size and the distinct zeros in order of first use.

    Memoized per ladder (dataclass equality also compares the class, so a
    subclass with its own test_functions() gets its own tree).  Callers
    must not mutate the tree or hand out its descriptions.
    """
    root: list = [None, None, {}, None]
    zeros: dict[complex, None] = {}
    size = 0
    for size, (desc, f) in enumerate(ladder.test_functions(), start=1):
        node = root
        for a in f.zeros:
            children = node[2]
            if a not in children:
                children[a] = [None, None, {}, node]
                zeros.setdefault(a)
            node = children[a]
        if node[0] is None:
            node[0], node[1] = size - 1, desc
    return root, size, list(zeros)


def _slack(x: float, scale: float) -> float:
    """Twice the slack errors.at_most gives the ladder's rounding at x
    (scale = _ladder_scale(ladder, 1.0)).  Native and portable arithmetic
    each round a score within half of it of its exact value, so where
    y > x + _slack(x), a score computed as x lies below one computed as y
    in either arithmetic; otherwise x reaches y.  The slack grows with x,
    so every score that reaches y lies within y's own slack of it."""
    return 2.0 * REL_TOL * max(1.0, scale * x)


def _ladder_walk(root: list, zeros: list[complex], uz: np.ndarray, phiz: np.ndarray,
                 T: RankOneDiskOperator, gz: np.ndarray, scale: float
                 ) -> tuple[list, np.ndarray, int]:
    """Search the members of a _ladder_tree depth first over its shared
    zero prefixes, in native numpy arithmetic: each scores
    max_k |u(z_k) f(phi(z_k)) + c f(tau) g(z_k)|.  The search only finds
    where the best score lies; _rescore gives the reported value.  Returns

    * the members whose score reaches the best score (see _slack), as
      (tree node, score) in the walk's order, kept as they are scored and
      pruned once, against the final best;
    * a mask of the samples at which a member came within the best
      score's slack of the best so far when it was scored, cleared
      whenever the best rises out of reach of the previous best, the
      largest score kept so far: a superset of the samples at which each
      member returned reaches the final best;
    * how many members were scored.

    A member and sample whose portable score is the portable maximum has a
    native score that reaches the best, whatever kernels numpy picks for
    the search, so both are in what the walk returns.

    A child is its parent times one factor (arr - a) / den, factors in
    tuple order; f(tau) rides along as a 0-d chain.  Each pool zero's
    factor at phiz is formed once, when the first scored member needs it,
    so a scored member costs one complex multiply per sample; its 0-d
    factor at tau, which each child's cap reads, is formed up front.
    blaschke_eval's closed-disk and pole guards run once per point array
    and pool zero, before any factor is formed.

    Branch and bound: a factor has modulus at most 1 on the closed disk, so
    below a node |f(phi(z_k))| <= M, the least max_k |f(phi(z_k))| on the
    path to it (1 at the root), and |f(tau)| <= |f_node(tau)|.  Every
    member under a child therefore scores at most
    U M_parent + C |f_child(tau)|, with U = max|u(z_k)| and
    C = |c| max|g(z_k)|.  The child's subtree is skipped, its arrays never
    formed, when that cap plus its _slack is strictly below the best score
    so far.  A skipped member can then neither win nor tie, so the result
    is that of the full walk; a NaN cap never skips.

    Memory: the walk allocates no array and copies no zeros per member.
    Each pool zero holds one array at phiz, its den until the factor is
    formed in its place.  A node walked as its parent's last child writes
    its f into its parent's buffer, which nothing reads any more: the stack
    pops depth first, so the parent's other children and their subtrees
    have been walked.  Only other children take the one buffer of their
    depth, which the next such node of that depth overwrites after the
    node's subtree has been walked.  A chain of only children, such as the
    monomials, thus writes into one buffer, and the walk holds at most one
    buffer per depth up to max_depth, whatever max_monomial.  The scores,
    the c f(tau) g term and the moduli reuse one buffer each.
    """
    points = [phiz, np.asarray(complex(T.tau), dtype=complex)]
    for arr in points:
        _in_closed_disk(arr)
    factors = {a: [_denominator(arr, a, np.multiply) for arr in points] for a in zeros}
    for a in zeros:  # 0-d, so forming them up front costs next to nothing
        factors[a][1] = _factor(points[1], a, factors[a][1])
    formed = set()  # pool zeros whose factor at phiz replaced its den
    u_sup = float(np.max(np.abs(uz)))
    t_sup = abs(T.c) * float(np.max(np.abs(gz)))

    best, near, evaluated = -1.0, [], 0  # the best score so far, the members near it
    mask = np.zeros(phiz.shape, dtype=bool)
    f_at = {}  # the buffer of each depth (see Memory above)
    scores, term = np.empty_like(phiz), np.empty_like(phiz)
    moduli = np.empty(phiz.shape)
    stack = [(root, np.full(phiz.shape, 1 + 0j), np.full((), 1 + 0j), 1.0, None, 0, True)]
    while stack:
        node, f, f_tau, f_sup, a, depth, last = stack.pop()
        if a is not None:
            f_tau = f_tau * factors[a][1]
            cap = u_sup * f_sup + t_sup * abs(complex(f_tau))
            # at best = inf a skipped member could still tie
            if cap + _slack(cap, scale) < best < math.inf:
                continue
            if a not in formed:
                formed.add(a)
                factors[a][0] = _factor(phiz, a, factors[a][0])
            if not last and depth not in f_at:
                f_at[depth] = np.empty_like(f)
            f = np.multiply(f, factors[a][0], out=f if last else f_at[depth])
        index, _, children, _ = node
        if index is not None:
            evaluated += 1
            # an inf score, or a nan from an inf weight, is reported as not finite
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(uz, f, out=scores)
                scores += np.multiply(T.c * complex(f_tau), gz, out=term)
                value = float(np.max(np.abs(scores, out=moduli)))  # nan if any sample is
            if value > best:
                if best + _slack(best, scale) < value:  # no sample kept so far is needed
                    mask[:] = False
                best = value
            if value + _slack(value, scale) >= best:
                near.append((node, value))
                # every sample that reaches the best, and a few that come
                # within the best's slack without reaching it
                mask |= moduli + _slack(best, scale) >= best
        if children:
            f_sup = min(f_sup, float(np.max(np.abs(f, out=moduli))))
            stack.extend((child, f, f_tau, f_sup, b, depth + 1, i == 0)
                         for i, (b, child) in enumerate(reversed(children.items())))
    return [m for m in near if m[1] + _slack(m[1], scale) >= best], mask, evaluated


def _rescore(root: list, near: list, ks: np.ndarray, z: np.ndarray, u: DiskFunction,
             phi: DiskFunction, T: RankOneDiskOperator) -> tuple[float, int, int, dict | None]:
    """The first maximum of |u(z_k) f(phi(z_k)) + c f(tau) g(z_k)| over the
    members near (as _ladder_walk returns them) in test_functions() order,
    then over the samples ks in order, in portable arithmetic: its value
    (NaN when no member scores a number), ladder index, sample index and
    description.

    u, phi and g are evaluated at z[ks] and phi is projected as the walk
    projects it, through modulus.  The re-score descends root's tree depth
    first, through the near members and their ancestors only, and forms
    each node once, from its parent times one factor through cmul: as
    blaschke_eval forms a member, from 1 factor by factor in tuple order,
    so its values are bit-identical to blaschke_eval's.  A node's values
    are held only while a child of it is still to be walked, so a last
    child's values take its parent's place, and the re-score holds as many
    arrays of the re-scored samples as the walk holds buffers.
    """
    zk = z[ks]
    phik = phi(zk)
    phik, uk, gk = _onto_disk(phik, modulus(phik)), u(zk), T.g(zk)
    points = [phik, np.asarray(complex(T.tau), dtype=complex)]
    kept = {id(node): True for node, _ in near}  # to score; False: an ancestor only
    for node, _ in near:
        node = node[3]
        while node is not None and id(node) not in kept:
            kept[id(node)] = False
            node = node[3]
    factors: dict[complex, list] = {}
    top, top_index, top_k, top_desc = -1.0, -1, 0, None
    stack = [(root, [np.full(arr.shape, 1 + 0j) for arr in points], None)] if near else []
    while stack:
        node, values, a = stack.pop()
        if a is not None:
            if a not in factors:
                factors[a] = [_factor(arr, a, _denominator(arr, a, cmul)) for arr in points]
            values = [cmul(f, factor) for f, factor in zip(values, factors[a])]
        index, desc, children, _ = node
        if kept[id(node)]:
            # an inf score, or a nan from an inf weight, is reported as not finite
            with np.errstate(over="ignore", invalid="ignore"):
                scores = cmul(uk, values[0])
                scores += cmul(T.c * complex(values[1]), gk)
            moduli = modulus(scores)
            j = int(np.argmax(moduli))
            if moduli[j] > top or (moduli[j] == top and index < top_index):
                top, top_index, top_k, top_desc = float(moduli[j]), index, int(ks[j]), desc
        stack.extend((child, values, b) for b, child in reversed(children.items())
                     if id(child) in kept)
    if top_index < 0:  # no member scored a number
        top = math.nan
    return top, top_index, top_k, top_desc


def _ladder_scale(ladder: SearchLadder, bound: float) -> float:
    """errors.at_most's scale for a ladder value against bound: a zero at
    radius r magnifies the rounding of |phi(z)| = 1 +- eps by up to
    (1 + r)/(1 - r) per factor, so allow 8 ulps of max_depth such factors
    (or of max_monomial), never less than REL_TOL * max(1, bound)."""
    r = max(abs(a) for a in ladder.zero_pool())
    growth = max(ladder.max_depth * (1.0 + r) / (1.0 - r), float(ladder.max_monomial))
    return bound * max(1.0, 8.0 * float(np.finfo(float).eps) * growth / REL_TOL)


def _onto_disk(values: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """A copy of values with each value whose modulus (in moduli) is above
    1 divided by it, onto the circle."""
    return np.divide(values, moduli, out=values.astype(complex), where=moduli > 1.0)


@dataclass(frozen=True)
class LowerBoundResult:
    bound: float
    witness: dict       # test function description + attaining sample
    family_size: int
    samples: int
    evaluated: int      # members whose sample values were computed


#: The operator disk_norm_lower_bound searches with when it is given none:
#: T = 0, whose term adds a zero to every score and whose norm is 0.
_ZERO_OPERATOR = RankOneDiskOperator(tau=0j, g=DiskFunction.constant(0j), c=0j)


def disk_norm_lower_bound(u: DiskFunction, phi: DiskFunction,
                          T: RankOneDiskOperator | None = None,
                          ladder: SearchLadder = SearchLadder()) -> LowerBoundResult:
    """Certified lower bound for ||uC_phi + T|| on the disk algebra (T = None
    is the zero operator).

    Every ladder function has sup norm at most 1 and every sample point sits
    on the boundary, so each evaluated |u(z) f(phi(z)) + (Tf)(z)| is a true
    lower bound; the result is their maximum, with the first witness in
    ladder order.  Requires phi to map into the closed disk.

    _ladder_walk searches the ladder's prefix tree in native numpy
    arithmetic, depth first, one complex multiply per sample for each
    evaluated test function on top of its parent (each factor is formed
    once per call), and skips every subtree whose certified cap cannot
    reach the best value so far.  _rescore then descends the same tree to
    the members the walk found near the best and re-forms them, at the
    samples where they came near, in portable arithmetic (products through
    cmul, moduli through modulus), and ties go to the smallest
    test_functions() index, so bound and witness are those of the portable
    per-function route and depend neither on the walk order, nor on what
    was skipped, nor on numpy's SIMD kernels.
    family_size counts the whole ladder, evaluated only what was scored.
    """
    if T is None:
        T = _ZERO_OPERATOR
    m = ladder.samples
    z = _boundary(m)
    phiz = phi._at(z, np.multiply)
    moduli = np.abs(phiz)
    overflow = float(np.max(moduli)) - 1.0
    if overflow > 1e-9:
        raise ValueError(
            f"symbol leaves the closed disk by {overflow:.3e}; "
            "test functions cannot be composed with it")
    uz = u._at(z, np.multiply)
    root, count, zeros = _ladder_tree(ladder)
    near, mask, evaluated = _ladder_walk(root, zeros, uz, _onto_disk(phiz, moduli), T,
                                         T.g._at(z, np.multiply), _ladder_scale(ladder, 1.0))
    best, index, k, desc = _rescore(root, near, np.flatnonzero(mask), z, u, phi, T)
    witness = {} if index < 0 else {**copy.deepcopy(desc), "sample_index": k,
                                    "z": complex(z[k])}
    triangle = u.sup_norm(m)[0] + T.norm(m)[0]
    at_most(best, triangle, f"lower bound {best!r} exceeds the triangle bound {triangle!r}",
            scale=_ladder_scale(ladder, triangle))
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
    _on_circle(omega)
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
                                   epsilon: float, arc: ArcNeighborhood,
                                   samples: int = 4096) -> CertifiedBound:
    """Two-arc certified upper bound for ||uC_phi - T||, T the canonical
    rank-one perturbation at the arc's center omega.

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
    T = disk_counterexample_operator(u, phi, arc.omega)
    r = abs(T.tau)
    u_omega = abs(T.c)
    if not (0.0 < epsilon < min(1.0 - r, u_omega / 3.0)):
        raise ValueError(
            f"epsilon must lie in (0, min(1 - {r!r}, {u_omega!r}/3)), got {epsilon}")

    u_sup, u_sup_exact = u.sup_norm(samples)

    z_arc = arc.samples(samples)
    # inf or nan where u or phi overflows: the record reports it as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        phi_increment = float(np.max(modulus(phi(z_arc) - T.tau)))
        u_increment = float(np.max(modulus(u(z_arc) - T.c)))
    g_defect = float(np.max(modulus(1.0 - T.g(z_arc))))
    arc_ok = (phi_increment <= epsilon and g_defect < 0.5
              and u_increment < epsilon)

    on_arc = (u_sup * epsilon / (1.0 - (r + epsilon)) ** 2
              + epsilon + u_omega / 2.0)
    chain_cap = u_sup + (5.0 / 6.0) * u_omega
    chain_ok = on_arc <= chain_cap + 1e-12

    delta = math.cos(arc.half_angle / 2.0)
    z_off = arc.complement_samples(samples)
    sampled_delta = float(np.max(modulus(T.g(z_off))))
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
