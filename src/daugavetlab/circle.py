"""Discretized circle model: grids, arcs, scalar fields and self-maps.

The underlying compact space is the unit circle parameterized by [0, 1)
with the wraparound metric d(a, b) = min(|a - b|, 1 - |a - b|).  Grid mode
works on the n equispaced points k/n represented as exact rationals, so
symbol evaluation (rotations by rational shifts, angle doubling, arc
membership) never rounds.  Continuous mode uses floats; point equality is
then decided at the fixed matching tolerance ETA.

Topological notions that make no sense on a finite set are rendered at a
resolution: a preimage is "nowhere dense at resolution delta" when every
closed arc of length delta contains a grid point mapped elsewhere.
Continuity of symbols is never enforced; ``symbol_max_jump`` reports the
largest jump between adjacent grid points as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Coordinate = Union[Fraction, float]

#: Point-matching tolerance for continuous (float) coordinates.
ETA = 1e-9

TWO_PI = 2.0 * math.pi


def frac_mod1(x: Coordinate) -> Coordinate:
    """Reduce a coordinate into [0, 1), exactly for rationals."""
    r = x % 1
    # float modulo can land on 1.0 when x is a hair below an integer
    if not isinstance(r, Fraction) and r >= 1.0:
        r = 0.0
    return r


def circle_distance(a: Coordinate, b: Coordinate) -> Coordinate:
    """Wraparound distance on [0, 1); exact when both inputs are rational."""
    d = abs(a - b)
    return min(d, 1 - d)


def points_equal(a: Coordinate, b: Coordinate) -> bool:
    """Exact comparison for rational pairs, ETA-matching otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return circle_distance(float(a), float(b)) <= ETA


@dataclass(frozen=True)
class GridCircle:
    """The n-point equispaced grid {k/n : 0 <= k < n} on the circle."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 points, got n={self.n}")

    def points(self) -> list[Fraction]:
        return [Fraction(k, self.n) for k in range(self.n)]

    def coord(self, k: int) -> Fraction:
        return Fraction(k % self.n, self.n)

    def index_of(self, p: Coordinate) -> int:
        """Grid index of an on-grid coordinate; rejects off-grid points."""
        q = Fraction(p) if not isinstance(p, Fraction) else p
        scaled = q * self.n
        if scaled.denominator != 1:
            raise ValueError(f"{p!r} is not a grid point of the {self.n}-point grid")
        return scaled.numerator % self.n

    def contains(self, p: Coordinate) -> bool:
        try:
            self.index_of(p)
        except ValueError:
            return False
        return True


@dataclass(frozen=True)
class Arc:
    """Closed arc {s : d(s, center) <= half_width}, half_width in (0, 1/2]."""

    center: Coordinate
    half_width: Coordinate

    def __post_init__(self) -> None:
        if not (0 < self.half_width <= Fraction(1, 2)):
            raise ValueError(f"arc half_width must lie in (0, 1/2], got {self.half_width}")

    @property
    def length(self) -> Coordinate:
        return 2 * self.half_width

    def contains(self, p: Coordinate) -> bool:
        return circle_distance(p, self.center) <= self.half_width

    def grid_points(self, grid: GridCircle) -> list[Fraction]:
        return [p for p in grid.points() if self.contains(p)]


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Complex-valued function on the circle, closed-form or tabulated.

    Kinds:
      constant        u = value
      unimodular_exp  u(s) = value * exp(2*pi*i*winding*s), |u| = |value|
      cosine          u(s) = offset + amplitude * cos(2*pi*frequency*s)
      tent            u(s) = base + (peak-base) * max(0, 1 - d(s,center)/half_width)
      samples         tabulated on the n-point grid, defined only there
      product         pointwise product of the two factor fields

    Closed-form kinds evaluate at any coordinate, so one field object can be
    shared across grids of different resolution.
    """

    kind: str
    value: complex = 1 + 0j
    winding: int = 1
    amplitude: float = 1.0
    offset: float = 0.0
    frequency: int = 1
    center: Coordinate = Fraction(0)
    half_width: Coordinate = Fraction(1, 4)
    peak: float = 1.0
    base: float = 0.0
    samples: tuple[complex, ...] = ()
    n: int = 0
    factors: tuple["ScalarField", ...] = ()

    @classmethod
    def constant(cls, value: complex) -> "ScalarField":
        return cls(kind="constant", value=complex(value))

    @classmethod
    def unimodular_exp(cls, winding: int = 1, scale: complex = 1 + 0j) -> "ScalarField":
        return cls(kind="unimodular_exp", winding=int(winding), value=complex(scale))

    @classmethod
    def cosine(cls, amplitude: float = 1.0, offset: float = 0.0,
               frequency: int = 1) -> "ScalarField":
        return cls(kind="cosine", amplitude=float(amplitude), offset=float(offset),
                   frequency=int(frequency))

    @classmethod
    def tent(cls, center: Coordinate, half_width: Coordinate,
             peak: float = 1.0, base: float = 0.0) -> "ScalarField":
        if not (0 < half_width <= Fraction(1, 2)):
            raise ValueError(f"tent half_width must lie in (0, 1/2], got {half_width}")
        return cls(kind="tent", center=center, half_width=half_width,
                   peak=float(peak), base=float(base))

    @classmethod
    def tent_dip(cls, center: Coordinate, half_width: Coordinate,
                 depth: float, top: float = 1.0) -> "ScalarField":
        """Plateau at `top` dipping linearly to `top - depth` at `center`."""
        return cls.tent(center, half_width, peak=float(top) - float(depth),
                        base=float(top))

    @classmethod
    def from_samples(cls, values, n: int) -> "ScalarField":
        values = tuple(complex(v) for v in values)
        if len(values) != n:
            raise ValueError(f"sample table has {len(values)} entries for an n={n} grid")
        return cls(kind="samples", samples=values, n=n)

    @classmethod
    def product(cls, left: "ScalarField", right: "ScalarField") -> "ScalarField":
        return cls(kind="product", factors=(left, right))

    def __call__(self, s: Coordinate) -> complex:
        k = self.kind
        if k == "constant":
            return self.value
        if k == "unimodular_exp":
            theta = TWO_PI * self.winding * float(s)
            return self.value * complex(math.cos(theta), math.sin(theta))
        if k == "cosine":
            return complex(self.offset
                           + self.amplitude * math.cos(TWO_PI * self.frequency * float(s)))
        if k == "tent":
            ratio = circle_distance(s, self.center) / self.half_width
            bump = max(0.0, 1.0 - float(ratio))
            return complex(self.base + (self.peak - self.base) * bump)
        if k == "samples":
            idx = GridCircle(self.n).index_of(s)
            return self.samples[idx]
        if k == "product":
            left, right = self.factors
            return left(s) * right(s)
        raise ValueError(f"unknown field kind {k!r}")


def sup_norm(u: ScalarField, grid: GridCircle) -> float:
    """max |u| over the grid."""
    return max(abs(u(p)) for p in grid.points())


@dataclass(frozen=True)
class ModulusReport:
    constant: bool
    value: float      # max |u| over the grid
    spread: float     # max |u| - min |u|


def modulus_constancy(u: ScalarField, grid: GridCircle, tol: float = 1e-9) -> ModulusReport:
    """Check whether |u| is constant on the grid within tol."""
    mods = [abs(u(p)) for p in grid.points()]
    hi, lo = max(mods), min(mods)
    return ModulusReport(constant=(hi - lo) <= tol, value=hi, spread=hi - lo)


# ---------------------------------------------------------------------------
# symbols (self-maps of the circle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolMap:
    """Self-map of the circle.

    Kinds: identity, rotation (by `shift`), doubling (s -> 2s mod 1),
    constant_on_arc (maps the arc to `value`, the base symbol elsewhere;
    a full-circle arc makes the map globally constant), table (explicit
    grid-index map, defined only on its grid).
    """

    kind: str
    shift: Coordinate = Fraction(0)
    arc: Arc | None = None
    value: Coordinate | None = None
    base: "SymbolMap | None" = None
    table: tuple[int, ...] = ()
    n: int = 0

    @classmethod
    def identity(cls) -> "SymbolMap":
        return cls(kind="identity")

    @classmethod
    def rotation(cls, shift: Coordinate) -> "SymbolMap":
        return cls(kind="rotation", shift=frac_mod1(shift))

    @classmethod
    def doubling(cls) -> "SymbolMap":
        return cls(kind="doubling")

    @classmethod
    def constant_on_arc(cls, value: Coordinate, arc: Arc,
                        base: "SymbolMap | None" = None) -> "SymbolMap":
        return cls(kind="constant_on_arc", value=frac_mod1(value), arc=arc,
                   base=base if base is not None else cls.identity())

    @classmethod
    def from_table(cls, mapping, n: int) -> "SymbolMap":
        mapping = tuple(int(k) for k in mapping)
        if len(mapping) != n:
            raise ValueError(f"symbol table has {len(mapping)} entries for an n={n} grid")
        if any(not (0 <= k < n) for k in mapping):
            raise ValueError("symbol table entries must be grid indices in [0, n)")
        return cls(kind="table", table=mapping, n=n)

    def __call__(self, s: Coordinate) -> Coordinate:
        k = self.kind
        if k == "identity":
            r = frac_mod1(s)
        elif k == "rotation":
            r = frac_mod1(s + self.shift)
        elif k == "doubling":
            r = frac_mod1(2 * s)
        elif k == "constant_on_arc":
            r = self.value if self.arc.contains(s) else self.base(s)
        elif k == "table":
            r = Fraction(self.table[GridCircle(self.n).index_of(s)], self.n)
        else:
            raise ValueError(f"unknown symbol kind {k!r}")
        if not (0 <= r < 1):  # NaN or a reduction bug both land here
            raise ValueError(f"symbol produced {r!r}, outside [0, 1)")
        return r


def symbol_max_jump(phi: SymbolMap, grid: GridCircle) -> float:
    """Largest image distance between adjacent grid points (continuity diagnostic)."""
    pts = grid.points()
    images = [phi(p) for p in pts]
    return max(
        float(circle_distance(images[k], images[(k + 1) % grid.n]))
        for k in range(grid.n)
    )


def preimage_nowhere_dense_at_resolution(phi: SymbolMap, t: Coordinate,
                                         delta: Coordinate, grid: GridCircle) -> bool:
    """True iff every closed arc of length delta holds a grid point with phi(s) != t.

    delta must satisfy 2/n <= delta <= 1/2 so that the stingiest placement of
    a closed delta-arc still contains at least two grid points.  Equivalent,
    via run-length counting, to: no circular run of floor(n*delta) consecutive
    grid points is mapped entirely to t.
    """
    if not (0 < delta <= Fraction(1, 2)):
        raise ValueError(f"resolution delta must lie in (0, 1/2], got {delta}")
    exact = Fraction(delta) if not isinstance(delta, Fraction) else delta
    min_pts = int(grid.n * exact)  # floor; exact for rational delta
    if min_pts < 2:
        raise ValueError(
            f"grid too coarse: a delta={delta} arc can contain {min_pts} < 2 grid points")
    hits = [points_equal(phi(p), t) for p in grid.points()]
    if all(hits):
        return False
    # longest circular run of consecutive hits
    doubled = hits + hits
    longest = run = 0
    for h in doubled[:-1]:  # stop before double-counting the full wrap
        run = run + 1 if h else 0
        longest = max(longest, run)
    longest = min(longest, grid.n)
    return longest < min_pts


def image_count_on_arc(phi: SymbolMap, U: Arc, grid: GridCircle) -> int:
    """Number of distinct symbol values over the grid points of U."""
    pts = U.grid_points(grid)
    if not pts:
        raise ValueError("arc contains no grid point; refine the grid or widen the arc")
    images = [phi(p) for p in pts]
    if all(isinstance(v, Fraction) for v in images):
        return len(set(images))
    # continuous values: cluster at the matching tolerance
    ordered = sorted(float(v) for v in images)
    clusters = 1
    for a, b in zip(ordered, ordered[1:]):
        if b - a > ETA:
            clusters += 1
    if clusters > 1 and circle_distance(ordered[0], ordered[-1]) <= ETA:
        clusters -= 1  # first and last wrap onto each other
    return clusters
