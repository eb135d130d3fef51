"""Discretized circle model: grids, arcs, scalar fields and self-maps.

The underlying compact space is the unit circle parameterized by [0, 1)
with the wraparound metric d(a, b) = min(|a - b|, 1 - |a - b|).  Every
coordinate is an exact rational: frac_mod1 turns an int or a Fraction into
a Fraction in [0, 1) where it enters the program (arc centers, tent
centers, shifts, symbol values, atom positions) and rejects a float with
TypeError.  The model works on the n equispaced points k/n, so symbol
evaluation (rotations by rational shifts, angle doubling, arc membership)
never rounds and two points are equal exactly when they compare equal.

Per-point evaluation on integers.  Each field and symbol kind has one
per-point implementation, on a point given as integers num/den (den > 0,
in lowest terms or not): ScalarField.value_at(num, den) and
SymbolMap.image_at(num, den), the image as (num, den) in lowest terms in
[0, 1).  Calling a field or symbol on a coordinate checks it (an int or a
Fraction, else TypeError) and delegates there, so the public calls and the
per-point reference pass of operators.py, which evaluates at (k, n) for
each grid point, share that one implementation and build no Fraction per
point.  The results do not depend on the reduction: int / int is
correctly rounded, so num / den is float(Fraction(num, den)); circle
distances (tents, arcs) are compared as ratios of integers; grid indices
come from one divmod; images are reduced with math.gcd.  Grids and tables
are checked when they are made, so evaluation checks only the point.

Topological notions that make no sense on a finite set are rendered at a
resolution: a preimage is "nowhere dense at resolution delta" when every
closed arc of length delta contains a grid point mapped elsewhere.
Continuity of symbols is never enforced.

Index space.  Inside a ``shared_compilation()`` block, fields are tabulated
once per (field, grid) as complex arrays and symbols compile to exact
integer codes, one per grid point.  A coordinate x in [0, 1) codes as
``id * n + j`` with ``j = floor(n x)`` and ``id`` numbering its sub-step
offset ``n x - j`` in the block's ``IndexSpace`` for that n.  Grid points
have offset 0 and id 0, so their code is their grid index; any other
rational gets an id of its own, whatever its denominator, so equal codes
mean equal coordinates.  Float products and moduli go through ``cmul`` and
``modulus``, which repeat CPython's complex ``*`` and ``abs()`` bit for
bit.  numpy's own complex multiply and ``np.abs`` do not: on numpy 2.4.6
(x86-64) they differ from them in the last bit for about 44% and 35% of
10^6 random complex values.  So every modulus that feeds a reported value
goes through ``modulus``.  The one exception is the lambda search of
``operators.rotation_max_norm``, its caps included: it is a search, held to
the analytic maximum (which takes ``modulus``) only within its Lipschitz
slack, and on one tile of 4096 x 4 complex values ``np.abs`` takes about
29 us against 276 us for ``modulus`` (numpy 2.4.6, Python 3.11, 2-core
x86-64).
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable

import numpy as np


TWO_PI = 2.0 * math.pi


def _as_fraction(x) -> Fraction:
    """x as a Fraction: an int (numpy integers too) or a Fraction.  A float
    or a bool raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return Fraction(int(x))
    raise TypeError(f"coordinates are exact rationals (an int or a Fraction), "
                    f"got {type(x).__name__} {x!r}")


def frac_mod1(x) -> Fraction:
    """Reduce an int or a Fraction into [0, 1), exactly; a float or a bool
    raises TypeError."""
    if not isinstance(x, Fraction):
        x = _as_fraction(x)
    return x if 0 <= x.numerator < x.denominator else x % 1


def _gap(num: int, den: int, c: Fraction) -> tuple[int, int]:
    """The distance d(num/den, c) as integers (G, D), exactly G / D: den > 0,
    num/den reduced (mod 1 or to lowest terms) or not, and c in [0, 1).
    With D = den den(c), |num/den - c| is |num den(c) - num(c) den| / D,
    and taking that numerator mod D reduces it mod 1."""
    D = den * c.denominator
    A = abs(num * c.denominator - c.numerator * den) % D
    return min(A, D - A), D


def _check_grid_size(n: int) -> None:
    """The rule on the size of a grid, a sample field or a table symbol."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got n={n}")


def _grid_index(num: int, den: int, n: int) -> int:
    """Grid index of num/den (den > 0) on the n-point grid: n num/den must
    be an integer, else ValueError."""
    j, rem = divmod(num * n, den)
    if rem:
        raise ValueError(f"{Fraction(num, den)!r} is not a grid point of the {n}-point grid")
    return j % n


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den (0 <= num < den) in lowest terms."""
    g = math.gcd(num, den)
    return num // g, den // g


# ---------------------------------------------------------------------------
# exact complex arithmetic and the memo of compiled objects
# ---------------------------------------------------------------------------

def cmul(a, b) -> np.ndarray:
    """Elementwise complex product in CPython's order of operations,
    (ar br - ai bi) + i (ar bi + ai br), overflowing silently as it does."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = a.real * b.real - a.imag * b.imag
        out.imag = a.real * b.imag + a.imag * b.real
    return out


def modulus(z) -> np.ndarray:
    """Elementwise |z| through hypot, as CPython's abs() of a complex."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore"):  # inf where CPython's abs() raises OverflowError
        return np.hypot(z.real, z.imag)


class IndexSpace:
    """Exact integer codes for coordinates on the n-point grid (see the
    module docstring).  Ids are handed out on first sight and never
    change, so codes stay comparable for the life of the space."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._ids: dict[Fraction, int] = {Fraction(0): 0}

    def code(self, x: Fraction) -> int:
        """The code of a coordinate x in [0, 1)."""
        j, rem = divmod(x.numerator * self.n, x.denominator)
        return self._ids.setdefault(Fraction(rem, x.denominator), len(self._ids)) * self.n + j


#: Compiled objects one block keeps: a scenario's fields, symbols, families
#: and profiles at each of its grid sizes fit several times over.
MEMO_SIZE = 64

_MISSING = object()


class CompiledMemo:
    """Compiled objects of one shared_compilation() block.

    Entries are keyed by value (the frozen dataclasses themselves) and
    evicted least recently used beyond MEMO_SIZE; the index spaces, one per
    grid size, live as long as the block, so codes stay comparable.
    """

    def __init__(self) -> None:
        self.entries: OrderedDict = OrderedDict()
        self.spaces: dict[int, IndexSpace] = {}

    def get(self, key: tuple, build: Callable):
        value = self.entries.get(key, _MISSING)
        if value is _MISSING:
            value = self.entries[key] = build()
            if len(self.entries) > MEMO_SIZE:
                self.entries.popitem(last=False)
        else:
            self.entries.move_to_end(key)
        return value


_MEMO: ContextVar[CompiledMemo | None] = ContextVar("daugavetlab_memo", default=None)


@contextmanager
def shared_compilation():
    """Let every call inside the block share one memo of compiled objects.

    Re-entrant: an inner block joins the outer one.  The memo is dropped
    when the outermost block exits, so nothing compiled outlives it.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set(CompiledMemo())
    try:
        yield
    finally:
        _MEMO.reset(token)


def compiles(fn):
    """Run fn inside shared_compilation()."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with shared_compilation():
            return fn(*args, **kwargs)
    return wrapper


def memoized(kind: str, n: int, objs: tuple, build: Callable):
    """build(), shared with every call on equal objs and n in the current
    block."""
    memo = _MEMO.get()
    if memo is None:
        return build()
    return memo.get((kind, n, *objs), build)


def index_space(n: int) -> IndexSpace:
    """The current block's index space for the n-point grid."""
    memo = _MEMO.get()
    if memo is None:
        raise RuntimeError("index_space() needs a shared_compilation() block")
    if n not in memo.spaces:
        memo.spaces[n] = IndexSpace(n)
    return memo.spaces[n]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def hash_once(self) -> int:
    """The __hash__ of the frozen dataclasses that key the memo: hash of
    the field tuple, as the dataclass's own __hash__ gives, taken on first
    use and kept in the instance.  The kept value is no field, so ==, repr
    and dataclasses.replace do not see it."""
    try:
        return self.__dict__["_hash"]
    except KeyError:
        h = self.__dict__["_hash"] = hash(tuple(getattr(self, f.name) for f in fields(self)))
        return h


@dataclass(frozen=True)
class GridCircle:
    """The n-point equispaced grid {k/n : 0 <= k < n} on the circle."""

    n: int

    def __post_init__(self) -> None:
        _check_grid_size(self.n)

    def points(self) -> list[Fraction]:
        return [Fraction(k, self.n) for k in range(self.n)]

    def coord(self, k: int) -> Fraction:
        return Fraction(k % self.n, self.n)

    def index_of(self, p: Fraction) -> int:
        """Grid index of an on-grid coordinate; rejects off-grid points."""
        p = _as_fraction(p)
        return _grid_index(p.numerator, p.denominator, self.n)

    def contains(self, p: Fraction) -> bool:
        try:
            self.index_of(p)
        except ValueError:
            return False
        return True


def _half_width(h) -> Fraction:
    h = _as_fraction(h)
    if not (0 < h <= Fraction(1, 2)):
        raise ValueError(f"half_width must lie in (0, 1/2], got {h}")
    return h


@dataclass(frozen=True)
class Arc:
    """Closed arc {s : d(s, center) <= half_width}, half_width in (0, 1/2]."""

    center: Fraction
    half_width: Fraction

    __hash__ = hash_once

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", frac_mod1(self.center))
        object.__setattr__(self, "half_width", _half_width(self.half_width))

    def contains(self, p: Fraction) -> bool:
        p = _as_fraction(p)
        return self.covers(p.numerator, p.denominator)

    def covers(self, num: int, den: int) -> bool:
        """contains(num/den) for den > 0, in integers."""
        G, D = _gap(num, den, self.center)
        return G * self.half_width.denominator <= self.half_width.numerator * D


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
    center: Fraction = Fraction(0)
    half_width: Fraction = Fraction(1, 4)
    peak: float = 1.0
    base: float = 0.0
    samples: tuple[complex, ...] = ()
    n: int = 0
    factors: tuple["ScalarField", ...] = ()

    __hash__ = hash_once

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", frac_mod1(self.center))
        object.__setattr__(self, "half_width", _half_width(self.half_width))
        if self.kind == "samples":
            if len(self.samples) != self.n:
                raise ValueError(f"sample table has {len(self.samples)} entries "
                                 f"for an n={self.n} grid")
            _check_grid_size(self.n)

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
    def tent(cls, center: Fraction, half_width: Fraction,
             peak: float = 1.0, base: float = 0.0) -> "ScalarField":
        return cls(kind="tent", center=center, half_width=half_width,
                   peak=float(peak), base=float(base))

    @classmethod
    def tent_dip(cls, center: Fraction, half_width: Fraction,
                 depth: float, top: float = 1.0) -> "ScalarField":
        """Plateau at `top` dipping linearly to `top - depth` at `center`."""
        return cls.tent(center, half_width, peak=float(top) - float(depth),
                        base=float(top))

    @classmethod
    def from_samples(cls, values, n: int) -> "ScalarField":
        return cls(kind="samples", samples=tuple(map(complex, values)), n=n)

    @classmethod
    def product(cls, left: "ScalarField", right: "ScalarField") -> "ScalarField":
        return cls(kind="product", factors=(left, right))

    def __call__(self, s: Fraction) -> complex:
        s = _as_fraction(s)
        return self.value_at(s.numerator, s.denominator)

    def value_at(self, num: int, den: int) -> complex:
        """The value at num/den (den > 0, reduced or not), bit for bit as at
        Fraction(num, den)."""
        k = self.kind
        if k == "constant":
            return self.value
        if k == "unimodular_exp":
            # int / int is correctly rounded: float(Fraction(num, den))
            theta = TWO_PI * self.winding * (num / den)
            return self.value * complex(math.cos(theta), math.sin(theta))
        if k == "cosine":
            return complex(self.offset
                           + self.amplitude * math.cos(TWO_PI * self.frequency * (num / den)))
        if k == "tent":
            # d(s, c) / h = G den(h) / (D num(h)); int / int rounds once,
            # as float(Fraction) does
            G, D = _gap(num, den, self.center)
            h = self.half_width
            bump = max(0.0, 1.0 - G * h.denominator / (D * h.numerator))
            return complex(self.base + (self.peak - self.base) * bump)
        if k == "samples":
            return self.samples[_grid_index(num, den, self.n)]
        if k == "product":
            left, right = self.factors
            return left.value_at(num, den) * right.value_at(num, den)
        raise ValueError(f"unknown field kind {k!r}")


def _arc_distances(c: Fraction, h: Fraction, n: int) -> tuple[np.ndarray, int]:
    """d(k/n, c) / h at every point k/n of the n-point grid, exactly, as
    integers G_k / H.

    With D = n * den(c), the distance |k/n - c| is A_k / D where
    A_k = |k den(c) - num(c) n|, so G_k = min(A_k, D - A_k) den(h) and
    H = num(h) D.  G is int64 while every product stays below 2^53, so
    that G / H rounds once in float64 as float(Fraction) does, and an
    array of Python ints beyond.
    """
    D = n * c.denominator
    big = max((2 * D + abs(c.numerator) * n) * h.denominator, D * h.numerator)
    k = np.arange(n, dtype=np.int64 if big < 2 ** 53 else object)
    a = abs(k * c.denominator - c.numerator * n)
    return np.minimum(a, D - a) * h.denominator, h.numerator * D


def arc_mask(arc: Arc, n: int) -> np.ndarray:
    """Which points k/n of the n-point grid lie on the arc, exactly:
    d(k/n, c) <= h."""
    G, H = _arc_distances(arc.center, arc.half_width, n)
    return (G <= H).astype(bool)


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
    shift: Fraction = Fraction(0)
    arc: Arc | None = None
    value: Fraction | None = None
    base: "SymbolMap | None" = None
    table: tuple[int, ...] = ()
    n: int = 0

    __hash__ = hash_once

    def __post_init__(self) -> None:
        object.__setattr__(self, "shift", frac_mod1(self.shift))
        if self.value is not None:
            object.__setattr__(self, "value", frac_mod1(self.value))
        if self.kind == "table":
            if len(self.table) != self.n:
                raise ValueError(f"symbol table has {len(self.table)} entries "
                                 f"for an n={self.n} grid")
            if any(not (0 <= k < self.n) for k in self.table):
                raise ValueError("symbol table entries must be grid indices in [0, n)")
            _check_grid_size(self.n)

    @classmethod
    def identity(cls) -> "SymbolMap":
        return cls(kind="identity")

    @classmethod
    def rotation(cls, shift: Fraction) -> "SymbolMap":
        return cls(kind="rotation", shift=shift)

    @classmethod
    def doubling(cls) -> "SymbolMap":
        return cls(kind="doubling")

    @classmethod
    def constant_on_arc(cls, value: Fraction, arc: Arc,
                        base: "SymbolMap | None" = None) -> "SymbolMap":
        return cls(kind="constant_on_arc", value=value, arc=arc,
                   base=base if base is not None else cls.identity())

    @classmethod
    def from_table(cls, mapping, n: int) -> "SymbolMap":
        return cls(kind="table", table=tuple(int(k) for k in mapping), n=n)

    def __call__(self, s: Fraction) -> Fraction:
        s = _as_fraction(s)
        return Fraction(*self.image_at(s.numerator, s.denominator))

    def image_at(self, num: int, den: int) -> tuple[int, int]:
        """The image of num/den (den > 0, reduced or not) as (num, den) in
        lowest terms, in [0, 1)."""
        k = self.kind
        if k == "identity":
            return _lowest(num % den, den)
        if k == "rotation":
            # a/b + c/d = (a d + c b) / (b d), reduced mod 1 in integers
            c, d = self.shift.numerator, self.shift.denominator
            return _lowest((num * d + c * den) % (den * d), den * d)
        if k == "doubling":
            return _lowest(2 * num % den, den)
        if k == "constant_on_arc":
            if self.arc.covers(num, den):
                return self.value.numerator, self.value.denominator
            return self.base.image_at(num, den)
        if k == "table":
            return _lowest(self.table[_grid_index(num, den, self.n)], self.n)
        raise ValueError(f"unknown symbol kind {k!r}")


@compiles
def preimage_nowhere_dense_at_resolution(phi: SymbolMap, t: Fraction,
                                         delta: Fraction, grid: GridCircle) -> bool:
    """True iff every closed arc of length delta holds a grid point with phi(s) != t.

    delta must satisfy 2/n <= delta <= 1/2 so that the stingiest placement of
    a closed delta-arc still contains at least two grid points.  Equivalent,
    via run-length counting, to: no circular run of floor(n*delta) consecutive
    grid points is mapped entirely to t.
    """
    t, delta = frac_mod1(t), _as_fraction(delta)
    if not (0 < delta <= Fraction(1, 2)):
        raise ValueError(f"resolution delta must lie in (0, 1/2], got {delta}")
    min_pts = int(grid.n * delta)  # floor
    if min_pts < 2:
        raise ValueError(
            f"grid too coarse: a delta={delta} arc can contain {min_pts} < 2 grid points")
    misses = np.flatnonzero(symbol_codes(phi, grid.n) != index_space(grid.n).code(t))
    if not misses.size:
        return False
    # the longest circular run of hits is the widest gap between two
    # consecutive misses, less one; the last gap wraps round to the first
    widest = int(np.diff(misses, append=misses[0] + grid.n).max())
    return widest - 1 < min_pts


# ---------------------------------------------------------------------------
# index space: tabulated fields and symbol codes
# ---------------------------------------------------------------------------

@compiles
def tabulate(u: ScalarField, n: int) -> np.ndarray:
    """u at every point k/n, bit for bit as u(Fraction(k, n)) (read-only)."""
    return memoized("field", n, (u,), lambda: _frozen(_tabulate(u, n)))


def _tabulate(u: ScalarField, n: int) -> np.ndarray:
    k = u.kind
    x = np.arange(n) / n  # float(Fraction(k, n)), correctly rounded
    if k == "constant":
        return np.full(n, u.value, dtype=complex)
    if k == "unimodular_exp":
        theta = (TWO_PI * u.winding * x).tolist()
        rotor = np.array([complex(math.cos(t), math.sin(t)) for t in theta])
        return cmul(u.value, rotor)
    if k == "cosine":
        theta = (TWO_PI * u.frequency * x).tolist()
        cos = np.array([math.cos(t) for t in theta])
        with np.errstate(over="ignore"):  # inf, as the per-point float sum gives
            return (u.offset + u.amplitude * cos).astype(complex)
    if k == "tent":
        # d(k/n, c) / h rounded once, as float(Fraction) does
        G, H = _arc_distances(u.center, u.half_width, n)
        left = 1.0 - (G / H).astype(float)
        bump = np.where(left > 0.0, left, 0.0)
        with np.errstate(invalid="ignore"):  # nan at inf * 0, as the per-point product gives
            return (u.base + (u.peak - u.base) * bump).astype(complex)
    if k == "samples" and 1 <= n <= u.n and u.n % n == 0:
        # every (u.n // n)-th sample: the values at k/n, read off the table
        return np.array(u.samples[::u.n // n], dtype=complex)
    if k == "product":
        left, right = u.factors
        return cmul(tabulate(left, n), tabulate(right, n))
    return np.array([u(Fraction(j, n)) for j in range(n)], dtype=complex)


def symbol_codes(phi: SymbolMap, n: int) -> np.ndarray:
    """Codes of phi(k/n) in the current block's index space (read-only).
    Needs a shared_compilation() block: codes compare only with codes of
    the same block."""
    return memoized("symbol", n, (phi,), lambda: _symbol_codes(phi, index_space(n)))


def _symbol_codes(phi: SymbolMap, space: IndexSpace) -> np.ndarray:
    codes = _closed_form_codes(phi, space)
    if codes is None:
        codes = np.array([space.code(phi(Fraction(k, space.n))) for k in range(space.n)],
                         dtype=np.int64)
    return _frozen(codes)


def _closed_form_codes(phi: SymbolMap, space: IndexSpace) -> np.ndarray | None:
    """Codes of the kinds that have an exact array form; None sends the
    symbol to per-point evaluation, which also raises its errors."""
    n = space.n
    k = np.arange(n, dtype=np.int64)
    if phi.kind == "identity":
        return k
    if phi.kind == "doubling":
        return 2 * k % n
    if phi.kind == "rotation":
        # k/n + shift = (k + m + f)/n with m = floor(n shift) and 0 <= f < 1,
        # so the image mod 1 is ((k + m) mod n + f)/n: grid index (k + m) mod n
        # at the offset of f/n, whose own grid index is 0
        m = phi.shift.numerator * n // phi.shift.denominator
        return space.code((n * phi.shift - m) / n) + (k + m) % n
    if phi.kind == "table" and phi.n == n:
        return np.array(phi.table, dtype=np.int64)
    if phi.kind == "constant_on_arc" and isinstance(phi.base, SymbolMap):
        base = _closed_form_codes(phi.base, space)
        if base is None:
            return None
        return np.where(arc_mask(phi.arc, n), space.code(phi.value), base)
    return None
