"""Convex combinations of two composition operators as the center.

t C_phi + (1-t) C_psi has norm one, and against a finite-rank perturbation
it behaves exactly like a single composition: the norm identity holds with
the same split into aligned and off-target mass.  When the two symbols
merge at a point the atoms add and the triangle bound is attained exactly.
"""

from fractions import Fraction

from daugavetlab import (
    GridCircle,
    ScalarField,
    SymbolMap,
    convex_center_check,
    counterexample_nonconstant_modulus,
    rank_one,
)

n = 64
grid = GridCircle(n)
phi = SymbolMap.doubling()
psi = SymbolMap.rotation(Fraction(1, n))

print(f"t C_phi + (1-t) C_psi on n = {n}, T f = -f(0)")
T = rank_one(ScalarField.constant(1.0), at=Fraction(0), scale=-1.0)
for t in (0.0, 0.25, 0.4, 0.5, 1.0):
    res = convex_center_check(t, phi, psi, T, grid)
    print(f"  t = {t:<5} norm = {res.norm:<20} gap = {res.gap:.3e}  holds = {res.holds}")
print("  a flat perturbation leaves every off-target point the full mass")
print("  t + (1-t) + 1, so the identity holds exactly at every t")
print()

print("same combination against the cosine-window perturbation, growing n:")
T2 = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
              at=Fraction(0), scale=-1.0)
for m in (64, 256, 1024):
    res = convex_center_check(0.5, SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, m)),
                              T2, GridCircle(m))
    print(f"  n = {m:<5} gap = {res.gap:.3e}")
print()

print("none of this survives outside constant-modulus weights:")
u = ScalarField.cosine(amplitude=1.0, offset=0.0, frequency=1)
bad = counterexample_nonconstant_modulus(u, phi, grid)
print(f"  u = cos(2 pi s): certified gap {bad.certified_gap:.6f}")
