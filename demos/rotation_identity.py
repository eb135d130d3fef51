"""The rotation maximum: scaling the perturbation recovers additivity.

For a weight of constant modulus the norm of uC_phi + lambda T, maximized
over unimodular lambda, always equals sup|u| + ||T||, even when lambda = 1
itself falls short.  The search below scans 4096 rotations and compares
with the closed-form value.
"""

from fractions import Fraction

from daugavetlab import (
    GridCircle,
    ScalarField,
    SymbolMap,
    WeightedComposition,
    perturbation_profile,
    perturbed_norm,
    rank_one,
    rotation_max_norm,
    scaled,
)

grid = GridCircle(64)
u = ScalarField.unimodular_exp(winding=2)
wc = WeightedComposition(u, SymbolMap.doubling())
T = rank_one(ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1),
             at=Fraction(0), scale=-1.0)

plain = perturbed_norm(wc, T, grid)
prof = perturbation_profile(wc, T, grid)
upper = prof.weight_sup + prof.t_norm
print(f"||uC_phi + T||  = {plain:.12f}   (lambda = 1, short of the bound)")
print(f"sup|u| + ||T||  = {upper:.12f}")
print()

res = rotation_max_norm(wc, T, grid)
print(f"max over |lambda| = 1: {res.max:.12f}")
print(f"grid search found      {res.searched:.12f} at lambda = {res.argmax_lambda}")
print()

print("A few sample rotations along the way:")
import cmath
for k in range(0, 8):
    lam = cmath.exp(2j * cmath.pi * k / 8)
    value = perturbed_norm(wc, scaled(T, lam), grid)
    print(f"  lambda = exp(2i pi {k}/8):  {value:.12f}")

print()
print("The +/-1 restriction (real scalars only) still attains it here:")
res2 = rotation_max_norm(wc, T, grid, lambda_grid=2)
print(f"  best of lambda in {{1, -1}}: {res2.searched:.12f}")
