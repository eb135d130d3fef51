"""Exact operator norms from measure families.

On the grid model every operator is a family of atomic measures, one per
point, and the operator norm is the largest total variation in the family.
No estimation is involved: the supremum over the unit ball is attained by
aligning phases atom by atom, and the duality oracle below re-derives the
same number by actually integrating an aligned test function.
"""

from fractions import Fraction

from daugavetlab import (
    AtomicMeasure,
    GridCircle,
    ScalarField,
    SymbolMap,
    WeightedComposition,
    norm_oracle,
    perturbation_profile,
    perturbed_norm,
    rank_one,
    total_variation,
)

grid = GridCircle(16)

print("A three-atom measure and its norm")
mu = AtomicMeasure.from_atoms([
    (Fraction(0), 3 + 4j), (Fraction(1, 4), -2.0), (Fraction(1, 2), 1j)])
for pos, w in mu.atoms:
    print(f"  atom at {pos}: weight {w}")
print(f"  total variation  {total_variation(mu)}")
print(f"  duality oracle   {norm_oracle(mu, grid)}")
print()

print("A weighted composition and a rank-one perturbation")
u = ScalarField.cosine(amplitude=0.25, offset=0.75, frequency=1)
wc = WeightedComposition(u, SymbolMap.doubling())
T = rank_one(ScalarField.constant(0.5), at=Fraction(0), scale=1.0)
prof = perturbation_profile(wc, T, grid)  # it holds sup|u| and ||T||
print(f"  sup|u| over the grid      {prof.weight_sup}")
print(f"  ||T||                     {prof.t_norm}")
print(f"  ||uC_phi + T||            {perturbed_norm(wc, T, grid)}")
print(f"  triangle bound            {prof.weight_sup + prof.t_norm}")
print()

print("Where the norm comes from, point by point")
expr_atoms = []
for s in grid.points():
    merged = AtomicMeasure.from_atoms(
        list(wc.measure_at(s).atoms) + list(T.measure_at(s).atoms))
    expr_atoms.append((s, total_variation(merged)))
best = max(expr_atoms, key=lambda kv: kv[1])
print(f"  attained at s = {best[0]} with variation {best[1]}")
