"""Disk-algebra experiments: Blaschke searches and a certified bound.

Analytic functions have no plateau tricks available, so norms are bounded
from below by searching a ladder of Blaschke products and from above by a
hand-checkable two-arc argument.  The gap between the two is where the
interesting operators live.
"""

import math

from daugavetlab import (
    ArcNeighborhood,
    BlaschkeProduct,
    DiskFunction,
    RankOneDiskOperator,
    SearchLadder,
    automorphism_identity_check,
    certified_counterexample_bound,
    check_c_conditions,
    disk_norm_lower_bound,
)

one = DiskFunction.constant(1.0)
square = DiskFunction.polynomial([0.0, 0.0, 1.0])

print("conditions on the pair (u, phi) = (1, z^2):")
res = check_c_conditions(one, square)
print(f"  constant |u| on the boundary: {res.weight_modulus_constant}")
print(f"  phi inner:                    {res.symbol_inner}")
print(f"  phi nonconstant:              {res.symbol_nonconstant}")
print()

print("lower bound for ||C_{z^2} - f(0)|| by Blaschke ladder search:")
T = RankOneDiskOperator(tau=0.0, g=one, c=-1.0)
lb = disk_norm_lower_bound(one, square, T)
print(f"  bound {lb.bound:.6f} from {lb.family_size} test functions")
print(f"  witness: zeros {lb.witness['zeros']}, attained near z = {lb.witness['z']:.4f}")
print()

print("certified counterexample at omega = 1 for phi(z) = z/2:")
half = DiskFunction.scaled_identity(0.5)
cert = certified_counterexample_bound(one, half, 0.05, ArcNeighborhood(1 + 0j, 0.1))
print(f"  on-arc chain bound   {cert.on_arc:.12f}")
print(f"  off-arc bound        {cert.off_arc:.12f}  (1 + cos(1/20) = "
      f"{1 + math.cos(0.05):.12f})")
print(f"  certified norm bound {cert.bound:.12f} < 2 = sup|u| + ||T||")
print(f"  margin {cert.margin:.6e}, all arc conditions verified: {cert.valid}")
print()

print("automorphism symbol: additivity returns")
phi = BlaschkeProduct(zeros=(0.5 + 0j,))
T2 = RankOneDiskOperator(tau=phi(0.0), g=one, c=1.0)
ident = automorphism_identity_check(phi, T2)
print(f"  search lower bound {ident.lower:.6f} vs exact value {ident.target}")
print(f"  deficit {ident.deficit:.2e}")
