"""Which Hermitian metrics hide a quaternionic triple?

A Hermitian metric h on C^n (n even) passes the unit-determinant test when
h Omega h^T is proportional to the standard antisymmetric Omega with a
positive constant C.  For n = 2 this is literally C = det h.  The payoff:
every passing metric carries three real structures I, J, K that close the
quaternion algebra, and when the field varies with unit determinant the
J/K pair is covariantly constant, i.e. the metric is hyperkahler rather
than merely Kahler.

This script walks that chain on random group-exponential metrics and on a
hand-built varying field, then shows both negative controls failing.
"""

import numpy as np

from hkgeo import geometry, kahler

rng = np.random.default_rng(7)

# --- random metrics from the symplectic slice --------------------------------
# exp(sum v_a t_a) with Hermitian generators t_a obeying t Om + Om t^T = 0
# is Hermitian positive definite and passes the test with C = 1 exactly.

for n in (2, 4):
    om = kahler.symplectic_matrix(n)
    gens = kahler.sp_generators(n)
    print(f"n = {n}: {len(gens)} generators of the Hermitian symplectic slice")
    worst = 0.0
    for _ in range(200):
        h = kahler.coset_exponential(rng.normal(scale=0.7, size=len(gens)), gens)
        worst = max(worst, abs(kahler.heavenly_check(h, om) - 1.0))
    print(f"  worst |C - 1| over 200 random exponentials: {worst:.3e}")

# --- a varying unit-determinant field ----------------------------------------
# [[1 + |z1|^2, z1], [z1bar, 1]] has det = 1 identically but genuinely
# varying entries, so its connection is nontrivial.

om = kahler.symplectic_matrix(2)
shear = kahler.unit_determinant_shear_field()
pts = rng.uniform(-1.2, 1.2, size=(40, 4))

C = kahler.heavenly_check(shear.matrix(pts), om)  # one C per point
print(f"\nvarying field: C = {C.mean():.12f}, spread across {len(pts)} points "
      f"{C.max() - C.min():.3e}")

t = kahler.triple_at(shear.matrix(pts), om)  # one triple per point
worst = np.max(np.abs(kahler.quaternion_defects(t.I, t.J, t.K)))
print(f"quaternion algebra residual (squares and products): {worst:.3e}")

fJ, fK = kahler.quaternion_form_fields(shear, om)
worst = 0.0
for p in pts[:10]:
    dJ = geometry.covariant_derivative_02(shear, fJ, p)
    dK = geometry.covariant_derivative_02(shear, fK, p)
    worst = max(worst, float(np.max(np.abs(dJ + 1j * dK))),
                float(np.max(np.abs(dJ - 1j * dK))))
print(f"covariant derivative of J +- iK: {worst:.3e}")

# the derivative matrices 2 (d h) h^{-1} land in the symplectic algebra;
# that is the linear-algebra fact behind the constancy above
worst = max(kahler.sp_residual(X, om)
            for p in pts[:10] for X in kahler.x_matrices(shear, p))
print(f"algebra residual of the derivative matrices: {worst:.3e}")

# --- negative controls -------------------------------------------------------

print("\nnegative controls:")
try:
    kahler.heavenly_check(np.diag([1.0, 1.0, 2.0, 1.0]).astype(complex),
                          kahler.symplectic_matrix(4))
except kahler.HeavenlyViolation as err:
    print(f"  diag(1,1,2,1): rejected, residual {err.residual:.3f}")

ctrl = kahler.non_unimodular_field()
fJc, _ = kahler.quaternion_form_fields(ctrl, om)
dev = float(np.max(np.abs(
    geometry.covariant_derivative_02(ctrl, fJc, pts[0]))))
print(f"  varying determinant diag(1 + |z1|^2, 1): nabla J component {dev:.3e}"
      " (Kahler, not hyperkahler)")
