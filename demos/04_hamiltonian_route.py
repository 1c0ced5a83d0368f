"""The quotient metric, derived without ever mentioning geometry.

A free particle on a curved space has Lagrangian q'^T M(q) q' / 2 with the
metric as its mass matrix, so the kinetic term is given by the metric field
itself.  If a coordinate is cyclic its momentum is
conserved; setting that momentum to zero and Legendre-transforming back
yields a kinetic term on one fewer coordinate.  The claim: this purely
mechanical construction lands on exactly the same reduced metric as the
level-set-and-projection route.  Both reductions in this package (the toy
sphere and Taub-NUT) are checked here side by side.
"""

import numpy as np

from hkgeo import mechanics, models, reduction
from hkgeo.fields import Chart, MetricField

# --- warm-up: the transform is an involution ---------------------------------

M = MetricField(Chart(("q0", "q1")), lambda c: [[2.0 + c[0] ** 2, 1.0], [None, 1.0]])
Minv = mechanics.legendre_to_hamiltonian(M, [0.5, 0.0])
print("mass matrix round trip error:",
      f"{np.max(np.abs(np.linalg.inv(Minv) - M.value([0.5, 0.0]))):.3e}")

# --- conservation is literal: {p, H} via jets --------------------------------

m = models.build("toy-parent", 1.0)
lm = m.level.metric
H = mechanics.hamiltonian_field(lm)
rng = np.random.default_rng(9)

s = mechanics.PhasePoint((1.3, 0.8, 2.1), tuple(rng.normal(size=3)))
# every momentum against one jet of H: a sequence of f gives one bracket each
momenta = [mechanics.momentum_field(i, 3) for i in range(3)]
for name, br in zip(lm.chart.names, mechanics.poisson_bracket(momenta, H, s)):
    tag = "conserved" if abs(br) < 1e-12 else "not conserved"
    print(f"  {{p_{name}, H}} = {br:+.3e}   ({tag})")

# --- toy model: constrain p_theta = 0 ----------------------------------------

g2 = mechanics.constrain_and_reduce(lm, m.fiber_index)
worst = 0.0
for _ in range(30):
    q = [rng.uniform(0.3, 3.0), rng.uniform(0.1, 5.9), rng.uniform(0.1, 5.9)]
    got = g2.value([q[0], q[2]])
    want = reduction.quotient_metric(lm, m.level.killing["fiber"],
                                     m.invariant, q)
    worst = max(worst, float(np.max(np.abs(got - want))))
print(f"\ntoy model: |mechanical - geometric| over 30 points: {worst:.3e}")

# --- same story on the road to Taub-NUT --------------------------------------

m8 = models.build("r8-parent", 1.0)
lm8 = m8.level.metric
g4 = mechanics.constrain_and_reduce(lm8, m8.fiber_index)
worst = 0.0
for _ in range(20):
    q = [*rng.uniform(0.4, 1.8, size=3), rng.uniform(0.1, 5.9),
         rng.uniform(0.1, 5.9)]
    got = g4.value(q[:4])
    want = reduction.quotient_metric(lm8, m8.level.killing["fiber"],
                                     m8.invariant, q)
    worst = max(worst, float(np.max(np.abs(got - want))))
print(f"5-chart:   |mechanical - geometric| over 20 points: {worst:.3e}")
print("\nand the geometric side of the 5-chart quotient is Taub-NUT:")
q = [1.0, 0.5, -0.3, 1.0, 2.0]
print(np.round(g4.value(q[:4]) - models.taub_nut_metric(q[:3], 1.0), 14))

# --- the guard rail ----------------------------------------------------------

try:
    mechanics.constrain_and_reduce(lm, 0)   # r is not cyclic
except mechanics.InvalidConstraintError as err:
    print(f"\nconstraining a non-conserved momentum is refused: {err}")
