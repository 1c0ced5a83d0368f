"""A round-sphere geometry out of flat four-dimensional space.

Flat space in polar-times-cylinder coordinates (r, phi, x, theta) carries
the symplectic form r dr^dphi + a dx^dtheta and the obvious isometry that
shifts both angles together.  Contracting the form with that shift gives an
exact 1-form whose potential mu = r^2/2 + a x is the moment map.  Restrict
to mu = 0, project out the orbit direction, and a curved two-surface falls
out of a completely flat parent: the quotient metric

    (1 + r^2/a^2) dr^2 + a^2 r^2 / (r^2 + a^2) dchi^2,

whose curvature profile and total curvature integral are those of a sphere.
"""

import numpy as np

from hkgeo import geometry, mechanics, models, reduction

a = 1.0
m = models.build("toy-parent", a)
red = models.build("toy-reduced", a)
rng = np.random.default_rng(3)

# --- the moment map is a line integral ---------------------------------------

alpha = reduction.contraction_field(m.forms["omega"], m.killing["shift"])
base = np.asarray(m.targets["moment_base"])
mu = m.targets["moment_map"]
p = [1.3, 0.4, -0.6, 2.0]
print(f"contraction at {p}: {np.round(alpha.value(p), 12)}")
val = reduction.recover_moment_map(alpha, base, p, base_value=mu(base))
print(f"line-integrated moment map {val:.12f} vs closed form {mu(p):.12f}")

# --- level set, then quotient ------------------------------------------------

lev = m.embeddings["level"]
lm = m.level.metric
keep = reduction._kept(lm.dim, m.fiber_index)  # the coordinates the quotient keeps

worst_pull = worst_quot = 0.0
for _ in range(30):
    q = [rng.uniform(0.3, 3.0), rng.uniform(0.1, 5.9), rng.uniform(0.1, 5.9)]
    got = reduction.pullback_metric(m.metric, lev, q)
    worst_pull = max(worst_pull, float(np.max(np.abs(got - lm.value(q)))))
    gq = reduction.quotient_metric(lm, m.fiber_index, q)
    want = red.metric.value(np.take(q, keep))
    worst_quot = max(worst_quot, float(np.max(np.abs(gq - want))))
print(f"\nlevel-set pullback vs 3-chart closed form: {worst_pull:.3e}")
print(f"fiber quotient vs reduced 2-metric:        {worst_quot:.3e}")

# the same numbers drop out of mechanics: the level-set metric is the mass
# matrix of a kinetic term; set its fiber momentum to zero
g2 = mechanics.constrain_and_reduce(lm, m.fiber_index)
q = [1.7, 0.0, 0.0]
print(f"reduced mass matrix at r = {q[0]}:")
print(np.round(g2.value(np.take(q, keep)), 12))

# --- curvature of the quotient ----------------------------------------------

print("\n r      curvature     closed form")
rs = (0.0 + 1e-6, 0.5, 1.0, 2.0, 5.0)  # double-double below geometry.DD_RADIUS
for r, K in zip(rs, geometry.curvature_at_radii(red.metric, rs)):
    print(f"{r:5.2f}   {K:.8f}   {red.targets['curvature'](r):.8f}")

chi, err = geometry.euler_characteristic(red.metric, r_scale=a)
print(f"\ntotal-curvature integral: {chi:.10f} (quadrature error {err:.1e})")
print("two, as it must be for a sphere")
