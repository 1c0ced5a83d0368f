"""Taub-NUT as a quotient of flat eight-dimensional space.

Flat R^4 in the monopole chart (x1, x2, x3, Psi) looks like

    (1/(4r)) dx.dx + (r/4) (dPsi + A.dx)^2,

with A the Dirac potential whose curl is -x/r^3.  Cross it with a second
flat R^4 of scale a, act with the isometry that rotates the first factor
and shifts the second angle, and three moment maps appear, one per
symplectic structure.  On their common zero set the dependence on one angle
cancels out of everything ("the complete square"), and the quotient is the
Taub-NUT gravitational instanton

    (s/4) dx.dx + (dchi + A.dx)^2 / (4s),      s = 1/r + 1/a^2,

with its triple of closed 2-forms: the flat ones with 1/r -> 1/r + 1/a^2.
"""

import numpy as np

from hkgeo import geometry, models, reduction
from hkgeo.jets import fd_oracle

a = 1.0
rng = np.random.default_rng(11)

# --- the monopole potential and its curl -------------------------------------

x = np.array([0.9, -0.4, 0.7])
# the oracle hands the field coordinate columns; the potential takes points
jA1 = fd_oracle(lambda c: models.monopole_potential(np.stack(c, axis=-1))[:, 0], x)
jA2 = fd_oracle(lambda c: models.monopole_potential(np.stack(c, axis=-1))[:, 1], x)
curl = np.array([-jA2.gradient[2], jA1.gradient[2],
                 jA2.gradient[0] - jA1.gradient[1]])
r = np.linalg.norm(x)
print(f"curl A at {x}: {np.round(curl, 9)}")
print(f"-x/r^3:        {np.round(-x / r**3, 9)}")

# --- the coordinate change behind the monopole chart -------------------------

gh = models.build("gh-flat", a)
y = np.array([0.8, 1.1, -0.3, 0.6])
to_x = gh.embeddings["to_monopole"]
print(f"\n|x(y)| = {np.linalg.norm(to_x.value(y)[:3]):.12f}"
      f"  vs  |y|^2 = {float(y @ y):.12f}")
g_back = reduction.pullback_metric(gh.metric, to_x, y)
print(f"angle-chart metric pulled back to y: deviation from identity "
      f"{np.max(np.abs(g_back - np.eye(4))):.3e}")

# --- moments, level set, quotient --------------------------------------------

m = models.build("r8-parent", a)
pts = [np.concatenate([rng.uniform(0.4, 1.8, size=3),
                       [rng.uniform(0.1, 5.9)], [rng.uniform(0.1, 5.9)]])
       for _ in range(25)]

lev = m.embeddings["level"]
worst = 0.0
for p in pts:
    P = lev.value(p)
    worst = max(worst, max(abs(m.targets[k](P))
                           for k in ("mu_I", "mu_J", "mu_K")))
print(f"\nall three moment maps on the declared level set: {worst:.3e}")

lm = m.level.metric
tn = models.build("taub-nut", a)
worst_q = worst_f = 0.0
for p in pts:
    gq = reduction.quotient_metric(lm, m.level.killing["fiber"], m.invariant, p)
    worst_q = max(worst_q, float(np.max(np.abs(
        gq - models.taub_nut_metric(p[:3], a)))))
    for k in ("omega_I", "omega_J", "omega_K"):
        W5 = reduction.pullback_form(m.forms[k], lev, p)
        Wq = reduction.quotient_form(W5, m.fiber_index, m.invariant, p)
        worst_f = max(worst_f, float(np.max(np.abs(Wq - tn.forms[k].value(p[:4])))))
print(f"quotient metric vs Taub-NUT closed form:   {worst_q:.3e}")
print(f"quotient forms vs shifted flat triple:     {worst_f:.3e}")

# --- the result is hyperkahler ----------------------------------------------

eye = np.eye(4)
worst = 0.0
for p in tn.sample(25, seed=2):
    gv = tn.metric.value(p)
    I, J, K = (reduction.complex_structure(gv, tn.forms[k].value(p))
               for k in ("omega_I", "omega_J", "omega_K"))
    for D in (I @ I + eye, J @ J + eye, K @ K + eye,
              I @ J - K, J @ K - I, K @ I - J):
        worst = max(worst, float(np.max(np.abs(D))))
    for f in tn.forms.values():
        worst = max(worst, float(np.max(np.abs(
            geometry.covariant_derivative_02(tn.metric, f, p)))))
print(f"quaternion algebra + covariant constancy:  {worst:.3e}")

# --- sanity: a -> infinity recovers flat space -------------------------------

x = [0.8, -0.4, 0.9]
flat = gh.metric.value([*x, 1.0])
big = models.taub_nut_metric(x, 1e6)
print(f"\n|taub-nut(a = 1e6) - flat| at {x}: {np.max(np.abs(big - flat)):.3e}")
