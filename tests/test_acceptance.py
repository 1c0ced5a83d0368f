"""Acceptance suite: the eleven headline claims, one test (and one printed
PASS/FAIL line) each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines;
each carries the worst observed error next to the tolerance it is judged
against.  Sample counts and tolerances are fixed here on purpose: loosening
them is a change of claim, not of style.
"""

import numpy as np
import pytest

from hkgeo import geometry, kahler, mechanics, models, reduction
from hkgeo.checks import run_suite
from hkgeo.jets import evaluate_jet, fd_oracle
from hkgeo.sampling import SampleSpec, sample_points

SEED = 2024
N_POINTS = 50


def _pts(box, exclusions=(), count=N_POINTS, seed=SEED):
    return sample_points(SampleSpec(np.asarray(box, dtype=float), count, seed,
                                    tuple(exclusions)))


def _report(num, desc, pairs):
    """One line per criterion; ``pairs`` is [(label, err, tol), ...]."""
    ok = all(err <= tol for _, err, tol in pairs)
    detail = "; ".join(f"{label} {err:.2e}<={tol:.0e}" for label, err, tol in pairs)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} ({detail})")
    for label, err, tol in pairs:
        assert err <= tol, f"criterion {num}, {label}: {err:.3e} > {tol:.1e}"


def test_criterion_01_unit_determinant_constant():
    rng = np.random.default_rng(SEED)
    worst_C = 0.0
    for n in (2, 4):
        om = kahler.symplectic_matrix(n)
        gens = kahler.sp_generators(n)
        for _ in range(100):
            h = kahler.coset_exponential(rng.normal(scale=0.6, size=len(gens)), gens)
            worst_C = max(worst_C, abs(kahler.heavenly_check(h, om) - 1.0))

    om2 = kahler.symplectic_matrix(2)
    gens2 = kahler.sp_generators(2)
    worst_det = 0.0
    for _ in range(100):
        hm = kahler.coset_exponential(rng.normal(scale=0.6, size=3), gens2)
        C = kahler.heavenly_check(hm, om2)
        worst_det = max(worst_det, abs(C - float(np.real(np.linalg.det(hm)))))
    shear = kahler.unit_determinant_shear_field()
    for p in _pts(((-1.5, 1.5),) * 4, count=25):
        hm = shear.matrix(p)
        worst_det = max(worst_det,
                        abs(kahler.heavenly_check(hm, om2)
                            - float(np.real(np.linalg.det(hm)))))

    try:
        kahler.heavenly_check(np.diag([1.0, 1.0, 2.0, 1.0]).astype(complex),
                              kahler.symplectic_matrix(4))
        control = 1.0
    except kahler.HeavenlyViolation:
        control = 0.0

    _report(1, "h Om h^T = C Om with C = 1 on exp(v.t) cosets, C = det h at n=2,"
               " scaled diagonal rejected",
            [("|C-1|", worst_C, 1e-10),
             ("|C-det h|", worst_det, 1e-12),
             ("control", control, 0.0)])


def test_criterion_02_quaternion_algebra():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for n in (2, 4):
        om = kahler.symplectic_matrix(n)
        gens = kahler.sp_generators(n)
        for _ in range(25):
            h = kahler.coset_exponential(rng.normal(scale=0.6, size=len(gens)), gens)
            t = kahler.triple_at(h, om)
            worst = max(worst, np.max(np.abs(kahler.quaternion_defects(t.I, t.J, t.K))))
    om2 = kahler.symplectic_matrix(2)
    shear = kahler.unit_determinant_shear_field()
    for p in _pts(((-1.5, 1.5),) * 4, count=25):
        t = kahler.triple_at(shear.matrix(p), om2)
        worst = max(worst, np.max(np.abs(kahler.quaternion_defects(t.I, t.J, t.K))))
    _report(2, "I, J, K of passing metrics close the quaternion algebra",
            [("residual", worst, 1e-10)])


def test_criterion_03_covariant_constancy():
    om = kahler.symplectic_matrix(2)
    shear = kahler.unit_determinant_shear_field()
    fJ, fK = kahler.quaternion_form_fields(shear, om)
    worst = 0.0
    for p in _pts(((-1.5, 1.5),) * 4, count=15):
        dJ = geometry.covariant_derivative_02(shear, fJ, p)
        dK = geometry.covariant_derivative_02(shear, fK, p)
        worst = max(worst, float(np.max(np.abs(dJ + 1j * dK))),
                    float(np.max(np.abs(dJ - 1j * dK))))
    # a constant coset metric has vanishing connection; include one for form
    h = kahler.coset_exponential([0.4, -0.2, 0.7], kahler.sp_generators(2))
    const = kahler.HermitianMetricField(2, lambda c: h.real, lambda c: h.imag)
    fJc, _ = kahler.quaternion_form_fields(const, om)
    dJc = geometry.covariant_derivative_02(const, fJc, [0.3, 0.1, -0.2, 0.5])
    worst = max(worst, float(np.max(np.abs(dJc))))

    ctrl = kahler.non_unimodular_field()
    fJx, _ = kahler.quaternion_form_fields(ctrl, om)
    dev = 0.0
    for p in _pts(((-1.5, 1.5),) * 4, count=10):
        dev = max(dev, float(np.max(np.abs(
            geometry.covariant_derivative_02(ctrl, fJx, p)))))
    control = 0.0 if dev > 1e-3 else 1.0

    _report(3, "nabla(J +- iK) = 0 for passing fields, broken by the"
               " varying-determinant control",
            [("worst grad", worst, 1e-8), ("control", control, 0.0)])


def test_criterion_04_derivative_matrices_in_sp():
    om = kahler.symplectic_matrix(2)
    shear = kahler.unit_determinant_shear_field()
    worst = 0.0
    for p in _pts(((-1.5, 1.5),) * 4, count=25):
        for X in kahler.x_matrices(shear, p):
            worst = max(worst, kahler.sp_residual(X, om))
    _report(4, "X_p Om + Om X_p^T = 0 on a passing metric field",
            [("residual", worst, 1e-8)])


def test_criterion_05_toy_reduction():
    m = models.build("toy-parent", 1.0)
    red = models.build("toy-reduced", 1.0)
    lev = m.embeddings["level"]
    lm = m.level.metric
    fiber = m.level.killing["fiber"]
    worst_pull = worst_quot = 0.0
    for p in _pts(m.level.box, count=N_POINTS):
        got = reduction.pullback_metric(m.metric, lev, p)
        worst_pull = max(worst_pull, float(np.max(np.abs(got - lm.value(p)))))
        q = reduction.quotient_metric(lm, fiber, m.invariant, p)
        want = red.metric.value([p[0], p[2]])
        worst_quot = max(worst_quot, float(np.max(np.abs(q - want))))
    _report(5, "toy level-set pullback and fiber quotient match their closed"
               f" forms at {N_POINTS} points",
            [("pullback", worst_pull, 1e-10), ("quotient", worst_quot, 1e-10)])


def test_criterion_06_hamiltonian_route():
    m = models.build("toy-parent", 1.0)
    lm = m.level.metric
    pts = _pts(m.level.box, count=N_POINTS)
    g2 = mechanics.constrain_and_reduce(lm, m.fiber_index,
                                        probe_points=[list(p) for p in pts[:3]])
    fiber = m.level.killing["fiber"]
    worst_eq = 0.0
    for p in pts:
        got = g2.value([p[0], p[2]])
        want = reduction.quotient_metric(lm, fiber, m.invariant, p)
        worst_eq = max(worst_eq, float(np.max(np.abs(got - want))))

    H = mechanics.hamiltonian_field(lm)
    pf = mechanics.momentum_field(m.fiber_index, lm.dim)
    rng = np.random.default_rng(SEED + 6)
    worst_br = 0.0
    for p in pts:
        s = mechanics.PhasePoint(tuple(p), tuple(rng.normal(size=lm.dim)))
        worst_br = max(worst_br, abs(mechanics.poisson_bracket(pf, H, s)))
    _report(6, "constraining the fiber momentum equals the geometric quotient;"
               " the fiber momentum is conserved",
            [("equivalence", worst_eq, 1e-12), ("bracket", worst_br, 1e-12)])


def test_criterion_07_curvature_and_topology():
    rng = np.random.default_rng(SEED + 7)
    worst_K = worst_chi = 0.0
    for a in (0.5, 1.0, 2.0):
        red = models.build("toy-reduced", a)
        target = red.targets["curvature"]
        rs = np.concatenate([[1e-6, 1e-5, 1e-4, 1e-3, 1e-2],
                             rng.uniform(0.05, 10.0, size=12), [10.0]])
        got = geometry.curvature_at_radii(red.metric, rs)
        worst_K = max(worst_K, *(abs(K - target(r)) for K, r in zip(got, rs)))
        chi, quad_err = geometry.euler_characteristic(red.metric, r_scale=a)
        worst_chi = max(worst_chi, abs(chi - 2.0) + quad_err)
    _report(7, "curvature matches 8 a^4 / (r^2 + a^2)^3 on r in [1e-6, 10],"
               " a in {0.5, 1, 2}; curvature integral gives 2",
            [("curvature", worst_K, 1e-6), ("euler", worst_chi, 1e-6)])


def test_criterion_08_coordinate_change():
    gh = models.build("gh-flat", 1.0)
    to_x = gh.embeddings["to_monopole"]
    worst_flat = 0.0
    for y in _pts(gh.cartesian.box, gh.cartesian.exclusions):
        got = reduction.pullback_metric(gh.metric, to_x, y)
        worst_flat = max(worst_flat, float(np.max(np.abs(got - np.eye(4)))))

    to_y = gh.embeddings["to_cartesian"]
    worst_forms = 0.0
    for p in gh.sample(N_POINTS, seed=SEED):
        for k, form in gh.forms.items():
            got = reduction.pullback_form(gh.cartesian.forms[k], to_y, p)
            worst_forms = max(worst_forms,
                              float(np.max(np.abs(got - form.value(p)))))
    # the coefficient tables in the write-up drop wedge-annihilated terms;
    # the full pullback shows no discrepancy beyond roundoff, logged here
    print(f"    printed-form discrepancy of the coordinate triple: "
          f"{worst_forms:.3e}")
    _report(8, "angle-chart metric pulls back to the flat Cartesian one; the"
               " Cartesian symplectic triple re-expresses as the tabulated"
               " monopole-potential forms",
            [("metric", worst_flat, 1e-8), ("triple", worst_forms, 1e-8)])


def test_criterion_09_taub_nut_pipeline():
    m = models.build("r8-parent", 1.0)
    cart_pts = _pts(m.cartesian.box, m.cartesian.exclusions)
    worst_mu = 0.0
    for q in cart_pts:
        for wk, mk in (("omega_I", "mu_I"), ("omega_J", "mu_J"),
                       ("omega_K", "mu_K")):
            alpha = reduction.contraction_field(m.cartesian.forms[wk],
                                                m.cartesian.killing["G"]).value(q)
            grad = evaluate_jet(m.cartesian.targets[mk], q).gradient
            worst_mu = max(worst_mu, float(np.max(np.abs(alpha - grad))))

    lev = m.embeddings["level"]
    lm = m.level.metric
    lev_pts = _pts(m.level.box, m.level.exclusions)
    tn = models.build("taub-nut", 1.0)
    worst_pull = worst_quot = worst_forms = 0.0
    for p in lev_pts:
        got = reduction.pullback_metric(m.metric, lev, p)
        worst_pull = max(worst_pull, float(np.max(np.abs(got - lm.value(p)))))
        q = reduction.quotient_metric(lm, m.level.killing["fiber"],
                                      m.invariant, p)
        worst_quot = max(worst_quot, float(np.max(np.abs(
            q - models.taub_nut_metric(p[:3], 1.0)))))
        for k in ("omega_I", "omega_J", "omega_K"):
            W5 = reduction.pullback_form(m.forms[k], lev, p)
            Wq = reduction.quotient_form(W5, m.fiber_index, m.invariant, p)
            worst_forms = max(worst_forms, float(np.max(np.abs(
                Wq - tn.forms[k].value(p[:4])))))

    worst_closed = 0.0
    for p in tn.sample(10, seed=SEED):
        for f in tn.forms.values():
            worst_closed = max(worst_closed, float(np.max(np.abs(
                reduction.exterior_derivative(f, p)))))

    _report(9, "moment gradients, 5-chart pullback, fiber quotient and the"
               " shifted triple all match closed forms; the triple is closed",
            [("d mu = i_V w", worst_mu, 1e-8),
             ("5-chart pullback", worst_pull, 1e-10),
             ("quotient metric", worst_quot, 1e-10),
             ("quotient triple", worst_forms, 1e-8),
             ("closedness", worst_closed, 1e-8)])


def test_criterion_10_taub_nut_hyperkahler():
    tn = models.build("taub-nut", 1.0)
    eye = np.eye(4)
    worst = 0.0
    for p in tn.sample(N_POINTS, seed=SEED):
        gv = tn.metric.value(p)
        I, J, K = (-np.linalg.solve(gv, tn.forms[k].value(p))
                   for k in ("omega_I", "omega_J", "omega_K"))
        for D in (I @ I + eye, J @ J + eye, K @ K + eye,
                  I @ J - K, J @ K - I, K @ I - J):
            worst = max(worst, float(np.max(np.abs(D))))
        for f in tn.forms.values():
            worst = max(worst, float(np.max(np.abs(
                geometry.covariant_derivative_02(tn.metric, f, p)))))
    _report(10, f"Taub-NUT triple is quaternionic and covariantly constant at"
                f" {N_POINTS} points off the string",
            [("residual", worst, 1e-7)])


def test_criterion_11_oracle_hygiene_and_determinism():
    worst_g = worst_h = 0.0
    for spec in models.scalar_fields(1.0):
        for p in _pts(spec.box, spec.exclusions, count=8):
            jet = evaluate_jet(spec.fn, p)
            ora = fd_oracle(spec.fn, p, exclusions=spec.exclusions)
            worst_g = max(worst_g,
                          float(np.max(np.abs(jet.gradient - ora.gradient))))
            worst_h = max(worst_h,
                          float(np.max(np.abs(jet.hessian - ora.hessian))))

    def stripped(man):
        d = man.to_dict()
        for c in d["checks"]:
            c["elapsed_ms"] = 0
        return d

    m1 = run_suite("all", seed=3, samples=8)
    m2 = run_suite("all", seed=3, samples=8)
    deterministic = 0.0 if stripped(m1) == stripped(m2) else 1.0
    # per-check streams depend only on (seed, check id), so any sub-suite
    # reproduces the corresponding slice of the full run
    sub = run_suite("heavenly", seed=3, samples=8)
    subset = {c["check_id"]: c for c in stripped(m1)["checks"]}
    sliced = all(subset[c["check_id"]] == c for c in stripped(sub)["checks"])
    deterministic = max(deterministic, 0.0 if sliced else 1.0)

    _report(11, "jet derivatives agree with finite differences on every"
                " registered scalar field; reports are seed-deterministic",
            [("gradient", worst_g, 1e-6), ("hessian", worst_h, 1e-4),
             ("determinism", deterministic, 0.0)])
