"""Every acceptance claim of ``hkgeo verify all``, pinned row by row.

A row's claim is its id, tolerance, sample count and description.  The
table is literal on purpose: a refactor of the checks that changes any of
them, or drops or adds a row, fails here.  Loosening a tolerance or
shrinking a sample count is a change of claim and must show up in this
file.
"""

from hkgeo.checks import run_suite

#: ``(check_id, tolerance, samples, description)`` of every row of
#: ``run_suite("all", seed=0, samples=100, a=1.0)``, in report order.
CLAIMS = [
    ('heavenly.coset_constant_n2', 1e-10, 100,
     'unit-determinant condition h Om h^T = C Om with C = 1 on 100 '
     'random exp(v.t) metrics, n = 2'),
    ('heavenly.coset_constant_n4', 1e-10, 100,
     'unit-determinant condition h Om h^T = C Om with C = 1 on 100 '
     'random exp(v.t) metrics, n = 4'),
    ('heavenly.covariant_constancy', 1e-08, 20,
     'the J/K pair is covariantly constant for the varying '
     'unit-determinant metric (both J + iK and J - iK)'),
    ('heavenly.covariant_negative_control', 0.0, 10,
     'varying-determinant control metric must break covariant '
     'constancy by more than 1e-3 (expected failure is detected)'),
    ('heavenly.det_equality_n2', 1e-12, 120,
     'for n = 2 the proportionality constant C equals det h'),
    ('heavenly.negative_control', 0.0, 1,
     'diag(1, 1, 2, 1) must be rejected by the unit-determinant '
     'check (expected failure is detected)'),
    ('heavenly.quaternion_triple', 1e-10, 40,
     'I, J, K from passing metrics obey the quaternion algebra '
     '(squares -1, IJ = K, JK = I, KI = J)'),
    ('heavenly.sp_algebra', 1e-08, 20,
     'derivative matrices 2 (d_p h) h^-1 of a passing metric lie in '
     'the symplectic algebra (X Om + Om X^T = 0)'),
    ('hygiene.jets_vs_finite_differences', 1e-06, 120,
     'jet derivatives match central differences on every registered '
     'scalar field (gradient 1e-6, second derivatives 1e-4)'),
    ('mechanics.conserved_momenta', 1e-12, 20,
     'declared cyclic momenta Poisson-commute with both model '
     'Hamiltonians'),
    ('mechanics.legendre_roundtrip', 1e-12, 50,
     'Legendre transform is an involution on random SPD mass '
     'matrices'),
    ('mechanics.reduction_equivalence', 1e-12, 2,
     'constraining the fiber momentum equals the metric quotient on '
     'every registered reduction model'),
    ('mechanics.singular_mass_rejected', 0.0, 1,
     'singular mass matrix is rejected (expected failure is '
     'detected)'),
    ('mechanics.toy_kinetic_matrix', 1e-12, 100,
     'toy Hamiltonian kinetic matrix matches the closed-form '
     'coefficients'),
    ('taubnut.cartesian_metric', 1e-08, 100,
     'monopole-coordinate metric pulls back to the flat Cartesian '
     'metric'),
    ('taubnut.coordinate_triple', 1e-08, 100,
     'Cartesian symplectic triple re-expressed in (x, Psi) matches '
     'the monopole-potential closed forms'),
    ('taubnut.hamiltonian_equivalence', 1e-12, 50,
     'Hamiltonian reduction of the 5-chart kinetic term equals the '
     'geometric quotient'),
    ('taubnut.hyperkahler', 1e-07, 100,
     'Taub-NUT triple is quaternionic and covariantly constant'),
    ('taubnut.killing', 1e-10, 40,
     'the rotation + shift isometry is Killing in both charts'),
    ('taubnut.level_moments_vanish', 1e-12, 100,
     'all three moment maps vanish along the declared level-set '
     'embedding'),
    ('taubnut.level_pullback', 1e-10, 100,
     'metric restricted to the triple zero level set matches the '
     'closed-form 5-metric'),
    ('taubnut.moment_gradients', 1e-08, 100,
     'each contraction i_V omega is the gradient of its moment map'),
    ('taubnut.monopole_curl', 1e-06, 100,
     'finite-difference curl of the monopole potential is -x/r^3'),
    ('taubnut.quotient_metric', 1e-10, 100,
     'projecting out the circle fiber of the 5-metric gives the '
     'Taub-NUT closed form'),
    ('taubnut.quotient_triple', 1e-08, 100,
     'pulled-back triple drops its fiber components and equals the '
     'flat forms with 1/r -> 1/r + 1/a^2'),
    ('taubnut.radius_identity', 1e-10, 100,
     '|x(y)| equals the squared Cartesian radius of y'),
    ('taubnut.triple_closed', 1e-08, 20,
     'quotient triple is closed'),
    ('toy.contraction', 1e-12, 100,
     'contraction of the symplectic form with the shift vector gives '
     'r dr + a dx'),
    ('toy.curvature_profile', 1e-06, 42,
     'numeric curvature of the reduced surface matches 8 a^4 / (r^2 '
     '+ a^2)^3 over r in [1e-6, 10], a in {0.5, 1, 2}'),
    ('toy.cyclic_brackets', 1e-12, 20,
     'momenta of the cyclic angles Poisson-commute with the '
     'Hamiltonian'),
    ('toy.euler_characteristic', 1e-06, 3,
     'total-curvature integral gives Euler characteristic 2 (sphere)'),
    ('toy.hamiltonian_equivalence', 1e-12, 100,
     'setting the fiber momentum to zero reproduces the geometric '
     'quotient'),
    ('toy.killing_and_closure', 1e-10, 20,
     'shift vector is Killing and its contraction with the form is '
     'closed'),
    ('toy.level_pullback', 1e-10, 100,
     'pullback onto the zero level set matches the closed-form '
     '3-metric'),
    ('toy.moment_recovery', 1e-08, 100,
     'line-integrated moment map matches r^2/2 + a x'),
    ('toy.quotient_complex_structure', 1e-08, 20,
     'quotient complex structure squares to -1 and is covariantly '
     'constant'),
    ('toy.quotient_form', 1e-10, 100,
     'fiber components of the pulled-back form cancel and the rest '
     'is the area form r dr d chi'),
    ('toy.quotient_metric', 1e-10, 100,
     'orthogonal-projection quotient matches the reduced surface '
     'metric'),
]


def test_every_claim_of_verify_all_is_pinned():
    manifest = run_suite("all", seed=0, samples=100, a=1.0)
    got = [(c.check_id, c.tolerance, c.samples, c.description) for c in manifest.checks]
    assert len(got) == len(CLAIMS) == 38
    for row, want in zip(got, CLAIMS):
        assert row == want
    assert manifest.all_passed
