"""Verification suites over the model registry, with reproducible reports.

Every check draws its own random stream from ``(run seed, crc32(check id))``,
so the report for a fixed seed is bit-stable no matter which subset of
checks runs or in what order.  A check returns its worst absolute error and
the tolerance it is judged against; "expected failure" checks (negative
controls) report error 0 when the failure is correctly detected and 1 when
it is not.  A check that raises is reported as a failed row carrying the
exception, and the run goes on.
"""

from __future__ import annotations

import math
import time
import zlib

import numpy as np

from . import geometry, kahler, mechanics, models, reduction
from ._record import Frozen
from ._version import __version__
from .jets import evaluate_jet, fd_oracle, fd_step, worst_of
from .sampling import SampleSpec, sample_points

__all__ = [
    "CheckReport",
    "RunManifest",
    "CheckContext",
    "REPORT_SCHEMA",
    "SUITE_NAMES",
    "run_suite",
]

A_SWEEP = (0.5, 1.0, 2.0)


class CheckReport(Frozen):
    """Outcome of one named check.

    ``error`` is ``"<exception class>: <message>"`` when the check raised,
    and None (absent from the report) when it returned.
    """

    __slots__ = ("check_id", "description", "samples", "max_abs_error", "tolerance",
                 "passed", "elapsed_ms", "error")

    def __init__(self, check_id, description, samples, max_abs_error, tolerance, passed,
                 elapsed_ms, error=None):
        self._set(check_id, description, samples, max_abs_error, tolerance, passed,
                  elapsed_ms, error)

    def to_dict(self):
        out = dict(zip(self.__slots__, self._values()))
        if self.error is None:
            del out["error"]
        return out


class RunManifest(Frozen):
    """One verification run: configuration plus ordered check reports."""

    __slots__ = ("seed", "samples", "a", "a_sweep", "version", "checks")

    def __init__(self, seed, samples, a, a_sweep, version, checks):
        self._set(seed, samples, a, a_sweep, version, checks)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"seed": self.seed, "samples": self.samples, "a": self.a,
                "a_sweep": list(self.a_sweep), "version": self.version,
                "checks": [c.to_dict() for c in self.checks]}


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "hkgeo verification report",
    "type": "object",
    "required": ["seed", "samples", "a", "a_sweep", "version", "checks"],
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer"},
        "samples": {"type": "integer", "minimum": 1},
        "a": {"type": "number", "exclusiveMinimum": 0},
        "a_sweep": {"type": "array", "items": {"type": "number"}},
        "version": {"type": "string"},
        "checks": {"type": "array", "items": {"$ref": "#/definitions/check"}},
    },
    "definitions": {
        "check": {
            "type": "object",
            "required": ["check_id", "description", "samples", "max_abs_error",
                         "tolerance", "passed", "elapsed_ms"],
            "additionalProperties": False,
            "properties": {
                "check_id": {"type": "string"},
                "description": {"type": "string"},
                "samples": {"type": "integer", "minimum": 0},
                "max_abs_error": {"type": "number"},
                "tolerance": {"type": "number"},
                "passed": {"type": "boolean"},
                "elapsed_ms": {"type": "integer", "minimum": 0},
                "error": {"type": "string"},
            },
        }
    },
}


class CheckContext(Frozen):
    __slots__ = ("seed", "samples", "a")

    def __init__(self, seed, samples, a):
        self._set(seed, samples, a)

    def rng(self, check_id):
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])

    def subseed(self, rng):
        return int(rng.integers(2 ** 31))


def _box_points(box, exclusions, count, seed):
    """Sampled points as one ``(B, d)`` batch."""
    return sample_points(SampleSpec(box, count, seed, tuple(exclusions)))


def _worst(got, want=0.0):
    """Largest ``|got - want|`` over a batch, as a float; NaN if any entry is NaN.

    ``np.max`` keeps NaN, so a NaN anywhere in the batch fails its check.
    """
    return float(np.max(np.abs(got - want)))


# ---------------------------------------------------------------------------
# heavenly suite


def _coset_matrices(rng, n, count):
    """``count`` random coset metrics ``(count, n, n)``; one draw of every
    coefficient, the stream of one draw per metric."""
    gens = kahler.sp_generators(n)
    return kahler.coset_exponential(rng.normal(scale=0.6, size=(count, len(gens))), gens)


def check_coset_constant(ctx, rng, n):
    count = max(ctx.samples, 100)
    C = kahler.heavenly_check(_coset_matrices(rng, n, count), kahler.symplectic_matrix(n))
    return _worst(C, 1.0), 1e-10, count, (
        f"unit-determinant condition h Om h^T = C Om with C = 1 on {count} "
        f"random exp(v.t) metrics, n = {n}"
    )


def check_det_equality(ctx, rng):
    om = kahler.symplectic_matrix(2)
    count = max(ctx.samples, 100)
    coset = _coset_matrices(rng, 2, count)
    pts = _box_points(((-1.5, 1.5),) * 4, (), 20, ctx.subseed(rng))
    shear = kahler.unit_determinant_shear_field().matrix(pts)
    worst = worst_of(*(_worst(kahler.heavenly_check(h, om), np.real(np.linalg.det(h)))
                       for h in (coset, shear)))
    return worst, 1e-12, count + 20, (
        "for n = 2 the proportionality constant C equals det h"
    )


def check_negative_control(ctx, rng):
    om = kahler.symplectic_matrix(4)
    try:
        kahler.heavenly_check(np.diag([1.0, 1.0, 2.0, 1.0]).astype(complex), om)
        err = 1.0
    except kahler.HeavenlyViolation:
        err = 0.0
    return err, 0.0, 1, (
        "diag(1, 1, 2, 1) must be rejected by the unit-determinant check "
        "(expected failure is detected)"
    )


def check_quaternion_triple(ctx, rng):
    triples = [kahler.triple_at(_coset_matrices(rng, n, 10), kahler.symplectic_matrix(n))
               for n in (2, 4)]
    pts = _box_points(((-1.5, 1.5),) * 4, (), 20, ctx.subseed(rng))
    triples.append(kahler.triple_at(kahler.unit_determinant_shear_field(),
                                    kahler.symplectic_matrix(2), pts))
    worst = worst_of(*(_worst(kahler.quaternion_residual(t)) for t in triples))
    return worst, 1e-10, sum(len(t.g) for t in triples), (
        "I, J, K from passing metrics obey the quaternion algebra "
        "(squares -1, IJ = K, JK = I, KI = J)"
    )


def check_covariant_constancy(ctx, rng):
    om = kahler.symplectic_matrix(2)
    shear = kahler.unit_determinant_shear_field()
    greal = shear.real_metric()
    fJ, fK = kahler.quaternion_form_fields(shear, om)
    pts = _box_points(((-1.5, 1.5),) * 4, (), max(10, ctx.samples // 5),
                      ctx.subseed(rng))
    dJ = geometry.covariant_derivative_02(greal, fJ, pts)
    dK = geometry.covariant_derivative_02(greal, fK, pts)
    worst = worst_of(_worst(dJ + 1j * dK), _worst(dJ - 1j * dK))
    return worst, 1e-8, len(pts), (
        "the J/K pair is covariantly constant for the varying "
        "unit-determinant metric (both J + iK and J - iK)"
    )


def check_covariant_negative_control(ctx, rng):
    om = kahler.symplectic_matrix(2)
    ctrl = kahler.non_unimodular_field()
    greal = ctrl.real_metric()
    fJ, _ = kahler.quaternion_form_fields(ctrl, om)
    pts = _box_points(((-1.5, 1.5),) * 4, (), 10, ctx.subseed(rng))
    dev = _worst(geometry.covariant_derivative_02(greal, fJ, pts))
    err = 0.0 if dev > 1e-3 else 1.0
    return err, 0.0, 10, (
        "varying-determinant control metric must break covariant constancy "
        f"by more than 1e-3 (observed {dev:.2e}; expected failure is detected)"
    )


def check_sp_algebra(ctx, rng):
    om = kahler.symplectic_matrix(2)
    pts = _box_points(((-1.5, 1.5),) * 4, (), max(10, ctx.samples // 5),
                      ctx.subseed(rng))
    X = kahler.x_matrices(kahler.unit_determinant_shear_field(), pts)
    return _worst(kahler.sp_residual(X, om)), 1e-8, len(pts), (
        "derivative matrices 2 (d_p h) h^-1 of a passing metric lie in the "
        "symplectic algebra (X Om + Om X^T = 0)"
    )


# ---------------------------------------------------------------------------
# reduction stages
#
# The toy model and R^8 -> Taub-NUT are two runs of one procedure: restrict
# to a level set, then quotient by the circle fiber.  Each stage below is one
# check, run on ``toy-parent`` and on ``r8-parent``; its arguments are what
# differs between the two reductions.


def _level_points(m, ctx, rng, count):
    """``count`` sampled points of model ``m``'s level chart, as one batch."""
    return _box_points(m.extras["level_box"], m.extras.get("level_exclusions", ()),
                       count, ctx.subseed(rng))


def _level_kinetic(m):
    """The kinetic Lagrangian of ``m``'s level-set metric."""
    return mechanics.QuadraticKinetic(m.extras["level_chart"].names,
                                      m.extras["level_metric"].fn,
                                      name=f"{m.name} level kinetic")


def _level_quotient(m, pts):
    """The orthogonal-projection quotient of ``m``'s level-set metric at ``pts``."""
    return reduction.quotient_metric(m.extras["level_metric"], m.extras["level_fiber"],
                                     m.invariant, pts)


def check_level_pullback(ctx, rng, name, description):
    m = models.build(name, ctx.a)
    pts = _level_points(m, ctx, rng, ctx.samples)
    got = reduction.pullback_metric(m.metric, m.embeddings["level"], pts)
    return _worst(got, m.extras["level_metric"].value(pts)), 1e-10, len(pts), description


def check_quotient_metric(ctx, rng, name, target, description):
    """The quotient metric against ``target(m, pts)``."""
    m = models.build(name, ctx.a)
    pts = _level_points(m, ctx, rng, ctx.samples)
    return _worst(_level_quotient(m, pts), target(m, pts)), 1e-10, len(pts), description


def check_quotient_forms(ctx, rng, name, target, tol, description):
    """Each form of the model, pulled back and quotiented, against the matching
    entry of ``target(m, pts)``."""
    m = models.build(name, ctx.a)
    pts = _level_points(m, ctx, rng, ctx.samples)
    lev = m.embeddings["level"]
    worst = worst_of(*(
        _worst(reduction.quotient_form(reduction.pullback_form(w, lev, pts),
                                       m.fiber_index, m.invariant, pts), want)
        for w, want in zip(m.forms.values(), target(m, pts))))
    return worst, tol, len(pts), description


def check_hamiltonian_equivalence(ctx, rng, name, count, probes, description=None):
    """Constraining the fiber momentum of the level-set kinetic term, checked
    cyclic at ``probes`` of the ``count`` points, gives the quotient metric."""
    m = models.build(name, ctx.a)
    pts = _level_points(m, ctx, rng, count)
    L2 = mechanics.constrain_and_reduce(_level_kinetic(m), m.fiber_index,
                                        probe_points=pts[:probes])
    got = L2.matrix(pts[:, m.invariant])
    return _worst(got, _level_quotient(m, pts)), 1e-12, len(pts), description


def check_cyclic_brackets(ctx, rng, names, count, description):
    """The declared cyclic momenta Poisson-commute with the level-set
    Hamiltonian of each model in ``names``, at ``count`` points each."""
    errors, n_pts = [], 0
    for name in names:
        m = models.build(name, ctx.a)
        L = _level_kinetic(m)
        H = mechanics.hamiltonian_field(L)
        pts = _level_points(m, ctx, rng, count)
        # one draw of (B, dim) is the stream of B draws of dim
        s = mechanics.PhasePoint(pts, rng.normal(size=pts.shape))
        pfs = [mechanics.momentum_field(c, L.dim) for c in m.extras["level_cyclic"]]
        errors.append(_worst(mechanics.poisson_bracket(pfs, H, s)))
        n_pts += len(pts)
    return worst_of(*errors), 1e-12, n_pts, description


# ---------------------------------------------------------------------------
# toy suite


def check_toy_contraction(ctx, rng):
    m = models.build("toy-parent", ctx.a)
    pts = m.sample(ctx.samples, ctx.subseed(rng))
    got = reduction.contract(m.forms["omega"], m.killing["shift"], pts)
    want = np.zeros_like(pts)
    want[:, 0], want[:, 2] = pts[:, 0], m.a
    return _worst(got, want), 1e-12, len(pts), (
        "contraction of the symplectic form with the shift vector gives "
        "r dr + a dx"
    )


def check_toy_killing(ctx, rng):
    m = models.build("toy-parent", ctx.a)
    spec = reduction.ReductionSpec(m.metric, (m.forms["omega"],),
                                   m.killing["shift"], m.embeddings["level"],
                                   m.invariant, m.fiber_index)
    pts = m.sample(max(10, ctx.samples // 5), ctx.subseed(rng))
    kd, closed = spec.validate(pts)
    return worst_of(kd, *closed), 1e-10, len(pts), (
        "shift vector is Killing and its contraction with the form is closed"
    )


def check_toy_moment(ctx, rng):
    m = models.build("toy-parent", ctx.a)
    alpha = reduction.contraction_field(m.forms["omega"], m.killing["shift"])
    base = np.asarray(m.extras["moment_base"])
    mu = m.targets["moment_map"]
    pts = m.sample(ctx.samples, ctx.subseed(rng))
    got = reduction.recover_moment_map(alpha, base, pts, base_value=mu(base))
    return _worst(got, mu(pts.T)), 1e-8, len(pts), (
        "line-integrated moment map matches r^2/2 + a x"
    )


def check_toy_complex_structure(ctx, rng):
    red = models.build("toy-reduced", ctx.a)
    pts = red.sample(max(10, ctx.samples // 5), ctx.subseed(rng))
    gv = red.metric.value(pts)
    I = reduction.complex_structure(gv, red.forms["omega"].value(pts))
    dW = geometry.covariant_derivative_02(red.metric, red.forms["omega"], pts)
    dI = reduction.raise_first_index(gv, dW)
    return worst_of(_worst(I @ I, -np.eye(2)), _worst(dI)), 1e-8, len(pts), (
        "quotient complex structure squares to -1 and is covariantly constant"
    )


def check_toy_curvature(ctx, rng):
    worst = 0.0
    for a in A_SWEEP:
        red = models.build("toy-reduced", a)
        rs = np.concatenate([[1e-6, 1e-4, 1e-2],
                             rng.uniform(0.05, 10.0, size=10), [10.0]])
        got = geometry.curvature_at_radii(red.metric, rs)
        worst = worst_of(worst, _worst(got, [red.targets["curvature"](r) for r in rs]))
    return worst, 1e-6, len(A_SWEEP) * len(rs), (
        "numeric curvature of the reduced surface matches "
        "8 a^4 / (r^2 + a^2)^3 over r in [1e-6, 10], a in {0.5, 1, 2}"
    )


def check_toy_euler(ctx, rng):
    worst = 0.0
    for a in A_SWEEP:
        red = models.build("toy-reduced", a)
        val, quad_err = geometry.euler_characteristic(red.metric, r_scale=a)
        worst = worst_of(worst, abs(val - 2.0) + quad_err)
    return worst, 1e-6, len(A_SWEEP), (
        "total-curvature integral gives Euler characteristic 2 (sphere)"
    )


# ---------------------------------------------------------------------------
# taubnut suite


def check_tn_radius(ctx, rng):
    gh = models.build("gh-flat", ctx.a)
    vc = gh.embeddings["to_monopole"]
    pts = _box_points(gh.extras["cart_box"], gh.extras["cart_exclusions"],
                      ctx.samples, ctx.subseed(rng))
    x = vc.value(pts)
    r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2)
    return _worst(r, gh.targets["radius"](pts)), 1e-10, len(pts), (
        "|x(y)| equals the squared Cartesian radius of y"
    )


def check_tn_gh_metric(ctx, rng):
    gh = models.build("gh-flat", ctx.a)
    vc = gh.embeddings["to_monopole"]
    pts = _box_points(gh.extras["cart_box"], gh.extras["cart_exclusions"],
                      ctx.samples, ctx.subseed(rng))
    got = reduction.pullback_metric(gh.metric, vc, pts)
    return _worst(got, np.eye(4)), 1e-8, len(pts), (
        "monopole-coordinate metric pulls back to the flat Cartesian metric"
    )


def check_tn_gh_triple(ctx, rng):
    gh = models.build("gh-flat", ctx.a)
    inv = gh.embeddings["to_cartesian"]
    pts = gh.sample(ctx.samples, ctx.subseed(rng))
    worst = worst_of(*(
        _worst(reduction.pullback_form(gh.extras["cart_forms"][k], inv, pts),
               form.value(pts))
        for k, form in gh.forms.items()))
    return worst, 1e-8, len(pts), (
        "Cartesian symplectic triple re-expressed in (x, Psi) matches the "
        "monopole-potential closed forms"
    )


def check_tn_curl(ctx, rng):
    pts = _box_points(((-2.0, 2.0),) * 3, (models._string_exclusion(0.4),),
                      ctx.samples, ctx.subseed(rng))
    # fd_oracle's central differences, a batch per shift: dA[i][:, m] = d A_m / d x_i
    dA = []
    for i in range(3):
        h = np.zeros_like(pts)
        h[:, i] = fd_step(pts[:, i])
        dA.append((models.monopole_potential(pts + h) - models.monopole_potential(pts - h))
                  / (2 * h[:, i, None]))
    curl = np.stack([-dA[2][:, 1], dA[2][:, 0], dA[0][:, 1] - dA[1][:, 0]], axis=-1)
    want = [models.MONOPOLE_CURL_SIGN * x / float(np.linalg.norm(x)) ** 3 for x in pts]
    return _worst(curl, np.array(want)), 1e-6, len(pts), (
        "finite-difference curl of the monopole potential is -x/r^3"
    )


def check_tn_moment_gradients(ctx, rng):
    m = models.build("r8-parent", ctx.a)
    pts = _box_points(m.extras["cart_box"], m.extras["cart_exclusions"],
                      ctx.samples, ctx.subseed(rng))
    pairs = (("omega_I", "mu_I"), ("omega_J", "mu_J"), ("omega_K", "mu_K"))
    worst = worst_of(*(
        _worst(reduction.contract(m.extras["cart_forms"][wk], m.extras["cart_killing"],
                                  pts),
               evaluate_jet(m.extras["cart_moments"][mk], pts, order=1).gradient.T)
        for wk, mk in pairs))
    return worst, 1e-8, len(pts), (
        "each contraction i_V omega is the gradient of its moment map"
    )


def check_tn_level_moments(ctx, rng):
    m = models.build("r8-parent", ctx.a)
    lev = m.embeddings["level"]
    pts = _level_points(m, ctx, rng, ctx.samples)
    P = lev.value(pts).T  # one coordinate array per component
    worst = worst_of(*(_worst(m.targets[mk](P)) for mk in ("mu_I", "mu_J", "mu_K")))
    return worst, 1e-12, len(pts), (
        "all three moment maps vanish along the declared level-set embedding"
    )


def check_tn_killing(ctx, rng):
    m = models.build("r8-parent", ctx.a)
    pts = m.sample(max(10, ctx.samples // 5), ctx.subseed(rng))
    dev = geometry.killing_deviation(m.metric, m.killing["G"], pts)
    cpts = _box_points(m.extras["cart_box"], m.extras["cart_exclusions"],
                       max(10, ctx.samples // 5), ctx.subseed(rng))
    cdev = geometry.killing_deviation(m.extras["cart_metric"], m.extras["cart_killing"],
                                      cpts)
    return worst_of(_worst(dev), _worst(cdev)), 1e-10, len(pts) + len(cpts), (
        "the rotation + shift isometry is Killing in both charts"
    )


def check_tn_triple_closed(ctx, rng):
    tn = models.build("taub-nut", ctx.a)
    pts = tn.sample(max(10, ctx.samples // 5), ctx.subseed(rng))
    worst = worst_of(*(_worst(reduction.exterior_derivative(f, pts))
                       for f in tn.forms.values()))
    return worst, 1e-8, len(pts), "quotient triple is closed"


def check_tn_hyperkahler(ctx, rng):
    tn = models.build("taub-nut", ctx.a)
    pts = tn.sample(ctx.samples, ctx.subseed(rng))
    eye = np.eye(4)
    keys = ("omega_I", "omega_J", "omega_K")
    gv = tn.metric.value(pts)
    I, J, K = (reduction.complex_structure(gv, tn.forms[k].value(pts)) for k in keys)
    worst = worst_of(
        _worst(I @ I, -eye), _worst(J @ J, -eye), _worst(K @ K, -eye),
        _worst(I @ J, K), _worst(J @ K, I), _worst(K @ I, J),
        *(_worst(geometry.covariant_derivative_02(tn.metric, f, pts))
          for f in tn.forms.values()))
    return worst, 1e-7, len(pts), (
        "Taub-NUT triple is quaternionic and covariantly constant"
    )


# ---------------------------------------------------------------------------
# mechanics suite


def check_mech_roundtrip(ctx, rng):
    count = max(10, ctx.samples // 2)
    draws = {}  # every draw in stream order, grouped by dimension
    for _ in range(count):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(d, d))
        draws.setdefault(d, []).append((A, rng.uniform(-0.7, 0.7, size=d)))
    errors = []
    for d, pairs in draws.items():
        A, u = map(np.array, zip(*pairs))
        Q, _ = np.linalg.qr(A)  # one stacked factorisation per dimension
        Ms = (Q * np.exp(u)[:, None, :]) @ np.swapaxes(Q, -1, -2)
        Ms = 0.5 * (Ms + np.swapaxes(Ms, -1, -2))
        # configuration k of the batch carries the k-th matrix (entries (B,))
        L = mechanics.QuadraticKinetic([f"q{i}" for i in range(d)],
                                       lambda c, S=np.moveaxis(Ms, 0, -1): S)
        Minv = mechanics.legendre_to_hamiltonian(L, np.zeros((len(Ms), d)))
        errors.append(_worst(geometry._solve(Minv, np.eye(d)), Ms))
    return worst_of(*errors), 1e-12, count, (
        "Legendre transform is an involution on random SPD mass matrices"
    )


def check_mech_toy_matrix(ctx, rng):
    m = models.build("toy-parent", ctx.a)
    a = m.a
    pts = _level_points(m, ctx, rng, ctx.samples)
    Minv = mechanics.legendre_to_hamiltonian(_level_kinetic(m), pts)
    r2 = pts[:, 0] * pts[:, 0]
    want = np.zeros_like(Minv)
    want[:, 0, 0] = 1.0 / (1.0 + r2 / a ** 2)
    want[:, 1, 1] = 1.0 / a ** 2
    want[:, 1, 2] = want[:, 2, 1] = -1.0 / a ** 2
    want[:, 2, 2] = (1.0 + r2 / a ** 2) / r2
    return _worst(Minv, want), 1e-12, len(pts), (
        "toy Hamiltonian kinetic matrix matches the closed-form coefficients"
    )


def check_mech_conserved(ctx, rng):
    return check_cyclic_brackets(
        ctx, rng, ("toy-parent", "r8-parent"), max(5, ctx.samples // 10),
        "declared cyclic momenta Poisson-commute with both model Hamiltonians")


def check_mech_equivalence(ctx, rng):
    worst = worst_of(
        check_hamiltonian_equivalence(ctx, rng, "toy-parent", ctx.samples, 3)[0],
        check_hamiltonian_equivalence(ctx, rng, "r8-parent",
                                      max(10, ctx.samples // 2), 2)[0])
    return worst, 1e-12, 2, (
        "constraining the fiber momentum equals the metric quotient on every "
        "registered reduction model"
    )


def check_mech_singular(ctx, rng):
    L = mechanics.QuadraticKinetic(("u", "v"),
                                   lambda c: [[1.0, 1.0], [None, 1.0]])
    try:
        mechanics.legendre_to_hamiltonian(L, [0.0, 0.0])
        err = 1.0
    except mechanics.DegenerateLagrangianError:
        err = 0.0
    return err, 0.0, 1, (
        "singular mass matrix is rejected (expected failure is detected)"
    )


# ---------------------------------------------------------------------------
# derivative-oracle hygiene


def check_hygiene_jets_vs_fd(ctx, rng):
    worst_g = worst_h = 0.0
    n = 0
    for spec in models.scalar_fields(ctx.a):
        pts = _box_points(spec.box, spec.exclusions, 8, ctx.subseed(rng))
        jet = evaluate_jet(spec.fn, pts)
        ora = fd_oracle(spec.fn, pts, exclusions=spec.exclusions)
        worst_g = worst_of(worst_g, _worst(jet.gradient, ora.gradient))
        worst_h = worst_of(worst_h, _worst(jet.hessian, ora.hessian))
        n += len(pts)
    # gradients judged at 1e-6, second derivatives at 1e-4; scale the latter
    # so a single worst-error number respects both
    err = worst_of(worst_g, worst_h * (1e-6 / 1e-4))
    return err, 1e-6, n, (
        "jet derivatives match central differences on every registered "
        "scalar field (gradient 1e-6, second derivatives 1e-4)"
    )


SUITES = {
    "heavenly": [
        ("heavenly.coset_constant_n2", lambda c, r: check_coset_constant(c, r, 2)),
        ("heavenly.coset_constant_n4", lambda c, r: check_coset_constant(c, r, 4)),
        ("heavenly.det_equality_n2", check_det_equality),
        ("heavenly.negative_control", check_negative_control),
        ("heavenly.quaternion_triple", check_quaternion_triple),
        ("heavenly.covariant_constancy", check_covariant_constancy),
        ("heavenly.covariant_negative_control", check_covariant_negative_control),
        ("heavenly.sp_algebra", check_sp_algebra),
    ],
    "toy": [
        ("toy.contraction", check_toy_contraction),
        ("toy.killing_and_closure", check_toy_killing),
        ("toy.moment_recovery", check_toy_moment),
        ("toy.level_pullback", lambda c, r: check_level_pullback(
            c, r, "toy-parent",
            "pullback onto the zero level set matches the closed-form 3-metric")),
        ("toy.quotient_metric", lambda c, r: check_quotient_metric(
            c, r, "toy-parent",
            lambda m, p: models.build("toy-reduced", m.a).metric.value(p[:, [0, 2]]),
            "orthogonal-projection quotient matches the reduced surface metric")),
        ("toy.quotient_form", lambda c, r: check_quotient_forms(
            c, r, "toy-parent",
            lambda m, p: [models.build("toy-reduced", m.a).forms["omega"]
                          .value(p[:, [0, 2]])],
            1e-10, "fiber components of the pulled-back form cancel and the rest is "
                   "the area form r dr d chi")),
        ("toy.quotient_complex_structure", check_toy_complex_structure),
        ("toy.hamiltonian_equivalence", lambda c, r: check_hamiltonian_equivalence(
            c, r, "toy-parent", c.samples, 3,
            "setting the fiber momentum to zero reproduces the geometric quotient")),
        ("toy.cyclic_brackets", lambda c, r: check_cyclic_brackets(
            c, r, ("toy-parent",), max(10, c.samples // 5),
            "momenta of the cyclic angles Poisson-commute with the Hamiltonian")),
        ("toy.curvature_profile", check_toy_curvature),
        ("toy.euler_characteristic", check_toy_euler),
    ],
    "taubnut": [
        ("taubnut.radius_identity", check_tn_radius),
        ("taubnut.cartesian_metric", check_tn_gh_metric),
        ("taubnut.coordinate_triple", check_tn_gh_triple),
        ("taubnut.monopole_curl", check_tn_curl),
        ("taubnut.moment_gradients", check_tn_moment_gradients),
        ("taubnut.level_moments_vanish", check_tn_level_moments),
        ("taubnut.killing", check_tn_killing),
        ("taubnut.level_pullback", lambda c, r: check_level_pullback(
            c, r, "r8-parent",
            "metric restricted to the triple zero level set matches the "
            "closed-form 5-metric")),
        ("taubnut.quotient_metric", lambda c, r: check_quotient_metric(
            c, r, "r8-parent", lambda m, p: models.taub_nut_metric(p[:, :3], m.a),
            "projecting out the circle fiber of the 5-metric gives the "
            "Taub-NUT closed form")),
        ("taubnut.quotient_triple", lambda c, r: check_quotient_forms(
            c, r, "r8-parent", lambda m, p: models.taub_nut_triple(p[:, :3], m.a),
            1e-8, "pulled-back triple drops its fiber components and equals the flat "
                  "forms with 1/r -> 1/r + 1/a^2")),
        ("taubnut.triple_closed", check_tn_triple_closed),
        ("taubnut.hyperkahler", check_tn_hyperkahler),
        ("taubnut.hamiltonian_equivalence", lambda c, r: check_hamiltonian_equivalence(
            c, r, "r8-parent", max(10, c.samples // 2), 2,
            "Hamiltonian reduction of the 5-chart kinetic term equals the "
            "geometric quotient")),
    ],
    "mechanics": [
        ("mechanics.legendre_roundtrip", check_mech_roundtrip),
        ("mechanics.toy_kinetic_matrix", check_mech_toy_matrix),
        ("mechanics.conserved_momenta", check_mech_conserved),
        ("mechanics.reduction_equivalence", check_mech_equivalence),
        ("mechanics.singular_mass_rejected", check_mech_singular),
    ],
}

SUITES["all"] = (SUITES["heavenly"] + SUITES["toy"] + SUITES["taubnut"]
                 + SUITES["mechanics"]
                 + [("hygiene.jets_vs_finite_differences", check_hygiene_jets_vs_fd)])

SUITE_NAMES = ("all", "heavenly", "toy", "taubnut", "mechanics")


def run_suite(suite, seed=0, samples=50, a=1.0):
    """Run a named suite and return its :class:`RunManifest`.

    A check that raises becomes a failed row: ``max_abs_error`` and
    ``tolerance`` NaN, ``samples`` 0 and ``error`` naming the exception.
    The remaining checks still run.  A bad configuration (``seed < 0``,
    ``samples < 1``, ``a`` not finite and positive) raises ValueError
    before any check runs.
    """
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ctx = CheckContext(seed=int(seed), samples=int(samples), a=models._check_a(a))
    reports = []
    for check_id, fn in SUITES[suite]:
        rng = ctx.rng(check_id)
        t0 = time.perf_counter()
        error = None
        try:
            err, tol, n, description = fn(ctx, rng)
        except Exception as exc:  # one crashing check must not end the run
            err, tol, n = math.nan, math.nan, 0
            description = "the check raised before reporting a result"
            error = f"{type(exc).__name__}: {exc}"
        elapsed = int(round((time.perf_counter() - t0) * 1000.0))
        reports.append(CheckReport(
            check_id=check_id,
            description=description,
            samples=int(n),
            max_abs_error=float(err),
            tolerance=float(tol),
            passed=bool(err <= tol),
            elapsed_ms=elapsed,
            error=error,
        ))
    reports.sort(key=lambda c: c.check_id)
    return RunManifest(
        seed=int(seed),
        samples=int(samples),
        a=float(a),
        a_sweep=A_SWEEP,
        version=__version__,
        checks=tuple(reports),
    )
