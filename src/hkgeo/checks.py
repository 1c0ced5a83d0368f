"""Verification suites over the model registry, with reproducible reports.

:data:`CLAIMS` states every acceptance claim once, as a row
``(check_id, tolerance, description, measure)``; a suite is the rows whose
id starts with its name, and ``all`` is every row.  Every check draws its
own random stream from ``(run seed, crc32(check id))``, so the report for a
fixed seed is bit-stable no matter which subset of checks runs or in what
order.  A measure returns one array of errors whose first axis has one
entry per sampled item (a point, a matrix, a radius, a value of ``a``, a
model) and whose other axes are components; :func:`run_suite` alone reduces
it, to ``max |errors|`` (NaN if any entry is NaN, so a NaN fails its row)
over ``len(errors)`` samples.  "Expected failure" checks (negative
controls) report error 0 when the failure is correctly detected and 1 when
it is not.  A check that
raises is reported as a failed row carrying the exception, and the run
goes on.  Within a run :func:`~hkgeo.models.build` builds each model
once per ``(name, a)`` and hands the same :class:`~hkgeo.models.Model` to
every check that asks for it; the reuse ends with the run, so a check
called on its own builds afresh.
"""

from __future__ import annotations

import math
import time
import zlib

import numpy as np

from . import fields, geometry, kahler, mechanics, models, reduction
from ._record import Frozen
from ._version import __version__
from .jets import evaluate_jet, fd_oracle
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
    and None (absent from the report) when it returned.  In the report a
    non-finite ``max_abs_error`` or ``tolerance`` is None (JSON ``null``).
    """

    __slots__ = ("check_id", "description", "samples", "max_abs_error", "tolerance",
                 "passed", "elapsed_ms", "error")

    def __init__(self, check_id, description, samples, max_abs_error, tolerance, passed,
                 elapsed_ms, error=None):
        self._set(check_id, description, samples, max_abs_error, tolerance, passed,
                  elapsed_ms, error)

    def to_dict(self):
        out = dict(zip(self.__slots__, self._values()))
        for key in ("max_abs_error", "tolerance"):
            out[key] = out[key] if math.isfinite(out[key]) else None
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
                "max_abs_error": {"type": ["number", "null"]},
                "tolerance": {"type": ["number", "null"]},
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


def _side_by_side(*parts):
    """Quantities at the same items, as one ``(items, components)`` array."""
    return np.concatenate([np.reshape(p, (len(p), -1)) for p in parts], axis=1)


def _one_after_another(*blocks):
    """Blocks of different items, one after another, each item reduced to its
    largest absolute component (NaN if any is NaN)."""
    return np.concatenate([np.max(np.abs(np.reshape(b, (len(b), -1))), axis=1)
                           for b in blocks])


def _rejected(exc_type, call):
    """A negative control's one item: 0 when ``call()`` raises ``exc_type``
    (the defect is detected), 1 when it returns."""
    try:
        call()
    except exc_type:
        return np.zeros(1)
    return np.ones(1)


# ---------------------------------------------------------------------------
# heavenly suite

_KBOX = ((-1.5, 1.5),) * 4  # the box of the Kaehler fixtures


def _coset_matrices(rng, n, count):
    """``count`` random coset metrics ``(count, n, n)``; one draw of every
    coefficient, the stream of one draw per metric."""
    gens = kahler.sp_generators(n)
    return kahler.coset_exponential(rng.normal(scale=0.6, size=(count, len(gens))), gens)


def check_coset_constant(ctx, rng, n):
    return kahler.heavenly_check(_coset_matrices(rng, n, max(ctx.samples, 100)),
                                 kahler.symplectic_matrix(n)) - 1.0


def check_det_equality(ctx, rng):
    om = kahler.symplectic_matrix(2)
    coset = _coset_matrices(rng, 2, max(ctx.samples, 100))
    pts = sample_points(SampleSpec(_KBOX, 20, ctx.subseed(rng)))
    shear = kahler.unit_determinant_shear_field().matrix(pts)
    return _one_after_another(*(kahler.heavenly_check(h, om) - np.real(np.linalg.det(h))
                                for h in (coset, shear)))


def check_negative_control(ctx, rng):
    h = np.diag([1.0, 1.0, 2.0, 1.0]).astype(complex)
    return _rejected(kahler.HeavenlyViolation,
                     lambda: kahler.heavenly_check(h, kahler.symplectic_matrix(4)))


def check_quaternion_triple(ctx, rng):
    triples = [kahler.triple_at(_coset_matrices(rng, n, 10), kahler.symplectic_matrix(n))
               for n in (2, 4)]
    pts = sample_points(SampleSpec(_KBOX, 20, ctx.subseed(rng)))
    triples.append(kahler.triple_at(kahler.unit_determinant_shear_field().matrix(pts),
                                    kahler.symplectic_matrix(2)))
    return _one_after_another(*(kahler.quaternion_defects(t.I, t.J, t.K) for t in triples))


def check_covariant_constancy(ctx, rng):
    shear = kahler.unit_determinant_shear_field()
    fJ, fK = kahler.quaternion_form_fields(shear, kahler.symplectic_matrix(2))
    pts = sample_points(SampleSpec(_KBOX, max(10, ctx.samples // 5), ctx.subseed(rng)))
    dJ, dK = geometry.covariant_derivative_02(shear, [fJ, fK], pts)
    return _side_by_side(dJ + 1j * dK, dJ - 1j * dK)


def check_covariant_negative_control(ctx, rng):
    ctrl = kahler.non_unimodular_field()
    fJ, _ = kahler.quaternion_form_fields(ctrl, kahler.symplectic_matrix(2))
    pts = sample_points(SampleSpec(_KBOX, 10, ctx.subseed(rng)))
    dev = np.max(np.abs(geometry.covariant_derivative_02(ctrl, fJ, pts)))
    return np.full(len(pts), 0.0 if dev > 1e-3 else 1.0)


def check_sp_algebra(ctx, rng):
    pts = sample_points(SampleSpec(_KBOX, max(10, ctx.samples // 5), ctx.subseed(rng)))
    X = kahler.x_matrices(kahler.unit_determinant_shear_field(), pts)
    return kahler.sp_residual(X, kahler.symplectic_matrix(2))


# ---------------------------------------------------------------------------
# reduction stages
#
# The toy model and R^8 -> Taub-NUT are two runs of one procedure: restrict
# to a level set, then quotient by the circle fiber.  Each stage below is one
# check, run on ``toy-parent`` and on ``r8-parent``; its arguments are what
# differs between the two reductions.


def _level_quotient(m, pts):
    """The orthogonal-projection quotient of ``m``'s level-set metric at ``pts``."""
    return reduction.quotient_metric(m.level.metric, m.fiber_index, pts)


def _kept(m, pts):
    """The level-set points ``pts`` on the coordinates ``m``'s quotient keeps:
    every one but the fiber's."""
    return pts[:, reduction._kept(m.level.chart.dim, m.fiber_index)]


def check_level_pullback(ctx, rng, name):
    m = models.build(name, ctx.a)
    pts = m.level.sample(ctx.samples, ctx.subseed(rng))
    got = reduction.pullback_metric(m.metric, m.embeddings["level"], pts)
    return got - m.level.metric.value(pts)


def check_quotient_metric(ctx, rng, name, target):
    """The quotient metric against ``target(m, q)`` at the kept coordinates
    ``q`` of the level-set points."""
    m = models.build(name, ctx.a)
    pts = m.level.sample(ctx.samples, ctx.subseed(rng))
    return _level_quotient(m, pts) - target(m, _kept(m, pts))


def check_quotient_forms(ctx, rng, name, target):
    """Each form of the model, pulled back and quotiented, against the matching
    entry of ``target(m, q)`` at the kept coordinates ``q`` of the level-set
    points."""
    m = models.build(name, ctx.a)
    pts = m.level.sample(ctx.samples, ctx.subseed(rng))
    pulled = reduction.pullback_form(list(m.forms.values()), m.embeddings["level"], pts)
    return _side_by_side(*(
        reduction.quotient_form(w, m.fiber_index, pts) - want
        for w, want in zip(pulled, target(m, _kept(m, pts)))))


def check_hamiltonian_equivalence(ctx, rng, name, count, probes):
    """Constraining the fiber momentum of the level-set kinetic term, checked
    cyclic at ``probes`` of the ``count`` points, gives the quotient metric."""
    m = models.build(name, ctx.a)
    pts = m.level.sample(count, ctx.subseed(rng))
    g2 = mechanics.constrain_and_reduce(m.level.metric, m.fiber_index,
                                        probe_points=pts[:probes])
    return g2.value(_kept(m, pts)) - _level_quotient(m, pts)


def check_cyclic_brackets(ctx, rng, names, count):
    """The declared cyclic momenta Poisson-commute with the level-set
    Hamiltonian of each model in ``names``, at ``count`` points each."""
    brackets = []
    for name in names:
        m = models.build(name, ctx.a)
        H = mechanics.hamiltonian_field(m.level.metric)
        pts = m.level.sample(count, ctx.subseed(rng))
        # one draw of (B, dim) is the stream of B draws of dim
        s = mechanics.PhasePoint(pts, rng.normal(size=pts.shape))
        pfs = [mechanics.momentum_field(c, m.level.chart.dim) for c in m.level.cyclic]
        brackets.append(mechanics.poisson_bracket(pfs, H, s).T)  # (k, B) -> (B, k)
    return _one_after_another(*brackets)


# ---------------------------------------------------------------------------
# toy suite


def check_toy_contraction(ctx, rng):
    m = models.build("toy-parent", ctx.a)
    pts = m.sample(ctx.samples, ctx.subseed(rng))
    got = reduction.contraction_field(m.forms["omega"], m.killing["shift"]).value(pts)
    want = np.zeros_like(pts)
    want[:, 0], want[:, 2] = pts[:, 0], m.a
    return got - want


def check_toy_killing(ctx, rng):
    m = models.build("toy-parent", ctx.a)
    V = m.killing["shift"]
    pts = m.sample(max(10, ctx.samples // 5), ctx.subseed(rng))
    alpha = reduction.contraction_field(m.forms["omega"], V)
    return _side_by_side(geometry.killing_deviation(m.metric, V, pts),
                         reduction.exterior_derivative(alpha, pts))


def check_toy_moment(ctx, rng):
    m = models.build("toy-parent", ctx.a)
    alpha = reduction.contraction_field(m.forms["omega"], m.killing["shift"])
    base = np.asarray(m.targets["moment_base"])
    mu = m.targets["moment_map"]
    pts = m.sample(ctx.samples, ctx.subseed(rng))
    got = reduction.recover_moment_map(alpha, base, pts, base_value=mu(base))
    return got - mu(pts.T)


def check_toy_complex_structure(ctx, rng):
    red = models.build("toy-reduced", ctx.a)
    pts = red.sample(max(10, ctx.samples // 5), ctx.subseed(rng))
    gv = red.metric.value(pts)
    I = reduction.complex_structure(gv, red.forms["omega"].value(pts))
    dW = geometry.covariant_derivative_02(red.metric, red.forms["omega"], pts)
    dI = reduction.raise_first_index(gv, dW)
    return _side_by_side(I @ I + np.eye(2), dI)


def check_toy_curvature(ctx, rng):
    sweep = []
    for a in A_SWEEP:
        red = models.build("toy-reduced", a)
        rs = np.concatenate([[1e-6, 1e-4, 1e-2],
                             rng.uniform(0.05, 10.0, size=10), [10.0]])
        got = geometry.curvature_at_radii(red.metric, rs)
        sweep.append(got - np.array([red.targets["curvature"](r) for r in rs]))
    return _one_after_another(*sweep)


def check_toy_euler(ctx, rng):
    euler = [geometry.euler_characteristic(models.build("toy-reduced", a).metric, r_scale=a)
             for a in A_SWEEP]
    return np.array([abs(val - 2.0) + quad_err for val, quad_err in euler])


# ---------------------------------------------------------------------------
# taubnut suite


def check_tn_radius(ctx, rng):
    gh = models.build("gh-flat", ctx.a)
    pts = gh.cartesian.sample(ctx.samples, ctx.subseed(rng))
    x = gh.embeddings["to_monopole"].value(pts)
    return models._radius(x[:, 0], x[:, 1], x[:, 2]) - gh.targets["radius"](pts)


def check_tn_gh_metric(ctx, rng):
    gh = models.build("gh-flat", ctx.a)
    pts = gh.cartesian.sample(ctx.samples, ctx.subseed(rng))
    got = reduction.pullback_metric(gh.metric, gh.embeddings["to_monopole"], pts)
    return got - np.eye(4)


def check_tn_gh_triple(ctx, rng):
    gh = models.build("gh-flat", ctx.a)
    pts = gh.sample(ctx.samples, ctx.subseed(rng))
    pulled = reduction.pullback_form([gh.cartesian.forms[k] for k in gh.forms],
                                     gh.embeddings["to_cartesian"], pts)
    return _side_by_side(*(w - f.value(pts) for w, f in zip(pulled, gh.forms.values())))


def check_tn_curl(ctx, rng):
    pts = sample_points(SampleSpec(((-2.0, 2.0),) * 3, ctx.samples, ctx.subseed(rng),
                                   (models._string_exclusion(0.4),)))
    # fd_oracle's central differences of the nonzero components m = 0, 1:
    # dA[m][i] = d A_m / d x_i, first order (the axial rows of its stencil)
    dA = [fd_oracle(lambda c, m=m: models.monopole_potential(np.stack(c, axis=-1))[:, m],
                    pts, order=1).gradient for m in range(2)]
    curl = np.stack([-dA[1][2], dA[0][2], dA[1][0] - dA[0][1]], axis=-1)
    return curl - models.MONOPOLE_CURL_SIGN * pts / models._radius(*pts.T)[:, None] ** 3


def check_tn_moment_gradients(ctx, rng):
    cart = models.build("r8-parent", ctx.a).cartesian
    pts = cart.sample(ctx.samples, ctx.subseed(rng))
    return _side_by_side(*(
        reduction.contraction_field(cart.forms[f"omega_{k}"], cart.killing["G"]).value(pts)
        - evaluate_jet(cart.targets[f"mu_{k}"], pts, order=1).gradient.T  # (d, B) -> (B, d)
        for k in "IJK"))


def check_tn_level_moments(ctx, rng):
    m = models.build("r8-parent", ctx.a)
    pts = m.level.sample(ctx.samples, ctx.subseed(rng))
    P = m.embeddings["level"].value(pts).T  # one coordinate array per component
    return _side_by_side(*(m.targets[mk](P) for mk in ("mu_I", "mu_J", "mu_K")))


def check_tn_killing(ctx, rng):
    m = models.build("r8-parent", ctx.a)
    return _one_after_another(*(  # the 8-chart, then its Cartesian picture
        geometry.killing_deviation(c.metric, c.killing["G"],
                                   c.sample(max(10, ctx.samples // 5), ctx.subseed(rng)))
        for c in (m, m.cartesian)))


def check_tn_triple_closed(ctx, rng):
    tn = models.build("taub-nut", ctx.a)
    pts = tn.sample(max(10, ctx.samples // 5), ctx.subseed(rng))
    return _side_by_side(*(reduction.exterior_derivative(f, pts) for f in tn.forms.values()))


def check_tn_hyperkahler(ctx, rng):
    tn = models.build("taub-nut", ctx.a)
    pts = tn.sample(ctx.samples, ctx.subseed(rng))
    forms = list(tn.forms.values())
    nabla = geometry.covariant_derivative_02(tn.metric, forms, pts)
    gv = tn.metric.value(pts)
    I, J, K = (reduction.complex_structure(gv, f.value(pts)) for f in forms)
    return _side_by_side(kahler.quaternion_defects(I, J, K), *nabla)


# ---------------------------------------------------------------------------
# mechanics suite


def check_mech_roundtrip(ctx, rng):
    count = max(10, ctx.samples // 2)
    draws = {}  # every draw in stream order, grouped by dimension
    for _ in range(count):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(d, d))
        draws.setdefault(d, []).append((A, rng.uniform(-0.7, 0.7, size=d)))
    blocks = []
    for d, pairs in draws.items():
        A, u = map(np.array, zip(*pairs))
        Q, _ = np.linalg.qr(A)  # one stacked factorisation per dimension
        Ms = (Q * np.exp(u)[:, None, :]) @ np.swapaxes(Q, -1, -2)
        Ms = 0.5 * (Ms + np.swapaxes(Ms, -1, -2))
        # configuration k of the batch carries the k-th matrix (entries (B,))
        g = fields.MetricField(fields.Chart(tuple(f"q{i}" for i in range(d))),
                               lambda c, S=Ms.transpose(1, 2, 0): S)
        Minv = mechanics.legendre_to_hamiltonian(g, np.zeros((len(Ms), d)))
        blocks.append(geometry._solve(Minv, np.eye(d)) - Ms)
    return _one_after_another(*blocks)


def check_mech_toy_matrix(ctx, rng):
    m = models.build("toy-parent", ctx.a)
    a = m.a
    pts = m.level.sample(ctx.samples, ctx.subseed(rng))
    Minv = mechanics.legendre_to_hamiltonian(m.level.metric, pts)
    r2 = pts[:, 0] * pts[:, 0]
    want = np.zeros_like(Minv)
    want[:, 0, 0] = 1.0 / (1.0 + r2 / a ** 2)
    want[:, 1, 1] = 1.0 / a ** 2
    want[:, 1, 2] = want[:, 2, 1] = -1.0 / a ** 2
    want[:, 2, 2] = (1.0 + r2 / a ** 2) / r2
    return Minv - want


def check_mech_equivalence(ctx, rng):
    # one item per model, its largest error over all its points
    return _one_after_another(
        check_hamiltonian_equivalence(ctx, rng, "toy-parent", ctx.samples, 3)[None],
        check_hamiltonian_equivalence(ctx, rng, "r8-parent",
                                      max(10, ctx.samples // 2), 2)[None])


def check_mech_singular(ctx, rng):
    g = fields.MetricField(fields.Chart(("u", "v")), lambda c: [[1.0, 1.0], [None, 1.0]])
    return _rejected(mechanics.DegenerateLagrangianError,
                     lambda: mechanics.legendre_to_hamiltonian(g, [0.0, 0.0]))


# ---------------------------------------------------------------------------
# derivative-oracle hygiene


def check_hygiene_jets_vs_fd(ctx, rng):
    blocks = []
    for spec in models.scalar_fields(ctx.a):
        pts = sample_points(SampleSpec(spec.box, 8, ctx.subseed(rng), spec.exclusions))
        jet = evaluate_jet(spec.fn, pts)
        ora = fd_oracle(spec.fn, pts, exclusions=spec.exclusions)
        # gradients judged at 1e-6, second derivatives at 1e-4; scale the
        # latter so a single worst-error number respects both.  Both come
        # point axis last: (d, B) and (d, d, B).
        blocks.append(_side_by_side(
            (jet.gradient - ora.gradient).T,
            (jet.hessian - ora.hessian).transpose(2, 0, 1) * (1e-6 / 1e-4)))
    return _one_after_another(*blocks)


# ---------------------------------------------------------------------------
# the claims

#: ``(check_id, tolerance, description, measure)`` of every check, in the
#: order ``all`` runs them.  ``measure(ctx, rng)`` returns its errors, one
#: entry of the first axis per sampled item; ``{samples}`` in a description
#: is the number of items.
CLAIMS = [
    ("heavenly.coset_constant_n2", 1e-10,
     "unit-determinant condition h Om h^T = C Om with C = 1 on {samples} "
     "random exp(v.t) metrics, n = 2",
     lambda c, r: check_coset_constant(c, r, 2)),
    ("heavenly.coset_constant_n4", 1e-10,
     "unit-determinant condition h Om h^T = C Om with C = 1 on {samples} "
     "random exp(v.t) metrics, n = 4",
     lambda c, r: check_coset_constant(c, r, 4)),
    ("heavenly.det_equality_n2", 1e-12,
     "for n = 2 the proportionality constant C equals det h", check_det_equality),
    ("heavenly.negative_control", 0.0,
     "diag(1, 1, 2, 1) must be rejected by the unit-determinant check "
     "(expected failure is detected)", check_negative_control),
    ("heavenly.quaternion_triple", 1e-10,
     "I, J, K from passing metrics obey the quaternion algebra "
     "(squares -1, IJ = K, JK = I, KI = J)", check_quaternion_triple),
    ("heavenly.covariant_constancy", 1e-8,
     "the J/K pair is covariantly constant for the varying "
     "unit-determinant metric (both J + iK and J - iK)", check_covariant_constancy),
    ("heavenly.covariant_negative_control", 0.0,
     "varying-determinant control metric must break covariant constancy "
     "by more than 1e-3 (expected failure is detected)",
     check_covariant_negative_control),
    ("heavenly.sp_algebra", 1e-8,
     "derivative matrices 2 (d_p h) h^-1 of a passing metric lie in the "
     "symplectic algebra (X Om + Om X^T = 0)", check_sp_algebra),
    ("toy.contraction", 1e-12,
     "contraction of the symplectic form with the shift vector gives r dr + a dx",
     check_toy_contraction),
    ("toy.killing_and_closure", 1e-10,
     "shift vector is Killing and its contraction with the form is closed",
     check_toy_killing),
    ("toy.moment_recovery", 1e-8,
     "line-integrated moment map matches r^2/2 + a x", check_toy_moment),
    ("toy.level_pullback", 1e-10,
     "pullback onto the zero level set matches the closed-form 3-metric",
     lambda c, r: check_level_pullback(c, r, "toy-parent")),
    ("toy.quotient_metric", 1e-10,
     "orthogonal-projection quotient matches the reduced surface metric",
     lambda c, r: check_quotient_metric(c, r, "toy-parent", lambda m, q: models.build(
         "toy-reduced", m.a).metric.value(q))),
    ("toy.quotient_form", 1e-10,
     "fiber components of the pulled-back form cancel and the rest is "
     "the area form r dr d chi",
     lambda c, r: check_quotient_forms(c, r, "toy-parent", lambda m, q: [models.build(
         "toy-reduced", m.a).forms["omega"].value(q)])),
    ("toy.quotient_complex_structure", 1e-8,
     "quotient complex structure squares to -1 and is covariantly constant",
     check_toy_complex_structure),
    ("toy.hamiltonian_equivalence", 1e-12,
     "setting the fiber momentum to zero reproduces the geometric quotient",
     lambda c, r: check_hamiltonian_equivalence(c, r, "toy-parent", c.samples, 3)),
    ("toy.cyclic_brackets", 1e-12,
     "momenta of the cyclic angles Poisson-commute with the Hamiltonian",
     lambda c, r: check_cyclic_brackets(c, r, ("toy-parent",), max(10, c.samples // 5))),
    ("toy.curvature_profile", 1e-6,
     "numeric curvature of the reduced surface matches "
     "8 a^4 / (r^2 + a^2)^3 over r in [1e-6, 10], a in {0.5, 1, 2}", check_toy_curvature),
    ("toy.euler_characteristic", 1e-6,
     "total-curvature integral gives Euler characteristic 2 (sphere)", check_toy_euler),
    ("taubnut.radius_identity", 1e-10,
     "|x(y)| equals the squared Cartesian radius of y", check_tn_radius),
    ("taubnut.cartesian_metric", 1e-8,
     "monopole-coordinate metric pulls back to the flat Cartesian metric",
     check_tn_gh_metric),
    ("taubnut.coordinate_triple", 1e-8,
     "Cartesian symplectic triple re-expressed in (x, Psi) matches the "
     "monopole-potential closed forms", check_tn_gh_triple),
    ("taubnut.monopole_curl", 1e-6,
     "finite-difference curl of the monopole potential is -x/r^3", check_tn_curl),
    ("taubnut.moment_gradients", 1e-8,
     "each contraction i_V omega is the gradient of its moment map",
     check_tn_moment_gradients),
    ("taubnut.level_moments_vanish", 1e-12,
     "all three moment maps vanish along the declared level-set embedding",
     check_tn_level_moments),
    ("taubnut.killing", 1e-10,
     "the rotation + shift isometry is Killing in both charts", check_tn_killing),
    ("taubnut.level_pullback", 1e-10,
     "metric restricted to the triple zero level set matches the closed-form 5-metric",
     lambda c, r: check_level_pullback(c, r, "r8-parent")),
    ("taubnut.quotient_metric", 1e-10,
     "projecting out the circle fiber of the 5-metric gives the Taub-NUT closed form",
     lambda c, r: check_quotient_metric(
         c, r, "r8-parent", lambda m, q: models.taub_nut_metric(q[:, :3], m.a))),
    ("taubnut.quotient_triple", 1e-8,
     "pulled-back triple drops its fiber components and equals the flat "
     "forms with 1/r -> 1/r + 1/a^2",
     lambda c, r: check_quotient_forms(c, r, "r8-parent", lambda m, q: [
         w.value(q) for w in models.build("taub-nut", m.a).forms.values()])),
    ("taubnut.triple_closed", 1e-8, "quotient triple is closed", check_tn_triple_closed),
    ("taubnut.hyperkahler", 1e-7,
     "Taub-NUT triple is quaternionic and covariantly constant", check_tn_hyperkahler),
    ("taubnut.hamiltonian_equivalence", 1e-12,
     "Hamiltonian reduction of the 5-chart kinetic term equals the geometric quotient",
     lambda c, r: check_hamiltonian_equivalence(
         c, r, "r8-parent", max(10, c.samples // 2), 2)),
    ("mechanics.legendre_roundtrip", 1e-12,
     "Legendre transform is an involution on random SPD mass matrices",
     check_mech_roundtrip),
    ("mechanics.toy_kinetic_matrix", 1e-12,
     "toy Hamiltonian kinetic matrix matches the closed-form coefficients",
     check_mech_toy_matrix),
    ("mechanics.conserved_momenta", 1e-12,
     "declared cyclic momenta Poisson-commute with both model Hamiltonians",
     lambda c, r: check_cyclic_brackets(c, r, ("toy-parent", "r8-parent"),
                                        max(5, c.samples // 10))),
    ("mechanics.reduction_equivalence", 1e-12,
     "constraining the fiber momentum equals the metric quotient on every "
     "registered reduction model", check_mech_equivalence),
    ("mechanics.singular_mass_rejected", 0.0,
     "singular mass matrix is rejected (expected failure is detected)",
     check_mech_singular),
    ("hygiene.jets_vs_finite_differences", 1e-6,
     "jet derivatives match central differences on every registered "
     "scalar field (gradient 1e-6, second derivatives 1e-4)", check_hygiene_jets_vs_fd),
]

SUITE_NAMES = ("all", "heavenly", "toy", "taubnut", "mechanics")

#: Each suite's rows of :data:`CLAIMS`, chosen by the prefix of the check id.
SUITES = {suite: [row for row in CLAIMS if suite == "all" or row[0].startswith(suite + ".")]
          for suite in SUITE_NAMES}


def run_suite(suite, seed=0, samples=50, a=1.0):
    """Run a named suite and return its :class:`RunManifest`.

    A check that raises becomes a failed row that keeps its declared
    tolerance and description (``{samples}`` filled by 0): ``max_abs_error``
    NaN, ``samples`` 0 and ``error`` naming the exception.  The remaining
    checks still run.  A bad configuration (``seed < 0``,
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
    token = models._built.set({})
    try:
        for check_id, tol, description, measure in SUITES[suite]:
            rng = ctx.rng(check_id)
            t0 = time.perf_counter()
            error = None
            try:
                errors = measure(ctx, rng)
                err, n = float(np.max(np.abs(errors))), len(errors)
            except Exception as exc:  # one crashing check must not end the run
                err, n = math.nan, 0
                error = f"{type(exc).__name__}: {exc}"
            elapsed = int(round((time.perf_counter() - t0) * 1000.0))
            reports.append(CheckReport(check_id, description.replace("{samples}", str(n)),
                                       int(n), float(err), float(tol), bool(err <= tol),
                                       elapsed, error))
    finally:
        models._built.reset(token)
    reports.sort(key=lambda c: c.check_id)
    return RunManifest(int(seed), int(samples), float(a), A_SWEEP, __version__,
                       tuple(reports))
