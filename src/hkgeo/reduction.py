"""Symplectic reduction toolkit: contractions, moment maps, pullbacks and
quotients.

The pipeline implemented here is the standard one: contract a closed 2-form
with a Killing vector, integrate the resulting exact 1-form to a moment
map, restrict to its zero level set through an explicit embedding, and
project out the fiber direction.  Metrics descend by orthogonal projection

    g_red(U, W) = g(U, W) - g(U, V) g(W, V) / g(V, V)

restricted to the invariant coordinates (the coordinate-free form of
completing the square on the fiber and dropping it); 2-forms descend by
simply keeping their invariant block, which is only legitimate when every
fiber component cancels -- a condition that is checked, not assumed.

Coefficient conventions follow :class:`~hkgeo.fields.FormField`: a 2-form
is the antisymmetric matrix of displayed wedge coefficients, and the
contraction is ``(i_V w)_M = w_MN V^N``, one degree-1 field
(:func:`contraction_field`) whose ``value`` gives it at points.
:func:`quotient_metric` takes fields too, the level-set metric and the
fiber vector; :func:`quotient_form` takes the values of a pulled-back form.

A reduction is not bundled here: its data is a
:class:`~hkgeo.models.Model` (parent metric and forms, ``killing``, the
``embeddings["level"]`` map, ``fiber_index``, ``invariant`` and the level
set ``level``), whose pieces the functions below take.  The level-set
metric that :func:`quotient_metric` projects is the same
:class:`~hkgeo.fields.MetricField` that :func:`hkgeo.mechanics.constrain_and_reduce`
reduces as a kinetic term.

Every pointwise operation here takes one point ``(d,)`` or a batch
``(B, d)`` (matrices and tensors with a leading point axis where values
are passed in), puts the point axis of a batch first on its output and
names the first failing point of a batch in its errors.

The pullbacks guard their map's Jacobian: a non-finite one is an error,
and full column rank is certified by one Cholesky factorisation of
``J^T J`` per stack, singular values being computed only for a stack the
certificate cannot clear.  :func:`pullback_form` also takes a list of
forms, which share one guarded Jacobian.
"""

from __future__ import annotations

import warnings
import numpy as np

from .fields import FormField, _triangle
from .geometry import DivergenceError, _certified_cholesky, _solve
from .jets import EvaluationError, first_failure
from .quadrature import integrate

__all__ = [
    "NotExactError",
    "DegenerateFiberError",
    "ObstructionError",
    "DegeneratePullbackWarning",
    "contraction_field",
    "exterior_derivative",
    "recover_moment_map",
    "pullback_metric",
    "pullback_form",
    "quotient_metric",
    "quotient_form",
    "complex_structure",
    "raise_first_index",
]


class NotExactError(ValueError):
    """A 1-form that must be closed/exact measurably is not."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateFiberError(ValueError):
    """The fiber direction has non-positive norm; the quotient metric is undefined."""


class ObstructionError(ValueError):
    """A form has non-cancelling fiber components and does not descend."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegeneratePullbackWarning(UserWarning):
    """Jacobian of the map is rank deficient; the pullback is degenerate."""


def contraction_field(form, V, name=""):
    """``i_V w`` of a 2-form field and a :class:`~hkgeo.fields.VectorFieldR`
    on the same chart, as a jet-capable degree-1 field."""
    if form.degree != 2:
        raise ValueError("contraction is defined here for degree-2 forms")
    d = form.dim

    def fn(coords):
        # w_MN V^N over the strict upper triangle, with w_NM = -w_MN; each
        # row still sums in the order N = 0, 1, ..., and exact zeros are skipped
        v = V.fn(coords)
        out = [0.0] * d
        for M, N, w in _triangle(form.fn(coords), -1):
            if not (isinstance(w, float) and w == 0.0):
                out[M] = out[M] + w * v[N]
                out[N] = out[N] - w * v[M]
        return out

    return FormField(form.chart, 1, fn, name=name or f"i_V {form.name}")


def exterior_derivative(form, p):
    """Coordinate exterior derivative at ``p``.

    Degree 1 returns the antisymmetric matrix ``d_M a_N - d_N a_M``;
    degree 2 returns the rank-3 cyclic sum
    ``d_M w_NP + d_N w_PM + d_P w_MN``.  Either vanishes identically iff
    the form is closed, which is all the callers test.
    """
    _, D1, _ = form.jet(p, order=1)
    if form.degree == 1:
        return D1 - np.swapaxes(D1, -1, -2)
    return D1 + np.einsum("...npm->...mnp", D1) + np.einsum("...pmn->...mnp", D1)


#: Largest error estimate of a segment's line integral that
#: :func:`recover_moment_map` accepts.
MOMENT_QUAD_TOL = 1e-9


def recover_moment_map(alpha, base, p, base_value=0.0):
    """Integrate an exact 1-form along the straight segments ``base -> p``.

    ``p`` is one point ``(d,)``, giving a float, or a batch ``(B, d)``,
    giving one value per segment: ``base_value + integral``, the potential
    normalised to the declared value at ``base``.  Closedness of ``alpha``
    is verified first at five points of each segment, in one batch (a
    residual above ``1e-6``, or NaN, raises :class:`NotExactError`).
    All segments share the parameter ``t in [0, 1]``, so each refinement
    round of :func:`hkgeo.quadrature.integrate` evaluates ``alpha`` on every
    segment's nodes in one call; each segment keeps its own subdivision and
    error estimate, and one whose estimate exceeds :data:`MOMENT_QUAD_TOL`,
    or that did not converge, raises :class:`~hkgeo.geometry.DivergenceError`.
    Errors name the first bad segment of a batch.
    """
    base = np.asarray(base, dtype=float)
    p = np.asarray(p, dtype=float)
    if base.shape != p.shape[-1:]:
        raise ValueError("base and target points live on different charts")
    delta = np.atleast_2d(p) - base  # (B, d)

    def segment(k):
        return "" if p.ndim == 1 else f" of segment {k} (to {p[k].tolist()})"

    ts = np.linspace(0.0, 1.0, 5)
    probes = base + ts[:, None] * delta[:, None, :]  # (B, 5, d)
    res = np.max(np.abs(exterior_derivative(alpha, probes.reshape(-1, base.size))),
                 axis=(-2, -1)).reshape(len(delta), len(ts))
    failure = first_failure(res <= 1e-6)  # written so that NaN fails
    if failure is not None:
        k, i = divmod(failure[0], len(ts))
        raise NotExactError(f"form is not closed along the path{segment(k)} (residual "
                            f"{res[k, i]:.3e} at t={ts[i]:.2f})", residual=float(res[k, i]))

    def integrand(t):  # nodes (n,) -> (n, B), one field call for all segments
        nodes = base + t[:, None, None] * delta  # (n, B, d)
        a = alpha.value(nodes.reshape(-1, base.size)).reshape(nodes.shape)
        return np.sum(a * delta, axis=-1)

    out = integrate(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    failure = first_failure((out.error <= MOMENT_QUAD_TOL) & out.converged)  # NaN fails
    if failure is not None:
        k = failure[0]
        raise DivergenceError(
            f"line integral{segment(k)} has error estimate {out.error[k]:.3e} "
            f"(tolerance {MOMENT_QUAD_TOL:.1e}"
            f"{'' if out.converged[k] else ', not converged'})")
    value = base_value + out.value
    return float(value[0]) if p.ndim == 1 else value


def _jacobian_checked(phi, p):
    """``(q, J)``: the image ``q = phi(p)`` and the Jacobian ``J[..., M, m] =
    d phi^M / d x^m`` from one ``phi.jet(p, order=1)``; warns at the first
    rank-deficient point.

    A non-finite Jacobian raises :class:`~hkgeo.jets.EvaluationError` naming
    the first such point.  One stacked Cholesky factorisation of ``J^T J``
    certifies full column rank (:func:`hkgeo.geometry._certified_cholesky`
    with ``c = 1e-12``: ``sigma_min / sigma_max >= 1e-6``, far above the
    ``max(M, N) eps`` of ``np.linalg.matrix_rank``); only a stack it cannot
    clear is judged by ``matrix_rank``, which words every warning.
    """
    q, D1, _ = phi.jet(p, order=1)
    J = np.ascontiguousarray(np.swapaxes(D1, -1, -2))
    failure = first_failure(np.isfinite(J).all(axis=(-2, -1)), p)
    if failure is not None:
        raise EvaluationError(f"non-finite jacobian of {phi.name or 'map'}{failure[1]}",
                              point=failure[0])
    if _certified_cholesky(np.swapaxes(J, -1, -2) @ J, 1e-12)[1]:  # sigma ratio 1e-6
        return q, J
    failure = first_failure(np.linalg.matrix_rank(J) >= phi.source.dim, p)
    if failure is not None:
        warnings.warn(f"jacobian of {phi.name or 'map'} is rank deficient{failure[1]}",
                      DegeneratePullbackWarning, stacklevel=3)
    return q, J


def pullback_metric(g, phi, p):
    """``(phi* g)_mn = d_m phi^M d_n phi^N g_MN`` at the source point ``p``."""
    q, J = _jacobian_checked(phi, p)
    return np.swapaxes(J, -1, -2) @ g.value(q) @ J


def pullback_form(form, phi, p):
    """Pull a 1- or 2-form on the target back through ``phi``.

    ``form`` may be a list of forms: they share one guarded Jacobian and its
    image point, and their pullbacks come back as a list, in order.
    """
    q, J = _jacobian_checked(phi, p)
    Jt = np.swapaxes(J, -1, -2)
    out = [(Jt @ w.value(q)[..., None])[..., 0] if w.degree == 1 else Jt @ w.value(q) @ J
           for w in (form if isinstance(form, list) else [form])]
    return out if isinstance(form, list) else out[0]


def quotient_metric(g, V, invariant, p):
    """Project out the fiber direction of ``V`` and keep the invariant block.

    ``g`` is the level-set :class:`~hkgeo.fields.MetricField` and ``V`` the
    fiber :class:`~hkgeo.fields.VectorFieldR`.  ``p`` is one point or a
    batch ``(B, d)``, for which the result is ``(B, k, k)``.  Raises
    :class:`DegenerateFiberError` unless ``g(V, V) > 0`` (so also on NaN)
    at every point, naming the first point where it fails.
    """
    gv, v = g.value(p), V.value(p)
    gu = (gv @ v[..., None])[..., 0]
    gvv = (v[..., None, :] @ gu[..., None])[..., 0, 0]
    failure = first_failure(gvv > 0.0, p)  # written so that NaN fails
    if failure is not None:
        k, where = failure
        raise DegenerateFiberError(
            f"fiber norm g(V, V) = {gvv[() if k is None else k]:.3e}{where}")
    proj = gv - gu[..., :, None] * gu[..., None, :] / gvv[..., None, None]
    idx = np.asarray(invariant, dtype=int)
    return proj[..., idx[:, None], idx]


#: Largest fiber component that :func:`quotient_form` counts as cancelled.
FIBER_TOL = 1e-10


def quotient_form(W, fiber_index, invariant, p):
    """Invariant block of a form whose fiber components cancel.

    The cancellation is a theorem for the pipelines assembled here, so a
    fiber component above :data:`FIBER_TOL` (or NaN) means the input is wrong and
    raises :class:`ObstructionError` (with the offending residual, at the
    first such point of a batch) instead of being projected away silently.
    ``W`` holds the form's values at ``p``, ``(d, d)`` at a point or
    ``(B, d, d)`` on a batch, as from :func:`pullback_form`; ``p`` serves
    only to name a failing point.
    """
    W = np.asarray(W, dtype=float)
    residual = np.max(np.abs(W[..., fiber_index, :]), axis=-1)
    failure = first_failure(residual <= FIBER_TOL, p)  # written so that NaN fails
    if failure is not None:
        k, where = failure
        worst = float(residual[() if k is None else k])
        raise ObstructionError(f"fiber components of form do not cancel (max {worst:.3e} > "
                               f"{FIBER_TOL:.1e}){where}", residual=worst)
    idx = np.asarray(invariant, dtype=int)
    return W[..., idx[:, None], idx]


def complex_structure(gv, W):
    """Mixed structure ``X = -g^{-1} W`` raised from a 2-form value.

    The sign is the one in which ``w(U, V) = g(XU, V)``; with it the flat
    triple satisfies ``I J = K``.  ``gv`` and ``W`` are ``(d, d)`` or
    stacks ``(..., d, d)``.  A ``gv`` that is not positive definite raises
    :class:`~hkgeo.geometry.MetricDomainError` naming the first failing
    point of a stack; so does a complex ``gv`` (realify a Hermitian metric
    first, :func:`hkgeo.kahler.realify`).
    """
    return -_solve(gv, W)


def raise_first_index(gv, T):
    """Raise the first lower index of each slice ``T[..., P, :, :]`` with
    ``gv``; ``gv`` and the errors are as in :func:`complex_structure`."""
    S = T.swapaxes(-3, -2)  # [..., E, P, N], solved as d x (P N) columns
    return _solve(gv, S.reshape(*S.shape[:-2], -1)).reshape(S.shape).swapaxes(-2, -3)
