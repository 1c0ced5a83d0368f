"""Levi-Civita connection, curvature and isometry checks.

Index conventions
-----------------
Christoffel symbols are stored as ``G[S, M, N] = Gamma^S_{MN}`` and the
curvature as

    R^A_{BCD} = d_C Gamma^A_{DB} - d_D Gamma^A_{CB}
                + Gamma^A_{CS} Gamma^S_{DB} - Gamma^A_{DS} Gamma^S_{CB},

the sign fixed so that the round sphere has positive curvature.

``gaussian_curvature`` returns the curvature scalar of a 2-dimensional
metric normalised as ``2 R_{0101} / det g`` (the 2D Ricci scalar, i.e.
twice the sectional value); with this normalisation the rotationally
symmetric reductions built in :mod:`hkgeo.models` integrate to their
expected topological count via :func:`euler_characteristic`.

Inverse-metric contractions are guarded by a Cholesky factorisation, so a
non-positive-definite metric surfaces as a :class:`MetricDomainError`
instead of a silent wrong answer; every metric solve of the package goes
through that one guarded solve.

:func:`christoffel`, :func:`covariant_derivative_02`, :func:`killing_deviation`
and the curvature chain (:func:`riemann`, :func:`riemann_lowered`,
:func:`gaussian_curvature`, float64 and 40-digit) take one point ``(d,)`` or a
batch ``(B, d)`` (point axis first on the output; errors name the first point).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from .fields import _upper_mask, mirror_triangle
from .jets import fd_oracle, first_failure, solve
from .quadrature import integrate

__all__ = [
    "MetricDomainError",
    "DivergenceError",
    "christoffel",
    "christoffel_fd",
    "riemann",
    "riemann_lowered",
    "ricci_scalar",
    "gaussian_curvature",
    "curvature_at_radii",
    "covariant_derivative_02",
    "killing_deviation",
    "euler_characteristic",
    "curvature_dps",
]


class MetricDomainError(ValueError):
    """Metric failed to be positive definite where it was needed."""


class DivergenceError(RuntimeError):
    """Improper curvature integral did not converge to tolerance."""


def _finite_per_matrix(a):
    """Per matrix ``a[..., :, :]``, whether its Cholesky factor is finite
    (``LinAlgError`` counts as not): names the failing point of a stack."""
    def ok(m):
        try:
            return bool(np.isfinite(np.linalg.cholesky(m)).all())
        except np.linalg.LinAlgError:
            return False

    return np.reshape([ok(m) for m in a.reshape(-1, *a.shape[-2:])], a.shape[:-2])


def _solve(gv, B):
    """Solve ``gv @ X = B`` for positive-definite ``gv`` ``(..., d, d)``,
    real symmetric or complex Hermitian; dtype-generic.

    A metric that is not positive definite (NaN included) raises
    :class:`MetricDomainError` naming the first failing point of a batch.
    Every metric is guarded by a Cholesky factorisation (float64 for mpmath
    entries, else in its own dtype, so a Hermitian one keeps its imaginary
    part); float and complex ones are then solved by LU, broadcasting, and
    mpmath ones eliminated at full precision by :func:`hkgeo.jets.solve`,
    the point axis moved last.
    """
    guard = np.asarray(gv, dtype=float) if gv.dtype == object else gv
    try:
        ok = np.isfinite(np.linalg.cholesky(guard)).all(axis=(-2, -1))
    except np.linalg.LinAlgError:
        ok = _finite_per_matrix(guard)
    failure = first_failure(ok)
    if failure is not None:
        raise MetricDomainError(f"metric not positive definite{failure[1]}")
    if gv.dtype != object:
        return np.linalg.solve(gv, B)
    X = solve(np.moveaxis(gv, (-2, -1), (0, 1)), np.moveaxis(B, (-2, -1), (0, 1)))
    return np.moveaxis(np.array(X, dtype=object), (0, 1), (-2, -1))


def _det(gv):
    """Determinant of metrics ``(..., d, d)``; mpmath ones are 2x2 (2-D callers only)."""
    if gv.dtype != object:
        return np.linalg.det(gv)
    return gv[..., 0, 0] * gv[..., 1, 1] - gv[..., 0, 1] * gv[..., 1, 0]


def _lowered_christoffel(dg):
    """``T[P, M, N] = (d_M g_PN + d_N g_PM - d_P g_MN) / 2`` (any leading axes)."""
    return (np.einsum("...mpn->...pmn", dg) + np.einsum("...npm->...pmn", dg)
            - dg) / 2


def _christoffel_from(gv, dg):
    d = gv.shape[-1]
    T = _lowered_christoffel(dg)
    return _solve(gv, T.reshape(*T.shape[:-3], d, d * d)).reshape(T.shape)


def christoffel(g, p):
    """``G[..., S, M, N] = Gamma^S_{MN}`` of ``g`` at ``p`` from jet derivatives."""
    gv, dg, _ = g.jet(p, order=1)
    return _christoffel_from(gv, dg)


def christoffel_fd(g, p):
    """Same connection, but every metric derivative from central differences.

    Kept deliberately free of jet arithmetic so it can arbitrate against
    :func:`christoffel`.
    """
    d = g.dim
    gv = g.value(p)
    dg = np.zeros((d, d, d))
    for M in range(d):
        for N in range(M, d):
            comp = fd_oracle(lambda q, M=M, N=N: float(g.fn(q)[M][N]), p)
            dg[:, M, N] = comp.gradient
    return _christoffel_from(gv, mirror_triangle(dg, +1))


def riemann(g, p):
    """``R[..., A, B, C, D] = R^A_{BCD}`` at one point ``(d,)`` or a batch ``(B, d)``.

    Computed on the ``C < D`` triangle and mirrored, as ``g^{AE}(d_C T_{E,DB}
    - d_D T_{E,CB} - d_C g_{EF} Gamma^F_{DB} + d_D g_{EF} Gamma^F_{CB})
    + Gamma^A_{CS} Gamma^S_{DB} - Gamma^A_{DS} Gamma^S_{CB}`` (``T`` the
    lowered Christoffel symbols), so no inverse metric is formed.
    """
    gv, dg, d2g = g.jet(p)
    d, batch = gv.shape[-1], gv.shape[:-2]
    C, D = np.nonzero(_upper_mask(d, 1))  # the pairs C < D, then swapped: P, Q
    P, Q, K = np.concatenate([C, D]), np.concatenate([D, C]), len(C)
    Gm = np.einsum("...smn->...msn", _christoffel_from(gv, dg))  # Gamma^S_{MN}
    dT = np.einsum("...qemn->...eqmn", _lowered_christoffel(d2g))  # d_Q T_{E,MN}

    def pair(x, y):  # [..., E, k, B] = x[P_k]_{ES} y[Q_k]_{SB}
        return np.einsum("...kes,...ksb->...ekb", x[..., P, :, :], y[..., Q, :, :])

    Y = dT[..., P, Q, :] - pair(dg, Gm)
    X = Y[..., :K, :] - Y[..., K:, :]  # [..., E, k, B]: at (C, D) minus at (D, C)
    raised = _solve(gv, X.reshape(*batch, d, K * d)).reshape(X.shape)  # [..., A, k, B]
    GG = pair(Gm, Gm)
    tri = raised + GG[..., :K, :] - GG[..., K:, :]
    R = np.zeros((*batch, d, d, d, d), dtype=tri.dtype)
    R[..., C, D] = np.swapaxes(tri, -1, -2)
    return mirror_triangle(R, -1)


def riemann_lowered(g, p):
    """``R_{ABCD} = g_{AE} R^E_{BCD}`` at one point or a batch."""
    return np.einsum("...ae,...ebcd->...abcd", g.value(p), riemann(g, p))


def ricci_scalar(g, p):
    """Scalar curvature by full contraction ``g^{BD} R^A_{BAD}``.

    Independent of :func:`gaussian_curvature`'s single-component route; the
    two must agree on 2-dimensional metrics.
    """
    ric = np.einsum("abad->bd", riemann(g, p))
    return np.trace(_solve(g.value(p), ric))  # g^{BP} ric[P, B]


def curvature_dps(r):
    """Digits for :func:`gaussian_curvature` at radius ``r`` of a polar chart.

    40 below ``r = 0.05``, where float64 cancellation near the origin would
    dominate the error; ``None`` (float64) from there on.
    """
    return 40 if r < 0.05 else None


#: Radii per :func:`gaussian_curvature` call of :func:`curvature_at_radii`.  A
#: block of 50 40-digit radii adds about 0.5 MB to peak memory; one of 800, 7 MB.
_CURVATURE_BLOCK = 50


def curvature_at_radii(g, rs):
    """:func:`gaussian_curvature` at the points ``(r, 1)`` of a polar chart, in
    the order of ``rs``: one call per :func:`curvature_dps` precision and per
    block of at most ``_CURVATURE_BLOCK`` radii."""
    pts = np.stack([rs, np.ones(len(rs))], axis=1)
    K = np.empty(len(rs))
    dps = [curvature_dps(r) for r in rs]
    for prec in dict.fromkeys(dps):
        idx = np.flatnonzero([x == prec for x in dps])
        for part in np.split(idx, range(_CURVATURE_BLOCK, len(idx), _CURVATURE_BLOCK)):
            K[part] = gaussian_curvature(g, pts[part], dps=prec)
    return K


def gaussian_curvature(g, p, dps=None):
    """Curvature scalar of a 2D metric, ``2 R_{0101} / det g``.

    Normalised so a flat chart gives 0 and the round sphere a positive
    value.  ``p`` is one point ``(2,)`` (a float comes back) or a batch
    ``(B, 2)`` (a float array).  Polar-type charts degenerate towards their
    origin and amplify float64 roundoff like ``1/r**2``; passing ``dps``
    re-evaluates the whole chain (metric components included) in mpmath
    arithmetic with that many digits, which keeps the result honest down to
    ``r ~ 1e-6``.  :func:`curvature_dps` says where that is needed.
    """
    if g.dim != 2:
        raise ValueError("gaussian_curvature expects a 2-dimensional metric")
    if dps is None:
        return _curvature(g, p)
    with mpmath.workdps(dps):
        return _curvature(g, np.frompyfunc(mpmath.mpf, 1, 1)(np.asarray(p, dtype=float)))


def _curvature(g, p, gv=None):
    """``2 R_{0101} / det g`` at ``p`` as floats; ``gv`` is ``g.value(p)`` if known."""
    gv = g.value(p) if gv is None else gv
    R = riemann(g, p)  # R_{0101} = g_{0E} R^E_{101}
    K = 2 * (gv[..., 0, 0] * R[..., 0, 1, 0, 1] + gv[..., 0, 1] * R[..., 1, 1, 0, 1])
    K = K / _det(gv)
    return np.asarray(K, dtype=float) if np.ndim(K) else float(K)


def covariant_derivative_02(g, T, p):
    """``nabla_P T_{MN}`` of a rank-(0,2) field along ``g``'s connection."""
    G = christoffel(g, p)
    Tv, dT, _ = T.jet(p)
    return (dT - np.einsum("...spm,...sn->...pmn", G, Tv)
            - np.einsum("...spn,...ms->...pmn", G, Tv))


def killing_deviation(g, V, p):
    """Lie derivative ``(L_V g)_{MN}``; identically zero iff V is Killing."""
    gv, dg, _ = g.jet(p, order=1)
    Vv, dV = V.jet(p)
    return (np.einsum("...p,...pmn->...mn", Vv, dg)
            + np.einsum("...pn,...mp->...mn", gv, dV)
            + np.einsum("...mp,...np->...mn", gv, dV))


def euler_characteristic(g, period=2 * math.pi, r_scale=1.0, quad_tol=1e-8,
                         weight=None, r_floor=1e-6):
    """Improper curvature integral ``(period / 2 pi) * int_0^inf K sqrt(g) dr``.

    The radial half line is compactified with ``r = r_scale * u / (1 - u)``,
    ``u in [0, 1)``, and integrated by :func:`hkgeo.quadrature.integrate`
    (adaptive Gauss-Kronrod), whose every refinement round is one batched
    metric value and one curvature call on all of the round's nodes.
    The metric must be 2-dimensional with chart order (radial, angular) and
    angle-independent components.  ``weight(r)``, if given, is a scalar
    callable that multiplies the integrand, called once per node (useful for
    linearity checks).

    Returns
    -------
    (value, abs_error) : tuple of float

    Raises
    ------
    DivergenceError
        If the quadrature error estimate exceeds ``quad_tol`` (or is NaN).
    """
    if g.dim != 2:
        raise ValueError("euler_characteristic expects a 2-dimensional metric")

    def integrand(u):  # nodes (n,) -> (n,)
        r = np.maximum(r_scale * u / (1.0 - u), r_floor)
        jac = r_scale / (1.0 - u) ** 2
        points = np.stack([r, np.zeros_like(r)], axis=-1)
        # one metric value per point: the jet's value part can differ from
        # g.value in the last bit (jet division multiplies by a reciprocal)
        gv = g.value(points)
        val = (period / (2 * math.pi)) * _curvature(g, points, gv) * np.sqrt(_det(gv)) * jac
        if weight is not None:
            val = val * np.array([weight(float(x)) for x in r])
        return val

    value, err = integrate(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)[:2]
    if not err <= quad_tol:
        raise DivergenceError(
            f"quadrature error {err:.3e} above tolerance {quad_tol:.1e}"
        )
    return value, err
