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
instead of a silent wrong answer.

:func:`christoffel`, :func:`covariant_derivative_02` and
:func:`killing_deviation` take one point ``(d,)`` or a batch ``(B, d)``
(point axis first on the output; errors name the first failing point).
The curvature chain takes one point, float64 or 40-digit.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.integrate

from .fields import mirror_triangle
from .jets import fd_oracle, first_failure, solve

__all__ = [
    "MetricDomainError",
    "DivergenceError",
    "christoffel",
    "christoffel_fd",
    "christoffel_with_derivative",
    "riemann",
    "riemann_lowered",
    "ricci_scalar",
    "gaussian_curvature",
    "covariant_derivative_02",
    "killing_deviation",
    "euler_characteristic",
    "curvature_dps",
]


class MetricDomainError(ValueError):
    """Metric failed to be positive definite where it was needed."""


class DivergenceError(RuntimeError):
    """Improper curvature integral did not converge to tolerance."""


def _finite_per_matrix(fn, a):
    """Per matrix ``a[..., :, :]``, whether ``fn`` returns finite values
    (``LinAlgError`` counts as not): names the failing point of a stack."""
    def ok(m):
        try:
            return bool(np.isfinite(fn(m)).all())
        except np.linalg.LinAlgError:
            return False

    return np.reshape([ok(m) for m in a.reshape(-1, *a.shape[-2:])], a.shape[:-2])


def _solve(gv, B):
    """Solve ``gv @ X = B`` for SPD ``gv``; dtype-generic.

    A metric that is not positive definite (NaN included) raises
    :class:`MetricDomainError`.  Float metrics ``(..., d, d)`` are guarded
    by a Cholesky factorisation and solved by LU, both broadcasting (the
    error names the first failing point); mpmath ones are checked by a
    float64 Cholesky and then eliminated at full precision.
    """
    if gv.dtype == object:
        try:
            np.linalg.cholesky(gv.astype(float))
        except np.linalg.LinAlgError as err:
            raise MetricDomainError(f"metric not positive definite: {err}") from err
        return np.array(solve(gv, B), dtype=object)
    try:
        ok = np.isfinite(np.linalg.cholesky(gv)).all(axis=(-2, -1))
    except np.linalg.LinAlgError:
        ok = _finite_per_matrix(np.linalg.cholesky, gv)
    failure = first_failure(ok)
    if failure is not None:
        raise MetricDomainError(f"metric not positive definite{failure[1]}")
    return np.linalg.solve(gv, B)


def _det(gv):
    if gv.dtype != object:
        return float(np.linalg.det(gv))
    if gv.shape == (2, 2):
        return gv[0, 0] * gv[1, 1] - gv[0, 1] * gv[1, 0]
    raise NotImplementedError("extended-precision determinant only needed for 2x2")


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


def christoffel_with_derivative(g, p):
    """Connection and its coordinate derivative ``dG[Q, S, M, N] = d_Q Gamma^S_{MN}``."""
    gv, dg, d2g = g.jet(p)
    G = _christoffel_from(gv, dg)
    ginv = _solve(gv, np.eye(gv.shape[0], dtype=gv.dtype))
    # d_Q g^{SP} = -(g^{-1} (d_Q g) g^{-1})^{SP}
    dginv = -np.matmul(ginv, np.matmul(dg, ginv))
    dG = (np.einsum("qsp,pmn->qsmn", dginv, _lowered_christoffel(dg))
          + np.einsum("sp,qpmn->qsmn", ginv, _lowered_christoffel(d2g)))
    return G, dG


def riemann(g, p):
    """``R[A, B, C, D] = R^A_{BCD}`` at ``p``."""
    G, dG = christoffel_with_derivative(g, p)
    return (np.einsum("cadb->abcd", dG) - np.einsum("dacb->abcd", dG)
            + np.einsum("acs,sdb->abcd", G, G) - np.einsum("ads,scb->abcd", G, G))


def riemann_lowered(g, p):
    """``R_{ABCD} = g_{AE} R^E_{BCD}``."""
    return np.tensordot(g.value(p), riemann(g, p), axes=([1], [0]))


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


def gaussian_curvature(g, p, dps=None):
    """Curvature scalar of a 2D metric, ``2 R_{0101} / det g``.

    Normalised so a flat chart gives 0 and the round sphere a positive
    value.  Polar-type charts degenerate towards their origin and amplify
    float64 roundoff like ``1/r**2``; passing ``dps`` re-evaluates the whole
    chain (metric components included) in mpmath arithmetic with that many
    digits, which keeps the result honest down to ``r ~ 1e-6``.
    :func:`curvature_dps` says where that is needed.
    """
    if g.dim != 2:
        raise ValueError("gaussian_curvature expects a 2-dimensional metric")
    if dps is None:
        return _curvature(g, p)
    with mpmath.workdps(dps):
        return _curvature(g, [mpmath.mpf(float(x)) for x in p])


def _curvature(g, p, gv=None):
    """``2 R_{0101} / det g`` at ``p``; ``gv`` is ``g.value(p)`` if the caller has it."""
    gv = g.value(p) if gv is None else gv
    R = np.tensordot(gv, riemann(g, p), axes=([1], [0]))  # as riemann_lowered
    return float(2 * R[0, 1, 0, 1] / _det(gv))


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
    ``u in [0, 1)``, and integrated by adaptive Gauss-Kronrod quadrature.
    The metric must be 2-dimensional with chart order (radial, angular) and
    angle-independent components.  ``weight(r)``, if given, multiplies the
    integrand (useful for linearity checks).

    Returns
    -------
    (value, abs_error) : tuple of float

    Raises
    ------
    DivergenceError
        If the quadrature error estimate exceeds ``quad_tol``.
    """
    if g.dim != 2:
        raise ValueError("euler_characteristic expects a 2-dimensional metric")

    def integrand(u):
        r = r_scale * u / (1.0 - u)
        jac = r_scale / (1.0 - u) ** 2
        r = max(r, r_floor)
        point = [r, 0.0]
        # one metric value per point: the jet's value part can differ from
        # g.value in the last bit (jet division multiplies by a reciprocal)
        gv = g.value(point)
        K = _curvature(g, point, gv)
        sg = math.sqrt(_det(gv))
        val = (period / (2 * math.pi)) * K * sg * jac
        if weight is not None:
            val *= weight(r)
        return val

    value, err = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-10,
                                      epsrel=1e-10, limit=200)
    if err > quad_tol:
        raise DivergenceError(
            f"quadrature error {err:.3e} above tolerance {quad_tol:.1e}"
        )
    return value, err
