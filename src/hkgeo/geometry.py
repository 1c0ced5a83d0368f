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
twice the sectional value), by Brioschi's formula from the metric
components and their first and second derivatives; with this
normalisation the rotationally symmetric reductions built in
:mod:`hkgeo.models` integrate to their expected topological count via
:func:`euler_characteristic`.  :func:`ricci_scalar`, the full contraction
of :func:`riemann`, is the independent route it is tested against.
Below ``r = 0.05`` on a polar chart the curvature runs on double-double
numbers (:mod:`hkgeo.ddouble`, see :func:`curvature_dps`).

Inverse-metric contractions and curvatures are guarded by a Cholesky
factorisation, so a non-positive-definite metric surfaces as a
:class:`MetricDomainError` instead of a silent wrong answer; every metric
solve of the package goes through that one guarded solve.

:func:`christoffel`, :func:`covariant_derivative_02`, :func:`killing_deviation`,
:func:`riemann` and :func:`gaussian_curvature` (at every precision) take one
point ``(d,)`` or a batch ``(B, d)`` (point axis first on the output; errors
name the first point).
"""

from __future__ import annotations

import math

import numpy as np

from .ddouble import DD, DIGITS
from .fields import _upper_mask, mirror_triangle
from .jets import EvaluationError, fd_step, first_failure, solve
from .quadrature import integrate

__all__ = [
    "MetricDomainError",
    "DivergenceError",
    "christoffel",
    "christoffel_fd",
    "riemann",
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


def _cholesky_diagonal(a):
    """Diagonal ``(..., d)`` of the Cholesky factor of every matrix of ``a``
    ``(..., d, d)``, all NaN for a matrix numpy cannot factor.

    The factor is finite exactly when its diagonal is (a non-finite entry
    of a row reaches that row's pivot).  numpy refuses a whole stack for
    one failing matrix, so a refused stack is factored again in halves:
    ``k`` failing matrices of ``B`` cost about ``2 k log2(B)`` stacked calls.
    """
    try:
        return np.diagonal(np.linalg.cholesky(a), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        flat = a.reshape(-1, *a.shape[-2:])
        if len(flat) == 1:
            return np.full(a.shape[:-1], np.nan)
        half = len(flat) // 2
        return np.concatenate([_cholesky_diagonal(flat[:half]),
                               _cholesky_diagonal(flat[half:])]).reshape(a.shape[:-1])


def _check_positive_definite(gv):
    """Raise :class:`MetricDomainError` unless every metric of ``gv`` ``(..., d, d)``
    is positive definite (NaN included), naming the first failing point.

    The guard of every metric solve and every curvature: a Cholesky
    factorisation in float64 for mpmath and double-double entries, else in
    the metric's own dtype, so a Hermitian one keeps its imaginary part.
    """
    if isinstance(gv, DD):
        gv = gv.hi
    elif gv.dtype == object:
        gv = np.asarray(gv, dtype=float)
    failure = first_failure(np.isfinite(_cholesky_diagonal(gv)).all(axis=-1))
    if failure is not None:
        raise MetricDomainError(f"metric not positive definite{failure[1]}")


def _solve(gv, B):
    """Solve ``gv @ X = B`` for positive-definite ``gv`` ``(..., d, d)``,
    real symmetric or complex Hermitian; dtype-generic.

    Guarded by :func:`_check_positive_definite`; float and complex metrics
    are then solved by LU, broadcasting, and mpmath ones eliminated at full
    precision by :func:`hkgeo.jets.solve`, the point axis moved last.
    """
    _check_positive_definite(gv)
    if gv.dtype != object:
        return np.linalg.solve(gv, B)
    X = solve(np.moveaxis(gv, (-2, -1), (0, 1)), np.moveaxis(B, (-2, -1), (0, 1)))
    return np.moveaxis(np.array(X, dtype=object), (0, 1), (-2, -1))


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

    One point ``(d,)`` or a batch ``(B, d)``: one ``g.value`` call on each
    point and its ``2 d`` shifts by the steps of :func:`~hkgeo.jets.fd_step`.
    Kept deliberately free of jet arithmetic so it can arbitrate against
    :func:`christoffel`.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[-1]
    h = fd_step(p)[..., None]
    shift = h * np.eye(d)  # (..., d, d): row K is h_K e_K
    q = p[..., None, :]
    G = g.value(np.concatenate([q, q + shift, q - shift], axis=-2).reshape(-1, d))
    G = G.reshape(*p.shape[:-1], 2 * d + 1, d, d)
    dg = (G[..., 1:d + 1, :, :] - G[..., d + 1:, :, :]) / (2 * h[..., None])
    return _christoffel_from(G[..., 0, :, :], dg)


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


def ricci_scalar(g, p):
    """Scalar curvature by full contraction ``g^{BD} R^A_{BAD}``.

    Independent of :func:`gaussian_curvature`'s Brioschi formula; the
    two must agree on 2-dimensional metrics.
    """
    ric = np.einsum("abad->bd", riemann(g, p))
    return np.trace(_solve(g.value(p), ric))  # g^{BP} ric[P, B]


def curvature_dps(r):
    """Digits for :func:`gaussian_curvature` at radius ``r`` of a polar chart.

    31 (double-double, :data:`hkgeo.ddouble.DIGITS`) below ``r = 0.05``,
    where float64 cancellation near the origin would dominate the error;
    ``None`` (float64) from there on.
    """
    return DIGITS if r < 0.05 else None


def curvature_at_radii(g, rs):
    """:func:`gaussian_curvature` at the points ``(r, 1)`` of a polar chart, in
    the order of ``rs``: one call per :func:`curvature_dps` precision."""
    pts = np.stack([rs, np.ones(len(rs))], axis=1)
    K = np.empty(len(rs))
    dps = [curvature_dps(r) for r in rs]
    for prec in dict.fromkeys(dps):
        idx = np.flatnonzero([x == prec for x in dps])
        K[idx] = gaussian_curvature(g, pts[idx], dps=prec)
    return K


def gaussian_curvature(g, p, dps=None):
    """Curvature scalar of a 2D metric, ``2 R_{0101} / det g``.

    Normalised so a flat chart gives 0 and the round sphere a positive
    value.  ``p`` is one point ``(2,)`` (a float comes back) or a batch
    ``(B, 2)`` (a float array).  Polar-type charts degenerate towards their
    origin and amplify float64 roundoff like ``1/r**2``; passing ``dps``
    re-evaluates the whole computation (metric components included) with
    that many digits, which keeps the result honest down to ``r ~ 1e-6``:
    in double-double arithmetic up to 31 digits (rational metrics only),
    in mpmath above (imported here; the tests' oracle, no command uses it).
    :func:`curvature_dps` says where extra digits are needed.
    """
    if g.dim != 2:
        raise ValueError("gaussian_curvature expects a 2-dimensional metric")
    if dps is None:
        return _curvature(g, p)
    p = np.asarray(p, dtype=float)
    if dps <= DIGITS:
        return _curvature(g, DD(p, np.zeros_like(p)))
    import mpmath

    with mpmath.workdps(dps):
        return _curvature(g, np.frompyfunc(mpmath.mpf, 1, 1)(p))


def _at(a, *index):
    """``a[..., *index]``: an entry for one point (never numpy's 0-d array,
    which an mpmath number on its left would convert), an array for a batch."""
    return a[(..., *index)][()]


def _curvature(g, p):
    """``2K`` at ``p`` as floats, by Brioschi's formula on ``g.jet(p)``.

    With ``E, F, G`` the metric components on the chart ``(u, v)`` and
    ``W = EG - F^2``, ``K W^2`` is the difference of two 3x3 determinants
    of the components and their first and second derivatives (do Carmo,
    *Differential Geometry of Curves and Surfaces*, section 4-3), so no
    linear solve is needed and the arithmetic of the entries (float64,
    double-double or mpmath) is all there is.  A metric that is not
    positive definite raises :class:`MetricDomainError` and a non-finite
    curvature :class:`~hkgeo.jets.EvaluationError`, naming the point.
    """
    gv, dg, d2g = g.jet(p)
    _check_positive_definite(gv)
    E, F, G = _at(gv, 0, 0), _at(gv, 0, 1), _at(gv, 1, 1)
    Eu, Fu, Gu = _at(dg, 0, 0, 0), _at(dg, 0, 0, 1), _at(dg, 0, 1, 1)
    Ev, Fv, Gv = _at(dg, 1, 0, 0), _at(dg, 1, 0, 1), _at(dg, 1, 1, 1)
    Evv, Fuv, Guu = _at(d2g, 1, 1, 0, 0), _at(d2g, 0, 1, 0, 1), _at(d2g, 0, 0, 1, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        W = E * G - F * F
        b, c = Fv - Gu * 0.5, Fu - Ev * 0.5
        det1 = ((Fuv - (Evv + Guu) * 0.5) * W - Eu * (b * G - F * Gv * 0.5) * 0.5
                + c * (b * F - E * Gv * 0.5))
        det2 = (Gu * (Ev * F - E * Gu) - Ev * (Ev * G - F * Gu)) * 0.25
        K = 2 * (det1 - det2) / (W * W)
    K = K.hi if isinstance(K, DD) else np.asarray(K, dtype=float)
    failure = first_failure(np.isfinite(K))
    if failure is not None:
        raise EvaluationError(f"non-finite curvature{failure[1]}", point=failure[0])
    return K if K.ndim else float(K)


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
        val = (period / (2 * math.pi)) * _curvature(g, points) * np.sqrt(np.linalg.det(gv)) * jac
        if weight is not None:
            val = val * np.array([weight(float(x)) for x in r])
        return val

    value, err = integrate(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)[:2]
    if not err <= quad_tol:
        raise DivergenceError(
            f"quadrature error {err:.3e} above tolerance {quad_tol:.1e}"
        )
    return value, err
