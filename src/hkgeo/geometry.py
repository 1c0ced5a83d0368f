"""Levi-Civita connection, curvature and isometry checks.

Index conventions
-----------------
Christoffel symbols are stored as ``G[S, M, N] = Gamma^S_{MN}`` and the
curvature as

    R^A_{BCD} = d_C Gamma^A_{DB} - d_D Gamma^A_{CB}
                + Gamma^A_{CS} Gamma^S_{DB} - Gamma^A_{DS} Gamma^S_{CB},

the sign fixed so that the round sphere has positive curvature.  The
package reads the tensor only through Brioschi's formula below; the full
tensor is the tests' reference (``tests/oracles.py``).

``gaussian_curvature`` returns the curvature scalar of a 2-dimensional
metric normalised as ``2 R_{0101} / det g`` (the 2D Ricci scalar, i.e.
twice the sectional value), by Brioschi's formula from the metric
components and their first and second derivatives; with this
normalisation the rotationally symmetric reductions built in
:mod:`hkgeo.models` integrate to their expected topological count via
:func:`euler_characteristic`.  Below ``r =`` :data:`DD_RADIUS` (0.05) on a
polar chart the curvature runs on double-double numbers
(:mod:`hkgeo.ddouble`, see :func:`curvature_at_radii`); everything else
runs on float64.  In double-double, an entry of the formula that is zero
at every point (the off-diagonal and angular terms of a surface of
revolution) is read as the exact zero ``0``, so only the products and sums
that can be non-zero are computed, each rounding as before; a metric jet
with a non-finite entry is refused first, at both precisions, so no
``0 * inf`` is skipped into a finite curvature.

Inverse-metric contractions and curvatures are guarded by a Cholesky
factorisation, so a non-positive-definite metric surfaces as a
:class:`MetricDomainError` instead of a silent wrong answer.  Every
positive-definite solve of the package factors its real symmetric
matrices once: the guard returns the factor ``L`` of ``g = L L^T`` and the
solve substitutes with it (:func:`_solve`); a mass-matrix solve does the
same with the factor of its own rule, which it takes as its guard, jet
entries differentiated implicitly (:func:`_solve_entries`).  The
substitution runs point axes last, as jets and packed fields carry them:
its arrays are slices ``(rows, cols, *derivative axes, *batch)`` of the
tables that ``hkgeo.fields._pack`` packs, so each elementwise step runs
over the batch innermost, and the point-first :func:`_solve` converts
once going in and once coming out.  A stack's conditioning is bounded
without eigenvalues or singular values by one scale-free Cholesky
certificate (:func:`_certified_cholesky`), which the mass-matrix rule of
:mod:`hkgeo.mechanics` and the Jacobian rank guard of
:mod:`hkgeo.reduction` share.

:func:`christoffel`, :func:`covariant_derivative_02`, :func:`killing_deviation`
and :func:`gaussian_curvature` (at every precision) take one point ``(d,)``
or a batch ``(B, d)`` (point axis first on the output; errors name the
first point).  :func:`covariant_derivative_02` also takes a list of
fields, which share one connection.
"""

from __future__ import annotations

import numpy as np

from .ddouble import DD, DIGITS
from .fields import _pack
from .jets import EvaluationError, Jet, first_failure
from .quadrature import integrate

__all__ = [
    "MetricDomainError",
    "DivergenceError",
    "christoffel",
    "gaussian_curvature",
    "curvature_at_radii",
    "covariant_derivative_02",
    "killing_deviation",
    "euler_characteristic",
]


class MetricDomainError(ValueError):
    """Metric failed to be positive definite where it was needed."""


class DivergenceError(RuntimeError):
    """Improper curvature integral did not converge to tolerance."""


def _cholesky(a):
    """Lower Cholesky factor ``(..., d, d)`` of every matrix of ``a``
    ``(..., d, d)`` (``a = L L^T``), all NaN for a matrix numpy cannot factor.

    The factor is finite exactly when its diagonal is (a non-finite entry
    of a row reaches that row's pivot).  numpy refuses a whole stack for
    one failing matrix, so a refused stack is factored again in halves:
    ``k`` failing matrices of ``B`` cost about ``2 k log2(B)`` stacked calls.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        flat = a.reshape(-1, *a.shape[-2:])
        if len(flat) == 1:
            return np.full(a.shape, np.nan, dtype=np.result_type(a, 0.0))
        half = len(flat) // 2
        return np.concatenate([_cholesky(flat[:half]),
                               _cholesky(flat[half:])]).reshape(a.shape)


def _certified_cholesky(a, c):
    """``(L, cleared)``: the Cholesky factor of every matrix of ``a``
    ``(..., n, n)`` (:func:`_cholesky`) and whether each has
    ``prod(l_i^2 / tr a) >= c`` over its factor's diagonal ``l``.

    Cleared, every matrix is positive definite with ``lambda_min / lambda_max
    >= c``: ``lambda_min >= det a / lambda_max^(n-1) >= c tr a`` (Golub & Van
    Loan, *Matrix Computations*, 4.2 and 8.1).  As a product of ratios, each
    at most 1, the test is free of scale, where ``det a >= c (tr a)^n`` could
    pass with both sides underflowed to 0; a non-finite entry fails it.
    """
    L = _cholesky(a)
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test
        tr = np.trace(a, axis1=-2, axis2=-1)[..., None]
        return L, bool((np.prod(diag * diag / tr, axis=-1) >= c).all())


def _check_positive_definite(gv):
    """Cholesky factor of every metric of ``gv`` ``(..., d, d)``, or
    :class:`MetricDomainError` unless all are positive definite (NaN
    included), naming the first failing point.

    The guard of every metric solve and every curvature: a Cholesky
    factorisation of the float64 rounding of double-double entries, else of
    the float64 entries.  A complex metric is refused as it stands: the
    solves are real, and a Hermitian metric enters them realified
    (:func:`hkgeo.kahler.realify`).
    """
    gv = gv.hi if isinstance(gv, DD) else gv
    if np.iscomplexobj(gv):
        raise MetricDomainError("metric has complex entries; realify it first")
    L = _cholesky(gv)
    failure = first_failure(np.isfinite(np.diagonal(L, axis1=-2, axis2=-1)).all(axis=-1))
    if failure is not None:
        raise MetricDomainError(f"metric not positive definite{failure[1]}")
    return L


def _factor_last(L, nb):
    """``(U, d2)`` for :func:`_substitute` from a lower Cholesky factor ``L``
    ``(..., d, d)`` with at most ``nb`` leading axes: ``U = L / diag``
    ``(d, d, *batch)``, point axes last and C-contiguous, and the squared
    diagonal ``d2`` ``(d, *batch)``."""
    U = L.reshape((1,) * (nb + 2 - L.ndim) + L.shape).transpose(nb, nb + 1, *range(nb)).copy()
    diag = U.diagonal(0, 0, 1).transpose(nb, *range(nb)).copy()
    U /= diag
    return U, diag * diag


def _substitute(U, d2, X):
    """Overwrite ``X`` with the ``Y`` of ``L L^T Y = X``, by forward and back
    substitution, and return it.

    ``L = U D`` (``U`` unit lower triangular, ``D`` its positive diagonal)
    comes prepared once per solve by :func:`_factor_last`, and ``X``
    ``(d, m, *batch)`` holds the right-hand sides as columns, point axes last
    like ``U``: ``Y = U^{-T} D^{-2} U^{-1} X``.  Each of the ``2 d - 1`` steps
    is one elementwise numpy update over the batch and every column, the
    batch innermost, in a fixed order, so a batch gives its points bit for bit.
    """
    for j in range(len(U) - 1):
        X[j + 1:] -= U[j + 1:, j, None] * X[j, None]
    X /= d2[:, None]
    for j in range(len(U) - 1, 0, -1):
        X[:j] -= U[j, :j, None] * X[j, None]
    return X


def _solve_factored(L, B):
    """``X`` with ``L L^T X = B``, point axis first: ``L`` ``(..., d, d)`` is a
    lower Cholesky factor and ``B`` ``(..., d, m)`` holds the right-hand
    sides as columns; leading axes broadcast.  It converts once each way:
    ``B`` is copied point axes last, substituted in place
    (:func:`_substitute`) and handed back as a point-first view.
    """
    batch = np.broadcast_shapes(L.shape[:-2], B.shape[:-2])
    X = np.broadcast_to(B, (*batch, *B.shape[-2:])).transpose(-2, -1, *range(len(batch)))
    X = _substitute(*_factor_last(L, len(batch)), X.astype(np.result_type(L, B), order="C"))
    return X.transpose(*range(2, X.ndim), 0, 1)


def _solve(gv, B):
    """Solve ``gv @ X = B`` for real symmetric positive-definite ``gv``
    ``(..., d, d)``, broadcasting: the factor of
    :func:`_check_positive_definite`, substituted by :func:`_solve_factored`.
    """
    return _solve_factored(_check_positive_definite(gv), B)


def _solve_entries(guard, A, B, sign=0):
    """Solve ``A X = B`` on tables of entries, factoring ``A``'s float values
    with ``guard``, which maps them ``(..., n, n)`` (point axis first) to
    their lower Cholesky factor or raises.

    ``A`` is ``n x n``, or its upper triangle for ``sign=+1``, and ``B`` a
    vector of ``n`` entries or ``n`` rows of them: floats, arrays over a
    batch of points and jets, mixed freely, in float64 (a double-double
    entry raises TypeError); the result is a list of entries or of rows,
    shaped as ``B``.  The values are solved once,
    ``X = A^{-1} B``, and the derivatives by implicit differentiation with
    the same factor (Giles 2008, "Collected matrix derivative results for
    forward and reverse mode algorithmic differentiation"):
    ``d_k X = A^{-1} (d_k B - d_k A X)`` and, when every jet carries a
    Hessian, ``d_kl X = A^{-1} (d_kl B - d_kl A X - d_k A d_l X - d_l A d_k X)``.
    ``A`` and ``B`` are packed once each (:func:`hkgeo.fields._pack`) and
    every part is a slice of those arrays, ``(n, cols, *derivative axes,
    *batch)``, so an entry's value, gradient and Hessian come out as the
    contiguous slices ``[i, j]`` a jet holds.
    """
    vector = not (isinstance(B[0], (list, tuple))
                  or isinstance(B, np.ndarray) and B.ndim >= 2)
    rhs = [[b] for b in B] if vector else B
    entries = [e for table in (A, rhs) for row in table for e in row]
    jets = [e for e in entries if isinstance(e, Jet)]
    values = [e.value if isinstance(e, Jet) else e for e in entries]
    if any(isinstance(v, DD) for v in values):
        raise TypeError("a solve is float64 only, not double-double; evaluate with dps=None")
    batch = np.broadcast_shapes(*map(np.shape, values))
    order = None if not jets else 2 if all(e.hess is not None for e in jets) else 1
    dim = jets[0].dim if jets else 0
    PA, PB = _pack(A, dim, order, batch, sign), _pack(rhs, dim, order, batch)
    factor = _factor_last(guard(PA[:, :, 0].transpose(*range(2, PA.ndim - 1), 0, 1)), len(batch))

    def substitute(R):  # each derivative slice of R becomes columns of one substitution
        X = np.ascontiguousarray(R).reshape(len(A), -1, *batch)
        return _substitute(*factor, X).reshape(R.shape)

    def product(M, Y):  # sum_j M[:, j] Y[j], term by term in index order
        acc = M[:, 0, None] * Y[0, None]
        for j in range(1, len(A)):
            acc += M[:, j, None] * Y[j, None]
        return acc

    def hessians(P):
        return P[:, :, dim + 1:].reshape(*P.shape[:2], dim, dim, *batch)

    X = substitute(PB[:, :, 0])
    dX = d2X = None
    if order:
        dA = PA[:, :, 1:dim + 1]
        dX = substitute(PB[:, :, 1:dim + 1] - product(dA, X[:, :, None]))
        if order == 2:
            T = product(dA[:, :, :, None], dX[:, :, None])  # [i, c, k, l]: d_k A d_l X
            d2X = substitute(hessians(PB) - product(hessians(PA), X[:, :, None, None])
                             - T - np.swapaxes(T, 2, 3))

    def entry(i, j):
        hess = None if d2X is None else d2X[i, j]
        return X[i, j] if dX is None else Jet(X[i, j], dX[i, j], hess)

    out = [[entry(i, j) for j in range(len(rhs[0]))] for i in range(len(A))]
    return [row[0] for row in out] if vector else out


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


#: Radius of a polar chart below which curvature runs on double-double numbers.
DD_RADIUS = 0.05


def curvature_at_radii(g, rs):
    """:func:`gaussian_curvature` at the points ``(r, 1)`` of a polar chart, in
    the order of ``rs``: one call per precision, double-double (31 digits,
    :data:`hkgeo.ddouble.DIGITS`) below :data:`DD_RADIUS`, where float64
    cancellation near the origin would dominate the error, float64 from
    there on."""
    rs = np.asarray(rs, dtype=float)
    pts, K = np.stack([rs, np.ones(len(rs))], axis=1), np.empty(len(rs))
    low = rs < DD_RADIUS
    for idx, dps in ((low, DIGITS), (~low, None)):
        if idx.any():
            K[idx] = gaussian_curvature(g, pts[idx], dps=dps)
    return K


def gaussian_curvature(g, p, dps=None):
    """Curvature scalar of a 2D metric, ``2 R_{0101} / det g``.

    Normalised so a flat chart gives 0 and the round sphere a positive
    value.  ``p`` is one point ``(2,)`` (a float comes back) or a batch
    ``(B, 2)`` (a float array).  Polar-type charts degenerate towards their
    origin and amplify float64 roundoff like ``1/r**2``; ``dps=DIGITS``
    (31, :data:`hkgeo.ddouble.DIGITS`) re-evaluates the whole computation
    (metric components included) in double-double arithmetic (rational
    metrics only), which keeps the result honest down to ``r ~ 1e-6``;
    ``dps=None`` is float64, and any other ``dps`` raises ValueError.
    :func:`curvature_at_radii` says where extra digits are needed.
    """
    if g.dim != 2:
        raise ValueError("gaussian_curvature expects a 2-dimensional metric")
    if dps is None:
        return _curvature(*g.jet(p))
    if dps != DIGITS:
        raise ValueError(f"dps must be None (float64) or {DIGITS} (double-double), "
                         f"not {dps!r}")
    p = np.asarray(p, dtype=float)
    return _curvature(*g.jet(DD(p, np.zeros_like(p))))


def _at(a, *index):
    """``a[..., *index]``: a scalar entry for one point, an array for a batch;
    a double-double entry that is zero at every point is the exact zero ``0``."""
    x = a[(..., *index)][()]
    return 0 if isinstance(x, DD) and not x.hi.any() else x


def _curvature(gv, dg, d2g):
    """``2K`` as floats, by Brioschi's formula on a metric's order-2 jet
    ``(gv, dg, d2g)`` at one point or a batch (``g.jet(p)``).

    With ``E, F, G`` the metric components on the chart ``(u, v)`` and
    ``W = EG - F^2``, ``K W^2`` is the difference of two 3x3 determinants
    of the components and their first and second derivatives (do Carmo,
    *Differential Geometry of Curves and Surfaces*, section 4-3), so no
    linear solve is needed and the arithmetic of the entries (float64 or
    double-double) is all there is.  A double-double entry that is zero at
    every point is read as the exact zero ``0`` (:func:`_at`), which the
    formula's products and sums skip (:mod:`hkgeo.ddouble`) in its own
    evaluation order, so every term that is left rounds as before.  A metric
    that is not positive definite raises :class:`MetricDomainError`; a
    non-finite entry of ``gv``, ``dg`` or ``d2g`` (either part of a
    double-double), checked before any entry is read, and a non-finite
    curvature raise :class:`~hkgeo.jets.EvaluationError`, naming the point.
    """
    _check_positive_definite(gv)
    nb = len(gv.shape) - 2  # batch axes, then each array's entry axes
    finite = [np.isfinite(x).all(axis=tuple(range(nb, x.ndim))) for a in (gv, dg, d2g)
              for x in ((a.hi, a.lo) if isinstance(a, DD) else (a,))]
    failure = first_failure(np.all(finite, axis=0))
    if failure is not None:
        raise EvaluationError(f"non-finite metric jet{failure[1]}", point=failure[0])
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
    K = K.hi if isinstance(K, DD) else np.asarray(K)
    failure = first_failure(np.isfinite(K))
    if failure is not None:
        raise EvaluationError(f"non-finite curvature{failure[1]}", point=failure[0])
    return K if K.ndim else float(K)


def covariant_derivative_02(g, T, p):
    """``nabla_P T_{MN}`` of a rank-(0,2) field along ``g``'s connection.

    ``T`` may be a list of fields: they share one :func:`christoffel`, and
    their derivatives come back as a list, in order.
    """
    G = christoffel(g, p)

    def nabla(Tv, dT, _):  # each jet is released before the next is evaluated
        return (dT - np.einsum("...spm,...sn->...pmn", G, Tv)
                - np.einsum("...spn,...ms->...pmn", G, Tv))

    out = [nabla(*f.jet(p, order=1)) for f in (T if isinstance(T, list) else [T])]
    return out if isinstance(T, list) else out[0]


def killing_deviation(g, V, p):
    """Lie derivative ``(L_V g)_{MN}``; identically zero iff V is Killing."""
    gv, dg, _ = g.jet(p, order=1)
    Vv, dV, _ = V.jet(p, order=1)
    return (np.einsum("...p,...pmn->...mn", Vv, dg)
            + np.einsum("...pn,...mp->...mn", gv, dV)
            + np.einsum("...mp,...np->...mn", gv, dV))


#: Largest quadrature error estimate :func:`euler_characteristic` accepts.
EULER_QUAD_TOL = 1e-8


def euler_characteristic(g, r_scale=1.0):
    """Improper curvature integral ``int_0^inf K sqrt(g) dr``: the total
    curvature over ``2 pi`` of a surface of revolution whose angle has
    period ``2 pi``.

    The radial half line is compactified with ``r = r_scale * u / (1 - u)``,
    ``u in [0, 1)``, floored at ``r = 1e-6``, and integrated by
    :func:`hkgeo.quadrature.integrate` (adaptive Gauss-Kronrod), whose every
    refinement round is one batched metric jet on all of the round's nodes:
    its derivatives give the curvature and its value ``sqrt(det g)``.
    The metric must be 2-dimensional with chart order (radial, angular) and
    angle-independent components.

    Returns
    -------
    (value, abs_error) : tuple of float

    Raises
    ------
    DivergenceError
        If the quadrature error estimate exceeds :data:`EULER_QUAD_TOL` (or
        is NaN).
    """
    if g.dim != 2:
        raise ValueError("euler_characteristic expects a 2-dimensional metric")

    def integrand(u):  # nodes (n,) -> (n,)
        r = np.maximum(r_scale * u / (1.0 - u), 1e-6)
        jac = r_scale / (1.0 - u) ** 2
        gv, dg, d2g = g.jet(np.stack([r, np.zeros_like(r)], axis=-1))
        return _curvature(gv, dg, d2g) * np.sqrt(np.linalg.det(gv)) * jac

    value, err = integrate(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)[:2]
    if not err <= EULER_QUAD_TOL:
        raise DivergenceError(
            f"quadrature error {err:.3e} above tolerance {EULER_QUAD_TOL:.1e}"
        )
    return value, err
