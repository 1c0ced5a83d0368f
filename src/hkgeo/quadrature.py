"""Adaptive Gauss-Kronrod quadrature over batched integrands.

The rule is QUADPACK's pair (Piessens et al., *QUADPACK*, Springer 1983):
the 21-point Kronrod extension K21 of the 10-point Gauss-Legendre rule
G10.  The Gauss nodes are every other Kronrod node, so one evaluation of
the 21 nodes of an interval gives both estimates; K21 is the estimate and
``|K21 - G10|`` its error estimate.  No constant is typed in: the nodes
are the eigenvalues of Jacobi matrices, the Legendre one for G10 and for
K21 the Jacobi-Kronrod matrix that Laurie's algorithm builds from the
Legendre recurrence (*Math. Comp.* 66 (1997) 1133-1145), polished by
Newton steps on the recurrence; the weights are reciprocal Christoffel
sums.

:func:`integrate` is globally adaptive.  The integrand maps every node of
one refinement round, ``(n,)``, to values ``(n, ...)``, so one call covers
every interval being bisected in that round and every output of a batch;
each node is evaluated once.  Every output keeps its own partition of
``[a, b]`` and its own error estimate, as if integrated on its own: the
outputs only share the integrand calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["QuadratureResult", "gauss_kronrod", "integrate"]


class QuadratureResult(NamedTuple):
    """``value``, ``error`` (estimate of ``|value - integral|``) and ``converged``
    have the output shape of the integrand (floats and a bool for a scalar
    integrand); ``neval`` counts integrand nodes."""

    value: float | np.ndarray
    error: float | np.ndarray
    converged: bool | np.ndarray
    neval: int


def _jacobi_kronrod(n, alpha, beta):
    """Recurrence coefficients ``(a_0..a_2n, b_0..b_2n)`` of the Jacobi-Kronrod
    matrix of order ``2n + 1``, from those of the measure (``alpha``,
    ``beta`` of length ``2n + 1``, ``beta[0]`` its total mass), of which only
    the first ``3n/2 + 1`` are read.

    Laurie's algorithm: a recurrence for the mixed moments (two rows of
    them, ``s`` and ``t``) of the orthogonal polynomials of the leading and
    of the trailing ``n x n`` block fixes the unknown trailing coefficients
    so that both blocks have the same eigenvalues, the Gauss nodes.
    """
    a, b = np.array(alpha, dtype=float), np.array(beta, dtype=float)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += (a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k] - b[l] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u += -(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2]
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


def _recurrence(x, a, b):
    """``q_N(x)`` and ``q_N'(x)`` of the monic orthogonal polynomials of the
    recurrence ``(a, b)`` of length ``N``, and the Christoffel sum
    ``sum_{k<N} q_k(x)^2 / (b_0 ... b_k)`` (of the orthonormal ones)."""
    q0, q1, d0, d1, total = 0.0, 1.0, 0.0, 0.0, 0.0
    for k, norm in enumerate(np.cumprod(b[:len(a)])):
        total = total + q1 * q1 / norm
        q0, q1, d0, d1 = q1, (x - a[k]) * q1 - b[k] * q0, d1, q1 + (x - a[k]) * d1 - b[k] * d0
    return q1, d1, total


def _gauss(a, b):
    """Nodes and weights of the Gauss rule of the Jacobi matrix with diagonal
    ``a`` and squared off-diagonal ``b[1:]`` (``b[0]`` the total mass): its
    eigenvalues, polished by Newton steps on ``q_N``, and the reciprocal
    Christoffel sums."""
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(np.sqrt(b[1:len(a)]), -1))
    for _ in range(2):
        q, dq, _ = _recurrence(x, a, b)
        x = x - q / dq
    return x, 1.0 / _recurrence(x, a, b)[2]


def gauss_kronrod():
    """Nodes ``(21,)`` on ``[-1, 1]``, ascending, and the weights of K21 and
    of G10 on them (``(2, 21)``; the Gauss weights are zero off its nodes,
    which are the odd-indexed Kronrod nodes)."""
    n = 10
    k = np.arange(2 * n + 1, dtype=float)
    beta = np.divide(k * k, 4 * k * k - 1, out=np.full_like(k, 2.0), where=k > 0)
    x, wk = _gauss(*_jacobi_kronrod(n, np.zeros_like(k), beta))
    _, wg = _gauss(np.zeros(n), beta)
    # the Legendre rules are symmetric about 0: make the computed ones exactly so
    x, wk, wg = (x - x[::-1]) / 2, (wk + wk[::-1]) / 2, (wg + wg[::-1]) / 2
    weights = np.zeros((2, 2 * n + 1))
    weights[0], weights[1, 1::2] = wk, wg
    return x, weights


_NODES, _WEIGHTS = gauss_kronrod()
_DIFF = _WEIGHTS[0] - _WEIGHTS[1]  # K21 - G10 in one weighted sum


def _sum(x, axis):
    """Sum along ``axis`` in index order.  ``np.sum`` adds a contiguous axis
    pairwise, so an output alone would round differently from the same
    output in a batch."""
    return np.cumsum(x, axis=axis).take(-1, axis=axis)


def _estimate(f, lo, hi):
    """K21 estimates and ``|K21 - G10|`` errors ``(m, K)`` of the intervals
    ``[lo, hi]`` ``(m,)``, from one integrand call on all their nodes."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.reshape(-1)), dtype=float)
    if y.shape[:1] != (x.size,):
        raise ValueError(f"integrand returned shape {y.shape} for {x.size} nodes")
    shape = y.shape[1:]
    y = y.reshape(len(lo), _NODES.size, -1)
    est = _sum((half[:, None] * _WEIGHTS[0])[..., None] * y, axis=1)
    err = np.abs(_sum((half[:, None] * _DIFF)[..., None] * y, axis=1))
    return est, err, shape


def _to_bisect(err, tol, room):
    """Per output, its leaf intervals in order of decreasing error up to the
    fewest whose bisection could leave the rest within ``tol``, at most
    ``room`` of them; ``err`` is zero off the leaves, and NaN picks none."""
    order = np.argsort(-err, axis=0, kind="stable")
    ranked = np.take_along_axis(err, order, axis=0)
    rest = np.cumsum(ranked[::-1], axis=0)[::-1]  # error left unbisected from rank i on
    pick = (rest > tol) & (np.arange(len(err))[:, None] < room)
    out = np.zeros_like(pick)
    np.put_along_axis(out, order, pick, axis=0)
    return out


def integrate(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """Integral of ``f`` over ``[a, b]`` by global adaptive G10/K21 bisection.

    ``f`` maps nodes ``(n,)`` to values ``(n, ...)``; it is called once for
    the first interval and then once per refinement round, on the 21 nodes
    of every half of every interval bisected in that round.  Each output
    stops refining when its summed error estimate is at most
    ``max(epsabs, epsrel * |value|)`` or it has ``limit`` intervals; a round
    bisects, per output, the intervals of largest error estimate until the
    rest would fit the tolerance.

    Returns
    -------
    QuadratureResult
        ``converged`` is False where the tolerance was not met (a NaN
        error included).
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    est, err, shape = _estimate(f, lo, hi)
    leaf = np.ones(est.shape, dtype=bool)
    while True:
        value = _sum(np.where(leaf, est, 0.0), axis=0)
        tol = np.maximum(epsabs, epsrel * np.abs(value))
        split = _to_bisect(np.where(leaf, err, 0.0), tol, limit - leaf.sum(axis=0))
        parents = np.flatnonzero(split.any(axis=1))
        if parents.size == 0:
            break
        mid = 0.5 * (lo[parents] + hi[parents])
        halves = np.concatenate([lo[parents], mid]), np.concatenate([mid, hi[parents]])
        e, r, _ = _estimate(f, *halves)
        leaf &= ~split
        lo, hi = np.concatenate([lo, halves[0]]), np.concatenate([hi, halves[1]])
        est, err = np.concatenate([est, e]), np.concatenate([err, r])
        leaf = np.concatenate([leaf, split[parents], split[parents]])
    error = _sum(np.where(leaf, err, 0.0), axis=0)
    converged = (error <= tol) & np.isfinite(value)
    neval = lo.size * _NODES.size  # every interval's nodes, each evaluated once
    if shape == ():
        return QuadratureResult(float(value[0]), float(error[0]), bool(converged[0]), neval)
    return QuadratureResult(value.reshape(shape), error.reshape(shape),
                            converged.reshape(shape), neval)
