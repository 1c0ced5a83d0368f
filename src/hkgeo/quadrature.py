"""Adaptive Gauss-Kronrod quadrature over batched integrands.

The rule is QUADPACK's pair (Piessens et al., *QUADPACK*, Springer 1983):
the 21-point Kronrod extension K21 of the 10-point Gauss-Legendre rule
G10.  The Gauss nodes are every other Kronrod node, so one evaluation of
the 21 nodes of an interval gives both estimates; K21 is the estimate and
``|K21 - G10|`` its error estimate.  The nodes and weights are a literal
table, bit for bit the rule that Laurie's algorithm gives from the
Legendre recurrence (*Math. Comp.* 66 (1997) 1133-1145); the tests
regenerate it.

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

__all__ = ["QuadratureResult", "integrate"]


class QuadratureResult(NamedTuple):
    """``value``, ``error`` (estimate of ``|value - integral|``) and ``converged``
    have the output shape of the integrand (floats and a bool for a scalar
    integrand); ``neval`` counts integrand nodes."""

    value: float | np.ndarray
    error: float | np.ndarray
    converged: bool | np.ndarray
    neval: int


#: Nodes ``(21,)`` on ``[-1, 1]``, ascending, and the weights ``(2, 21)`` of K21
#: and of G10 on them (the Gauss weights are zero off its nodes, which are the
#: odd-indexed Kronrod nodes); read-only.
_NODES = np.array([
    -0.9956571630258081, -0.9739065285171717, -0.9301574913557082, -0.8650633666889845,
    -0.7808177265864169, -0.6794095682990244, -0.5627571346686047, -0.43339539412924716,
    -0.2943928627014602, -0.1488743389816312, 0.0, 0.1488743389816312, 0.2943928627014602,
    0.43339539412924716, 0.5627571346686047, 0.6794095682990244, 0.7808177265864169,
    0.8650633666889845, 0.9301574913557082, 0.9739065285171717, 0.9956571630258081])
_WEIGHTS = np.array([
    [0.01169463886737187, 0.03255816230796463, 0.05475589657435201, 0.07503967481092,
     0.0931254545836976, 0.10938715880229759, 0.12349197626206586, 0.1347092173114733,
     0.14277593857706009, 0.1477391049013385, 0.14944555400291687, 0.1477391049013385,
     0.14277593857706009, 0.1347092173114733, 0.12349197626206586, 0.10938715880229759,
     0.0931254545836976, 0.07503967481092, 0.05475589657435201, 0.03255816230796463,
     0.01169463886737187],
    [0.0, 0.06667134430868799, 0.0, 0.14945134915058064, 0.0, 0.21908636251598193, 0.0,
     0.26926671930999635, 0.0, 0.2955242247147529, 0.0, 0.2955242247147529, 0.0,
     0.26926671930999635, 0.0, 0.21908636251598193, 0.0, 0.14945134915058064, 0.0,
     0.06667134430868799, 0.0]])
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False
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
