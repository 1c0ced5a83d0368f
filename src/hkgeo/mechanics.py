"""Quadratic kinetic Lagrangians and Hamiltonian reduction.

Only kinetic terms ``L = q'^T M(q) q' / 2`` appear here, and such a term is
given by its mass matrix ``M``: a :class:`~hkgeo.fields.MetricField` on the
configuration chart, the same object the geometric reduction of
:mod:`hkgeo.reduction` acts on.  The Legendre transform is exact matrix
inversion (``H = p^T M^{-1} p / 2``) and imposing a conserved momentum
``p_fiber = 0`` is pure linear algebra: delete the fiber row and column of
``M^{-1}`` and invert the rest.  By the Schur complement identity this
equals the orthogonal-projection quotient of the metric ``M``, which is the
point the cross-module tests drive home.  The fiber is a coordinate, named
by its index, ``fiber_index``, as in :mod:`hkgeo.reduction`, and both keep
the same coordinates, every other one.

Phase-space scalars are plain callables over the ``2n`` coordinates
``(q_1 .. q_n, p_1 .. p_n)``; Poisson brackets differentiate them with
first-order jets (a bracket reads gradients only), so no finite
differencing is involved.  A mass matrix must be positive definite, with
eigenvalues ``lambda_min >= MIN_RCOND * lambda_max > 0``: an indefinite one
is rejected even when invertible.  Every inversion or solve applies that
rule.  A stacked Cholesky factorisation decides it for well-conditioned
stacks; the eigenvalues are computed only for a stack it cannot clear,
and they word every rejection (:func:`_check_mass`).  The rule is the
guard of the array solve (:func:`hkgeo.geometry._solve`, in the Legendre
transform) and of the entry solve (:func:`hkgeo.geometry._solve_entries`,
everywhere else), each of which substitutes with the factor the rule has
just certified, so each solve factors its mass matrices once; on jet
entries the values are solved once and the derivatives follow by implicit
differentiation with the same factor.  A mass matrix's entries are read
as its metric field's ``fn`` returns them, one triangle, mirrored as they
are packed.

Every entry point takes one point or a batch of points, and the shape
decides: a :class:`PhasePoint` of ``(n,)`` or ``(B, n)`` arrays, a
configuration ``q`` of ``(n,)`` or ``(B, n)``.  A batch is evaluated in one
pass (jets with a point axis, one stacked factorisation per mass-matrix
solve), with the same result as its points one at a time (bit for bit on
the registered models); errors name the first failing point.
"""

from __future__ import annotations

import numpy as np

from ._record import Frozen
from .fields import Chart, MetricField
from .geometry import _certified_cholesky, _solve, _solve_entries
from .jets import _ResidualError, evaluate_jet, first_failure
from .reduction import _kept

__all__ = [
    "DegenerateLagrangianError",
    "InvalidConstraintError",
    "PhasePoint",
    "legendre_to_hamiltonian",
    "hamiltonian_field",
    "momentum_field",
    "poisson_bracket",
    "constrain_and_reduce",
]


class DegenerateLagrangianError(ValueError):
    """The mass matrix is not positive definite (singular, nearly so or indefinite)."""


class InvalidConstraintError(_ResidualError):
    """The requested constraint momentum is not conserved."""


class PhasePoint(Frozen):
    """Configuration ``q`` with conjugate momenta ``p``.

    Both are ``(n,)`` sequences for one phase-space point, or ``(B, n)``
    arrays for a batch of ``B`` points.
    """

    __slots__ = ("q", "p")

    def __init__(self, q, p):
        self._set(q, p)
        if np.shape(self.q) != np.shape(self.p):
            raise ValueError("q and p must have the same length")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("non-finite phase-space entries")

    @property
    def coords(self):
        """``(q, p)`` joined: an array ``(2n,)``, or ``(B, 2n)`` for a batch."""
        return np.concatenate([np.asarray(self.q, dtype=float),
                               np.asarray(self.p, dtype=float)], axis=-1)


#: Smallest ``lambda_min / lambda_max`` of an admissible mass matrix.
MIN_RCOND = 1e-13

#: Largest probe bracket ``|{p_fiber, H}|`` of a cyclic coordinate in
#: :func:`constrain_and_reduce`.
CYCLIC_TOL = 1e-10


def _check_mass(Mv, q=None):
    """Cholesky factor ``(..., n, n)`` of the float values ``Mv`` ``(..., n, n)``
    of a mass matrix, or :class:`DegenerateLagrangianError` for one that is
    non-finite or not positive definite.

    The one rule of this module, applied wherever a mass matrix is inverted
    or solved: eigenvalues ``lambda_min >= MIN_RCOND * lambda_max > 0``, or
    :class:`DegenerateLagrangianError`.  Jet entries are judged by their
    values (:func:`hkgeo.geometry._solve_entries` with this guard).  Over a
    batch the rule holds per point, and the error names the first failing
    point (with its coordinates, when ``q`` is given).

    One Cholesky factorisation of the stack clears it when every matrix has
    ``prod(l_i^2 / tr M) >= 2 MIN_RCOND`` over its factor's diagonal ``l``
    (:func:`hkgeo.geometry._certified_cholesky`), the factor 2 covering
    rounding.  A stack that is not cleared, or holds a non-finite entry, is
    judged by its eigenvalues, which make every rejection.
    """
    finite = np.isfinite(Mv).all(axis=(-2, -1))
    if finite.all():
        factor, cleared = _certified_cholesky(Mv, 2 * MIN_RCOND)
        if cleared:
            return factor
    else:
        Mv = np.where(finite[..., None, None], Mv, np.eye(Mv.shape[-1]))
    lo, hi = np.linalg.eigvalsh(Mv)[..., [0, -1]].transpose(-1, *range(Mv.ndim - 2))  # ascending
    failure = first_failure(finite & (lo >= MIN_RCOND * hi) & (hi > 0), q)
    if failure is None:
        return factor
    k, where = failure
    at = () if k is None else k
    if not finite[at]:
        raise DegenerateLagrangianError(f"mass matrix has non-finite entries{where}")
    raise DegenerateLagrangianError(
        f"mass matrix is not positive definite (eigenvalues {lo[at]:.3e} to "
        f"{hi[at]:.3e}; need min >= {MIN_RCOND:.0e} max > 0){where}")


def legendre_to_hamiltonian(g, q):
    """Kinetic matrix ``M(q)^{-1}`` of the Hamiltonian ``p^T M^{-1} p / 2``
    of the mass matrix ``g`` (a :class:`~hkgeo.fields.MetricField`).

    ``(n, n)`` at one configuration, ``(B, n, n)`` over a batch ``(B, n)``.
    """
    M = g.value(q)
    Minv = _solve(M, np.eye(M.shape[-1]), guard=lambda Mv: _check_mass(Mv, q))
    return 0.5 * (Minv + np.swapaxes(Minv, -1, -2))


def hamiltonian_field(g):
    """The Hamiltonian of the mass matrix ``g`` as a jet-capable phase-space
    scalar.

    Evaluates ``p^T M(q)^{-1} p / 2`` without forming the inverse: the
    linear system ``M x = p`` is solved in jet arithmetic, so Poisson
    brackets of the result are exact derivatives.
    """
    n = g.dim

    def H(coords):
        q, mom = coords[:n], coords[n:]
        x = _solve_entries(_check_mass, g.fn(q), mom, +1)
        acc = 0.0
        for pi, xi in zip(mom, x):
            acc = acc + pi * xi
        return 0.5 * acc

    return H


def momentum_field(i, n):
    """The phase-space scalar ``p_i`` on an ``n``-coordinate configuration."""
    return lambda coords: coords[n + i]


def poisson_bracket(f, g, s):
    """``{f, g}`` at a :class:`PhasePoint`, by first-order jet differentiation.

    A float at one phase-space point, a ``(B,)`` array over a batch.  ``f``
    may also be a sequence of phase-space scalars: ``g``'s jet is then
    evaluated once, and the brackets come stacked on a leading axis,
    ``(k,)`` or ``(k, B)``, each as its own call would give it.
    """
    coords = s.coords
    n = np.shape(s.q)[-1]
    jfs = [evaluate_jet(fi, coords, order=1) for fi in ([f] if callable(f) else f)]
    jg = evaluate_jet(g, coords, order=1)
    dg, out = jg.gradient, []
    for jf in jfs:
        df, acc = jf.gradient, 0.0
        for i in range(n):
            acc += df[i] * dg[n + i] - df[n + i] * dg[i]
        out.append(acc)
    if not callable(f):
        return np.array(out, dtype=float)
    return out[0] if np.ndim(out[0]) else float(out[0])


def _probe_momenta(d):
    """``e_j`` followed by ``e_j + e_k`` for every ``k > j``, for each ``j``."""
    eye = np.eye(d)
    return [eye[j] + (eye[k] if k > j else 0.0) for j in range(d) for k in range(j, d)]


def constrain_and_reduce(g, fiber_index, probe_points=None):
    """Impose ``p_fiber = 0`` on the kinetic term of the mass matrix ``g`` and
    return the reduced mass matrix, a :class:`~hkgeo.fields.MetricField` on
    every coordinate but ``fiber_index``, the ones
    :func:`hkgeo.reduction.quotient_metric` keeps (an index outside the
    chart raises ValueError).

    The fiber coordinate must be cyclic; this is checked literally, as
    Poisson brackets ``{p_fiber, H}`` over a basis of probe momenta at the
    given configuration points (default: the all-ones configuration), all
    (point, probe) pairs in one batched bracket.  A residual above
    :data:`CYCLIC_TOL` raises :class:`InvalidConstraintError`.

    The reduced mass matrix is computed per evaluation by deleting the
    fiber row/column of ``M^{-1}`` and inverting the remaining block, in
    jet-capable arithmetic; its ``value`` takes a batch of configurations
    like that of any metric field.
    """
    n = g.dim
    keep = _kept(n, fiber_index)
    H = hamiltonian_field(g)
    pf = momentum_field(fiber_index, n)
    points = np.asarray(probe_points if probe_points is not None else [[1.0] * n],
                        dtype=float)
    probes = np.asarray(_probe_momenta(n))
    pairs = PhasePoint(np.repeat(points, len(probes), axis=0),
                       np.tile(probes, (len(points), 1)))
    worst = float(np.max(np.abs(poisson_bracket(pf, H, pairs))))  # keeps NaN
    if not worst <= CYCLIC_TOL:
        raise InvalidConstraintError(
            f"coordinate {g.chart.names[fiber_index]!r} is not cyclic "
            f"(bracket residual {worst:.3e})",
            residual=worst,
        )

    def reduced_fn(coords):
        full = list(coords)
        full.insert(fiber_index, 0.0)
        Minv = _solve_entries(_check_mass, g.fn(full), np.eye(n).tolist(), +1)
        block = [[Minv[i][j] for j in keep] for i in keep]
        return _solve_entries(_check_mass, block, np.eye(n - 1).tolist())

    return MetricField(Chart(tuple(g.chart.names[i] for i in keep)), reduced_fn,
                       name=f"{g.name or 'kinetic'} / {g.chart.names[fiber_index]}")
