"""Quadratic kinetic Lagrangians and Hamiltonian reduction.

Only kinetic terms ``L = q'^T M(q) q' / 2`` appear here, so the Legendre
transform is exact matrix inversion (``H = p^T M^{-1} p / 2``) and imposing
a conserved momentum ``p_fiber = 0`` is pure linear algebra: delete the
fiber row and column of ``M^{-1}`` and invert the rest.  By the Schur
complement identity this equals the orthogonal-projection quotient of the
metric ``M``, which is the point the cross-module tests drive home.

Phase-space scalars are plain callables over the ``2n`` coordinates
``(q_1 .. q_n, p_1 .. p_n)``; Poisson brackets differentiate them with
first-order jets (a bracket reads gradients only), so no finite
differencing is involved.  A mass matrix must be positive definite, with
eigenvalues ``lambda_min >= MIN_RCOND * lambda_max > 0``: an indefinite one
is rejected even when invertible.  Every inversion or solve applies that
rule, so the solves need no pivoting (:func:`hkgeo.jets.solve`).  A
stacked Cholesky factorisation decides it for well-conditioned stacks;
the eigenvalues are computed only for a stack it cannot clear, and they
word every rejection (:func:`_check_mass`).

Every entry point takes one point or a batch of points, and the shape
decides: a :class:`PhasePoint` of ``(n,)`` or ``(B, n)`` arrays, a
configuration ``q`` of ``(n,)`` or ``(B, n)``.  A batch is evaluated in one
pass (jets with a point axis, one stacked factorisation per mass-matrix
check), with the same result as its points one at a time (bit for bit on
the registered models; see :func:`hkgeo.jets.solve` for the sign of an
exact zero); errors name the first failing point.
"""

from __future__ import annotations

import numpy as np

from ._record import Frozen
from .fields import Chart, MetricField, _triangle
from .geometry import _cholesky_diagonal, _solve
from .jets import Jet, evaluate_jet, first_failure, solve

__all__ = [
    "DegenerateLagrangianError",
    "InvalidConstraintError",
    "PhasePoint",
    "QuadraticKinetic",
    "legendre_to_hamiltonian",
    "hamiltonian_field",
    "momentum_field",
    "poisson_bracket",
    "constrain_and_reduce",
]


class DegenerateLagrangianError(ValueError):
    """The mass matrix is not positive definite (singular, nearly so or indefinite)."""


class InvalidConstraintError(ValueError):
    """The requested constraint momentum is not conserved."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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
        """``(q, p)`` joined: a list of ``2n`` floats, or a ``(B, 2n)`` array."""
        c = np.concatenate([np.asarray(self.q, dtype=float),
                            np.asarray(self.p, dtype=float)], axis=-1)
        return c if c.ndim == 2 else c.tolist()


class QuadraticKinetic:
    """Kinetic Lagrangian ``L = q'^T M(q) q' / 2``.

    ``fn(coords)`` supplies the mass matrix components (upper triangle
    read, symmetry by storage, jets welcome) over the labelled
    configuration coordinates.
    """

    def __init__(self, labels, fn, name=""):
        self.labels = tuple(labels)
        self.field = MetricField(Chart(self.labels), fn, name=name)
        self.name = name

    @property
    def dim(self):
        return len(self.labels)

    @property
    def fn(self):
        return self.field.fn

    def matrix(self, q):
        """Mass matrix at ``q``: ``(n, n)``, or ``(B, n, n)`` for a batch ``(B, n)``."""
        return self.field.value(q)

    def __repr__(self):
        return f"QuadraticKinetic({self.name or self.labels})"


#: Smallest ``lambda_min / lambda_max`` of an admissible mass matrix.
MIN_RCOND = 1e-13


def _mass_entries(L, q):
    """Mass matrix of ``L`` at ``q`` as an ``n x n`` object array of entries.

    The entries are what ``L.fn`` returns (floats, arrays over a batch of
    points, or jets), mirrored from the upper triangle, not converted.
    """
    M = np.empty((L.dim, L.dim), dtype=object)
    for i, j, e in _triangle(L.fn(q), +1):
        M[i, j] = M[j, i] = e
    return M


def _mass_values(M):
    """Float values of a mass matrix: ``(n, n)``, or ``(B, n, n)`` over a batch."""
    if isinstance(M, np.ndarray) and M.dtype != object:
        return M
    n = len(M)
    flat = np.broadcast_arrays(*(np.asarray(x.value if isinstance(x, Jet) else x,
                                            dtype=float)
                                 for row in M for x in row))
    return np.moveaxis(np.reshape(flat, (n, n, *flat[0].shape)), (0, 1), (-2, -1))


def _check_mass(M, q=None):
    """Reject a mass matrix whose value part is non-finite or not positive definite.

    The one rule of this module, applied wherever a mass matrix is inverted
    or solved: eigenvalues ``lambda_min >= MIN_RCOND * lambda_max > 0``, or
    :class:`DegenerateLagrangianError`.  Jet entries are judged by their
    values.  Over a batch the rule holds per point, and the error names the
    first failing point (with its coordinates, when ``q`` is given).

    One Cholesky factorisation of the stack clears it when every matrix has
    ``prod(l_i^2 / tr M) >= 2 MIN_RCOND`` over its factor's diagonal ``l``:
    then ``lambda_min >= det M / lambda_max^(n-1) >= 2 MIN_RCOND tr M``, the
    factor 2 covering rounding (Golub & Van Loan, *Matrix Computations*,
    4.2 and 8.1).  As a product of ratios, each at most 1, the test is free
    of scale, where ``det M >= c (tr M)^n`` could pass with both sides
    underflowed to 0.  A stack that is not cleared, or holds a non-finite
    entry, is judged by its eigenvalues, which make every rejection.
    """
    Mv = _mass_values(M)
    finite = np.isfinite(Mv).all(axis=(-2, -1))
    if finite.all():
        diag = _cholesky_diagonal(Mv)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test
            tr = np.trace(Mv, axis1=-2, axis2=-1)[..., None]
            if (np.prod(diag * diag / tr, axis=-1) >= 2 * MIN_RCOND).all():
                return
    else:
        Mv = np.where(finite[..., None, None], Mv, np.eye(Mv.shape[-1]))
    lo, hi = np.moveaxis(np.linalg.eigvalsh(Mv)[..., [0, -1]], -1, 0)  # ascending
    failure = first_failure(finite & (lo >= MIN_RCOND * hi) & (hi > 0), q)
    if failure is None:
        return
    k, where = failure
    at = () if k is None else k
    if not finite[at]:
        raise DegenerateLagrangianError(f"mass matrix has non-finite entries{where}")
    raise DegenerateLagrangianError(
        f"mass matrix is not positive definite (eigenvalues {lo[at]:.3e} to "
        f"{hi[at]:.3e}; need min >= {MIN_RCOND:.0e} max > 0){where}")


def _solve_mass(M, B):
    """``M X = B`` in jet-capable arithmetic, for a mass matrix ``M``."""
    _check_mass(M)
    return solve(M, B)


def legendre_to_hamiltonian(L, q):
    """Kinetic matrix ``M(q)^{-1}`` of the Hamiltonian ``p^T M^{-1} p / 2``.

    ``(n, n)`` at one configuration, ``(B, n, n)`` over a batch ``(B, n)``.
    """
    M = L.matrix(q)
    _check_mass(M, q)
    Minv = _solve(M, np.eye(M.shape[-1]))
    return 0.5 * (Minv + np.swapaxes(Minv, -1, -2))


def hamiltonian_field(L):
    """The Hamiltonian as a jet-capable phase-space scalar.

    Evaluates ``p^T M(q)^{-1} p / 2`` without forming the inverse: the
    linear system ``M x = p`` is solved in jet arithmetic, so Poisson
    brackets of the result are exact derivatives.
    """
    n = L.dim

    def H(coords):
        q, mom = coords[:n], coords[n:]
        x = _solve_mass(_mass_entries(L, q), mom)
        acc = 0.0
        for pi, xi in zip(mom, x):
            acc = acc + pi * xi
        return 0.5 * acc

    return H


def momentum_field(i, n):
    """The phase-space scalar ``p_i`` on an ``n``-coordinate configuration."""

    def f(coords):
        return coords[n + i]

    return f


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
    out = []
    for jf in jfs:
        acc = 0.0
        for i in range(n):
            acc += jf.gradient[i] * jg.gradient[n + i] - jf.gradient[n + i] * jg.gradient[i]
        out.append(acc)
    if not callable(f):
        return np.array(out, dtype=float)
    return out[0] if np.ndim(out[0]) else float(out[0])


def _probe_momenta(d):
    """``e_j`` followed by ``e_j + e_k`` for every ``k > j``, for each ``j``."""
    eye = np.eye(d)
    return [eye[j] + (eye[k] if k > j else 0.0) for j in range(d) for k in range(j, d)]


def constrain_and_reduce(L, fiber_index, probe_points=None, tol=1e-10):
    """Impose ``p_fiber = 0`` and return the reduced kinetic Lagrangian.

    The fiber coordinate must be cyclic; this is checked literally, as
    Poisson brackets ``{p_fiber, H}`` over a basis of probe momenta at the
    given configuration points (default: the all-ones configuration), all
    (point, probe) pairs in one batched bracket.  A residual above ``tol``
    raises :class:`InvalidConstraintError`.

    The reduced mass matrix is computed per evaluation by deleting the
    fiber row/column of ``M^{-1}`` and inverting the remaining block, in
    jet-capable arithmetic; its ``matrix`` takes a batch of configurations
    like any :class:`QuadraticKinetic`.
    """
    n = L.dim
    if not 0 <= fiber_index < n:
        raise ValueError(f"fiber index {fiber_index} outside 0..{n - 1}")
    H = hamiltonian_field(L)
    pf = momentum_field(fiber_index, n)
    points = np.asarray(probe_points if probe_points is not None else [[1.0] * n],
                        dtype=float)
    probes = np.asarray(_probe_momenta(n))
    pairs = PhasePoint(np.repeat(points, len(probes), axis=0),
                       np.tile(probes, (len(points), 1)))
    worst = float(np.max(np.abs(poisson_bracket(pf, H, pairs))))  # keeps NaN
    if not worst <= tol:
        raise InvalidConstraintError(
            f"coordinate {L.labels[fiber_index]!r} is not cyclic "
            f"(bracket residual {worst:.3e})",
            residual=worst,
        )

    keep = [i for i in range(n) if i != fiber_index]
    labels = tuple(L.labels[i] for i in keep)

    def reduced_fn(coords):
        full = list(coords)
        full.insert(fiber_index, 0.0)
        Minv = _solve_mass(_mass_entries(L, full), np.eye(n).tolist())
        block = [[Minv[i][j] for j in keep] for i in keep]
        return _solve_mass(block, np.eye(n - 1).tolist())

    return QuadraticKinetic(labels, reduced_fn,
                            name=f"{L.name or 'kinetic'} / {L.labels[fiber_index]}")
