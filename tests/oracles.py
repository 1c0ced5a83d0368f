"""References for the tests that the package itself does not run.

:func:`brioschi_curvature` evaluates a rational 2-dimensional metric's
``fn`` on ``mpmath.mpf`` coordinates at :data:`DPS` digits, takes the
components ``E, F, G`` and their derivatives with ``mpmath.diff`` and
applies Brioschi's formula.  It is the reference for the double-double
curvature of :func:`hkgeo.geometry.gaussian_curvature` (``dps=DIGITS``),
which it must match bit for bit once rounded to float64.

The others are second routes to what the package computes another way:

* :func:`solve`, Gauss-Jordan elimination over float, jet or mpmath
  entries, for the package's factored solves;
* :func:`christoffel_fd`, the connection from central differences of the
  metric, for the jet-derived :func:`hkgeo.geometry.christoffel`;
* :func:`riemann` and :func:`ricci_scalar`, the full curvature tensor and
  its contraction, for Brioschi's formula in
  :func:`hkgeo.geometry.gaussian_curvature`;
* :func:`metric_from_potential`, the Hermitian metric of a Kaehler
  potential, for the stock fields of :mod:`hkgeo.kahler` and the
  potentials the hygiene check differentiates, with two fixtures that no
  command builds: :func:`control_potential`, the potential of the negative
  control, and :func:`single_mode_field`, the one-dimensional metric of
  the hygiene check's single-mode potential;
* :func:`x_matrices`, ``2 (d_z h) h^{-1}`` in complex arithmetic from the
  Wirtinger derivative, for the realified solve of
  :func:`hkgeo.kahler.x_matrices`;
* :class:`DenseJet` and :func:`dense_call`, jets that carry every
  coordinate's derivatives through every rule, for the support-tracking
  :class:`hkgeo.jets.Jet`, which must match them bit for bit;
* :func:`square_jet`, a field's matrix and its derivatives packed point
  axis first and mirrored as a whole by :func:`mirror_triangle`, for the
  point-last fill of :meth:`hkgeo.fields.Field.jet`;
* :func:`substitute` and :func:`solve_entries`, the factored solves run
  point axis first (every array ``(*batch, ..., rows, cols)``), for the
  point-last :func:`hkgeo.geometry._solve` and
  :func:`hkgeo.geometry._solve_entries`, which must match them bit for bit.
"""

import mpmath
import numpy as np

from hkgeo.ddouble import DD
from hkgeo.geometry import _christoffel_from, _lowered_christoffel, _solve
from hkgeo.jets import (Jet, _batch_shape, _coords, _outer, _zeros, call_field, evaluate_jet,
                        fd_step, first_failure)
from hkgeo.kahler import HermitianMetricField

#: Working digits of the oracle: well above the 31 of a double-double.
DPS = 60


def brioschi_curvature(g, p):
    """``2K`` of the 2-dimensional metric ``g`` at the point ``p``, rounded to float64.

    ``g.fn`` must be rational in the coordinates (``+``, ``-``, ``*``,
    ``/``, integer powers), so that it evaluates on mpmath numbers.  The
    normalisation is :func:`hkgeo.geometry.gaussian_curvature`'s: twice the
    Gaussian curvature (do Carmo, *Differential Geometry of Curves and
    Surfaces*, section 4-3, for Brioschi's formula).
    """
    with mpmath.workdps(DPS):
        x = [mpmath.mpf(float(c)) for c in p]

        def d(i, j, order):  # d^order g_ij at x
            return mpmath.diff(lambda u, v: mpmath.mpf(g.fn([u, v])[i][j]), x, order)

        E, F, G = d(0, 0, (0, 0)), d(0, 1, (0, 0)), d(1, 1, (0, 0))
        Eu, Ev, Evv = d(0, 0, (1, 0)), d(0, 0, (0, 1)), d(0, 0, (0, 2))
        Fu, Fv, Fuv = d(0, 1, (1, 0)), d(0, 1, (0, 1)), d(0, 1, (1, 1))
        Gu, Gv, Guu = d(1, 1, (1, 0)), d(1, 1, (0, 1)), d(1, 1, (2, 0))
        first = mpmath.det(mpmath.matrix([
            [-Evv / 2 + Fuv - Guu / 2, Eu / 2, Fu - Ev / 2],
            [Fv - Gu / 2, E, F],
            [Gv / 2, F, G]]))
        second = mpmath.det(mpmath.matrix([
            [0, Ev / 2, Gu / 2],
            [Ev / 2, E, F],
            [Gu / 2, F, G]]))
        return float(2 * (first - second) / (E * G - F * F) ** 2)


def solve(A, B):
    """Solve ``A X = B`` for positive-definite ``A`` on any entry type.

    Entries may be floats, jets or other numbers (mpmath's), mixed freely,
    so the solution carries exact derivatives when ``A`` or ``B`` does;
    they may also be arrays (or jets) over a batch of points, solved at
    once.  Gauss-Jordan elimination runs in the given row order, without
    pivoting, which is stable on positive-definite matrices (growth factor
    1).  Exact-zero float multipliers are skipped, so a batch gives what
    its points give one at a time, except that an exact zero may carry the
    other sign: a zero multiplier is skipped only when it is a plain float.
    ``B`` is a matrix (rows indexed like ``A``) when its rows are lists or
    tuples or it is an array of two or more axes, and a vector (of scalars,
    arrays over the points or jets) otherwise; the result is a list of
    rows, or a list, of the same shape.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a pivot is not positive (NaN included), naming the first failing
        point of a batch.
    """
    n = len(A)
    vector = not (isinstance(B[0], (list, tuple))
                  or isinstance(B, np.ndarray) and B.ndim >= 2)
    rows = [list(A[i]) + ([B[i]] if vector else list(B[i])) for i in range(n)]
    for col in range(n):
        pivot = rows[col][col]
        pivot = pivot.value if isinstance(pivot, Jet) else pivot
        failure = first_failure(np.asarray(pivot > 0, dtype=bool))
        if failure is not None:
            raise np.linalg.LinAlgError(f"pivot {col} not positive{failure[1]}")
        inv_p = 1.0 / rows[col][col]
        rows[col] = [x * inv_p for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r == col or (isinstance(f, float) and f == 0.0):
                continue
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n] for row in rows] if vector else [row[n:] for row in rows]


def substitute(L, B):
    """``X`` with ``L L^T X = B``, by forward and back substitution, point axis first.

    ``L`` ``(..., d, d)`` is a lower Cholesky factor and ``B`` ``(..., d, m)``
    holds the right-hand sides as columns; leading axes broadcast.  With
    ``L = U D`` (``U`` unit lower triangular, ``D`` its positive diagonal),
    ``X = U^{-T} D^{-2} U^{-1} B``, in the ``2 d - 1`` elementwise steps of
    :func:`hkgeo.geometry._substitute`, each over the columns innermost.
    """
    d = L.shape[-1]
    diag = L.diagonal(0, -2, -1)
    U = L / diag[..., None, :]
    X = B * np.ones(L.shape[:-2] + (1, 1), dtype=np.result_type(L, B))  # a broadcast copy
    for j in range(d - 1):
        X[..., j + 1:, :] -= U[..., j + 1:, j, None] * X[..., j, None, :]
    X /= (diag * diag)[..., None]
    for j in range(d - 1, 0, -1):
        X[..., :j, :] -= U[..., j, :j, None] * X[..., j, None, :]
    return X


def product(A, X):
    """``A @ X`` over the last two axes, summed term by term in index order."""
    acc = A[..., :, :1] * X[..., :1, :]
    for j in range(1, A.shape[-1]):
        acc = acc + A[..., :, j, None] * X[..., j, None, :]
    return acc


def stack_entries(table, part="value", tail=(), batch=None):
    """One part (``"value"``, ``"gradient"`` or ``"hessian"``) of every entry
    of a table as one float array ``(*batch, *tail, rows, cols)``, point axis
    first (a number has no derivative parts: zero there)."""
    if batch is None:
        batch = np.broadcast_shapes(*(np.shape(e.value if isinstance(e, Jet) else e)
                                      for row in table for e in row))
    t = np.zeros((len(table), len(table[0]), *tail, *batch))
    for i, row in enumerate(table):
        for j, e in enumerate(row):
            if isinstance(e, Jet) or part == "value":
                x = np.asarray(getattr(e, part) if isinstance(e, Jet) else e)
                t[i, j] = x.reshape(x.shape + (1,) * (t.ndim - 2 - x.ndim))
    return t.transpose(*range(2 + len(tail), t.ndim), *range(2, 2 + len(tail)), 0, 1)


def solve_entries(guard, A, B):
    """:func:`hkgeo.geometry._solve_entries` point axis first: the values
    ``X = A^{-1} B`` and, by implicit differentiation with the factor ``L``
    ``(..., n, n)`` that ``guard`` gives of ``A``'s values,
    ``d_k X = A^{-1} (d_k B - d_k A X)`` and (when every jet
    carries a Hessian) ``d_kl X = A^{-1} (d_kl B - d_kl A X - d_k A d_l X -
    d_l A d_k X)``, each derivative slice a block of columns of one
    :func:`substitute`."""
    vector = not (isinstance(B[0], (list, tuple))
                  or isinstance(B, np.ndarray) and B.ndim >= 2)
    rhs = [[b] for b in B] if vector else B
    jets = [e for table in (A, rhs) for row in table for e in row if isinstance(e, Jet)]
    batch = np.broadcast_shapes(*(np.shape(e.value if isinstance(e, Jet) else e)
                                  for table in (A, rhs) for row in table for e in row))
    L = guard(stack_entries(A, batch=batch))

    def solved(R):  # the slices R[..., k, :, :] become blocks of columns
        Rm = np.moveaxis(R, -2, len(batch))
        X = substitute(L, Rm.reshape(*Rm.shape[:len(batch) + 1], -1))
        return np.moveaxis(X.reshape(Rm.shape), len(batch), -2)

    X = solved(stack_entries(rhs, batch=batch))
    grad = hess = None
    if jets:
        tail = (jets[0].dim,)
        dA = stack_entries(A, "gradient", tail, batch)
        dX = solved(stack_entries(rhs, "gradient", tail, batch) - product(dA, X[..., None, :, :]))
        grad = np.moveaxis(dX, -3, 0)
        if all(e.hessian is not None for e in jets):
            T = product(dA[..., :, None, :, :], dX[..., None, :, :, :])  # d_k A d_l X
            d2A = stack_entries(A, "hessian", tail * 2, batch)
            d2X = solved(stack_entries(rhs, "hessian", tail * 2, batch)
                         - product(d2A, X[..., None, None, :, :])
                         - T - np.swapaxes(T, -4, -3))
            hess = np.moveaxis(d2X, (-4, -3), (0, 1))

    def entry(i, j):
        if grad is None:
            return X[..., i, j][()]
        return Jet(X[..., i, j][()], grad[..., i, j], None if hess is None else hess[..., i, j])

    out = [[entry(i, j) for j in range(len(rhs[0]))] for i in range(len(A))]
    return [row[0] for row in out] if vector else out


def christoffel_fd(g, p):
    """The connection of :func:`hkgeo.geometry.christoffel`, but every metric
    derivative from central differences.

    One point ``(d,)`` or a batch ``(B, d)``: one ``g.value`` call on each
    point and its ``2 d`` shifts by the steps of :func:`hkgeo.jets.fd_step`.
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


def mirror_triangle(a, sign=1):
    """Full square matrix from the upper triangle of ``a``.

    The last two axes of ``a`` (an array or a nested sequence) index the
    matrix; leading axes, such as derivative slots, are carried along.
    ``sign=+1`` mirrors the upper triangle onto the lower one (symmetric);
    ``sign=-1`` mirrors it with the opposite sign and puts zeros on the
    diagonal (antisymmetric).  Entries below the diagonal, and on it when
    ``sign=-1``, are never read, so they may be ``None``.  Entries are
    moved, not recomputed, except for the negations of the antisymmetric
    mirror, so floats and jets come through unchanged.
    """
    a = np.asarray(a)
    upper = np.triu(np.ones(a.shape[-2:], dtype=bool), 0 if sign > 0 else 1)
    if sign > 0:
        return np.where(upper, a, np.swapaxes(a, -1, -2))
    strict = np.where(upper, a, 0.0)
    return np.where(upper.T, -np.swapaxes(strict, -1, -2), strict)


def riemann(g, p):
    """``R[..., A, B, C, D] = R^A_{BCD}`` at one point ``(d,)`` or a batch ``(B, d)``,
    in the convention of :mod:`hkgeo.geometry`.

    Computed on the ``C < D`` triangle and mirrored, as ``g^{AE}(d_C T_{E,DB}
    - d_D T_{E,CB} - d_C g_{EF} Gamma^F_{DB} + d_D g_{EF} Gamma^F_{CB})
    + Gamma^A_{CS} Gamma^S_{DB} - Gamma^A_{DS} Gamma^S_{CB}`` (``T`` the
    lowered Christoffel symbols), so no inverse metric is formed.
    """
    gv, dg, d2g = g.jet(p)
    d, batch = gv.shape[-1], gv.shape[:-2]
    C, D = np.triu_indices(d, 1)  # the pairs C < D, then swapped: P, Q
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
    """Scalar curvature by full contraction ``g^{BD} R^A_{BAD}``; it equals
    :func:`hkgeo.geometry.gaussian_curvature` on 2-dimensional metrics."""
    ric = np.einsum("abad->bd", riemann(g, p))
    return np.trace(_solve(g.value(p), ric))  # g^{BP} ric[P, B]


def x_matrices(hfield, p):
    """``X[..., p, :, :] = 2 (d_p h) h^{-1}`` of :func:`hkgeo.kahler.x_matrices`,
    in complex arithmetic: the Wirtinger derivative ``d_p = (d_{u_p} - i
    d_{v_p}) / 2`` of the complex matrix ``h`` read off the realified
    metric's jet, and ``h^{-1}`` by numpy's LU solve."""
    gv, dg, _ = hfield.jet(np.asarray(p, dtype=float), order=1)
    h = gv[..., 0::2, 0::2] + 1j * gv[..., 0::2, 1::2]
    grad = dg[..., 0::2, 0::2] + 1j * dg[..., 0::2, 1::2]  # real derivatives of h
    dh = 0.5 * (grad[..., 0::2, :, :] - 1j * grad[..., 1::2, :, :])
    ht = np.swapaxes(h, -1, -2)[..., None, :, :]  # X^T = h^{-T} (2 d_p h)^T
    return np.swapaxes(np.linalg.solve(ht, 2.0 * np.swapaxes(dh, -1, -2)), -1, -2)


class HermiticityError(ArithmeticError):
    """A matrix that must be Hermitian came out measurably non-Hermitian."""


def metric_from_potential(potential, p):
    """Hermitian component matrix ``d^2 K / dz^i dzbar^k`` at real point ``p``.

    ``potential`` is a real scalar field over the interleaved real
    coordinates ``(u1, v1, ..., un, vn)``.  The Wirtinger combination of its
    real Hessian is

        h_ik = (K_uu + K_vv) / 4 + i (K_uv - K_vu) / 4,

    per index pair.  The result is checked to be Hermitian to 1e-12
    (relative); a failure indicates an inconsistent potential evaluation and
    raises :class:`HermiticityError`.
    """
    H = evaluate_jet(potential, p).hessian
    re = 0.25 * (H[0::2, 0::2] + H[1::2, 1::2])
    im = 0.25 * (H[0::2, 1::2] - H[1::2, 0::2])
    h = re + 1j * im
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > 1e-12 * max(1.0, float(np.max(np.abs(h)))):
        raise HermiticityError(f"Hessian combination non-Hermitian by {dev:.3e}")
    return h


def control_potential(c):
    """``|z1|^2 + |z1|^4 / 4 + |z2|^2``: the Kaehler potential of
    :func:`hkgeo.kahler.non_unimodular_field`, which shows that the negative
    control is Kaehler and fails only the unit-determinant condition."""
    u1, v1, u2, v2 = c
    r2 = u1 * u1 + v1 * v1
    return r2 + r2 * r2 / 4.0 + u2 * u2 + v2 * v2


def single_mode_field():
    """One complex dimension, ``h = 1 + |z|^2``: the metric of the hygiene
    check's single-mode potential ``|z|^2 + |z|^4 / 4``."""

    def re_fn(c):
        u, v = c
        return [[1.0 + u * u + v * v]]

    return HermitianMetricField(1, re_fn, name="1 + |z|^2")


def square_jet(fn, p, sign, order):
    """``(V, D1, D2)`` of a matrix field's :meth:`hkgeo.fields.Field.jet`, built another way.

    The triangle of ``fn``'s matrix (with the diagonal for ``sign=+1``, without
    it for ``sign=-1``) is lifted to jets of ``order`` and packed into an array
    ``(*batch, slots, d, d)``, point axis first, which :func:`mirror_triangle`
    then mirrors as a whole (one part of a double-double array at a time).
    """
    batch = _batch_shape(p)
    dim = len(p[0]) if batch else len(p)
    raw = call_field(fn, p, order)
    d = len(raw)
    shape = (*batch, 1 + {None: 0, 1: dim, 2: dim + dim * dim}[order], d, d)
    packed = DD.zeros(shape) if isinstance(p, DD) else np.zeros(shape)
    for M in range(d):
        for N in range(M if sign > 0 else M + 1, d):
            e = raw[M][N]
            if not isinstance(e, Jet):
                packed[..., 0, M, N] = e
                continue
            packed[..., 0, M, N] = e.value
            packed[..., 1:dim + 1, M, N] = e.gradient.T
            if order == 2:
                packed[..., dim + 1:, M, N] = e.hessian.reshape(dim * dim, *batch).T
    full = (packed.map(mirror_triangle, sign) if isinstance(packed, DD)
            else mirror_triangle(packed, sign))
    D1 = full[..., 1:dim + 1, :, :] if order else None
    D2 = (full[..., dim + 1:, :, :].reshape(*batch, dim, dim, d, d)
          if order == 2 else None)
    return full[..., 0, :, :], D1, D2


class DenseJet(Jet):
    """A :class:`hkgeo.jets.Jet` whose gradient and Hessian always span every
    coordinate, ``(d, ...)`` and ``(d, d, ...)``: the jet rules as they were
    before jets tracked their support, so that every rule runs on all ``d``
    rows, zero or not.

    Only the rules that build a jet are written again here; the elementary
    derivatives (the ``f, f', f''`` of ``sqrt``, ``sin``, ``cos``, powers,
    reciprocals and ``atan2``) are the package's, which reach these through
    ``_compose``, ``_compose2`` and ``_lift``.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, value, dim, order=2, like=None):
        ref = value if like is None else like
        return cls(value, _zeros((dim,), ref), _zeros((dim, dim), ref) if order == 2 else None)

    @classmethod
    def variable(cls, value, index, dim, order=2):
        jet = cls.constant(value, dim, order)
        jet.grad[index] = value * 0 + 1
        return jet

    def _lift(self, c):
        return DenseJet.constant(c, self.dim, 1 if self.hess is None else 2, like=self.value)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return DenseJet(self.value + other, self.grad, self.hess)
        hess = None if self.hess is None or other.hess is None else self.hess + other.hess
        return DenseJet(self.value + other.value, self.grad + other.grad, hess)

    __radd__ = __add__

    def __neg__(self):
        return DenseJet(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return DenseJet(self.value * other, self.grad * other,
                            None if self.hess is None else self.hess * other)
        ga, gb = self.grad, other.grad
        hess = (None if self.hess is None or other.hess is None
                else other.hess * self.value + self.hess * other.value
                + _outer(ga, gb) + _outer(gb, ga))
        return DenseJet(self.value * other.value, gb * self.value + ga * other.value, hess)

    __rmul__ = __mul__

    def _compose(self, f0, f1, f2):
        g = self.grad
        return DenseJet(f0, g * f1, None if self.hess is None
                        else self.hess * f1 + _outer(g, g) * f2())

    def _compose2(self, b, f0, fa, fb, second):
        ga, gb = self.grad, b.grad
        grad = ga * fa + gb * fb
        if self.hess is None or b.hess is None:
            return DenseJet(f0, grad)
        faa, fab, fbb = second()
        hess = (self.hess * fa + b.hess * fb
                + _outer(ga, ga) * faa
                + (_outer(ga, gb) + _outer(gb, ga)) * fab
                + _outer(gb, gb) * fbb)
        return DenseJet(f0, grad, hess)


def dense_call(f, p, order):
    """:func:`hkgeo.jets.call_field` of ``f`` at ``p`` on :class:`DenseJet` seeds of ``order``."""
    coords = _coords(p)
    with np.errstate(divide="raise", invalid="raise"):
        return f([DenseJet.variable(x, i, len(coords), order) for i, x in enumerate(coords)])
