"""Hermitian metrics on complex charts, the unit-determinant (heavenly)
condition, and the associated triple of symplectic structures.

Real realisation
----------------
A complex chart of dimension ``n`` is the real
:class:`~hkgeo.fields.Chart` of its ``2n`` coordinates, interleaved as
``(u1, v1, ..., un, vn)`` with ``z^j = u^j + i v^j``.  In these
coordinates multiplication by ``i`` acts on tangent vectors as
``E = 1_n (x) eps`` with ``eps = [[0, 1], [-1, 0]]``
(:func:`symplectic_matrix`), and a Hermitian component matrix ``h`` realifies
to ``Re h (x) 1_2 + Im h (x) eps`` (``(x)`` the Kronecker product), that is,
``[[A, B], [-B, A]]`` per index pair for ``h = A + iB``, normalised so the
flat potential ``sum |z|^2`` gives the identity metric.  A
:class:`HermitianMetricField` is the :class:`~hkgeo.fields.MetricField` of
that real metric, so the geometry and its real solves take it as it is;
its ``matrix`` reads the complex components back.

Forms
-----
Degree-2 forms are stored as antisymmetric coefficient matrices ``W`` with
``w = sum_{M<N} W_MN dx^M ^ dx^N``.  The three structures attached to a
Hermitian ``h`` on a symplectic pairing ``Omega`` (block-diagonal
``[[0, 1], [-1, 0]]``) are, in that storage,

* ``omega_I = g E``: the Kaehler form ``omega(U, V) = g(EU, V)`` of the
  realified metric ``g`` (depends on the metric),
* ``omega_J = Omega (x) diag(1, -1)`` and
  ``omega_K = Omega (x) [[0, 1], [1, 0]]``: the real and imaginary parts of
  the holomorphic pairing built from ``Omega`` (metric independent).

Mixed-index structures are raised by ``X = -g^{-1} W``
(:func:`hkgeo.reduction.complex_structure`), the convention in which
``w(U, V) = g(XU, V)`` and the flat case satisfies the quaternion algebra
``I J = K``, ``J K = I``, ``K I = J``; :func:`quaternion_defects` gives the
deviation from each of its six relations.

Stock fields
------------
The checks use two fields of complex dimension 2, both Kaehler:
:func:`unit_determinant_shear_field`, which passes the heavenly condition,
and :func:`non_unimodular_field`, the negative control, which fails it.  A
field holds its metric only; the hygiene check differentiates the shear
field's Kaehler potential as one of :func:`hkgeo.models.scalar_fields`.
"""

from __future__ import annotations

import functools

import numpy as np

from ._record import Frozen
from .fields import Chart, FormField, MetricField
from .jets import _read_only, first_failure
from .reduction import complex_structure, raise_first_index

__all__ = [
    "HermitianMetricField",
    "HeavenlyViolation",
    "Triple",
    "symplectic_matrix",
    "sp_generators",
    "sp_residual",
    "coset_exponential",
    "heavenly_check",
    "realify",
    "triple_at",
    "quaternion_defects",
    "quaternion_form_fields",
    "x_matrices",
    "unit_determinant_shear_field",
    "non_unimodular_field",
]


class HeavenlyViolation(ValueError):
    """``h Omega h^T`` is not proportional to ``Omega`` (or not positively so)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# Hermitian fields


class HermitianMetricField(MetricField):
    """A Hermitian metric, held as the :class:`MetricField` of its realified
    real metric.

    Parameters
    ----------
    n : int
        Complex dimension; ``chart`` is the real chart ``(u1, v1, ..., un, vn)``.
    re_fn, im_fn : callable
        Map interleaved real coordinates to the n x n real and imaginary
        parts.  Only the upper triangles are read; the mirrors (symmetric
        for ``re_fn``, antisymmetric with zero diagonal for ``im_fn``) are
        filled in, so Hermiticity is exact by storage.
    """

    def __init__(self, n, re_fn, im_fn=None, name=""):
        im_fn = im_fn or (lambda coords: [[0.0] * n for _ in range(n)])

        def fn(coords):
            # the upper triangle, entry by entry: a batch has (B,) arrays next to constants
            re, im = re_fn(coords), im_fn(coords)
            rows = np.zeros((2 * n, 2 * n), dtype=object)
            for M in range(n):
                for N in range(M, n):
                    b = im[M][N] if N > M else 0.0
                    rows[2 * M, 2 * N] = rows[2 * M + 1, 2 * N + 1] = re[M][N]
                    rows[2 * M, 2 * N + 1], rows[2 * M + 1, 2 * N] = b, -b
            return rows

        super().__init__(Chart(tuple(f"{c}{j}" for j in range(1, n + 1) for c in "uv")),
                         fn, name)
        self.n = n

    def matrix(self, p):
        """Complex component matrix ``(n, n)`` at interleaved real point ``p``,
        or a stack ``(B, n, n)`` over a batch ``(B, 2n)``: :meth:`value`
        read back as complex."""
        return _complex(self.value(p))


# ---------------------------------------------------------------------------
# symplectic pairing, coset generators, heavenly condition

_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _kron(A, B):
    """Kronecker product ``A (x) B`` of matrices, over the (broadcast) leading
    axes of both: the entries of ``np.kron``, without its call overhead, which
    the dozens of small products of :func:`sp_generators` would pay."""
    P = np.asarray(A)[..., :, None, :, None] * np.asarray(B)[..., None, :, None, :]
    return P.reshape(*P.shape[:-4], P.shape[-4] * P.shape[-3], P.shape[-2] * P.shape[-1])


def _half(n):
    """``n / 2`` for an even ``n >= 2``; any other ``n`` is a ``ValueError``."""
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got {n}")
    return n // 2


def symplectic_matrix(n):
    """Block-diagonal pairing ``1_{n/2} (x) eps`` with ``eps = [[0,1],[-1,0]]``."""
    return _kron(np.eye(_half(n)), _EPS)


@functools.cache
def sp_generators(n):
    """Hermitian generators ``t`` with ``t^T Omega + Omega t = 0``, a tuple of
    read-only arrays built once per ``n``.

    Explicit integer/half-integer entries, so the defining relations hold
    exactly in floating point.  For ``n = 2m`` there are ``m (2m + 1)``:
    each Pauli block on the diagonal, then for each ``I < J`` the blocks
    ``e_I e_J^T (x) Q + e_J e_I^T (x) Q^H`` for ``Q`` in
    ``(sigma_x, sigma_y, sigma_z, i 1_2)``; for ``n = 2`` the tuple is
    precisely the three Pauli matrices.
    """
    unit = np.eye(_half(n))
    gens = ([_kron(np.outer(e, e), s) for e in unit for s in _PAULI]
            + [_kron(np.outer(a, b), Q) + _kron(np.outer(b, a), Q.conj().T)
               for I, a in enumerate(unit) for b in unit[I + 1:]
               for Q in (*_PAULI, 1j * np.eye(2))])
    return _read_only(*gens)


def sp_residual(X, omega):
    """``max |X^T Omega + Omega X|``; zero iff X is in the symplectic algebra.

    A float for one matrix, one value per matrix for a stack ``(..., n, n)``.
    """
    r = np.max(np.abs(np.swapaxes(X, -1, -2) @ omega + omega @ X), axis=(-2, -1))
    return float(r) if r.ndim == 0 else r


def coset_exponential(v, generators):
    """``exp(sum_a v_a t_a)`` for coefficients ``v`` ``(k,)``, or a stack of
    them for ``v`` ``(..., k)``.

    The exponential is taken by one (stacked) eigendecomposition of the
    Hermitian combinations, so each result is Hermitian positive definite
    by construction.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (len(generators),):
        raise ValueError(f"coefficients {v.shape} for {len(generators)} generators")
    H = sum(v[..., a, None, None] * t for a, t in enumerate(generators))
    w, U = np.linalg.eigh(H)
    h = (U * np.exp(w)[..., None, :]) @ np.swapaxes(U.conj(), -1, -2)
    return 0.5 * (h + np.swapaxes(h.conj(), -1, -2))


#: Relative tolerance of :func:`heavenly_check`.
HEAVENLY_TOL = 1e-10


def heavenly_check(h, omega):
    """Best constant ``C`` with ``h Omega h^T = C Omega``, or raise.

    ``h`` is one matrix ``(n, n)``, giving a float, or a stack
    ``(..., n, n)``, giving one ``C`` per matrix.  ``C`` is the Frobenius
    projection ``<Omega, M> / <Omega, Omega>`` of ``M = h Omega h^T``; the
    violation is measured as ``max |M - C Omega|`` against
    ``HEAVENLY_TOL * max(1, max |M|)``.

    Raises
    ------
    HeavenlyViolation
        If the residual exceeds tolerance or ``C`` is not positive (NaN
        fails both), for the first such matrix of a stack, naming its index.
    """
    h = np.asarray(h, dtype=complex)
    omega = np.asarray(omega, dtype=float)
    M = h @ omega @ np.swapaxes(h, -1, -2)
    C = np.real(np.sum(omega * M, axis=(-2, -1))) / np.sum(omega * omega)
    residual = np.max(np.abs(M - C[..., None, None] * omega), axis=(-2, -1))
    fits = residual <= HEAVENLY_TOL * np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1)))
    failure = first_failure(fits & (C > 0))  # written so that NaN fails
    if failure is not None:
        k, where = failure
        at = () if k is None else np.unravel_index(k, C.shape)
        r, c = float(residual[at]), float(C[at])
        what = (f"h Omega h^T deviates from C Omega by {r:.3e} (C = {c:.6g})"
                if not fits[at] else f"proportionality constant C = {c:.6g} is not positive")
        raise HeavenlyViolation(what + where, residual=r)
    return float(C) if C.ndim == 0 else C


# ---------------------------------------------------------------------------
# triple of structures


def realify(h):
    """Real 2n x 2n metric ``Re h (x) 1_2 + Im h (x) eps`` of Hermitian ``h``
    (or of each of a stack ``(..., n, n)``) in interleaved coordinates."""
    h = np.asarray(h, dtype=complex)
    return _kron(h.real, np.eye(2)) + _kron(h.imag, _EPS)


def _complex(T):
    """Complex ``(..., n, n)`` read back from realified ``T`` ``(..., 2n, 2n)``:
    row ``2M`` holds ``Re, Im`` of each entry in turn, complex128's layout."""
    return np.ascontiguousarray(T[..., 0::2, :]).view(complex)


def _pair_forms(omega):
    """The metric-independent ``omega_J``, ``omega_K`` of pairing ``omega``."""
    return _kron(omega, [[1.0, 0.0], [0.0, -1.0]]), _kron(omega, [[0.0, 1.0], [1.0, 0.0]])


class Triple(Frozen):
    """Lowered forms, mixed-index structures and the real metric at a point."""

    __slots__ = ("omega_I", "omega_J", "omega_K", "I", "J", "K", "g")

    def __init__(self, omega_I, omega_J, omega_K, I, J, K, g):
        self._set(omega_I, omega_J, omega_K, I, J, K, g)


def triple_at(h, omega):
    """The (I, J, K) structures of Hermitian ``h`` over pairing ``omega``.

    ``h`` is a matrix or a stack ``(..., n, n)`` (every entry of the triple
    keeps the leading axes), such as :meth:`HermitianMetricField.matrix` of
    a batch.  The quaternion relations among the mixed structures hold
    precisely when ``h`` passes :func:`heavenly_check` with ``C = 1``.
    """
    g = realify(h)
    W_I = g @ symplectic_matrix(g.shape[-1])
    W_J, W_K = (np.broadcast_to(W, g.shape) for W in _pair_forms(omega))
    return Triple(W_I, W_J, W_K, complex_structure(g, W_I),
                  complex_structure(g, W_J), complex_structure(g, W_K), g)


def quaternion_defects(I, J, K):
    """Deviations from ``I^2 = J^2 = K^2 = -1``, ``IJ = K``, ``JK = I`` and
    ``KI = J``, in that order, stacked as ``(..., 6, d, d)`` for structures
    ``(..., d, d)``; all zero precisely for a quaternionic triple."""
    eye = np.eye(I.shape[-1])
    return np.stack([I @ I + eye, J @ J + eye, K @ K + eye,
                     I @ J - K, J @ K - I, K @ I - J], axis=-3)


def quaternion_form_fields(hfield, omega):
    """Constant J/K coefficient forms on the real chart of ``hfield``.

    These do not depend on the metric; their covariant constancy under the
    realified Levi-Civita connection is what singles out unit-determinant
    (heavenly) Hermitian fields.
    """
    W_J, W_K = _pair_forms(omega)
    return (FormField(hfield.chart, 2, lambda coords: W_J, name="omega_J"),
            FormField(hfield.chart, 2, lambda coords: W_K, name="omega_K"))


# ---------------------------------------------------------------------------
# derived quantities on Hermitian fields


def x_matrices(hfield, p):
    """``X_p = 2 (d_p h) h^{-1}`` for each holomorphic direction.

    ``X[..., p, :, :]``, over a batch ``(B, 2n)`` too.  For fields valued in
    the exponential of the Hermitian symplectic slice these land in the
    symplectic algebra (see :func:`sp_residual`), which is the linear-algebra
    step behind covariant constancy of the J/K pair.

    It is solved on the realified metric ``g``: with ``E`` the real image of
    ``i`` (:func:`symplectic_matrix`), ``2 d_p = d_{u_p} - i d_{v_p}`` makes
    ``Y_p = g^{-1} (d_{u_p} g + d_{v_p} g E)`` the real image of ``X_p^H``,
    so ``X_p`` is read off the blocks of ``Y_p^T``.  The solve is the
    guarded one of :func:`~hkgeo.reduction.raise_first_index`, so an ``h``
    that is not positive definite raises
    :class:`~hkgeo.geometry.MetricDomainError`.
    """
    gv, dg, _ = hfield.jet(p, order=1)
    S = dg[..., 0::2, :, :] + dg[..., 1::2, :, :] @ symplectic_matrix(2 * hfield.n)
    return _complex(np.swapaxes(raise_first_index(gv, S), -1, -2))


# ---------------------------------------------------------------------------
# stock verification fields


def unit_determinant_shear_field():
    """Non-constant Hermitian field ``[[1 + |z1|^2, z1], [z1bar, 1]]``.

    Its determinant is identically 1, so it passes the heavenly test with
    ``C = 1`` at every point while having genuinely varying components; it
    is the standard positive fixture for the covariant-constancy and
    symplectic-algebra checks.  Generated by the potential

        |z1|^2 + |z1|^4 / 4 + |z2|^2 + Re(z1^2 zbar2),

    which the derivative-oracle hygiene check differentiates
    (:func:`hkgeo.models.scalar_fields`).
    """

    def re_fn(c):
        u1, v1, u2, v2 = c
        return [[1.0 + u1 * u1 + v1 * v1, u1], [None, 1.0]]

    def im_fn(c):
        u1, v1, u2, v2 = c
        return [[0.0, v1], [None, 0.0]]

    return HermitianMetricField(2, re_fn, im_fn, name="unit-determinant shear")


def non_unimodular_field():
    """Kaehler (from the potential ``|z1|^2 + |z1|^4 / 4 + |z2|^2``) but with
    varying determinant: ``diag(1 + |z1|^2, 1)``.

    The negative control: it fails the heavenly constancy test, and the J/K
    pair is not covariantly constant for it.
    """

    def re_fn(c):
        u1, v1, u2, v2 = c
        return [[1.0 + u1 * u1 + v1 * v1, 0.0], [None, 1.0]]

    return HermitianMetricField(2, re_fn, name="non-unimodular control")

