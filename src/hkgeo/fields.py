"""Coordinate charts and tensor-field carriers.

A field here is a plain callable over chart coordinates, written with the
dispatching math helpers of :mod:`hkgeo.jets` so it can be evaluated on
floats or on jet seeds.  Every carrier holds its ``chart``, its ``fn`` and
its ``name`` the same way (the private base ``_Field``, which also gives
``dim`` and the ``repr``); each class adds only how its components are
read: exact symmetry / antisymmetry by storage (only one triangle of the
component matrix is ever read), and jet extraction of all components in a
single pass.
"""

from __future__ import annotations

import numpy as np

from ._record import Frozen
from .ddouble import DD
from .jets import Jet, _batch_shape, call_field

__all__ = [
    "Chart",
    "MetricField",
    "FormField",
    "VectorFieldR",
    "EmbeddingMap",
]


class Chart(Frozen):
    """Ordered coordinate names of a real chart."""

    __slots__ = ("names",)

    def __init__(self, names):
        self._set(names)

    @property
    def dim(self):
        return len(self.names)

    def __str__(self):
        return "(" + ", ".join(self.names) + ")"


def _triangle(raw, sign):
    """``(M, N, entry)`` over the triangle of ``raw`` that a mirror reads."""
    d = len(raw)
    return ((M, N, raw[M][N]) for M in range(d)
            for N in range(M if sign > 0 else M + 1, d))


def _square_jet(fn, p, sign, order):
    """Evaluate a matrix-valued field from one triangle, with derivatives of ``order``.

    Returns ``(V, D1, D2)`` with ``D1[..., P, M, N] = d_P V[..., M, N]`` and
    ``D2[..., P, Q, M, N]`` the second derivatives; ``D2 = None`` at
    ``order=1``, and ``D1 = D2 = None`` at ``order=None`` (values only).
    The leading axis ``...`` is the batch of points (none for one point).
    The triangle is lifted to jets of that order and packed into one array
    ``(1 + derivative slots, d, d, *batch)``, point axis last as a jet
    carries it: each entry is written to ``[M, N]`` and ``[N, M]`` (negated
    for ``sign=-1``; that diagonal stays zero).  A jet entry writes only the
    derivative rows of its support (:attr:`hkgeo.jets.Jet.rows`), straight
    from the rows it carries; the others stay zero, as do all of a constant
    entry's.  ``V, D1, D2`` are point-first views of that array, so for a
    batch they are not C-contiguous; a caller that needs contiguity copies.
    """
    batch = _batch_shape(p)
    dim = len(p[0]) if batch else len(p)
    raw = call_field(fn, p, order)
    d = len(raw)
    shape = (1 + {None: 0, 1: dim, 2: dim + dim * dim}[order], d, d, *batch)
    packed = DD.zeros(shape) if isinstance(p, DD) else np.zeros(shape)
    for M, N, e in _triangle(raw, sign):
        slots = packed[:, M, N]
        if isinstance(e, Jet):
            rows, block = e.rows
            slots[1:dim + 1][rows] = e.grad
            if order == 2:
                slots[dim + 1:].reshape(dim, dim, *batch)[block] = e.hess
            e = e.value
        slots[0] = e
        packed[:, N, M] = slots if sign > 0 else -slots
    move = (range(3, len(shape)), range(len(batch)))  # the point axis to the front
    full = packed.map(np.moveaxis, *move) if isinstance(packed, DD) else np.moveaxis(packed, *move)
    D1 = full[..., 1:dim + 1, :, :] if order else None
    D2 = (full[..., dim + 1:, :, :].reshape(*full.shape[:-3], dim, dim, d, d)
          if order == 2 else None)
    return full[..., 0, :, :], D1, D2


def _vector_jet(fn, p, order):
    """Values ``V[..., M]`` and first derivatives ``D[..., P, M] = d_P V[..., M]``
    of a vector-valued field (``D = None`` at ``order=None``); ``...`` is the
    batch of points, if any."""
    raw = call_field(fn, p, order)
    batch = _batch_shape(p)
    dim = len(p[0]) if batch else len(p)
    V = np.zeros((*batch, len(raw)))
    D = None if order is None else np.zeros((*batch, dim, len(raw)))
    for M, e in enumerate(raw):
        if isinstance(e, Jet):
            V[..., M], D[(..., *e.rows[0], M)] = e.value, e.grad.T
        else:
            V[..., M] = e
    return V, D


class _Field:
    """A field on ``chart``: ``fn(coords)`` gives its components."""

    def __init__(self, chart, fn, name=""):
        self.chart, self.fn, self.name = chart, fn, name

    @property
    def dim(self):
        return self.chart.dim

    def __repr__(self):
        return f"{type(self).__name__}({self.name or self.chart})"


class MetricField(_Field):
    """Symmetric rank-(0,2) field; components must admit jets.

    ``fn(coords)`` returns a nested sequence (or array) of components; only
    the upper triangle is read, the lower is mirrored, so symmetry is exact
    by construction.  :meth:`value` and :meth:`jet` take one point ``(d,)``
    or a batch ``(B, d)``; a batch puts its point axis first on every
    returned array (``(B, d, d)``, ``(B, d, d, d)``, ...), and constant
    components broadcast over it.
    """

    def value(self, p):
        return _square_jet(self.fn, p, +1, None)[0]

    def jet(self, p, order=2):
        """``(V, D1, D2)``: components and their first and second derivatives.

        ``D1[..., P, M, N] = d_P g_MN`` and ``D2[..., P, Q, M, N] = d_P d_Q
        g_MN``, ``...`` the batch axis if any; ``order=1`` skips the second
        derivatives and returns ``D2 = None``.
        """
        return _square_jet(self.fn, p, +1, order)


class FormField(_Field):
    """Differential form of degree 1 or 2 with jet-capable components.

    Degree 1: ``fn`` returns a coefficient vector ``a_M`` for ``a_M dx^M``.
    Degree 2: ``fn`` returns the coefficient matrix ``w_MN`` of
    ``sum_{M<N} w_MN dx^M ^ dx^N``; only the strict upper triangle is read
    and the lower mirror carries the opposite sign, so antisymmetry is exact.
    :meth:`value` and :meth:`jet` take one point or a batch ``(B, d)``, as
    for :class:`MetricField`.
    """

    def __init__(self, chart, degree, fn, name=""):
        if degree not in (1, 2):
            raise ValueError("only degree-1 and degree-2 forms are supported")
        super().__init__(chart, fn, name)
        self.degree = degree

    def value(self, p):
        if self.degree == 1:
            return _vector_jet(self.fn, p, None)[0]
        return _square_jet(self.fn, p, -1, None)[0]

    def jet(self, p):
        """``(V, D1, None)``: components and their first derivatives at ``p``.

        ``D1[..., P, M] = d_P a_M`` for a 1-form and ``D1[..., P, M, N] =
        d_P w_MN`` for a 2-form.  No caller reads second derivatives of a
        form, so none are computed; the third slot is always ``None``.
        """
        if self.degree == 1:
            return (*_vector_jet(self.fn, p, 1), None)
        return _square_jet(self.fn, p, -1, 1)


class VectorFieldR(_Field):
    """Real vector field ``V^M`` on a chart.

    :meth:`value` and :meth:`jet` take one point ``(d,)`` or a batch
    ``(B, d)`` and put the point axis of a batch first.
    """

    def value(self, p):
        return _vector_jet(self.fn, p, None)[0]

    def jet(self, p):
        """Component values and first derivatives ``dV[..., P, M] = d_P V^M``."""
        return _vector_jet(self.fn, p, 1)


class EmbeddingMap(_Field):
    """Smooth map from chart ``source`` (its ``chart``) to chart ``target``,
    with jet-derived Jacobian.

    :meth:`value` and :meth:`jacobian` take one point or a batch ``(B, d)``.
    """

    def __init__(self, source, target, fn, name=""):
        super().__init__(source, fn, name)
        self.source, self.target = source, target

    def value(self, p):
        out = _vector_jet(self.fn, p, None)[0]
        if out.shape[-1] != self.target.dim:
            raise ValueError(
                f"map produced {out.shape[-1]} components for target {self.target}"
            )
        return out

    def jacobian(self, p):
        """``J[..., M, m] = d phi^M / d x^m`` (target index first)."""
        return np.ascontiguousarray(np.swapaxes(_vector_jet(self.fn, p, 1)[1], -1, -2))
