"""Coordinate charts and tensor-field carriers.

A field here is a plain callable over chart coordinates, written with the
dispatching math helpers of :mod:`hkgeo.jets` so it can be evaluated on
floats or on jet seeds.  Every carrier holds its ``chart``, its ``fn`` and
its ``name`` the same way (the private base ``_Field``, which also gives
``dim`` and the ``repr``); each class adds only how its components are
read: exact symmetry / antisymmetry by storage (only one triangle of the
component matrix is ever read), and jet extraction of all components in a
single pass.  One packer, :func:`_pack`, turns every table of entries of
the package into one array, values and derivatives together, and mirrors
a triangle as it packs: a field's components here, a mass matrix's
entries in :func:`hkgeo.geometry._solve_entries`.
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
    """``(M, N, entry)`` over the entries of the table ``raw`` that a mirror of
    ``sign`` reads: the upper triangle for ``+1``, the strict upper triangle
    for ``-1`` and every entry for ``0``."""
    return ((M, N, row[N]) for M, row in enumerate(raw)
            for N in range(0 if sign == 0 else M if sign > 0 else M + 1, len(row)))


def _pack(table, dim, order, batch, sign=0, zeros=np.zeros):
    """The entries of ``table`` with their derivatives of ``order`` as one array
    ``(rows, cols, 1 + derivative slots, *batch)``, point axis last as a jet
    carries it.

    Slot 0 holds the values, then ``dim`` gradient slots at ``order=1`` and
    ``dim + dim * dim`` gradient and Hessian slots at ``order=2`` (none at
    ``order=None``).  An entry may be a number, an array over the batch of
    points or a jet, in float64 or double-double (``zeros=DD.zeros``); a jet
    writes only the derivative rows of its support (:attr:`hkgeo.jets.Jet.rows`),
    straight from the rows it carries, and the others stay zero, as do all of
    a number's.  ``sign=0`` reads every entry; ``sign=+1`` or ``-1`` reads one
    triangle (:func:`_triangle`) and writes each entry to ``[M, N]`` and
    ``[N, M]``, negated for ``-1``, whose diagonal stays zero.
    """
    packed = zeros((len(table), len(table[0]),
                    1 + {None: 0, 1: dim, 2: dim + dim * dim}[order], *batch))
    for M, N, e in _triangle(table, sign):
        slots = packed[M, N]
        if isinstance(e, Jet):
            rows, block = e.rows
            slots[1:dim + 1][rows] = e.grad
            if order == 2:
                slots[dim + 1:].reshape(dim, dim, *batch)[block] = e.hess
            e = e.value
        slots[0] = e
        if sign:
            packed[N, M] = slots if sign > 0 else -slots
    return packed


def _square_jet(fn, p, sign, order):
    """Evaluate a matrix-valued field from one triangle, with derivatives of ``order``.

    Returns ``(V, D1, D2)`` with ``D1[..., P, M, N] = d_P V[..., M, N]`` and
    ``D2[..., P, Q, M, N]`` the second derivatives; ``D2 = None`` at
    ``order=1``, and ``D1 = D2 = None`` at ``order=None`` (values only).
    The leading axis ``...`` is the batch of points (none for one point).
    The triangle of ``sign`` is packed and mirrored by :func:`_pack`, and
    ``V, D1, D2`` are point-first views of its array, so they are not
    C-contiguous; a caller that needs contiguity copies.
    """
    batch = _batch_shape(p)
    dim = len(p[0]) if batch else len(p)
    packed = _pack(call_field(fn, p, order), dim, order, batch, sign,
                   DD.zeros if isinstance(p, DD) else np.zeros)
    move = (*range(3, 3 + len(batch)), 2, 0, 1)  # (d, d, slots, *batch) -> (*batch, slots, d, d)
    full = packed.map(np.transpose, move) if isinstance(packed, DD) else packed.transpose(move)
    D1 = full[..., 1:dim + 1, :, :] if order else None
    D2 = (full[..., dim + 1:, :, :].reshape(*batch, dim, dim, *full.shape[-2:])
          if order == 2 else None)
    return full[..., 0, :, :], D1, D2


def _vector_jet(fn, p, order):
    """Values ``V[..., M]`` and first derivatives ``D[..., P, M] = d_P V[..., M]``
    of a vector-valued field (``D = None`` at ``order=None``); ``...`` is the
    batch of points, if any: the one row of a table, by :func:`_square_jet`."""
    V, D, _ = _square_jet(lambda c: [fn(c)], p, 0, order)
    return V[..., 0, :], None if D is None else D[..., 0, :]


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
