"""Coordinate charts and tensor-field carriers.

A field here is a plain callable over chart coordinates, written with the
dispatching math helpers of :mod:`hkgeo.jets` so it can be evaluated on
floats or on jet seeds.  Every carrier is a :class:`Field`: it holds its
``chart``, its ``fn`` and its ``name``, and its :meth:`~Field.value` and
:meth:`~Field.jet` are written once, on the base.  A jet of order 1 or 2
hands back the components' values with their derivatives, so a caller that
needs both asks once.  Each carrier declares only how its ``fn`` is read:
one triangle of a matrix (exact symmetry or antisymmetry by storage: only
that triangle is ever read), or a vector.  Points are read once, where a
carrier is entered.  One packer, :func:`_pack`, turns every table of
entries of the package into one array, values and derivatives together,
and mirrors a triangle as it packs: a field's components here, a mass
matrix's entries in :func:`hkgeo.geometry._solve_entries`.
"""

from __future__ import annotations

import numpy as np

from ._record import Frozen
from .ddouble import DD
from .jets import Jet, _points, call_field

__all__ = [
    "Chart",
    "Field",
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


class Field:
    """A field on ``chart``: ``fn(coords)`` gives its components.

    :meth:`value` and :meth:`jet` take one point ``(d,)`` or a batch
    ``(B, d)``: an array, a list of floats or of points, or a double-double
    :class:`~hkgeo.ddouble.DD`, read once on entry.  A batch puts its point
    axis first on every returned array, and constant components broadcast
    over it.  A carrier declares only how ``fn`` is read, by :attr:`sign`:
    ``+1`` or ``-1`` reads one triangle of a component matrix and mirrors it
    (:func:`_pack`), ``0`` reads a vector.
    """

    sign = 0

    def __init__(self, chart, fn, name=""):
        self.chart, self.fn, self.name = chart, fn, name

    @property
    def dim(self):
        return self.chart.dim

    def __repr__(self):
        return f"{type(self).__name__}({self.name or self.chart.names})"

    def value(self, p):
        """Components ``V[..., *c]`` at ``p``, with no derivative made."""
        return self._jet(p, None)[0]

    def jet(self, p, order=2):
        """``(V, D1, D2)``: components and their first and second derivatives.

        ``D1[..., P, *c] = d_P V[..., *c]`` and ``D2[..., P, Q, *c] = d_P d_Q
        V[..., *c]``, ``...`` the batch axis if any and ``*c`` the component
        axes (``M`` of a vector, ``M, N`` of a matrix); ``order=1`` skips the
        second derivatives and returns ``D2 = None``.  ``V`` is
        :meth:`value`'s up to rounding (a jet divides by a reciprocal).
        """
        return self._jet(p, order)

    def _table(self, coords):
        """``fn``'s components at ``coords`` as rows: a matrix, or a vector as one row."""
        return self.fn(coords) if self.sign else [self.fn(coords)]

    def _jet(self, p, order):
        """:meth:`jet` of ``order``, or values only (``D1 = D2 = None``) at
        ``order=None``: the one evaluation behind :meth:`value` and
        :meth:`jet`, so that a value is never counted as a call of
        :meth:`jet`.  ``V, D1, D2`` are point-first views of the array
        :func:`_pack` packs, so they are not C-contiguous; a caller that
        needs contiguity copies."""
        p = _points(p)
        batch, dim = p.shape[:-1], p.shape[-1]
        packed = _pack(call_field(self._table, p, order), dim, order, batch, self.sign,
                       DD.zeros if isinstance(p, DD) else np.zeros)
        move = (*range(3, 3 + len(batch)), 2, 0, 1)  # (rows, cols, slots, *batch) -> point first
        full = packed.map(np.transpose, move) if isinstance(packed, DD) else packed.transpose(move)
        out = (full[..., 0, :, :], full[..., 1:dim + 1, :, :] if order else None,
               full[..., dim + 1:, :, :].reshape(*batch, dim, dim, *full.shape[-2:])
               if order == 2 else None)
        # a vector is its table's one row
        return out if self.sign else tuple(None if a is None else a[..., 0, :] for a in out)


class MetricField(Field):
    """Symmetric rank-(0,2) field; components must admit jets.

    ``fn(coords)`` returns a nested sequence (or array) of components; only
    the upper triangle is read, the lower is mirrored, so symmetry is exact
    by construction.
    """

    sign = +1


class FormField(Field):
    """Differential form of degree 1 or 2 with jet-capable components.

    Degree 1: ``fn`` returns a coefficient vector ``a_M`` for ``a_M dx^M``.
    Degree 2: ``fn`` returns the coefficient matrix ``w_MN`` of
    ``sum_{M<N} w_MN dx^M ^ dx^N``; only the strict upper triangle is read
    and the lower mirror carries the opposite sign, so antisymmetry is exact.
    """

    def __init__(self, chart, degree, fn, name=""):
        if degree not in (1, 2):
            raise ValueError("only degree-1 and degree-2 forms are supported")
        super().__init__(chart, fn, name)
        self.degree, self.sign = degree, -1 if degree == 2 else 0


class VectorFieldR(Field):
    """Real vector field ``V^M`` on a chart."""


class EmbeddingMap(Field):
    """Smooth map from chart ``source`` (its ``chart``) to chart ``target``.

    Its :meth:`jet` at ``order=1`` gives the image and the Jacobian
    transposed, ``D1[..., m, M] = d phi^M / d x^m``.
    """

    def __init__(self, source, target, fn, name=""):
        super().__init__(source, fn, name)
        self.source, self.target = source, target

    def _table(self, coords):
        out = self.fn(coords)
        if len(out) != self.target.dim:
            raise ValueError(f"map produced {len(out)} components for target {self.target}")
        return [out]
