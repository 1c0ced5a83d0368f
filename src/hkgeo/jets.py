"""Forward-mode jets with a finite-difference cross check.

A :class:`Jet` carries the value and gradient of a scalar quantity at a
point, and at second order its Hessian too, propagated through arithmetic
by the truncated Taylor rules.  Field code throughout the package is
written against the dispatching math helpers in this module (:func:`sqrt`,
:func:`sin`, :func:`cos`, :func:`atan2` and :func:`power`, the functions
the models use) so the same expression evaluates on plain floats, on jets
of either order, or with extra precision on double-double numbers
(:class:`hkgeo.ddouble.DD`, rational fields only), which the curvature of
nearly degenerate polar charts uses.

Which order is used where
-------------------------
A jet's order is data: it is second order when it carries a Hessian and
first order when its ``hessian`` is ``None``.  Each ring and composition
rule is written once and skips the Hessian term when an operand has none,
so a result has the lower order of its operands, and both orders give the
same values and gradients bit for bit.  Most derivative reads in the
package are first order, and a first-order jet costs a fraction of a
second-order one (no ``d x d`` Hessian update on every product), so every
entry point that reads no second derivative seeds order 1: Poisson
brackets (so also the cyclicity probes of
:func:`hkgeo.mechanics.constrain_and_reduce`), Christoffel symbols,
covariant derivatives of 2-tensors, Killing deviations, exterior
derivatives, the realified metric's derivatives in
:func:`hkgeo.kahler.x_matrices`, vector-field derivatives, Jacobians of
maps and moment-map gradients.  Order 2 stays where second derivatives are
read: every curvature, at every precision, and the jet-vs-finite-difference
hygiene check.  Plain values are order ``None``: the field sees floats (or
arrays) and no jet is made.

A first-order jet never computes ``f''``: the rules hand it over as a
zero-argument callable that only a jet with a Hessian calls, so a
first-order evaluation succeeds where only the second derivative divides
by zero or underflows (``sqrt`` at ``1e-220``, ``x ** 1.5`` at 0).

A reciprocal divides once: ``r = 1/u``, then ``f' = -(r r)`` and ``f'' =
2 (r r) r`` are products sharing ``r r``, since a double-double division
costs about five products.  ``Jet / Jet`` multiplies by it, so its ``f''``
at ``u = 1e-110`` overflows to inf (a non-finite derivative) where only
order 2 reads it.

Support
-------
A jet carries derivatives only along its *support*, the sorted tuple of
the coordinates its value was computed from.  Its stored ``grad`` and
``hess`` are ``(k, *batch)`` and ``(k, k, *batch)`` over the ``k``
coordinates of the support; a unary rule keeps its operand's support, and
a binary rule works on the union of its operands' supports.  An operand is
embedded into the union (zeros in the rows it lacks) only when the two
supports differ, through index plans cached per pair of supports
(:func:`_plan`).  Nothing is declared: a derivative outside the support is
exactly zero by construction, and every derivative inside it comes from
the same elementwise operations, in the same order, as if every jet
carried all ``d`` rows, so values and derivatives are bit for bit those of
dense jets (``tests/oracles.py`` keeps the dense rules as the reference).
Readers see dense arrays: ``Jet(value, gradient, hessian)`` takes them,
:attr:`Jet.gradient` and :attr:`Jet.hessian` return them, and the one
packer of entry tables, ``hkgeo.fields._pack``, writes a jet's rows
straight to where :attr:`Jet.rows` says they go.

Where the seeds start narrow is decided by the arithmetic.  A
double-double seed has support ``(i,)`` and a double-double constant
``()``: a double-double product is some twenty numpy operations, so a
skipped row saves far more than an embedding costs, and the toy quotient's
sphere metric, which depends on ``r`` alone, carries one gradient row and
one Hessian entry per component instead of 2 and 4.  A float64 seed or
constant spans every coordinate, so float64 jets never embed: a float64
rule on the few points of a check costs about what one embedding does (on
a 2-core x86_64 host, second-order jets of the scalar fields on 8-point
batches took 15% longer with narrow float64 seeds).  The float64 seeds of
a call are built together (:func:`call_field`): one gradient block ``(d, d,
*batch)`` whose diagonal is ``x * 0 + 1``, one row per seed, and one zero
Hessian block that every seed shares.  No rule writes into a jet's arrays
(every rule returns new ones; a seed's are written once, as they are
made), so seeds may be views of shared blocks.

Batch axis
----------
A jet may carry a batch of points: its value is then an array ``(B,)``,
its gradient ``(d, B)`` and its Hessian ``(d, d, B)``.  The point axis is
*last* so that every rule above broadcasts unchanged (``ga * other.value``
is ``(d, B) * (B,)``, outer products are ``a[:, None] * b[None, :]``) and
``jet.gradient[i]`` still means the derivative along coordinate ``i``, now
at every point.  :func:`call_field` and :func:`evaluate_jet` take one point
``(d,)`` or a batch ``(B, d)``, read once on entry as a float64 array
(nested lists too) or a double-double, and the shape decides: a single
float point is the same code fed numpy float64 scalars.  The
elementary functions come from numpy (``np.sqrt``, ``np.atan2``, ...) at
a point as on a batch, and so does :func:`power`, so a batch gives what
its points give one at a time.  A double-double point or batch (a
:class:`~hkgeo.ddouble.DD` of shape ``(d,)`` or ``(B, d)``, whose gradient
is a DD ``(d, B)``) has the arithmetic only.  Fields run with numpy's
division by zero and invalid operations raised, and every error names the
first offending point of the batch.  Jets opt out of numpy's operator
dispatch (``__array_ufunc__ = None``), so ``array * jet`` is the jet's
product, not an object array of jets.

:func:`fd_oracle` produces the same (value, gradient, Hessian) triple from
central differences only, at one point or a batch.  It shares no derivative code with the jets and is
used as the independent reference wherever jet output is trusted.
"""

from __future__ import annotations

import functools

import numpy as np

from .ddouble import DD

__all__ = [
    "Jet",
    "EvaluationError",
    "StencilExclusionError",
    "call_field",
    "evaluate_jet",
    "fd_oracle",
    "fd_step",
    "first_failure",
    "sqrt",
    "sin",
    "cos",
    "atan2",
    "power",
]

#: Relative finite-difference step.  ``h = max(1e-5, 1e-5 |x|)`` balances the
#: truncation error of the second-difference stencil against roundoff for
#: coordinates of order unity.
FD_STEP = 1e-5


class EvaluationError(ArithmeticError):
    """A field evaluation produced a non-finite value or derivative.

    ``index`` is the offending coordinate and ``point`` the offending point
    of a batch, where they are known.
    """

    def __init__(self, message, index=None, point=None):
        super().__init__(message)
        self.index = index
        self.point = point


class _ResidualError(ValueError):
    """A check that measured how far its input is from passing: ``residual``
    is that measure, where it is known."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StencilExclusionError(ValueError):
    """A finite-difference stencil point landed on an excluded locus."""

    def __init__(self, message, exclusion=None):
        super().__init__(message)
        self.exclusion = exclusion


def _mathmod(x):
    """numpy, the float arithmetic of every helper and :class:`Jet` rule,
    at a point (numpy scalars) as on a batch; a double-double has none."""
    if isinstance(x, DD):
        raise TypeError("double-double arithmetic is rational only (+, -, *, /, "
                        "integer powers); evaluate this field in float64 "
                        "(dps=None) instead")
    return np


def _order(order):
    """``order`` if it is a jet order, 1 or 2; else ValueError."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, not {order!r}")
    return order


def _zeros(shape, like):
    """Zeros of ``shape`` in ``like``'s arithmetic, then its point axis if a batch."""
    if isinstance(like, (np.ndarray, DD)):
        shape = (*shape, *like.shape)
    return DD.zeros(shape) if isinstance(like, DD) else np.zeros(shape)


@functools.cache
def _every(dim):
    """The support of every coordinate of a ``dim``-chart, one tuple per ``dim``
    so that jets of every coordinate pair up by identity (:func:`_pair`)."""
    return tuple(range(dim))


#: Where a support's rows sit within itself: every row of a gradient and a Hessian.
_EVERY = (slice(None),), (slice(None), slice(None))


@functools.cache
def _plan(sa, sb):
    """``(union, index_a, index_b)`` for operands of supports ``sa`` and ``sb``,
    cached per pair.

    ``union`` is the sorted union of the two, and ``index_a`` says where
    ``sa``'s rows sit in it: an index of a gradient ``(k, ...)`` and one of a
    Hessian ``(k, k, ...)`` over the union, :data:`_EVERY` when ``sa`` is the
    union itself.
    """
    union = tuple(sorted({*sa, *sb}))

    def index(s):
        rows = np.array([union.index(i) for i in s], dtype=np.intp)
        return _EVERY if s == union else ((rows,), np.ix_(rows, rows))

    return union, index(sa), index(sb)


def _embed(x, at, k):
    """``x`` ``(*support axes, *batch)`` written at ``at`` of zeros
    ``(k, ..., *batch)`` in ``x``'s arithmetic."""
    out = (DD.zeros if isinstance(x, DD) else np.zeros)((k,) * len(at) + x.shape[len(at):])
    out[at] = x
    return out


def _widen(jet, index, k):
    """``jet``'s gradient and Hessian over a support of ``k`` coordinates that
    holds its own at ``index`` (from :func:`_plan`), zero elsewhere."""
    if index is _EVERY:
        return jet.grad, jet.hess
    return (_embed(jet.grad, index[0], k),
            None if jet.hess is None else _embed(jet.hess, index[1], k))


def _pair(a, b):
    """``(support, ga, ha, gb, hb)``: the derivatives of jets ``a`` and ``b``
    over the union of their supports, an operand widened only when the two
    differ."""
    if a.support is b.support:
        return a.support, a.grad, a.hess, b.grad, b.hess
    union, ia, ib = _plan(a.support, b.support)
    return (union, *_widen(a, ia, len(union)), *_widen(b, ib, len(union)))


class Jet:
    """Value, gradient and, at second order, symmetric Hessian of a scalar.

    ``hessian is None`` makes a first-order jet.  ``Jet(value, gradient,
    hessian)`` takes dense derivatives, ``(d, ...)`` and ``(d, d, ...)``.
    The rules also pass ``support`` and ``dim``, and then ``gradient`` and
    ``hessian`` hold the rows of the support's coordinates only (module
    docstring).  Those stored rows are ``grad`` and ``hess``; the
    properties :attr:`gradient` and :attr:`hessian` are always dense.
    Every elementary
    derivative rule is written once, as the ``f, f', f''`` triple handed to
    ``_compose`` (``f''`` as a zero-argument callable that only a jet with a
    Hessian calls).  The Hessian stays exactly symmetric because every
    update is built from symmetric terms (``outer(a, b) + outer(b, a)`` and
    scalar multiples of symmetric arrays); ``outer(b, a)`` is formed as the
    transpose of ``outer(a, b)``, the same products bit for bit at both
    precisions (Dekker's TwoProduct is error free, so a double-double
    product does not depend on the order of its factors).  Outer products
    are written ``a[:, None] * b[None, :]``, which equals ``np.outer`` bit
    for bit and carries a trailing point axis.
    """

    __slots__ = ("value", "grad", "hess", "support", "dim")

    # numpy defers to the jet's operators: ``array * jet`` calls ``__rmul__``
    __array_ufunc__ = None

    def __init__(self, value, gradient, hessian=None, support=None, dim=None):
        if support is None:  # dense: the rows of every coordinate
            if not isinstance(gradient, DD):  # double-double entries stay one array pair
                gradient = np.asarray(gradient)
                hessian = None if hessian is None else np.asarray(hessian)
            dim = len(gradient)
            support = _every(dim)
        self.value, self.grad, self.hess, self.support, self.dim = (
            value, gradient, hessian, support, dim)

    @classmethod
    def constant(cls, value, dim, order=2, like=None):
        """Constant jet of ``order`` (1 or 2) in ``like``'s arithmetic (else
        ``value``'s): support ``()`` in double-double, every coordinate in
        float64 (module docstring)."""
        ref = value if like is None else like
        support = () if isinstance(ref, DD) else _every(dim)
        k = len(support)
        return cls(value, _zeros((k,), ref), _zeros((k, k), ref) if _order(order) == 2 else None,
                   support, dim)

    @classmethod
    def variable(cls, value, index, dim, order=2):
        """Seed jet for coordinate ``index`` of a ``dim``-dimensional chart:
        support ``(index,)`` in double-double, every coordinate in float64."""
        jet = cls.constant(value, dim, order)
        if isinstance(value, DD):
            jet.support, jet.grad = (index,), _zeros((1,), value)
            jet.hess, index = None if order == 1 else _zeros((1, 1), value), 0
        jet.grad[index] = value * 0 + 1  # a float one, or the exact int 1 for a DD
        return jet

    @property
    def gradient(self):
        """Dense gradient ``(d, ...)``: zero along coordinates outside the support."""
        return _widen(self, self.rows, self.dim)[0]

    @property
    def hessian(self):
        """Dense Hessian ``(d, d, ...)``, or None at first order."""
        return _widen(self, self.rows, self.dim)[1]

    @property
    def rows(self):
        """Where this jet's gradient and Hessian rows sit in dense ones: an index
        of a ``(d, ...)`` and one of a ``(d, d, ...)`` array."""
        return _plan(self.support, _every(self.dim))[1]

    def _lift(self, c):
        """Constant ``c`` as a jet of this jet's order and arithmetic."""
        return Jet.constant(c, self.dim, 1 if self.hess is None else 2, like=self.value)

    def __repr__(self):
        return (f"Jet(value={self.value!r}, dim={self.dim}, support={self.support}, "
                f"hessian={self.hess is not None})")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value + other, self.grad, self.hess, self.support, self.dim)
        s, ga, ha, gb, hb = _pair(self, other)
        return Jet(self.value + other.value, ga + gb,
                   None if ha is None or hb is None else ha + hb, s, self.dim)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.grad, None if self.hess is None else -self.hess,
                   self.support, self.dim)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value * other, self.grad * other,
                       None if self.hess is None else self.hess * other, self.support, self.dim)
        s, ga, ha, gb, hb = _pair(self, other)
        o = None if ha is None or hb is None else _outer(ga, gb)  # its transpose is outer(gb, ga)
        hess = None if o is None else hb * self.value + ha * other.value + o + o.swapaxes(0, 1)
        return Jet(self.value * other.value, gb * self.value + ga * other.value, hess,
                   s, self.dim)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        # the reciprocal in the value's precision: a float one would cost a
        # double-double jet its extra digits
        return self * ((DD(1.0, 0.0) if isinstance(self.value, DD) else 1.0) / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, k):
        if k == 0:
            return self._lift(self.value * 0.0 + 1.0)  # a DD times the int 0 is 0
        if k == 1:
            return self
        u = self.value
        return self._compose(power(u, k), k * power(u, k - 1),
                             lambda: k * (k - 1) * power(u, k - 2))

    # -- composition with smooth scalar functions -------------------------

    def _compose(self, f0, f1, f2):
        """Jet of ``f(self)`` given ``f``, ``f'`` and ``f2() = f''`` at the value."""
        g = self.grad
        return Jet(f0, g * f1, None if self.hess is None
                   else self.hess * f1 + _outer(g, g) * f2(), self.support, self.dim)

    def _compose2(self, b, f0, fa, fb, second):
        """Jet of a smooth two-argument ``f(self, b)`` given its partials.

        ``second()`` returns the second partials ``(faa, fab, fbb)``; it is
        called only when both arguments carry a Hessian.
        """
        s, ga, ha, gb, hb = _pair(self, b)
        grad = ga * fa + gb * fb
        if ha is None or hb is None:
            return Jet(f0, grad, None, s, self.dim)
        faa, fab, fbb = second()
        o = _outer(ga, gb)
        hess = (ha * fa + hb * fb
                + _outer(ga, ga) * faa
                + (o + o.swapaxes(0, 1)) * fab
                + _outer(gb, gb) * fbb)
        return Jet(f0, grad, hess, s, self.dim)

    def _reciprocal(self):
        r = 1 / self.value
        r2 = r * r
        return self._compose(r, -r2, lambda: 2 * (r2 * r))

    def sqrt(self):
        r = _mathmod(self.value).sqrt(self.value)
        return self._compose(r, 1 / (2 * r), lambda: -1 / (4 * r * r * r))

    def sin(self):
        m = _mathmod(self.value)
        s, c = m.sin(self.value), m.cos(self.value)
        return self._compose(s, c, lambda: -s)

    def cos(self):
        m = _mathmod(self.value)
        s, c = m.sin(self.value), m.cos(self.value)
        return self._compose(c, -s, lambda: -c)


def _outer(a, b):
    """``np.outer`` over the first axis of ``a`` and ``b``, carrying a point axis."""
    return a[:, None] * b[None, :]


# -- dispatching scalar helpers ------------------------------------------


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else _mathmod(x).sqrt(x)


def sin(x):
    return x.sin() if isinstance(x, Jet) else _mathmod(x).sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else _mathmod(x).cos(x)


def power(x, k):
    """``x ** k``; on a float ``np.power``, as a batch computes it (a numpy
    scalar's own ``**`` is the C library's ``pow``, which can differ in the
    last bit)."""
    return x ** k if isinstance(x, (Jet, DD)) else np.power(x, k)


def atan2(y, x):
    """Two-argument arctangent, jet-aware in either slot.

    Smooth away from the half line ``{y = 0, x <= 0}``; callers sampling near
    the cut are expected to guard it with an exclusion predicate.
    """
    if not isinstance(y, Jet) and not isinstance(x, Jet):
        return _mathmod(y).atan2(y, x)
    if not isinstance(y, Jet):
        y = x._lift(y)
    if not isinstance(x, Jet):
        x = y._lift(x)
    xv, yv = x.value, y.value
    r2 = xv * xv + yv * yv
    f0 = _mathmod(yv).atan2(yv, xv)
    # partials of atan2(y, x): smooth off the origin and the cut

    def second():
        r4 = r2 * r2
        return -2 * xv * yv / r4, (yv * yv - xv * xv) / r4, 2 * xv * yv / r4

    return y._compose2(x, f0, xv / r2, -yv / r2, second)


# -- evaluation entry points ---------------------------------------------


def first_failure(ok, p=None):
    """Where a per-point test first fails, for error messages; None if it never does.

    ``ok`` is one boolean for a single point, or one per point of a batch.
    Returns ``(k, where)``: ``k`` is the index of the first failing point of
    the batch (None for a single point) and ``where`` reads
    ``" at [x, y]"`` or ``" at point k [x, y]"``, without the coordinates
    when ``p`` is None.
    """
    ok = np.asarray(ok)
    if ok.all():
        return None
    if ok.ndim == 0:
        return None, "" if p is None else f" at {_plain(p).tolist()}"
    k = int(np.argmin(ok.reshape(-1)))
    return k, f" at point {k}" + ("" if p is None else f" {_plain(p)[k].tolist()}")


def _plain(p):
    """Point(s) ``p`` as an array for messages; a double-double one rounded."""
    return p.hi if isinstance(p, DD) else np.asarray(p)


def _points(p):
    """Point(s) ``p`` as read once on entry: a double-double stays, anything
    else (an array, a list of floats or of points) becomes a float64 array."""
    return p if isinstance(p, DD) else np.asarray(p, dtype=float)


def _batch_shape(p):
    """``(B,)`` for a batch of points ``(B, d)``; ``()`` for one point ``(d,)``."""
    return p.shape[:-1]


def _coords(p):
    """Coordinate list of points ``p`` (:func:`_points`): the columns of a
    batch, or the numpy float64 (or double-double) scalars of one point."""
    return list(p.T if isinstance(p, DD) else np.ascontiguousarray(p.T))


def _seeds(coords, order):
    """The jet seeds of ``order`` of the coordinates ``coords`` (one point, or
    the columns of a batch), bit for bit :meth:`Jet.variable`'s, built as
    :func:`call_field` says."""
    dim = len(coords)
    if isinstance(coords[0], DD):
        return [Jet.variable(x, i, dim, order) for i, x in enumerate(coords)]
    x = np.asarray(coords)
    grad = np.zeros((dim, *x.shape))
    grad.reshape(dim * dim, *x.shape[1:])[::dim + 1] = x * 0 + 1
    hess = None if _order(order) == 1 else np.zeros(grad.shape)
    return [Jet(c, g, hess, _every(dim), dim) for c, g in zip(coords, grad)]


def call_field(f, p, order=None):
    """``f`` at ``p``: on plain coordinates, or on jet seeds of ``order``.

    ``p`` is one point ``(d,)`` or a batch of points ``(B, d)``, which ``f``
    sees as ``d`` coordinate arrays of shape ``(B,)``.  ``order`` is the
    order of the :class:`Jet` seeds, 1 (gradient) or 2 (gradient and
    Hessian), or ``None`` for plain values, which are the order-0 case: the
    field sees the coordinates themselves and no jet is made.  This is
    where every field evaluation of the package calls the field, so a
    division by zero or an invalid operation inside it (a field evaluated
    on its singular locus) surfaces as :class:`EvaluationError`: numpy is
    made to raise, and a ``ZeroDivisionError`` of Python constants the
    field divides is caught too.  Float64 seeds are the rows of one
    gradient block and share one zero Hessian (module docstring), since no
    rule writes into a jet's arrays; double-double seeds are
    :meth:`Jet.variable`'s, each with its own row only.  A failing batch is
    evaluated again one point at a time to name the first point that
    fails.
    """
    p = _points(p)
    coords = _coords(p)
    if order is not None:
        coords = _seeds(coords, order)
    try:
        with np.errstate(divide="raise", invalid="raise"):
            return f(coords)
    except (ZeroDivisionError, FloatingPointError) as err:
        if _batch_shape(p):
            for k, q in enumerate(p):
                try:
                    call_field(f, q, order)
                except EvaluationError as bad:
                    raise EvaluationError(f"{bad} (point {k} of the batch)",
                                          point=k) from err
            where = "on a batch of points"
        else:
            where = f"at {_plain(p).tolist()}"
        raise EvaluationError(f"{err} evaluating a field {where}") from err


def evaluate_jet(f, p, order=2):
    """Evaluate scalar field ``f`` at ``p`` with jet coordinates.

    Parameters
    ----------
    f : callable
        Accepts a list of coordinate values (floats or jets) and returns a
        scalar.  Must be written with the dispatching helpers of this module.
    p : sequence of float, or float array ``(B, d)``
        One point, or a batch of points evaluated in one pass (the jet then
        carries the point axis last).
    order : {1, 2}
        2 (the default) returns a :class:`Jet` with a Hessian; 1 returns
        one without (``hessian is None``), with the same value and
        gradient, for callers that read no second derivatives.

    Returns
    -------
    Jet

    Raises
    ------
    EvaluationError
        If the field divides by zero, or the result or any derivative it
        carries is non-finite at any point; the error carries the first
        offending point of a batch and the first offending coordinate
        index when one can be identified.
    """
    p = _points(p)
    out = call_field(f, p, order)
    if not isinstance(out, Jet):
        out = Jet.constant(out, p.shape[-1], order, like=_coords(p)[0])
    # derivatives outside the support are exact zeros: only its rows can fail
    ok_value = np.broadcast_to(np.isfinite(out.value), _batch_shape(p))
    ok_coord = np.isfinite(out.grad)
    if out.hess is not None:
        ok_coord = ok_coord & np.isfinite(out.hess).all(axis=1)
    failure = first_failure(ok_value & ok_coord.all(axis=0), p)
    if failure is not None:
        k, where = failure
        at = 0 if k is None else k
        if not ok_value.reshape(-1)[at]:
            raise EvaluationError(f"non-finite value{where}", point=k)
        i = out.support[int(np.argmin(ok_coord.reshape(len(out.support), -1)[:, at]))]
        raise EvaluationError(f"non-finite derivative in coordinate {i}{where}",
                              index=i, point=k)
    return out


def fd_step(x):
    """Central-difference step ``max(FD_STEP, FD_STEP |x|)`` for coordinate value(s) ``x``."""
    return np.maximum(FD_STEP, FD_STEP * np.abs(x))


@functools.cache
def _stencil(d, order):
    """``(offsets, I, J)`` of :func:`fd_oracle`'s stencil in ``d`` coordinates at
    ``order``, built once each and read-only: the offsets in steps, one row
    per stencil point, and the pairs ``I < J`` of its mixed rows.

    The rows are the centre; ``+e_i``, ``-e_i`` for each ``i``; then at
    ``order=2`` ``+e_i +e_j``, ``+e_i -e_j``, ``-e_i +e_j``, ``-e_i -e_j``
    for each pair ``i < j``.
    """
    E, (I, J) = np.eye(d), np.triu_indices(d, 1)
    A = np.stack([E, -E], 1)  # A[i] = (+e_i, -e_i); a pair's rows are A[i, s] + A[j, t]
    rows = [np.zeros((1, d)), A] + ([A[I][:, :, None] + A[J][:, None, :]] if order == 2 else [])
    return _read_only(np.concatenate([r.reshape(-1, d) for r in rows]), I, J)


def _read_only(*arrays):
    """``arrays`` as a tuple, each made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def fd_oracle(f, p, exclusions=(), order=2):
    """Finite-difference (value, gradient, Hessian) of ``f`` at ``p``.

    ``p`` is one point ``(d,)`` or a batch ``(B, d)``, and the result a
    :class:`Jet` of ``order`` (1 or 2) laid out as :func:`evaluate_jet` lays
    it out (point axis last), so the two compare directly; but no jet
    arithmetic is involved.
    Central differences with per-coordinate step :func:`fd_step`; second
    mixed derivatives use the four-point cross stencil.  Every point's
    stencil goes to ``f`` in one :func:`call_field` call: the centre and the
    ``2 d`` axial rows, and at ``order=2`` the ``2 d (d - 1)`` mixed rows too.

    ``exclusions`` are guard predicates (objects with ``.name``, or bare
    callables) over the coordinate columns of the whole stencil, returning a
    mask, True where a point is rejected; a rejected stencil point raises
    :class:`StencilExclusionError` naming the exclusion and the point of the
    batch, rather than silently sampling a singular locus.  A stencil point
    on which ``f`` fails raises :class:`EvaluationError` naming the first
    point of the batch whose stencil fails, and the first failing row of it.
    """
    p = np.asarray(p, dtype=float)
    P = p.reshape(-1, p.shape[-1])
    B, d = P.shape
    offsets, I, J = _stencil(d, _order(order))
    h = fd_step(P.T)
    # stencil row s of point b is row b S + s
    q = (P[:, None, :] + offsets * h.T[:, None, :]).reshape(-1, d)
    for excl in exclusions:
        bad = np.broadcast_to(excl(_coords(q)), len(q)).reshape(B, -1).any(axis=1)
        failure = first_failure(~bad if p.ndim == 2 else ~bad[0], p)
        if failure is not None:
            name = getattr(excl, "name", getattr(excl, "__name__", repr(excl)))
            raise StencilExclusionError(
                f"stencil{failure[1]} rejected by exclusion {name!r}", exclusion=name)
    try:
        F = np.broadcast_to(call_field(f, q), len(q)).reshape(B, -1).T
    except EvaluationError as err:
        if err.point is None:
            raise
        # call_field names the first failing row, and its error context is that
        # row's own error; name the point of the batch it belongs to
        b, s = divmod(err.point, len(offsets))
        where = f"point {b} of the batch" if p.ndim == 2 else f"{p.tolist()}"
        raise EvaluationError(f"{err.__context__} (stencil row {s} of {where})",
                              point=b if p.ndim == 2 else None) from err.__cause__
    f0, fp, fm = F[0], F[1:2 * d + 1:2], F[2:2 * d + 1:2]
    grad, hess = (fp - fm) / (2 * h), None
    if order == 2:
        fpp, fpm, fmp, fmm = F[2 * d + 1:].reshape(-1, 4, B).transpose(1, 0, 2)
        hess = np.zeros((d, d, B))
        hess.reshape(d * d, B)[::d + 1] = (fp - 2 * f0 + fm) / (h * h)
        hess[I, J] = hess[J, I] = (fpp - fpm - fmp + fmm) / (4 * h[I] * h[J])
    if p.ndim == 1:
        f0, grad, hess = f0[0], grad[:, 0], None if hess is None else hess[..., 0]
    return Jet(f0, grad, hess)
