"""Registry of concrete geometries: charts, metrics, forms, embeddings,
closed-form targets, sampling domains.

Five model families are registered, keyed by the names the command line
uses:

``toy-parent``
    Flat ``R^2 x (R x S^1)`` in chart ``(r, phi, x, theta)`` with the
    diagonal shift isometry, its symplectic form, moment map and the zero
    level-set embedding into the 3-chart ``(r, theta, chi)``.
``toy-reduced``
    The resulting surface of revolution on ``(r, chi)`` with its area
    form, curvature profile and Euler characteristic target.
``gh-flat``
    Flat ``R^4`` in monopole coordinates ``(x, Psi)`` alongside the
    Cartesian picture and the quadratic coordinate change between them.
``r8-parent``
    ``R^4 x (R^3 x S^1)`` carrying the triple of symplectic forms, in both
    the Cartesian and monopole-coordinate pictures, with the triple moment
    map and the 5-dimensional zero level set ``(x, chi, theta)``.
``taub-nut``
    The quotient 4-manifold on ``(x, chi)``: deformed monopole metric and
    its triple, related to the flat forms by ``1/r -> 1/r + 1/a^2``.

Sampling boxes keep clear of coordinate degeneracies: radial coordinates
in ``[0.3, 3]``, angles in ``[0.1, 5.9]``, Cartesian components in
``[-2, 2]`` with the monopole string (the half-axis ``x_1 = x_2 = 0,
x_3 < 0``) excluded by predicate.
"""

from __future__ import annotations

import numpy as np

from . import jets
from ._record import Frozen, Record
from .fields import (Chart, EmbeddingMap, FormField, MetricField, VectorFieldR,
                     constant_form, mirror_triangle)
from .sampling import Exclusion, SampleSpec, sample_points

__all__ = [
    "SingularGaugeError",
    "Model",
    "ScalarFieldSpec",
    "REGISTRY",
    "MODEL_NAMES",
    "build",
    "monopole_potential",
    "MONOPOLE_CURL_SIGN",
    "taub_nut_metric",
    "taub_nut_triple",
    "toy_parent",
    "toy_reduced",
    "gh_flat",
    "r8_parent",
    "taub_nut",
    "scalar_fields",
]


class SingularGaugeError(ValueError):
    """Point too close to the monopole string or the origin, or not a 3-point."""


# The curl of the monopole potential is s * x / r^3 with this global sign,
# pinned down numerically (finite-difference curl) before anything else was
# built on top of it.
MONOPOLE_CURL_SIGN = -1


def _check_a(a):
    a = float(a)
    if not a > 0:
        raise ValueError(f"circle radius a must be positive, got {a}")
    return a


class ScalarFieldSpec(Frozen):
    """A named scalar field with its sampling domain, for derivative checks."""

    __slots__ = ("name", "fn", "box", "exclusions")

    def __init__(self, name, fn, box, exclusions=()):
        self._set(name, fn, box, exclusions)


class Model(Record):
    """One registry entry: a chart with everything the pipelines consume.

    ``forms``, ``killing``, ``embeddings``, ``targets`` and ``extras``
    default to a new empty dict for each model.
    """

    __slots__ = ("name", "a", "chart", "metric", "forms", "killing", "embeddings",
                 "targets", "box", "exclusions", "cyclic", "fiber_index", "invariant",
                 "extras")

    def __init__(self, name, a, chart, metric, forms=None, killing=None, embeddings=None,
                 targets=None, box=(), exclusions=(), cyclic=(), fiber_index=None,
                 invariant=None, extras=None):
        self.name, self.a, self.chart, self.metric = name, a, chart, metric
        self.forms = {} if forms is None else forms
        self.killing = {} if killing is None else killing
        self.embeddings = {} if embeddings is None else embeddings
        self.targets = {} if targets is None else targets
        self.box, self.exclusions, self.cyclic = box, exclusions, cyclic
        self.fiber_index, self.invariant = fiber_index, invariant
        self.extras = {} if extras is None else extras

    def sample(self, count, seed=0):
        return sample_points(SampleSpec(self.box, count, seed, self.exclusions))


def _string_exclusion(margin=0.3):
    """Reject points whose first three coordinates approach the gauge string."""

    def near(p):
        r = np.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
        return (r < margin) | ((r + p[2]) < margin)

    return Exclusion("monopole-string", near)


def _pole_exclusion(margin=0.15):
    """Reject Cartesian points where the angle Psi degenerates.

    ``r + x_3 = 2 (y_1^2 + y_2^2)`` identically, so this is the same locus
    as the monopole string, seen from the other chart.
    """

    def near(p):
        return ((p[0] ** 2 + p[1] ** 2) < margin) | \
            ((p[0] ** 2 + p[1] ** 2 + p[2] ** 2 + p[3] ** 2) < 2 * margin)

    return Exclusion("gauge-pole", near)


_ANGLE = (0.1, 5.9)
_RADIAL = (0.3, 3.0)
_CART = (-2.0, 2.0)


# ---------------------------------------------------------------------------
# monopole potential and radial helpers


def _monopole_terms(x1, x2, x3):
    r = jets.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    denom = r * (r + x3)
    return r, x2 / denom, -x1 / denom


def monopole_potential(x):
    """Dirac monopole vector potential ``A`` at the 3-point ``x``.

    ``A = (x_2, -x_1, 0) / (r (r + x_3))``; its curl is
    ``MONOPOLE_CURL_SIGN * x / r^3``.  Within ``1e-8 r`` of the string
    ``x_1 = x_2 = 0, x_3 <= -r`` (or at the origin) the gauge blows up and
    :class:`SingularGaugeError` is raised.  ``x`` may be a batch ``(B, 3)``,
    giving ``(B, 3)``; the error names the first singular point.
    """
    x = _gauge_checked(x)
    _, A1, A2 = _monopole_terms(x[..., 0], x[..., 1], x[..., 2])
    return np.stack(np.broadcast_arrays(A1, A2, 0.0), axis=-1)


# ---------------------------------------------------------------------------
# toy family


def toy_parent(a=1.0):
    """Flat 4-chart ``(r, phi, x, theta)`` with the diagonal shift isometry."""
    a = _check_a(a)
    chart = Chart(("r", "phi", "x", "theta"))

    def gfn(c):
        return [[1.0, 0.0, 0.0, 0.0],
                [None, c[0] * c[0], 0.0, 0.0],
                [None, None, 1.0, 0.0],
                [None, None, None, a * a]]

    def wfn(c):
        return [[0.0, c[0], 0.0, 0.0],
                [None, 0.0, 0.0, 0.0],
                [None, None, 0.0, a],
                [None, None, None, 0.0]]

    metric = MetricField(chart, gfn, name="flat polar x cylinder")
    omega = FormField(chart, 2, wfn, name="omega")
    V = VectorFieldR(chart, lambda c: [0.0, 1.0, 0.0, 1.0], name="shift")

    level_chart = Chart(("r", "theta", "chi"))
    level = EmbeddingMap(
        level_chart, chart,
        lambda c: [c[0], c[2] + c[1], -c[0] * c[0] / (2.0 * a), c[1]],
        name="zero level set",
    )

    def level_gfn(c):
        r2 = c[0] * c[0]
        return [[1.0 + r2 / (a * a), 0.0, 0.0],
                [None, r2 + a * a, r2],
                [None, None, r2]]

    level_metric = MetricField(level_chart, level_gfn, name="level 3-metric")

    def moment(c):
        return c[0] * c[0] / 2.0 + a * c[2]

    return Model(
        name="toy-parent",
        a=a,
        chart=chart,
        metric=metric,
        forms={"omega": omega},
        killing={"shift": V},
        embeddings={"level": level},
        targets={"moment_map": moment,
                 "level_metric": lambda p: level_metric.value(p)},
        box=((*_RADIAL,), (*_ANGLE,), (*_CART,), (*_ANGLE,)),
        fiber_index=1,
        invariant=(0, 2),
        extras={
            "level_chart": level_chart,
            "level_metric": level_metric,
            "level_box": ((*_RADIAL,), (*_ANGLE,), (*_ANGLE,)),
            "level_cyclic": (1, 2),
            "level_fiber": VectorFieldR(level_chart, lambda c: [0.0, 1.0, 0.0],
                                        name="level fiber"),
            "moment_base": (1.0, 0.5, -0.5 / a, 0.3),
        },
    )


def toy_reduced(a=1.0):
    """Surface of revolution on ``(r, chi)`` produced by the toy quotient."""
    a = _check_a(a)
    chart = Chart(("r", "chi"))

    def gfn(c):
        r2 = c[0] * c[0]
        return [[1.0 + r2 / (a * a), 0.0],
                [None, a * a * r2 / (r2 + a * a)]]

    def wfn(c):
        return [[0.0, c[0]], [None, 0.0]]

    def curvature(r):
        return 8.0 * a ** 4 / (float(r) ** 2 + a * a) ** 3

    return Model(
        name="toy-reduced",
        a=a,
        chart=chart,
        metric=MetricField(chart, gfn, name="reduced 2-metric"),
        forms={"omega": FormField(chart, 2, wfn, name="omega tilde")},
        killing={"shift": VectorFieldR(chart, lambda c: [0.0, 1.0], name="shift")},
        targets={"curvature": curvature, "euler": 2.0},
        box=((*_RADIAL,), (*_ANGLE,)),
        cyclic=(1,),
    )


# ---------------------------------------------------------------------------
# monopole-coordinate flat R^4 and the coordinate change


def _gh4_entries(c):
    """Upper triangle of the monopole-coordinate flat metric on (x, Psi)."""
    x1, x2, x3 = c[0], c[1], c[2]
    r, A1, A2 = _monopole_terms(x1, x2, x3)
    b = [A1, A2, 0.0, 1.0]
    inv4r = 1.0 / (4.0 * r)
    rows = [[None] * 4 for _ in range(4)]
    for m in range(4):
        for n in range(m, 4):
            e = (r / 4.0) * b[m] * b[n]
            if m == n and m < 3:
                e = e + inv4r
            rows[m][n] = e
    return rows


def _xpsi_triple_fns(shift_fn):
    """The three 2-forms on ``(x, Psi)`` with ``1/r`` replaced by ``shift_fn(r)``.

    ``shift_fn = lambda r: 1/r`` gives the flat forms; the quotient triple
    uses ``1/r + 1/a^2``.  Writing both through one constructor keeps the
    advertised relation between them literal.
    """

    def om_I(c):
        r, A1, A2 = _monopole_terms(c[0], c[1], c[2])
        s4 = shift_fn(r) / 4.0
        rows = [[0.0] * 4 for _ in range(4)]
        rows[0][1] = s4
        rows[2][3] = 0.25
        rows[0][2] = -0.25 * A1
        rows[1][2] = -0.25 * A2
        return rows

    def om_J(c):
        r, A1, A2 = _monopole_terms(c[0], c[1], c[2])
        s4 = shift_fn(r) / 4.0
        rows = [[0.0] * 4 for _ in range(4)]
        rows[1][2] = s4
        rows[0][3] = 0.25
        rows[0][1] = 0.25 * A2
        return rows

    def om_K(c):
        r, A1, A2 = _monopole_terms(c[0], c[1], c[2])
        s4 = shift_fn(r) / 4.0
        rows = [[0.0] * 4 for _ in range(4)]
        rows[0][2] = -s4
        rows[1][3] = 0.25
        rows[0][1] = -0.25 * A1
        return rows

    return om_I, om_J, om_K


def _var_change_fn(c):
    y1, y2, y3, y4 = c
    return [
        2.0 * (y1 * y4 + y2 * y3),
        2.0 * (y2 * y4 - y1 * y3),
        y1 * y1 + y2 * y2 - y3 * y3 - y4 * y4,
        -2.0 * jets.atan2(y1, y2),
    ]


def _inverse_var_change_fn(c):
    x1, x2, x3, psi = c
    r = jets.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    rho = jets.sqrt((r + x3) / 2.0)
    y1 = -rho * jets.sin(psi * 0.5)
    y2 = rho * jets.cos(psi * 0.5)
    denom = 2.0 * rho * rho
    y3 = (y2 * x1 - y1 * x2) / denom
    y4 = (y1 * x1 + y2 * x2) / denom
    return [y1, y2, y3, y4]


def _constant_form(chart, entries, name):
    """Constant 2-form from its upper-triangle entries ``(m, n, value)``."""
    W = np.zeros((chart.dim, chart.dim))
    for m, n, v in entries:
        W[m, n] = v
    return constant_form(chart, mirror_triangle(W, -1), name=name)


def gh_flat(a=1.0):
    """Flat ``R^4`` in monopole coordinates, with the Cartesian companion.

    The parameter ``a`` is ignored (this geometry has no circle) but kept
    so every registry builder has the same signature.
    """
    chart = Chart(("x1", "x2", "x3", "Psi"))
    cart = Chart(("y1", "y2", "y3", "y4"))
    metric = MetricField(chart, _gh4_entries, name="monopole-coordinate flat")
    om_I, om_J, om_K = _xpsi_triple_fns(lambda r: 1.0 / r)

    cart_metric = MetricField(cart, lambda c: np.eye(4), name="cartesian flat")
    eye_w = {
        "omega_I": [(0, 1, 1.0), (2, 3, 1.0)],
        "omega_J": [(0, 2, 1.0), (1, 3, -1.0)],
        "omega_K": [(0, 3, 1.0), (1, 2, 1.0)],
    }

    return Model(
        name="gh-flat",
        a=float(a),
        chart=chart,
        metric=metric,
        forms={"omega_I": FormField(chart, 2, om_I, name="omega_I"),
               "omega_J": FormField(chart, 2, om_J, name="omega_J"),
               "omega_K": FormField(chart, 2, om_K, name="omega_K")},
        killing={"psi-shift": VectorFieldR(chart, lambda c: [0.0, 0.0, 0.0, 1.0],
                                           name="psi-shift")},
        embeddings={
            "to_monopole": EmbeddingMap(cart, chart, _var_change_fn,
                                        name="y -> (x, Psi)"),
            "to_cartesian": EmbeddingMap(chart, cart, _inverse_var_change_fn,
                                         name="(x, Psi) -> y"),
        },
        targets={"radius": lambda y: np.sum(np.square(y), axis=-1)},
        box=((*_CART,), (*_CART,), (*_CART,), (*_ANGLE,)),
        exclusions=(_string_exclusion(),),
        cyclic=(3,),
        extras={
            "cart_chart": cart,
            "cart_metric": cart_metric,
            "cart_forms": {k: _constant_form(cart, v, k) for k, v in eye_w.items()},
            "cart_box": ((*_CART,), (*_CART,), (*_CART,), (*_CART,)),
            "cart_exclusions": (_pole_exclusion(),),
        },
    )


# ---------------------------------------------------------------------------
# eight-dimensional parent and its reduction to Taub-NUT


def r8_parent(a=1.0):
    """``R^4 x (R^3 x S^1)`` with the symplectic triple and its moment maps.

    Two pictures are bundled.  The primary chart is the monopole one,
    ``(x, Psi, X, theta)``, which the metric pipeline uses; the Cartesian
    picture ``(y, X, theta)`` carries constant-coefficient forms and is
    where contractions and moment maps are cheapest to verify.
    """
    a = _check_a(a)
    chart = Chart(("x1", "x2", "x3", "Psi", "X1", "X2", "X3", "theta"))
    cart = Chart(("y1", "y2", "y3", "y4", "X1", "X2", "X3", "theta"))

    def gfn(c):
        rows = [[0.0] * 8 for _ in range(8)]
        top = _gh4_entries(c[:4])
        for m in range(4):
            for n in range(m, 4):
                rows[m][n] = top[m][n]
        rows[4][4] = rows[5][5] = rows[6][6] = 1.0
        rows[7][7] = a * a
        return rows

    def cart_gfn(c):
        return np.diag([1.0] * 7 + [a * a])

    def lift(fn4, xpart):
        # embed a 4x4 (x, Psi) form and add the constant X/theta block
        def out(c):
            rows = [[0.0] * 8 for _ in range(8)]
            top = fn4(c[:4])
            for m in range(4):
                for n in range(m + 1, 4):
                    rows[m][n] = top[m][n]
            for m, n, v in xpart:
                rows[m][n] = v
            return rows

        return out

    om_I4, om_J4, om_K4 = _xpsi_triple_fns(lambda r: 1.0 / r)
    forms = {
        "omega_I": FormField(chart, 2, lift(om_I4, [(4, 5, 1.0), (6, 7, a)]),
                             name="omega_I"),
        "omega_J": FormField(chart, 2, lift(om_J4, [(5, 6, 1.0), (4, 7, a)]),
                             name="omega_J"),
        "omega_K": FormField(chart, 2, lift(om_K4, [(4, 6, -1.0), (5, 7, a)]),
                             name="omega_K"),
    }

    cart_w = {
        "omega_I": [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0), (6, 7, a)],
        "omega_J": [(0, 2, 1.0), (1, 3, -1.0), (5, 6, 1.0), (4, 7, a)],
        "omega_K": [(0, 3, 1.0), (1, 2, 1.0), (4, 6, -1.0), (5, 7, a)],
    }

    cart_V = VectorFieldR(
        cart, lambda c: [-c[1], c[0], c[3], -c[2], 0.0, 0.0, 0.0, 1.0],
        name="rotation + shift",
    )
    gh_V = VectorFieldR(chart, lambda c: [0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0],
                        name="G")

    level_chart = Chart(("x1", "x2", "x3", "chi", "theta"))
    half = 1.0 / (2.0 * a)
    level = EmbeddingMap(
        level_chart, chart,
        lambda c: [c[0], c[1], c[2], c[3] + 2.0 * c[4],
                   -half * c[0], -half * c[1], -half * c[2], c[4]],
        name="triple zero level set",
    )

    def level_gfn(c):
        r, A1, A2 = _monopole_terms(c[0], c[1], c[2])
        s = 1.0 / r + 1.0 / (a * a)
        b = [A1, A2, 0.0, 1.0, 2.0]
        rows = [[None] * 5 for _ in range(5)]
        for m in range(5):
            for n in range(m, 5):
                e = (r / 4.0) * b[m] * b[n]
                if m == n and m < 3:
                    e = e + s / 4.0
                rows[m][n] = e
        rows[4][4] = rows[4][4] + a * a
        return rows

    level_metric = MetricField(level_chart, level_gfn, name="5-metric")

    # moment maps as functions of each chart
    def mu_I_cart(c):
        return 0.5 * (c[0] * c[0] + c[1] * c[1] - c[2] * c[2] - c[3] * c[3]) + a * c[6]

    def mu_J_cart(c):
        return c[0] * c[3] + c[1] * c[2] + a * c[4]

    def mu_K_cart(c):
        return c[1] * c[3] - c[0] * c[2] + a * c[5]

    moments_gh = {
        "mu_I": lambda c: 0.5 * c[2] + a * c[6],
        "mu_J": lambda c: 0.5 * c[0] + a * c[4],
        "mu_K": lambda c: 0.5 * c[1] + a * c[5],
    }

    return Model(
        name="r8-parent",
        a=a,
        chart=chart,
        metric=MetricField(chart, gfn, name="8-metric, monopole chart"),
        forms=forms,
        killing={"G": gh_V},
        embeddings={"level": level},
        targets={"mu_I": moments_gh["mu_I"], "mu_J": moments_gh["mu_J"],
                 "mu_K": moments_gh["mu_K"],
                 "level_metric": lambda p: level_metric.value(p)},
        box=((*_CART,), (*_CART,), (*_CART,), (*_ANGLE,),
             (*_CART,), (*_CART,), (*_CART,), (*_ANGLE,)),
        exclusions=(_string_exclusion(),),
        fiber_index=4,
        invariant=(0, 1, 2, 3),
        extras={
            "cart_chart": cart,
            "cart_metric": MetricField(cart, cart_gfn, name="8-metric, cartesian"),
            "cart_forms": {k: _constant_form(cart, v, k) for k, v in cart_w.items()},
            "cart_killing": cart_V,
            "cart_moments": {"mu_I": mu_I_cart, "mu_J": mu_J_cart,
                             "mu_K": mu_K_cart},
            "cart_box": ((*_CART,), (*_CART,), (*_CART,), (*_CART,),
                         (*_CART,), (*_CART,), (*_CART,), (*_ANGLE,)),
            "cart_exclusions": (_pole_exclusion(),),
            "level_chart": level_chart,
            "level_metric": level_metric,
            "level_box": ((*_CART,), (*_CART,), (*_CART,), (*_ANGLE,), (*_ANGLE,)),
            "level_exclusions": (_string_exclusion(),),
            "level_cyclic": (3, 4),
            "level_fiber": VectorFieldR(level_chart,
                                        lambda c: [0.0, 0.0, 0.0, 0.0, 1.0],
                                        name="G fiber"),
        },
    )


def _gauge_checked(x):
    """``x`` as a float array ``(3,)`` or ``(B, 3)``, checked against the domain
    rule of :func:`monopole_potential` (the error names the first bad point).

    Anything else, such as the three ``(B,)`` coordinate columns a field
    receives, is a :class:`SingularGaugeError` rather than a misread batch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise SingularGaugeError(f"monopole gauge takes points (3,) or (B, 3), "
                                 f"not shape {x.shape}")
    r = np.sqrt(np.sum(x * x, axis=-1))
    failure = jets.first_failure((r > 0.0) & (r + x[..., 2] > 1e-8 * r), x)
    if failure is not None:
        raise SingularGaugeError(f"monopole gauge singular{failure[1]}")
    return x


def taub_nut_metric(x, a=1.0):
    """Closed-form quotient metric over ``(x, chi)`` at the 3-point ``x``.

    ``ds^2 = (s/4) dx.dx + (d chi + A.dx)^2 / (4 s)`` with
    ``s = 1/r + 1/a^2``; monopole gauge preconditions apply.  ``x`` may be
    a batch ``(B, 3)``, giving ``(B, 4, 4)``.
    """
    a = _check_a(a)
    x = _gauge_checked(x)
    r, A1, A2 = _monopole_terms(x[..., 0], x[..., 1], x[..., 2])
    s = 1.0 / r + 1.0 / (a * a)
    b = np.stack(np.broadcast_arrays(A1, A2, 0.0, 1.0), axis=-1)
    g = b[..., :, None] * b[..., None, :] / np.expand_dims(4.0 * s, (-2, -1))
    for m in range(3):
        g[..., m, m] += s / 4.0
    return g


def taub_nut_triple(x, a=1.0):
    """The three quotient 2-forms at ``x``: flat forms with ``1/r -> 1/r + 1/a^2``.

    ``x`` may be a batch ``(B, 3)``, giving three ``(B, 4, 4)`` arrays.
    """
    a = _check_a(a)
    x = _gauge_checked(x)
    p = np.concatenate([x, np.zeros((*x.shape[:-1], 1))], axis=-1)
    chart = Chart(("x1", "x2", "x3", "chi"))
    return tuple(FormField(chart, 2, fn).value(p)
                 for fn in _xpsi_triple_fns(lambda r: 1.0 / r + 1.0 / (a * a)))


def taub_nut(a=1.0):
    """The quotient 4-manifold on ``(x, chi)``."""
    a = _check_a(a)
    chart = Chart(("x1", "x2", "x3", "chi"))

    def gfn(c):
        r, A1, A2 = _monopole_terms(c[0], c[1], c[2])
        s = 1.0 / r + 1.0 / (a * a)
        b = [A1, A2, 0.0, 1.0]
        inv4s = 0.25 / s
        rows = [[None] * 4 for _ in range(4)]
        for m in range(4):
            for n in range(m, 4):
                e = inv4s * b[m] * b[n]
                if m == n and m < 3:
                    e = e + s / 4.0
                rows[m][n] = e
        return rows

    om_I, om_J, om_K = _xpsi_triple_fns(lambda r: 1.0 / r + 1.0 / (a * a))
    return Model(
        name="taub-nut",
        a=a,
        chart=chart,
        metric=MetricField(chart, gfn, name="taub-nut"),
        forms={"omega_I": FormField(chart, 2, om_I, name="omega_I^TN"),
               "omega_J": FormField(chart, 2, om_J, name="omega_J^TN"),
               "omega_K": FormField(chart, 2, om_K, name="omega_K^TN")},
        killing={"chi-shift": VectorFieldR(chart, lambda c: [0.0, 0.0, 0.0, 1.0],
                                           name="chi-shift")},
        targets={"metric": lambda x: taub_nut_metric(x, a),
                 "triple": lambda x: taub_nut_triple(x, a)},
        box=((*_CART,), (*_CART,), (*_CART,), (*_ANGLE,)),
        exclusions=(_string_exclusion(),),
        cyclic=(3,),
    )


REGISTRY = {
    "toy-parent": toy_parent,
    "toy-reduced": toy_reduced,
    "gh-flat": gh_flat,
    "r8-parent": r8_parent,
    "taub-nut": taub_nut,
}

MODEL_NAMES = tuple(sorted(REGISTRY))


def build(name, a=1.0):
    """Instantiate a registered model by CLI name."""
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
        ) from None
    return builder(a)


# ---------------------------------------------------------------------------
# scalar fields for derivative-oracle hygiene


def scalar_fields(a=1.0):
    """Every scalar field the models expose, with its sampling domain.

    The derivative-consistency suite (jets against central differences)
    sweeps exactly this list, so any new closed-form function should be
    registered here.
    """
    a = _check_a(a)
    string = (_string_exclusion(),)
    pole = (_pole_exclusion(),)
    box3 = ((*_CART,), (*_CART,), (*_CART,))
    box4y = ((*_CART,),) * 4
    kbox = ((-1.5, 1.5),) * 4

    def r_of_x(c):
        return jets.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])

    def A1(c):
        return _monopole_terms(c[0], c[1], c[2])[1]

    def A2(c):
        return _monopole_terms(c[0], c[1], c[2])[2]

    def psi_of_y(c):
        return -2.0 * jets.atan2(c[0], c[1])

    def tn_fiber_norm(c):
        r = r_of_x(c)
        return 0.25 / (1.0 / r + 1.0 / (a * a))

    def shear_potential(c):
        u1, v1, u2, v2 = c
        r2 = u1 * u1 + v1 * v1
        return (r2 + r2 * r2 / 4.0 + u2 * u2 + v2 * v2
                + (u1 * u1 - v1 * v1) * u2 + 2.0 * u1 * v1 * v2)

    def single_potential(c):
        r2 = c[0] * c[0] + c[1] * c[1]
        return r2 + r2 * r2 / 4.0

    return (
        ScalarFieldSpec("toy-moment-map",
                        lambda c: c[0] * c[0] / 2.0 + a * c[2],
                        ((*_RADIAL,), (*_ANGLE,), (*_CART,), (*_ANGLE,))),
        ScalarFieldSpec("toy-curvature-target",
                        lambda c: 8.0 * a ** 4 / (c[0] * c[0] + a * a) ** 3,
                        ((*_RADIAL,), (*_ANGLE,))),
        ScalarFieldSpec("radial-distance", r_of_x, box3, string),
        ScalarFieldSpec("monopole-A1", A1, box3, string),
        ScalarFieldSpec("monopole-A2", A2, box3, string),
        ScalarFieldSpec("gh-angle", psi_of_y, box4y, pole),
        ScalarFieldSpec("gh-x1", lambda c: 2.0 * (c[0] * c[3] + c[1] * c[2]), box4y),
        ScalarFieldSpec("gh-x2", lambda c: 2.0 * (c[1] * c[3] - c[0] * c[2]), box4y),
        ScalarFieldSpec("gh-x3",
                        lambda c: c[0] * c[0] + c[1] * c[1] - c[2] * c[2] - c[3] * c[3],
                        box4y),
        ScalarFieldSpec("mu-I-cartesian",
                        lambda c: 0.5 * (c[0] * c[0] + c[1] * c[1]
                                         - c[2] * c[2] - c[3] * c[3]) + a * c[6],
                        box4y + box3 + ((*_ANGLE,),), pole),
        ScalarFieldSpec("mu-J-cartesian",
                        lambda c: c[0] * c[3] + c[1] * c[2] + a * c[4],
                        box4y + box3 + ((*_ANGLE,),), pole),
        ScalarFieldSpec("mu-K-cartesian",
                        lambda c: c[1] * c[3] - c[0] * c[2] + a * c[5],
                        box4y + box3 + ((*_ANGLE,),), pole),
        ScalarFieldSpec("taub-nut-fiber-norm", tn_fiber_norm,
                        box3 + ((*_ANGLE,),), string),
        ScalarFieldSpec("potential-shear", shear_potential, kbox),
        ScalarFieldSpec("potential-single-mode", single_potential,
                        ((-1.5, 1.5), (-1.5, 1.5))),
    )
