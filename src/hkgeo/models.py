"""Registry of concrete geometries: charts, metrics, forms, embeddings,
closed-form targets, sampling domains.

Five model families are registered, keyed by the names the command line
uses:

``toy-parent``
    Flat ``R^2 x (R x S^1)`` in chart ``(r, phi, x, theta)``: the polar
    plane ``(r, phi)`` times the ``(x, theta)`` circle factor, with the
    diagonal shift isometry, its symplectic form, moment map and the zero
    level-set embedding into the 3-chart ``(r, theta, chi)``.
``toy-reduced``
    The resulting surface of revolution on ``(r, chi)`` with its area
    form and curvature profile.
``gh-flat``
    Flat ``R^4`` in monopole coordinates ``(x, Psi)`` alongside the
    Cartesian picture and the quadratic coordinate change between them.
``r8-parent``
    ``gh-flat x (R^3 x S^1)``, carrying the triple of symplectic forms, in
    both the Cartesian and monopole-coordinate pictures, with the triple
    moment map and the 5-dimensional zero level set ``(x, chi, theta)``.
``taub-nut``
    The quotient 4-manifold on ``(x, chi)`` with its triple; its metric and
    forms are the targets of the second reduction stage.

gh-flat and taub-nut come from one Gibbons-Hawking builder, with harmonic
functions ``V = 1/r`` and ``V = 1/r + 1/a^2``: the quotient only shifts
``V``.  Both reductions start from a product with a circle factor, and
one builder writes each product's metric and forms: toy-parent's are the
polar plane's beside the constant ``(x, theta)`` block, r8-parent's, in
both pictures, gh-flat's beside the constant ``(X, theta)`` block.  The
references the checks compare against are written out on their own: the
level-set metrics, the numpy closed form :func:`taub_nut_metric` and the
moment maps.  A quotient's forms have no separate closed form: they are the
reduced model's ``forms`` (``toy-reduced``'s, ``taub-nut``'s), compared on
the kept coordinates.

The first reduction stage's level set is a :class:`Model` of its own,
``m.level`` (its chart, metric, box, exclusions and cyclic coordinates),
and so is a Cartesian picture, ``m.cartesian`` (its metric, forms,
``killing["G"]``, moment maps as ``targets``, box and exclusions); each
samples its own domain with ``sample``.  A reduction parent states its
fiber once, as the coordinate ``fiber_index`` of its level set: the second
stage keeps every other coordinate.

Sampling boxes keep clear of coordinate degeneracies: radial coordinates
in ``[0.3, 3]``, angles in ``[0.1, 5.9]``, Cartesian components in
``[-2, 2]`` with the monopole string (the half-axis ``x_1 = x_2 = 0,
x_3 < 0``) excluded by predicate.
"""

from __future__ import annotations

import contextvars

import numpy as np

from . import jets
from ._record import Frozen
from .fields import Chart, EmbeddingMap, FormField, MetricField, VectorFieldR
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
    if not 0.0 < a < np.inf:
        raise ValueError(f"circle radius a must be finite and positive, got {a}")
    return a


class ScalarFieldSpec(Frozen):
    """A named scalar field with its sampling domain, for derivative checks."""

    __slots__ = ("name", "fn", "box", "exclusions")

    def __init__(self, name, fn, box, exclusions=()):
        self._set(name, fn, box, exclusions)


class Model(Frozen):
    """One registry entry: a chart with everything the pipelines consume.

    ``forms``, ``killing``, ``embeddings`` and ``targets`` default to a new
    empty dict for each model.  A reduction parent is the whole reduction:
    its metric, forms, Killing vector, ``embeddings["level"]``, its level
    set as the model ``level`` (chart, metric, box, exclusions, cyclic
    coordinates) and ``fiber_index``, the level-set coordinate of the fiber,
    which the quotient drops and whose every other coordinate it keeps.  The
    level-set metric is also the mass matrix that
    :func:`hkgeo.mechanics.constrain_and_reduce` reduces.  A model with a
    Cartesian picture carries it as the model ``cartesian``; both are None
    otherwise.  Its fields are read-only: :func:`build` hands one model to
    every check of a run, so no check can change what another one reads.
    """

    __slots__ = ("name", "a", "chart", "metric", "forms", "killing", "embeddings",
                 "targets", "box", "exclusions", "cyclic", "fiber_index", "level",
                 "cartesian")

    def __init__(self, name, a, chart, metric, forms=None, killing=None, embeddings=None,
                 targets=None, box=(), exclusions=(), cyclic=(), fiber_index=None,
                 level=None, cartesian=None):
        self._set(name, a, chart, metric, {} if forms is None else forms,
                  {} if killing is None else killing, {} if embeddings is None else embeddings,
                  {} if targets is None else targets, box, exclusions, cyclic, fiber_index,
                  level, cartesian)

    def sample(self, count, seed=0):
        return sample_points(SampleSpec(self.box, count, seed, self.exclusions))


def _string_exclusion(margin=0.3):
    """Reject points whose first three coordinates approach the gauge string."""

    def near(p):
        r = _radius(p[0], p[1], p[2])
        return (r < margin) | ((r + p[2]) < margin)

    return Exclusion("monopole-string", near)


def _pole_exclusion():
    """Reject Cartesian points where the angle Psi degenerates.

    ``r = |y|^2`` and ``r + x_3 = 2 (y_1^2 + y_2^2)`` identically, so this is
    the locus of :func:`_string_exclusion` (``r < 0.3`` or ``r + x_3 < 0.3``),
    seen from the other chart.
    """

    def near(p):
        return ((p[0] ** 2 + p[1] ** 2) < 0.15) | \
            ((p[0] ** 2 + p[1] ** 2 + p[2] ** 2 + p[3] ** 2) < 0.3)

    return Exclusion("gauge-pole", near)


_ANGLE = (0.1, 5.9)
_RADIAL = (0.3, 3.0)
_CART = (-2.0, 2.0)


# ---------------------------------------------------------------------------
# monopole potential and radial helpers


def _radius(x1, x2, x3):
    """The radius ``r = |x|`` of a 3-point, on floats, arrays or jets."""
    return jets.sqrt(x1 * x1 + x2 * x2 + x3 * x3)


def _monopole_denominator(x1, x2, x3):
    """``r`` and ``r (r + x3)``, which both terms of the monopole potential divide by."""
    r = _radius(x1, x2, x3)
    return r, r * (r + x3)


def _monopole_terms(x1, x2, x3):
    r, denom = _monopole_denominator(x1, x2, x3)
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
# products with a circle factor, the parents of both reductions


def _direct_sum(fn, k, block):
    """Rows of ``fn`` on the first ``k`` coordinates beside the constant square
    ``block`` on the rest: the matrix of a product's metric or 2-form."""

    def rows(c):
        top = fn(c[:k])
        return ([[*top[m]] + [0.0] * len(block) for m in range(k)]
                + [[0.0] * k + list(row) for row in block])

    return rows


# ---------------------------------------------------------------------------
# toy family


def toy_parent(a=1.0):
    """Flat 4-chart ``(r, phi, x, theta)``: the polar plane times the ``(x, theta)``
    cylinder, with the diagonal shift isometry."""
    a = _check_a(a)
    chart = Chart(("r", "phi", "x", "theta"))
    metric = MetricField(chart, _direct_sum(lambda c: [[1.0, 0.0], [None, c[0] * c[0]]], 2,
                                            np.diag([1.0, a * a])),
                         name="flat polar x cylinder")
    omega = FormField(chart, 2, _direct_sum(lambda c: [[0.0, c[0]], [None, 0.0]], 2,
                                            [[0.0, a], [None, 0.0]]), name="omega")
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
        targets={"moment_map": moment, "moment_base": (1.0, 0.5, -0.5 / a, 0.3)},
        box=((*_RADIAL,), (*_ANGLE,), (*_CART,), (*_ANGLE,)),
        fiber_index=1,
        level=Model(
            "toy-parent level", a, level_chart,
            MetricField(level_chart, level_gfn, name="level 3-metric"),
            box=((*_RADIAL,), (*_ANGLE,), (*_ANGLE,)),
            cyclic=(1, 2)),
    )


def toy_reduced(a=1.0):
    """Surface of revolution on ``(r, chi)`` produced by the toy quotient."""
    a = _check_a(a)
    chart = Chart(("r", "chi"))
    a2, c8 = a * a, 8.0 * a ** 4

    def gfn(c):
        r2 = c[0] * c[0]
        return [[1.0 + r2 / a2, 0.0],
                [None, a2 * r2 / (r2 + a2)]]

    def wfn(c):
        return [[0.0, c[0]], [None, 0.0]]

    def curvature(r):
        return c8 / (float(r) ** 2 + a2) ** 3

    return Model(
        name="toy-reduced",
        a=a,
        chart=chart,
        metric=MetricField(chart, gfn, name="reduced 2-metric"),
        forms={"omega": FormField(chart, 2, wfn, name="omega tilde")},
        killing={"shift": VectorFieldR(chart, lambda c: [0.0, 1.0], name="shift")},
        targets={"curvature": curvature},
        box=((*_RADIAL,), (*_ANGLE,)),
        cyclic=(1,),
    )


# ---------------------------------------------------------------------------
# Gibbons-Hawking metrics: flat R^4 (V = 1/r) and Taub-NUT (V = 1/r + 1/a^2)


def _gh_rows(b, coef, diag):
    """Upper triangle of ``coef b_m b_n``, plus ``diag`` on the first three
    diagonal entries: every Gibbons-Hawking form metric of the package."""
    n = len(b)
    rows = [[None] * n for _ in range(n)]
    for m in range(n):
        for k in range(m, n):
            e = coef * b[m] * b[k]
            rows[m][k] = e + diag if m == k and m < 3 else e
    return rows


#: The index i of ``omega = ... ^ dx^i`` for each form of a hyperkaehler triple.
_TRIPLE = {"omega_I": 2, "omega_J": 0, "omega_K": 1}


def _triple_rows(i, v, f):
    """Upper triangle of ``v eps_ijk dx^j dx^k / 2 + f dx^i ^ dy`` on ``(x, y)``."""
    j, k = (i + 1) % 3, (i + 2) % 3
    rows = [[0.0] * 4 for _ in range(4)]
    rows[min(j, k)][max(j, k)] = v if j < k else -v
    rows[i][3] = f
    return rows


def _gh_form(i, harmonic):
    """``V eps_ijk dx^j dx^k / 8 - (dPsi + A.dx) ^ dx^i / 4`` on ``(x, Psi)``,
    where ``harmonic(r)`` returns ``(V, 1/V)``."""

    def fn(c):
        r, A1, A2 = _monopole_terms(c[0], c[1], c[2])
        rows = _triple_rows(i, harmonic(r)[0] / 4.0, 0.25)
        for m, Am in ((0, A1), (1, A2)):
            if m < i:
                rows[m][i] = -0.25 * Am
            elif m > i:
                rows[i][m] = 0.25 * Am
        return rows

    return fn


def _gibbons_hawking(name, a, chart, harmonic, **extra):
    """The Gibbons-Hawking model ``(V dx.dx + (dPsi + A.dx)^2 / V) / 4`` on
    ``chart = (x, Psi)``, with its triple and the shift of ``Psi``.

    ``harmonic(r)`` returns the pair ``(V, 1/V)``; ``extra`` are further
    :class:`Model` fields.
    """

    def gfn(c):
        r, A1, A2 = _monopole_terms(c[0], c[1], c[2])
        V, inv = harmonic(r)
        return _gh_rows([A1, A2, 0.0, 1.0], inv / 4.0, V / 4.0)

    shift = f"{chart.names[3].lower()}-shift"
    return Model(
        name, a, chart, MetricField(chart, gfn, name=name),
        forms={k: FormField(chart, 2, _gh_form(i, harmonic), name=k)
               for k, i in _TRIPLE.items()},
        killing={shift: VectorFieldR(chart, lambda c: [0.0, 0.0, 0.0, 1.0], name=shift)},
        box=((*_CART,), (*_CART,), (*_CART,), (*_ANGLE,)),
        exclusions=(_string_exclusion(),),
        cyclic=(3,),
        **extra,
    )


#: The coordinate change ``y -> (x, Psi)``, one callable per component, so
#: that each can be evaluated (and checked) alone.
_VAR_CHANGE = (
    lambda y: 2.0 * (y[0] * y[3] + y[1] * y[2]),
    lambda y: 2.0 * (y[1] * y[3] - y[0] * y[2]),
    lambda y: y[0] * y[0] + y[1] * y[1] - y[2] * y[2] - y[3] * y[3],
    lambda y: -2.0 * jets.atan2(y[0], y[1]),
)


def _var_change_fn(c):
    return [f(c) for f in _VAR_CHANGE]


def _inverse_var_change_fn(c):
    x1, x2, x3, psi = c
    r = _radius(x1, x2, x3)
    rho = jets.sqrt((r + x3) / 2.0)
    y1 = -rho * jets.sin(psi * 0.5)
    y2 = rho * jets.cos(psi * 0.5)
    denom = 2.0 * rho * rho
    y3 = (y2 * x1 - y1 * x2) / denom
    y4 = (y1 * x1 + y2 * x2) / denom
    return [y1, y2, y3, y4]


def gh_flat(a=1.0):
    """Flat ``R^4`` as the Gibbons-Hawking metric with ``V = 1/r``, in monopole
    coordinates ``(x, Psi)``, with the Cartesian companion.

    The parameter ``a`` plays no part in this geometry (it has no circle),
    but it is validated as every builder validates it, so that every
    registry builder has the same signature and refuses the same values.
    """
    a = _check_a(a)
    chart = Chart(("x1", "x2", "x3", "Psi"))
    cart = Chart(("y1", "y2", "y3", "y4"))
    # the Cartesian triple s eps_ijk dy^j dy^k / 2 + s dy^i ^ dy^4, by (i, s)
    cart_triple = {"omega_I": (2, 1.0), "omega_J": (1, -1.0), "omega_K": (0, 1.0)}

    return _gibbons_hawking(
        "gh-flat", a, chart, lambda r: (1.0 / r, r),
        embeddings={
            "to_monopole": EmbeddingMap(cart, chart, _var_change_fn,
                                        name="y -> (x, Psi)"),
            "to_cartesian": EmbeddingMap(chart, cart, _inverse_var_change_fn,
                                         name="(x, Psi) -> y"),
        },
        targets={"radius": lambda y: np.sum(np.square(y), axis=-1)},
        cartesian=Model(
            "gh-flat cartesian", a, cart,
            MetricField(cart, lambda c: np.eye(4), name="cartesian flat"),
            forms={k: FormField(cart, 2, lambda c, i=i, s=s: _triple_rows(i, s, s), name=k)
                   for k, (i, s) in cart_triple.items()},
            box=((*_CART,), (*_CART,), (*_CART,), (*_CART,)),
            exclusions=(_pole_exclusion(),)),
    )


# ---------------------------------------------------------------------------
# eight-dimensional parent and its reduction to Taub-NUT


def r8_parent(a=1.0):
    """``R^4 x (R^3 x S^1)``: gh-flat times the flat ``(X, theta)`` factor, with
    the symplectic triple and its moment maps.

    The factor carries the metric ``dX.dX + a^2 dtheta^2`` and the triple
    ``dX^j dX^k + a dX^i dtheta``.  Two pictures are bundled.  The primary
    chart is the monopole one, ``(x, Psi, X, theta)``, which the metric
    pipeline uses; the Cartesian picture ``(y, X, theta)`` carries
    constant-coefficient forms and is where contractions and moment maps are
    cheapest to verify.
    """
    a = _check_a(a)
    gh = build("gh-flat", a)
    x_box = ((*_CART,), (*_CART,), (*_CART,), (*_ANGLE,))

    def times_x(m):
        """Chart, metric and triple of ``m`` times the ``(X, theta)`` factor."""
        chart = Chart(m.chart.names + ("X1", "X2", "X3", "theta"))
        metric = MetricField(chart, _direct_sum(m.metric.fn, 4, np.diag([1.0, 1.0, 1.0, a * a])),
                             name=f"{m.name} x (R^3 x S^1)")
        forms = {k: FormField(chart, 2, _direct_sum(w.fn, 4, _triple_rows(_TRIPLE[k], 1.0, a)),
                              name=k) for k, w in m.forms.items()}
        return chart, metric, forms

    chart, metric, forms = times_x(gh)
    cart, cart_metric, cart_forms = times_x(gh.cartesian)

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
        rows = _gh_rows([A1, A2, 0.0, 1.0, 2.0], r / 4.0, s / 4.0)
        rows[4][4] = rows[4][4] + a * a
        return rows

    # the moment maps in the Cartesian chart
    def mu_I_cart(c):
        return 0.5 * (c[0] * c[0] + c[1] * c[1] - c[2] * c[2] - c[3] * c[3]) + a * c[6]

    def mu_J_cart(c):
        return c[0] * c[3] + c[1] * c[2] + a * c[4]

    def mu_K_cart(c):
        return c[1] * c[3] - c[0] * c[2] + a * c[5]

    return Model(
        name="r8-parent",
        a=a,
        chart=chart,
        metric=metric,
        forms=forms,
        killing={"G": gh_V},
        embeddings={"level": level},
        targets={"mu_I": lambda c: 0.5 * c[2] + a * c[6],
                 "mu_J": lambda c: 0.5 * c[0] + a * c[4],
                 "mu_K": lambda c: 0.5 * c[1] + a * c[5]},
        box=gh.box + x_box,
        exclusions=gh.exclusions,
        fiber_index=4,
        level=Model(
            "r8-parent level", a, level_chart,
            MetricField(level_chart, level_gfn, name="5-metric"),
            box=((*_CART,), (*_CART,), (*_CART,), (*_ANGLE,), (*_ANGLE,)),
            exclusions=(_string_exclusion(),),
            cyclic=(3, 4)),
        cartesian=Model(
            "r8-parent cartesian", a, cart, cart_metric,
            forms=cart_forms,
            killing={"G": cart_V},
            targets={"mu_I": mu_I_cart, "mu_J": mu_J_cart, "mu_K": mu_K_cart},
            box=gh.cartesian.box + x_box,
            exclusions=gh.cartesian.exclusions),
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
    r = _radius(x[..., 0], x[..., 1], x[..., 2])
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


def taub_nut(a=1.0):
    """Taub-NUT on ``(x, chi)``: the Gibbons-Hawking metric with ``V = 1/r + 1/a^2``."""
    a = _check_a(a)

    def harmonic(r):
        s = 1.0 / r + 1.0 / (a * a)
        return s, 1.0 / s

    return _gibbons_hawking("taub-nut", a, Chart(("x1", "x2", "x3", "chi")), harmonic)


REGISTRY = {
    "toy-parent": toy_parent,
    "toy-reduced": toy_reduced,
    "gh-flat": gh_flat,
    "r8-parent": r8_parent,
    "taub-nut": taub_nut,
}

MODEL_NAMES = tuple(sorted(REGISTRY))


#: The models built so far in the running :func:`hkgeo.checks.run_suite`, by
#: ``(name, a)``; unset outside a run.  Context-local, for concurrent runs.
_built = contextvars.ContextVar("built")


def build(name, a=1.0):
    """Instantiate a registered model by CLI name: within a run once per
    ``(name, a)``, handed to every caller, and outside a run afresh."""
    if name not in REGISTRY:
        raise KeyError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    built = _built.get({})  # outside a run a fresh dict: a fresh build
    if (name, a) not in built:
        built[name, a] = REGISTRY[name](a)
    return built[name, a]


# ---------------------------------------------------------------------------
# scalar fields for derivative-oracle hygiene


def _shear_potential(c):
    """Kaehler potential of :func:`hkgeo.kahler.unit_determinant_shear_field`."""
    u1, v1, u2, v2 = c
    r2 = u1 * u1 + v1 * v1
    return (r2 + r2 * r2 / 4.0 + u2 * u2 + v2 * v2
            + (u1 * u1 - v1 * v1) * u2 + 2.0 * u1 * v1 * v2)


def _single_mode_potential(c):
    """``|z|^2 + |z|^4 / 4``, the Kaehler potential of ``h = 1 + |z|^2``."""
    u, v = c
    r2 = u * u + v * v
    return r2 + r2 * r2 / 4.0


def scalar_fields(a=1.0):
    """Every scalar field the models expose, with its sampling domain.

    The derivative-consistency suite (jets against central differences)
    sweeps exactly this list, so any new closed-form function should be
    registered here.  The moment maps, monopole denominator, coordinate change
    and Taub-NUT fiber norm (its metric's ``[3][3]`` entry) are the models'
    own callables, so the sweep checks the functions the other checks use;
    the Kaehler potentials are those of ``kahler``'s shear field and of the
    one-dimensional metric ``h = 1 + |z|^2``.
    """
    a = _check_a(a)
    string = (_string_exclusion(),)
    pole = (_pole_exclusion(),)
    box3 = ((*_CART,), (*_CART,), (*_CART,))
    box4y = ((*_CART,),) * 4
    kbox = ((-1.5, 1.5),) * 4
    tn_metric = build("taub-nut", a).metric.fn
    mu_cart = build("r8-parent", a).cartesian.targets

    return (
        ScalarFieldSpec("toy-moment-map", build("toy-parent", a).targets["moment_map"],
                        ((*_RADIAL,), (*_ANGLE,), (*_CART,), (*_ANGLE,))),
        ScalarFieldSpec("toy-curvature-target",
                        lambda c: 8.0 * a ** 4 / jets.power(c[0] * c[0] + a * a, 3),
                        ((*_RADIAL,), (*_ANGLE,))),
        ScalarFieldSpec("radial-distance", lambda c: _radius(*c), box3, string),
        ScalarFieldSpec("monopole-A1", lambda c: c[1] / _monopole_denominator(*c)[1], box3,
                        string),
        ScalarFieldSpec("monopole-A2", lambda c: -c[0] / _monopole_denominator(*c)[1], box3,
                        string),
        ScalarFieldSpec("gh-angle", _VAR_CHANGE[3], box4y, pole),
        *(ScalarFieldSpec(f"gh-x{k + 1}", _VAR_CHANGE[k], box4y) for k in range(3)),
        *(ScalarFieldSpec(f"mu-{k}-cartesian", mu_cart[f"mu_{k}"],
                          box4y + box3 + ((*_ANGLE,),), pole) for k in "IJK"),
        ScalarFieldSpec("taub-nut-fiber-norm", lambda c: tn_metric(c)[3][3],
                        box3 + ((*_ANGLE,),), string),
        ScalarFieldSpec("potential-shear", _shear_potential, kbox),
        ScalarFieldSpec("potential-single-mode", _single_mode_potential,
                        ((-1.5, 1.5), (-1.5, 1.5))),
    )
