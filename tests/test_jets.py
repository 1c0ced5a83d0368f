"""Forward-mode jet arithmetic against hand derivatives and stencils."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgeo import geometry, jets, models
from hkgeo.ddouble import DD
from hkgeo.jets import (
    EvaluationError,
    Jet,
    StencilExclusionError,
    call_field,
    evaluate_jet,
    fd_oracle,
    first_failure,
    fd_step,
)

from oracles import DenseJet, dense_call, solve


def test_variable_seeding():
    x = Jet.variable(3.0, 0, 2)
    assert x.value == 3.0
    assert np.array_equal(x.gradient, [1.0, 0.0])
    assert np.all(x.hessian == 0.0)


def _jet_bits(jet):
    """A jet's support and the shapes and bytes of its value, gradient and Hessian."""
    return jet.support, [None if a is None else (np.shape(a), np.asarray(a).tobytes())
                         for a in (jet.value, jet.grad, jet.hess)]


@pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
@pytest.mark.parametrize("order", [1, 2])
def test_block_seeds_are_variable_seeds(order, batch):
    # call_field seeds float64 coordinates as the rows of one gradient block
    # that share one zero Hessian; each is Jet.variable's seed bit for bit,
    # the NaN derivative of an infinite coordinate (x * 0 + 1) included
    p = np.array([[0.5, -0.0, np.inf], [3.0, -2.0, 1e-300]])
    p = p if batch else p[0]
    with np.errstate(invalid="ignore"):
        seeds = call_field(lambda c: c, p, order)
        want = [Jet.variable(x, i, 3, order) for i, x in enumerate(jets._coords(p))]
    assert [_jet_bits(s) for s in seeds] == [_jet_bits(w) for w in want]
    assert all(s.hess is seeds[0].hess for s in seeds)


@pytest.mark.parametrize("order", [1, 2])
def test_cached_stencil_is_read_only(order):
    # fd_oracle builds its stencil once per (d, order) and shares it
    for a in jets._stencil(3, order):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_product_rule():
    # (fg)'' = f''g + 2f'g' + fg'' entry by entry
    f = Jet(2.0, np.array([1.0, -3.0]), np.array([[0.5, 1.0], [1.0, 0.0]]))
    g = Jet(-1.5, np.array([2.0, 0.5]), np.array([[0.0, -1.0], [-1.0, 2.0]]))
    h = f * g
    assert h.value == 2.0 * -1.5
    assert np.allclose(h.gradient, f.gradient * g.value + f.value * g.gradient)
    want = (f.hessian * g.value + f.value * g.hessian
            + np.outer(f.gradient, g.gradient)
            + np.outer(g.gradient, f.gradient))
    assert np.allclose(h.hessian, want)


def test_mixed_orders_give_the_lower_order():
    # a first-order operand drops the Hessian: the sum and product of a
    # first- and a second-order jet are the first-order results, either way round
    a, b = Jet.variable(2.0, 0, 2, order=1), Jet.variable(3.0, 1, 2)
    for got in (a + b, b + a):
        assert got.hessian is None and got.value == 5.0
        assert list(got.gradient) == [1.0, 1.0]
    for got in (a * b, b * a):
        assert got.hessian is None and got.value == 6.0
        assert list(got.gradient) == [3.0, 2.0]
    assert jets.atan2(a, b).hessian is None and jets.atan2(b, a).hessian is None


@pytest.mark.parametrize("order", [1, 2])
def test_lifted_constants_take_the_jet_order(order):
    # x ** 0 and the non-jet slot of atan2 become constants of x's order
    x = Jet.variable(0.5, 0, 1, order=order)
    for got in (x ** 0, jets.atan2(x, 2.0), jets.atan2(2.0, x)):
        assert (got.hessian is None) == (order == 1)
    assert (x ** 0).value == 1.0 and list((x ** 0).gradient) == [0.0]


def test_first_power_is_the_jet_itself():
    # at x = 0 the general rule's f'' = k (k - 1) x^(k - 2) would divide by zero
    x = Jet.variable(0.0, 0, 1, order=2)
    assert x ** 1 is x
    j = evaluate_jet(lambda c: c[0] ** 1, [0.0])
    assert (j.value, list(j.gradient), j.hessian.tolist()) == (0.0, [1.0], [[0.0]])


def test_jet_repr_names_value_dim_support_and_order():
    assert repr(Jet.variable(0.0, 0, 1, order=2)) == (
        "Jet(value=0.0, dim=1, support=(0,), hessian=True)")


def test_a_field_failing_only_on_a_batch_is_an_evaluation_error():
    # the field divides by zero on a batch and at none of its points, so no
    # point can be named, by call_field or by the oracle it feeds
    def field(c):
        return 1.0 / np.float64(np.ndim(c[0]) - 1)

    assert call_field(field, [0.5, 0.5]) == -1.0
    for evaluate in (lambda: call_field(field, [[0.5, 0.5], [1.0, 1.0]]),
                     lambda: fd_oracle(field, [0.5, 0.5]),
                     lambda: fd_oracle(field, [[0.5, 0.5], [1.0, 1.0]])):
        with pytest.raises(EvaluationError, match="evaluating a field on a batch of points$"
                           ) as exc:
            evaluate()
        assert exc.value.point is None
        assert isinstance(exc.value.__cause__, FloatingPointError)


def test_unknown_order_is_refused():
    for order in (0, 3):
        with pytest.raises(ValueError, match="order"):
            evaluate_jet(lambda c: c[0], [1.0], order=order)


def test_polynomial_hand_check():
    # f = x^2 y + y^3 at (2, -1): grad (-4, 7), hessian [[-2,4],[4,-6]]
    j = evaluate_jet(lambda c: c[0] ** 2 * c[1] + c[1] ** 3, [2.0, -1.0])
    assert j.value == pytest.approx(-5.0)
    assert np.allclose(j.gradient, [-4.0, 7.0])
    assert np.allclose(j.hessian, [[-2.0, 4.0], [4.0, -6.0]])


def test_quotient_and_sqrt():
    j = evaluate_jet(lambda c: jets.sqrt(c[0]) / c[1], [4.0, 2.0])
    assert j.value == pytest.approx(1.0)
    assert np.allclose(j.gradient, [1.0 / 8.0, -0.5])
    # d2/dx2 = -1/(4 x^(3/2) y), d2/dxdy = -1/(2 sqrt(x) y^2), d2/dy2 = 2 sqrt(x)/y^3
    assert np.allclose(j.hessian, [[-1.0 / 64.0, -1.0 / 16.0],
                                   [-1.0 / 16.0, 0.5]])


def test_transcendental_chain():
    p = [0.7, -0.3]
    j = evaluate_jet(lambda c: jets.cos(jets.sin(c[0] * c[1])), p)
    u = p[0] * p[1]
    assert j.value == pytest.approx(math.cos(math.sin(u)))
    d_du = -math.cos(u) * math.sin(math.sin(u))
    assert j.gradient[0] == pytest.approx(d_du * p[1])
    assert j.gradient[1] == pytest.approx(d_du * p[0])


def test_atan2_quadrants():
    for y, x in [(1.0, 2.0), (1.0, -2.0), (-1.0, -2.0), (-1.0, 2.0)]:
        j = evaluate_jet(lambda c: jets.atan2(c[0], c[1]), [y, x])
        assert j.value == pytest.approx(math.atan2(y, x))
        r2 = x * x + y * y
        assert np.allclose(j.gradient, [x / r2, -y / r2])


def test_atan2_branch_cut_gradient():
    # the gradient is smooth across the negative-x cut even though the value jumps
    j = evaluate_jet(lambda c: jets.atan2(c[0], c[1]), [1e-8, -1.0])
    assert j.gradient[0] == pytest.approx(-1.0, rel=1e-6)


def test_pow_negative_exponent():
    j = evaluate_jet(lambda c: c[0] ** -2, [2.0])
    assert j.value == pytest.approx(0.25)
    assert j.gradient[0] == pytest.approx(-0.25)
    assert j.hessian[0, 0] == pytest.approx(0.375)


def test_rtruediv():
    j = evaluate_jet(lambda c: 3.0 / c[0], [2.0])
    assert j.value == pytest.approx(1.5)
    assert j.gradient[0] == pytest.approx(-0.75)
    assert j.hessian[0, 0] == pytest.approx(0.75)


def test_first_failure_on_single_points():
    # every 0-d form of a passing or failing test, NaN-derived ones included
    nan = np.float64("nan")
    for ok in (True, np.bool_(True), np.float64(1.0) <= 2.0, np.asarray(True)):
        assert first_failure(ok, [1.0, 2.0]) is None
    for ok in (False, np.bool_(False), nan <= 1.0, np.asarray(nan) > 0.0, nan == nan):
        assert first_failure(ok) == (None, "")
        assert first_failure(ok, [1.0, 2.0]) == (None, " at [1.0, 2.0]")
    assert first_failure(np.array([True, nan <= 1.0, False])) == (1, " at point 1")


def test_evaluation_error_on_nonfinite_value():
    with pytest.raises(EvaluationError):
        evaluate_jet(lambda c: c[0] * float("nan"), [1.0])


def test_evaluation_error_on_nonfinite_derivative():
    # finite value, infinite gradient: the error names the coordinate, at
    # either jet order
    inf_grad = np.array([0.0, float("inf")])
    for order, bad in ((2, Jet(1.0, inf_grad, np.zeros((2, 2)))),
                       (1, Jet(1.0, inf_grad))):
        with pytest.raises(EvaluationError) as exc:
            evaluate_jet(lambda c: bad, [1.0, 2.0], order=order)
        assert exc.value.index == 1


@pytest.mark.parametrize("order", [1, 2])
def test_division_by_zero_is_evaluation_error(order):
    # a point's coordinates are numpy scalars, made to raise as a batch is
    for f in (lambda c: 1.0 / c[0], lambda c: c[0].sqrt()):
        with pytest.raises(EvaluationError, match="divide by zero") as exc:
            evaluate_jet(f, [0.0], order=order)
        assert isinstance(exc.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("order", [1, 2])
def test_a_list_point_is_an_array_point(order):
    # a point given as a list runs the numpy code of the same point as an
    # array: the cube of 1e200 overflows to inf, an EvaluationError, not a
    # bare OverflowError of Python floats
    messages = set()
    for point in ([1e200], (1e200,), np.array([1e200])):
        with np.errstate(over="ignore"), pytest.raises(EvaluationError) as exc:
            evaluate_jet(lambda c: c[0] ** 3, point, order=order)
        messages.add(str(exc.value))
    assert len(messages) == 1


@pytest.mark.parametrize("f, x", [
    (lambda c: jets.sqrt(c[0]), 1e-220),  # f'' = -1/(4 r^3): r^3 underflows
    (lambda c: c[0] ** 1.5, 0.0),         # f'' = 0.75 / sqrt(x)
    (lambda c: 1.0 / c[0], 1e-110),       # f'' = 2 r^3, r = 1/x: r^3 overflows
], ids=["sqrt", "pow", "reciprocal"])
def test_first_order_never_computes_second_derivative(f, x):
    # only f'' fails here, by a division by zero or an overflow to inf: order 1
    # is finite, order 2 still raises the typed error, and no warning escapes
    # (numpy warns of an overflow unless the caller silences it, as the other
    # overflow tests do)
    j = evaluate_jet(f, [x], order=1)
    assert math.isfinite(j.value) and math.isfinite(j.gradient[0])
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite derivative|divide by zero"):
            evaluate_jet(f, [x], order=2)


@pytest.mark.parametrize("dd", [False, True], ids=["float64", "double-double"])
def test_reciprocal_rule_matches_mpmath(dd):
    # one division, then products: r = 1/x, f' = -(r r), f'' = 2 (r r) r.  In
    # float64 that is 1, 3 and 5 roundings, each a relative error of at most
    # 2**-53; a double-double rule keeps 2**-100
    xs = np.concatenate([[1.0, 3.0, -7.0, 0.1, 1e-30, -3e25],
                         np.random.default_rng(5).uniform(-8.0, 8.0, 40)])
    seed = DD(xs, 0.0 * xs) if dd else xs
    jet = Jet.variable(seed, 0, 1)._reciprocal()
    with mpmath.workdps(60):
        for k, x in enumerate(xs):
            r = 1 / mpmath.mpf(x)
            for got, want, rounds in ((jet.value, r, 1), (jet.grad[0], -r * r, 3),
                                      (jet.hess[0, 0], 2 * r ** 3, 5)):
                got = got[k]
                got = mpmath.mpf(got.hi) + mpmath.mpf(got.lo) if dd else mpmath.mpf(got)
                assert abs(got / want - 1) <= (2.0 ** -100 if dd else rounds * 2.0 ** -53)


def test_first_order_gradient_is_jet2_gradient():
    # order 1 shares order 2's rules and formula order: values and gradients agree
    # bit for bit on every registered scalar field
    n = 0
    for spec in models.scalar_fields(1.0):
        pts = models.sample_points(models.SampleSpec(
            np.asarray(spec.box, dtype=float), 8, 5, tuple(spec.exclusions)))
        for p in pts:
            j1 = evaluate_jet(spec.fn, list(p), order=1)
            j2 = evaluate_jet(spec.fn, list(p))
            assert j1.hessian is None and j2.hessian is not None
            assert j1.value == j2.value, spec.name
            assert list(j1.gradient) == list(j2.gradient), spec.name
            n += 1
    assert n == 8 * len(models.scalar_fields(1.0))


def _same_as_dense(got, want):
    """``got``, a field's output on support-tracking jets, equals ``want``, the
    same on :class:`oracles.DenseJet` seeds, entry by entry and bit for bit
    (``np.array_equal`` on each part, both parts of a double-double)."""
    if isinstance(want, (list, tuple)) or getattr(want, "dtype", None) == object:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_as_dense(g, w)
        return
    assert isinstance(want, DenseJet) == (isinstance(got, Jet) and not isinstance(got, DenseJet))
    parts = ([(got.value, want.value), (got.gradient, want.gradient),
              (got.hessian, want.hessian)] if isinstance(want, Jet) else [(got, want)])
    for g, w in parts:
        if w is None or isinstance(w, DD):
            assert (g is None) == (w is None) and isinstance(g, DD) == isinstance(w, DD)
            pairs = [] if w is None else [(g.hi, w.hi), (g.lo, w.lo)]
        else:
            pairs = [(g, w)]
        for a, b in pairs:
            assert np.shape(a) == np.shape(b) and np.array_equal(a, b)


def _support_cases():
    """``(name, fn, box, exclusions)`` of every scalar field of the models, and
    of every model's metric and forms (level sets and Cartesian pictures too)."""
    cases = [(f"scalar {s.name}", s.fn, s.box, s.exclusions) for s in models.scalar_fields(1.0)]
    for name in models.MODEL_NAMES:
        m = models.build(name, 1.0)
        for model in filter(None, (m, m.level, m.cartesian)):
            for key, field in (("metric", model.metric), *model.forms.items()):
                cases.append((f"{model.name} {key}", field.fn, model.box, model.exclusions))
    return cases


@pytest.mark.parametrize("name, fn, box, exclusions",
                         [pytest.param(*case, id=case[0]) for case in _support_cases()])
def test_support_jets_equal_dense_jets(name, fn, box, exclusions):
    # the package's jets give every value, gradient and Hessian of the dense
    # rules bit for bit: at one float point and on a float batch, at both
    # orders, and on a double-double batch, where jets carry derivatives only
    # along their support, for the rational fields (a double-double refuses
    # the others with TypeError)
    pts = models.sample_points(models.SampleSpec(
        np.asarray(box, dtype=float), 4, 3, tuple(exclusions)))
    points = [pts[0], pts]
    try:
        call_field(fn, DD(pts, 0.0 * pts))
        points.append(DD(pts, pts * 1e-17))
    except TypeError:
        assert name != "toy-reduced metric"
    for p in points:
        for order in (1, 2):
            _same_as_dense(call_field(fn, p, order), dense_call(fn, p, order))


@pytest.mark.parametrize("kind", ["float point", "float batch", "double-double batch"])
def test_support_jets_equal_dense_jets_on_mixed_operands(kind):
    # seeds of support (i,) at mixed orders, and a constant of support (),
    # through every rule (sqrt and atan2 only in float64, which has them):
    # operands of differing supports are widened to their union
    p = np.array([[0.7, -1.3, 0.4], [1.1, 0.5, -0.6], [0.9, 1.7, 0.3]])
    coords = list(p.T) if kind != "float point" else list(p[0])
    if kind == "double-double batch":
        coords = [DD(x, x * 1e-17) for x in coords]

    def seed(J, i, order):
        x = coords[i]
        if J is DenseJet:
            return DenseJet.variable(x, i, 3, order)
        jet = Jet(x, jets._zeros((1,), x), jets._zeros((1, 1), x) if order == 2 else None,
                  (i,), 3)
        jet.grad[0] = x * 0 + 1
        return jet

    def constant(J, v):
        if J is DenseJet:
            return DenseJet.constant(v, 3, like=coords[0])
        return Jet(v, jets._zeros((0,), coords[0]), jets._zeros((0, 0), coords[0]), (), 3)

    def expressions(J):
        x, y, z = seed(J, 0, 1), seed(J, 1, 2), seed(J, 2, 2)
        c = constant(J, coords[1] * 0 + 1.5)
        w = z * z - c
        out = [x * z, z + x, z / x, w * y, c * c, c + z, -c + x, y - w, 2.0 / w,
               (z * c) ** 3, z ** 0 + y, x * z + y * y]
        if kind != "double-double batch":
            out += [jets.sqrt(w * w + 1.0), jets.atan2(x, z), jets.atan2(c, z),
                    jets.atan2(z, 2.0), jets.atan2(w, y * y)]
        return out

    got = expressions(Jet)
    _same_as_dense(got, expressions(DenseJet))
    assert {j.support for j in got} >= {(), (0,), (2,), (0, 2), (1, 2), (0, 1, 2)}
    assert {j.hess is None for j in got} == {False, True}


def test_fd_step_scales_with_coordinate():
    assert fd_step(0.0) == 1e-5
    assert fd_step(1.0) == 1e-5
    assert fd_step(1e3) == pytest.approx(1e-2)
    assert fd_step(-1e3) == pytest.approx(1e-2)


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=-1.4, max_value=1.4), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=3),
)
def test_fd_matches_jets(coords, which):
    fns = [
        lambda c: c[0] ** 2 * c[1] + 0.3 * c[1] ** 3,
        lambda c: jets.sin(c[0]) * jets.cos(c[1]),
        lambda c: jets.sqrt(2.0 + jets.sin(0.4 * c[0] * c[1])),
        lambda c: jets.atan2(c[0] + 0.5 * c[1], 2.0) + c[0] * c[1],
    ]
    f = fns[which]
    jet = evaluate_jet(f, coords)
    ora = fd_oracle(f, coords)
    assert np.max(np.abs(jet.gradient - ora.gradient)) < 1e-6
    assert np.max(np.abs(jet.hessian - ora.hessian)) < 1e-4


def test_fd_oracle_exclusion_guard():
    # stencil points falling in an excluded zone must raise, not silently
    # evaluate garbage
    bad = lambda p: abs(p[0]) < 2e-5
    bad.name = "near-origin"
    with pytest.raises(StencilExclusionError):
        fd_oracle(lambda c: c[0] ** 2, [0.0], exclusions=(bad,))


@pytest.mark.parametrize("evaluate, point, message", [
    (lambda: fd_oracle(lambda c: 1.0 / c[0], [0.0]), None,
     r"divide by zero .* at \[0\.0\] \(stencil row 0 of \[0\.0\]\)"),
    (lambda: fd_oracle(lambda c: jets.sqrt(c[0]), [0.0]), None,
     r"invalid value encountered in sqrt .* at \[-1e-05\] \(stencil row 2 of \[0\.0\]\)"),
    (lambda: evaluate_jet(lambda c: jets.sqrt(c[0]), [-1.0]), None,
     r"invalid value encountered in sqrt .* at \[-1\.0\]"),
], ids=["oracle-division", "oracle-sqrt-domain", "jet-sqrt-domain"])
def test_failures_on_the_oracle_path_are_evaluation_errors(evaluate, point, message):
    # the oracle calls its field through call_field, and numpy's invalid
    # operation or division by zero is a typed error naming the stencil point
    # and the point it belongs to (one point: no batch index, as evaluate_jet)
    with pytest.raises(EvaluationError, match=message) as exc:
        evaluate()
    assert exc.value.point == point


def test_oracle_failure_names_the_batch_point():
    # the failing stencil row is b S + s = 1 * 3 + 2 (the -h row of point 1);
    # the error names point 1 of the batch, not row 5
    with pytest.raises(EvaluationError, match=r"at \[-1e-05\] \(stencil row 2 of point 1 "
                                              r"of the batch\)") as exc:
        fd_oracle(lambda c: jets.sqrt(c[0]), [[1.0], [0.0]])
    assert exc.value.point == 1
    assert isinstance(exc.value.__cause__, FloatingPointError)


def test_oracle_failure_names_the_first_failing_batch_point():
    # point 0 fails only at its -h row (row 2), point 1 at every row from its
    # centre (row 3) on: the error names point 0, the first point that fails
    with pytest.raises(EvaluationError, match=r"at \[-1e-05\] \(stencil row 2 of point 0 "
                                              r"of the batch\)") as exc:
        fd_oracle(lambda c: jets.sqrt(c[0]), [[0.0], [-1.0]])
    assert exc.value.point == 0
    assert isinstance(exc.value.__cause__, FloatingPointError)


def fd_reference(f, p):
    """The oracle one stencil point at a time on Python floats: the per-point
    reference the batched :func:`fd_oracle` must equal."""
    p = [float(x) for x in p]
    dim = len(p)
    h = [max(1e-5, 1e-5 * abs(x)) for x in p]

    def at(*shifts):
        q = list(p)
        for i, s in shifts:
            q[i] = q[i] + s
        return f(q)

    f0 = at()
    grad, hess = np.zeros(dim), np.zeros((dim, dim))
    for i in range(dim):
        fp, fm = at((i, h[i])), at((i, -h[i]))
        grad[i] = (fp - fm) / (2 * h[i])
        hess[i, i] = (fp - 2 * f0 + fm) / (h[i] * h[i])
    for i in range(dim):
        for j in range(i + 1, dim):
            fpp, fpm = at((i, h[i]), (j, h[j])), at((i, h[i]), (j, -h[j]))
            fmp, fmm = at((i, -h[i]), (j, h[j])), at((i, -h[i]), (j, -h[j]))
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4 * h[i] * h[j])
    return f0, grad, hess


@pytest.mark.parametrize("spec", models.scalar_fields(1.0), ids=lambda s: s.name)
def test_batched_oracle_is_the_per_point_reference(spec):
    # the reference's Python floats reach numpy's elementary functions and
    # np.power through the helpers, as the oracle's batch does: equal bit for bit
    for seed in (5, 6):
        pts = np.asarray(models.sample_points(models.SampleSpec(
            np.asarray(spec.box, dtype=float), 8, seed, tuple(spec.exclusions))))
        got = fd_oracle(spec.fn, pts, exclusions=spec.exclusions)
        want = [fd_reference(spec.fn, p) for p in pts]
        parts = [got.value, got.gradient, got.hessian]
        refs = [np.array([w[k] for w in want]) for k in range(3)]
        refs[1:] = [np.moveaxis(r, 0, -1) for r in refs[1:]]  # point axis last
        one = fd_oracle(spec.fn, pts[3], exclusions=spec.exclusions)
        assert np.asarray(one.value).tobytes() == got.value[3].tobytes()
        assert one.hessian.tobytes() == got.hessian[..., 3].tobytes()
        for part, ref in zip(parts, refs):
            assert part.shape == ref.shape and part.tobytes() == ref.tobytes()


SOLVE_A = np.array([[4.0, 1.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 3.0]])
SOLVE_DA = np.array([[0.5, 0.0, 1.0], [0.0, -1.0, 0.0], [2.0, 0.0, 0.0]])
SOLVE_B = np.array([1.0, -2.0, 0.5])


@pytest.mark.parametrize("kind", ["float", "jet", "mp40"])
def test_solve_matches_numpy(kind):
    want = np.linalg.solve(SOLVE_A, SOLVE_B)
    if kind == "float":
        assert np.allclose(solve(SOLVE_A, SOLVE_B), want, rtol=0, atol=1e-14)
        X = solve(SOLVE_A, np.eye(3))
        assert np.allclose(X, np.linalg.inv(SOLVE_A), rtol=0, atol=1e-14)
        with pytest.raises(np.linalg.LinAlgError):
            solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0])
    elif kind == "jet":
        # A(t) = A + t dA: x(0) = A^-1 b and x'(0) = -A^-1 dA x(0)
        t = Jet.variable(0.0, 0, 1)
        A = [[a + da * t for a, da in zip(ra, rda)] for ra, rda in zip(SOLVE_A, SOLVE_DA)]
        x = solve(A, list(SOLVE_B))
        assert np.allclose([xi.value for xi in x], want, rtol=0, atol=1e-14)
        dx = -np.linalg.solve(SOLVE_A, SOLVE_DA @ want)
        assert np.allclose([xi.gradient[0] for xi in x], dx, rtol=0, atol=1e-14)
    else:
        import mpmath

        with mpmath.workdps(40):
            A = [[mpmath.mpf(a) for a in row] for row in SOLVE_A]
            b = [mpmath.mpf(v) for v in SOLVE_B]
            x = solve(A, b)
            assert np.allclose([float(v) for v in x], want, rtol=0, atol=1e-14)
            residual = max(abs(sum(A[i][j] * x[j] for j in range(3)) - b[i])
                           for i in range(3))
            assert residual < mpmath.mpf(10) ** -38
