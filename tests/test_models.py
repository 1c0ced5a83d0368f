"""Model registry invariants: every declared isometry really is one, every
declared form is closed, coordinate changes invert, gauges fail loudly."""

import functools

import numpy as np
import pytest

from hkgeo import geometry, models, reduction
from hkgeo.fields import Chart, MetricField
from hkgeo.jets import EvaluationError, Jet, call_field, evaluate_jet, fd_oracle
from hkgeo.models import (
    MODEL_NAMES,
    MONOPOLE_CURL_SIGN,
    SingularGaugeError,
    build,
    monopole_potential,
    scalar_fields,
    taub_nut_metric,
)


def test_registry_names():
    assert MODEL_NAMES == tuple(sorted(MODEL_NAMES))
    assert set(MODEL_NAMES) == {"gh-flat", "r8-parent", "taub-nut",
                                "toy-parent", "toy-reduced"}


def test_build_unknown_model():
    with pytest.raises(KeyError):
        build("no-such-model")


def test_scale_parameter_validated():
    # every builder refuses what run_suite refuses, gh-flat (which has no
    # circle) included
    for name in MODEL_NAMES:
        for bad in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError, match="finite and positive"):
                build(name, bad)


def test_sample_determinism():
    m = build("toy-parent")
    a = m.sample(6, seed=11)
    b = m.sample(6, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_declared_killing_vectors(name):
    m = build(name, 1.0)
    pts = m.sample(5, seed=2)
    for V in m.killing.values():
        for p in pts:
            dev = geometry.killing_deviation(m.metric, V, p)
            assert np.max(np.abs(dev)) < 1e-10, (name, V.name)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_declared_forms_closed(name):
    m = build(name, 1.0)
    pts = m.sample(5, seed=3)
    for f in m.forms.values():
        for p in pts:
            res = reduction.exterior_derivative(f, p)
            assert np.max(np.abs(res)) < 1e-8, (name, f.name)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_first_order_metric_jet(name):
    # order=1 returns the same value and first derivatives as order=2, bit
    # for bit, and no second derivatives
    m = build(name, 1.0)
    for p in m.sample(4, seed=6):
        V1, D1, none = m.metric.jet(p, order=1)
        V2, D2_1, D2 = m.metric.jet(p)
        assert none is None and D2 is not None
        assert np.array_equal(V1, V2) and np.array_equal(D1, D2_1)


def test_field_division_by_zero_is_evaluation_error():
    # the Taub-NUT metric divides by r: at the origin that is an
    # EvaluationError from every entry point, not a bare FloatingPointError
    g = build("taub-nut", 1.0).metric
    origin = [0.0, 0.0, 0.0, 0.0]
    for evaluate in (g.value, lambda p: g.jet(p, order=1), g.jet):
        with pytest.raises(EvaluationError) as exc:
            evaluate(origin)
        assert isinstance(exc.value.__cause__, FloatingPointError)
    # numpy floats divide by zero without raising unless told to: a field
    # fed a numpy point raises too, not returns inf
    h = MetricField(Chart(("x",)), lambda c: [[1.0 / c[0]]])
    with pytest.raises(EvaluationError) as exc:
        h.value(np.zeros(1))
    assert isinstance(exc.value.__cause__, FloatingPointError)
    # a field may still divide Python constants, which raise ZeroDivisionError
    zero = 0.0
    k = MetricField(Chart(("x",)), lambda c: [[c[0] + 1.0 / zero]])
    with pytest.raises(EvaluationError) as exc:
        k.value([1.0])
    assert isinstance(exc.value.__cause__, ZeroDivisionError)


def test_monopole_curl_sign():
    rng = np.random.default_rng(8)
    for _ in range(12):
        x = rng.uniform(-2.0, 2.0, size=3)
        r = np.linalg.norm(x)
        if r < 0.5 or r + x[2] < 0.5:
            continue
        # the oracle hands the field coordinate columns; the potential takes points
        jA1 = fd_oracle(lambda c: monopole_potential(np.stack(c, axis=-1))[:, 0], x)
        jA2 = fd_oracle(lambda c: monopole_potential(np.stack(c, axis=-1))[:, 1], x)
        curl = np.array([-jA2.gradient[2], jA1.gradient[2],
                         jA2.gradient[0] - jA1.gradient[1]])
        assert np.allclose(curl, MONOPOLE_CURL_SIGN * x / r ** 3, atol=1e-6)


def test_monopole_gauge_guard():
    with pytest.raises(SingularGaugeError):
        monopole_potential([0.0, 0.0, -1.0])   # on the string
    with pytest.raises(SingularGaugeError):
        monopole_potential([0.0, 0.0, 0.0])
    with pytest.raises(SingularGaugeError):
        taub_nut_metric([0.0, 0.0, -2.0], 1.0)


def test_monopole_gauge_rejects_coordinate_columns():
    # three (S,) columns, as a field receives them, are not S points: read as
    # a (3, S) batch they would give a (3, 3) potential of first entries
    cols = list(np.random.default_rng(5).uniform(0.5, 2.0, size=(3, 7)))
    for evaluate in (monopole_potential, lambda x: taub_nut_metric(x, 1.0)):
        with pytest.raises(SingularGaugeError, match=r"not shape \(3, 7\)"):
            evaluate(cols)
    with pytest.raises(SingularGaugeError, match=r"not shape \(2,\)"):
        monopole_potential([1.0, 2.0])
    assert monopole_potential(np.stack(cols, axis=-1)).shape == (7, 3)


def test_monopole_potential_batch_equals_points():
    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(6, 3))
    got = monopole_potential(x)
    assert got.tobytes() == np.array([monopole_potential(list(y)) for y in x]).tobytes()
    x[4] = [0.0, 0.0, -1.5]  # on the string
    with pytest.raises(SingularGaugeError, match="point 4"):
        monopole_potential(x)


def test_variable_change_example():
    gh = build("gh-flat")
    vc = gh.embeddings["to_monopole"]
    # y = (0, 1, 0, 0): x = (0, 0, 1), Psi = 0
    assert np.allclose(vc.value([0.0, 1.0, 0.0, 0.0]), [0.0, 0.0, 1.0, 0.0],
                       atol=1e-14)
    # y = (0, 1, 1, 0) / sqrt(2)-free: x1 = 2 y2 y3 = 2, x2 = 0, x3 = 0
    assert np.allclose(vc.value([0.0, 1.0, 1.0, 0.0]), [2.0, 0.0, 0.0, 0.0],
                       atol=1e-14)


def test_variable_change_round_trip():
    gh = build("gh-flat")
    fwd = gh.embeddings["to_monopole"]
    back = gh.embeddings["to_cartesian"]
    rng = np.random.default_rng(4)
    for _ in range(10):
        y = rng.uniform(-1.5, 1.5, size=4)
        if y[0] ** 2 + y[1] ** 2 < 0.2:
            continue
        assert np.allclose(back.value(fwd.value(y)), y, atol=1e-12)


def test_radius_identity():
    gh = build("gh-flat")
    vc = gh.embeddings["to_monopole"]
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = rng.uniform(-1.5, 1.5, size=4)
        if y[0] ** 2 + y[1] ** 2 < 0.2:
            continue
        x = vc.value(y)
        assert np.linalg.norm(x[:3]) == pytest.approx(gh.targets["radius"](y),
                                                      abs=1e-12)


def test_taub_nut_value_on_axis():
    # x = (0, 0, 1), a = 1: s = 2, A = 0
    g = taub_nut_metric([0.0, 0.0, 1.0], 1.0)
    assert np.allclose(g, np.diag([0.5, 0.5, 0.5, 0.125]), atol=1e-14)


def test_taub_nut_flat_limit():
    # a -> infinity: the quotient metric degenerates to the flat 4-metric
    # in monopole coordinates (1/r shift only)
    x = [0.8, -0.4, 0.9]
    big = taub_nut_metric(x, 1e6)
    flat = build("gh-flat").metric.value([*x, 1.0])
    assert np.max(np.abs(big - flat)) < 1e-10


def test_toy_reduced_curvature_target():
    red = build("toy-reduced", 2.0)
    K = red.targets["curvature"]
    assert K(0.0) == pytest.approx(8.0 * 16.0 / 64.0)   # 8 a^4 / a^6 = 8 / a^2
    got = geometry.gaussian_curvature(red.metric, [1.3, 0.4])
    assert got == pytest.approx(K(1.3), abs=1e-8)


def test_scalar_field_registry():
    specs = scalar_fields(1.0)
    names = [s.name for s in specs]
    assert len(names) == len(set(names))
    assert len(specs) >= 12
    for spec in specs:
        pts = models.sample_points(
            models.SampleSpec(np.asarray(spec.box, dtype=float), 2, 1,
                              tuple(spec.exclusions)))
        for p in pts:
            from hkgeo.jets import evaluate_jet

            j = evaluate_jet(spec.fn, p)
            assert np.isfinite(j.value)


def test_r8_level_embedding_kills_moments():
    m = build("r8-parent", 0.5)
    lev = m.embeddings["level"]
    pts = m.level.sample(6, 9)
    for p in pts:
        P = lev.value(p)
        for key in ("mu_I", "mu_J", "mu_K"):
            assert abs(m.targets[key](P)) < 1e-13


def _x_factor(a):
    """Metric and triple of the flat ``(X, theta)`` factor ``R^3 x S^1``:
    ``dX.dX + a^2 dtheta^2`` and ``dX^j dX^k + a dX^i dtheta``, (i, j, k) cyclic."""
    triple = {"omega_I": ((0, 1, 1.0), (2, 3, a)),
              "omega_J": ((1, 2, 1.0), (0, 3, a)),
              "omega_K": ((2, 0, 1.0), (1, 3, a))}
    blocks = {"metric": np.diag([1.0, 1.0, 1.0, a * a])}
    for k, entries in triple.items():
        W = np.zeros((4, 4))
        for m, n, v in entries:
            W[m, n], W[n, m] = v, -v
        blocks[k] = W
    return blocks


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_r8_parent_is_gh_flat_times_the_x_factor(a):
    # r8-parent = gh-flat x (R^3 x S^1): in both pictures its metric and
    # triple are gh-flat's, bit for bit, on the first four coordinates
    # (values and derivatives), the mixed blocks are zero and the (X, theta)
    # block is the constant factor
    r8, gh = build("r8-parent", a), build("gh-flat", a)
    blocks = _x_factor(a)
    for big, small in ((r8, gh), (r8.cartesian, gh.cartesian)):
        pts = big.sample(6, seed=4)
        assert set(big.forms) == set(small.forms) == {"omega_I", "omega_J", "omega_K"}
        fields = {"metric": (big.metric, small.metric),
                  **{k: (w, small.forms[k]) for k, w in big.forms.items()}}
        for key, (f8, f4) in fields.items():
            V8, D8 = f8.jet(pts)[:2]
            V4, D4 = f4.jet(pts[:, :4])[:2]
            assert V8[:, :4, :4].tobytes() == V4.tobytes(), (big.name, key)
            assert D8[:, :4, :4, :4].tobytes() == D4.tobytes(), (big.name, key)
            assert not D8[:, 4:].any() and not D8[:, :, 4:].any() and not D8[:, :, :, 4:].any()
            assert not V8[:, :4, 4:].any() and not V8[:, 4:, :4].any()
            assert np.array_equal(V8[:, 4:, 4:], np.broadcast_to(blocks[key], (6, 4, 4)))


def _locus_points(dim):
    """Points exactly on the declared exclusions of a ``dim``-chart: the origin,
    ``r = 0`` of a polar chart, the monopole string ``x1 = x2 = 0, x3 < 0`` and
    the gauge pole ``y1 = y2 = 0``.  Every chart of the package puts the
    coordinates of its exclusions first."""
    rest = [0.7, 1.3, 0.4, 2.1, 0.9, -1.2, 0.6, 1.7][:dim]
    points = [[0.0] * dim, [0.0, *rest[1:]]]
    if dim >= 3:
        points += [[0.0, 0.0, -0.8, *rest[3:]], [0.0, 0.0, *rest[2:]]]
    return np.array(points)


def _finite(out):
    if isinstance(out, Jet):
        out = (out.value, out.gradient, out.hessian)
    if isinstance(out, tuple):
        return all(_finite(x) for x in out)
    return out is None or bool(np.isfinite(out).all())


def _finite_or_typed(evaluate, p):
    """Whether ``evaluate(p)`` gives finite output or raises an hkgeo error."""
    try:
        out = evaluate(p)
    except Exception as exc:  # its type is what is tested
        return type(exc).__module__.startswith("hkgeo.")
    return _finite(out)


def test_exclusions_give_finite_values_or_typed_errors():
    # on an exclusion a field either has a finite value there (a coordinate
    # singularity the field does not see) or says why not with an hkgeo
    # error: never a bare ZeroDivisionError, FloatingPointError, LinAlgError
    # or OverflowError, and never a NaN or an infinity
    cases = [(f"scalar {spec.name}", evaluate, len(spec.box))
             for spec in scalar_fields(1.0)
             for evaluate in (functools.partial(call_field, spec.fn),
                              functools.partial(evaluate_jet, spec.fn, order=1),
                              functools.partial(evaluate_jet, spec.fn))]
    for name in MODEL_NAMES:
        m = build(name, 1.0)
        for model in filter(None, (m, m.level, m.cartesian)):
            for key, field in (("metric", model.metric), *model.forms.items()):
                cases += [(f"{model.name} {key}", evaluate, model.chart.dim)
                          for evaluate in (field.value, field.jet)]
    leaks = [(what, p.tolist()) for what, evaluate, dim in cases
             for p in (*_locus_points(dim), _locus_points(dim))
             if not _finite_or_typed(evaluate, p)]
    assert leaks == []


def test_radial_distance_is_only_the_radius():
    # the radius is smooth on the monopole string, which only the potential's
    # quotients divide by: on the string at x3 = -1 it is finite to second
    # order, while A1 and A2 still raise there
    fns = {spec.name: spec.fn for spec in scalar_fields(1.0)}
    on_string = np.array([0.0, 0.0, -1.0])
    jet = evaluate_jet(fns["radial-distance"], on_string)
    assert jet.value == 1.0 and _finite(jet)
    assert np.array_equal(jet.gradient, on_string)
    for name in ("monopole-A1", "monopole-A2"):
        with pytest.raises(EvaluationError):
            evaluate_jet(fns[name], on_string)


@pytest.mark.parametrize("name", ["monopole-A1", "monopole-A2"])
def test_monopole_term_is_only_its_quotient(name, monkeypatch):
    # each monopole spec divides once, by r (r + x3): it does not evaluate
    # the other term of the potential and throw it away
    fn = {spec.name: spec.fn for spec in scalar_fields(1.0)}[name]
    divisions = []
    divide = Jet.__truediv__
    monkeypatch.setattr(Jet, "__truediv__",
                        lambda self, other: divisions.append(1) or divide(self, other))
    jet = evaluate_jet(fn, np.array([[0.3, -0.7, 0.5], [1.1, 0.4, -0.2]]))
    assert len(divisions) == 1
    x1, x2, x3 = 0.3, -0.7, 0.5
    r = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    assert jet.value[0] == (x2 if name == "monopole-A1" else -x1) / (r * (r + x3))
