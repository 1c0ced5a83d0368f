"""The batch axis: a batch of points gives what its points give one at a time.

Field values, jets and everything built from them without a linear solve
are compared bit for bit (``tobytes`` equality); results that go through a
solve (connections, covariant derivatives, raised indices) agree to a few
ulp, while the factored solves themselves (the mass-matrix solve on jet
entries, the solve of a realified Hermitian metric) give their points bit
for bit.
Every fault in a batch names the first point that has it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import integrate

from hkgeo import checks, geometry, kahler, mechanics, models, reduction
from hkgeo.ddouble import DD, DIGITS
from hkgeo.fields import Chart, MetricField
from hkgeo.geometry import DivergenceError, MetricDomainError, _solve_entries
from hkgeo.jets import EvaluationError, Jet, call_field, evaluate_jet
from hkgeo.mechanics import (
    DegenerateLagrangianError,
    PhasePoint,
    constrain_and_reduce,
    hamiltonian_field,
    legendre_to_hamiltonian,
    momentum_field,
    poisson_bracket,
    _check_mass,
)
from hkgeo.reduction import (
    DegenerateFiberError,
    NotExactError,
    ObstructionError,
    quotient_metric,
)
from hkgeo.sampling import SampleSpec, sample_points

from oracles import christoffel_fd, riemann, single_mode_field

MODELS = ["toy-parent", "r8-parent"]


def same_bits(batch, singles):
    dtype = complex if np.iscomplexobj(batch) or np.iscomplexobj(singles) else float
    a = np.asarray(batch, dtype=dtype)
    b = np.asarray(singles, dtype=dtype)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def level(name, count=24):
    m = models.build(name, 1.0)
    pts = m.level.sample(count, 5)
    return m, m.level.metric, pts


@pytest.mark.parametrize("name", MODELS)
def test_brackets_and_jets_batch_equal_single(name):
    m, L, pts = level(name)
    H = hamiltonian_field(L)
    moms = np.random.default_rng(4).normal(size=pts.shape)
    batch = PhasePoint(pts, moms)
    singles = [PhasePoint(tuple(p), tuple(mom)) for p, mom in zip(pts, moms)]
    for i in range(L.dim):
        for f in (momentum_field(i, L.dim), lambda c, i=i: c[i] * c[i]):
            same_bits(poisson_bracket(f, H, batch),
                      [poisson_bracket(f, H, s) for s in singles])
    for order in (1, 2):
        jb = evaluate_jet(H, batch.coords, order=order)
        js = [evaluate_jet(H, s.coords, order=order) for s in singles]
        same_bits(jb.value, [j.value for j in js])
        same_bits(jb.gradient, np.stack([j.gradient for j in js], axis=-1))
        if order == 2:
            same_bits(jb.hessian, np.stack([j.hessian for j in js], axis=-1))


@pytest.mark.parametrize("name", MODELS)
def test_bracket_of_a_sequence_is_the_brackets_stacked(name):
    # one jet of H for every f: bit for bit the brackets one f at a time, on
    # a batch and at one point
    m, L, pts = level(name)
    H = hamiltonian_field(L)
    moms = np.random.default_rng(6).normal(size=pts.shape)
    fs = [momentum_field(c, L.dim) for c in m.level.cyclic]
    n = L.dim
    fs += [lambda c: c[0] * c[n + 1], lambda c: sum(c[i] * c[n + i] for i in range(n))]
    for s in (PhasePoint(pts, moms), PhasePoint(tuple(pts[0]), tuple(moms[0]))):
        got = poisson_bracket(fs, H, s)
        assert got.shape == (len(fs), *np.shape(s.q)[:-1])
        same_bits(got, [poisson_bracket(f, H, s) for f in fs])
        same_bits(poisson_bracket(tuple(fs[:1]), H, s), [poisson_bracket(fs[0], H, s)])


@pytest.mark.parametrize("name", MODELS)
def test_matrices_batch_equal_single(name):
    m, L, pts = level(name)
    same_bits(legendre_to_hamiltonian(L, pts),
              [legendre_to_hamiltonian(L, list(p)) for p in pts])
    same_bits(quotient_metric(m.level.metric, m.fiber_index, pts),
              [quotient_metric(m.level.metric, m.fiber_index, p) for p in pts])
    L2 = constrain_and_reduce(L, m.fiber_index, probe_points=pts[:2])
    keep = reduction._kept(L.dim, m.fiber_index)
    same_bits(L2.value(pts[:, keep]), [L2.value(list(p[keep])) for p in pts])


def test_solve_pivots_per_point():
    # the name is historical: no solve pivots.  Point 0's first column
    # (0.5, 1) once pivoted on row 1 and point 1's on row 0; the mass solve
    # factors every point's values in the given order, so the batch gives
    # its points bit for bit, float and jet entries alike, zero signs included
    x = np.array([0.5, 2.0])
    dx = np.array([[1.0, 1.0], [0.0, 0.0]])  # gradient (d, B)
    b = [1.0, -2.0]
    got = _solve_entries(_check_mass, [[x, 1.0], [1.0, 3.0]], b)
    got_jet = _solve_entries(_check_mass, [[Jet(x, dx), 1.0], [1.0, 3.0]], b)
    for k in range(2):
        want = _solve_entries(_check_mass, [[x[k], 1.0], [1.0, 3.0]], b)
        want_jet = _solve_entries(_check_mass, [[Jet(x[k], dx[:, k]), 1.0], [1.0, 3.0]], b)
        same_bits([g[k] for g in got], want)
        same_bits([g.value[k] for g in got_jet], [w.value for w in want_jet])
        same_bits([g.gradient[:, k] for g in got_jet], [w.gradient for w in want_jet])


def test_solve_reads_a_vector_of_batch_arrays():
    # the momenta of a batch are a vector of (B,) arrays, not a matrix
    L = MetricField(Chart(("u", "v")), lambda c: [[2.0 + c[0] * c[0], 0.5], [None, 1.0]])
    H = hamiltonian_field(L)
    pts = np.array([[0.3, 1.0, 1.2, -0.4], [1.5, -2.0, 0.7, 0.2], [-0.8, 0.1, -1.0, 0.9]])
    same_bits(call_field(H, pts), [call_field(H, list(p)) for p in pts])


def _at_point(e, k):
    """Entry ``e`` of a batch at point ``k``: a float stays, an array and a jet are sliced."""
    if isinstance(e, Jet):
        return Jet(e.value[k], e.gradient[..., k], None if e.hessian is None else e.hessian[..., k])
    return e[k] if isinstance(e, np.ndarray) else e


def _point_parts(e, k):
    """Value, gradient and Hessian of a solve output at point ``k`` (an output
    without a batch axis is the same at every point)."""
    parts = [e.value, e.gradient, e.hessian] if isinstance(e, Jet) else [e]
    return [x[..., k] if np.ndim(parts[0]) else x for x in parts if x is not None]


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from([1, 2]), st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1))
def test_solve_batch_equals_points(n, count, order, columns, seed):
    # a random SPD (diagonally dominant) mass matrix of structural float
    # zeros, floats, arrays and jets of one order, with exact zeros at single
    # points, against a vector (columns 0) or a matrix right-hand side: each
    # point of the batch gets the bits it gets alone, zero signs included
    rng = np.random.default_rng(seed)
    m = max(columns, 1)
    vals = rng.uniform(-1.0, 1.0, size=(n, n + m, count))  # A, then the right-hand side
    vals[rng.random(size=vals.shape) < 0.2] = 0.0  # exact zeros at single points
    grads = rng.uniform(-1.0, 1.0, size=(n, n + m, 2, count))
    hess = rng.uniform(-1.0, 1.0, size=(n, n + m, 2, 2, count))
    hess = hess + np.swapaxes(hess, 2, 3)

    def jet(i, j):
        return Jet(vals[i, j], grads[i, j], hess[i, j] if order == 2 else None)

    A = [[None] * n for _ in range(n)]
    for i in range(n):
        vals[i, i] = n - 0.5 + rng.uniform(0.0, 1.0, size=count)  # > sum of |off-diagonal|
        for j in range(i, n):
            kind = rng.integers(1 if i == j else 0, 4)
            A[i][j] = A[j][i] = (0.0, float(vals[i, j, 0]), vals[i, j], jet(i, j))[kind]
    b = [[jet(k, n + c) if (k + c) % 2 else float(k - c) for c in range(m)] for k in range(n)]
    if columns == 0:
        b = [row[0] for row in b]

    def flat(out):
        return out if columns == 0 else [e for row in out for e in row]

    got = flat(_solve_entries(_check_mass, A, b))
    for k in range(count):
        at_k = [_at_point(e, k) if columns == 0 else [_at_point(x, k) for x in e] for e in b]
        A_k = [[_at_point(e, k) for e in row] for row in A]
        want = flat(_solve_entries(_check_mass, A_k, at_k))
        for g, w in zip(got, want):
            for part, single in zip(_point_parts(g, k), _point_parts(w, k)):
                same_bits(part, single)


@settings(max_examples=20)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_hermitian_solve_batch_equals_points(n, count, columns, seed):
    # a Hermitian metric is solved realified: each point of a batch gets its
    # own bits, against its own right-hand sides and against a broadcast identity
    rng = np.random.default_rng(seed)
    R = rng.uniform(-1.0, 1.0, size=(count, n, n)) + 1j * rng.uniform(-1.0, 1.0, size=(count, n, n))
    g = kahler.realify(R @ np.conj(np.swapaxes(R, -1, -2)) / n + np.eye(n))
    B, eye = rng.uniform(-1.0, 1.0, size=(count, 2 * n, columns)), np.eye(2 * n)
    same_bits(geometry._solve(g, B), [geometry._solve(g[k], B[k]) for k in range(count)])
    same_bits(geometry._solve(g, eye), [geometry._solve(g[k], eye) for k in range(count)])


def test_singular_mass_in_batch_names_the_point():
    L = MetricField(Chart(("u", "v")), lambda c: [[1.0, 1.0], [None, c[0]]])
    q = np.array([[2.0, 0.0], [3.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateLagrangianError, match="point 2"):
        legendre_to_hamiltonian(L, q)
    with pytest.raises(DegenerateLagrangianError, match="point 2"):
        poisson_bracket(momentum_field(0, 2), hamiltonian_field(L),
                        PhasePoint(q, np.ones_like(q)))


def test_nan_fiber_in_batch_names_the_point():
    m, _, pts = level("toy-parent", 5)
    pts[3, 0] = np.nan  # g(V, V) = r^2 + a^2 turns NaN at point 3
    with pytest.raises(DegenerateFiberError, match="point 3"):
        quotient_metric(m.level.metric, m.fiber_index, pts)


@pytest.mark.parametrize("order", [1, 2])
def test_division_by_zero_in_batch_names_the_point(order):
    pts = np.array([[1.0, 2.0], [0.5, 1.0], [0.0, 1.0], [0.0, 3.0]])
    with pytest.raises(EvaluationError) as exc:
        evaluate_jet(lambda c: c[1] / c[0], pts, order=order)
    assert exc.value.point == 2
    tn = models.build("taub-nut", 1.0)
    x = np.array([[1.0, 0.5, 0.2, 0.0], [0.0, 0.0, 0.0, 0.3], [0.4, 0.0, 1.0, 0.0]])
    with pytest.raises(EvaluationError) as exc:
        tn.metric.value(x)
    assert exc.value.point == 1


def test_nonfinite_derivative_in_batch_names_point_and_coordinate():
    # x0 (x0 x1) is 1e100 at (1e200, 1e-300), but its x1-derivative x0^2
    # overflows: point 1, coordinate 1
    pts = np.array([[1.0, 1.0], [1e200, 1e-300], [1e200, 1e-300]])
    with np.errstate(over="ignore"), pytest.raises(EvaluationError) as exc:
        evaluate_jet(lambda c: c[0] * (c[0] * c[1]), pts, order=1)
    assert (exc.value.point, exc.value.index) == (1, 1)
    assert "point 1" in str(exc.value)


def test_double_double_jet2_product_matches_outer_products():
    # the outer products of the Hessian update, written without np.outer,
    # give the entries of scalar products term for term, in both parts of a
    # double-double jet
    a = Jet.variable(DD(2.0, 0.0) / 3.0, 0, 2) * 1.7
    b = Jet.variable(DD(5.0, 0.0) / 7.0, 1, 2) + a
    got = a * b

    def outer(u, v):
        out = DD.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                out[i, j] = u[i] * v[j]
        return out

    want = (b.hessian * a.value + a.hessian * b.value
            + outer(a.gradient, b.gradient) + outer(b.gradient, a.gradient))
    value = a.value * b.value
    gradient = b.gradient * a.value + a.gradient * b.value
    assert isinstance(got.hessian, DD) and np.any(got.hessian.lo != 0.0)
    for part in ("hi", "lo"):
        assert getattr(got.value, part) == getattr(value, part)
        assert np.array_equal(getattr(got.gradient, part), getattr(gradient, part))
        assert np.array_equal(getattr(got.hessian, part), getattr(want, part))


# -- fields, geometry and reduction over every registry model ---------------


def batch_of(box, exclusions=(), count=24, seed=9):
    spec = SampleSpec(np.asarray(box, dtype=float), count, seed, tuple(exclusions))
    return np.array(sample_points(spec))


def model_batch(name):
    m = models.build(name, 1.0)
    return m, batch_of(m.box, m.exclusions)


def stacked(fn, pts):
    return np.stack([fn(p) for p in pts])


def few_ulp(batch, singles, ulps=4):
    """Agreement to ``ulps`` units in the last place of the largest entry."""
    a, b = np.asarray(batch), np.asarray(singles)
    assert a.shape == b.shape
    scale = max(1.0, float(np.max(np.abs(b))))
    assert float(np.max(np.abs(a - b))) <= ulps * np.finfo(float).eps * scale


def embeddings_with_points():
    """Every registry embedding with a batch from its source chart's box."""
    toy, gh, r8 = (models.build(n, 1.0) for n in ("toy-parent", "gh-flat", "r8-parent"))
    return [
        (toy, toy.embeddings["level"], batch_of(toy.level.box)),
        (gh, gh.embeddings["to_monopole"], batch_of(gh.cartesian.box, gh.cartesian.exclusions)),
        (gh, gh.embeddings["to_cartesian"], batch_of(gh.box, gh.exclusions)),
        (r8, r8.embeddings["level"], batch_of(r8.level.box, r8.level.exclusions)),
    ]


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_field_jets_batch_equal_single(name):
    m, pts = model_batch(name)
    for order in (1, 2):
        got = m.metric.jet(pts, order=order)
        for k, part in enumerate(got):
            if part is not None:
                same_bits(part, stacked(lambda p: m.metric.jet(p, order=order)[k], pts))
    same_bits(m.metric.value(pts), stacked(m.metric.value, pts))
    fields = list(m.forms.values()) + [
        reduction.contraction_field(f, V) for f in m.forms.values()
        for V in m.killing.values()]
    assert any(f.degree == 1 for f in fields) == bool(m.forms)
    for f in fields:
        V, D1, none = f.jet(pts, order=1)
        assert none is None
        same_bits(V, stacked(lambda p: f.jet(p, order=1)[0], pts))
        same_bits(D1, stacked(lambda p: f.jet(p, order=1)[1], pts))
        same_bits(f.value(pts), stacked(f.value, pts))
    for X in m.killing.values():
        for k in (0, 1):
            same_bits(X.jet(pts)[k], stacked(lambda p: X.jet(p)[k], pts))


def _same_reading(field, pts):
    """``field``'s value and jets of both orders at the nested list of the
    points ``pts`` are the ones at the array, bit for bit."""
    rows = pts.tolist()
    same_bits(field.value(rows), field.value(pts))
    for order in (1, 2):
        for got, want in zip(field.jet(rows, order), field.jet(pts, order)):
            assert (got is None) == (want is None)
            if want is not None:
                same_bits(got, want)


def test_a_nested_list_of_points_is_a_batch():
    # a batch given as nested lists (B, d) is read as the batch its array is:
    # every carrier, connection, Killing deviation and curvature, float64 and
    # double-double, gives the same bits
    for name in models.MODEL_NAMES:
        m, pts = model_batch(name)
        rows = pts.tolist()
        w = next(iter(m.forms.values()))
        for V in m.killing.values():
            for field in (m.metric, *m.forms.values(), V, reduction.contraction_field(w, V)):
                _same_reading(field, pts)
            same_bits(geometry.killing_deviation(m.metric, V, rows),
                      geometry.killing_deviation(m.metric, V, pts))
        same_bits(geometry.christoffel(m.metric, rows), geometry.christoffel(m.metric, pts))
        if m.chart.dim == 2:
            for dps in (None, DIGITS):
                same_bits(geometry.gaussian_curvature(m.metric, rows, dps),
                          geometry.gaussian_curvature(m.metric, pts, dps))
    for _, phi, pts in embeddings_with_points():
        _same_reading(phi, pts)


@pytest.mark.parametrize("case", range(4))
def test_jacobians_and_pullbacks_batch_equal_single(case):
    # gh-flat's maps call atan2, sin and cos: numpy's at a point as on a batch
    m, phi, pts = embeddings_with_points()[case]
    for k in (0, 1):
        same_bits(phi.jet(pts, order=1)[k], stacked(lambda p: phi.jet(p, order=1)[k], pts))
    same_bits(phi.value(pts), stacked(phi.value, pts))
    target = m.metric if phi.target == m.chart else m.cartesian.metric
    forms = m.forms if phi.target == m.chart else m.cartesian.forms
    same_bits(reduction.pullback_metric(target, phi, pts),
              stacked(lambda p: reduction.pullback_metric(target, phi, p), pts))
    for f in forms.values():
        W = reduction.pullback_form(f, phi, pts)
        same_bits(W, stacked(lambda p: reduction.pullback_form(f, phi, p), pts))
        if phi.name.endswith("level set"):
            same_bits(reduction.quotient_form(W, m.fiber_index, pts),
                      [reduction.quotient_form(w, m.fiber_index, p)
                       for w, p in zip(W, pts)])


@pytest.mark.parametrize("spec", models.scalar_fields(1.0), ids=lambda s: s.name)
def test_scalar_fields_batch_equal_single(spec):
    # a point runs the numpy code its batch runs: gh-angle's atan2 and the
    # cube of toy-curvature-target too, in values and in jets of either order
    pts = batch_of(spec.box, spec.exclusions, count=64)
    same_bits(np.broadcast_to(call_field(spec.fn, pts), len(pts)),
              [call_field(spec.fn, p) for p in pts])
    for order in (1, 2):
        jet = evaluate_jet(spec.fn, pts, order=order)
        singles = [evaluate_jet(spec.fn, p, order=order) for p in pts]
        same_bits(jet.value, [j.value for j in singles])
        same_bits(jet.gradient, np.stack([j.gradient for j in singles], axis=-1))
        if order == 2:
            same_bits(jet.hessian, np.stack([j.hessian for j in singles], axis=-1))


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_geometry_batch_equal_single(name):
    m, pts = model_batch(name)
    g = m.metric
    few_ulp(geometry.christoffel(g, pts),
            stacked(lambda p: geometry.christoffel(g, p), pts))
    few_ulp(christoffel_fd(g, pts), stacked(lambda p: christoffel_fd(g, p), pts))
    for V in m.killing.values():
        same_bits(geometry.killing_deviation(g, V, pts),
                  stacked(lambda p: geometry.killing_deviation(g, V, p), pts))
    gv = g.value(pts)
    for f in m.forms.values():
        dW = geometry.covariant_derivative_02(g, f, pts)
        few_ulp(dW, stacked(lambda p: geometry.covariant_derivative_02(g, f, p), pts))
        few_ulp(reduction.raise_first_index(gv, dW),
                [reduction.raise_first_index(a, b) for a, b in zip(gv, dW)])
        W = f.value(pts)
        few_ulp(reduction.complex_structure(gv, W),
                [reduction.complex_structure(a, b) for a, b in zip(gv, W)])
        same_bits(reduction.exterior_derivative(f, pts),
                  stacked(lambda p: reduction.exterior_derivative(f, p), pts))
        for V in m.killing.values():
            iV = reduction.contraction_field(f, V)
            same_bits(iV.value(pts), stacked(iV.value, pts))


def test_non_spd_metric_names_the_point():
    g = models.MetricField(models.Chart(("x", "y")),
                           lambda c: [[c[0], 0.0], [None, 1.0]], name="sign change")
    pts = np.array([[1.0, 0.0], [2.0, 1.0], [-0.5, 0.0], [-1.0, 0.0]])
    with pytest.raises(MetricDomainError, match="point 2"):
        geometry.christoffel(g, pts)
    with pytest.raises(MetricDomainError, match="point 1"):
        geometry.christoffel(g, np.array([[1.0, 0.0], [np.nan, 0.0]]))


def test_singular_complex_structure_names_the_point():
    gv = np.stack([np.eye(2), 2 * np.eye(2), np.zeros((2, 2)), np.eye(2)])
    W = np.broadcast_to([[0.0, 1.0], [-1.0, 0.0]], gv.shape)
    with pytest.raises(MetricDomainError, match="point 2"):
        reduction.complex_structure(gv, W)


def test_non_pd_metric_raising_an_index_names_the_point():
    gv = np.stack([np.eye(2), 2 * np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
    with pytest.raises(MetricDomainError, match="point 2"):
        reduction.raise_first_index(gv, np.ones((4, 2, 2, 2)))
    h = kahler.HermitianMetricField(1, lambda c: [[c[0]]], name="sign change")
    pts = np.array([[1.0, 0.0], [2.0, 1.0], [-0.5, 0.0], [-1.0, 0.0]])
    X = kahler.x_matrices(h, pts[:2])
    same_complex_bits(X, stacked(lambda p: kahler.x_matrices(h, p), pts[:2]))
    with pytest.raises(MetricDomainError, match="point 2"):
        kahler.x_matrices(h, pts)


def test_non_cancelling_fiber_names_the_point():
    W = np.zeros((5, 3, 3))
    W[3, 1, 0], W[3, 0, 1] = 1e-3, -1e-3  # a fiber component at point 3
    pts = np.zeros((5, 3))
    with pytest.raises(ObstructionError, match="point 3") as exc:
        reduction.quotient_form(W, 1, pts)
    assert exc.value.residual == 1e-3
    W[3] = np.nan  # NaN fails the cancellation too
    with pytest.raises(ObstructionError, match="point 3"):
        reduction.quotient_form(W, 1, pts)


def _only_row(monkeypatch, check_id, **kwargs):
    """The report row of ``check_id`` run as a suite of its own."""
    suite = check_id.split(".")[0]
    row = next(r for r in checks.CLAIMS if r[0] == check_id)
    monkeypatch.setitem(checks.SUITES, suite, [row])
    (report,) = checks.run_suite(suite, **kwargs).checks
    return report


def test_one_nan_point_in_a_batch_fails_its_row(monkeypatch):
    real = reduction.quotient_metric

    def nan_at_point_3(*args):
        out = real(*args).copy()
        out[3, 0, 0] = np.nan
        return out

    monkeypatch.setattr(reduction, "quotient_metric", nan_at_point_3)
    row = _only_row(monkeypatch, "taubnut.quotient_metric", seed=1, samples=6)
    assert np.isnan(row.max_abs_error)
    assert row.passed is False


def test_one_nan_component_of_a_joined_row_fails_it(monkeypatch):
    # the hygiene row puts gradient and Hessian errors of each field side by
    # side; a NaN in one Hessian entry at one point of one field fails it
    real, calls = checks.fd_oracle, []

    def nan_in_one_entry(*args, **kwargs):
        jet = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            jet = Jet(jet.value, jet.gradient, jet.hessian.copy())
            jet.hessian[1, 0, 5] = np.nan
        return jet

    monkeypatch.setattr(checks, "fd_oracle", nan_in_one_entry)
    row = _only_row(monkeypatch, "hygiene.jets_vs_finite_differences", seed=1, samples=4)
    assert len(calls) > 2
    assert np.isnan(row.max_abs_error)
    assert row.passed is False
    assert row.samples == 8 * len(calls)


def test_one_nan_block_of_a_joined_row_fails_it(monkeypatch):
    # taubnut.killing puts its two charts one after another; a NaN in the
    # second chart's deviations fails the row and keeps both charts' samples
    real, calls = geometry.killing_deviation, []

    def nan_in_second_chart(*args):
        out = real(*args)
        calls.append(len(out))
        if len(calls) == 2:
            out = out.copy()
            out[2, 1, 0] = np.nan
        return out

    monkeypatch.setattr(geometry, "killing_deviation", nan_in_second_chart)
    row = _only_row(monkeypatch, "taubnut.killing", seed=1, samples=50)
    assert calls == [10, 10]
    assert np.isnan(row.max_abs_error)
    assert row.passed is False
    assert row.samples == 20


@pytest.mark.parametrize("check_id, module, name, defect", [
    ("heavenly.negative_control", kahler, "heavenly_check",
     lambda real: lambda h, om: np.ones(np.shape(h)[:-2])),
    ("heavenly.covariant_negative_control", geometry, "covariant_derivative_02",
     lambda real: lambda *args: np.zeros_like(real(*args))),
    ("mechanics.singular_mass_rejected", mechanics, "legendre_to_hamiltonian",
     lambda real: lambda *args: None),
])
def test_negative_control_fails_when_its_detection_is_patched_out(
        monkeypatch, check_id, module, name, defect):
    before = _only_row(monkeypatch, check_id, seed=0, samples=50)
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    after = _only_row(monkeypatch, check_id, seed=0, samples=50)
    assert (before.passed, before.max_abs_error) == (True, 0.0)
    assert (after.passed, after.max_abs_error) == (False, 1.0)
    assert after.samples == before.samples == (
        10 if check_id == "heavenly.covariant_negative_control" else 1)


def test_closed_form_targets_batch_equal_single():
    tn, pts = model_batch("taub-nut")
    x = pts[:, :3]
    same_bits(models.taub_nut_metric(x, 1.3),
              stacked(lambda y: models.taub_nut_metric(y, 1.3), x))
    x[4] = [0.0, 0.0, -1.0]  # on the monopole string
    with pytest.raises(models.SingularGaugeError, match="point 4"):
        models.taub_nut_metric(x)


def test_block_draws_are_the_scalar_stream():
    # candidates drawn in blocks are the candidates of one uniform draw per
    # coordinate, and the exclusions see them a block at a time, in the same order
    box = ((0.3, 3.0), (-2.0, 2.0), (0.1, 5.9))
    seen = []

    def ring(p):
        seen.append(np.stack(p, axis=-1))
        return ((1.0 < p[0]) & (p[0] < 2.0)) | (p[1] * p[2] > 4.0)

    got = sample_points(SampleSpec(np.asarray(box), 40, 17,
                                   (models.Exclusion("ring", ring),)))
    rng = np.random.default_rng(17)
    want, candidates = [], []
    while len(want) < 40:
        c = np.array([rng.uniform(lo, hi) for lo, hi in box])
        candidates.append(tuple(c))
        if not (1.0 < c[0] < 2.0 or c[1] * c[2] > 4.0):
            want.append(c)
    assert len(candidates) > 60  # the exclusion rejected a good share
    same_bits(got, want)
    same_bits(np.concatenate(seen), candidates)


def test_rank_deficient_jacobian_names_the_point():
    polar = models.EmbeddingMap(models.Chart(("r", "phi")), models.Chart(("x", "y")),
                                lambda c: [c[0] * models.jets.cos(c[1]),
                                           c[0] * models.jets.sin(c[1])])
    flat = models.MetricField(models.Chart(("x", "y")), lambda c: np.eye(2))
    pts = np.array([[1.0, 0.3], [2.0, 0.1], [0.0, 0.5], [0.0, 1.0]])
    with pytest.warns(reduction.DegeneratePullbackWarning, match="point 2"):
        reduction.pullback_metric(flat, polar, pts)


# -- the curvature chain, float64 and double-double -------------------------


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_riemann_batch_equal_single(name):
    m, pts = model_batch(name)
    few_ulp(riemann(m.metric, pts), stacked(lambda p: riemann(m.metric, p), pts))

    def lowered(p):  # R_{ABCD} = g_{AE} R^E_{BCD}
        return np.einsum("...ae,...ebcd->...abcd", m.metric.value(p), riemann(m.metric, p))

    few_ulp(lowered(pts), stacked(lowered, pts))


def toy_radii():
    """Points ``(r, 1)`` of toy-reduced on both sides of the double-double switch."""
    rs = np.geomspace(1e-6, 9.0, 24)
    return np.stack([rs, np.ones(24)], axis=1)


@pytest.mark.parametrize("a", [0.5, 1.7])
def test_gaussian_curvature_batch_equal_single(a):
    g = models.build("toy-reduced", a).metric
    pts = toy_radii()
    few_ulp(geometry.gaussian_curvature(g, pts),
            [geometry.gaussian_curvature(g, p) for p in pts])
    same_bits(geometry.curvature_at_radii(g, pts[:, 0]),
              [geometry.gaussian_curvature(g, list(p),
                                           dps=DIGITS if p[0] < geometry.DD_RADIUS else None)
               for p in pts])


def test_hermitian_real_metric_values_batch_equal_single():
    # a Hermitian field is the MetricField of its real metric, and its
    # complex matrix is that metric's value de-interleaved, bit for bit
    pts = batch_of(((-1.5, 1.5),) * 4)
    for hf in (*hermitian_fields(), single_mode_field()):
        assert isinstance(hf, MetricField)
        p = pts[:, :hf.dim]
        same_bits(hf.value(p), stacked(hf.value, p))
        for q in (p[0], p):
            g, h = hf.value(q), hf.matrix(q)
            same_bits(h.real, g[..., 0::2, 0::2])
            same_bits(h.imag, g[..., 0::2, 1::2])


def same_complex_bits(batch, singles):
    same_bits(np.real(batch), np.real(singles))
    same_bits(np.imag(batch), np.imag(singles))


def hermitian_fields():
    """The stock fields and a constant coset field."""
    gens = kahler.sp_generators(2)
    h = kahler.coset_exponential(np.random.default_rng(2).normal(size=len(gens)), gens)
    return [kahler.unit_determinant_shear_field(), kahler.non_unimodular_field(),
            kahler.HermitianMetricField(2, lambda c: h.real, lambda c: h.imag, name="coset")]


def test_hermitian_matrices_and_heavenly_batch_equal_single():
    pts = batch_of(((-1.5, 1.5),) * 4)
    om = kahler.symplectic_matrix(2)
    for hf in hermitian_fields():
        same_complex_bits(hf.matrix(pts), stacked(hf.matrix, pts))
        few_ulp(kahler.x_matrices(hf, pts),
                stacked(lambda p: kahler.x_matrices(hf, p), pts))
    single = single_mode_field()
    same_complex_bits(single.matrix(pts[:, :2]), stacked(single.matrix, pts[:, :2]))
    H = kahler.unit_determinant_shear_field().matrix(pts)
    same_bits(kahler.heavenly_check(H, om), [kahler.heavenly_check(h, om) for h in H])


def test_triples_batch_equal_single():
    pts = batch_of(((-1.5, 1.5),) * 4)
    om = kahler.symplectic_matrix(2)
    shear = kahler.unit_determinant_shear_field()
    t = kahler.triple_at(shear.matrix(pts), om)
    singles = [kahler.triple_at(shear.matrix(p), om) for p in pts]
    for name in ("omega_I", "omega_J", "omega_K", "g"):
        same_bits(getattr(t, name), [getattr(u, name) for u in singles])
    for name in ("I", "J", "K"):
        few_ulp(getattr(t, name), [getattr(u, name) for u in singles])
    residual = [np.max(np.abs(kahler.quaternion_defects(u.I, u.J, u.K)), axis=(-3, -2, -1))
                for u in (t, *singles)]
    few_ulp(residual[0], residual[1:])
    assert np.max(residual[0]) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_coset_draw_is_the_per_metric_stream(n):
    # one draw of every coefficient gives the matrices of one draw per
    # metric, and leaves the generator where the next subseed expects it
    ctx = checks.CheckContext(seed=2, samples=100, a=1.0)
    rng_stack, rng_loop = ctx.rng("heavenly.x"), ctx.rng("heavenly.x")
    got = checks._coset_matrices(rng_stack, n, 30)
    gens = kahler.sp_generators(n)
    want = [kahler.coset_exponential(rng_loop.normal(scale=0.6, size=len(gens)), gens)
            for _ in range(30)]
    same_complex_bits(got, want)
    assert ctx.subseed(rng_stack) == ctx.subseed(rng_loop)


def test_bad_matrix_in_a_heavenly_stack_names_its_index():
    gens = kahler.sp_generators(4)
    om = kahler.symplectic_matrix(4)
    h = kahler.coset_exponential(
        np.random.default_rng(3).normal(scale=0.6, size=(5, len(gens))), gens)
    assert np.max(np.abs(kahler.heavenly_check(h, om) - 1.0)) < 1e-12
    for bad in (np.diag([1.0, 1.0, 2.0, 1.0]), np.full((4, 4), np.nan)):
        h[2] = bad
        with pytest.raises(kahler.HeavenlyViolation, match="point 2"):
            kahler.heavenly_check(h, om)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])  # h Om h^T = -Om
    with pytest.raises(kahler.HeavenlyViolation, match="not positive at point 2"):
        kahler.heavenly_check(np.stack([np.eye(2), np.eye(2), flip]),
                              kahler.symplectic_matrix(2))


def quad_moment(alpha, base, p, base_value):
    """The line integral ``base -> p`` as one ``scipy.integrate.quad``
    (the reference the shared-node integration is held to)."""
    base, delta = np.asarray(base), np.asarray(p) - base
    val, _ = integrate.quad(lambda t: float(alpha.value(base + t * delta) @ delta),
                            0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return base_value + val


PLANE = models.Chart(("x", "y"))


def test_moment_recovery_batch_equals_quad_per_point():
    m = models.build("toy-parent", 1.0)
    alpha = reduction.contraction_field(m.forms["omega"], m.killing["shift"])
    base = np.asarray(m.targets["moment_base"])
    pts = batch_of(m.box, m.exclusions)
    got = reduction.recover_moment_map(alpha, base, pts, base_value=0.25)
    assert got.shape == (len(pts),)
    want = [quad_moment(alpha, base, p, 0.25) for p in pts]
    assert np.max(np.abs(got - want)) <= 1e-14
    one = reduction.recover_moment_map(alpha, base, pts[3], base_value=0.25)
    assert isinstance(one, float) and abs(one - want[3]) <= 1e-14
    # a transcendental potential, sin(3x) cos(y): segments of different
    # lengths need different refinement, each against its own error estimate
    wave = models.FormField(PLANE, 1, lambda c: [3.0 * models.jets.cos(3.0 * c[0])
                                                 * models.jets.cos(c[1]),
                                                 -models.jets.sin(3.0 * c[0])
                                                 * models.jets.sin(c[1])])
    ends = np.array([[0.1, 0.2], [4.0, -1.5], [-3.0, 2.0], [0.5, 0.5]])
    got = reduction.recover_moment_map(wave, [0.0, 0.0], ends)
    assert np.max(np.abs(got - np.sin(3 * ends[:, 0]) * np.cos(ends[:, 1]))) < 1e-12
    want = [quad_moment(wave, np.zeros(2), p, 0.0) for p in ends]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_non_closed_or_unconverged_segment_is_named(monkeypatch):
    # d(alpha) = 3 x^2 dx^dy vanishes only on x = 0, so only segment 2 leaves it
    alpha = models.FormField(PLANE, 1, lambda c: [0.0, c[0] * c[0] * c[0]])
    ends = np.array([[0.0, 1.0], [0.0, -2.0], [0.5, 1.0], [0.0, 3.0]])
    with pytest.raises(NotExactError, match="segment 2") as exc:
        reduction.recover_moment_map(alpha, [0.0, 0.0], ends)
    assert exc.value.residual == pytest.approx(3 * 0.125 ** 2)
    got = reduction.recover_moment_map(alpha, [0.0, 0.0], ends[[0, 1, 3]])
    assert np.array_equal(got, np.zeros(3))
    # a zero-length segment has error estimate 0; the next one does not
    wave = models.FormField(PLANE, 1, lambda c: [models.jets.cos(c[0]), 0.0])
    monkeypatch.setattr(reduction, "MOMENT_QUAD_TOL", 1e-30)
    with pytest.raises(DivergenceError, match="segment 1"):
        reduction.recover_moment_map(wave, [0.0, 0.0], [[0.0, 0.0], [2.0, 0.0]])
