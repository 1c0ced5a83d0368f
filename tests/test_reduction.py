"""Contractions, pullbacks, level integrals and fiber quotients on small
hand-checkable configurations."""

import numpy as np
import pytest

from hkgeo import jets, models, reduction
from hkgeo.fields import Chart, EmbeddingMap, FormField, MetricField, VectorFieldR
from hkgeo.geometry import MetricDomainError, killing_deviation
from hkgeo.reduction import (
    DegenerateFiberError,
    DegeneratePullbackWarning,
    NotExactError,
    ObstructionError,
    complex_structure,
    contraction_field,
    exterior_derivative,
    pullback_form,
    pullback_metric,
    quotient_form,
    quotient_metric,
    raise_first_index,
    recover_moment_map,
)

PLANE = Chart(("x", "y"))
POLAR = Chart(("r", "phi"))

# polar -> cartesian, the classic pullback example
TO_CART = EmbeddingMap(POLAR, PLANE,
                       lambda c: [c[0] * jets.cos(c[1]), c[0] * jets.sin(c[1])],
                       name="polar chart")


def test_contract_matches_matrix_vector():
    w = FormField(PLANE, 2, lambda c: [[0.0, c[0]], [None, 0.0]])
    got = contraction_field(w, VectorFieldR(PLANE, lambda c: [2.0, 3.0])).value([1.5, 0.0])
    # (i_V w)_M = w_MN V^N
    assert np.allclose(got, [1.5 * 3.0, -1.5 * 2.0])


def test_contraction_field_is_jet_capable():
    w = FormField(PLANE, 2, lambda c: [[0.0, c[0] ** 2], [None, 0.0]])
    V = VectorFieldR(PLANE, lambda c: [1.0, 1.0])
    alpha = contraction_field(w, V)
    assert alpha.degree == 1
    _, D1, _ = alpha.jet([2.0, 0.0])
    # alpha = (x^2, -x^2); d_x alpha = (2x, -2x)
    assert np.allclose(D1[0], [4.0, -4.0])


def test_exterior_derivative_degree1():
    # alpha = -y dx + x dy, d alpha = 2 dx^dy
    alpha = FormField(PLANE, 1, lambda c: [-c[1], c[0]])
    d = exterior_derivative(alpha, [0.3, 0.8])
    assert np.allclose(d, [[0.0, 2.0], [-2.0, 0.0]])


def test_exterior_derivative_degree2():
    space = Chart(("x", "y", "z"))
    # w = x dy^dz: dw = dx^dy^dz, cyclic component 1 on (x, y, z)
    w = FormField(space, 2, lambda c: [[0.0, 0.0, 0.0],
                                       [None, 0.0, c[0]],
                                       [None, None, 0.0]])
    T = exterior_derivative(w, [0.5, 0.5, 0.5])
    assert T[0, 1, 2] == pytest.approx(1.0)
    assert T[1, 0, 2] == pytest.approx(-1.0)
    # constant forms are closed
    const = FormField(space, 2, lambda c: [[0.0, 1.0, 2.0],
                                           [None, 0.0, 3.0],
                                           [None, None, 0.0]])
    assert np.max(np.abs(exterior_derivative(const, [0.1, 0.2, 0.3]))) == 0.0


def test_moment_recovery_exact_form():
    # alpha = d(x^2 y): line integral recovers the potential
    alpha = FormField(PLANE, 1, lambda c: [2.0 * c[0] * c[1], c[0] ** 2])
    base = [1.0, 1.0]
    for target in ([2.0, 0.5], [-1.0, 2.0], [0.3, -0.7]):
        got = recover_moment_map(alpha, base, target, base_value=1.0)
        want = target[0] ** 2 * target[1]
        assert got == pytest.approx(want, abs=1e-9)


def test_moment_recovery_rejects_non_closed():
    alpha = FormField(PLANE, 1, lambda c: [-c[1], c[0]])  # d alpha = 2 dx^dy
    with pytest.raises(NotExactError):
        recover_moment_map(alpha, [0.0, 0.0], [1.0, 1.0])


def test_pullback_flat_to_polar():
    flat = MetricField(PLANE, lambda c: np.eye(2))
    area = FormField(PLANE, 2, lambda c: [[0.0, 1.0], [None, 0.0]])
    p = [1.7, 0.6]
    g = pullback_metric(flat, TO_CART, p)
    assert np.allclose(g, np.diag([1.0, 1.7 ** 2]), atol=1e-12)
    W = pullback_form(area, TO_CART, p)
    assert np.allclose(W, [[0.0, 1.7], [-1.7, 0.0]], atol=1e-12)


def test_pullback_degree1():
    alpha = FormField(PLANE, 1, lambda c: [0.0, 1.0])  # dy
    got = pullback_form(alpha, TO_CART, [2.0, 0.0])
    # dy = sin(phi) dr + r cos(phi) dphi at phi = 0
    assert np.allclose(got, [0.0, 2.0], atol=1e-12)


def test_rank_deficient_jacobian_warns():
    squash = EmbeddingMap(POLAR, PLANE, lambda c: [c[0] ** 2, 0.0])
    flat = MetricField(PLANE, lambda c: np.eye(2))
    with pytest.warns(DegeneratePullbackWarning):
        pullback_metric(flat, squash, [1.0, 0.0])


def test_non_finite_jacobian_raises_a_typed_error():
    # the rank guard never sees a NaN Jacobian (an SVD of one does not converge)
    spoilt = EmbeddingMap(PLANE, Chart(("x", "y", "z")),
                          lambda c: [c[0], c[1], c[0] * float("nan")], name="spoilt")
    flat = MetricField(spoilt.target, lambda c: np.eye(3))
    w = FormField(spoilt.target, 2, lambda c: [[0.0, 1.0, 0.0], [None, 0.0, c[2]],
                                               [None, None, 0.0]])
    for pullback in (lambda p: pullback_metric(flat, spoilt, p),
                     lambda p: pullback_form(w, spoilt, p),
                     lambda p: pullback_form([w, w], spoilt, p)):
        with pytest.raises(jets.EvaluationError,
                           match=r"non-finite jacobian of spoilt at \[0.5, 0.2\]"):
            pullback([0.5, 0.2])
        with pytest.raises(jets.EvaluationError, match="at point 0 ") as err:
            pullback(np.array([[0.5, 0.2], [1.0, 2.0]]))
        assert err.value.point == 0


def test_a_list_of_forms_shares_one_jacobian(monkeypatch):
    # each pullback of the list is the one of its form alone, bit for bit
    forms = [FormField(PLANE, 1, lambda c: [-c[1], c[0]]),
             FormField(PLANE, 2, lambda c: [[0.0, c[0] * c[1]], [None, 0.0]])]
    pts = np.array([[0.5, 0.3], [1.5, -2.0], [2.0, 1.0]])
    alone = [pullback_form(w, TO_CART, p) for w in forms for p in (pts, pts[1])]
    calls = []
    jet = EmbeddingMap.jet
    monkeypatch.setattr(EmbeddingMap, "jet",
                        lambda phi, p, order=2: calls.append(1) or jet(phi, p, order))
    together = [pullback_form(forms, TO_CART, p) for p in (pts, pts[1])]
    assert len(calls) == 2
    for got, want in zip([t[i] for i in range(2) for t in together], alone):
        assert got.tobytes() == want.tobytes()


#: The fiber direction ``y`` of the quotient-metric tests, as a constant field.
FIBER = VectorFieldR(PLANE, lambda c: [0.0, 1.0])


def test_quotient_metric_schur_block():
    g = MetricField(PLANE, lambda c: [[2.0, 1.0], [None, 1.0]])
    got = quotient_metric(g, FIBER, (0,), [0.0, 0.0])
    # g_xx - g_xy^2 / g_yy
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(1.0)


def test_quotient_metric_rejects_null_fiber():
    g = MetricField(PLANE, lambda c: [[1.0, 0.0], [None, 0.0]])
    with pytest.raises(DegenerateFiberError):
        quotient_metric(g, FIBER, (0,), [0.0, 0.0])


def test_quotient_metric_rejects_nan_fiber():
    g = MetricField(PLANE, lambda c: [[1.0, 0.0], [None, np.nan]])
    with pytest.raises(DegenerateFiberError):
        quotient_metric(g, FIBER, (0,), [0.0, 0.0])


def test_quotient_form_cancellation_enforced():
    W = np.array([[0.0, 2.0, 0.0],
                  [-2.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])
    got = quotient_form(W, 2, (0, 1), [0.0, 0.0, 0.0])
    assert np.allclose(got, [[0.0, 2.0], [-2.0, 0.0]])

    W_bad = W.copy()
    W_bad[2, 0] = 1e-3
    W_bad[0, 2] = -1e-3
    with pytest.raises(ObstructionError) as exc:
        quotient_form(W_bad, 2, (0, 1), [0.0, 0.0, 0.0])
    assert exc.value.residual == pytest.approx(1e-3)


def test_complex_structure_square():
    g = np.diag([2.0, 0.5])
    W = np.array([[0.0, 1.0], [-1.0, 0.0]])
    I = complex_structure(g, W)
    assert np.allclose(I @ I, -np.eye(2))
    assert np.allclose(g @ I, -W)  # X = -g^{-1} W
    with pytest.raises(MetricDomainError):
        complex_structure(np.zeros((2, 2)), W)


def test_raise_first_index_layout():
    g = np.diag([2.0, 4.0])
    T = np.zeros((2, 2, 2))
    T[0, 0, 1] = 8.0
    out = raise_first_index(g, T)
    # slice P = 0: g^{MQ} T[0, Q, N]
    assert out[0, 0, 1] == pytest.approx(4.0)
    assert np.max(np.abs(out[1])) == 0.0


def test_reduction_spec_validates_toy():
    # a reduction's data is its Model: the declared shift is Killing for the
    # parent metric and its contraction with the form is closed
    m = models.build("toy-parent", 1.0)
    V = m.killing["shift"]
    pts = m.sample(8, seed=5)
    assert np.max(np.abs(killing_deviation(m.metric, V, pts))) < 1e-12
    alpha = contraction_field(m.forms["omega"], V)
    assert np.max(np.abs(exterior_derivative(alpha, pts))) < 1e-12
