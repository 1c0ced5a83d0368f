"""The in-repo Gauss-Kronrod rule and the two integrals built on it.

The table of nodes and weights is regenerated here by Laurie's algorithm
and checked by polynomial exactness and against numpy's Gauss-Legendre
rule; the adaptive driver by its call pattern (one
integrand call per refinement round, each node once) and by batch-equals-
single; the Euler characteristic and the moment map against
``scipy.integrate.quad``, the independent oracle.
"""

import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from hkgeo import geometry, models, reduction
from hkgeo.quadrature import _NODES, _WEIGHTS, integrate


def jacobi_kronrod(n, alpha, beta):
    """Recurrence coefficients ``(a_0..a_2n, b_0..b_2n)`` of the Jacobi-Kronrod
    matrix of order ``2n + 1``, from those of the measure (``alpha``,
    ``beta`` of length ``2n + 1``, ``beta[0]`` its total mass), of which only
    the first ``3n/2 + 1`` are read.

    Laurie's algorithm (*Math. Comp.* 66 (1997) 1133-1145): a recurrence for
    the mixed moments (two rows of them, ``s`` and ``t``) of the orthogonal
    polynomials of the leading and of the trailing ``n x n`` block fixes the
    unknown trailing coefficients so that both blocks have the same
    eigenvalues, the Gauss nodes.
    """
    a, b = np.array(alpha, dtype=float), np.array(beta, dtype=float)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += (a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k] - b[l] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u += -(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2]
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


def recurrence(x, a, b):
    """``q_N(x)`` and ``q_N'(x)`` of the monic orthogonal polynomials of the
    recurrence ``(a, b)`` of length ``N``, and the Christoffel sum
    ``sum_{k<N} q_k(x)^2 / (b_0 ... b_k)`` (of the orthonormal ones)."""
    q0, q1, d0, d1, total = 0.0, 1.0, 0.0, 0.0, 0.0
    for k, norm in enumerate(np.cumprod(b[:len(a)])):
        total = total + q1 * q1 / norm
        q0, q1, d0, d1 = q1, (x - a[k]) * q1 - b[k] * q0, d1, q1 + (x - a[k]) * d1 - b[k] * d0
    return q1, d1, total


def gauss(a, b):
    """Nodes and weights of the Gauss rule of the Jacobi matrix with diagonal
    ``a`` and squared off-diagonal ``b[1:]`` (``b[0]`` the total mass): its
    eigenvalues, polished by Newton steps on ``q_N``, and the reciprocal
    Christoffel sums."""
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(np.sqrt(b[1:len(a)]), -1))
    for _ in range(2):
        q, dq, _ = recurrence(x, a, b)
        x = x - q / dq
    return x, 1.0 / recurrence(x, a, b)[2]


def laurie_gauss_kronrod():
    """The G10/K21 table computed from the Legendre recurrence: K21 from the
    Jacobi-Kronrod matrix, G10 from the Legendre one, both made exactly
    symmetric about 0, laid out as ``_NODES`` and ``_WEIGHTS``."""
    n = 10
    k = np.arange(2 * n + 1, dtype=float)
    beta = np.divide(k * k, 4 * k * k - 1, out=np.full_like(k, 2.0), where=k > 0)
    x, wk = gauss(*jacobi_kronrod(n, np.zeros_like(k), beta))
    _, wg = gauss(np.zeros(n), beta)
    x, wk, wg = (x - x[::-1]) / 2, (wk + wk[::-1]) / 2, (wg + wg[::-1]) / 2
    weights = np.zeros((2, 2 * n + 1))
    weights[0], weights[1, 1::2] = wk, wg
    return x, weights


def test_table_is_laurie_rule_to_the_bit():
    x, w = laurie_gauss_kronrod()
    assert np.array_equal(x, _NODES) and np.array_equal(w, _WEIGHTS)
    assert np.array_equal(np.signbit(x), np.signbit(_NODES))  # the centre node +0.0
    assert not (_NODES.flags.writeable or _WEIGHTS.flags.writeable)


def monomial_errors(weights, nodes, degrees):
    exact = [(1 + (-1) ** d) / (d + 1) for d in degrees]
    return np.abs([weights @ nodes ** d for d in degrees] - np.asarray(exact))


def test_kronrod_exact_to_degree_31_and_gauss_to_19():
    x, w = _NODES, _WEIGHTS
    assert x.shape == (21,) and np.all(np.diff(x) > 0) and np.all(w[0] > 0)
    assert np.max(monomial_errors(w[0], x, range(32))) < 1e-14
    assert np.max(monomial_errors(w[1], x, range(20))) < 1e-14
    # and not beyond: the degrees are those of the rules, not of luck
    assert monomial_errors(w[0], x, [32])[0] > 1e-13
    assert monomial_errors(w[1], x, [20])[0] > 1e-8


def test_gauss_nodes_are_the_odd_kronrod_nodes():
    x, w = _NODES, _WEIGHTS
    assert np.all(w[1, 0::2] == 0.0)
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(x[1::2] - gx)) < 1e-15
    assert np.max(np.abs(w[1, 1::2] - gw)) < 1e-15
    assert np.array_equal(x, -x[::-1])  # symmetric, the centre node exactly 0


FUNCTIONS = [np.sqrt, np.exp, lambda x: np.sin(50.0 * x), lambda x: x * x,
             np.zeros_like, lambda x: np.sin(1.0 / x)]


def test_batched_outputs_equal_per_output_integration():
    opts = dict(epsabs=1e-10, epsrel=1e-10, limit=60)
    batch = integrate(lambda x: np.stack([f(x) for f in FUNCTIONS], axis=-1), 0.0, 1.0,
                      **opts)
    assert batch.value.shape == batch.error.shape == batch.converged.shape == (6,)
    nevals = []
    for k, f in enumerate(FUNCTIONS):
        one = integrate(f, 0.0, 1.0, **opts)
        assert isinstance(one.value, float) and isinstance(one.converged, bool)
        assert (one.value, one.error, one.converged) == (
            batch.value[k], batch.error[k], batch.converged[k])
        nevals.append(one.neval)
    assert max(nevals) <= batch.neval < sum(nevals)  # nodes are shared
    assert batch.value[:4] == pytest.approx([2 / 3, math.e - 1, (1 - math.cos(50)) / 50,
                                             1 / 3], abs=1e-10)
    # outputs of any shape: a (2, 3) integrand gives (2, 3) results
    grid = integrate(lambda x: np.multiply.outer(x, np.arange(6.0).reshape(2, 3)), 0.0, 2.0)
    assert grid.value.shape == (2, 3)
    assert np.max(np.abs(grid.value - 2.0 * np.arange(6.0).reshape(2, 3))) < 1e-14


def test_unconverged_integrand_reports_an_error_above_tolerance():
    out = integrate(lambda x: np.sin(1.0 / x), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12,
                    limit=20)
    assert not out.converged and out.error > 1e-12
    assert out.neval == 21 * (2 * 20 - 1)  # twenty intervals, every one evaluated once
    nan = integrate(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)
    assert not nan.converged and math.isnan(nan.error)
    inf = integrate(lambda x: np.where(x == 0.5, np.inf, x), 0.0, 1.0)  # the centre node
    assert not inf.converged and inf.value == inf.error == math.inf
    with pytest.raises(ValueError, match="shape"):
        integrate(lambda x: x[:3], 0.0, 1.0)


def test_one_integrand_call_per_round_and_each_node_once():
    seen = []

    def f(x):
        seen.append(np.array(x))
        return np.sin(50.0 * x)

    out = integrate(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=100)
    assert out.converged and len(seen) > 2
    sizes = [len(x) for x in seen]
    assert sizes[0] == 21 and all(s % 42 == 0 for s in sizes[1:])  # halves of bisected intervals
    assert max(sizes) > 42  # a round bisects as many intervals as the tolerance asks for
    nodes = np.concatenate(seen)
    assert out.neval == nodes.size == np.unique(nodes).size


def test_moment_map_evaluates_each_node_once(monkeypatch):
    m = models.build("toy-parent", 1.0)
    alpha = reduction.contraction_field(m.forms["omega"], m.killing["shift"])
    base, mu = np.asarray(m.targets["moment_base"]), m.targets["moment_map"]
    pts = np.asarray(m.sample(100, 5))
    calls = []
    orig = type(alpha).value

    def counted(self, p, *args, **kwargs):
        calls.append(np.shape(p))
        return orig(self, p, *args, **kwargs)

    monkeypatch.setattr(type(alpha), "value", counted)
    got = reduction.recover_moment_map(alpha, base, pts, base_value=mu(base))
    assert calls == [(21 * 100, 4)]  # one round, 21 nodes of every segment
    assert np.max(np.abs(got - mu(pts.T))) < 1e-12


def test_unconverged_segment_fails_below_quad_tol(monkeypatch):
    # sin(k x) has 1,600 periods on the second segment: 200 intervals cannot
    # reach 1e-12, although the error estimate is far below this tolerance
    k = 1e4
    wave = models.FormField(models.Chart(("x", "y")), 1,
                            lambda c: [k * models.jets.cos(k * c[0]), 0.0])
    monkeypatch.setattr(reduction, "MOMENT_QUAD_TOL", 1e6)
    with pytest.raises(geometry.DivergenceError, match="segment 1 .*not converged"):
        reduction.recover_moment_map(wave, [0.0, 0.0], [[1e-3, 0.0], [1.0, 0.0]])


def quad_euler(g, a):
    """The parent's Euler integral: ``scipy.integrate.quad``, one point at a time."""

    def integrand(u):
        r = max(a * u / (1.0 - u), 1e-6)
        K = geometry.gaussian_curvature(g, [r, 0.0])
        return K * math.sqrt(np.linalg.det(g.value([r, 0.0]))) * a / (1.0 - u) ** 2

    return scipy_integrate.quad(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10,
                                limit=200)[0]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_euler_characteristic_one_jet_call_per_round(monkeypatch, a):
    counts = {"jet": 0, "rounds": 0}
    rule = geometry.integrate
    red = models.build("toy-reduced", a)
    jet = red.metric.jet

    def counted_jet(*args, **kwargs):
        counts["jet"] += 1
        return jet(*args, **kwargs)

    def counted_rule(f, *args, **kwargs):
        def round_(x):
            counts["rounds"] += 1
            return f(x)
        return rule(round_, *args, **kwargs)

    monkeypatch.setattr(red.metric, "jet", counted_jet)
    monkeypatch.setattr(geometry, "integrate", counted_rule)
    val, err = geometry.euler_characteristic(red.metric, r_scale=a)
    assert counts["jet"] == counts["rounds"] >= 1
    assert abs(val - quad_euler(red.metric, a)) < 1e-10
    assert abs(val - 2.0) < 1e-10 and err < 1e-10
