"""Connection, curvature and the radial curvature integral on hand-checkable
metrics (polar plane, round sphere, surfaces of revolution)."""

import math

import mpmath
import numpy as np
import pytest

from hkgeo import geometry, jets, models
from hkgeo.fields import Chart, FormField, MetricField, VectorFieldR, mirror_triangle
from hkgeo.geometry import (
    MetricDomainError,
    christoffel,
    christoffel_fd,
    covariant_derivative_02,
    curvature_dps,
    euler_characteristic,
    gaussian_curvature,
    killing_deviation,
    ricci_scalar,
    riemann,
)

POLAR = MetricField(Chart(("r", "phi")),
                    lambda c: [[1.0, 0.0], [None, c[0] * c[0]]],
                    name="flat polar")

SPHERE = MetricField(Chart(("theta", "phi")),
                     lambda c: [[1.0, 0.0], [None, jets.sin(c[0]) ** 2]],
                     name="unit sphere")


def test_polar_christoffel():
    G = christoffel(POLAR, [2.0, 0.3])
    want = np.zeros((2, 2, 2))
    want[0, 1, 1] = -2.0          # Gamma^r_phiphi = -r
    want[1, 0, 1] = want[1, 1, 0] = 0.5   # Gamma^phi_rphi = 1/r
    assert np.allclose(G, want, atol=1e-12)


def test_christoffel_fd_agreement():
    p = [1.7, 0.9]
    assert np.max(np.abs(christoffel(SPHERE, p) - christoffel_fd(SPHERE, p))) < 1e-7


def test_polar_plane_is_flat():
    R = riemann(POLAR, [1.3, 2.0])
    assert np.max(np.abs(R)) < 1e-12
    assert abs(ricci_scalar(POLAR, [1.3, 2.0])) < 1e-12


def test_non_positive_metric_rejected():
    bad = MetricField(Chart(("u", "v")),
                      lambda c: [[1.0, 2.0], [None, 1.0]])
    with pytest.raises(MetricDomainError):
        christoffel(bad, [0.0, 0.0])


def test_refused_stack_is_factored_in_halves(monkeypatch):
    # two indefinite metrics among 64 (one complex Hermitian stack): NaN at
    # exactly those, every other diagonal as its own factorisation gives it,
    # in a few stacked calls instead of one per matrix
    rng = np.random.default_rng(4)
    A = rng.normal(size=(64, 3, 3)) + 1j * rng.normal(size=(64, 3, 3))
    g = A @ np.conj(np.swapaxes(A, -1, -2)) + np.eye(3)
    want = np.array([np.diagonal(np.linalg.cholesky(m)) for m in g])
    g[[9, 40]] = np.diag([1.0, -1.0, 1.0])
    want[[9, 40]] = np.nan
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(len(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    got = geometry._cholesky_diagonal(g.reshape(8, 8, 3, 3))
    assert got.shape == (8, 8, 3)
    assert np.array_equal(got.reshape(64, 3), want, equal_nan=True)
    assert len(calls) <= 2 * 2 * 6 + 1
    with pytest.raises(MetricDomainError, match="at point 9$"):
        geometry._check_positive_definite(g)


def test_sphere_curvature_scalar():
    # R_{0101} = sin^2(theta), det g = sin^2(theta): curvature scalar 2
    p = [1.1, 0.4]
    R = np.einsum("ae,ebcd->abcd", SPHERE.value(p), riemann(SPHERE, p))  # R_{ABCD}
    assert R[0, 1, 0, 1] == pytest.approx(math.sin(1.1) ** 2, abs=1e-9)
    assert gaussian_curvature(SPHERE, p) == pytest.approx(2.0, abs=1e-8)
    assert ricci_scalar(SPHERE, p) == pytest.approx(2.0, abs=1e-8)


def test_two_routes_agree_on_warped_metric():
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    for r in (0.4, 1.0, 2.7):
        p = [r, 0.2]
        assert gaussian_curvature(g, p) == pytest.approx(
            float(ricci_scalar(g, p)), abs=1e-8)


def test_killing_rotation_flat_plane():
    cart = MetricField(Chart(("x", "y")), lambda c: np.eye(2))
    rot = VectorFieldR(cart.chart, lambda c: [-c[1], c[0]])
    dev = killing_deviation(cart, rot, [0.7, -1.2])
    assert np.max(np.abs(dev)) < 1e-12


def test_killing_negative_control():
    # radial scaling is not an isometry: L_V g = 2g for V = (x, y)
    cart = MetricField(Chart(("x", "y")), lambda c: np.eye(2))
    scale = VectorFieldR(cart.chart, lambda c: [c[0], c[1]])
    dev = killing_deviation(cart, scale, [0.7, -1.2])
    assert np.allclose(dev, 2.0 * np.eye(2), atol=1e-12)


def test_small_radius_needs_extended_precision():
    # cigar-type metric degenerates at r = 0; mpmath path stays accurate
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    K = gaussian_curvature(g, [1e-6, 0.0], dps=40)
    assert K == pytest.approx(8.0, abs=1e-9)


def test_curvature_precision_switch():
    assert curvature_dps(0.05 - 1e-12) == 31
    assert curvature_dps(0.05) is None
    assert curvature_dps(9.5) is None


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_float_and_mp40_curvature_agree(a):
    # where float64 is used (r >= 0.05) the 40-digit path gives the same
    # curvature of the reduced toy surface
    red = models.build("toy-reduced", a)
    for r in np.geomspace(0.05, 10.0, 15):
        p = [float(r), 1.0]
        K64 = gaussian_curvature(red.metric, p)
        K40 = gaussian_curvature(red.metric, p, dps=40)
        assert K64 == pytest.approx(K40, rel=1e-10, abs=0), r


@pytest.mark.parametrize("sign", [+1, -1])
def test_mirror_triangle(sign):
    upper = [[1.0, 2.0, 3.0], [None, 4.0, 5.0], [None, None, 6.0]]
    want = (np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]) if sign > 0
            else np.array([[0.0, 2.0, 3.0], [-2.0, 0.0, 5.0], [-3.0, -5.0, 0.0]]))
    assert np.array_equal(mirror_triangle(upper, sign).astype(float), want)
    # leading axes are carried along; only the last two are mirrored
    stacked = np.stack([np.triu(want), 2.0 * np.triu(want)])
    assert np.array_equal(mirror_triangle(stacked, sign), np.stack([want, 2.0 * want]))
    # jet entries come through as jets
    t = jets.Jet2.variable(2.0, 0, 1)
    full = mirror_triangle([[1.0, t], [None, 1.0]], sign)
    assert full[1, 0].value == sign * 2.0 and full[1, 0].gradient[0] == sign


def test_volume_form_covariantly_constant():
    # any oriented 2D metric: nabla of the area form vanishes identically
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    area = FormField(g.chart, 2, lambda c: [[0.0, c[0]], [None, 0.0]])
    for r in (0.5, 1.5):
        dw = covariant_derivative_02(g, area, [r, 1.0])
        assert np.max(np.abs(dw)) < 1e-12


def test_euler_characteristic_cigar():
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    val, err = euler_characteristic(g)
    assert val == pytest.approx(2.0, abs=1e-9)
    assert err < 1e-8


def test_euler_characteristic_weight_is_linear():
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    val, _ = euler_characteristic(g, weight=lambda r: 0.5)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_euler_characteristic_one_metric_value_per_point(monkeypatch):
    # every integrand point takes one metric value and one metric jet
    red = models.build("toy-reduced", 1.0)
    calls = {"value": 0, "jet": 0}
    for name in calls:
        orig = getattr(MetricField, name)

        def counted(self, *args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(MetricField, name, counted)
    val, _ = euler_characteristic(red.metric)
    assert val == pytest.approx(2.0, abs=1e-6)
    assert calls["jet"] > 0
    assert calls["value"] == calls["jet"]


def test_euler_characteristic_divergence_guard():
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    # an oscillatory weight the quadrature cannot resolve to 1e-12
    import warnings

    with pytest.raises(geometry.DivergenceError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        euler_characteristic(g, quad_tol=1e-30,
                             weight=lambda r: math.sin(200.0 * r))


# -- the Riemann tensor against the full-tensor formula it replaced ----------


def _riemann_reference(g, p):
    """``R^A_{BCD}`` from the full derivative of the connection, one point.

    ``d_Q Gamma^S_{MN} = d_Q g^{SP} T_{P,MN} + g^{SP} d_Q T_{P,MN}`` with
    ``d_Q g^{-1} = -g^{-1} (d_Q g) g^{-1}``, every index pair of ``R`` formed.
    Returns ``(R, scale)``: ``scale`` is the largest entry of the terms that
    cancel in ``R`` (both parts of ``dGamma`` and ``Gamma Gamma``), the
    size its roundoff is measured against.
    """
    gv, dg, d2g = g.jet(p)
    G = geometry._christoffel_from(gv, dg)
    ginv = geometry._solve(gv, np.eye(gv.shape[0], dtype=gv.dtype))
    dginv = -np.matmul(ginv, np.matmul(dg, ginv))
    dG_metric = np.einsum("qsp,pmn->qsmn", dginv, geometry._lowered_christoffel(dg))
    dG_second = np.einsum("sp,qpmn->qsmn", ginv, geometry._lowered_christoffel(d2g))
    dG = dG_metric + dG_second
    GG = np.einsum("acs,sdb->abcd", G, G)
    R = (np.einsum("cadb->abcd", dG) - np.einsum("dacb->abcd", dG)
         + GG - np.einsum("ads,scb->abcd", G, G))
    scale = max(np.max(np.abs(x)) for x in (dG_metric, dG_second, GG))
    return R, scale


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_riemann_matches_reference(name):
    # the two formulas sum in different orders.  On the flat charts (gh-flat
    # and both parents) R itself is pure roundoff, so the difference is held
    # to the size of the terms that cancel (up to 9 ulp of them on these
    # points, 22 on 216 others); where R is O(1) it is also held to R
    # (up to 1.5 ulp of max(1, |R|) on these points, 16 on 216 others)
    m = models.build(name, 1.0)
    eps = np.finfo(float).eps
    for p in m.sample(24, 3):
        want, scale = _riemann_reference(m.metric, p)
        err = np.max(np.abs(riemann(m.metric, p) - want))
        assert err <= 32 * eps * scale, p
        if name in ("taub-nut", "toy-reduced"):
            assert err <= 8 * eps * max(1.0, np.max(np.abs(want))), p


@pytest.mark.parametrize("r", [1e-6, 1e-4, 1e-2, 0.04])
def test_riemann_matches_reference_mp40(r):
    # 1e-35 relative to R, except where the polar chart's 1/r^2 cancellation
    # costs more: 40-digit roundoff times 1/r^2 (up to 0.09 of it measured)
    red = models.build("toy-reduced", 1.0)
    with mpmath.workdps(40):
        p = [mpmath.mpf(r), mpmath.mpf(1)]
        want, _ = _riemann_reference(red.metric, p)
        err = max(abs(x) for x in (riemann(red.metric, p) - want).ravel())
        rel = max(mpmath.mpf("1e-35"), mpmath.mpf("1e-40") / p[0] ** 2)
        assert err <= rel * max(abs(x) for x in want.ravel())


@pytest.mark.parametrize("name", ["gh-flat", "taub-nut", "toy-parent", "r8-parent"])
def test_riemann_symmetries(name):
    # antisymmetric in C, D (exactly: one triangle is computed, the other
    # mirrored) and the first Bianchi identity R^A_{BCD} + R^A_{CDB} + R^A_{DBC} = 0
    m = models.build(name, 1.0)
    R = riemann(m.metric, np.asarray(m.sample(24, 5)))
    assert np.array_equal(R, -np.swapaxes(R, -1, -2))
    bianchi = R + np.einsum("...acdb->...abcd", R) + np.einsum("...adbc->...abcd", R)
    assert np.max(np.abs(bianchi)) <= 16 * np.finfo(float).eps * max(1.0, np.max(np.abs(R)))
