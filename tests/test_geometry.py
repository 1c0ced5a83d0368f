"""Connection, curvature and the radial curvature integral on hand-checkable
metrics (polar plane, round sphere, surfaces of revolution)."""

import math

import numpy as np
import pytest

from hkgeo import geometry, jets, models
from hkgeo.ddouble import DD, DIGITS
from hkgeo.fields import Chart, FormField, MetricField, VectorFieldR
from hkgeo.geometry import (
    MetricDomainError,
    christoffel,
    covariant_derivative_02,
    euler_characteristic,
    gaussian_curvature,
    killing_deviation,
)

from oracles import (brioschi_curvature, christoffel_fd, mirror_triangle, ricci_scalar, riemann,
                     square_jet)

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
    # two indefinite metrics among 64 (one real symmetric stack): NaN at
    # exactly those, every other factor as its own factorisation gives it,
    # in a few stacked calls instead of one per matrix
    rng = np.random.default_rng(4)
    A = rng.normal(size=(64, 3, 3))
    g = A @ np.swapaxes(A, -1, -2) + np.eye(3)
    want = np.array([np.linalg.cholesky(m) for m in g])
    g[[9, 40]] = np.diag([1.0, -1.0, 1.0])
    want[[9, 40]] = np.nan
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(len(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    got = geometry._cholesky(g.reshape(8, 8, 3, 3))
    assert got.shape == (8, 8, 3, 3)
    assert np.array_equal(got.reshape(64, 3, 3), want, equal_nan=True)
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
    # cigar-type metric degenerates at r = 0; the double-double path stays accurate
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    K = gaussian_curvature(g, [1e-6, 0.0], dps=DIGITS)
    assert K == pytest.approx(8.0, abs=1e-9)


def test_curvature_precision_switch(monkeypatch):
    # double-double strictly below DD_RADIUS (0.05), float64 from there on
    calls = []

    def counted(g, p, dps=None):
        calls.append((p[:, 0].tolist(), dps))
        return gaussian_curvature(g, p, dps=dps)

    monkeypatch.setattr(geometry, "gaussian_curvature", counted)
    geometry.curvature_at_radii(models.build("toy-reduced", 1.0).metric,
                                [9.5, 0.05 - 1e-12, 0.05])
    assert geometry.DD_RADIUS == 0.05
    assert calls == [([0.05 - 1e-12], DIGITS), ([9.5, 0.05], None)]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_float_and_mp40_curvature_agree(a):
    # where float64 is used (r >= 0.05) the 60-digit oracle gives the same
    # curvature of the reduced toy surface
    red = models.build("toy-reduced", a)
    for r in np.geomspace(0.05, 10.0, 15):
        p = [float(r), 1.0]
        K64 = gaussian_curvature(red.metric, p)
        K60 = brioschi_curvature(red.metric, p)
        assert K64 == pytest.approx(K60, rel=1e-10, abs=0), r


#: A rational metric with ``F != 0`` whose twelve Brioschi entries are all
#: non-zero for ``u, v > 0``: none is read as the exact zero.
SKEWED = MetricField(Chart(("u", "v")),
                     lambda c: [[1.0 + c[0] * c[0] + c[0] * c[1] * c[1],
                                 c[0] * c[1] / (2.0 + c[0] * c[0] + c[1] * c[1])],
                                [None, 1.0 + c[1] * c[1] + c[0] * c[0] * c[1]]])


def _spy_entries(monkeypatch):
    """The entries Brioschi's formula reads, listed as ``geometry._at`` reads them."""
    read, at = [], geometry._at
    monkeypatch.setattr(geometry, "_at", lambda a, *index: read.append(at(a, *index)) or read[-1])
    return read


def _read_densely(monkeypatch):
    """``geometry._at`` without the exact-zero reading: every entry as an array."""
    monkeypatch.setattr(geometry, "_at", lambda a, *index: a[(..., *index)][()])


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_exact_zero_entries_change_no_bit(monkeypatch, a):
    # toy-reduced has F = 0 and E, G functions of r alone: its double-double
    # curvature reads 7 of the 12 entries as the exact zero, its float64 none
    g = models.build("toy-reduced", a).metric
    rs = [1e-6, 1e-4, 1e-2, 0.049, *np.linspace(0.05, 10.0, 12)]
    read = _spy_entries(monkeypatch)
    K = geometry.curvature_at_radii(g, rs)
    assert [type(x) is int for x in read].count(True) == 7 and len(read) == 24
    _read_densely(monkeypatch)
    assert geometry.curvature_at_radii(g, rs).tobytes() == K.tobytes()


def test_a_metric_without_zero_entries_reads_every_entry(monkeypatch):
    pts = np.array([[0.01, 0.02], [0.03, 0.5], [1.0, 2.0], [0.2, 0.04]])
    read = _spy_entries(monkeypatch)
    K = [gaussian_curvature(SKEWED, pts, dps=dps) for dps in (DIGITS, None)]
    assert len(read) == 24 and not any(type(x) is int for x in read)
    _read_densely(monkeypatch)
    for got, dps in zip(K, (DIGITS, None)):
        assert gaussian_curvature(SKEWED, pts, dps=dps).tobytes() == got.tobytes()
    assert K[0] == pytest.approx(K[1], rel=1e-12)


def test_curvature_digits_are_float64_or_double_double():
    g = models.build("toy-reduced", 1.0).metric
    pts = np.array([[0.01, 1.0], [0.3, 1.0]])
    for dps in (15, 40):
        with pytest.raises(ValueError, match="dps must be None"):
            gaussian_curvature(g, pts[0], dps=dps)
        with pytest.raises(ValueError, match="dps must be None"):
            gaussian_curvature(g, pts, dps=dps)
    want = [8.0 / (r * r + 1.0) ** 3 for r in pts[:, 0]]
    for dps in (None, DIGITS):
        K, K0 = gaussian_curvature(g, pts, dps=dps), gaussian_curvature(g, pts[0], dps=dps)
        assert isinstance(K0, float) and K.shape == (2,)
        assert [K0, *K] == pytest.approx([want[0], *want], rel=1e-12)


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
    t = jets.Jet.variable(2.0, 0, 1)
    full = mirror_triangle([[1.0, t], [None, 1.0]], sign)
    assert full[1, 0].value == sign * 2.0 and full[1, 0].gradient[0] == sign


CHART3 = Chart(("x", "y", "z"))

#: A metric whose entries below the diagonal, and a 2-form whose entries on
#: and below it, are junk that a fill reading them would pass on or choke on.
JUNK_TRIANGLE_FIELDS = (
    MetricField(CHART3, lambda c: [[1.0 + c[0] * c[0], c[0] * c[1], 2.0],
                                   ["junk", 3.0 + c[1] * c[2] / (1.0 + c[0] * c[0]), c[2]],
                                   [c[0] * 9.0, None, 4.0 + c[2] / (2.0 + c[1] * c[1])]]),
    FormField(CHART3, 2, lambda c: [[c[0] * 5.0, c[0] * c[1], 1.5],
                                    [None, "junk", c[1] / (1.0 + c[2] * c[2])],
                                    [c[2], 7.0, c[0]]]),
)


@pytest.mark.parametrize("order", [None, 1, 2])
@pytest.mark.parametrize("points", ["float point", "float batch", "double-double batch"])
@pytest.mark.parametrize("field", JUNK_TRIANGLE_FIELDS, ids=["metric", "2-form"])
def test_square_jet_reads_one_triangle(field, points, order):
    # the point-last fill writes each triangle entry to both of its places;
    # it must give the point-first, mirror_triangle-built arrays bit for bit
    P = np.random.default_rng(11).uniform(-1.5, 1.5, size=(5, 3))
    p = {"float point": P[0], "float batch": P,
         "double-double batch": DD(P, P * 1e-19)}[points]
    sign = +1 if isinstance(field, MetricField) else -1
    got, want = field._jet(p, order), square_jet(field.fn, p, sign, order)
    assert [x is None for x in got] == [x is None for x in want] == [False, not order,
                                                                      order != 2]
    for g, w in zip(got, want):
        if w is None:
            continue
        for gp, wp in ((g.hi, w.hi), (g.lo, w.lo)) if isinstance(p, DD) else ((g, w),):
            assert gp.shape == wp.shape and gp.tobytes() == wp.tobytes()
            assert np.array_equal(gp, sign * np.swapaxes(gp, -1, -2))
            assert sign > 0 or not np.diagonal(gp, axis1=-2, axis2=-1).any()


def test_values_are_the_order_none_jet():
    # plain values come from the jet path with no derivative slots; they
    # match a jet's value slot to rounding (a jet divides by a constant
    # as a product with its reciprocal)
    m = models.build("r8-parent", 1.0)
    pts = m.sample(6, seed=4)
    assert m.metric._jet(pts, None)[1:] == (None, None)
    assert m.killing["G"]._jet(pts, None)[1:] == (None, None)
    level = m.embeddings["level"]
    for got, jet in ((m.metric.value(pts), m.metric.jet(pts, order=1)[0]),
                     (m.forms["omega_I"].value(pts), m.forms["omega_I"].jet(pts, order=1)[0]),
                     (level.value(pts[:, :5]), level.jet(pts[:, :5], order=1)[0])):
        assert got.shape == jet.shape and np.allclose(got, jet, rtol=1e-14, atol=1e-15)


def test_volume_form_covariantly_constant():
    # any oriented 2D metric: nabla of the area form vanishes identically
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    area = FormField(g.chart, 2, lambda c: [[0.0, c[0]], [None, 0.0]])
    for r in (0.5, 1.5):
        dw = covariant_derivative_02(g, area, [r, 1.0])
        assert np.max(np.abs(dw)) < 1e-12


def test_a_list_of_fields_shares_one_connection(monkeypatch):
    # each derivative of the list is the one of its field alone, bit for bit
    tn = models.build("taub-nut", 1.0)
    forms = list(tn.forms.values())
    pts = tn.sample(6, 3)
    alone = [covariant_derivative_02(tn.metric, f, p) for f in forms for p in (pts, pts[2])]
    calls = []
    monkeypatch.setattr(geometry, "christoffel",
                        lambda g, p, f=geometry.christoffel: calls.append(1) or f(g, p))
    together = [covariant_derivative_02(tn.metric, forms, p) for p in (pts, pts[2])]
    assert len(calls) == 2
    for got, want in zip([t[i] for i in range(3) for t in together], alone):
        assert got.tobytes() == want.tobytes()


def test_euler_characteristic_cigar():
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    val, err = euler_characteristic(g)
    assert val == pytest.approx(2.0, abs=1e-9)
    assert err < 1e-8


def test_euler_characteristic_one_metric_jet_per_point(monkeypatch):
    # every integrand point takes one metric jet, which gives sqrt(det g) too
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
    assert calls["value"] == 0


def test_euler_characteristic_divergence_guard(monkeypatch):
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 / (1.0 + c[0] ** 2)]])
    # a tolerance no error estimate of the quadrature can meet
    monkeypatch.setattr(geometry, "EULER_QUAD_TOL", 1e-30)
    with pytest.raises(geometry.DivergenceError, match="above tolerance 1.0e-30"):
        euler_characteristic(g)


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
    ginv = geometry._solve(gv, np.eye(gv.shape[0]))
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


@pytest.mark.parametrize("name", ["gh-flat", "taub-nut", "toy-parent", "r8-parent"])
def test_riemann_symmetries(name):
    # antisymmetric in C, D (exactly: one triangle is computed, the other
    # mirrored) and the first Bianchi identity R^A_{BCD} + R^A_{CDB} + R^A_{DBC} = 0
    m = models.build(name, 1.0)
    R = riemann(m.metric, np.asarray(m.sample(24, 5)))
    assert np.array_equal(R, -np.swapaxes(R, -1, -2))
    bianchi = R + np.einsum("...acdb->...abcd", R) + np.einsum("...adbc->...abcd", R)
    assert np.max(np.abs(bianchi)) <= 16 * np.finfo(float).eps * max(1.0, np.max(np.abs(R)))
