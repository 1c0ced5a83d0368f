"""Double-double arithmetic and the curvature it serves below the 0.05 switch.

mpmath is the oracle: every operation against 50-digit arithmetic, and the
double-double curvature against the 60-digit Brioschi curvature of
``oracles.brioschi_curvature``, bit for bit.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgeo import ddouble, geometry, jets, models
from hkgeo.ddouble import DD, DIGITS
from hkgeo.fields import Chart, MetricField
from hkgeo.geometry import MetricDomainError
from hkgeo.jets import EvaluationError

from oracles import brioschi_curvature

PROPERTY = settings(max_examples=40)


def exact(x):
    """The value ``hi + lo`` of a double-double scalar, exactly."""
    return mpmath.mpf(float(x.hi)) + mpmath.mpf(float(x.lo))


def cigar(scale=1.0):
    """``scale`` times a rational metric with ``2K = 8`` at its origin ``r = 0``."""
    return MetricField(Chart(("r", "chi")),
                       lambda c: [[scale * (1.0 + c[0] * c[0]), 0.0],
                                  [None, scale * (c[0] * c[0] / (1.0 + c[0] * c[0]))]])


def test_operations_match_mpmath():
    rng = np.random.default_rng(11)
    # full 106-bit operands of mixed signs and magnitudes, as quotients, and
    # z close to -x, whose sum with x keeps only the digits of the lo parts
    num, den = rng.normal(size=(2, 2, 200)) * 10.0 ** rng.integers(-8, 9, size=(2, 2, 200))
    x, y = DD(num[0], 0 * num[0]) / den[0], DD(num[1], 0 * num[1]) / den[1]
    z = -(x * (1.0 + 2.0 ** -40))
    u2 = 2.0 ** -106  # the squared unit roundoff of float64
    # (operation, second operand, relative bound): the accurate sum is exact
    # on the cancelling pairs, where a sloppy one keeps about 20 digits; the
    # three-step quotient stays within 2 u2 here, the two-step one reaches 3.6
    cases = [(lambda a, b: a + b, y, 3 * u2), (lambda a, b: a - b, y, 3 * u2),
             (lambda a, b: a + b, z, 0), (lambda a, b: a - b, -z, 0),
             (lambda a, b: a * b, y, 7 * u2), (lambda a, b: a / b, y, 3 * u2)]
    with mpmath.workdps(50):
        for n, (op, b, bound) in enumerate(cases):
            got = op(x, b)
            for k in range(200):
                want = op(exact(x[k]), exact(b[k]))
                assert abs(exact(got[k]) - want) <= bound * abs(want), n
                assert got.hi[k] == float(want), n  # hi is the float64 rounding
        # a float64 product and sum are held exactly
        a, b = num[0], den[1]
        for k in range(200):
            assert exact((DD(a, 0 * a) * b)[k]) == mpmath.mpf(a[k]) * mpmath.mpf(b[k])
            assert exact((DD(a, 0 * a) + b)[k]) == mpmath.mpf(a[k]) + mpmath.mpf(b[k])


#: Every operation with a float operand ``f`` (``x / f`` is the only quotient
#: with one), as ``op(x, f)``.
FLOAT_OPERATIONS = {"x + f": lambda x, f: x + f, "f + x": lambda x, f: f + x,
                    "x - f": lambda x, f: x - f, "f - x": lambda x, f: f - x,
                    "x * f": lambda x, f: x * f, "f * x": lambda x, f: f * x,
                    "x / f": lambda x, f: x / f}


@PROPERTY
@given(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3),
       st.lists(st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                          st.floats(-300.0, 300.0)), min_size=3, max_size=3),
       st.sampled_from(["float", "0-d array", "(B,) array"]))
def test_a_float_operand_is_a_double_double_with_zero_low_part(nums, fs, kind):
    # the float-operand rules skip the terms of f's zero low part; they give
    # the values of f taken as DD(f, 0.0): hi bit for bit, lo as a number
    # (the sign of a zero lo may differ)
    x = DD(np.array(nums) * [1.0, -1.0, 1.0], np.zeros(3)) / 3.0  # full low parts
    f = {"float": fs[0], "0-d array": np.array(fs[0]), "(B,) array": np.array(fs)}[kind]
    for name, op in FLOAT_OPERATIONS.items():
        got, want = op(x, f), op(x, DD(f, 0.0))
        assert got.hi.tobytes() == want.hi.tobytes(), name
        assert np.array_equal(got.lo, want.lo), name


def test_the_int_zero_is_exact():
    # 0 is the identity of + and - and the annihilator of *, skipping all work;
    # the rules that build ones from a double-double value keep its shape
    x = DD(np.array([1.5, -2.0]), np.array([1e-20, 0.0]))
    assert x + 0 is x and 0 + x is x and x - 0 is x
    assert (0 - x).hi.tolist() == [-1.5, 2.0] and (0 - x).lo.tolist() == [-1e-20, 0.0]
    assert x * 0 == 0 and 0 * x == 0
    seed = jets.Jet.variable(x, 1, 2)
    assert isinstance(seed.grad, DD) and seed.gradient.shape == (2, 2)
    assert seed.gradient.hi.tolist() == [[0.0, 0.0], [1.0, 1.0]] and not seed.gradient.lo.any()
    one = seed ** 0
    assert isinstance(one.value, DD) and one.value.shape == (2,)
    assert one.value.hi.tolist() == [1.0, 1.0] and not one.value.lo.any()
    assert isinstance(one.gradient, DD) and one.gradient.shape == (2, 2)


def test_double_double_curvature_work_count(monkeypatch):
    # Brioschi's formula on toy-reduced reads 7 of its 12 entries as the exact
    # zero and skips their products and sums, and float operands skip their
    # zero low part: a dense rule again raises these counts
    calls = {"_two_prod": 0, "_two_sum": 0}
    for name in calls:
        def counted(a, b, _f=getattr(ddouble, name), _name=name):
            calls[_name] += 1
            return _f(a, b)
        monkeypatch.setattr(ddouble, name, counted)
    rs = np.linspace(1e-4, 0.049, 50)
    geometry.gaussian_curvature(models.build("toy-reduced", 1.3).metric,
                                np.stack([rs, np.ones(50)], axis=1), dps=DIGITS)
    assert calls["_two_prod"] <= 49 and calls["_two_sum"] <= 51, calls


@PROPERTY
@given(st.floats(0.5, 2.0), st.floats(1e-6, 0.05, exclude_max=True))
def test_double_double_curvature_is_the_40_digit_curvature(a, r):
    g = models.build("toy-reduced", a).metric
    K = geometry.curvature_at_radii(g, [r])  # below DD_RADIUS: double-double
    assert K.tolist() == [brioschi_curvature(g, [r, 1.0])]


@PROPERTY
@given(st.floats(0.5, 2.0), st.floats(0.05, 10.0))
def test_float64_and_double_double_curvature_agree(a, r):
    g = models.build("toy-reduced", a).metric
    K = geometry.gaussian_curvature(g, [r, 1.0], dps=DIGITS)
    assert geometry.gaussian_curvature(g, [r, 1.0]) == pytest.approx(K, rel=1e-12, abs=0)


@settings(PROPERTY, max_examples=25)
@given(st.floats(0.5, 2.0), st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=8))
def test_double_double_batch_equals_points(a, rs):
    g = models.build("toy-reduced", a).metric
    pts = np.stack([rs, np.ones(len(rs))], axis=1)
    got = geometry.gaussian_curvature(g, pts, dps=DIGITS)
    want = [geometry.gaussian_curvature(g, p, dps=DIGITS) for p in pts]
    assert got.tobytes() == np.array(want).tobytes()


def test_integer_powers_in_a_field():
    # the jets' x ** k rule on double-double values: the cigar of
    # test_geometry, written with powers, against the oracle's curvature
    g = MetricField(Chart(("r", "chi")),
                    lambda c: [[1.0 + c[0] ** 2, 0.0],
                               [None, c[0] ** 2 * (1.0 + c[0] ** 2) ** -1]])
    for r in (1e-6, 1e-3, 0.04):
        K = geometry.gaussian_curvature(g, [r, 0.0], dps=DIGITS)
        assert K == brioschi_curvature(cigar(), [r, 0.0])
    with pytest.raises(TypeError, match="integers"):
        DD(np.ones(2), np.zeros(2)) ** 0.5


def test_dividing_by_a_float_keeps_the_digits():
    # a double-double jet divided by a float constant multiplies by the
    # constant's double-double reciprocal; a float64 one (1 / 2.25 rounded)
    # left toy-reduced's curvature at a = 1.5, r = 1/32 one ulp off
    x = jets.Jet.variable(DD(np.ones(2), np.zeros(2)), 0, 1)
    q = x / 3.0
    with mpmath.workdps(50):
        for part in (q.value[0], q.gradient[0, 0]):
            assert abs(exact(part) - mpmath.mpf(1) / 3) <= 2.0 ** -104
    g = models.build("toy-reduced", 1.5).metric
    K = geometry.gaussian_curvature(g, [0.03125, 1.0], dps=DIGITS)
    assert K == brioschi_curvature(g, [0.03125, 1.0]) == 3.5509299417964373


def test_elementary_functions_are_refused():
    sphere = MetricField(Chart(("theta", "phi")),
                         lambda c: [[1.0, 0.0], [None, jets.sin(c[0]) ** 2]])
    with pytest.raises(TypeError, match=r"rational only .* in float64 \(dps=None\)"):
        geometry.gaussian_curvature(sphere, [1.1, 0.4], dps=DIGITS)
    assert geometry.gaussian_curvature(sphere, [1.1, 0.4]) == pytest.approx(2.0)  # the advice


def test_scaled_metric_keeps_its_digits():
    # 2K scales as 1 / scale; W**2 ~ 1e176 is inside the float64 range
    K = geometry.gaussian_curvature(cigar(1e50), [1e-6, 0.0], dps=DIGITS)
    assert K == brioschi_curvature(cigar(1e50), [1e-6, 0.0])
    assert K * 1e50 == pytest.approx(8.0, abs=1e-9)


def test_division_by_zero_in_double_double_batch_names_the_point():
    g = MetricField(Chart(("x", "y")), lambda c: [[1.0 / c[0], 0.0], [None, 1.0]])
    pts = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 0.5], [-1.0, 0.0]])
    with pytest.raises(EvaluationError, match="point 2") as err:
        geometry.gaussian_curvature(g, pts, dps=DIGITS)
    assert err.value.point == 2


def test_non_spd_metric_in_double_double_batch_names_the_point():
    g = MetricField(Chart(("x", "y")), lambda c: [[c[0], 0.0], [None, 1.0 + c[0] * c[0]]])
    pts = np.array([[1.0, 0.0], [2.0, 1.0], [-0.5, 0.0], [-1.0, 0.0]])
    with pytest.raises(MetricDomainError, match="point 2"):
        geometry.gaussian_curvature(g, pts, dps=DIGITS)


def test_overflow_is_a_typed_error_not_nan():
    # Veltkamp's split multiplies by 2**27 + 1: a factor above about 1e300
    # makes the metric NaN, which its guard rejects, and a curvature whose
    # W**2 overflows is not finite; both raise, in a batch naming the point
    pts = np.array([[0.5, 0.0], [1.0, 0.0]])
    with pytest.raises(MetricDomainError, match="point 0"):
        geometry.gaussian_curvature(cigar(1e301), pts, dps=DIGITS)
    for dps in (DIGITS, None):
        with pytest.raises(EvaluationError, match="non-finite curvature at point 0"):
            geometry.gaussian_curvature(cigar(1e160), pts, dps=dps)


def test_a_non_finite_metric_jet_names_its_point():
    # checked before Brioschi's formula reads any entry as the exact zero, so
    # no 0 * inf is skipped into a finite curvature; at point 1 the value
    # 1.2**2 * 8e307 is finite and its derivative 2 * 1.2 * 8e307 is not
    g = MetricField(Chart(("x", "y")),
                    lambda c: [[c[0] * c[0] * 8e307, 0.0], [None, 1e-300 * (1.0 + c[0] * c[0])]])
    pts = np.array([[1.0, 0.0], [1.2, 0.0], [1.1, 0.0]])
    with np.errstate(over="ignore"):
        assert np.isfinite(geometry.gaussian_curvature(g, pts[[0, 2]])).all()
        with pytest.raises(EvaluationError, match="non-finite metric jet at point 1") as err:
            geometry.gaussian_curvature(g, pts)
    assert err.value.point == 1
    # a double-double jet is checked in both parts
    r = np.array([0.01, 0.02, 0.03])
    q = np.stack([r, np.ones(3)], axis=1)
    gv, dg, d2g = models.build("toy-reduced", 1.0).metric.jet(DD(q, 0 * q))
    for part in ("hi", "lo"):
        bad = dg.map(np.copy)
        getattr(bad, part)[2, 1, 0, 1] = np.inf  # F_v, zero at every other point
        with pytest.raises(EvaluationError, match="non-finite metric jet at point 2"):
            geometry._curvature(gv, bad, d2g)
