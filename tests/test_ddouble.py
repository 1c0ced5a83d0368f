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

from hkgeo import geometry, jets, models
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
