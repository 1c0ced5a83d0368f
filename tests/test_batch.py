"""The batch axis: a batch of points gives what its points give one at a time.

Every comparison is bit for bit (``tobytes`` equality), on the toy 3-chart
and the 5-chart of the R^8 -> Taub-NUT reduction, and every fault in a
batch names the first point that has it.
"""

import mpmath
import numpy as np
import pytest

from hkgeo import models
from hkgeo.jets import EvaluationError, Jet1, Jet2, evaluate_jet, solve
from hkgeo.mechanics import (
    DegenerateLagrangianError,
    PhasePoint,
    QuadraticKinetic,
    constrain_and_reduce,
    hamiltonian_field,
    legendre_to_hamiltonian,
    momentum_field,
    poisson_bracket,
)
from hkgeo.reduction import DegenerateFiberError, quotient_metric

MODELS = ["toy-parent", "r8-parent"]


def same_bits(batch, singles):
    a = np.asarray(batch, dtype=float)
    b = np.asarray(singles, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def level(name, count=24):
    m = models.build(name, 1.0)
    L = QuadraticKinetic(m.extras["level_chart"].names, m.extras["level_metric"].fn)
    pts = np.array(models.sample_points(models.SampleSpec(
        np.asarray(m.extras["level_box"], dtype=float), count, 5,
        tuple(m.extras.get("level_exclusions", ())))))
    return m, L, pts


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
def test_matrices_batch_equal_single(name):
    m, L, pts = level(name)
    same_bits(legendre_to_hamiltonian(L, pts),
              [legendre_to_hamiltonian(L, list(p)) for p in pts])
    fiber = m.extras["level_fiber"]
    same_bits(quotient_metric(m.extras["level_metric"], fiber, m.invariant, pts),
              [quotient_metric(m.extras["level_metric"], fiber, m.invariant, p)
               for p in pts])
    L2 = constrain_and_reduce(L, m.fiber_index, probe_points=pts[:2])
    keep = [i for i in range(L.dim) if i != m.fiber_index]
    same_bits(L2.matrix(pts[:, keep]), [L2.matrix(list(p[keep])) for p in pts])


def test_solve_pivots_per_point():
    # point 0 pivots on row 1 (|1| > 0.5), point 1 on row 0; the batch must
    # swap rows per point, for float and jet entries alike.  A float entry
    # that shares a row slot with a jet travels as a constant jet, so a zero
    # derivative may come out as -0.0 on one path and +0.0 on the other:
    # derivatives are compared by value, everything else bit for bit
    x = np.array([0.5, 2.0])
    dx = np.array([[1.0, 1.0], [0.0, 0.0]])  # gradient (d, B)
    got = solve([[x, 1.0], [1.0, 3.0]], [1.0, -2.0])
    got_jet = solve([[Jet1(x, dx), 1.0], [1.0, 3.0]], [1.0, -2.0])
    for k in range(2):
        want = solve([[x[k], 1.0], [1.0, 3.0]], [1.0, -2.0])
        want_jet = solve([[Jet1(x[k], dx[:, k]), 1.0], [1.0, 3.0]], [1.0, -2.0])
        same_bits([g[k] for g in got], want)
        same_bits([g.value[k] for g in got_jet], [w.value for w in want_jet])
        assert np.array_equal([g.gradient[:, k] for g in got_jet],
                              [w.gradient for w in want_jet])


def test_singular_mass_in_batch_names_the_point():
    L = QuadraticKinetic(("u", "v"), lambda c: [[1.0, 1.0], [None, c[0]]])
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
        quotient_metric(m.extras["level_metric"], m.extras["level_fiber"],
                        m.invariant, pts)


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


def test_mp40_jet2_product_matches_outer_products():
    # the outer products of the Hessian update, written without np.outer,
    # still give np.outer's entries at 40 digits
    with mpmath.workdps(40):
        a = Jet2.variable(mpmath.mpf(2) / 3, 0, 2) * mpmath.mpf("1.7")
        b = Jet2.variable(mpmath.mpf(5) / 7, 1, 2) + a
        got = a * b
        want = (b.hessian * a.value + a.hessian * b.value
                + np.outer(a.gradient, b.gradient) + np.outer(b.gradient, a.gradient))
        assert got.value == a.value * b.value
        assert list(got.gradient) == list(b.gradient * a.value + a.gradient * b.value)
        assert got.hessian.dtype == object
        assert got.hessian.tolist() == want.tolist()
