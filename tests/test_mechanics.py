"""Legendre transform, Poisson brackets and constrained reduction."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgeo import mechanics, models
from hkgeo.fields import Chart, MetricField, VectorFieldR
from hkgeo.jets import evaluate_jet
from hkgeo.mechanics import (
    DegenerateLagrangianError,
    InvalidConstraintError,
    PhasePoint,
    constrain_and_reduce,
    hamiltonian_field,
    MIN_RCOND,
    legendre_to_hamiltonian,
    momentum_field,
    poisson_bracket,
)
from hkgeo.reduction import quotient_metric


def kinetic(M_fn, labels=("q0", "q1")):
    """The kinetic term of the mass matrix ``M_fn``, given by its metric field."""
    return MetricField(Chart(labels), M_fn)


def test_legendre_hand_inverse():
    L = kinetic(lambda c: [[2.0, 1.0], [None, 1.0]])
    Minv = legendre_to_hamiltonian(L, [0.0, 0.0])
    assert np.allclose(Minv, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-14)


def test_legendre_position_dependent():
    L = kinetic(lambda c: [[1.0 + c[0] ** 2, 0.0], [None, 4.0]])
    Minv = legendre_to_hamiltonian(L, [3.0, 0.0])
    assert np.allclose(Minv, np.diag([0.1, 0.25]), atol=1e-14)


def test_singular_mass_rejected():
    # exactly singular, and singular to the 1/cond < 1e-13 rule: every entry
    # point that inverts or solves a mass matrix applies the same rule
    for m11 in (1.0, 1.0 + 3e-13):
        L = kinetic(lambda c, m11=m11: [[1.0, 1.0], [None, m11]])
        with pytest.raises(DegenerateLagrangianError):
            legendre_to_hamiltonian(L, [0.0, 0.0])
        with pytest.raises(DegenerateLagrangianError):
            poisson_bracket(momentum_field(0, 2), hamiltonian_field(L),
                            PhasePoint((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(DegenerateLagrangianError):
            constrain_and_reduce(L, 1)


def test_indefinite_mass_rejected():
    # nonsingular and perfectly conditioned, but no kinetic energy: the
    # solves eliminate without pivoting, so the rule asks for positive definiteness
    L = kinetic(lambda c: [[0.0, 1.0], [None, 0.0]])
    with pytest.raises(DegenerateLagrangianError, match="not positive definite"):
        legendre_to_hamiltonian(L, [0.0, 0.0])
    with pytest.raises(DegenerateLagrangianError, match="not positive definite"):
        poisson_bracket(momentum_field(0, 2), hamiltonian_field(L),
                        PhasePoint((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(DegenerateLagrangianError, match="not positive definite"):
        constrain_and_reduce(L, 1)


def test_hamiltonian_value():
    L = kinetic(lambda c: [[2.0, 0.0], [None, 0.5]])
    H = hamiltonian_field(L)
    s = PhasePoint((0.0, 0.0), (2.0, 1.0))
    # H = p^T M^{-1} p / 2 = (4 * 0.5 + 1 * 2) / 2
    got = H([*s.q, *s.p])
    assert got == pytest.approx(2.0)


def test_canonical_brackets():
    n = 2
    s = PhasePoint((0.3, -0.7), (1.1, 0.4))
    for i in range(n):
        for j in range(n):
            qi = lambda coords, i=i: coords[i]
            pj = momentum_field(j, n)
            assert poisson_bracket(qi, pj, s) == pytest.approx(float(i == j))
            assert poisson_bracket(pj, qi, s) == pytest.approx(-float(i == j))


def test_bracket_antisymmetry_and_self():
    L = kinetic(lambda c: [[1.0 + c[0] ** 2, 0.3], [None, 2.0]])
    H = hamiltonian_field(L)
    s = PhasePoint((0.5, 1.0), (0.7, -0.2))
    assert poisson_bracket(H, H, s) == pytest.approx(0.0, abs=1e-14)
    p0 = momentum_field(0, 2)
    assert poisson_bracket(p0, H, s) == pytest.approx(-poisson_bracket(H, p0, s))


def test_cyclic_momentum_conserved():
    # mass matrix depends on q0 only: p1 commutes with H, p0 does not
    L = kinetic(lambda c: [[1.0 + c[0] ** 2, 0.2], [None, 2.0]])
    H = hamiltonian_field(L)
    s = PhasePoint((0.8, -0.4), (0.5, 1.2))
    assert poisson_bracket(momentum_field(1, 2), H, s) == pytest.approx(0.0, abs=1e-14)
    assert abs(poisson_bracket(momentum_field(0, 2), H, s)) > 1e-3


def _bracket_second_order(f, g, s):
    # the bracket as computed before first-order jets: full second-order gradients
    n = len(s.q)
    jf, jg = evaluate_jet(f, s.coords), evaluate_jet(g, s.coords)
    acc = 0.0
    for i in range(n):
        acc += jf.gradient[i] * jg.gradient[n + i] - jf.gradient[n + i] * jg.gradient[i]
    return float(acc)


@pytest.mark.parametrize("name", ["toy-parent", "r8-parent"])
def test_bracket_matches_second_order_reference(name):
    # toy 3-chart and 5-chart level Hamiltonians: the first-order bracket is
    # the second-order bracket, bit for bit
    m = models.build(name, 1.0)
    L = m.level.metric
    H = hamiltonian_field(L)
    rng = np.random.default_rng(12)
    pts = m.level.sample(6, 3)
    for p in pts:
        s = PhasePoint(tuple(p), tuple(rng.normal(size=L.dim)))
        for i in range(L.dim):
            pi = momentum_field(i, L.dim)
            assert poisson_bracket(pi, H, s) == _bracket_second_order(pi, H, s)
            qi = lambda c, i=i: c[i] * c[i]
            assert poisson_bracket(qi, H, s) == _bracket_second_order(qi, H, s)


def test_constrain_decoupled_fiber():
    # fiber decoupled from the rest: reduction just deletes its row/column
    def M_fn(c):
        return [[1.0 + c[0] ** 2, 0.0, 0.5],
                [None, 2.0, 0.0],
                [None, None, 3.0]]

    L = kinetic(M_fn, ("a", "b", "c"))
    L2 = constrain_and_reduce(L, 1)
    assert L2.chart.names == ("a", "c")
    got = L2.value([0.7, 0.0])
    assert np.allclose(got, [[1.49, 0.5], [0.5, 3.0]], atol=1e-12)


def test_constrain_matches_quotient_metric():
    def M_fn(c):
        return [[2.0 + c[0] ** 2, 1.0], [None, 1.0]]

    L = kinetic(M_fn)
    L2 = constrain_and_reduce(L, 1)
    for q0 in (0.0, 0.8, -1.3):
        got = L2.value([q0])
        M = MetricField(L.chart, lambda c, q0=q0: [[2.0 + q0 ** 2, 1.0], [None, 1.0]])
        want = quotient_metric(M, VectorFieldR(L.chart, lambda c: [0.0, 1.0]), (0,), [q0, 0.0])
        assert np.allclose(got, want, atol=1e-13)


def test_constrain_rejects_non_cyclic():
    L = kinetic(lambda c: [[1.0 + c[0] ** 2, 0.0], [None, 1.0]])
    with pytest.raises(InvalidConstraintError) as exc:
        constrain_and_reduce(L, 0)
    assert exc.value.residual > 1e-10


def test_constrain_rejects_nan_bracket(monkeypatch):
    # one NaN probe bracket among zeros must not pass as cyclic; the probes
    # are bracketed in one batched call, so the stub returns the batch
    def bracket(f, g, s):
        out = np.zeros(len(s.coords))
        out[1] = float("nan")
        return out

    monkeypatch.setattr(mechanics, "poisson_bracket", bracket)
    L = kinetic(lambda c: [[2.0, 1.0], [None, 1.0]])
    with pytest.raises(InvalidConstraintError):
        constrain_and_reduce(L, 1)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint((1.0,), (1.0, 2.0))
    with pytest.raises(ValueError):
        PhasePoint((float("nan"),), (1.0,))


# -- the mass-matrix rule: Cholesky certificate against eigenvalues alone


def _mass_outcome(M):
    """``_check_mass``'s message for ``M``, or None when it accepts."""
    try:
        mechanics._check_mass(M)
    except DegenerateLagrangianError as err:
        return str(err)
    return None


def _eigenvalue_outcome(M):
    # the certificate never clears, so the eigenvalues decide alone
    with mock.patch.object(mechanics, "_certified_cholesky",
                           lambda a, c: (np.full(a.shape, np.nan), False)):
        return _mass_outcome(M)


def _eigenvalues_accept(M):
    """The rule written out per matrix: finite, ``lambda_min >= MIN_RCOND lambda_max > 0``."""
    for m in np.reshape(M, (-1, *np.shape(M)[-2:])):
        if not np.isfinite(m).all():
            return False
        lo, hi = np.linalg.eigvalsh(m)[[0, -1]]
        if not (lo >= MIN_RCOND * hi and hi > 0):
            return False
    return True


def _mass_matrix(rng, n, log_cond, scale, defect):
    """A symmetric ``n x n`` matrix with eigenvalues from ``scale`` down to
    ``scale * 10**-log_cond``, then spoilt by ``defect``."""
    t = np.concatenate([[0.0, 1.0], rng.uniform(size=max(n - 2, 0))])[:n]
    eig = scale * 10.0 ** (-log_cond * t)
    if defect == "indefinite":
        eig[rng.integers(n)] *= -1.0
    elif defect == "singular":
        eig[-1] = 0.0
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    M = (Q * eig) @ Q.T
    M = (M + M.T) / 2
    if defect in ("nan", "inf", "-inf"):
        M[rng.integers(n), rng.integers(n)] = float(defect)  # either triangle
    return M


@settings(max_examples=150)
@given(n=st.integers(1, 6), batch=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1),
       log_cond=st.one_of(st.floats(0.0, 4.0), st.floats(11.0, 15.0)),
       log_scale=st.floats(-150.0, 150.0),
       defect=st.sampled_from([None, None, "indefinite", "singular", "nan", "inf", "-inf"]))
def test_certificate_decides_as_the_eigenvalues(n, batch, seed, log_cond, log_scale, defect):
    # a stack of ``batch`` matrices (one matrix for 0), the defect and the
    # drawn condition at its middle point, the rest well conditioned
    rng = np.random.default_rng(seed)
    if batch == 0:
        M = _mass_matrix(rng, n, log_cond, 10.0 ** log_scale, defect)
    else:
        M = np.stack([_mass_matrix(rng, n, 2.0, 10.0 ** log_scale, None)
                      for _ in range(batch)])
        M[batch // 2] = _mass_matrix(rng, n, log_cond, 10.0 ** log_scale, defect)
    got = _mass_outcome(M)
    assert got == _eigenvalue_outcome(M)
    assert (got is None) == _eigenvalues_accept(M)


@pytest.mark.parametrize("M", [
    # det M and (tr M)^5 both underflow to 0: a det >= c tr^n test would pass it
    np.diag([1e-70, 1e-90, 1e-90, 1e-90, 1e-90]),
    np.array([[1.0, np.inf], [0.0, 1.0]]),  # in the triangle no factorisation reads
    np.stack([np.eye(3), np.diag([1.0, 1.0, np.nan]), np.eye(3)]),
    np.stack([np.eye(2), np.diag([1.0, 1e-14]), np.eye(2)]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.diag([1.7e308, 1.0]),
], ids=["underflow", "upper-inf", "nan-in-batch", "ill-conditioned-in-batch",
        "indefinite", "huge"])
def test_certificate_rejections_are_the_eigenvalue_messages(M):
    got = _mass_outcome(M)
    assert got is not None and got == _eigenvalue_outcome(M)
    assert not _eigenvalues_accept(M)


def test_certificate_clears_a_well_conditioned_stack_without_eigenvalues(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    M = np.stack([np.diag([1.0, 1e-10, 2.0]), np.full((3, 3), 0.5) + np.eye(3)])
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    mechanics._check_mass(M)
    mechanics._check_mass(np.diag([1e-300, 2e-300]))  # scale-free
