"""Hermitian fields, the unit-determinant (C-proportionality) test, and the
quaternionic triple built from passing metrics."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from hkgeo import kahler, models
from hkgeo.geometry import MetricDomainError, covariant_derivative_02
from hkgeo.kahler import (
    HeavenlyViolation,
    coset_exponential,
    heavenly_check,
    quaternion_defects,
    quaternion_form_fields,
    sp_generators,
    sp_residual,
    symplectic_matrix,
    triple_at,
    unit_determinant_shear_field,
    non_unimodular_field,
    x_matrices,
)

import oracles
from oracles import metric_from_potential

RNG = np.random.default_rng(42)


def test_symplectic_matrix():
    for n in (2, 4):
        om = symplectic_matrix(n)
        assert np.array_equal(om, -om.T)
        assert np.array_equal(om @ om, -np.eye(n))


@pytest.mark.parametrize("n,count", [(2, 3), (4, 10)])
def test_generator_count_and_algebra(n, count):
    gens = sp_generators(n)
    assert len(gens) == count
    om = symplectic_matrix(n)
    for t in gens:
        assert np.max(np.abs(t - t.conj().T)) == 0.0   # Hermitian
        assert sp_residual(t, om) == 0.0


def test_generators_are_built_once_and_read_only():
    gens = sp_generators(4)
    assert isinstance(gens, tuple) and sp_generators(4) is gens
    assert not any(t.flags.writeable for t in gens)
    with pytest.raises(ValueError, match="read-only"):
        gens[0][0, 0] = 2.0


def test_generators_linearly_independent():
    gens = sp_generators(4)
    flat = np.stack([t.reshape(-1) for t in gens])
    M = np.concatenate([flat.real, flat.imag], axis=1)
    assert np.linalg.matrix_rank(M) == len(gens)


@pytest.mark.parametrize("n", [2, 4])
def test_coset_metric_passes(n):
    om = symplectic_matrix(n)
    gens = sp_generators(n)
    for _ in range(25):
        hm = coset_exponential(RNG.normal(scale=0.7, size=len(gens)), gens)
        assert np.max(np.abs(hm - hm.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(hm)) > 0.0
        assert heavenly_check(hm, om) == pytest.approx(1.0, abs=1e-12)


def test_constant_equals_determinant_n2():
    om = symplectic_matrix(2)
    shear = unit_determinant_shear_field()
    for p in RNG.uniform(-1.2, 1.2, size=(20, 4)):
        hm = shear.matrix(p)
        C = heavenly_check(hm, om)
        assert C == pytest.approx(float(np.real(np.linalg.det(hm))), abs=1e-13)


def test_scaled_diagonal_rejected():
    om = symplectic_matrix(4)
    with pytest.raises(HeavenlyViolation) as exc:
        heavenly_check(np.diag([1.0, 1.0, 2.0, 1.0]).astype(complex), om)
    assert exc.value.residual == pytest.approx(0.5, abs=1e-12)


def test_negative_constant_rejected():
    # h Omega h^T = -Omega: proportional but with the wrong sign
    om = symplectic_matrix(2)
    with pytest.raises(HeavenlyViolation, match="not positive"):
        heavenly_check(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), om)


def test_nan_metric_fails_heavenly_check():
    # NaN must fail the criterion, not pass it with C = nan
    om = symplectic_matrix(2)
    with pytest.raises(HeavenlyViolation):
        heavenly_check(np.full((2, 2), np.nan), om)


def test_potential_reproduces_entries():
    # the potentials the hygiene check differentiates generate the shear
    # field and the single-mode metric; the control is Kaehler too
    potentials = {spec.name: spec.fn for spec in models.scalar_fields()}
    shear = unit_determinant_shear_field()
    for p in RNG.uniform(-1.0, 1.0, size=(10, 4)):
        direct = shear.matrix(p)
        from_pot = metric_from_potential(potentials["potential-shear"], p)
        assert np.max(np.abs(direct - from_pot)) < 1e-12
    control = non_unimodular_field()
    for p in RNG.uniform(-1.0, 1.0, size=(5, 4)):
        assert np.max(np.abs(control.matrix(p)
                             - metric_from_potential(oracles.control_potential, p))) < 1e-12
    single = oracles.single_mode_field()
    for p in RNG.uniform(-1.0, 1.0, size=(5, 2)):
        assert np.max(np.abs(single.matrix(p) - metric_from_potential(
            potentials["potential-single-mode"], p))) < 1e-12


def test_constancy_across_points():
    # one stacked check of the field's matrices: C = 1 at every point of the
    # unit-determinant field, C = det h varying across the control's
    om = symplectic_matrix(2)
    pts = RNG.uniform(-1.2, 1.2, size=(30, 4))
    C = heavenly_check(unit_determinant_shear_field().matrix(pts), om)
    assert C.shape == (30,) and np.max(np.abs(C - 1.0)) < 1e-12
    C = heavenly_check(non_unimodular_field().matrix(pts), om)
    assert np.ptp(C) > 0.1
    assert np.max(np.abs(C - 1.0 - np.sum(pts[:, :2] ** 2, axis=1))) < 1e-12


def test_heavenly_constant_of_one_point():
    # one point's matrix gives a float, its batch of one a stack of one
    om = symplectic_matrix(2)
    p = [0.1, 0.2, 0.3, 0.4]
    C = heavenly_check(unit_determinant_shear_field().matrix(p), om)
    assert isinstance(C, float) and C == pytest.approx(1.0, abs=1e-12)
    assert heavenly_check(unit_determinant_shear_field().matrix([p]), om).tolist() == [C]
    assert heavenly_check(non_unimodular_field().matrix(p), om) == pytest.approx(1.05)


def test_triple_quaternion_algebra():
    om = symplectic_matrix(2)
    shear = unit_determinant_shear_field()
    for p in RNG.uniform(-1.2, 1.2, size=(15, 4)):
        t = triple_at(shear.matrix(p), om)
        assert np.max(np.abs(quaternion_defects(t.I, t.J, t.K))) < 1e-12


def test_triple_compatibility():
    # each 2-form is the metric composed with its structure: w = g X
    om = symplectic_matrix(2)
    t = triple_at(unit_determinant_shear_field().matrix([0.3, -0.4, 0.7, 0.1]), om)
    for W, X in ((t.omega_I, t.I), (t.omega_J, t.J), (t.omega_K, t.K)):
        assert np.max(np.abs(W + t.g @ X)) < 1e-12
        assert np.max(np.abs(W + W.T)) < 1e-12


def test_triple_singular_metric_rejected():
    with pytest.raises(MetricDomainError):
        triple_at(np.array([[1.0, 1.0], [1.0, 1.0]]), symplectic_matrix(2))


def test_covariant_constancy_and_control():
    om = symplectic_matrix(2)
    shear = unit_determinant_shear_field()
    fJ, fK = quaternion_form_fields(shear, om)
    p = [0.4, -0.2, 0.8, 0.5]
    dJ = covariant_derivative_02(shear, fJ, p)
    dK = covariant_derivative_02(shear, fK, p)
    assert np.max(np.abs(dJ)) < 1e-12
    assert np.max(np.abs(dK)) < 1e-12

    ctrl = non_unimodular_field()
    fJc, _ = quaternion_form_fields(ctrl, om)
    dJc = covariant_derivative_02(ctrl, fJc, p)
    assert np.max(np.abs(dJc)) > 1e-3


def test_x_matrices_in_algebra():
    om = symplectic_matrix(2)
    shear = unit_determinant_shear_field()
    for p in RNG.uniform(-1.0, 1.0, size=(10, 4)):
        for X in x_matrices(shear, p):
            assert sp_residual(X, om) < 1e-13

    worst = max(sp_residual(X, om)
                for X in x_matrices(non_unimodular_field(), [0.5, 0.1, 0.0, 0.0]))
    assert worst > 1e-2


@pytest.mark.parametrize("points", ["point", "batch"])
@pytest.mark.parametrize("field", [unit_determinant_shear_field, non_unimodular_field,
                                   oracles.single_mode_field])
def test_x_matrices_match_the_complex_reference(field, points):
    # the realified solve gives 2 (d_z h) h^{-1} as complex arithmetic does
    hf = field()
    pts = np.random.default_rng(7).uniform(-1.5, 1.5, size=(12, 2 * hf.n))
    p = pts[0] if points == "point" else pts
    got, want = x_matrices(hf, p), oracles.x_matrices(hf, p)
    assert got.shape == want.shape == (*p.shape[:-1], hf.n, hf.n, hf.n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


_SP_ALGEBRA_ROWS = """
import json
from hkgeo.checks import run_suite
print(json.dumps([[c.max_abs_error.hex() for c in run_suite("heavenly", seed=s, samples=100).checks
                   if c.check_id == "heavenly.sp_algebra"] for s in range(4)]))
"""


def test_sp_algebra_row_is_the_same_at_every_simd_level():
    # the realified solve runs on real elementwise steps, so numpy's SIMD
    # level (all of it, or only its baseline) does not move the row's error
    present = [f for f in _multiarray_umath.__cpu_dispatch__
               if _multiarray_umath.__cpu_features__.get(f)]
    src = os.path.join(os.path.dirname(kahler.__file__), os.pardir)
    children = [subprocess.Popen([sys.executable, "-c", _SP_ALGEBRA_ROWS], text=True,
                                 stdout=subprocess.PIPE,
                                 env=dict(os.environ, PYTHONPATH=src, **extra))
                for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(present)})]
    full, baseline = (json.loads(child.communicate(timeout=60)[0]) for child in children)
    assert all(child.returncode == 0 for child in children)
    assert len(full) == 4 and full == baseline


def test_x_matrices_require_positive_definite():
    # h = [[u]]: indefinite at u = -1, singular at u = 0; neither is inverted
    line = kahler.HermitianMetricField(1, lambda c: [[c[0]]], name="u")
    for p in ([-1.0, 0.0], [0.0, 0.0]):
        with pytest.raises(MetricDomainError):
            x_matrices(line, p)
    with pytest.raises(MetricDomainError, match="point 2"):
        x_matrices(line, np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 0.0], [-1.0, 0.0]]))
    # [[1, 2i], [-2i, 1]] has eigenvalues 3 and -1 but a positive-definite
    # real part: the guard must see the imaginary part
    tilted = kahler.HermitianMetricField(2, lambda c: [[1.0, 0.0], [None, 1.0]],
                                         lambda c: [[0.0, 2.0], [None, 0.0]])
    with pytest.raises(MetricDomainError):
        x_matrices(tilted, [0.0, 0.0, 0.0, 0.0])


def test_real_metric_block_structure():
    shear = unit_determinant_shear_field()
    p = [0.7, 0.2, -0.5, 0.3]
    h = shear.matrix(p)
    g = shear.value(p)
    for i in range(2):
        for k in range(2):
            blk = g[2 * i:2 * i + 2, 2 * k:2 * k + 2]
            A, B = h[i, k].real, h[i, k].imag
            assert np.allclose(blk, [[A, B], [-B, A]], atol=1e-14)
    assert np.allclose(g, g.T)
    assert np.min(np.linalg.eigvalsh(g)) > 0.0
    # the field's interleaved entries and realify of its matrix, at a point and on a batch
    pts = RNG.uniform(-1.0, 1.0, size=(6, 4))
    assert np.array_equal(kahler.realify(h), g)
    assert np.array_equal(kahler.realify(shear.matrix(pts)), shear.value(pts))


_SIGMA = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))


@pytest.mark.parametrize("n", [2, 4])
def test_realified_blocks_by_slicing(n):
    # each real structure read block by block: rows and columns 0::2 are the
    # u directions, 1::2 the v directions (z = u + iv)
    gens = sp_generators(n)
    h = coset_exponential(RNG.normal(scale=0.4, size=(5, len(gens))), gens)
    om = symplectic_matrix(n)
    A, B, t = h.real, h.imag, triple_at(h, om)
    for T, want in ((kahler.realify(h), (A, B, -B, A)), (t.g, (A, B, -B, A)),
                    (t.omega_I, (-B, A, -A, -B)), (t.omega_J, (om, 0, 0, -om)),
                    (t.omega_K, (0, om, om, 0))):
        got = (T[..., 0::2, 0::2], T[..., 0::2, 1::2], T[..., 1::2, 0::2], T[..., 1::2, 1::2])
        for block, w in zip(got, want):
            assert np.array_equal(block, np.broadcast_to(w, block.shape))
    # each generator is its 2 x 2 block (and the block's adjoint mirrored) at its place
    m = n // 2
    places = ([(I, I, s) for I in range(m) for s in _SIGMA]
              + [(I, J, Q) for I in range(m) for J in range(I + 1, m)
                 for Q in (*_SIGMA, 1j * np.eye(2))])
    for X, (I, J, Q) in zip(gens, places, strict=True):
        rest = X.copy()
        assert np.array_equal(X[2 * I:2 * I + 2, 2 * J:2 * J + 2], Q)
        assert np.array_equal(X[2 * J:2 * J + 2, 2 * I:2 * I + 2], Q.conj().T)
        rest[2 * I:2 * I + 2, 2 * J:2 * J + 2] = rest[2 * J:2 * J + 2, 2 * I:2 * I + 2] = 0
        assert not rest.any()
