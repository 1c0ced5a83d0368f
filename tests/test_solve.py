"""The one-factor solves against the elimination oracle.

Every positive-definite solve factors its float values once: a metric
solve (``geometry._solve``) and a mass-matrix solve
(``mechanics._solve_mass``, jet entries differentiated implicitly) use the
Cholesky factor their guard has just computed.  ``oracles.solve``, the
Gauss-Jordan elimination over entries, is the reference here: on random
positive-definite stacks (batches of float, array and jet entries,
realified Hermitian metrics) the two agree to rounding, and a batch with
one bad point is rejected with the typed error that names it.

The solves substitute point axes last; ``oracles.substitute`` and
``oracles.solve_entries`` run the same elementwise steps point axis first,
and the two layouts agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkgeo import geometry, kahler, mechanics, models, reduction
from hkgeo.ddouble import DD, DIGITS
from hkgeo.geometry import MetricDomainError
from hkgeo.jets import Jet
from hkgeo.mechanics import DegenerateLagrangianError

import oracles
from oracles import solve

DIM = 3  # coordinates the jets differentiate along


def _spd(rng, n, count, hermitian=False):
    """``count`` well-conditioned positive-definite ``n x n`` matrices
    ``(count, n, n)``; when ``hermitian``, complex Hermitian ones realified
    as the package solves them, ``(count, 2n, 2n)``."""
    R = rng.uniform(-1.0, 1.0, size=(count, n, n))
    if not hermitian:
        return R @ np.swapaxes(R, -1, -2) / n + np.eye(n)
    R = R + 1j * rng.uniform(-1.0, 1.0, size=(count, n, n))
    return kahler.realify(R @ np.conj(np.swapaxes(R, -1, -2)) / n + np.eye(n))


def _entry(rng, v, kind, order, count):
    """Value ``v`` ``(count,)`` as a float (at one point), an array or a jet."""
    if kind == "float" or count == 0:
        v = float(v[0])
        if kind == "float":
            return v
    if kind == "array":
        return v
    shape = () if count == 0 else (count,)
    g = rng.uniform(-1.0, 1.0, size=(DIM, *shape))
    if order == "mixed":
        order = int(rng.integers(1, 3))
    if order == 1:
        return Jet(v, g)
    h = rng.uniform(-1.0, 1.0, size=(DIM, DIM, *shape))
    return Jet(v, g, h + np.swapaxes(h, 0, 1))


def _parts(e, count):
    """Value, gradient and Hessian (zero for a number) of an entry, ``(count,)`` per slot."""
    shape = () if count == 0 else (count,)
    if not isinstance(e, Jet):
        return [np.broadcast_to(e, shape), np.zeros((DIM, *shape)), np.zeros((DIM, DIM, *shape))]
    h = np.zeros((DIM, DIM, *shape)) if e.hessian is None else e.hessian
    return [np.broadcast_to(e.value, shape), np.broadcast_to(e.gradient, (DIM, *shape)), h]


def _order(e):
    return 0 if not isinstance(e, Jet) else 1 if e.hessian is None else 2


@settings(max_examples=60)
@given(n=st.integers(1, 8), count=st.integers(0, 4), columns=st.integers(0, 2),
       order=st.sampled_from([1, 2, "mixed"]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=2, count=2, columns=2, order="mixed", seed=162)
def test_mass_solve_matches_elimination(n, count, columns, order, seed):
    # a symmetric stack of float, array and jet entries (one point when
    # count is 0) and a vector (columns 0) or matrix right-hand side
    rng = np.random.default_rng(seed)
    vals = _spd(rng, n, max(count, 1))
    kinds = ["float", "array", "jet", "jet"]
    A = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            kind = kinds[rng.integers(1 if count == 0 else 0, 4)]
            if kind == "float":  # the same at every point
                vals[:, i, j] = vals[:, j, i] = vals[0, i, j]
            A[i, j] = A[j, i] = _entry(rng, vals[:, i, j], kind, order, count)
    rhs = rng.uniform(-1.0, 1.0, size=(n, max(columns, 1), max(count, 1)))
    B = [[_entry(rng, rhs[i, c], kinds[rng.integers(0, 4)], order, count)
          for c in range(max(columns, 1))] for i in range(n)]
    # the factored solve's rule: numbers when no entry is a jet, Hessians
    # only when every jet of A and B has one, gradients otherwise
    jets = [e for e in [*A.ravel(), *sum(B, [])] if isinstance(e, Jet)]
    expected = 0 if not jets else 2 if all(e.hessian is not None for e in jets) else 1
    if columns == 0:
        B = [row[0] for row in B]
    got, want = mechanics._solve_mass(A, B), solve(A, B)
    if columns == 0:
        got, want = [[x] for x in got], [[x] for x in want]
    for grow, wrow in zip(got, want):
        for g, w in zip(grow, wrow):
            assert _order(g) == expected
            for a, b in zip(_parts(g, count)[:3 if expected == 2 else 2], _parts(w, count)):
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


@settings(max_examples=40)
@given(n=st.integers(1, 8), count=st.integers(0, 5), columns=st.integers(1, 4),
       hermitian=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_metric_solve_matches_elimination(n, count, columns, hermitian, seed):
    rng = np.random.default_rng(seed)
    g = _spd(rng, n, max(count, 1), hermitian)
    B = rng.uniform(-1.0, 1.0, size=(*g.shape[:-1], columns))
    if count == 0:
        g, B = g[0], B[0]
    got = geometry._solve(g, B)
    X = np.moveaxis(np.array(solve(np.moveaxis(g, (-2, -1), (0, 1)),
                                   np.moveaxis(B, (-2, -1), (0, 1)))), (0, 1), (-2, -1))
    assert got.shape == B.shape
    assert np.allclose(got, X, rtol=1e-12, atol=1e-12)


@settings(max_examples=30)
@given(n=st.integers(1, 8), count=st.integers(2, 6), defect=st.sampled_from(["indefinite", "nan"]),
       jets=st.booleans(), data=st.data())
def test_one_bad_point_is_named_by_every_solve(n, count, defect, jets, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    bad = data.draw(st.integers(0, count - 1))
    g = _spd(rng, n, count)
    if defect == "nan":
        i, j = rng.integers(n, size=2)
        g[bad, i, j] = g[bad, j, i] = np.nan
    else:
        eig = rng.uniform(1.0, 2.0, size=n)
        eig[rng.integers(n)] *= -1.0
        Q = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(n, n)))[0]
        g[bad] = (Q * eig) @ Q.T
        g[bad] = (g[bad] + g[bad].T) / 2
    where = f" at point {bad}"
    with pytest.raises(MetricDomainError, match=f"^metric not positive definite{where}$"):
        geometry._solve(g, np.ones((count, n, 1)))
    entries = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            v = g[:, i, j]
            entries[i, j] = Jet(v, np.ones((DIM, count))) if jets else v
    b = [1.0] * n
    with pytest.raises(DegenerateLagrangianError) as err:
        mechanics._solve_mass(entries, b)
    assert str(err.value).endswith(where)
    assert str(err.value) == _mass_message(g)  # the rule's own wording
    with pytest.raises(np.linalg.LinAlgError, match=f"not positive{where}$"):
        solve(entries, b)


@pytest.mark.parametrize("raise_", [reduction.complex_structure, reduction.raise_first_index])
def test_complex_metric_is_refused_by_the_guard(raise_):
    # a Hermitian metric is solved realified; a complex one is not factored
    g = np.array([[2.0, 1j], [-1j, 2.0]])
    W = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for gv, T in ((g, W), (np.stack([g, g]), np.stack([W, W]))):
        T = T if raise_ is reduction.complex_structure else np.stack([T, T], axis=-3)
        with pytest.raises(MetricDomainError, match="complex"):
            raise_(gv, T)


def test_elimination_oracle_names_the_non_pd_point():
    x = np.array([1.0, 2.0, -0.5, 3.0])
    with pytest.raises(np.linalg.LinAlgError, match="point 2"):
        solve([[x, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError, match="point 1"):  # second pivot 1 - x
        solve([[1.0, 1.0], [1.0, np.array([2.0, 1.0, np.nan])]], [1.0, 1.0])


def _mass_message(M):
    try:
        mechanics._check_mass(M)
    except DegenerateLagrangianError as err:
        return str(err)
    return None


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


def _entry_bits(e):
    """Type, then shape, dtype and bytes of each part of a solve output."""
    parts = [e.value, e.gradient, e.hessian] if isinstance(e, Jet) else [e]
    return type(e), [None if x is None else _bits(x) for x in parts]


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "hermitian"])
@pytest.mark.parametrize("case", ["point", "batch", "identity"])
def test_metric_solve_is_the_point_first_reference(case, hermitian):
    # one point, a batch with its own right-hand sides, and a batch against
    # one broadcast identity, as the Legendre transform and x_matrices solve
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        g = _spd(rng, n, 6, hermitian)[0 if case == "point" else slice(None)]
        B = (np.eye(g.shape[-1]) if case == "identity"
             else rng.uniform(-1.0, 1.0, size=(*g.shape[:-1], 3)))
        L = np.linalg.cholesky(g)
        want = oracles.substitute(L, B)
        assert _bits(geometry._solve(g, B)) == _bits(want)
        assert _bits(geometry._solve_factored(L, B)) == _bits(want)


@pytest.mark.parametrize("columns", [0, 3], ids=["vector", "matrix"])
@pytest.mark.parametrize("count", [0, 5], ids=["point", "batch"])
@pytest.mark.parametrize("order", [None, 1, 2], ids=["values", "order1", "order2"])
def test_entry_solve_is_the_point_first_reference(order, count, columns):
    # float, array and jet entries (jets of one order, or none), one point or
    # a batch, a vector or a matrix right-hand side: values, gradients and
    # Hessians equal the point-first reference's bit for bit
    rng = np.random.default_rng(12)
    kinds = ["float", "array"] + (["jet", "jet"] if order else [])
    for n in range(1, 9):
        vals = _spd(rng, n, max(count, 1))
        A = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                kind = kinds[rng.integers(len(kinds))]
                if kind == "float":
                    vals[:, i, j] = vals[:, j, i] = vals[0, i, j]
                A[i, j] = A[j, i] = _entry(rng, vals[:, i, j], kind, order, count)
        rhs = rng.uniform(-1.0, 1.0, size=(n, max(columns, 1), max(count, 1)))
        B = [[_entry(rng, rhs[i, c], kinds[rng.integers(len(kinds))], order, count)
              for c in range(max(columns, 1))] for i in range(n)]
        if columns == 0:
            B = [row[0] for row in B]
        got = geometry._solve_entries(np.linalg.cholesky, A, B)
        want = oracles.solve_entries(np.linalg.cholesky, A, B)
        if columns == 0:
            got, want = [[x] for x in got], [[x] for x in want]
        assert [[_entry_bits(e) for e in row] for row in got] \
            == [[_entry_bits(e) for e in row] for row in want]


@pytest.mark.parametrize("count", [0, 5], ids=["point", "batch"])
@pytest.mark.parametrize("order", [None, 1, 2], ids=["values", "order1", "order2"])
def test_mass_solve_reads_a_triangle_as_its_mirror(order, count):
    # a metric field's fn gives one triangle, None below the diagonal; the
    # mass solve reads it (sign +1) as the mirrored table, bit for bit
    rng = np.random.default_rng(13)
    kinds = ["float", "array"] + (["jet", "jet"] if order else [])
    for n in range(1, 7):
        vals = _spd(rng, n, max(count, 1))
        full = np.empty((n, n), dtype=object)
        upper = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                kind = kinds[rng.integers(len(kinds))]
                if kind == "float":
                    vals[:, i, j] = vals[:, j, i] = vals[0, i, j]
                full[i, j] = full[j, i] = upper[i][j] = _entry(rng, vals[:, i, j], kind,
                                                                order, count)
        B = [_entry(rng, rng.uniform(-1.0, 1.0, size=max(count, 1)), kinds[-1], order, count)
             for _ in range(n)]
        got, want = mechanics._solve_mass(upper, B, +1), mechanics._solve_mass(full, B)
        assert [_entry_bits(e) for e in got] == [_entry_bits(e) for e in want]


def test_double_double_entries_are_refused_by_name():
    # the solves are float64 only: double-double entries (the reduced mass
    # matrix of constrain_and_reduce at dps=31) raise TypeError naming that
    # limit, not numpy's ValueError from the packer
    g2 = mechanics.constrain_and_reduce(models.build("toy-parent", 0.5).level.metric, 1)
    with pytest.raises(TypeError, match="float64 only"):
        geometry.gaussian_curvature(g2, [[0.01, 1.0]], dps=DIGITS)
    with pytest.raises(TypeError, match="float64 only"):
        geometry._solve_entries(np.linalg.cholesky, [[DD(2.0, 0.0)]], [1.0])
    assert geometry.gaussian_curvature(g2, [0.01, 1.0]) > 0.0
