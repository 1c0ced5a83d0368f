"""The structure of the package, checked on its source and on a fresh import.

Every metric solve goes through the one guarded solve,
``geometry._solve``; the jet-capable elimination ``jets.solve``, which
does not pivot, is called only behind a positive-definiteness check; no
module forms a bare inverse; and the package neither imports scipy nor
leaves ``numpy.random`` to load lazily inside a run, and its commands load
no mpmath (the tests' 40-digit oracle).  Importing runs no LAPACK, and
the records are plain classes, apart from the one dataclass the benchmark
needs.  A batch is one call: the finite-difference oracle, the sampler's
exclusions, the hygiene check and the mechanics checks keep no per-point
loop, and the mass-matrix rule computes eigenvalues only for the matrix
its Cholesky certificate cannot clear.
"""

import ast
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import hkgeo
from hkgeo import checks, cli, jets, mechanics, models
from hkgeo.sampling import Exclusion, SampleSpec, sample_points

SRC = Path(hkgeo.__file__).parent

#: (module, function) pairs allowed to call each solve.
ALLOWED = {
    "np.linalg.solve": {("geometry", "_solve")},
    "np.linalg.cholesky": {("geometry", "_solve"), ("geometry", "_cholesky_diagonal")},
    "jets.solve": {("geometry", "_solve"), ("mechanics", "_solve_mass")},
    "np.linalg.inv": set(),
}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _calls(path):
    """``(dotted callee, enclosing top-level function)`` of every call in ``path``.

    A bare ``solve`` imported from ``.jets`` reads as ``jets.solve``.
    """
    tree = ast.parse(path.read_text())
    from_jets = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "jets"
                 for alias in node.names if alias.name == "solve"}
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name in from_jets:
                    name = "jets.solve"
                yield name, owner


def test_solves_live_where_positive_definiteness_is_checked():
    seen, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        for name, owner in _calls(path):
            if name in ALLOWED:
                where = (path.stem, owner)
                seen.add(name)
                if where not in ALLOWED[name]:
                    stray.append(f"{name} in {path.name}:{owner}")
    assert stray == []
    assert seen == {name for name, where in ALLOWED.items() if where}  # the right names


def test_no_module_imports_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def _fresh(code):
    """Standard output of ``code`` run in a fresh interpreter on this source tree."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          check=True).stdout


def test_fresh_cli_import_loads_numpy_random_and_no_scipy():
    code = ("import sys, hkgeo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.random' in sys.modules)")
    assert _fresh(code).split("\n")[:2] == ["[]", "True"]


def test_sample_spec_is_the_only_dataclass():
    # the records are plain classes, not generated code; SampleSpec stays a
    # dataclass because the benchmark's tracer rebuilds it with dataclasses.replace
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    if "dataclass" in ast.unparse(target):
                        found.append(f"{path.stem}.{node.name}")
    assert found == ["sampling.SampleSpec"]


def test_quadrature_imports_without_lapack():
    # the Gauss-Kronrod table is literal: no eigenvalue solve at import
    code = ("import numpy as np\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('eigvalsh called')\n"
            "np.linalg.eigvalsh = refuse\n"
            "import hkgeo.quadrature as quad\n"
            "print(quad.integrate(lambda x: 3.0 * x * x, 0.0, 1.0).value)")
    assert float(_fresh(code)) == pytest.approx(1.0, abs=1e-15)


def test_commands_load_no_mpmath():
    code = ("import contextlib, io, sys\n"
            "import hkgeo.cli\n"
            "def mp():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath')\n"
            "seen = [mp()]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    hkgeo.cli.main(['curvature-profile'])\n"
            "    seen.append(mp())\n"
            "    hkgeo.cli.main(['verify', 'toy', '--samples', '5'])\n"
            "seen.append(mp())\n"
            "print(seen)")
    assert _fresh(code).strip() == "[[], [], []]"


def test_oracle_calls_its_field_once_per_batch():
    sizes = []

    def field(c):
        sizes.append(len(c[0]))
        return c[0] * c[1] - c[2]

    pts = np.random.default_rng(0).uniform(1.0, 2.0, size=(8, 3))
    jets.fd_oracle(field, pts, exclusions=(lambda c: c[0] > 5.0,))
    assert sizes == [8 * (1 + 2 * 3 + 4 * 3)]  # S = 1 + 2 d + 4 d (d - 1) / 2 stencil points


def test_sampler_calls_each_exclusion_once_per_block():
    seen = {"ring": [], "band": []}

    def guard(name, mask):
        def predicate(c):
            seen[name].append(len(c[0]))
            return mask(c)
        return Exclusion(name, predicate)

    spec = SampleSpec(np.array([[0.0, 3.0], [-1.0, 1.0]]), 50, 4, (
        guard("ring", lambda c: (1.0 < c[0]) & (c[0] < 2.0)),
        guard("band", lambda c: np.abs(c[1]) < 0.2)))
    assert len(sample_points(spec)) == 50
    blocks = seen["ring"]
    assert seen["band"] == blocks and blocks[0] == 50
    assert len(blocks) < 15 < sum(blocks) - 50  # a few blocks, many rejections


def test_hygiene_check_is_one_oracle_call_per_field(monkeypatch):
    batches = []

    def counted(f, p, exclusions=()):
        batches.append(np.shape(p))
        return jets.fd_oracle(f, p, exclusions)

    monkeypatch.setattr(checks, "fd_oracle", counted)
    ctx = checks.CheckContext(seed=2, samples=100, a=1.0)
    checks.check_hygiene_jets_vs_fd(ctx, ctx.rng("hygiene.jets_vs_finite_differences"))
    assert [b[0] for b in batches] == [8] * len(models.scalar_fields(1.0)) == [8] * 15


def test_roundtrip_check_is_one_qr_per_dimension(monkeypatch):
    shapes = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    ctx = checks.CheckContext(seed=1, samples=1500, a=1.0)
    checks.check_mech_roundtrip(ctx, ctx.rng("mechanics.legendre_roundtrip"))
    assert sorted(s[-1] for s in shapes) == [2, 3, 4]  # one stack per dimension
    assert sum(s[0] for s in shapes) == 750


def test_conserved_check_evaluates_each_hamiltonian_jet_once(monkeypatch):
    calls = []
    hamiltonian_field = mechanics.hamiltonian_field

    def counted(L):
        H = hamiltonian_field(L)
        k = len(calls)
        calls.append(0)

        def h(coords):
            calls[k] += 1
            return H(coords)

        return h

    monkeypatch.setattr(mechanics, "hamiltonian_field", counted)
    ctx = checks.CheckContext(seed=1, samples=100, a=1.0)
    checks.check_mech_conserved(ctx, ctx.rng("mechanics.conserved_momenta"))
    assert calls == [1, 1]  # toy-parent and r8-parent, two cyclic momenta each


@pytest.mark.parametrize("argv", [["verify", "mechanics", "--samples", "1500", "--seed", "1"],
                                  ["verify", "all", "--samples", "100", "--seed", "2"]],
                         ids=["mechanics", "all"])
def test_only_the_singular_control_computes_eigenvalues(monkeypatch, argv):
    callers = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        callers.append((np.shape(a), [f.name for f in traceback.extract_stack()]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert cli.main(argv) == 0
    assert [shape for shape, _ in callers] == [(2, 2)]
    assert "check_mech_singular" in callers[0][1]
