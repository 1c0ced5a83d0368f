"""Where the linear solves of the package live, checked on its source.

Every metric solve goes through the one guarded solve,
``geometry._solve``; the jet-capable elimination ``jets.solve``, which
does not pivot, is called only behind a positive-definiteness check; and
no module forms a bare inverse.
"""

import ast
from pathlib import Path

import hkgeo

SRC = Path(hkgeo.__file__).parent

#: (module, function) pairs allowed to call each solve.
ALLOWED = {
    "np.linalg.solve": {("geometry", "_solve")},
    "np.linalg.cholesky": {("geometry", "_solve"), ("geometry", "_finite_per_matrix")},
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
