"""The structure of the package, checked on its source and on a fresh import.

The package is what its commands run.  Six commands (``verify`` of
``all`` twice and of ``mechanics``, ``curvature-profile`` at both
precisions, ``report-schema``), traced in one fresh interpreter, enter
every public function and method, and run every statement of every
function body but those of two kinds.  An error path is exempt by rule:
a ``raise``, a ``warnings.warn(...)``, any statement of an ``if`` branch or
``except`` handler that ends in one, and the methods of an exception
class.  Every other statement no command runs is listed in ``UNRUN``,
counted per function, with the reason it stays and the test that runs
it.  The references and fixtures that only the tests need live in
``tests/oracles.py``.
Every positive-definite solve factors its matrices once: only
``geometry._cholesky`` calls ``np.linalg.cholesky``, the guards read that
factor and the solves substitute with it, so no module calls an LU solve
or forms a bare inverse; every substitution runs on C-contiguous arrays
with the point axes last.  One packer, ``fields._pack``, turns every
table of entries into arrays: it alone reads where a jet's rows go, and it
and the contraction alone walk a triangle.  The package neither imports scipy
nor leaves ``numpy.random`` to load lazily inside a run.  It has one
number system besides float64, double-double: no module imports mpmath
(the tests' 60-digit curvature oracle), at any level, or keeps an
object-dtype branch, and its commands load no mpmath, nor argparse,
gettext or locale.
Importing runs no LAPACK, and the records are plain classes of one
read-only base, apart from the one dataclass the benchmark needs.  A
batch is one call: the finite-difference oracle, the sampler's
exclusions, the hygiene check and the mechanics checks keep no per-point
loop, and the mass-matrix rule computes eigenvalues only for the matrix
its Cholesky certificate cannot clear.  A verify run computes each quantity once: one model build per
``(name, a)``, one connection per metric and point set, one Jacobian per
map and point set, singular values only for a Jacobian stack the rank
guard's Cholesky certificate cannot clear, no field value, jet or
Jacobian asked twice at the same points, no model built outside
``models.build``, and each finite-difference stencil built once per
``(d, order)``.
Each reduction stage is one check of ``checks.py``, run on both reduction
models.  Each acceptance claim is one row of ``checks.CLAIMS``, whose
measures return only an array of per-item errors, which ``run_suite``
alone reduces to a worst error and a sample count; a level set or a
Cartesian picture is a ``Model`` of its own.  Every module but ``checks``
lists its public functions and classes in ``__all__``.  ``src/`` stays
under a code-line ceiling, so growth shows in the diff, and every
package name the README puts in backticks exists.  Every argument check
at a public entry raises its typed error, and a test reaches it.
"""

import ast
import collections
import functools
import importlib
import json
import os
import re
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hkgeo
from hkgeo import checks, cli, fields, geometry, jets, kahler, mechanics, models, reduction
from hkgeo.ddouble import DD
from hkgeo.fields import EmbeddingMap
from hkgeo.jets import call_field
from hkgeo.sampling import Exclusion, SampleSpec, sample_points

import oracles

SRC = Path(hkgeo.__file__).parent

#: (module, function) pairs allowed to call each solve.
ALLOWED = {
    "np.linalg.solve": set(),
    "np.linalg.cholesky": {("geometry", "_cholesky")},
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
    """``(dotted callee, enclosing top-level function)`` of every call in ``path``."""
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield _dotted(node.func), owner


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



def test_each_reduction_stage_is_one_check():
    # the toy and Taub-NUT reductions run the same stages; each stage is
    # written once in checks.py and run on both models
    stages = ("reduction.quotient_form", "mechanics.constrain_and_reduce",
              "mechanics.hamiltonian_field", "mechanics.poisson_bracket")
    owners = {stage: set() for stage in stages}
    for name, owner in _calls(SRC / "checks.py"):
        if name in owners:
            owners[name].add(owner)
    assert {stage: len(found) for stage, found in owners.items()} == dict.fromkeys(stages, 1)


def _imported(node):
    """Top-level names of the packages an import statement imports; none for
    any other node."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").split(".")[0]]
    return []


def test_one_packer_reads_jet_rows_and_triangles():
    # a table of entries becomes arrays in one place: outside the jets
    # themselves, only fields._pack reads where a jet's rows go, and only the
    # packer and the contraction (which sums a 2-form's triangle) walk a
    # triangle
    rows, triangles = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                where = (path.stem, getattr(top, "name", None))
                if (isinstance(node, ast.Attribute) and node.attr == "rows"
                        and path.stem != "jets"):
                    rows.add(where)
                if isinstance(node, ast.Call) and _dotted(node.func) == "_triangle":
                    triangles.add(where)
    assert rows == {("fields", "_pack")}
    assert triangles == {("fields", "_pack"), ("reduction", "contraction_field")}


def test_no_module_imports_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            found += [f"{path.name}: {n}" for n in _imported(node) if n == "scipy"]
    assert found == []


def test_one_number_system_besides_float64():
    # double-double is the only extended precision: no module imports
    # mpmath, at any level (inside functions too), or branches on an object
    # dtype (``x.dtype == object``, ``dtype != object``, ...)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            found += [f"{path.name}: {n}" for n in _imported(node) if n == "mpmath"]
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(isinstance(x, ast.Name) and x.id == "object" for x in sides)
                        and any("dtype" in ast.unparse(x) for x in sides)):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_every_public_definition_is_exported():
    # each module but checks (whose measures are reached through CLAIMS)
    # lists every public top-level function and class in its __all__
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "checks":
            continue
        tree = ast.parse(path.read_text())
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        missing += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in exported]
    assert missing == []


def _resolves(obj, attrs):
    """``getattr`` down ``attrs`` from ``obj`` succeeds, the last step possibly
    on an instance attribute that a class's ``__init__`` sets."""
    for i, attr in enumerate(attrs):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
            continue
        code = getattr(getattr(obj, "__init__", None), "__code__", None)
        return (isinstance(obj, type) and i == len(attrs) - 1
                and code is not None and attr in code.co_names)
    return True


#: Bare backticked words of the README that are not package names: Python,
#: C and numpy names, symbols of the formulas, suite and row names, report
#: keys, and attributes or parameters named on their own.
README_WORDS = {
    "None", "TypeError", "ValueError", "ZeroDivisionError", "FloatingPointError",
    "OverflowError", "eigh", "eigvalsh", "matrix_rank", "max", "math",
    "pow", "or", "null", "__slots__", "all", "NPY_DISABLE_CPU_FEATURES", "X86_V3",
    "C", "J", "L", "a", "d", "f", "fs", "g", "i", "l", "w",
    "heavenly", "toy", "taubnut", "moment_recovery", "monopole_curl",
    "check_id", "description", "samples", "max_abs_error", "tolerance", "passed",
    "elapsed_ms", "error",
    "cartesian", "chart", "level", "targets", "converged", "neval", "value", "limit",
    "dps", "radius", "measure", "raise", "if", "except",
}


def test_readme_names_resolve():
    # a backticked `module.name` of the package (`hkgeo.` optional) or of
    # the tests' `oracles`, or `Class.attr` of a class the package exports,
    # names something that exists.  Any capitalised head counts as a class,
    # so a deleted class's names fail; other dotted spans (numpy, check ids,
    # local variables) are skipped.  A bare backticked word is a module, a
    # name some module exports in ``__all__``, or one of README_WORDS,
    # every one of which the README uses
    modules = {p.stem: importlib.import_module(f"hkgeo.{p.stem}")
               for p in SRC.glob("*.py") if p.stem != "__init__"}
    modules["oracles"] = oracles
    classes = {name: getattr(mod, name) for mod in modules.values()
               for name in getattr(mod, "__all__", ())
               if isinstance(getattr(mod, name), type)}
    readme = re.sub(r"```.*?```", "", (SRC.parent.parent / "README.md").read_text(),
                    flags=re.S)  # the fenced blocks, whose backticks pair up wrongly
    spans = {m.group(1) for m in (re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)+)(?:\(.*\))?", s)
                                  for s in re.findall(r"`([^`]+)`", readme)) if m}
    resolved = {}  # span -> whether it resolves, for the package's spans only
    for span in sorted(spans):
        head, *attrs = span.removeprefix("hkgeo.").split(".")
        if head in modules:
            resolved[span] = _resolves(modules[head], attrs)
        elif head[0].isupper():
            resolved[span] = head in classes and _resolves(classes[head], attrs)
    assert len(resolved) > 30
    assert [span for span, ok in resolved.items() if not ok] == []
    words = {m.group(1) for m in (re.fullmatch(r"([A-Za-z_]\w*)(?:\(.*\))?", s)
                                  for s in re.findall(r"`([^`]+)`", readme)) if m}
    exported = set(modules).union(*(getattr(mod, "__all__", ()) for mod in modules.values()))
    assert len(words & exported) > 50
    assert sorted(words - exported - README_WORDS) == []
    assert sorted(README_WORDS - words) == []


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


def test_jets_define_one_arithmetic_class():
    # derivative order is data (a Hessian or None), not a choice of class
    arithmetic = {"__add__", "__mul__", "__neg__", "__truediv__", "__pow__"}
    found = [node.name for node in ast.walk(ast.parse((SRC / "jets.py").read_text()))
             if isinstance(node, ast.ClassDef)
             and arithmetic & {f.name for f in node.body if isinstance(f, ast.FunctionDef)}]
    assert found == ["Jet"]


def test_one_float_arithmetic_for_fields():
    # a Python float, a numpy scalar and a batch all take numpy's elementary
    # functions; a double-double has none and is refused
    for x in (0.5, np.float64(0.5), np.array([0.5, 1.5])):
        assert jets._mathmod(x) is np
    assert type(jets.atan2(0.5, 2.0)) is type(jets.power(0.5, 3)) is np.float64
    with pytest.raises(TypeError, match="rational only"):
        jets._mathmod(DD(0.5, 0.0))


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


def test_commands_load_no_argparse():
    # the commands parse their arguments from cli.OPTIONS: no argparse, nor
    # the gettext and locale modules that argparse loads
    code = ("import contextlib, io, sys\n"
            "import hkgeo.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    hkgeo.cli.main(['curvature-profile'])\n"
            "    hkgeo.cli.main(['verify', 'toy', '--samples', '5'])\n"
            "    hkgeo.cli.main(['report-schema'])\n"
            "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))")
    assert _fresh(code).strip() == "[]"


#: Public functions and methods that no command enters, each with the reason
#: it stays in the package.
UNENTERED = {}

#: Runs the six commands, at small sizes, under one ``sys.settrace`` and
#: prints, as JSON, ``never``: the public functions and methods of ``hkgeo``
#: that none of them entered (module functions and the methods, properties
#: and class or static methods of the classes a module defines, with those
#: they inherit from a package-private base, one whose name starts with
#: ``_``, without dunders, the machinery a NamedTuple or dataclass
#: generates, or exception classes), and ``ran``: the lines of each module
#: that ran, by module name.
_TRACE = """
import contextlib, importlib, inspect, io, json, os, pkgutil, sys, tempfile
import hkgeo, hkgeo.cli

ROOT = os.path.dirname(hkgeo.__file__) + os.sep
entered, ran = set(), set()

def line(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    if frame.f_code.co_filename.startswith(ROOT):
        entered.add(frame.f_code)
        return line

with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    sys.settrace(call)
    for argv in (["verify", "all", "--samples", "5", "--json", os.path.join(tmp, "r.json")],
                 ["verify", "all", "--samples", "5", "--seed", "7", "--a", "2"],
                 ["verify", "mechanics", "--samples", "20", "--seed", "1"],
                 ["curvature-profile", "--rmax", "0.04", "--steps", "4"],
                 ["curvature-profile", "--rmax", "9.5", "--steps", "4"],
                 ["report-schema"]):
        hkgeo.cli.main(argv)
    sys.settrace(None)

def code(obj):  # a property's getter, a class or static method's function
    obj = obj.fget if isinstance(obj, property) else getattr(obj, "__func__", obj)
    return obj.__code__ if inspect.isfunction(obj) else None

never, lines = [], {}
for info in pkgutil.iter_modules(hkgeo.__path__):
    mod = importlib.import_module("hkgeo." + info.name)
    lines[info.name] = sorted(n for path, n in ran if path == mod.__file__)
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        members = {name: obj}
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            bases = [b for b in reversed(obj.__mro__) if b is obj or (
                b.__module__.startswith("hkgeo.") and b.__name__.startswith("_"))]
            members = {f"{name}.{attr}": raw for b in bases for attr, raw in vars(b).items()
                       if not attr.startswith("_")}
        never += [f"{info.name}.{key}" for key, raw in members.items()
                  if code(raw) is not None and code(raw) not in entered]
print(json.dumps({"never": sorted(never), "ran": lines}))
"""


@functools.cache
def _reach():
    """What the six commands run, from one traced child shared by the tests
    that read it."""
    return json.loads(_fresh(_TRACE))


def test_commands_enter_every_public_function():
    # what no command runs is deleted, or moved to tests/oracles.py if a test
    # needs it as a reference, or listed in UNENTERED with its reason
    assert _reach()["never"] == sorted(UNENTERED)


def _is_error_statement(node):
    """A ``raise`` or a ``warnings.warn(...)`` statement."""
    return isinstance(node, ast.Raise) or (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and _dotted(node.value.func) == "warnings.warn")


def _blocks(node):
    """``(block, on the error path)`` for each statement list directly under
    ``node``: a branch of an ``if`` or an ``except`` handler is on the error
    path when it ends in an error statement."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(node, name, [])
        yield block, isinstance(node, ast.If) and bool(block) and _is_error_statement(block[-1])
    for handler in getattr(node, "handlers", []):
        yield handler.body, _is_error_statement(handler.body[-1])


def _own_lines(node):
    """The lines of statement ``node`` without those of the statements under
    it: a compound statement's decorators and header."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    last = max(body[0].lineno - 1, node.lineno) if isinstance(body, list) else node.end_lineno
    return range(first, last + 1)


def _function_statements(module):
    """``(qualname, own lines)`` of every statement in a function body of
    ``hkgeo.<module>`` that runs some code and that the error-path rule does
    not exempt.  The qualname names the innermost function and its
    enclosing classes and functions, ``Jet.__pow__``.  The rule exempts an
    error statement (``raise``, ``warnings.warn(...)``), every statement of a
    branch or ``except`` handler that ends in one, and the methods of an
    exception class."""
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text())
    stack, executable = [compile(tree, str(path), "exec")], set()
    while stack:
        code = stack.pop()
        executable.update(n for _, _, n in code.co_lines() if n)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]

    def walk(body, names, scope, in_function, exempt):
        for node in body:
            if (in_function and not exempt and not _is_error_statement(node)
                    and set(_own_lines(node)) & executable):
                yield ".".join(names), _own_lines(node)
            if isinstance(node, ast.ClassDef):
                cls = getattr(scope, node.name, None)
                exception = isinstance(cls, type) and issubclass(cls, BaseException)
                yield from walk(node.body, names + [node.name], cls, False, exempt or exception)
            elif isinstance(node, ast.FunctionDef):
                yield from walk(node.body, names + [node.name], None, True, exempt)
            else:
                for block, error_path in _blocks(node):
                    yield from walk(block, names, None, in_function, exempt or error_path)

    return walk(tree.body, [], importlib.import_module(f"hkgeo.{module}"), False, False)


#: Statements of function bodies that no command runs, outside the
#: error-path rule: ``"module.qualname": (count, reason)``, the reason naming
#: the test that runs them.
UNRUN = {
    # the record contract the README states: repr, equality, hash, copying
    "_record._field_equal": (3, "equality of records; test_records.py"),
    "_record.Frozen.__repr__": (2, "records print their fields; test_records.py"),
    "_record.Frozen.__eq__": (3, "records equal over their fields; test_records.py"),
    "_record.Frozen.__hash__": (1, "records hash over their fields; test_records.py"),
    "_record.Frozen.__reduce__": (1, "records copy and pickle; test_records.py"),
    "fields.Field.__repr__": (1, "names a field in messages and counts; "
                              "test_a_run_evaluates_no_field_twice_at_the_same_points"),
    "jets.Jet.__repr__": (1, "shows a jet; test_jet_repr_names_value_dim_support_and_order"),
    # closure of the number systems: every rule a field may be written with
    "ddouble.DD.__pow__": (7, "rational fields written with ** at double-double precision; "
                           "test_integer_powers_in_a_field"),
    "jets.Jet.__pow__": (2, "x ** 0 and x ** 1, where the general rule may divide by zero; "
                         "test_lifted_constants_take_the_jet_order, "
                         "test_first_power_is_the_jet_itself"),
    "jets.Jet._lift": (1, "a constant in a jet's order and arithmetic, for ** 0 and atan2; "
                       "test_lifted_constants_take_the_jet_order"),
    "jets.atan2": (2, "atan2 of a jet and a constant; "
                   "test_lifted_constants_take_the_jet_order"),
    "jets.evaluate_jet": (1, "a field that returns a constant; "
                          "test_constant_field_jet_and_reflected_double_double_subtraction"),
    # a product of jets of different supports: the public gaussian_curvature
    # at dps=31 of a metric whose entries depend on both coordinates
    "jets._pair": (2, "jets of different supports; "
                   "test_a_metric_without_zero_entries_reads_every_entry"),
    "jets._widen": (1, "jets of different supports; "
                    "test_double_double_jet2_product_matches_outer_products"),
    "jets._embed": (3, "jets of different supports; "
                    "test_double_double_jet2_product_matches_outer_products"),
    # the order-2 solve: default-order jets of constrain_and_reduce's metrics
    "geometry._solve_entries": (2, "order-2 jets of a solve; test_solve_batch_equals_points"),
    "geometry._solve_entries.hessians": (1, "order-2 jets of a solve; "
                                         "test_solve_batch_equals_points"),
    # stacks the Cholesky certificate cannot clear
    "geometry._cholesky": (2, "a stack numpy refuses is factored in halves; "
                           "test_refused_stack_is_factored_in_halves"),
    "mechanics._check_mass": (2, "mass matrices judged by their eigenvalues; "
                              "test_certificate_decides_as_the_eigenvalues"),
    "reduction._jacobian_checked": (3, "Jacobians judged by matrix_rank; "
                                    "test_certified_rank_guard_warns_as_matrix_rank"),
    # documented inputs
    "jets.fd_oracle": (1, "the oracle at one point; test_fd_matches_jets"),
    "cli._cmd_curvature_profile": (1, "--csv; test_curvature_profile_csv"),
    "cli.main": (4, "-h and the exit code 2 of a configuration error; "
                 "test_help_prints_the_usage, test_bad_config_exits_2"),
    # report paths: what a failing or crashing check shows
    "checks.run_suite": (2, "a crashing check is a failed row; "
                         "test_raising_check_is_a_failed_row"),
    "cli._cmd_verify": (1, "the crash row's message; test_raising_check_is_a_failed_row"),
    "checks._rejected": (1, "an undetected defect scores 1; "
                         "test_negative_control_fails_when_its_detection_is_patched_out"),
    "jets.first_failure": (2, "the first failing point of a batch, for its caller's error; "
                           "test_nan_fiber_in_batch_names_the_point"),
    "reduction.recover_moment_map.segment": (
        1, "the failing segment of a batch, for its errors; "
           "test_non_closed_or_unconverged_segment_is_named"),
}


def test_commands_run_every_statement():
    # a statement that no command runs is deleted, moved to tests/ if only a
    # test needs it, or listed in UNRUN; error paths are exempt by rule
    unrun = {}
    for path in sorted(SRC.glob("*.py")):
        ran = set(_reach()["ran"].get(path.stem, ()))
        for name, lines in _function_statements(path.stem):
            if not ran.intersection(lines):
                unrun.setdefault(f"{path.stem}.{name}", []).append(lines[0])
    counts = {key: count for key, (count, _) in UNRUN.items()}
    assert {key: len(at) for key, at in unrun.items()} == counts, {
        key: at for key, at in unrun.items() if len(at) != counts.get(key)}
    tests = "".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py"))
    named = {name for _, why in UNRUN.values()
             for name in re.findall(r"\btest_\w+\b(?!\.)", why)}
    assert sorted(name for name in named if f"def {name}(" not in tests) == []


_PLANE, _SPACE = fields.Chart(("x", "y")), fields.Chart(("x", "y", "z"))
_ONE_FORM = fields.FormField(_PLANE, 1, lambda c: [c[1], c[0]])
_ROUND = fields.VectorFieldR(_PLANE, lambda c: [-c[1], c[0]])
_FLAT3 = fields.MetricField(_SPACE, lambda c: np.eye(3).tolist())

#: Every argument check at a public entry: (call, typed error, message fragment).
ARGUMENT_ERRORS = [
    (lambda: checks.run_suite("no-such-suite"), KeyError, "unknown suite 'no-such-suite'"),
    (lambda: fields.FormField(_PLANE, 3, lambda c: 0.0), ValueError,
     "only degree-1 and degree-2 forms"),
    (lambda: EmbeddingMap(_PLANE, _SPACE, lambda c: [c[0], c[1]]).value([0.5, 0.5]),
     ValueError, "map produced 2 components for target"),
    (lambda: geometry.gaussian_curvature(_FLAT3, [0.0, 0.0, 0.0]), ValueError,
     "gaussian_curvature expects a 2-dimensional metric"),
    (lambda: geometry.euler_characteristic(_FLAT3), ValueError,
     "euler_characteristic expects a 2-dimensional metric"),
    (lambda: jets.fd_oracle(lambda c: c[0], [0.5, 0.5], order=3), ValueError,
     "jet order must be 1 or 2, not 3"),
    (lambda: kahler.symplectic_matrix(3), ValueError, "need even n >= 2, got 3"),
    (lambda: kahler.sp_generators(3), ValueError, "need even n >= 2, got 3"),
    (lambda: kahler.coset_exponential(np.zeros(2), kahler.sp_generators(2)), ValueError,
     "coefficients (2,) for 3 generators"),
    (lambda: mechanics.constrain_and_reduce(_FLAT3, 3), ValueError,
     "fiber index 3 outside 0..2"),
    (lambda: reduction.contraction_field(_ONE_FORM, _ROUND), ValueError,
     "defined here for degree-2 forms"),
    (lambda: reduction.recover_moment_map(_ONE_FORM, [0.0, 0.0], [0.5, 0.5, 0.5]),
     ValueError, "base and target points live on different charts"),
]


@pytest.mark.parametrize("call, error, fragment", ARGUMENT_ERRORS)
def test_argument_errors_are_typed(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)


def test_constant_field_jet_and_reflected_double_double_subtraction():
    # a field that returns a constant (no command's field does: UNRUN lists
    # the branch), and a float minus a double-double
    jet = jets.evaluate_jet(lambda c: 2.5, [0.5, -0.5])
    assert jet.value == 2.5 and np.array_equal(jet.gradient, [0.0, 0.0])
    assert np.array_equal(jet.hessian, np.zeros((2, 2)))
    x = DD(1.0 / 3.0, 1.0 / 3.0 * 2.0 ** -54)
    got, want = 1.0 - x, DD(1.0, 0.0) - x
    assert (got.hi, got.lo) == (want.hi, want.lo) and got.hi == 2.0 / 3.0


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
    # each component of the coordinate change is its own field: only the
    # angle's evaluates the angle's atan2
    calls = []
    atan2 = jets.atan2
    monkeypatch.setattr(jets, "atan2", lambda y, x: calls.append(1) or atan2(y, x))
    fns = {spec.name: spec.fn for spec in models.scalar_fields(1.0)}
    pts = np.random.default_rng(2).uniform(0.5, 1.5, size=(8, 4))
    for name in ("gh-x1", "gh-x2", "gh-x3", "gh-angle"):
        jets.evaluate_jet(fns[name], pts)
    assert calls == [1]


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


def test_verify_all_builds_each_stencil_once(monkeypatch):
    # fd_oracle asks for its stencil on every call; a run builds each
    # (d, order) once (one np.triu_indices per build) and reuses it after
    asked, built = [], []
    stencil, triu = jets._stencil, np.triu_indices

    def counted(*args, **kwargs):
        built.append(args)
        return triu(*args, **kwargs)

    def asking(d, order):
        asked.append((d, order))
        return stencil(d, order)

    stencil.cache_clear()
    monkeypatch.setattr(np, "triu_indices", counted)
    monkeypatch.setattr(jets, "_stencil", asking)
    checks.run_suite("all", seed=0, samples=20)
    assert len(built) == len(set(asked)) < len(asked)


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
    (measure,) = [row[3] for row in checks.CLAIMS if row[0] == "mechanics.conserved_momenta"]
    measure(ctx, ctx.rng("mechanics.conserved_momenta"))
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


def _counting(monkeypatch, names):
    """Count the calls of ``np.linalg.<name>`` for each name, from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, f=getattr(np.linalg, name), **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_one_factorisation_per_positive_definite_solve(monkeypatch):
    # the mass-matrix certificate's Cholesky factor is the solve's factor:
    # no second guard, no LU, no eigenvalues, on a batch as on one point
    m = models.build("r8-parent", 1.0)
    L = m.level.metric
    q = m.level.sample(100, 3)
    coords = np.concatenate([q, np.random.default_rng(3).normal(size=q.shape)], axis=1)
    names = ("cholesky", "solve", "eigvalsh")
    counts = _counting(monkeypatch, names)
    mechanics.legendre_to_hamiltonian(L, q)
    assert counts == {"cholesky": 1, "solve": 0, "eigvalsh": 0}
    counts.update(dict.fromkeys(names, 0))
    call_field(mechanics.hamiltonian_field(L), coords)
    assert counts == {"cholesky": 1, "solve": 0, "eigvalsh": 0}


@pytest.mark.parametrize("argv", [["verify", "mechanics", "--samples", "1500", "--seed", "1"],
                                  ["verify", "all", "--samples", "100", "--seed", "2"]],
                         ids=["mechanics", "all"])
def test_no_command_calls_an_lu_solve(monkeypatch, argv):
    counts = _counting(monkeypatch, ("solve",))
    assert cli.main(argv) == 0
    assert counts == {"solve": 0}


@pytest.mark.parametrize("argv", [["verify", "mechanics", "--samples", "1500", "--seed", "1"],
                                  ["verify", "all", "--samples", "100", "--seed", "2"]],
                         ids=["mechanics", "all"])
def test_substitution_runs_point_axes_last(monkeypatch, argv):
    # every right-hand side reaches the substitution as one C-contiguous
    # array (d, m, *batch), the batch axes last, like the factor (d, d, *batch),
    # and every array of it is real float64
    seen = []
    substitute = geometry._substitute

    def checked(U, d2, X):
        seen.append(X.shape[2:])
        assert U.dtype == d2.dtype == X.dtype == np.float64
        assert X.flags.c_contiguous and U.flags.c_contiguous
        assert X.ndim == U.ndim and X.shape[0] == U.shape[0] == U.shape[1]
        assert np.broadcast_shapes(U.shape[2:], d2.shape[1:], X.shape[2:]) == X.shape[2:]
        return substitute(U, d2, X)

    monkeypatch.setattr(geometry, "_substitute", checked)
    assert cli.main(argv) == 0
    assert any(len(batch) and batch[-1] > 1 for batch in seen)


def test_double_double_jets_carry_only_the_radius(monkeypatch):
    # the toy quotient's sphere metric depends on r alone, so every jet its
    # double-double curvature makes carries r's derivatives or none; the
    # angle's seed, which the metric never reads, is the one exception
    made, seeds = [], []
    init, variable = jets.Jet.__init__, jets.Jet.variable

    def recorded(jet, *args):
        init(jet, *args)
        made.append(jet)

    def seed(cls, *args):
        jet = variable(*args)
        seeds.append(jet)
        return jet

    monkeypatch.setattr(jets.Jet, "__init__", recorded)
    monkeypatch.setattr(jets.Jet, "variable", classmethod(seed))
    assert cli.main(["curvature-profile", "--a", "1.3", "--rmax", "0.04", "--steps", "50"]) == 0
    rules = [j for j in made if isinstance(j.value, DD) and not any(j is s for s in seeds)]
    assert len(rules) > 3 and {j.support for j in rules} <= {(0,), ()}
    assert sorted(s.support for s in seeds if isinstance(s.value, DD)) == [(0,), (1,)]


def test_a_run_computes_each_quantity_once(monkeypatch):
    # one construction per (name, a), one connection per metric and point
    # set, one Jacobian per map and point set, and no singular values (the
    # rank guard's certificate clears every Jacobian).  Counted on the module
    # and class attributes, as the benchmark's tracer wraps them, so a
    # reference captured at import would escape the count.  A construction
    # is a builder called through ``REGISTRY``, which only ``build`` reads; a
    # builder called by its module name is a build that bypasses ``build``
    counts = _counting(monkeypatch, ("matrix_rank",))
    for owner, name in ((geometry, "christoffel"), (EmbeddingMap, "jet")):
        def counted(*args, name=name, f=getattr(owner, name), **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return f(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    constructed, direct = collections.Counter(), collections.Counter()
    for key, builder in models.REGISTRY.items():
        def registered(a, key=key, f=builder):
            constructed[key, a] += 1
            return f(a)

        def bypassing(*args, f=builder):
            direct[f.__name__] += 1
            return f(*args)

        monkeypatch.setitem(models.REGISTRY, key, registered)
        monkeypatch.setattr(models, builder.__name__, bypassing)
    assert checks.run_suite("all", seed=2, samples=100).all_passed
    assert counts == {"matrix_rank": 0, "christoffel": 4, "jet": 6}
    assert direct == {}
    assert len(constructed) == 7 and set(constructed.values()) == {1}
    # the reuse ends with the run: outside one, build builds afresh
    assert models.build("toy-parent", 1.0) is not models.build("toy-parent", 1.0)


#: The fields a verify run evaluates twice at the same points (seed 2,
#: samples 100), with the row that does it: each reads the field's values
#: beside ``covariant_derivative_02``, which returns derivatives only.
EVALUATED_TWICE = [
    ("MetricField(reduced 2-metric)", (20, 2)),  # toy.quotient_complex_structure
    ("FormField(omega tilde)", (20, 2)),  # toy.quotient_complex_structure
    ("MetricField(taub-nut)", (100, 4)),  # taubnut.hyperkahler
    ("FormField(omega_I)", (100, 4)),  # taubnut.hyperkahler
    ("FormField(omega_J)", (100, 4)),  # taubnut.hyperkahler
    ("FormField(omega_K)", (100, 4)),  # taubnut.hyperkahler
]


def test_a_run_evaluates_no_field_twice_at_the_same_points(monkeypatch):
    # a verify run asks each field or map for its values or its jet once per
    # set of points, whatever the method and order (a jet carries the values
    # too), keyed by the field and the points; EVALUATED_TWICE are the
    # exceptions
    seen = collections.Counter()
    for name in ("value", "jet"):
        def counted(obj, p, *args, f=getattr(fields.Field, name), **kwargs):
            a = np.asarray(getattr(p, "hi", p))
            seen[id(obj), repr(obj), a.shape, a.tobytes()] += 1
            return f(obj, p, *args, **kwargs)

        monkeypatch.setattr(fields.Field, name, counted)
    assert checks.run_suite("all", seed=2, samples=100).all_passed
    assert sum(seen.values()) > 90
    assert [key[1:3] for key, n in seen.items() if n > 1] == EVALUATED_TWICE


def _linear_map(J):
    """A map whose Jacobian is ``J`` ``(M, k)`` or ``(B, M, k)``, for the rank
    guard: its order-1 jet, ``(image, J transposed, None)``."""
    def jet(p, order):
        return np.zeros(J.shape[:-1]), np.swapaxes(J, -1, -2), None

    return SimpleNamespace(jet=jet, source=SimpleNamespace(dim=J.shape[-1]), name="linear")


@settings(max_examples=150)
@given(k=st.integers(1, 5), extra=st.integers(0, 3), batch=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1), defect=st.sampled_from([None, "rank", "tiny"]),
       everywhere=st.booleans())
def test_certified_rank_guard_warns_as_matrix_rank(k, extra, batch, seed, defect,
                                                   everywhere):
    # a stack of ``batch`` Jacobians (one for 0) with orthogonal columns of
    # lengths in [1, 2], made rank deficient or with one column scaled by
    # 1e-17 at its middle point or at every point; singular values are
    # computed only for a stack the certificate cannot clear
    rng = np.random.default_rng(seed)
    J = np.linalg.qr(rng.normal(size=(max(batch, 1), k + extra, k)))[0]
    J *= rng.uniform(1.0, 2.0, size=(len(J), 1, k))
    for b in range(len(J)) if everywhere else [len(J) // 2]:
        col = rng.integers(k)
        if defect == "rank":
            J[b, :, col] = J[b] @ np.where(np.arange(k) == col, 0.0, rng.normal(size=k))
        elif defect == "tiny":
            J[b, :, col] *= 1e-17
    J = J if batch else J[0]
    p = np.zeros(J.shape[:-2] + (k,))
    deficient = defect == "rank" or defect == "tiny" and k > 1  # one column has rank 1
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(
            np.linalg, "matrix_rank", wraps=np.linalg.matrix_rank) as svd:
        warnings.simplefilter("always")
        assert reduction._jacobian_checked(_linear_map(J), p)[1].tobytes() == J.tobytes()
    assert svd.call_count == deficient
    failure = jets.first_failure(np.linalg.matrix_rank(J) >= k, p)
    want = [] if failure is None else [f"jacobian of linear is rank deficient{failure[1]}"]
    assert [str(w.message) for w in caught
            if w.category is reduction.DegeneratePullbackWarning] == want
    assert (failure is not None) == deficient


def test_claim_ids_are_unique():
    ids = [row[0] for row in checks.CLAIMS]
    assert len(set(ids)) == len(ids) == 38


def test_every_suite_row_is_a_claims_row():
    assert list(checks.SUITES) == list(checks.SUITE_NAMES)
    assert checks.SUITES["all"] == checks.CLAIMS
    for rows in checks.SUITES.values():
        assert rows == [claim for claim in checks.CLAIMS if any(claim is r for r in rows)]


def test_no_check_states_a_tolerance_or_a_description():
    # a measure returns one array of per-item errors, never a tuple (no worst
    # error, sample count or claim text of its own), and takes no claim text:
    # each tolerance and description is stated once, in its row of CLAIMS.
    # Walks the top-level functions and assignments (the lambdas of CLAIMS),
    # not the records' methods.
    tree = ast.parse((SRC / "checks.py").read_text())
    found = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.Assign)):
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                params = {arg.arg for arg in node.args.args}
                found += [f"line {node.lineno}: parameter {name}"
                          for name in params & {"tol", "tolerance", "description"}]
            value = (node.value if isinstance(node, ast.Return)
                     else node.body if isinstance(node, ast.Lambda) else None)
            if isinstance(value, ast.Tuple):
                found.append(f"line {node.lineno}: returns {ast.unparse(value)}")
    assert found == []


def test_level_sets_and_cartesian_pictures_are_models():
    # a level set or a Cartesian picture is a Model of its own, not string
    # keys of a side dict: the only dict fields are the four named ones
    built = {name: models.build(name, 1.0) for name in models.MODEL_NAMES}
    for m in built.values():
        for sub in (m, m.level, m.cartesian):
            assert sub is None or isinstance(sub, models.Model)
            if sub is not None:
                dicts = {f for f in sub.__slots__ if isinstance(getattr(sub, f), dict)}
                assert dicts == {"forms", "killing", "embeddings", "targets"}
    assert {n for n, m in built.items() if m.level} == {"toy-parent", "r8-parent"}
    assert {n for n, m in built.items() if m.cartesian} == {"gh-flat", "r8-parent"}


def _code_lines(path):
    """Lines of ``path`` that are not blank, not a ``#`` comment and not inside
    a module, class or function docstring."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and i not in docstrings)


#: The most code lines ``src/`` may have.  Lower it when the package shrinks;
#: raising it is a change that shows in the diff.
CODE_LINE_CEILING = 2172


def test_src_code_lines():
    counts = {path.stem: _code_lines(path) for path in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= CODE_LINE_CEILING, counts
