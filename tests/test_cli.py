"""Command-line behaviour: argument syntax, exit codes, report determinism,
CSV output."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from hkgeo import checks, cli, geometry, mechanics, models, reduction


def run(argv):
    return cli.main(argv)


def claim(check_id):
    """The row of ``checks.CLAIMS`` with this id."""
    return next(row for row in checks.CLAIMS if row[0] == check_id)


def strict_json(text):
    """``json.loads`` that refuses the non-standard NaN and Infinity literals."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _exits_2_with_an_error_line(argv, capsys):
    """``(stdout, stderr)`` of ``main(argv)``, which must return 2, raising no
    ``SystemExit``, with one ``error:`` line on stderr."""
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    return out, err


def test_unknown_suite_exits_2(capsys):
    out, err = _exits_2_with_an_error_line(["verify", "bogus"], capsys)
    assert out == ""
    assert err == "error: unknown suite 'bogus' (valid: all, heavenly, toy, taubnut, mechanics)\n"


#: Arguments the parser refuses, each with a part of the error it must give.
BAD_ARGV = [
    ([], "missing command"),
    (["bogus"], "unknown command 'bogus'"),
    (["--samples", "3"], "unknown command '--samples'"),
    (["verify"], "missing suite"),
    (["verify", "--samples", "3"], "missing suite"),
    (["verify", "bogus", "--samples", "x"], "unknown suite 'bogus'"),
    (["verify", "mechanics", "toy"], "unknown verify option 'toy'"),
    (["verify", "mechanics", "--samp", "3"], "unknown verify option '--samp'"),
    (["verify", "mechanics", "--steps", "3"], "unknown verify option '--steps'"),
    (["verify", "mechanics", "-s", "3"], "unknown verify option '-s'"),
    (["verify", "mechanics", "--samples"], "--samples needs a value"),
    (["verify", "mechanics", "--json", "--seed", "1"], "--json needs a value"),
    (["verify", "mechanics", "--samples", "x"], "--samples: invalid int value 'x'"),
    (["verify", "mechanics", "--samples=2.5"], "--samples: invalid int value '2.5'"),
    (["verify", "mechanics", "--seed", ""], "--seed: invalid int value ''"),
    (["verify", "mechanics", "--a", "one"], "--a: invalid float value 'one'"),
    (["curvature-profile", "--steps", "1e3"], "--steps: invalid int value '1e3'"),
    (["curvature-profile", "--rmax"], "--rmax needs a value"),
    (["curvature-profile", "mechanics"], "unknown curvature-profile option 'mechanics'"),
    (["report-schema", "--json", "x.json"], "unknown report-schema option '--json'"),
]


def _unwritable(path):
    """The error line of an output ``path`` whose directory does not exist."""
    return f"error: cannot write {path}: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_bad_config_exits_2(tmp_path, capsys):
    # every configuration error is one error line and nothing on stdout
    for argv, said in BAD_ARGV:
        out, err = _exits_2_with_an_error_line(argv, capsys)
        assert out == "" and said in err, (argv, err)
    for bad in (["--a", "nan"], ["--a", "inf"], ["--a=-1"]):
        assert _exits_2_with_an_error_line(["verify", "mechanics", *bad], capsys)[0] == ""
    for bad, line in ((["--samples", "0"], "samples must be >= 1, got 0"),
                      (["--seed", "-1"], "seed must be >= 0, got -1"),
                      (["--a", "0"], "circle radius a must be finite and positive, got 0.0")):
        assert _exits_2_with_an_error_line(["verify", "mechanics", *bad], capsys) == (
            "", f"error: {line}\n")
    # an unwritable report path is met after the rows, which stay on stdout
    assert run(["verify", "mechanics", "--samples", "2"]) == 0
    rows = capsys.readouterr().out
    path = tmp_path / "no" / "such" / "dir" / "x.json"
    assert _exits_2_with_an_error_line(["verify", "mechanics", "--samples", "2", "--json",
                                        str(path)], capsys) == (rows, _unwritable(path))


def test_parse_accepts_full_names_in_any_order():
    # --name value or --name=value, before or after the suite, the last of a
    # repeated option winning; each value is type(text) of the table's type
    expect = SimpleNamespace(suite="toy", seed=2, samples=7, a=0.5, json="r=1.json")
    for argv in (["verify", "toy", "--seed", "2", "--samples", "7", "--a", "0.5",
                  "--json", "r=1.json"],
                 ["verify", "--samples=7", "--a=.5", "toy", "--json=r=1.json", "--seed", "2"],
                 ["verify", "--seed", "9", "--samples", "7", "--json", "r=1.json", "--a",
                  "5e-1", "--seed=2", "toy"]):
        assert cli._parse(argv) == ("verify", expect)
    assert cli._parse(["verify", "all", "--seed", "-1", "--a", "-inf"]) == (
        "verify", SimpleNamespace(suite="all", seed=-1, samples=50, a=-math.inf, json=None))
    assert cli._parse(["curvature-profile"]) == (
        "curvature-profile", SimpleNamespace(a=1.0, rmax=10.0, steps=200, csv=None))
    assert cli._parse(["report-schema"]) == ("report-schema", SimpleNamespace())


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "--help"],
                                  ["curvature-profile", "--steps", "3", "-h"]])
def test_help_prints_the_usage(argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr() == (cli.__doc__, "")


def test_passing_suite_exits_0(capsys):
    assert run(["verify", "mechanics", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "checks passed" in out


def test_failing_check_exits_1(monkeypatch, capsys):
    forced = [("mechanics.forced_failure", 0.0, "forced failure",
               lambda ctx, rng: np.ones(1))]
    monkeypatch.setitem(checks.SUITES, "mechanics", forced)
    assert run(["verify", "mechanics"]) == 1
    assert "[FAIL] mechanics.forced_failure" in capsys.readouterr().out


def test_raising_check_is_a_failed_row(monkeypatch, tmp_path, capsys):
    # a check that raises fails its own row, which keeps its declared claim;
    # the other checks still run and the report is still written
    def boom(ctx, rng):
        raise mechanics.DegenerateLagrangianError("injected at point 3")

    suite = [("mechanics.boom", 1e-9, "raises on {samples} points", boom),
             claim("mechanics.singular_mass_rejected")]
    monkeypatch.setitem(checks.SUITES, "mechanics", suite)
    path = tmp_path / "report.json"
    assert run(["verify", "mechanics", "--json", str(path)]) == 1
    assert "raised DegenerateLagrangianError: injected at point 3" in capsys.readouterr().out
    doc = strict_json(path.read_text())  # valid JSON: null, not NaN
    jsonschema.validate(doc, checks.REPORT_SCHEMA)
    boom_row, ok_row = doc["checks"]
    assert boom_row["check_id"] == "mechanics.boom"
    assert boom_row["passed"] is False
    assert boom_row["max_abs_error"] is None
    assert boom_row["tolerance"] == 1e-9 and boom_row["samples"] == 0
    assert boom_row["description"] == "raises on 0 points"
    assert boom_row["error"] == "DegenerateLagrangianError: injected at point 3"
    assert ok_row["passed"] is True
    assert "error" not in ok_row


def test_json_report_is_the_deep_copied_manifest(monkeypatch, tmp_path):
    # the report serialises each row once; the file is the manifest written
    # field by field, a row's "error" only where its check raised, and a
    # non-finite number as null
    seen = []

    def kept(*args, **kwargs):
        seen.append(checks.run_suite(*args, **kwargs))
        return seen[-1]

    def boom(ctx, rng):
        raise mechanics.DegenerateLagrangianError("injected")

    suite = [("mechanics.boom", 0.0, "raises", boom)] + checks.SUITES["mechanics"]
    monkeypatch.setitem(checks.SUITES, "mechanics", suite)
    monkeypatch.setattr(cli, "run_suite", kept)
    path = tmp_path / "report.json"
    run(["verify", "mechanics", "--samples", "3", "--json", str(path)])
    (m,) = seen
    fields = checks.REPORT_SCHEMA["definitions"]["check"]["properties"]
    def json_value(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v

    rows = [{k: json_value(getattr(c, k)) for k in fields
             if k != "error" or c.error is not None}
            for c in m.checks]
    assert np.isnan(m.checks[0].max_abs_error)  # the manifest keeps its NaN
    assert [r.get("error") for r in rows] == (
        ["DegenerateLagrangianError: injected"] + [None] * (len(rows) - 1))
    old = {"seed": m.seed, "samples": m.samples, "a": m.a, "a_sweep": list(m.a_sweep),
           "version": m.version, "checks": rows}
    assert path.read_text() == json.dumps(old, indent=2, sort_keys=True) + "\n"
    assert list(m.to_dict()) == list(old)


def test_nan_error_fails_its_check(monkeypatch):
    # a NaN error must not vanish into the worst-error accumulation
    monkeypatch.setattr(reduction, "quotient_metric",
                        lambda *args: np.full((2, 2), np.nan))
    monkeypatch.setitem(checks.SUITES, "toy", [claim("toy.quotient_metric")])
    (row,) = checks.run_suite("toy", seed=1, samples=5).checks
    assert row.check_id == "toy.quotient_metric"
    assert np.isnan(row.max_abs_error)
    assert row.passed is False


def test_report_deterministic_modulo_timing(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "mechanics", "--samples", "4", "--json", str(p1)]) == 0
    assert run(["verify", "mechanics", "--samples", "4", "--json", str(p2)]) == 0
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    for doc in (a, b):
        for c in doc["checks"]:
            c["elapsed_ms"] = 0
    assert a == b


def test_report_seed_sensitivity(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "mechanics", "--samples", "4", "--seed", "0", "--json", str(p1)])
    run(["verify", "mechanics", "--samples", "4", "--seed", "1", "--json", str(p2)])
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    assert a["seed"] == 0 and b["seed"] == 1
    errs_a = [c["max_abs_error"] for c in a["checks"]]
    errs_b = [c["max_abs_error"] for c in b["checks"]]
    assert errs_a != errs_b


def test_report_validates_against_schema(tmp_path):
    path = tmp_path / "report.json"
    run(["verify", "mechanics", "--samples", "3", "--json", str(path)])
    doc = json.loads(path.read_text())
    jsonschema.Draft7Validator.check_schema(checks.REPORT_SCHEMA)
    jsonschema.validate(doc, checks.REPORT_SCHEMA)
    assert [c["check_id"] for c in doc["checks"]] == \
        sorted(c["check_id"] for c in doc["checks"])


def test_report_schema_subcommand(capsys):
    assert run(["report-schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["title"] == checks.REPORT_SCHEMA["title"]


def test_curvature_profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    assert run(["curvature-profile", "--a", "1.0", "--rmax", "2.0",
                "--steps", "9", "--csv", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,K_numeric,K_closed_form,abs_err"
    assert len(lines) == 10
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == pytest.approx(1e-6)
    assert first[1] == pytest.approx(8.0, abs=1e-6)   # K -> 8 a^4 / a^6 at r = 0
    assert last[0] == pytest.approx(2.0)
    for ln in lines[1:]:
        r, k_num, k_ref, err = (float(v) for v in ln.split(","))
        assert abs(k_num - k_ref) == pytest.approx(err, abs=1e-12)
        assert err < 1e-6


@pytest.mark.parametrize("args", [
    ["--a", "1.234", "--rmax", "0.045", "--steps", "800"],  # double-double only
    ["--rmax", "9.5", "--steps", "400"],  # both precisions
    ["--steps", "2"],
])
def test_curvature_profile_csv_bytes(args, capsys):
    # the table is the row-by-row rendering of curvature_at_radii and the
    # model's closed form, byte for byte
    opts = {"--a": "1.0", "--rmax": "10.0", **dict(zip(args[::2], args[1::2]))}
    a, rmax, steps = float(opts["--a"]), float(opts["--rmax"]), int(opts["--steps"])
    red = models.build("toy-reduced", a)
    rs = [1e-6 + (rmax - 1e-6) * i / (steps - 1) for i in range(steps)]
    rows = [f"{r:.12g},{K:.12g},{Kref:.12g},{abs(K - Kref):.6g}"
            for r, K, Kref in zip(rs, geometry.curvature_at_radii(red.metric, rs).tolist(),
                                  map(red.targets["curvature"], rs))]
    assert run(["curvature-profile", *args]) == 0
    assert capsys.readouterr().out == "\n".join(["r,K_numeric,K_closed_form,abs_err", *rows]) + "\n"


#: SHA-256 of the ``K_numeric`` column of ``curvature-profile --a 1.234 --rmax
#: 0.045 --steps 800``, its 800 cells joined by newlines.  Every radius is
#: below ``geometry.DD_RADIUS``, so the column is double-double arithmetic
#: alone: IEEE ``+ - * /`` on float64, rounded to 12 digits by Python's
#: correctly rounded formatting, the same bytes on every host.
K_NUMERIC_SHA256 = "52be6a9812b63b0426f6ca5077d998d080621dbc97cc82b1d228cca841da9418"


def test_curvature_profile_double_double_column_is_pinned(capsys):
    # test_curvature_profile_csv_bytes renders its reference with the code
    # under test; this digest sees any change to the 31-digit column's digits
    assert run(["curvature-profile", "--a", "1.234", "--rmax", "0.045", "--steps", "800"]) == 0
    column = [row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]]
    assert len(column) == 800
    assert hashlib.sha256("\n".join(column).encode()).hexdigest() == K_NUMERIC_SHA256


def test_curvature_profile_one_call_per_precision(monkeypatch, tmp_path):
    # the radii of one precision go to gaussian_curvature in one call
    calls = []
    real = geometry.gaussian_curvature

    def counted(g, p, dps=None):
        calls.append((len(p), dps))
        return real(g, p, dps)

    monkeypatch.setattr(geometry, "gaussian_curvature", counted)
    assert run(["curvature-profile", "--rmax", "0.04", "--steps", "800",
                "--csv", str(tmp_path / "k.csv")]) == 0
    assert calls == [(800, 31)]
    calls.clear()
    assert run(["curvature-profile", "--csv", str(tmp_path / "d.csv")]) == 0
    assert [dps for _, dps in calls] == [31, None]  # the default grid: both precisions
    assert sum(n for n, _ in calls) == 200


def test_curvature_profile_stdout(capsys):
    assert run(["curvature-profile", "--steps", "3", "--rmax", "1.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("r,K_numeric,K_closed_form,abs_err\n")


def test_curvature_profile_bad_args(tmp_path, capsys):
    for bad in (["--a", "-1"], ["--a", "nan"], ["--rmax", "nan"], ["--rmax", "inf"]):
        _exits_2_with_an_error_line(["curvature-profile", *bad], capsys)
    for bad, line in ((["--steps", "1"], "--steps must be >= 2"),
                      (["--rmax", "0"], "--rmax must be finite and exceed 1e-6"),
                      (["--a", "0"], "circle radius a must be finite and positive, got 0.0")):
        assert _exits_2_with_an_error_line(["curvature-profile", *bad], capsys) == (
            "", f"error: {line}\n")
    path = tmp_path / "no" / "dir" / "x.csv"
    assert _exits_2_with_an_error_line(["curvature-profile", "--steps", "3", "--csv",
                                        str(path)], capsys) == ("", _unwritable(path))


SRC = Path(cli.__file__).parent.parent


def _hkgeo(*argv):
    """``python -m hkgeo.cli argv`` in a fresh interpreter on this source tree."""
    return subprocess.run([sys.executable, "-m", "hkgeo.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))


def _named():
    """Every command, suite and option of the option table."""
    return [*cli.OPTIONS, *checks.SUITE_NAMES, *(o for t in cli.OPTIONS.values() for o in t)]


def test_module_entry_point():
    # sys.exit(main()) reads sys.argv: help exits 0 and names everything the
    # table accepts, a bad suite exits 2 with one error line, a run exits 0
    shown = _hkgeo("--help")
    assert (shown.returncode, shown.stderr) == (0, "")
    assert [n for n in _named() if not re.search(rf"(?<![\w-]){n}(?![\w-])", shown.stdout)] == []
    bad = _hkgeo("verify", "bogus")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("error: unknown suite 'bogus'") and bad.stderr.count("\n") == 1
    ran = _hkgeo("verify", "mechanics", "--samples", "3")
    assert (ran.returncode, ran.stderr) == (0, "")
    assert ran.stdout.endswith("checks passed (suite=mechanics, seed=0, samples=3, a=1)\n")


def test_readme_names_every_option():
    # the README's command-line section, the help and the table cannot drift apart
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert [n for n in _named() if f"`{n}`" not in section and f" {n} " not in section] == []
