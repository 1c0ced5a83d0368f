"""Command-line front end of hkgeo.

usage: hkgeo verify SUITE [--seed N] [--samples N] [--a A] [--json PATH]
       hkgeo curvature-profile [--a A] [--rmax R] [--steps N] [--csv PATH]
       hkgeo report-schema
       hkgeo -h | --help

verify             run a verification suite; SUITE is one of
                   all, heavenly, toy, taubnut, mechanics
  --seed N         random seed for sample points (default 0)
  --samples N      sample points per check (default 50)
  --a A            scale parameter of the circle fiber (default 1)
  --json PATH      also write the full report as JSON
curvature-profile  tabulate reduced-surface curvature against its closed form
  --a A            scale parameter (default 1)
  --rmax R         largest radius in the table (default 10)
  --steps N        number of radii, uniformly spaced (default 200)
  --csv PATH       write CSV here instead of stdout
report-schema      print the JSON schema of verify reports

Options take their full names, as --name VALUE or --name=VALUE, before or
after the suite; abbreviations are not accepted.  Exit codes: 0 when every
check passes, 1 when at least one fails (a check that raises counts as
failed; the report is still written), 2 for configuration errors (an
unknown command, suite or option, a missing or malformed value, a value out
of range, an unwritable output path), each reported as one "error:" line on
standard error.
"""

import json
import math
import sys
from types import SimpleNamespace

from . import geometry, models
from .checks import REPORT_SCHEMA, SUITE_NAMES, run_suite

__all__ = ["OPTIONS", "main"]

#: Each command's options, ``name: (type, default)``; a value is converted
#: as ``type(text)``.  ``verify`` also takes one suite of ``SUITE_NAMES``.
OPTIONS = {"verify": {"--seed": (int, 0), "--samples": (int, 50), "--a": (float, 1.0),
                      "--json": (str, None)},
           "curvature-profile": {"--a": (float, 1.0), "--rmax": (float, 10.0),
                                 "--steps": (int, 200), "--csv": (str, None)},
           "report-schema": {}}


def _choose(what, value, names):
    """``value`` if it is one of ``names``, else ``ValueError`` saying so."""
    if value not in names:
        said = f"missing {what}" if value is None else f"unknown {what} {value!r}"
        raise ValueError(f"{said} (valid: {', '.join(names) or 'none'})")
    return value


def _parse(argv):
    """``(command, arguments)`` of ``argv``, the arguments by name with the
    table's defaults filled in; ``ValueError`` names the first bad argument."""
    command = _choose("command", argv[0] if argv else None, OPTIONS)
    args = {name[2:]: default for name, (_, default) in OPTIONS[command].items()}
    rest = iter(argv[1:])
    for arg in rest:
        if command == "verify" and "suite" not in args and not arg.startswith("-"):
            args["suite"] = _choose("suite", arg, SUITE_NAMES)
            continue
        name, eq, text = arg.partition("=")
        kind, _ = OPTIONS[command][_choose(f"{command} option", name, OPTIONS[command])]
        # without "=", the value is the next argument, which is not an option
        if not eq and (text := next(rest, "--")).startswith("--"):
            raise ValueError(f"{name} needs a value")
        try:
            args[name[2:]] = kind(text)
        except ValueError:
            raise ValueError(f"{name}: invalid {kind.__name__} value {text!r}") from None
    if command == "verify":
        _choose("suite", args.get("suite"), SUITE_NAMES)
    return command, SimpleNamespace(**args)


def _write(path, text):
    """Write ``text`` to ``path``; ``ValueError`` if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _cmd_verify(args):
    manifest = run_suite(args.suite, seed=args.seed, samples=args.samples, a=args.a)
    for c in manifest.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.check_id:<38} max_abs_error={c.max_abs_error:.3e} "
              f"tolerance={c.tolerance:.1e} samples={c.samples}")
        if c.error is not None:
            print(f"       raised {c.error}")
    n_pass = sum(c.passed for c in manifest.checks)
    print(f"{n_pass}/{len(manifest.checks)} checks passed "
          f"(suite={args.suite}, seed={manifest.seed}, "
          f"samples={manifest.samples}, a={manifest.a:g})")
    if args.json is not None:  # after the rows, so an unwritable path still shows them
        _write(args.json, json.dumps(manifest.to_dict(), indent=2, sort_keys=True,
                                     allow_nan=False) + "\n")
    return 0 if manifest.all_passed else 1


def _cmd_curvature_profile(args):
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    if not 1e-6 < args.rmax < math.inf:
        raise ValueError("--rmax must be finite and exceed 1e-6")
    red = models.build("toy-reduced", args.a)
    rs = [1e-6 + (args.rmax - 1e-6) * i / (args.steps - 1) for i in range(args.steps)]
    Ks = geometry.curvature_at_radii(red.metric, rs).tolist()
    cells = tuple([x for r, K, Kref in zip(rs, Ks, map(red.targets["curvature"], rs))
                   for x in (r, K, Kref, abs(K - Kref))])
    text = ("r,K_numeric,K_closed_form,abs_err\n"
            + "%.12g,%.12g,%.12g,%.6g\n" * len(rs) % cells)
    if args.csv is None:
        sys.stdout.write(text)
    else:
        _write(args.csv, text)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return 0
    try:  # every configuration error, from parsing or from a command, ends here
        command, args = _parse(argv)
        if command == "report-schema":
            print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
            return 0
        return (_cmd_verify if command == "verify" else _cmd_curvature_profile)(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
