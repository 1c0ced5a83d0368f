"""Command-line front end: ``hkgeo verify | curvature-profile | report-schema``.

Exit codes: 0 when every check passes, 1 when at least one fails (a check
that raises counts as failed; the report is still written), 2 for
configuration errors (bad arguments, unwritable output paths).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import geometry, models
from .checks import REPORT_SCHEMA, SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hkgeo",
        description="numeric verification of quotient constructions of "
                    "hyperkahler metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITE_NAMES,
                   help="which suite to run")
    v.add_argument("--seed", type=int, default=0,
                   help="random seed for sample points (default 0)")
    v.add_argument("--samples", type=int, default=50,
                   help="sample points per check (default 50)")
    v.add_argument("--a", type=float, default=1.0,
                   help="scale parameter of the circle fiber (default 1)")
    v.add_argument("--json", metavar="PATH", default=None,
                   help="also write the full report as JSON")

    c = sub.add_parser("curvature-profile",
                       help="tabulate reduced-surface curvature against its "
                            "closed form")
    c.add_argument("--a", type=float, default=1.0,
                   help="scale parameter (default 1)")
    c.add_argument("--rmax", type=float, default=10.0,
                   help="largest radius in the table (default 10)")
    c.add_argument("--steps", type=int, default=200,
                   help="number of radii, uniformly spaced (default 200)")
    c.add_argument("--csv", metavar="PATH", default=None,
                   help="write CSV here instead of stdout")

    sub.add_parser("report-schema",
                   help="print the JSON schema of verify reports")

    return parser


def _cmd_verify(args):
    try:
        manifest = run_suite(args.suite, seed=args.seed, samples=args.samples,
                             a=args.a)
    except ValueError as exc:  # a bad --seed, --samples or --a
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if args.json is not None:
        payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True,
                             allow_nan=False) + "\n"
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
    return 0 if manifest.all_passed else 1


def _cmd_curvature_profile(args):
    if args.steps < 2:
        print("error: --steps must be >= 2", file=sys.stderr)
        return 2
    if not 1e-6 < args.rmax < math.inf:
        print("error: --rmax must be finite and exceed 1e-6", file=sys.stderr)
        return 2
    try:
        red = models.build("toy-reduced", args.a)
    except ValueError as exc:  # a bad --a
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rs = [1e-6 + (args.rmax - 1e-6) * i / (args.steps - 1) for i in range(args.steps)]
    Ks = geometry.curvature_at_radii(red.metric, rs).tolist()
    cells = tuple([x for r, K, Kref in zip(rs, Ks, map(red.targets["curvature"], rs))
                   for x in (r, K, Kref, abs(K - Kref))])
    text = ("r,K_numeric,K_closed_form,abs_err\n"
            + "%.12g,%.12g,%.12g,%.6g\n" * len(rs) % cells)
    if args.csv is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return 2
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "curvature-profile":
        return _cmd_curvature_profile(args)
    if args.command == "report-schema":
        print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
