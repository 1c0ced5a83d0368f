"""Workload table and output checks of the hkgeo benchmark.

Each workload is one fixed unit of work that a child process runs through
the public CLI entry point ``hkgeo.cli.main``.  The benchmark seed picks the
inputs; the size of the work is fixed here so that ``wall_s`` is the inverse
of throughput.  See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import dataclasses
import random

#: Tolerance of the ``toy.curvature_profile`` check; every CSV row is held to it.
CURVATURE_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "curvature"
    suite: str = ""  # verify suite name
    rows_per_call: int = 0  # check rows one verify call must report
    samples: int = 0
    seeds_per_child: int = 1
    steps: int = 0  # curvature radii

    def calls(self, seed):
        """The CLI argument lists one child runs, without output paths."""
        if self.kind == "verify":
            return [["verify", self.suite, "--samples", str(self.samples),
                     "--seed", str(seed * self.seeds_per_child + k)]
                    for k in range(self.seeds_per_child)]
        rng = random.Random(seed)
        a = round(rng.uniform(0.5, 2.0), 6)
        rmax = round(rng.uniform(0.03, 0.049), 6)
        return [["curvature-profile", "--a", repr(a), "--rmax", repr(rmax),
                 "--steps", str(self.steps)]]

    def units(self):
        """Units one child attempts: check rows, or CSV rows."""
        if self.kind == "verify":
            return self.rows_per_call * self.seeds_per_child
        return self.steps


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-all", "verify", suite="all", rows_per_call=38,
                 samples=100, seeds_per_child=2),
        Workload("mechanics", "verify", suite="mechanics", rows_per_call=5,
                 samples=1500, seeds_per_child=1),
        Workload("curvature-mp40", "curvature", steps=800),
    )
}

#: Sizes used by ``--tiny`` (the self-test): same code paths, seconds of work.
TINY = {
    "verify-all": dict(samples=5, seeds_per_child=1),
    "mechanics": dict(samples=10, seeds_per_child=1),
    "curvature-mp40": dict(steps=10),
}


def get(name, tiny=False):
    """The named workload, at its ``--tiny`` size if asked."""
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, **TINY[name]) if tiny else wl


def check_verify(report, rc, expected_rows, validator):
    """Failed check rows of one ``verify`` call.

    A row fails when ``passed`` is false or ``max_abs_error`` is not finite
    (Python's ``max`` drops NaN, so a NaN error could otherwise pass).  A
    non-zero exit code, a report that breaks ``REPORT_SCHEMA`` or a missing
    or repeated row fails every row of the call.
    """
    if rc != 0 or report is None or not validator.is_valid(report):
        return expected_rows
    rows = report["checks"]
    if len({c["check_id"] for c in rows}) != len(rows):
        return expected_rows
    failed = sum(1 for c in rows
                 if not c["passed"] or not math.isfinite(c["max_abs_error"]))
    return failed + max(0, expected_rows - len(rows))


def check_curvature(text, rc, argv):
    """Failed rows of one ``curvature-profile`` CSV.

    Every radius of the requested grid must be present, and both the
    reported ``abs_err`` and the distance of ``K_numeric`` from the closed
    form ``8 a^4 / (r^2 + a^2)^3`` must be finite and within
    :data:`CURVATURE_TOL`.
    """
    opts = dict(zip(argv[1::2], argv[2::2]))
    a, rmax, steps = float(opts["--a"]), float(opts["--rmax"]), int(opts["--steps"])
    if rc != 0 or text is None:
        return steps
    lines = text.splitlines()
    if not lines or lines[0] != "r,K_numeric,K_closed_form,abs_err":
        return steps
    failed = 0
    rows = lines[1:]
    for i in range(steps):
        if i >= len(rows):
            failed += 1
            continue
        try:
            r, K, _, err = (float(x) for x in rows[i].split(","))
        except ValueError:
            failed += 1
            continue
        want_r = 1e-6 + (rmax - 1e-6) * i / (steps - 1)
        closed = 8.0 * a ** 4 / (r * r + a * a) ** 3
        ok = (abs(r - want_r) <= 1e-9 * max(1.0, want_r)
              and math.isfinite(err) and err <= CURVATURE_TOL
              and math.isfinite(K) and abs(K - closed) <= CURVATURE_TOL)
        failed += not ok
    return failed


def digest(reports, texts):
    """SHA-256 over the reports with ``elapsed_ms`` removed, and the CSVs."""
    h = hashlib.sha256()
    for report in reports:
        if report is not None:
            report = dict(report, checks=[
                {k: v for k, v in c.items() if k != "elapsed_ms"}
                for c in report.get("checks", [])])
        h.update(json.dumps(report, sort_keys=True).encode())
    for text in texts:
        h.update(b"\0" if text is None else text.encode())
    return h.hexdigest()[:16]
