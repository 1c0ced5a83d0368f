"""Fast self-test of the benchmark: every workload at ``--tiny`` size.

Run from the root of a checkout::

    python3 bench/selftest.py

It runs each workload untraced and traced, checks that every emitted metric
name matches ``[A-Za-z0-9_.-]+`` and ``BENCHMARK.json`` (names and units),
that all outputs are correct, that each layer does work on the workload
where it should do most of its work, and that the benchmark exits non-zero
without a result when the program is missing.  It prints ``setup_s``,
``wall_s``, ``peak_rss_mb`` and ``fail_ratio`` for every workload.  Exit
code 0 means every check held.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A per-layer metric that must be non-zero on the workload where the layer
#: is predicted to do most of its work (see bench/README.md).
BUSY = {
    "verify-all": ("jets.self_s", "fields.jet.calls", "geometry.riemann.calls",
                   "kahler.heavenly_check.calls", "reduction.quotient_metric.calls",
                   "models.build.calls", "sampling.points", "quadrature.neval"),
    "mechanics": ("mechanics.poisson_bracket.calls",
                  "mechanics.constrain_and_reduce.calls"),
    "curvature-mp40": ("geometry.mp.self_s", "geometry.gaussian_curvature.calls"),
}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    names = [w["name"] for w in spec["workloads"]] + list(want[0]) + list(want[1])
    errors += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from bench/workloads.py")

    print(f"{'workload':<16}{'setup_s':>10}{'wall_s':>10}{'peak_rss_mb':>13}{'fail_ratio':>12}")
    for wl in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run(wl, trace)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                errors.append(f"{wl} trace={trace}: no result (exit {proc.returncode})"
                              f"\n{proc.stderr}")
                continue
            if proc.returncode != 0 or sorted(res) != ["attempted", "correct", "failed",
                                                         "metrics"]:
                errors.append(f"{wl} trace={trace}: exit {proc.returncode}, keys {sorted(res)}")
            if not res["correct"] or res["failed"]:
                errors.append(f"{wl} trace={trace}: incorrect output\n{proc.stdout}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{wl} trace={trace}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got) ^ set(want[trace]))}")
            errors += [f"bad emitted name {n!r}" for n in got if not NAME.fullmatch(n)]
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 0:
                print(f"{wl:<16}{m.get('setup_s', 0):>10.4f}{m.get('wall_s', 0):>10.4f}"
                      f"{m.get('peak_rss_mb', 0):>13.2f}"
                      f"{res['failed'] / res['attempted']:>12.4g}")
            else:
                errors += [f"{wl}: {k} is zero" for k in BUSY[wl] if not m.get(k)]

    # without the program the benchmark must fail and print no result
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("verify-all", 0, cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("benchmark printed a result without the program")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL:", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
