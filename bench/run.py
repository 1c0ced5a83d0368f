"""hkgeo benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Children (``bench/child.py``) run one at a time, each a fresh interpreter
that imports ``hkgeo`` from ``src`` with BLAS/OpenMP threads pinned to 1 and
does one fixed unit of work, until ``--seconds`` have passed.  With
``--trace 0`` the result holds the end-to-end metrics (medians over the
children); with ``--trace 1`` traced and untraced children alternate and the
result holds the per-layer metrics.  Every output is checked; the last line
of standard output is the JSON result.  Exit code 2 means the program could
not be imported, and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracer import metric_units

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Children run after ``--seconds`` are up until there are this many.
MIN_CHILDREN = 3
#: Every run ends within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

#: Probe time that defines one reference second (see ``child.speed_probe``).
REF_PROBE_S = 0.1

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Traced children report ``metric_units()``; the parent adds the last two.
PER_LAYER = {**metric_units(), "trace.overhead_s": "s", "fail_ratio": "ratio"}


def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env["PYTHONHASHSEED"] = "0"
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(args, traced, env, deadline):
    """One child's result dict, or None if it crashed or timed out."""
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--out", OUT]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"child timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def normalise(r):
    """Express a child's times in reference seconds.

    A core of the shared machine this was built on changes speed by up to
    1.7x within seconds as neighbours load it.  Each time is scaled by
    ``REF_PROBE_S`` over the mean of the two speed probes taken right before
    and after it, which cancels the drift that the probes share with the
    measured interval.  Adds ``setup_s`` and ``wall_s``; per-layer times of a
    traced child are scaled like ``wall_s``.
    """
    p0, p1, p2 = r["probe_s"]
    r["setup_s"] = r["setup_raw_s"] * REF_PROBE_S / ((p0 + p1) / 2)
    work_scale = REF_PROBE_S / ((p1 + p2) / 2)
    r["wall_s"] = r["wall_raw_s"] * work_scale
    for name, unit in metric_units().items():
        if unit == "s" and "layers" in r:
            r["layers"][name] *= work_scale
    return r


def describe(name, unit, values):
    """Human-readable line: run count, median and the highest percentile
    that has at least ten runs beyond it (none with fewer than 20 runs)."""
    n = len(values)
    line = f"{name}: n={n} median={statistics.median(values):.6g} {unit}"
    qs = statistics.quantiles(values, n=100, method="inclusive") if n > 1 else []
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            line += f" p{p}={qs[p - 1]:.6g}"
            break
    return line + f" min={min(values):.6g} max={max(values):.6g}"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long sizes, for the self-test")
    args = p.parse_args()

    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    warm = subprocess.run([sys.executable, "-c", "import hkgeo.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr)
        print("error: hkgeo cannot be imported from src/; no result", file=sys.stderr)
        return 2

    units = workloads.get(args.workload, args.tiny).units()
    plain, traced = [], []
    attempted = failed = 0
    stop = time.monotonic() + args.seconds
    while True:
        want_trace = bool(args.trace) and len(traced) <= len(plain)
        done = len(traced) >= 2 and len(plain) >= 1 if args.trace else len(plain) >= MIN_CHILDREN
        if (time.monotonic() >= stop and done) or time.monotonic() >= hard_deadline:
            break
        r = run_child(args, want_trace, env, hard_deadline)
        if r is None:  # a crashed child fails every unit it would have run
            attempted, failed = attempted + units, failed + units
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        (traced if want_trace else plain).append(normalise(r))

    runs = plain + traced
    digests = sorted({r["digest"] for r in runs})
    problems = [p for r in traced for p in r["problems"]]
    if len(digests) > 1:
        problems.append(f"outputs differ between children of one seed: {digests}")
    for r in traced[1:]:
        diff = [k for k, u in metric_units().items()
                if u != "s" and k in r["layers"] and r["layers"][k] != traced[0]["layers"][k]]
        if diff:
            problems.append(f"per-layer counts differ between traced runs: {diff}")

    env_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "threads": {v: env[v] for v in THREAD_VARS},
        "versions": runs[0]["versions"] if runs else None,
    }
    print("env " + json.dumps(env_record, sort_keys=True))
    print(f"digest {' '.join(digests)}")
    fail_ratio = failed / attempted if attempted else 1.0
    print(f"fail_ratio: {fail_ratio:.6g} ({failed} of {attempted} units failed)")
    for prob in problems:
        print(f"problem: {prob}")

    metrics = {}
    if not args.trace and plain:
        for name, unit in END_TO_END.items():
            values = [r[name] for r in plain]
            print(describe(name, unit, values))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        for name in ("setup_raw_s", "wall_raw_s"):
            print(describe(name, "s", [r[name] for r in plain]))
        print(describe("probe_s", "s", [p for r in plain for p in r["probe_s"]]))
    elif traced and plain:
        # times are medians; counts are equal in every traced child (checked)
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  if unit == "s" else traced[0]["layers"][name]
                  for name, unit in metric_units().items()}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        values["fail_ratio"] = fail_ratio
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")

    result = {"correct": bool(runs) and failed == 0 and not problems,
              "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env_record, digests=digests, problems=problems,
                       children=runs), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
