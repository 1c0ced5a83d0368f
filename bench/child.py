"""One benchmark child: import hkgeo, run one workload, check its outputs.

Run by ``bench/run.py``, one child at a time, as::

    python3 bench/child.py --workload NAME --seed N --trace 0|1 --out DIR [--tiny]

with ``src`` on ``PYTHONPATH``.  The last line of standard output is one
JSON object: ``setup_raw_s`` (time to import ``hkgeo.cli``), ``wall_raw_s``
(the workload's fixed work after setup), ``probe_s`` (speed probes taken
before setup, between setup and work, and after work), ``peak_rss_mb``, the units attempted
and failed, the output digest, versions, and with ``--trace 1`` the
per-layer metrics.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--tiny", action="store_true")
    return p.parse_args()


def speed_probe(n=400_000):
    """Seconds taken by a fixed pure-Python loop: the machine's current speed.

    Uses nothing from hkgeo or numpy, so a change to the program cannot move
    it and it can run before the program is imported.
    """
    t = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(n):
        x = i * 0.5 + 1.0
        acc += math.sqrt(x) / (x + 1.0)
        table[i & 255] = acc
    return time.perf_counter() - t


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def main():
    args = _parse()
    probes = [speed_probe()]
    t_setup = time.perf_counter()
    import hkgeo.cli

    setup_s = time.perf_counter() - t_setup
    probes.append(speed_probe())

    import workloads

    wl = workloads.get(args.workload, args.tiny)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    for k, argv in enumerate(wl.calls(args.seed)):
        flag = "--json" if wl.kind == "verify" else "--csv"
        path = os.path.join(args.out, f"{wl.name}-{k}.{flag[2:]}")
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        calls.append((argv, argv + [flag, path], path))

    t_work = time.perf_counter()
    codes = []
    for _, argv, _ in calls:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    codes.append(hkgeo.cli.main(argv))
                else:
                    codes.append(tracer.root(hkgeo.cli.main, argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            codes.append(None)
    wall_s = time.perf_counter() - t_work
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes.append(speed_probe())

    # correctness gate, after the measured part
    import jsonschema
    import mpmath
    import numpy
    import scipy

    failed, reports, texts = 0, [], []
    if wl.kind == "verify":
        validator = jsonschema.Draft7Validator(hkgeo.checks.REPORT_SCHEMA)
        for (_, _, path), rc in zip(calls, codes):
            try:
                report = json.loads(_read(path) or "null")
            except ValueError:
                report = None
            reports.append(report)
            failed += workloads.check_verify(report, rc, wl.rows_per_call, validator)
    else:
        for (argv, _, path), rc in zip(calls, codes):
            text = _read(path)
            texts.append(text)
            failed += workloads.check_curvature(text, rc, argv)

    out = {
        "setup_raw_s": setup_s,
        "wall_raw_s": wall_s,
        "probe_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": wl.units(),
        "failed": failed,
        "digest": workloads.digest(reports, texts),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
    }
    if tracer is not None:
        out["layers"], out["problems"] = tracer.summary()
        tracer.save(os.path.join(args.out, f"{wl.name}.spans.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
