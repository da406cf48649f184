#!/usr/bin/env python3
"""Seeded benchmark of tensoropt: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload policy-study --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

Run from anywhere; the library is imported from ``src/`` of the checkout this
file sits in. Prints one line per metric, then, as the last line, a JSON
object with the keys correct, attempted, failed and metrics. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run. Result records and span dumps go to ``.benchmark-out/``.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".benchmark-out")
WORKLOAD_NAMES = ("policy-study", "exact-n500", "accel-chain", "logistic-floor")
# Pinned BLAS thread count (at most nproc). One thread: two ran 10-30% faster
# on some passes but spread wider on policy-study.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 regenerates the documented instances")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    # The thread count is read when numpy loads OpenBLAS, so it is set first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    import tensoropt
    if not os.path.abspath(tensoropt.__file__).startswith(src + os.sep):
        print(f"tensoropt was imported from {tensoropt.__file__}, not from {src}", file=sys.stderr)
        return 2
    import bench

    os.makedirs(OUT_ROOT, exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = bench.measure(name, args.seed, args.seconds, bool(args.trace), ROOT, OUT_ROOT)
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            bench.write_spans(os.path.join(OUT_ROOT, f"spans-{tag}.npz"), result)
        bench.print_result(result, os.path.join(OUT_ROOT, f"result-{tag}.json"))
        results.append(result)
    print(json.dumps(bench.summary_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
