"""Run one edgediag benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cloud_train --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` next to this directory, and the run exits with status 2 when it
is missing. BLAS is pinned to one thread before numpy loads. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``. A record with
the environment, exact counts and per-layer tables is written under
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="edgediag benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "edgediag", "__init__.py")):
        print(f"perfbench: edgediag sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    import edgediag

    found = os.path.dirname(os.path.dirname(os.path.realpath(edgediag.__file__)))
    if found != os.path.realpath(src):
        print(f"perfbench: imported edgediag from {found}, not {src}", file=sys.stderr)
        return 2
    from perfbench.bench import OUT, execute
    from perfbench.workloads import MEASURE

    if args.workload not in MEASURE:
        ap.error(f"--workload must be one of {', '.join(MEASURE)}")

    result, record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for note in record["notes"]:
        print(note, file=sys.stderr)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(f"exact counts: {json.dumps(record['exact_counts'])}")
    print(f"complexity: {json.dumps(record['complexity'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # one BLAS thread, set before anything imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
