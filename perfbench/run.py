"""Stage-level benchmark of the EMD Globalizer.

Run from the repository root:

    python3 perfbench/run.py --workload batch-chunker-d4 --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs the same code at a tiny scale. Everything the run
writes goes under ``.perfbench_out/`` in the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


def main(argv=None) -> int:
    t_start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny corpora and variants")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "pipeline.py")):
        print(f"perfbench: the program's source is missing under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    # Spark's Python workers import the program from the source tree, and
    # every temporary file stays inside the checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + [d for d in os.environ.get("PYTHONPATH", "").split(os.pathsep) if d]
    )
    os.environ["TMPDIR"] = OUT_ROOT
    os.environ.setdefault("PYSPARK_PYTHON", sys.executable)
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, OUT_ROOT, t_start
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
