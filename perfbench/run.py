"""gptensor benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload sym_exact --seed 1 --seconds 25 --trace 0

Prints a full JSON report (environment, every metric with unit and sample
count, failures), then, as the last line, the result object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
BLAS threads are pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sym_exact", "ns_exact", "noisy", "cli_file")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # one BLAS thread is at or below nproc on any machine; set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gptensor", "__init__.py")):
        print(f"error: no gptensor sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    t0 = time.perf_counter()
    for mod in ("gptensor", "gptensor.cli"):
        importlib.import_module(mod)
    import_s = time.perf_counter() - t0

    from perfbench.bench import run

    report, result = run(args.workload, args.seed, args.seconds, args.trace, ROOT, import_s)
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
