"""One run of one workload in this process; prints its record as one JSON line.

    python3 benchmark/execute.py --workload NAME --seed N --trace 0|1 --out DIR

``benchmark/run.py`` starts this in a fresh process for every run, so the
process-wide dense cache starts empty and peak memory belongs to one run.
With ``--trace 1`` the per-layer spans are recorded and written to DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path


def peak_rss_mib() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import numpy
    import scipy
    import gridwave
    import checks
    import workloads
    from tracing import UNITS, Tracer

    make, run = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    run_dir = out / "runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = make(args.seed)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    clock = workloads.Clock()
    try:
        result = run(inputs, run_dir, clock)
    finally:
        if tracer:
            tracer.uninstall()
    record = {"workload": args.workload, "params": inputs["params"],
              "traced": bool(args.trace), **clock.figures(),
              "peak_rss_mb": peak_rss_mib()}
    if tracer:
        record["layers"], traced_steps = tracer.metrics()
        record["layer_units"] = UNITS

    found = checks.run_checks(args.workload, result)
    if tracer:
        found.add("traced_cycles", traced_steps == clock.steps,
                  f"{traced_steps} cycles traced, {clock.steps} counted")
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
    record["correct"] = found.ok
    record["checks"] = found.results
    record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "gridwave": gridwave.__version__}
    record["threads"] = {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
