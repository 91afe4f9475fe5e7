"""gridwave benchmark: runs one workload repeatedly, each run in a fresh process.

    python3 benchmark/run.py --workload scattering --seed 1 --seconds 25 --trace 0

Runs ``benchmark/execute.py`` one after another (never two at once) for
about ``--seconds`` seconds: a run is started only while the longest run so
far still fits in the time left.  Each run is checked; the medians over the
runs are printed by name, then one JSON line as the last line of output.
With ``--trace 0`` that line holds the end-to-end metrics; with
``--trace 1`` untraced and traced runs alternate and it holds the per-layer
metrics from the traced runs plus the tracing overhead.  Every run's record
and the environment go to ``benchmark/out/``.  The source tree must hold
``src/gridwave``; the package is taken from there, not from an install.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("scattering", "helium", "probe", "core_patch")

# every run of this command ends well within 180 s, even if a run hangs
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "steps_per_s": "1/s", "wall_s": "s", "peak_rss_mb": "MiB"}


def threads() -> int:
    """BLAS/OpenMP threads for the runs: the CPUs available, at most 2."""
    return min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads())
    return env


def execute(workload: str, seed: int, trace: int, env: dict,
            timeout: float) -> dict | None:
    """One run in a fresh process; its record, or None if it failed."""
    cmd = [sys.executable, str(HERE / "execute.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run of {workload} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"run of {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gridwave" / "__init__.py").is_file():
        print(f"error: no gridwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    env = child_env()
    records, failed, longest = [], 0, 0.0
    start = time.perf_counter()
    # with tracing, untraced and traced runs alternate, untraced first
    minimum = 2 if args.trace else 1
    while (len(records) + failed < minimum
           or time.perf_counter() - start + longest <= args.seconds) \
            and time.perf_counter() - start < DEADLINE_S:
        trace = args.trace and (len(records) + failed) % 2 == 1
        t = time.perf_counter()
        record = execute(args.workload, args.seed, int(trace), env,
                         timeout=max(1.0, start + DEADLINE_S - t))
        longest = max(longest, time.perf_counter() - t)
        if record is None:
            failed += 1
        else:
            records.append(record)
    if not records:
        print("error: every run failed", file=sys.stderr)
        return 1

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    for r in records:
        bad = [name for name, c in r["checks"].items() if not c["ok"]]
        if bad:
            print(f"check failed ({r['params']}): " + "; ".join(
                f"{name}: {r['checks'][name]['detail']}" for name in bad), file=sys.stderr)
    if args.trace:
        if not (plain and traced):
            print("error: need an untraced and a traced run", file=sys.stderr)
            return 1
        units = {**traced[0]["layer_units"], "trace.overhead_s": "s"}
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
    else:
        metrics = {name: statistics.median(r[name] for r in records) for name in END_TO_END}
        units = END_TO_END

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "runs": len(records), "failed": failed,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "threads": threads()},
        "versions": records[0]["versions"], "thread_env": records[0]["threads"],
        "metrics": metrics, "records": records,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(summary, indent=1))

    print(f"{args.workload} seed {args.seed}: {len(records)} runs, {failed} failed; "
          f"numpy {summary['versions']['numpy']}, scipy {summary['versions']['scipy']}, "
          f"{threads()} BLAS/OpenMP threads")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": len(records) + failed,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
