"""Command-line entry point.

--threads, --repeat and estimate's --cycles each take a whole number of at
least 1.  --threads exports the OMP/OpenBLAS/MKL/numexpr thread-count
variables, which scipy's bundled OpenBLAS reads when it loads at the first
dense solve, and sizes the pool of numpy's OpenBLAS, which the package import
has loaded already.  The kinetic cycle splits its slab passes over that many
threads, each matrix product and transform on one BLAS thread; the position
multiply and every sum over a state, numpy's own reduce, stay on one.
Results are bit-identical at any count, except where the dense ground solve
runs on scipy's threaded LAPACK (README).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import GridwaveError


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, "
                                         f"got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridwave",
        description="First-quantized real-space grid quantum dynamics emulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("--config", required=True,
                     help="scenario file path or bundled scenario name")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--threads", type=_count, default=None,
                     help="threads of the step and of the BLAS pools")
    run.add_argument("--extended", action="store_true",
                     help="allow scenarios marked extended")
    run.add_argument("--repeat", type=_count, default=1, metavar="K",
                     help="run K independent seeded jobs into run_### subdirs")

    val = sub.add_parser("validate", help="check a scenario without running it")
    val.add_argument("--config", required=True)
    val.add_argument("--extended", action="store_true")

    sub.add_parser("list", help="list bundled scenarios")

    diff = sub.add_parser("diff", help="compare two run manifests")
    diff.add_argument("a", help="manifest.json or run directory")
    diff.add_argument("b", help="manifest.json or run directory")

    est = sub.add_parser("estimate", help="qubit and gate-depth audit")
    est.add_argument("--molecule", default=None,
                     help="preset name (NH3, C2F6, H)")
    est.add_argument("--particles", type=int, default=None)
    est.add_argument("--zmax", type=int, default=None)
    est.add_argument("--c3", type=float, default=None)
    est.add_argument("--cycles", type=_count, default=None,
                     help="explicit cycle count for the depth figure")
    est.add_argument("--csv", default=None, help="also write the audit as CSV")
    est.add_argument("--advise-box", action="store_true",
                     help="heuristic surface-density box advisory (presets only)")
    return p


def _set_threads(n: int | None) -> None:
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)
    from .propagator import set_blas_threads
    set_blas_threads(n)


def _cmd_run(args) -> int:
    from .scenario import load_scenario, resolve_scenario, run_scenario
    text = resolve_scenario(args.config)
    base_seed = args.seed if args.seed is not None else load_scenario(text).seed
    out = args.out or "out"
    if args.repeat == 1:
        result = run_scenario(text, out, seed=base_seed,
                              allow_extended=args.extended)
        print(f"wrote {len(result['outputs'])} artifacts to {result['out_dir']}")
        return 0
    for k in range(args.repeat):
        sub = os.path.join(out, f"run_{k:03d}")
        run_scenario(text, sub, seed=base_seed + k, allow_extended=args.extended)
        print(f"run {k}: seed {base_seed + k} -> {sub}")
    return 0


def _cmd_validate(args) -> int:
    from .scenario import resolve_scenario, validate_scenario
    scen = validate_scenario(resolve_scenario(args.config),
                             allow_extended=args.extended)
    print(f"ok: {args.config} ({scen.required_qubits()} qubits, "
          f"{scen.plan_steps} steps, dt={scen.plan_dt})")
    return 0


def _cmd_list(_args) -> int:
    from .scenario import bundled_scenarios, load_scenario
    for name, text in bundled_scenarios().items():
        scen = load_scenario(text)
        tag = " [extended]" if scen.extended else ""
        print(f"{name:28s} {scen.required_qubits():3d} qubits{tag}  {scen.description}")
    return 0


def _cmd_diff(args) -> int:
    from .iofmt import diff_manifests
    paths = [os.path.join(raw, "manifest.json") if os.path.isdir(raw) else raw
             for raw in (args.a, args.b)]
    diffs = diff_manifests(*paths)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


def _cmd_estimate(args) -> int:
    from .resources import (GEOMETRIES, PRESETS, MoleculeSpec, advise_box,
                            audit, gate_depth_estimate)
    if args.molecule:
        if args.molecule not in PRESETS:
            print(f"unknown preset {args.molecule!r}; have {sorted(PRESETS)}",
                  file=sys.stderr)
            return 2
        spec = PRESETS[args.molecule]
    else:
        if args.particles is None or args.zmax is None or args.c3 is None:
            print("estimate needs --molecule or all of --particles/--zmax/--c3 "
                  "(the root constant is never assumed silently)", file=sys.stderr)
            return 2
        spec = MoleculeSpec("custom", args.particles, args.zmax, args.c3)
    row = audit(spec)
    print(f"molecule      : {row['molecule']}")
    print(f"particles     : {row['particles']}  (Z_max {row['z_max']}, C3 {row['c3']})")
    print(f"n_r           : {row['n_r']} qubits per sub-register")
    print(f"qubits        : {row['qubits']} computational (3 * P * n_r)")
    print(f"per-cycle depth: {row['per_cycle_depth']} gates")
    if args.cycles:
        d = gate_depth_estimate(row["n_r"], row["particles"], args.cycles)
        print(f"depth x{args.cycles}: {d.total} (order 1e{d.order})")
    print(f"depth, fast   : {row['depth_fast']} (1e3 cycles, sub-fs event)")
    print(f"depth, slow   : {row['depth_slow']} (1e5 cycles, ps-scale event)")
    if args.advise_box:
        if spec.name not in GEOMETRIES:
            print("box advisory needs a preset with tabulated geometry",
                  file=sys.stderr)
            return 2
        adv = advise_box(GEOMETRIES[spec.name])
        print(f"box advisory  : {adv.length:.1f} a.u. per side (heuristic; "
              "feeds a manual n_r override only)")
    if args.csv:
        header = "molecule,particles,z_max,n_r,qubits,depth_fast,depth_slow"
        line = (f"{row['molecule']},{row['particles']},{row['z_max']},"
                f"{row['n_r']},{row['qubits']},{row['depth_fast']},{row['depth_slow']}")
        with open(args.csv, "w") as fh:
            fh.write(header + "\n" + line + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _set_threads(getattr(args, "threads", None))
    command = {"run": _cmd_run, "validate": _cmd_validate, "list": _cmd_list,
               "diff": _cmd_diff, "estimate": _cmd_estimate}[args.command]
    try:
        return command(args)
    except GridwaveError as exc:  # surface config errors as clean CLI failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
