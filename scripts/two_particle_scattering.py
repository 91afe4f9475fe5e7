#!/usr/bin/env python3
"""Two-phase scattering run: damped two-electron dynamics, then a survivor
phase with the coupling dropped, the time step coarsened and the survivor's
box enlarged.

The first phase tracks cumulative escape; once it crosses the trigger the
pair coupling is removed (the fast particle is treated as gone), the grid of
particle 0 is widened by sign extension, and propagation continues on a
coarser clock while the survivor's left/right weight is recorded.
"""

import argparse
import time
from pathlib import Path

from gridwave import (Gaussian, Hydrogen2D, SimulationBox, StateVector,
                      StepPlan, antisymmetrize_direct, discretize,
                      enlarge_particle, particle_layout, probability_density)
from gridwave.hamiltonian import (AttenuationSpec, HamiltonianSpec, Nucleus,
                                  ParticleSpec, UniformEdgeRegion)
from gridwave.propagator import compile_step


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/scattering")
    ap.add_argument("--n-r", type=int, default=4)
    ap.add_argument("--length", type=float, default=16.0)
    ap.add_argument("--trigger", type=float, default=0.5)
    ap.add_argument("--phase1-steps", type=int, default=2000)
    ap.add_argument("--phase2-steps", type=int, default=400)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    box = SimulationBox(2, args.n_r, args.length, 0.5)
    layout = particle_layout(2, 2, args.n_r, box=box)
    atten = AttenuationSpec(UniformEdgeRegion(2, 0.5))
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                           (Nucleus((0.0, 0.0), 1.0),), attenuation=atten)
    bound, _ = discretize(Hydrogen2D(0, 0), box)
    incident, _ = discretize(Gaussian((0.0, 5.0), (0.0, -2.0), (0.4, 0.4)), box)
    combined, _ = antisymmetrize_direct(bound, incident)
    state = StateVector(combined, layout)

    plan = StepPlan(0.01, attenuation=atten)
    kernel = compile_step(layout, plan, spec)
    survival = 1.0
    escape_rows = ["time,cumulative_escape"]
    t = 0.0
    t0 = time.time()
    step = 0
    while step < args.phase1_steps:
        sink = []
        kernel.apply(state, sink)
        step += 1
        t += plan.dt
        survival *= 1.0 - sink[0]
        escape_rows.append(f"{t:.6f},{1.0 - survival:.17g}")
        if 1.0 - survival >= args.trigger:
            break
    print(f"phase 1: escape {1.0 - survival:.3f} after {step} steps "
          f"({time.time() - t0:.0f}s)")

    # phase 2: drop the pair term, widen the survivor's box, coarsen the clock
    spec2 = spec.with_couplings_zeroed()
    state = enlarge_particle(state, 0, 1)
    plan2 = StepPlan(0.05, attenuation=atten)
    kernel2 = compile_step(state.layout, plan2, spec2)
    left_rows = ["time,left_weight,cumulative_escape"]
    for _ in range(args.phase2_steps):
        sink = []
        kernel2.apply(state, sink)
        t += plan2.dt
        survival *= 1.0 - sink[0]
        dens = probability_density(state, 0)
        left = float(dens[: dens.shape[0] // 2, :].sum())
        left_rows.append(f"{t:.6f},{left:.17g},{1.0 - survival:.17g}")
    print(f"phase 2 done: total escape {1.0 - survival:.3f}")

    (out / "escape_phase1.csv").write_text("\n".join(escape_rows) + "\n")
    (out / "survivor_phase2.csv").write_text("\n".join(left_rows) + "\n")
    print(f"wrote {out}/escape_phase1.csv and {out}/survivor_phase2.csv")


if __name__ == "__main__":
    main()
