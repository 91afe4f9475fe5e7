"""The four workloads: inputs made from the seed, and the timed body of one run.

Each workload has a ``make_*`` function that turns the seed into inputs
(scenario text or parameters, nothing computed by gridwave) and a ``run_*``
function that drives gridwave through its public entry points under a
:class:`Clock`.  The run functions return what the checks need.
"""

from __future__ import annotations

import random
from math import cos, pi, sin
from pathlib import Path
from string import Template
from time import perf_counter

from gridwave import observables, prep, propagator, scenario, states
from gridwave.grid import SimulationBox
from gridwave.hamiltonian import HamiltonianSpec, Nucleus, ParticleSpec
from gridwave.registers import particle_layout
from gridwave.statevector import StateVector

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

# probe: the state_edit grid, with a time step four times the scenario's so
# that the edit takes 707 cycles instead of 2827
PROBE_DT = 0.02
PROBE_STEPS = 800
PROBE_EVERY = 10
E_REMOVED = -1.0 / (2.0 * 1.5 ** 2)     # 2D hydrogen n = 1: -1/(2 (n + 1/2)^2)


class Clock:
    """Times one run: set-up until the first split-operator cycle begins,
    time spent propagating, and wall time until the last output is written.

    The first ``StepKernel.apply`` call marks the end of set-up; the hook
    removes itself on that call, so stepping runs unwrapped afterwards.
    Intervals passed to :meth:`exclude` (copies kept for the checks) are
    taken out of set-up and wall time.
    """

    def __init__(self):
        self.steps = 0
        self.propagation_s = 0.0
        self._excluded = 0.0
        self._excluded_before_first = 0.0
        self._first_cycle = None
        self._end = None
        kernel = propagator.StepKernel
        inner = kernel.apply

        def first_apply(kernel_self, *args, **kwargs):
            self._first_cycle = perf_counter()
            self._excluded_before_first = self._excluded
            kernel.apply = inner
            return inner(kernel_self, *args, **kwargs)

        kernel.apply = first_apply
        self._restore = lambda: setattr(kernel, "apply", inner)
        self.t0 = perf_counter()

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    def propagated(self, seconds: float, steps: int) -> None:
        self.propagation_s += seconds
        self.steps += steps

    def stop(self) -> None:
        self._end = perf_counter()
        self._restore()

    def figures(self) -> dict:
        if self._first_cycle is None or self.steps == 0:
            raise RuntimeError("the workload applied no split-operator cycle")
        return {
            "setup_s": self._first_cycle - self.t0 - self._excluded_before_first,
            "steps_per_s": self.steps / self.propagation_s,
            "wall_s": self._end - self.t0 - self._excluded,
            "steps": self.steps,
            "propagation_s": self.propagation_s,
        }


# -- inputs -------------------------------------------------------------------

def _scenario_text(name: str, fields: dict) -> str:
    return Template((SCENARIOS / f"{name}.cfg").read_text()).substitute(fields)


def make_scattering(seed: int) -> dict:
    rnd = random.Random(seed)
    params = {"seed": seed,
              "center_x": round(rnd.uniform(-0.5, 0.5), 6),
              "center_y": round(rnd.uniform(4.75, 5.25), 6),
              "momentum_y": round(rnd.uniform(-1.7, -1.3), 6)}
    return {"params": params, "text": _scenario_text("scattering", params)}


def make_helium(seed: int) -> dict:
    rnd = random.Random(seed)
    params = {"seed": seed, "origin_offset": round(rnd.uniform(0.4, 0.6), 6)}
    return {"params": params, "text": _scenario_text("helium", params)}


def make_core_patch(seed: int) -> dict:
    rnd = random.Random(seed)
    params = {"seed": seed, "origin_offset": round(rnd.uniform(0.4, 0.6), 6)}
    return {"params": params, "text": _scenario_text("core_patch", params)}


def make_probe(seed: int) -> dict:
    rnd = random.Random(seed)
    params = {"seed": seed, "origin_offset": round(rnd.uniform(0.4, 0.6), 6),
              "mix_angle": round(pi / 4 + rnd.uniform(-0.1, 0.1), 6)}
    return {"params": params}


# -- timed bodies ---------------------------------------------------------------

def run_config(inputs: dict, out_dir: Path, clock: Clock) -> dict:
    """``gridwave run`` on the workload's scenario text.

    Each ``propagate`` call is timed, and its starting state copied (outside
    the timed figures) so the checks can replay the first cycles.
    """
    starts = []
    inner = propagator.propagate

    def timed_propagate(state, plan, spec, steps, *args, **kwargs):
        t = perf_counter()
        starts.append((state.copy(), plan, spec))
        clock.exclude(perf_counter() - t)
        t = perf_counter()
        try:
            return inner(state, plan, spec, steps, *args, **kwargs)
        finally:
            clock.propagated(perf_counter() - t, steps)

    propagator.propagate = timed_propagate
    try:
        scenario.run_scenario(inputs["text"], out_dir)
    finally:
        propagator.propagate = inner
    clock.stop()
    return {"out_dir": out_dir, "starts": starts}


def run_probe(inputs: dict, out_dir: Path, clock: Clock) -> dict:
    """Component removal, then a phase-probe series and its energy fit."""
    p = inputs["params"]
    box = SimulationBox(2, 8, 56.0, p["origin_offset"])
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),), (Nucleus((0.0, 0.0), 1.0),))
    mix = states.Superposition(((cos(p["mix_angle"]), states.Hydrogen2D(1, 1)),
                                (sin(p["mix_angle"]), states.Hydrogen2D(2, 2))))
    amps, _ = states.discretize(mix, box)
    initial = StateVector(amps, particle_layout(1, 2, 8, box=box))
    plan = propagator.StepPlan(PROBE_DT)
    t = perf_counter()
    start = initial.copy()
    clock.exclude(perf_counter() - t)

    t = perf_counter()
    edited, success = prep.state_edit_remove(initial, E_REMOVED, plan, spec)
    series = observables.phase_probe_series(edited, plan, spec, PROBE_STEPS, PROBE_EVERY)
    edit_steps = int(round(pi / abs(E_REMOVED) / PROBE_DT))
    clock.propagated(perf_counter() - t, edit_steps + PROBE_STEPS)
    estimate = observables.fit_energy_from_signal(series)
    clock.stop()
    return {"starts": [(start, plan, spec)], "box": box, "edited": edited,
            "success": success, "series": series, "estimate": estimate}


WORKLOADS = {
    "scattering": (make_scattering, run_config),
    "helium": (make_helium, run_config),
    "probe": (make_probe, run_probe),
    "core_patch": (make_core_patch, run_config),
}
