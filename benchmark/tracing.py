"""Spans around calls into gridwave's public functions, patched in from here.

Each name is wrapped where its caller looks it up (``propagator`` imports
``apply_qft`` by name, so ``gridwave.propagator.apply_qft`` is wrapped;
``run_scenario`` imports ``inner_product`` at call time from
``gridwave.statevector``, so that one is wrapped there).  A span records its
name, parent, start and end; spans stay in memory and are written out after
the run.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

from gridwave import (corrections, dense, iofmt, observables, prep, propagator,
                      scenario, states, statevector)

_WRITERS = ("write_density_grid", "write_timeseries_csv", "write_pgm",
            "write_manifest", "write_statevector")

# (owner, attribute, span name)
TARGETS = [
    (propagator, "apply_qft", "statevector.fft"),
    (propagator, "apply_inverse_qft", "statevector.fft"),
    (propagator, "apply_phase_table", "statevector.phase_table"),
    (propagator, "register_add_sub", "statevector.add_sub"),
    (propagator, "masked_ancilla_x_rotation", "statevector.damp_rotation"),
    (propagator, "measure_qubit", "statevector.damp_rotation"),
    (observables, "controlled_apply", "statevector.controlled_apply"),
    (prep, "controlled_apply", "statevector.controlled_apply"),
    (statevector, "inner_product", "statevector.inner_product"),
    (statevector, "swap_particle_registers", "statevector.swap_registers"),
    (propagator.StepKernel, "__init__", "propagator.compile"),
    (propagator.StepKernel, "kinetic_cycle", "propagator.kinetic_cycle"),
    (propagator.StepKernel, "interaction", "propagator.interaction"),
    (propagator.StepKernel, "damp", "propagator.damp"),
    (propagator.StepKernel, "apply", "propagator.apply"),
    (observables, "plus_probability", "observables.plus_probability"),
    (observables, "probability_density", "observables.density"),
    (observables, "fit_energy_from_signal", "observables.fit"),
    (prep, "state_edit_remove", "prep.state_edit"),
    (corrections, "derive_correction", "corrections.derive"),
    (corrections, "apply_core_correction", "corrections.apply"),
    (dense, "reference_step_matrix", "dense.reference_step_matrix"),
    (dense, "build_dense_step_matrices", "dense.step_matrices"),
    (states, "discretize", "states.discretize"),
    (states, "bhattacharyya", "states.bhattacharyya"),
    (scenario, "build_initial_state", "scenario.initial_state"),
] + [(iofmt, name, "iofmt.write") for name in _WRITERS]

# metric name -> (span name, reduction, unit); the reductions are
#   per_step: self time (span minus its child spans) in ms per cycle applied
#   per_call: inclusive ms per call;  ms, s: inclusive total;  calls_per_step
LAYER_METRICS = {
    "statevector.fft.calls_per_step": ("statevector.fft", "calls_per_step", "count"),
    "statevector.fft.ms_per_step": ("statevector.fft", "per_step", "ms"),
    "statevector.phase_table.ms_per_step": ("statevector.phase_table", "per_step", "ms"),
    "statevector.add_sub.ms_per_step": ("statevector.add_sub", "per_step", "ms"),
    "statevector.damp_rotation.ms_per_step": ("statevector.damp_rotation", "per_step", "ms"),
    "statevector.controlled_apply.ms_per_step": ("statevector.controlled_apply", "per_step", "ms"),
    "statevector.inner_product.ms_per_call": ("statevector.inner_product", "per_call", "ms"),
    "statevector.swap_registers.ms_per_call": ("statevector.swap_registers", "per_call", "ms"),
    "propagator.compile.ms": ("propagator.compile", "ms", "ms"),
    "propagator.kinetic_cycle.ms_per_step": ("propagator.kinetic_cycle", "per_step", "ms"),
    "propagator.interaction.ms_per_step": ("propagator.interaction", "per_step", "ms"),
    "propagator.damp.ms_per_step": ("propagator.damp", "per_step", "ms"),
    "propagator.apply.ms_per_step": ("propagator.apply", "per_step", "ms"),
    "observables.plus_probability.ms_per_call": ("observables.plus_probability", "per_call", "ms"),
    "observables.density.ms_per_call": ("observables.density", "per_call", "ms"),
    "observables.fit.ms": ("observables.fit", "ms", "ms"),
    "prep.state_edit.s": ("prep.state_edit", "s", "s"),
    "corrections.derive.s": ("corrections.derive", "s", "s"),
    "corrections.apply.ms_per_step": ("corrections.apply", "per_step", "ms"),
    "dense.reference_step_matrix.s": ("dense.reference_step_matrix", "s", "s"),
    "dense.step_matrices.s": ("dense.step_matrices", "s", "s"),
    "states.discretize.ms": ("states.discretize", "ms", "ms"),
    "states.bhattacharyya.ms_per_call": ("states.bhattacharyya", "per_call", "ms"),
    "scenario.initial_state.s": ("scenario.initial_state", "s", "s"),
    "iofmt.write.ms": ("iofmt.write", "ms", "ms"),
}
# metrics read off the states and files the wrappers saw
OBSERVED_UNITS = {"statevector.state_mib": "MiB", "statevector.zero_amp_fraction": "ratio",
                  "iofmt.bytes_written": "bytes"}
UNITS = {**{name: unit for name, (_, _, unit) in LAYER_METRICS.items()}, **OBSERVED_UNITS}


class Tracer:
    """Installs the wrappers, records spans, and reduces them to metrics."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._stack = []
        self._saved = []
        self._largest_state = 0
        self._last_stepped = None
        self._written = []

    # -- observers: what the wrappers note besides time --------------------

    def _note_states(self, *candidates):
        for s in candidates:
            if isinstance(s, statevector.StateVector):
                self._largest_state = max(self._largest_state, s.amps.nbytes)

    def _observer(self, name):
        if name == "propagator.apply":
            def seen(args):
                self._last_stepped = args[1]
                self._note_states(args[1])
            return seen
        if name in ("statevector.controlled_apply", "statevector.inner_product",
                    "statevector.swap_registers"):
            return lambda args: self._note_states(*args[:2])
        if name == "iofmt.write":
            return lambda args: self._written.append(os.fspath(args[0]))
        return None

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self._observer(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def metrics(self) -> tuple[dict, int]:
        """(per-layer metrics, number of cycles applied)."""
        self_time = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, _, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        steps = calls["propagator.apply"]
        out = {}
        for metric, (span, how, _) in LAYER_METRICS.items():
            if how == "per_step":
                out[metric] = 1e3 * self_time[span] / steps
            elif how == "calls_per_step":
                out[metric] = calls[span] / steps
            elif how == "per_call":
                out[metric] = 1e3 * total[span] / calls[span] if calls[span] else 0.0
            elif how == "ms":
                out[metric] = 1e3 * total[span]
            else:
                out[metric] = total[span]
        amps = self._last_stepped.amps
        out["statevector.state_mib"] = self._largest_state / 2 ** 20
        out["statevector.zero_amp_fraction"] = np.count_nonzero(amps == 0) / amps.size
        out["iofmt.bytes_written"] = sum(os.path.getsize(p) for p in self._written)
        return out, steps

    def write(self, path) -> None:
        """All spans as JSON: names once, then [name index, parent, start, end]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], p, s, e] for n, p, s, e in self.spans]}, fh)
