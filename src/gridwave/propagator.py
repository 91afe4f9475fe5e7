"""First-order split-operator time stepping on the register statevector.

One step applies, in order: one joint transform of all particle registers
to momentum space, one quadratic kinetic phase table per particle, the
joint transform back, one position-diagonal table holding every nuclear,
field and pairwise factor, optional boundary damping, optional core patch
correction.  The pairwise factors are what the paper's register
subtract / relative-coordinate phase / add circuit produces
(``statevector.register_add_sub`` keeps that circuit as the reference);
here they are gathered once into the position table.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigError, LayoutError
from .hamiltonian import (AttenuationSpec, ExplicitRegion, HamiltonianSpec,
                          UniformEdgeRegion, pair_potential,
                          single_particle_potential)
from .registers import RegisterLayout, pattern_of_value, span_values
from .statevector import (StateVector, apply_inverse_qft, apply_phase_table,
                          apply_qft, masked_ancilla_x_rotation, measure_qubit)
# unused here; benchmark/tracing.py wraps it by name in this module's namespace
from .statevector import register_add_sub  # noqa: F401

CAP_ANCILLA = "cap"


@dataclass(frozen=True)
class StepPlan:
    """One split-operator cycle description."""

    dt: float
    augmentation: object | None = None     # CoreCorrection, see corrections.py
    attenuation: AttenuationSpec | None = None

    def __post_init__(self):
        if self.dt < 0:
            raise ConfigError("dt must be non-negative", field="plan.dt")

    def with_dt(self, dt: float) -> "StepPlan":
        # a patch correction is derived for one specific dt; changing dt
        # silently would apply a stale correction
        if self.augmentation is not None and dt != self.dt:
            raise ConfigError(
                "changing dt invalidates the attached core correction; "
                "derive a new one", field="plan.dt")
        return replace(self, dt=dt)


def _along(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """View of a 1D array laid along ``axis`` of an ``ndim``-axis broadcast."""
    shape = [1] * ndim
    shape[axis] = vec.size
    return vec.reshape(shape)


def kinetic_constant(box, width: int, mass: float) -> float:
    """Phase prefactor C with phases exp(-i*C*dt*k^2); C = 2*pi^2/(L^2 m)."""
    box_width = box.width_for(width)
    return 2.0 * np.pi ** 2 / (box_width ** 2 * mass)


class StepKernel:
    """Phase tables for one (layout, plan, spec) triple, reused across steps."""

    def __init__(self, layout: RegisterLayout, plan: StepPlan, spec: HamiltonianSpec):
        box = layout.box
        if box is None:
            raise LayoutError("propagation needs a layout with an attached box")
        if len(spec.particles) != len(layout.particles):
            raise ConfigError("particle count differs between layout and spec")
        if plan.augmentation is not None and plan.augmentation.dt != plan.dt:
            raise ConfigError(
                f"core correction was derived for dt={plan.augmentation.dt}, "
                f"plan has dt={plan.dt}", field="plan.augmentation")
        self.layout = layout
        self.plan = plan
        self.spec = spec
        dt = plan.dt

        # every particle span, highest start first: the axis order of the
        # reshaped state, so the tables below broadcast onto it as views
        self.spans = sorted((s for particle in layout.particles for s in particle.spans),
                            key=lambda s: s.start, reverse=True)
        axis = {s: i for i, s in enumerate(self.spans)}
        ndim = len(self.spans)

        # kinetic factors: per particle, the outer product of its 1D span factors
        self.kinetic = []
        for p, particle in enumerate(layout.particles):
            mass = spec.particles[p].mass
            spans = [s for s in self.spans if s in particle.spans]
            factors = []
            for i, s in enumerate(spans):
                k = span_values(s.width).astype(np.float64)
                c = kinetic_constant(box, s.width, mass)
                factors.append(_along(np.exp(-1j * c * dt * k ** 2), i, len(spans)))
            self.kinetic.append((spans, reduce(np.multiply, factors)))

        # one position table over all particle spans: pairwise factors gathered
        # from the relative-coordinate table at (pattern_p - pattern_q) mod 2^w
        # per dimension (two's complement makes that the value difference),
        # times the nuclear + field factors of each particle
        factors = []
        for p in range(len(layout.particles)):
            for q in range(p + 1, len(layout.particles)):
                coupling = spec.coupling(p, q)
                if coupling == 0.0:
                    continue
                spans_p = layout.particles[p].spans
                spans_q = layout.particles[q].spans
                if [s.width for s in spans_p] != [s.width for s in spans_q]:
                    raise LayoutError("paired particles need equal-shape registers")
                deltas = np.meshgrid(*[span_values(s.width) for s in spans_p],
                                     indexing="ij")
                relative = np.exp(-1j * pair_potential(spec, p, q, box.delta_r, deltas) * dt)
                index = []
                for sp, sq in zip(spans_p, spans_q):
                    patterns = np.arange(1 << sp.width)
                    index.append((_along(patterns, axis[sp], ndim)
                                  - _along(patterns, axis[sq], ndim)) % patterns.size)
                factors.append(relative[tuple(index)])
        if spec.nuclei or any(spec.efield):
            for p, particle in enumerate(layout.particles):
                coords = [_along(box.coordinates(s.width), axis[s], ndim)
                          for s in particle.spans]
                v, singular = single_particle_potential(spec, p, coords)
                v = np.where(singular, 0.0, v)   # zero-phase override at exact zeros
                factors.append(np.exp(-1j * v * dt))
        self.position = None
        if factors:
            shape = tuple(1 << s.width for s in self.spans)
            table = factors[0]
            for f in factors[1:]:   # in place once the product spans every axis
                table = np.multiply(table, f, out=table if table.shape == shape else None)
            self.position = np.ascontiguousarray(np.broadcast_to(table, shape))

        # boundary damping
        self.damping = None
        if plan.attenuation is not None:
            self.damping = self._compile_damping(plan.attenuation)

    def _compile_damping(self, atten: AttenuationSpec):
        layout = self.layout
        if CAP_ANCILLA not in layout.ancillas:
            raise LayoutError(
                f"attenuation needs a reserved '{CAP_ANCILLA}' ancilla in |0>")
        ancilla = layout.ancillas[CAP_ANCILLA]
        if ancilla.width != 1:
            raise LayoutError("the damping ancilla must be a single qubit")
        ops = []
        region = atten.region
        if isinstance(region, UniformEdgeRegion):
            theta = atten.angle(region.strength, self.plan.dt)
            for particle in layout.particles:
                for s in particle.spans:
                    allowed = np.zeros(1 << s.width, dtype=bool)
                    pats = pattern_of_value(region.member_values(s.width), s.width)
                    allowed[pats] = True
                    ops.append(([s], allowed, theta))
        elif isinstance(region, ExplicitRegion):
            for particle in layout.particles:
                spans = list(particle.spans)
                for pix, strength in region.pixels.items():
                    if len(pix) != len(spans):
                        raise ConfigError(
                            f"pixel {pix} has wrong dimensionality",
                            field="attenuation.pixels")
                    theta = atten.angle(strength, self.plan.dt)
                    table = np.zeros([1 << s.width for s in spans], dtype=bool)
                    idx = tuple(pattern_of_value(v, s.width) for v, s in zip(pix, spans))
                    table[idx] = True
                    ops.append((spans, table, theta))
        else:
            raise ConfigError("unknown attenuation region type", field="attenuation")
        return ancilla.start, ops

    @cached_property
    def adjoint(self) -> "StepKernel":
        """This kernel with every kinetic and interaction table conjugated, so
        that its sub-steps undo the ones of this kernel."""
        adj = copy(self)
        adj.kinetic = [(spans, np.conj(f)) for spans, f in self.kinetic]
        if self.position is not None:
            adj.position = np.conj(self.position)
        return adj

    # -- application --------------------------------------------------------

    def kinetic_cycle(self, state: StateVector) -> StateVector:
        apply_inverse_qft(state, self.spans)
        for spans, factors in self.kinetic:
            apply_phase_table(state, spans, factors)
        apply_qft(state, self.spans)
        return state

    def interaction(self, state: StateVector) -> StateVector:
        if self.position is not None:
            apply_phase_table(state, self.spans, self.position)
        return state

    def damp(self, state: StateVector) -> float:
        """Boundary measurement round; returns this step's detection probability."""
        ancilla, ops = self.damping
        survival = 1.0
        for spans, allowed, theta in ops:
            if theta == 0.0:
                continue
            masked_ancilla_x_rotation(state, spans, allowed, ancilla, theta)
            record, _ = measure_qubit(state, ancilla, "z", forced_outcome=0)
            survival *= record.probability
        return 1.0 - survival

    def apply(self, state: StateVector, escape=None) -> StateVector:
        self.kinetic_cycle(state)
        self.interaction(state)
        if self.damping is not None:
            increment = self.damp(state)
            if escape is not None:
                escape.append(increment)
        if self.plan.augmentation is not None:
            from .corrections import apply_core_correction
            apply_core_correction(state, self.plan.augmentation)
        return state


def compile_step(layout: RegisterLayout, plan: StepPlan,
                 spec: HamiltonianSpec) -> StepKernel:
    return StepKernel(layout, plan, spec)


def split_step_inverse(state: StateVector, plan: StepPlan, spec: HamiltonianSpec,
                       kernel: StepKernel | None = None) -> StateVector:
    """Exact inverse of the unitary part of one cycle (no damping, no patch):
    the interaction, then the kinetic cycle, each with conjugated tables."""
    if kernel is None:
        kernel = compile_step(state.layout, plan, spec)
    kernel.adjoint.interaction(state)
    kernel.adjoint.kinetic_cycle(state)
    return state


def propagate(state: StateVector, plan: StepPlan, spec: HamiltonianSpec,
              steps: int, callbacks=(), events: dict | None = None,
              escape=None, t0: float = 0.0) -> StateVector:
    """Repeated split-operator stepping with observable callbacks.

    ``callbacks`` are called as cb(step_index, time, state) after every step
    (the state must be treated as read-only).  ``events`` maps a step index
    to a callable (state, plan, spec) -> (state, plan, spec) applied after
    that step completes; the kernel is recompiled, so mid-run dt changes,
    register enlargement and coupling changes are supported.
    """
    if steps < 0:
        raise ConfigError("steps must be non-negative", field="plan.steps")
    kernel = compile_step(state.layout, plan, spec) if steps else None
    t = t0
    for step in range(1, steps + 1):
        kernel.apply(state, escape)
        t += plan.dt
        for cb in callbacks:
            cb(step, t, state)
        if events and step in events:
            state, plan, spec = events[step](state, plan, spec)
            if step < steps:
                kernel = compile_step(state.layout, plan, spec)
    return state
