"""State preparation: component removal, imaginary-time filtering, exchange
symmetrisation by the tag protocol.

Every method here is probabilistic on hardware; the emulator post-selects the
success branch deterministically and reports the probability it paid for it.
Component removal needs no ancilla in the emulation: its |+> branch is the
plain-state sum (psi + U^n psi)/2.  Exchange symmetrisation needs no tag
qubits either: its post-selected branch is an exchange product of P
single-particle vectors, one per slot (``antisymmetrize_tagged``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import ConfigError, PostSelectionError
from .hamiltonian import HamiltonianSpec
from .observables import TimeSeries, _controlled_evolution
from .propagator import StepPlan, compile_step, split_step_inverse
from .states import exchange_product
from .statevector import StateVector
# unused here; benchmark/tracing.py wraps this name in this module's namespace
from .statevector import controlled_apply  # noqa: F401


# -- removal of a known-energy component --------------------------------------

def state_edit_remove(state: StateVector, e_remove: float, plan: StepPlan,
                      spec: HamiltonianSpec):
    """Erase the component of known energy by one conditioned-evolution round.

    Evolves, conditioned on a |+> ancilla, until the target component has
    acquired a pi phase (duration pi/|E|, snapped to whole steps), then
    post-selects the ancilla on |+>.  That branch is (psi + U^n psi)/2, with
    its squared norm as the success probability, so one evolved copy gives
    it.  Returns (edited state, success probability); ``state`` is left
    untouched.
    """
    if e_remove == 0.0:
        raise ConfigError("cannot target a zero-energy component", field="prep.energy")
    period = np.pi / abs(e_remove)
    n_steps = int(round(period / plan.dt))
    if n_steps < 1:
        raise ConfigError("dt exceeds the removal period; reduce dt", field="plan.dt")
    achieved = n_steps * plan.dt * abs(e_remove)
    if abs(achieved - np.pi) > 0.01 * np.pi:
        warnings.warn(
            f"removal time snapped to {n_steps} steps leaves phase "
            f"{achieved:.4f} rad instead of pi; suppression is partial",
            stacklevel=2)
    edited = _controlled_evolution(state, plan, spec, n_steps)
    edited.amps += state.amps
    edited.amps *= 0.5
    p = min(edited.norm_sq(), 1.0)
    if p < 1e-15:
        raise PostSelectionError(f"the |+> outcome of the edit has probability {p:.3e}")
    edited.amps *= 1.0 / np.sqrt(p)
    return edited, p


# -- probabilistic imaginary-time filtering ------------------------------------

@dataclass(frozen=True)
class ImaginaryTimeParams:
    """Parameters of the single-ancilla imaginary-time step.

    The step mixes one forward and one backward real-time cycle so that the
    post-selected branch equals m0*exp(-H*dtau) to first order, with the
    imaginary step rescaled from the real one by s = m0/sqrt(1-m0^2).
    """

    m0: float
    dt: float

    def __post_init__(self):
        if not 0.0 < self.m0 < 1.0:
            raise ConfigError("m0 must lie in (0, 1)", field="prep.m0")
        if abs(self.m0 - 1.0 / np.sqrt(2.0)) < 1e-12:
            raise ConfigError("m0 = 1/sqrt(2) is the degenerate choice",
                              field="prep.m0")
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ConfigError("dt must be finite and positive", field="prep.dt")

    @property
    def s(self) -> float:
        return self.m0 / np.sqrt(1.0 - self.m0 ** 2)

    @property
    def kappa(self) -> float:
        return float(np.sign(self.m0 - 1.0 / np.sqrt(2.0)))

    @property
    def theta(self) -> float:
        arg = (self.m0 + np.sqrt(1.0 - self.m0 ** 2)) / np.sqrt(2.0)
        return float(self.kappa * np.arccos(arg))

    @property
    def dtau(self) -> float:
        return self.s * self.dt


def imaginary_time_step(state: StateVector, params: ImaginaryTimeParams,
                        plan: StepPlan, spec: HamiltonianSpec,
                        kernel=None):
    """One post-selected imaginary-time step; returns (state, success probability).

    The branch operator is (m0/2)[(1-is)U + (1+is)U^dag] with U one split
    cycle: exactly m0 on a zero-energy component and m0*exp(-E*dtau) + O(dtau^2)
    on an eigenstate of energy E.
    """
    if plan.dt != params.dt:
        raise ConfigError("plan dt and imaginary-time dt differ", field="prep.dt")
    if kernel is None:
        kernel = compile_step(state.layout, plan, spec)
    # the inverse first: it refuses a damped or patched cycle before any work
    backward = split_step_inverse(state.copy(), plan, spec, kernel=kernel)
    forward = kernel.apply(state.copy())
    coeff = 0.5 * params.m0
    state.amps[...] = coeff * ((1.0 - 1j * params.s) * forward.amps
                               + (1.0 + 1j * params.s) * backward.amps)
    p = state.norm_sq()
    if p > 1.0 + 1e-9:
        raise ConfigError(
            f"imaginary-time branch norm {p:.6f} exceeds 1; dt too large "
            "for the first-order step")
    if p <= 0.0:
        raise PostSelectionError("imaginary-time step annihilated the state")
    state.amps *= 1.0 / np.sqrt(p)
    return state, p


@dataclass
class ImaginaryTimeRun:
    state: StateVector
    success: TimeSeries          # per-step success probability
    overlaps: dict               # label -> TimeSeries of |<ref|psi>|^2
    log10_cumulative: float      # log10 of the product of step probabilities


def imaginary_time_run(state: StateVector, params: ImaginaryTimeParams,
                       plan: StepPlan, spec: HamiltonianSpec, steps: int,
                       references: dict | None = None,
                       record_every: int = 1) -> ImaginaryTimeRun:
    """Repeated post-selected imaginary-time steps with overlap tracking.

    ``references`` maps labels to unit vectors; their squared overlaps are
    recorded every ``record_every`` steps.  The cumulative success
    probability underflows fast, so its log10 is returned.
    """
    if record_every < 1:
        raise ConfigError("record_every must be >= 1", field="prep.imaginary_time.record")
    kernel = compile_step(state.layout, plan, spec)
    references = references or {}
    times, probs = [], []
    overlaps = {label: [] for label in references}
    log10_cum = 0.0
    for step in range(1, steps + 1):
        _, p = imaginary_time_step(state, params, plan, spec, kernel=kernel)
        log10_cum += np.log10(p)
        if step % record_every == 0:
            times.append(step * params.dtau)
            probs.append(p)
            for label, ref in references.items():
                amp = np.add.reduce(np.conj(ref) * state.amps)
                overlaps[label].append(abs(amp) ** 2)
    t = np.asarray(times)
    return ImaginaryTimeRun(
        state,
        TimeSeries(t, np.asarray(probs)),
        {k: TimeSeries(t, np.asarray(v)) for k, v in overlaps.items()},
        log10_cum)


# -- tag-register exchange symmetrisation ---------------------------------------

@dataclass(frozen=True)
class SynthSpectrum:
    """Orthogonal single-particle states labelled by an ordered synthetic
    spectrum, aligned so E_0 = 0 and E_{P-1} fits in the tag register."""

    states: tuple
    energies: tuple
    tag_width: int

    def __post_init__(self):
        states = tuple(np.asarray(s, dtype=np.complex128) for s in self.states)
        object.__setattr__(self, "states", states)
        energies = tuple(float(e) for e in self.energies)
        object.__setattr__(self, "energies", energies)
        p = len(states)
        if p < 2 or len(energies) != p:
            raise ConfigError("need >= 2 states with one energy each")
        dim = states[0].size
        if any(s.size != dim for s in states):
            raise ConfigError("all particle states must share one register size")
        if dim & (dim - 1):
            raise ConfigError("particle register size must be a power of two")
        gram = np.array([[np.add.reduce(np.conj(a) * b) for b in states] for a in states])
        if np.abs(gram - np.eye(p)).max() > 1e-9:
            raise ConfigError("states must be orthonormal within 1e-9")
        if any(e2 <= e1 for e1, e2 in zip(energies, energies[1:])):
            raise ConfigError("energies must be strictly increasing")
        # aligned spectra put E_0 at 0; small deviations from the integer
        # grid are the object of study, so only gross misalignment is refused
        if not -0.5 <= energies[0] < 1.0:
            raise ConfigError("energies must be aligned so E_0 is near 0")
        if energies[-1] > (1 << self.tag_width) - 0.5:
            raise ConfigError("top energy exceeds the tag register range")
        if len({round(e) for e in energies}) != p:
            raise ConfigError("rounded tag integers collide; increase tag width")
        gaps = np.diff(energies)
        if gaps.min() < 1.0 - 1e-12:
            warnings.warn("smallest synthetic gap below 1; an energy is off its "
                          "integer tag, which costs success probability",
                          stacklevel=2)

    @property
    def count(self) -> int:
        return len(self.states)


def align_energies(raw, tag_width: int):
    """Affine-map raw ascending energies onto [0, 2^t - 1]."""
    raw = np.asarray(raw, dtype=np.float64)
    span = raw[-1] - raw[0]
    if span <= 0:
        raise ConfigError("energies must be strictly increasing")
    return tuple((raw - raw[0]) * ((1 << tag_width) - 1) / span)


def antisymmetrize_tagged(spectrum: SynthSpectrum, symmetrize: bool = False):
    """Tag, permute, phase-erase and post-select; returns (particle-register
    vector, success probability).

    On hardware every slot carries an integer tag register beside its
    particle; the tags are Fourier-analysed, each Fourier component mm
    applies the synthetic evolution W(mm) to its own particle register, and
    the tags are post-selected on all-|+>.  All three act on one slot alone,
    so a slot whose particle has tag tau ends up carrying
    A_tau = (1/m) sum_mm exp(-2 pi i mm tau / m) W(mm), m = 2^t, and the
    projected state is (1/sqrt(P!)) sum_perm sign (x)_i A s_{perm i}.  That
    is built here from the P vectors A s_j, with no tag qubit at all.
    """
    m = 1 << spectrum.tag_width
    basis = np.array(spectrum.states)
    mm = np.arange(m)
    # W(mm) = 1 + sum_k (exp(2 pi i mm E_k / m) - 1) |s_k><s_k|
    shifts = np.exp(2j * np.pi * np.outer(mm, spectrum.energies) / m) - 1.0
    slots = []
    for state, energy in zip(basis, spectrum.energies):
        weights = np.exp(-2j * np.pi * mm * round(energy) / m) / m
        overlaps = (weights @ shifts) * np.add.reduce(basis.conj() * state, axis=1)
        slots.append(weights.sum() * state + overlaps @ basis)
    projected = exchange_product(slots, symmetrize)
    projected /= np.sqrt(factorial(spectrum.count))
    success = float(np.add.reduce(np.abs(projected) ** 2))
    if success < 1e-15:
        raise PostSelectionError("all-plus tag outcome has vanishing probability")
    projected /= np.sqrt(success)
    return projected, success
