import numpy as np
import pytest

from gridwave.corrections import CoreCorrection
from gridwave.errors import ConfigError, PostSelectionError
from gridwave.grid import SimulationBox
from gridwave.hamiltonian import (AttenuationSpec, HamiltonianSpec, ParticleSpec,
                                  UniformEdgeRegion)
from gridwave.prep import (ImaginaryTimeParams, SynthSpectrum, align_energies,
                           antisymmetrize_tagged, imaginary_time_run,
                           imaginary_time_step, state_edit_remove)
from gridwave.propagator import StepPlan
from gridwave.registers import particle_layout
from gridwave.states import exchange_product
from gridwave.statevector import StateVector
from .conftest import cached_eig
from .oracles import (permuted_tagged_state, tag_erasure_success,
                      tagged_exchange_circuit)


# -- component removal ---------------------------------------------------------

def _free_momentum_setup():
    # kinetic-only system: momentum basis states are exact cycle eigenstates
    box = SimulationBox(1, 4, 10.0, 0.5)
    layout = particle_layout(1, 1, 4, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),))
    from gridwave.propagator import kinetic_constant
    c = kinetic_constant(box, 4, 1.0)
    from gridwave.registers import pattern_of_value
    from gridwave.statevector import apply_qft

    def plane_wave(k):
        st = StateVector.basis_state(4, pattern_of_value(k, 4), layout)
        apply_qft(st, layout.span(0, 0))
        return st.amps.copy()

    return box, layout, spec, c, plane_wave


def test_edit_removes_pure_component_impossible():
    # editing away the only component present: zero success probability
    box, layout, spec, c, plane_wave = _free_momentum_setup()
    e_target = c * 4.0          # k = 2
    state = StateVector(plane_wave(2), layout)
    plan = StepPlan((np.pi / e_target) / 64)
    with pytest.raises(PostSelectionError):
        state_edit_remove(state, e_target, plan, spec)


def test_edit_exact_removal_and_certain_rerun():
    # survivor at k=4 has E2 = 4*E1, so the removal time is a full survivor
    # period: the second identical round must succeed with certainty
    box, layout, spec, c, plane_wave = _free_momentum_setup()
    e1, e2 = c * 4.0, c * 16.0
    mix = (plane_wave(2) + plane_wave(4)) / np.sqrt(2)
    state = StateVector(mix, layout)
    plan = StepPlan((np.pi / e1) / 64)
    edited, p = state_edit_remove(state, e1, plan, spec)
    assert p == pytest.approx(0.5, abs=1e-12)   # survivor factor is exactly 1
    leftover = abs(np.vdot(plane_wave(2), edited.amps)) ** 2
    assert leftover < 1e-24
    _, p2 = state_edit_remove(edited, e1, plan, spec)
    assert p2 == pytest.approx(1.0, abs=1e-12)


def test_edit_suppresses_target_component(hyd2d_spec):
    box = SimulationBox(2, 3, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, 3, box=box)
    mix = (evecs[:, 0] + evecs[:, 4]) / np.sqrt(2)
    state = StateVector(mix.astype(complex), layout)
    plan = StepPlan(abs(np.pi / evals[0]) / 128)
    edited, p = state_edit_remove(state, evals[0], plan, hyd2d_spec)
    # the unwanted component is suppressed by orders of magnitude
    leftover = abs(np.vdot(evecs[:, 0], edited.amps)) ** 2
    assert leftover < 1e-4
    surviving = abs(np.vdot(evecs[:, 4], edited.amps)) ** 2
    assert surviving > 1.0 - 1e-4
    # success = 0.5 * (surviving component's own plus-probability)
    t_total = round(abs(np.pi / evals[0]) / plan.dt) * plan.dt
    factor = np.cos(evals[4] * t_total / 2) ** 2
    assert p == pytest.approx(0.5 * factor, abs=1e-3)


def test_edit_rejects_zero_energy(hyd2d_spec):
    box = SimulationBox(2, 2, 10.0, 0.5)
    layout = particle_layout(1, 2, 2, box=box)
    state = StateVector.zero_state(4, layout)
    with pytest.raises(ConfigError):
        state_edit_remove(state, 0.0, StepPlan(0.1), hyd2d_spec)


# -- imaginary-time filtering -------------------------------------------------------

def test_imaginary_time_parameter_set():
    p = ImaginaryTimeParams(0.9, 2e-5)
    assert p.s == pytest.approx(2.0647416, abs=1e-6)
    assert p.kappa == 1.0
    # rotation angle from the adopted bracketing arccos((m0+sqrt(1-m0^2))/sqrt(2))
    assert p.theta == pytest.approx(0.3343714, abs=1e-6)
    assert p.dtau == pytest.approx(p.s * 2e-5, abs=1e-18)
    low = ImaginaryTimeParams(0.5, 1e-4)
    assert low.kappa == -1.0
    assert low.theta < 0


def test_imaginary_time_rejects_degenerate_m0():
    with pytest.raises(ConfigError):
        ImaginaryTimeParams(1.0 / np.sqrt(2.0), 1e-4)
    with pytest.raises(ConfigError):
        ImaginaryTimeParams(1.2, 1e-4)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-4])
def test_imaginary_time_rejects_bad_dt(dt):
    with pytest.raises(ConfigError):
        ImaginaryTimeParams(0.9, dt)


def test_imaginary_time_free_state_exact_m0_squared():
    # zero Hamiltonian: the step is exactly m0 * identity
    box = SimulationBox(1, 3, 8.0, 0.5)
    layout = particle_layout(1, 1, 3, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),))
    state = StateVector.zero_state(3, layout)
    from gridwave.statevector import apply_qft
    apply_qft(state, layout.span(0, 0))     # k=0 plane wave, kinetic eigenvalue 0
    before = state.amps.copy()
    params = ImaginaryTimeParams(0.9, 1e-3)
    _, p = imaginary_time_step(state, params, StepPlan(1e-3), spec)
    assert p == pytest.approx(0.81, abs=1e-12)
    assert np.abs(state.amps - before).max() < 1e-12


def test_imaginary_time_eigenstate_ratio(hyd2d_spec):
    # amplitude ratio across two eigenstates matches exp(-dE dtau) to O(dtau^2)
    box = SimulationBox(2, 4, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, 4, box=box)
    dt = 2e-4
    params = ImaginaryTimeParams(0.9, dt)
    probs = []
    for k in (0, 5):
        state = StateVector(evecs[:, k].astype(complex).copy(), layout)
        _, p = imaginary_time_step(state, params, StepPlan(dt), hyd2d_spec)
        probs.append(p)
    measured = np.sqrt(probs[0] / probs[1])
    expect = np.exp(-(evals[0] - evals[5]) * params.dtau)
    de = abs(evals[0] - evals[5])
    assert abs(measured - expect) < 10 * (de * params.dtau) ** 2 + 1e-9


def test_imaginary_time_success_probability_scaling(hyd2d_spec):
    # success for the exact ground eigenvector equals m0^2 e^{-2 E dtau} with a
    # deviation that shrinks ~quadratically as dt is halved
    box = SimulationBox(2, 4, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, 4, box=box)
    devs = []
    for dt in (4e-4, 2e-4):
        params = ImaginaryTimeParams(0.9, dt)
        state = StateVector(evecs[:, 0].astype(complex).copy(), layout)
        _, p = imaginary_time_step(state, params, StepPlan(dt), hyd2d_spec)
        target = 0.81 * np.exp(-2 * evals[0] * params.dtau)
        devs.append(abs(p - target))
        assert 0.0 < p <= 1.0
    assert devs[1] < devs[0] / 2.5


def test_imaginary_time_run_tracks_ground(hyd2d_spec):
    box = SimulationBox(2, 4, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, 4, box=box)
    ground = evecs[:, 0].astype(complex)
    state = StateVector(ground.copy(), layout)
    params = ImaginaryTimeParams(0.9, 2e-4)
    run = imaginary_time_run(state, params, StepPlan(2e-4), hyd2d_spec, 50,
                             references={"ground": ground}, record_every=10)
    # ground input stays put; per-step success essentially constant
    assert np.abs(run.overlaps["ground"].values - 1.0).max() < 1e-8
    assert np.ptp(run.success.values) < 1e-10
    assert run.log10_cumulative < 0
    # the paper-style bookkeeping: ~0.33 failure/step kills the cumulative
    # success within ~23 steps; reproduce as a computed ratio
    per_step = float(run.success.values[0])
    steps_to_1e4 = np.log(1e-4) / np.log(per_step)
    assert 20 < steps_to_1e4 < 120


def test_imaginary_time_guard_rails(hyd2d_spec):
    box = SimulationBox(2, 2, 10.0, 0.5)
    layout = particle_layout(1, 2, 2, box=box)
    state = StateVector.zero_state(4, layout)
    params = ImaginaryTimeParams(0.9, 1e-3)
    with pytest.raises(ConfigError):
        imaginary_time_step(state, params, StepPlan(2e-3), hyd2d_spec)


@pytest.mark.parametrize("field", ["attenuation", "augmentation"])
def test_imaginary_time_run_refuses_damped_and_patched_plans(hyd2d_spec, field):
    # the backward branch needs the inverse cycle, which only the plain
    # cycle has; the refusal leaves the input state as it was
    box = SimulationBox(2, 3, 10.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box)
    state = StateVector(cached_eig(box, hyd2d_spec)[1][:, 0].astype(complex), layout)
    before = state.amps.copy()
    extra = {"attenuation": AttenuationSpec(UniformEdgeRegion(1, 1.0)),
             "augmentation": CoreCorrection(2, -1, 1, np.eye(4, dtype=complex), dt=1e-3)}
    with pytest.raises(ConfigError) as err:
        imaginary_time_run(state, ImaginaryTimeParams(0.9, 1e-3),
                           StepPlan(1e-3, **{field: extra[field]}), hyd2d_spec, 4)
    assert err.value.field == f"plan.{field}"
    assert np.array_equal(state.amps, before)


@pytest.mark.parametrize("record_every", [0, -2])
def test_imaginary_time_run_refuses_non_positive_cadence(hyd2d_spec, record_every):
    box = SimulationBox(2, 2, 10.0, 0.5)
    layout = particle_layout(1, 2, 2, box=box)
    state = StateVector.basis_state(4, 5, layout)
    params = ImaginaryTimeParams(0.9, 1e-3)
    with pytest.raises(ConfigError) as err:
        imaginary_time_run(state, params, StepPlan(1e-3), hyd2d_spec, 4,
                           record_every=record_every)
    assert err.value.field == "prep.imaginary_time.record"


# -- tagged exchange symmetrisation ---------------------------------------------------

def _orthonormal_states(rng, count, dim):
    mat = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    q, _ = np.linalg.qr(mat)
    return tuple(q[:, i].copy() for i in range(count))


def _ideal(spectrum, symmetrize=False):
    """The (anti)symmetrised product of the spectrum's states, unit norm."""
    out = exchange_product(spectrum.states, symmetrize)
    return out / np.linalg.norm(out)


def test_tagged_integer_energies_certain(rng):
    states = _orthonormal_states(rng, 2, 8)
    spectrum = SynthSpectrum(states, (0.0, 1.0), 3)
    out, p = antisymmetrize_tagged(spectrum)
    assert p == pytest.approx(1.0, abs=1e-12)
    ideal = _ideal(spectrum)
    assert abs(np.vdot(ideal, out)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_tagged_p2_output_form():
    a = np.array([1, 0, 0, 0], dtype=complex)
    b = np.array([0, 1, 0, 0], dtype=complex)
    spectrum = SynthSpectrum((a, b), (0.0, 1.0), 2)
    out, p = antisymmetrize_tagged(spectrum)
    assert p == pytest.approx(1.0, abs=1e-12)
    # (|ab> - |ba>)/sqrt(2) with particle 0 in the low bits
    expect = np.zeros(16, dtype=complex)
    expect[0b0100] = 1 / np.sqrt(2)    # particle0=a(0), particle1=b(1)
    expect[0b0001] = -1 / np.sqrt(2)   # particle0=b(1), particle1=a(0)
    phase = np.vdot(expect, out)
    assert abs(phase) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_tagged_success_matches_closed_form(rng):
    states = _orthonormal_states(rng, 3, 8)
    energies = (0.0, 2.1, 4.1)
    spectrum = SynthSpectrum(states, energies, 3)
    out, p = antisymmetrize_tagged(spectrum)
    expect = tag_erasure_success([0.0, 0.1, 0.1], 3)
    assert p == pytest.approx(expect, abs=1e-10)
    # given success the state is ideal up to global phase
    ideal = _ideal(spectrum)
    assert abs(np.vdot(ideal, out)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_tagged_deviation_location_irrelevant(rng):
    # a single deviating energy costs the same wherever it sits
    states = _orthonormal_states(rng, 3, 8)
    p_first = antisymmetrize_tagged(
        SynthSpectrum(states, (0.0, 2.15, 4.0), 3))[1]
    p_last = antisymmetrize_tagged(
        SynthSpectrum(states, (0.0, 2.0, 4.15), 3))[1]
    assert p_first == pytest.approx(p_last, abs=1e-10)


def test_tagged_paper_scale_success_values():
    # the closed form reproduces the published five-particle numbers
    for dev, expect in ((0.025, 0.990), (0.05, 0.960), (0.1, 0.850)):
        val = tag_erasure_success([dev] * 5, 3)
        assert val == pytest.approx(expect, abs=5e-4)


def test_tagged_symmetrize_variant(rng):
    states = _orthonormal_states(rng, 2, 4)
    spectrum = SynthSpectrum(states, (0.0, 1.0), 2)
    out, p = antisymmetrize_tagged(spectrum, symmetrize=True)
    ideal = _ideal(spectrum, symmetrize=True)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(ideal, out)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_tagged_validation(rng):
    states = _orthonormal_states(rng, 2, 8)
    with pytest.raises(ConfigError):
        SynthSpectrum(states, (2.0, 3.0), 3)       # E0 far from 0
    with pytest.raises(ConfigError):
        SynthSpectrum(states, (0.0, 9.0), 3)       # exceeds tag range
    with pytest.raises(ConfigError):
        SynthSpectrum((states[0], states[0]), (0.0, 1.0), 3)  # not orthogonal


def test_tag_collision_refused_at_construction(rng):
    # 0.0 and 0.4 both round to tag 0
    states = _orthonormal_states(rng, 2, 8)
    with pytest.raises(ConfigError, match="collide"):
        SynthSpectrum(states, (0.0, 0.4), 3)


@pytest.mark.parametrize("symmetrize", [False, True])
@pytest.mark.parametrize("energies", [(0.0, 3.0, 7.0), (0.1, 3.1, 6.1),
                                      (0.0, 2.1, 4.1), (0.0, 2.15, 4.0)],
                         ids=["integer", "uniform_shift", "two_shifted", "one_shifted"])
def test_tagged_matches_tag_register_circuit(rng, energies, symmetrize):
    # the slot-by-slot form against the full 18-qubit tagged circuit
    states = _orthonormal_states(rng, 3, 8)
    out, p = antisymmetrize_tagged(SynthSpectrum(states, energies, 3), symmetrize)
    expect, p_expect = tagged_exchange_circuit(states, energies, 3, symmetrize)
    assert abs(p - p_expect) < 1e-12
    assert np.abs(out - expect).max() < 1e-12


def test_align_energies():
    aligned = align_energies([-1.3, 0.2, 2.7], 3)
    assert aligned[0] == 0.0
    assert aligned[-1] == pytest.approx(7.0)
    assert aligned[1] == pytest.approx((0.2 + 1.3) / 4.0 * 7.0)


def test_permuted_state_norm(rng):
    states = _orthonormal_states(rng, 3, 8)
    vec = permuted_tagged_state(states, (0.0, 3.0, 7.0), 3)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
