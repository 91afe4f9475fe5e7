import numpy as np
import pytest

from gridwave.errors import ConfigError
from gridwave.grid import SimulationBox
from gridwave.hamiltonian import (AttenuationSpec, ExplicitRegion, HamiltonianSpec,
                                  Nucleus, ParticleSpec, UniformEdgeRegion)
from gridwave.propagator import (StepPlan, compile_step, kinetic_constant,
                                 propagate, split_step_inverse)
from gridwave.registers import particle_layout, pattern_of_value
from gridwave.statevector import (StateVector, apply_diagonal_phase, apply_qft,
                                  inner_product, register_add_sub)
from .conftest import cached_eig, hydrogen_spec, random_state
from .oracles import (ancilla_damping_round, dense_split_cycle,
                      free_gaussian_evolved)


def _random_sv(rng, layout):
    return StateVector(random_state(rng, layout.num_qubits), layout)


def test_kinetic_constant_value():
    box = SimulationBox(1, 5, 10.0)
    assert kinetic_constant(box, 5, 1.0) == pytest.approx(2 * np.pi ** 2 / 100,
                                                          abs=1e-12)
    assert kinetic_constant(box, 5, 1.0) == pytest.approx(0.197392, abs=1e-6)


def _plane_wave(k: int, layout):
    """Position-space plane wave of wavenumber k on a one-register layout."""
    span = layout.span(0, 0)
    state = StateVector.basis_state(span.width, pattern_of_value(k, span.width), layout)
    return apply_qft(state, span)


def test_kinetic_phase_on_momentum_component():
    # a plane wave at k=-4 picks up exactly exp(-i C dt 16) over the cycle
    box = SimulationBox(1, 3, 8.0)
    layout = particle_layout(1, 1, 3, box=box)
    kernel = compile_step(layout, StepPlan(0.05), hydrogen_spec(1))
    wave = _plane_wave(-4, layout)
    state = kernel.kinetic_cycle(wave.copy())
    c = kinetic_constant(box, 3, 1.0)
    expect = np.exp(-1j * c * 0.05 * 16)
    assert np.abs(state.amps - expect * wave.amps).max() < 1e-12
    # k=0 component (the uniform state) untouched
    uniform = _plane_wave(0, layout)
    state0 = kernel.kinetic_cycle(uniform.copy())
    assert np.abs(state0.amps - uniform.amps).max() < 1e-15


def test_split_step_identity_at_zero_dt(rng):
    box = SimulationBox(2, 3, 8.0)
    layout = particle_layout(1, 2, 3, box=box)
    state = _random_sv(rng, layout)
    before = state.amps.copy()
    compile_step(layout, StepPlan(0.0), hydrogen_spec(2)).apply(state)
    assert np.abs(state.amps - before).max() < 1e-10


def test_split_step_matches_dense_oracle_2d(rng):
    box = SimulationBox(2, 4, 10.0, 0.5)
    layout = particle_layout(1, 2, 4, box=box)
    spec = hydrogen_spec(2)
    u = dense_split_cycle(4, 2, 1, 10.0, 0.5, 0.01, [1.0], [-1.0],
                          [((0.0, 0.0), 1.0)], [[0.0]])
    kernel = compile_step(layout, StepPlan(0.01), spec)
    for _ in range(5):
        psi = random_state(rng, 8)
        state = StateVector(psi.copy(), layout)
        kernel.apply(state)
        assert np.abs(state.amps - u @ psi).max() < 1e-10


def test_split_step_matches_dense_oracle_two_particles(rng):
    box = SimulationBox(1, 3, 8.0, 0.5)
    layout = particle_layout(2, 1, 3, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                           (Nucleus((0.0,), 1.0),))
    u = dense_split_cycle(3, 1, 2, 8.0, 0.5, 0.02, [1.0, 1.0], [-1.0, -1.0],
                          [((0.0,), 1.0)], [[0.0, 1.0], [1.0, 0.0]])
    kernel = compile_step(layout, StepPlan(0.02), spec)
    for _ in range(5):
        psi = random_state(rng, 6)
        state = StateVector(psi.copy(), layout)
        kernel.apply(state)
        assert np.abs(state.amps - u @ psi).max() < 1e-10


def test_split_step_preserves_norm(rng):
    box = SimulationBox(2, 4, 12.0)
    layout = particle_layout(1, 2, 4, box=box)
    state = _random_sv(rng, layout)
    kernel = compile_step(layout, StepPlan(0.01), hydrogen_spec(2))
    for _ in range(20):
        kernel.apply(state)
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_split_step_inverse_roundtrip(rng):
    box = SimulationBox(1, 3, 8.0)
    layout = particle_layout(2, 1, 3, box=box)
    spec = HamiltonianSpec((ParticleSpec(), ParticleSpec()), (Nucleus((0.0,), 1.0),))
    state = _random_sv(rng, layout)
    before = state.amps.copy()
    plan = StepPlan(0.03)
    kernel = compile_step(layout, plan, spec)
    kernel.apply(state)
    split_step_inverse(state, plan, spec, kernel=kernel)
    assert np.abs(state.amps - before).max() < 1e-12


def test_free_gaussian_matches_closed_form():
    # pure kinetic evolution: the split cycle is exact, so after 1 a.u. the
    # discretised packet must match the analytic dispersing Gaussian
    box = SimulationBox(1, 7, 20.0, 0.5)
    layout = particle_layout(1, 1, 7, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),))
    from gridwave.states import Gaussian, discretize
    amps, _ = discretize(Gaussian((-2.0,), (1.0,), (1.0,)), box)
    state = StateVector(amps.copy(), layout)
    plan = StepPlan(0.01)
    kernel = compile_step(layout, plan, spec)
    for _ in range(100):
        kernel.apply(state)
    xs = box.coordinates()
    ref = free_gaussian_evolved(xs, 1.0, -2.0, 1.0, 1.0)
    ref = ref / np.linalg.norm(ref)
    fid = abs(np.vdot(ref, state.amps)) ** 2
    assert fid > 1.0 - 1e-6


def test_nuclear_phase_zero_charge_identity(rng):
    box = SimulationBox(2, 3, 8.0)
    layout = particle_layout(1, 2, 3, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),), (Nucleus((0.0, 0.0), 0.0),))
    state = _random_sv(rng, layout)
    before = state.amps.copy()
    compile_step(layout, StepPlan(0.1), spec).interaction(state)
    assert np.abs(state.amps - before).max() < 1e-15


def test_nuclear_phase_half_pixel_denominator():
    # at offset 0.5 the central pixel's Coulomb distance is delta_r*sqrt(0.5)
    box = SimulationBox(2, 3, 8.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box)
    state = StateVector.basis_state(6, 0, layout)   # pixel (0, 0)
    dt = 0.1
    compile_step(layout, StepPlan(dt), hydrogen_spec(2)).interaction(state)
    dist = box.delta_r * np.sqrt(0.5 ** 2 + 0.5 ** 2)
    expect = np.exp(-1j * (-1.0) * dt / dist)
    assert state.amps[0] == pytest.approx(expect, abs=1e-12)


def test_pairwise_phase_examples(rng):
    box = SimulationBox(1, 4, 16.0)   # delta_r = 1
    layout = particle_layout(2, 1, 4, box=box)
    # zero coupling: identity
    spec0 = HamiltonianSpec((ParticleSpec(), ParticleSpec()),
                            pair_couplings=np.zeros((2, 2)))
    state = _random_sv(rng, layout)
    before = state.amps.copy()
    compile_step(layout, StepPlan(0.1), spec0).interaction(state)
    assert np.abs(state.amps - before).max() == 0.0
    # fixed pixels n1=3, n2=5, q=1, dt=0.1: phase 0.1/2 = 0.05 rad
    spec1 = HamiltonianSpec((ParticleSpec(), ParticleSpec()),
                            pair_couplings=np.array([[0.0, 1.0], [1.0, 0.0]]))
    idx = (pattern_of_value(5, 4) << 4) | pattern_of_value(3, 4)
    st2 = StateVector.basis_state(8, idx, layout)
    compile_step(layout, StepPlan(0.1), spec1).interaction(st2)
    assert st2.amps[idx] == pytest.approx(np.exp(-1j * 0.05), abs=1e-12)


def test_pairwise_roundtrip_with_zero_phase(rng):
    box = SimulationBox(2, 3, 8.0)
    layout = particle_layout(2, 2, 3, box=box)
    spec = HamiltonianSpec((ParticleSpec(), ParticleSpec()),
                           pair_couplings=np.array([[0.0, 1e-300], [1e-300, 0.0]]))
    state = _random_sv(rng, layout)
    before = state.amps.copy()
    compile_step(layout, StepPlan(0.0), spec).interaction(state)
    assert np.abs(state.amps - before).max() < 1e-12


@pytest.mark.parametrize("dims, n_r, cap", [(2, 3, True), (3, 2, False)])
def test_interaction_matches_add_sub_reference(rng, dims, n_r, cap):
    # the one position table equals the paper's circuit: subtract particle 1's
    # registers from particle 0's, relative-coordinate phase, add back, plus
    # the nuclear phase of each particle
    box = SimulationBox(dims, n_r, 6.0, 0.5)
    layout = particle_layout(2, dims, n_r, box=box)
    if cap:
        layout = layout.with_ancilla("cap")
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),) * 2,
                           (Nucleus((0.3,) * dims, 2.0),))
    dt = 0.07
    state = _random_sv(rng, layout)
    ref = state.copy()
    compile_step(layout, StepPlan(dt), spec).interaction(state)

    def nuclear(*values):
        r2 = sum(((v - box.origin_offset) * box.delta_r - 0.3) ** 2 for v in values)
        return dt * (-1.0 * 2.0) / np.sqrt(r2)

    def relative(*deltas):
        d = np.sqrt(sum(dv.astype(np.float64) ** 2 for dv in deltas))
        return dt / (box.delta_r * np.where(d == 0, 1.0, d))

    spans0, spans1 = layout.particles[0].spans, layout.particles[1].spans
    for spans in (spans0, spans1):
        apply_diagonal_phase(ref, nuclear, list(spans))
    for a, b in zip(spans0, spans1):
        register_add_sub(ref, a, b, "subtract")
    apply_diagonal_phase(ref, relative, list(spans0))
    for a, b in zip(spans0, spans1):
        register_add_sub(ref, a, b, "add")
    assert np.abs(state.amps - ref.amps).max() < 1e-14


def test_field_phase_values(rng):
    box = SimulationBox(1, 4, 32.0, 0.0)   # delta_r = 2, offset 0 -> x = 2n
    layout = particle_layout(1, 1, 4, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),), efield=(0.1,))
    # pixel x=2.0 (n=1), dt=0.01: phase -Q*x*E*dt = +0.002 rad
    state = StateVector.basis_state(4, pattern_of_value(1, 4), layout)
    compile_step(layout, StepPlan(0.01), spec).interaction(state)
    expect = np.exp(1j * 0.002)
    assert state.amps[pattern_of_value(1, 4)] == pytest.approx(expect, abs=1e-14)
    # zero field: identity
    state2 = _random_sv(rng, layout)
    before = state2.amps.copy()
    compile_step(layout, StepPlan(0.01),
                 HamiltonianSpec((ParticleSpec(),), efield=(0.0,))).interaction(state2)
    assert np.abs(state2.amps - before).max() == 0.0


def test_pixel_eigenstate_is_stationary(hyd2d_spec):
    # exact eigenvector of the pixelated Hamiltonian stays put over 100 fine steps
    box = SimulationBox(2, 4, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, 4, box=box)
    state = StateVector(evecs[:, 0].astype(complex).copy(), layout)
    plan = StepPlan(2e-4)
    kernel = compile_step(layout, plan, hyd2d_spec)
    initial = state.copy()
    for _ in range(100):
        kernel.apply(state)
    assert abs(inner_product(initial, state)) >= 1.0 - 1e-6


def test_trotter_convergence_order(hyd2d_spec):
    # final-state error after fixed physical time shrinks ~O(dt) over a decade
    from gridwave.states import Hydrogen2D, discretize
    box = SimulationBox(2, 4, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, 4, box=box)
    amps, _ = discretize(Hydrogen2D(1, 1), box)
    total_t = 0.4
    errs = []
    for dt in (0.02, 0.002):
        state = StateVector(amps.copy(), layout)
        kernel = compile_step(layout, StepPlan(dt), hyd2d_spec)
        for _ in range(int(round(total_t / dt))):
            kernel.apply(state)
        coeff = evecs.conj().T @ amps
        ideal = evecs @ (coeff * np.exp(-1j * evals * total_t))
        errs.append(np.linalg.norm(state.amps - ideal))
    ratio = errs[0] / errs[1]
    assert 5.0 < ratio < 20.0    # first-order: one decade in dt -> ~one decade in error


# -- attenuation -------------------------------------------------------------------

def _cap_setup(strength=1.0, msb=2, n_r=6, momentum=2.0):
    box = SimulationBox(1, n_r, 20.0, 0.5)
    layout = particle_layout(1, 1, n_r, box=box).with_ancilla("cap")
    atten = AttenuationSpec(UniformEdgeRegion(msb, strength))
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),), attenuation=atten)
    from gridwave.states import Gaussian, discretize
    amps, _ = discretize(Gaussian((-4.0,), (momentum,), (0.5,)), box)
    state = StateVector(np.concatenate([amps, np.zeros_like(amps)]), layout)
    return box, layout, spec, state


def test_attenuation_zero_strength_is_identity():
    box, layout, spec, state = _cap_setup(strength=0.0)
    before = state.amps.copy()
    plan = StepPlan(0.01, attenuation=spec.attenuation)
    inc = compile_step(layout, plan, spec).damp(state)
    assert inc == 0.0
    assert np.abs(state.amps - before).max() == 0.0


def test_attenuation_detects_fully_inside_region():
    # all amplitude inside the strip, rotation near pi/2: detection -> 1
    box = SimulationBox(1, 4, 16.0, 0.5)
    layout = particle_layout(1, 1, 4, box=box).with_ancilla("cap")
    strength = 600.0   # theta = arccos(e^-6) close to pi/2
    atten = AttenuationSpec(UniformEdgeRegion(1, strength))
    spec = HamiltonianSpec((ParticleSpec(),), attenuation=atten)
    amps = np.zeros(16, dtype=complex)
    amps[pattern_of_value(-8, 4)] = 1.0   # leftmost pixel, inside the strip
    state = StateVector(np.concatenate([amps, np.zeros(16)]), layout)
    plan = StepPlan(0.01, attenuation=atten)
    inc = compile_step(layout, plan, spec).damp(state)
    assert inc > 1.0 - 1e-5
    # renormalising by the tiny survival amplifies rounding; stay within 1e-9
    assert abs(state.norm_sq() - 1.0) < 1e-9


def test_attenuation_cumulative_escape(rng):
    box, layout, spec, state = _cap_setup()
    plan = StepPlan(0.01, attenuation=spec.attenuation)
    escapes = []
    propagate(state, plan, spec, 1500, escape=escapes)
    from gridwave.observables import escape_tracker
    series = escape_tracker(escapes)
    assert np.all(np.diff(series.values) >= -1e-15)
    assert series.values[-1] > 0.9
    assert abs(state.norm_sq() - 1.0) < 1e-9


@pytest.mark.parametrize("cap", [False, True])
@pytest.mark.parametrize("case", ["strip_1d", "strip_2d_pair", "pixels_2d"])
def test_damp_matches_ancilla_circuit(rng, case, cap):
    # the damping table against the rotate / post-select round gate by gate,
    # on the bare layout and on one that still carries the ancilla
    dt = 0.05
    if case == "strip_1d":
        particles, dims, n_r = 1, 1, 6
        region = UniformEdgeRegion(2, 1.5)
    elif case == "strip_2d_pair":
        particles, dims, n_r = 2, 2, 3
        region = UniformEdgeRegion(2, 0.8)
    else:
        particles, dims, n_r = 1, 2, 4
        region = ExplicitRegion({(-8, 3): 2.0, (7, -8): 0.5})
    m = 1 << n_r
    registers = particles * dims          # register r holds bits r*n_r and up
    index = np.arange(1 << (registers * n_r))
    values = [(index >> (r * n_r)) % m for r in range(registers)]
    values = [np.where(v < m // 2, v, v - m) for v in values]
    if isinstance(region, UniformEdgeRegion):
        side = m >> region.msb_qubits
        masks = [(v < -m // 2 + side) | (v >= m // 2 - side) for v in values]
        angles = [np.arccos(np.exp(-region.strength * dt))] * registers
    else:
        masks = [np.logical_and.reduce([values[d] == pix[d] for d in range(dims)])
                 for pix in region.pixels]
        angles = [np.arccos(np.exp(-v * dt)) for v in region.pixels.values()]
    amps = random_state(rng, registers * n_r)
    expected, expected_escape = ancilla_damping_round(amps, masks, angles)
    assert expected_escape > 1e-3

    box = SimulationBox(dims, n_r, 12.0, 0.5)
    layout = particle_layout(particles, dims, n_r, box=box)
    if cap:
        layout = layout.with_ancilla("cap")
        amps = np.concatenate([amps, np.zeros_like(amps)])
    atten = AttenuationSpec(region)
    spec = HamiltonianSpec((ParticleSpec(),) * particles, attenuation=atten)
    state = StateVector(amps, layout)
    escape = compile_step(layout, StepPlan(dt, attenuation=atten), spec).damp(state)
    assert np.abs(state.amps[:expected.size] - expected).max() <= 1e-14
    assert np.all(state.amps[expected.size:] == 0.0)
    assert abs(escape - expected_escape) <= 1e-15


@pytest.mark.parametrize("pixel", [(99,), (8,), (-9,)])
def test_damping_pixel_outside_grid_refused(pixel):
    # a 1D n_r = 4 grid holds the pixels [-8, 8); none may wrap onto another
    box = SimulationBox(1, 4, 10.0, 0.5)
    atten = AttenuationSpec(ExplicitRegion({pixel: 1.0}))
    spec = HamiltonianSpec((ParticleSpec(),), attenuation=atten)
    with pytest.raises(ConfigError, match="outside the grid"):
        compile_step(particle_layout(1, 1, 4, box=box), StepPlan(0.01, attenuation=atten),
                      spec)


# -- propagate loop -----------------------------------------------------------------

def test_propagate_zero_steps(rng):
    box = SimulationBox(1, 3, 8.0)
    layout = particle_layout(1, 1, 3, box=box)
    state = _random_sv(rng, layout)
    before = state.amps.copy()
    propagate(state, StepPlan(0.01), hydrogen_spec(1), 0)
    assert np.abs(state.amps - before).max() == 0.0


def test_propagate_callbacks_and_events(rng):
    box = SimulationBox(1, 3, 8.0)
    layout = particle_layout(2, 1, 3, box=box)
    spec = HamiltonianSpec((ParticleSpec(), ParticleSpec()), (Nucleus((0.0,), 1.0),))
    state = _random_sv(rng, layout)
    times = []

    def cb(step, t, current):
        times.append(t)

    def event(state_, plan_, spec_):
        from gridwave.statevector import enlarge_particle
        state_ = enlarge_particle(state_, 0, 1)
        return state_, plan_.with_dt(0.02), spec_.with_couplings_zeroed()

    out = propagate(state, StepPlan(0.01), spec, 4, callbacks=[cb],
                    events={2: event})
    assert out.num_qubits == 7
    assert times == pytest.approx([0.01, 0.02, 0.04, 0.06])
    assert abs(out.norm_sq() - 1.0) < 1e-12


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.01])
def test_step_plan_rejects_bad_dt(dt):
    with pytest.raises(ConfigError):
        StepPlan(dt)
    with pytest.raises(ConfigError):
        StepPlan(0.01).with_dt(dt)


def test_stale_augmentation_refused():
    from gridwave.corrections import CoreCorrection
    corr = CoreCorrection(1, 0, 1, np.eye(2, dtype=complex), dt=0.004)
    plan = StepPlan(0.004, augmentation=corr)
    with pytest.raises(ConfigError):
        plan.with_dt(0.002)
    box = SimulationBox(1, 3, 8.0)
    layout = particle_layout(1, 1, 3, box=box)
    bad_plan = StepPlan(0.002, augmentation=corr)
    with pytest.raises(ConfigError):
        compile_step(layout, bad_plan, hydrogen_spec(1))


def test_exchange_symmetry_preserved(rng):
    # antisymmetric two-particle state keeps SWAP expectation -1 over 100 steps
    from gridwave.states import Gaussian, Hydrogen2D, antisymmetrize_direct, discretize
    from gridwave.statevector import swap_particle_registers
    box = SimulationBox(2, 4, 16.0, 0.5)
    layout = particle_layout(2, 2, 4, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                           (Nucleus((0.0, 0.0), 1.0),))
    a, _ = discretize(Hydrogen2D(0, 0), box)
    b, _ = discretize(Gaussian((0.0, 5.0), (0.0, -1.5), (0.4, 0.4)), box)
    combined, _ = antisymmetrize_direct(a, b)
    state = StateVector(combined, layout)
    kernel = compile_step(layout, StepPlan(0.01), spec)
    for _ in range(100):
        kernel.apply(state)
    swapped = swap_particle_registers(state, 0, 1)
    assert inner_product(state, swapped).real == pytest.approx(-1.0, abs=1e-9)
