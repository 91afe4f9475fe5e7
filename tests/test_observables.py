import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwave.errors import ConfigError, GridwaveError
from gridwave.grid import SimulationBox
from gridwave.hamiltonian import (AttenuationSpec, HamiltonianSpec, ParticleSpec,
                                  UniformEdgeRegion)
from gridwave.observables import (TimeSeries, autocorrelation, escape_tracker,
                                  fit_energy_from_signal,
                                  multi_qubit_phase_estimation,
                                  phase_probe_series,
                                  phase_register_distribution,
                                  probability_density,
                                  sampled_energy_expectation)
from gridwave.prep import state_edit_remove
from gridwave.propagator import StepKernel, StepPlan, compile_step, kinetic_constant
from gridwave.registers import particle_layout, pattern_of_value
from gridwave.statevector import StateVector
from .conftest import cached_eig, hydrogen_spec, random_state
from .oracles import (controlled_evolution_plus, phase_register_kernel,
                      phase_register_readout, signed_value)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def test_autocorrelation_basics(rng):
    psi = StateVector(random_state(rng, 5))
    assert autocorrelation(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_autocorrelation_eigenstate_phase(hyd2d_spec):
    # dense evolution of an exact eigenvector traces exp(-i E t)
    box = SimulationBox(2, 3, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    k = 2
    t = 0.9
    initial = StateVector(evecs[:, k].astype(complex))
    evolved = StateVector(evecs[:, k] * np.exp(-1j * evals[k] * t))
    ac = autocorrelation(initial, evolved)
    assert ac == pytest.approx(np.exp(-1j * evals[k] * t), abs=1e-12)
    assert abs(ac) <= 1.0 + 1e-12


# -- phase probe -----------------------------------------------------------------

def _eigen_setup(hyd2d_spec, k=0, n_r=3):
    box = SimulationBox(2, n_r, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, n_r, box=box)
    state = StateVector(evecs[:, k].astype(complex).copy(), layout)
    return box, evals[k], state


def _probe(state, plan, spec, steps):
    """The probe's <+| probability after ``steps`` conditioned cycles."""
    return phase_probe_series(state, plan, spec, steps, steps).values[0]


def test_ipe_probability_eigenstate_cosine(hyd2d_spec):
    box, energy, state = _eigen_setup(hyd2d_spec)
    steps = 40
    dt = 0.01
    p = _probe(state, StepPlan(dt), hyd2d_spec, steps)
    # the probe traces cos^2(E t / 2) up to Trotter error
    assert p == pytest.approx(np.cos(energy * steps * dt / 2) ** 2, abs=1e-5)


def test_ipe_two_component_average(hyd2d_spec):
    # equal superposition of two eigenstates: mean of the two cosine signals
    box = SimulationBox(2, 3, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, 3, box=box)
    mix = (evecs[:, 0] + evecs[:, 4]) / np.sqrt(2)
    state = StateVector(mix.astype(complex), layout)
    steps, dt = 30, 0.01
    p = _probe(state, StepPlan(dt), hyd2d_spec, steps)
    t = steps * dt
    expect = 0.5 * (np.cos(evals[0] * t / 2) ** 2 + np.cos(evals[4] * t / 2) ** 2)
    assert p == pytest.approx(expect, abs=1e-5)


def test_probe_identity_links_autocorrelation(hyd2d_spec, rng):
    # a(t) == (1 + Re<psi0|psi(t)>)/2 at every recorded step
    box = SimulationBox(2, 3, 10.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box)
    state = StateVector(random_state(rng, 6), layout)
    plan = StepPlan(0.02)
    series = phase_probe_series(state, plan, hyd2d_spec, total_steps=12, every=3)
    # replay without the ancilla
    from gridwave.statevector import inner_product
    work = state.copy()
    kernel = compile_step(layout, plan, hyd2d_spec)
    expected = []
    for step in range(1, 13):
        kernel.apply(work)
        if step % 3 == 0:
            expected.append((1 + inner_product(state, work).real) / 2)
    assert np.abs(series.values - np.asarray(expected)).max() < 1e-12


# -- the paper's controlled circuits as oracles ---------------------------------------

@pytest.fixture(scope="module")
def dense_cycle():
    """2D n_r = 3 hydrogen: spec and plan, the dense step matrix U (column j
    is one kernel cycle of basis state j) and a random unit state."""
    box = SimulationBox(2, 3, 10.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box)
    spec = hydrogen_spec(2)
    plan = StepPlan(0.05)
    kernel = compile_step(layout, plan, spec)
    u = np.empty((64, 64), dtype=complex)
    for j in range(64):
        u[:, j] = kernel.apply(StateVector.basis_state(6, j, layout)).amps
    psi = StateVector(random_state(np.random.default_rng(31), 6), layout)
    return spec, plan, u, psi


def test_ipe_probability_matches_controlled_circuit(dense_cycle):
    # one probe sample after ``steps`` cycles is the circuit's <+| probability
    spec, plan, u, psi = dense_cycle
    before = psi.amps.copy()
    for steps in (1, 7, 20):
        _, expected = controlled_evolution_plus(u, psi.amps, steps)
        assert abs(_probe(psi, plan, spec, steps) - expected) < 1e-12
    assert np.array_equal(psi.amps, before)


def test_phase_probe_series_matches_controlled_circuit(dense_cycle):
    spec, plan, u, psi = dense_cycle
    before = psi.amps.copy()
    for every in (1, 4):
        series = phase_probe_series(psi, plan, spec, total_steps=24, every=every)
        lags = range(every, 25, every)
        expected = [controlled_evolution_plus(u, psi.amps, n)[1] for n in lags]
        assert np.allclose(series.times, plan.dt * np.array(lags), rtol=0, atol=1e-15)
        assert np.abs(series.values - np.asarray(expected)).max() < 1e-12
    assert np.array_equal(psi.amps, before)


def test_state_edit_matches_controlled_circuit(dense_cycle):
    spec, plan, u, psi = dense_cycle
    n_steps = 10
    e_remove = -np.pi / (n_steps * plan.dt)      # removal time is exactly 10 cycles
    before = psi.amps.copy()
    edited, p = state_edit_remove(psi, e_remove, plan, spec)
    branch, expected = controlled_evolution_plus(u, psi.amps, n_steps)
    assert abs(p - expected) < 1e-12
    assert np.abs(edited.amps - branch).max() < 1e-12
    assert np.array_equal(psi.amps, before)


@pytest.mark.parametrize("s_qubits", [1, 3, 5])
def test_phase_register_matches_register_circuit(dense_cycle, s_qubits, monkeypatch):
    spec, plan, u, psi = dense_cycle
    kernels, cycles = [], []
    init, apply = StepKernel.__init__, StepKernel.apply
    monkeypatch.setattr(StepKernel, "__init__",
                        lambda self, *a: kernels.append(self) or init(self, *a))
    monkeypatch.setattr(StepKernel, "apply",
                        lambda self, *a: cycles.append(self) or apply(self, *a))
    before = psi.amps.copy()

    def counted(run, count):
        # one compiled kernel runs exactly ``count`` cycles on a copy
        kernels.clear()
        cycles.clear()
        out = run()
        assert len(kernels) == 1 and cycles == kernels * count
        assert np.array_equal(psi.amps, before)
        return out

    # as many cycles as the circuit's controlled gates: (2^S - 1) * base for
    # the register, the probe's total and the edit's removal time
    n = (1 << s_qubits) - 1
    dist = counted(lambda: phase_register_distribution(psi, plan, spec, s_qubits,
                                                       base_steps=2), 2 * n)
    expected = phase_register_readout(u, psi.amps, s_qubits, 2)
    assert np.abs(dist - expected).max() < 1e-12
    counted(lambda: phase_probe_series(psi, plan, spec, total_steps=n + 2, every=3), n + 2)
    counted(lambda: state_edit_remove(psi, -np.pi / (n * plan.dt), plan, spec), n)


@pytest.mark.parametrize("name", ["phase_probe_series",
                                  "phase_register_distribution",
                                  "state_edit_remove"])
def test_controlled_evolution_rejects_damped_plan(name):
    box = SimulationBox(1, 4, 10.0, 0.5)
    layout = particle_layout(1, 1, 4, box=box)
    spec = hydrogen_spec(1)
    plan = StepPlan(0.05, attenuation=AttenuationSpec(UniformEdgeRegion(2, 1.0)))
    state = StateVector(random_state(np.random.default_rng(5), 4), layout)
    calls = {
        "phase_probe_series": lambda: phase_probe_series(state, plan, spec, 4, 2),
        "phase_register_distribution":
            lambda: phase_register_distribution(state, plan, spec, 2, 1),
        "state_edit_remove": lambda: state_edit_remove(state, -1.0, plan, spec),
    }
    with pytest.raises(ConfigError) as err:
        calls[name]()
    assert err.value.field == "plan.attenuation"


# -- energy fitting -----------------------------------------------------------------

def test_fit_recovers_generator():
    t = np.linspace(0.0, 3.0, 64)
    series = TimeSeries(t, np.cos(-2.0 * t / 2) ** 2)
    est = fit_energy_from_signal(series)
    assert est.energy == pytest.approx(-2.0, abs=1e-9)
    assert est.method == "phase-fit"


def test_fit_flat_signal_unresolvable():
    t = np.linspace(0.0, 3.0, 32)
    with pytest.raises(GridwaveError):
        fit_energy_from_signal(TimeSeries(t, np.ones_like(t)))


def test_fit_needs_enough_samples():
    t = np.linspace(0.0, 1.0, 4)
    from gridwave.errors import ConfigError
    with pytest.raises(ConfigError):
        fit_energy_from_signal(TimeSeries(t, np.cos(t) ** 2))


def test_fit_roundtrip_precision():
    t = np.linspace(0.0, 12.0, 256)
    series = TimeSeries(t, np.cos(0.731 * t) / 2 + 0.5)
    est = fit_energy_from_signal(series)
    assert abs(est.energy) == pytest.approx(0.731, abs=1e-9)


# -- multi-qubit phase register ---------------------------------------------------------

def test_phase_register_exact_phase(hyd2d_spec):
    # an eigenphase exactly on the grid reads out deterministically
    box = SimulationBox(2, 2, 10.0, 0.5)
    evals, evecs = cached_eig(box, hyd2d_spec)
    layout = particle_layout(1, 2, 2, box=box)
    s_qubits = 3
    # build a synthetic eigenstate of the cycle with representable phase by
    # rescaling time: choose base_steps so that E*N*dt = -2pi/8
    energy = evals[0]
    dt = (2 * np.pi / 8) / abs(energy) / 16
    state = StateVector(evecs[:, 0].astype(complex), layout)
    dist = phase_register_distribution(state, StepPlan(dt), hyd2d_spec,
                                       s_qubits, base_steps=16)
    # Trotter error shifts a little mass; the modal outcome is exact
    assert int(np.argmax(dist)) == 7   # phase -2pi/8 wraps to bin 7
    assert dist[7] > 0.98


def test_phase_register_s1_is_single_probe(hyd2d_spec):
    box, energy, state = _eigen_setup(hyd2d_spec)
    dt, steps = 0.01, 8
    dist = phase_register_distribution(state, StepPlan(dt), hyd2d_spec, 1, steps)
    p_plus = _probe(state, StepPlan(dt), hyd2d_spec, steps)
    assert dist[0] == pytest.approx(p_plus, abs=1e-12)


def test_phase_register_between_bins_matches_kernel(hyd2d_spec):
    # eigenphase off the grid: two-outcome-dominated distribution per the
    # analytic estimation kernel
    box, energy, state = _eigen_setup(hyd2d_spec)
    s_qubits, base = 3, 10
    dt = 0.013
    dist = phase_register_distribution(state, StepPlan(dt), hyd2d_spec,
                                       s_qubits, base)
    phi = energy * base * dt          # accumulated per unit weight
    kernel = phase_register_kernel(phi, s_qubits)
    assert np.abs(dist - kernel).max() < 2e-4


@pytest.mark.parametrize("base_steps", [0, -3])
def test_phase_register_refuses_non_positive_base(hyd2d_spec, base_steps):
    box, energy, state = _eigen_setup(hyd2d_spec)
    for readout in (phase_register_distribution, multi_qubit_phase_estimation):
        with pytest.raises(ConfigError, match="base_steps"):
            readout(state, StepPlan(0.01), hyd2d_spec, 2, base_steps)


def test_mqpe_energy_estimate(hyd2d_spec):
    box, energy, state = _eigen_setup(hyd2d_spec)
    est = multi_qubit_phase_estimation(state, StepPlan(0.01), hyd2d_spec,
                                       s_qubits=5, base_steps=10)
    assert est.method == "phase-register"
    assert abs(est.energy - energy) <= est.uncertainty


# -- direct sampling ---------------------------------------------------------------------

def test_sampled_energy_plane_wave():
    # momentum basis state |k>: kinetic energy exactly C k^2
    box = SimulationBox(1, 4, 10.0, 0.5)
    layout = particle_layout(1, 1, 4, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),))
    k = -3
    # position representation of the plane wave: QFT of the momentum basis state
    from gridwave.statevector import apply_qft
    state = StateVector.basis_state(4, pattern_of_value(k, 4), layout)
    apply_qft(state, layout.span(0, 0))
    est = sampled_energy_expectation(state, spec)
    c = kinetic_constant(box, 4, 1.0)
    assert est.energy == pytest.approx(c * k ** 2, abs=1e-10)
    assert est.uncertainty == 0.0


def test_sampled_energy_shot_mode_reproducible(hyd2d_spec, rng):
    box = SimulationBox(2, 3, 10.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box)
    state = StateVector(random_state(rng, 6), layout)
    e1 = sampled_energy_expectation(state, hyd2d_spec, shots=500,
                                    rng=np.random.default_rng(42))
    e2 = sampled_energy_expectation(state, hyd2d_spec, shots=500,
                                    rng=np.random.default_rng(42))
    assert e1.energy == e2.energy
    assert e1.uncertainty > 0


# -- densities -------------------------------------------------------------------------

def _ascending(marginal, width):
    """A register's marginal reordered by increasing signed value."""
    return marginal[sorted(range(1 << width), key=lambda p: signed_value(p, width))]


def test_density_product_state(rng):
    layout = particle_layout(2, 1, 3)
    a, b = random_state(rng, 3), random_state(rng, 3)
    state = StateVector(np.kron(b, a), layout)
    box = SimulationBox(1, 3, 8.0)
    state.layout = layout.with_box(box)
    d0 = probability_density(state, 0)
    assert np.abs(d0 - _ascending(np.abs(a) ** 2, 3)).max() < 1e-12
    assert d0.sum() == pytest.approx(1.0, abs=1e-12)


def test_density_antisymmetric_marginals_equal(rng):
    from gridwave.states import exchange_product
    a, b = random_state(rng, 4), random_state(rng, 4)
    b = b - np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    combined = exchange_product([a, b])
    combined /= np.linalg.norm(combined)
    layout = particle_layout(2, 1, 4)
    state = StateVector(combined, layout)
    d0 = probability_density(state, 0)
    d1 = probability_density(state, 1)
    probs = np.abs(combined.reshape(16, 16)) ** 2     # [particle 1, particle 0]
    assert np.abs(d0 - _ascending(probs.sum(axis=0), 4)).max() < 1e-12
    assert np.abs(d1 - _ascending(probs.sum(axis=1), 4)).max() < 1e-12
    assert np.abs(d0 - d1).max() < 1e-12


def test_density_parseval_in_both_bases(hyd2d_spec, rng):
    from gridwave.statevector import apply_inverse_qft
    box = SimulationBox(2, 3, 10.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box)
    state = StateVector(random_state(rng, 6), layout)
    dens = probability_density(state, 0)
    assert dens.sum() == pytest.approx(1.0, abs=1e-12)
    for span in layout.particles[0].spans:
        apply_inverse_qft(state, span)
    momentum = probability_density(state, 0)
    assert momentum.sum() == pytest.approx(1.0, abs=1e-12)


# -- escape tracker ----------------------------------------------------------------------

def test_escape_tracker_zeroes():
    series = escape_tracker([0.0] * 5)
    assert np.all(series.values == 0.0)


def test_escape_tracker_saturates():
    series = escape_tracker([0.5] * 30)
    assert np.all(np.diff(series.values) >= 0)
    assert series.values[-1] == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_escape_tracker_monotone(incs):
    series = escape_tracker(incs)
    assert np.all(np.diff(series.values) >= -1e-15)
    assert series.values[-1] <= 1.0 + 1e-12
    survival, expected = 1.0, []
    for inc in incs:   # the survival product one step at a time, to the last bit
        survival *= 1.0 - inc
        expected.append(1.0 - survival)
    assert series.values.tolist() == expected


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_escape_tracker_rejects_increments_outside_unit_interval(bad):
    with pytest.raises(ValueError, match="outside"):
        escape_tracker([0.1, bad])
