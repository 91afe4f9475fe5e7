import numpy as np
import pytest

from gridwave import dense
from gridwave.dense import (build_dense_step_matrices, fourier_matrix,
                            pixel_hamiltonian, reference_step_matrix)
from gridwave.errors import ConfigError
from gridwave.grid import SimulationBox
from gridwave.hamiltonian import HamiltonianSpec, Nucleus, ParticleSpec
from gridwave.propagator import StepPlan, compile_step
from gridwave.registers import particle_layout
from gridwave.statevector import StateVector
from .conftest import cached_eig
from .oracles import dense_hamiltonian, dense_split_cycle, qft_matrix_reference

PAIR_1D = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                          (Nucleus((0.0,), 1.0),))


def test_fourier_matrix_is_reference_adjoint():
    f = fourier_matrix(4)
    assert np.abs(f - qft_matrix_reference(4).conj().T).max() < 1e-12


def test_step_matrices_unitary(hyd2d_spec):
    box = SimulationBox(2, 4, 10.0, 0.5)
    u_ideal, u_so = build_dense_step_matrices(box, hyd2d_spec, 0.01)
    eye = np.eye(u_so.shape[0])
    assert np.abs(u_so.conj().T @ u_so - eye).max() < 1e-10
    assert np.abs(u_ideal.conj().T @ u_ideal - eye).max() < 1e-10


def test_step_matrices_converge_together(hyd2d_spec):
    # the splitting defect shrinks with dt (first-order Trotter limit)
    box = SimulationBox(2, 3, 10.0, 0.5)
    norms = []
    for dt in (0.04, 0.004):
        u_ideal, u_so = build_dense_step_matrices(box, hyd2d_spec, dt)
        norms.append(np.linalg.norm(u_ideal - u_so))
    assert norms[1] < norms[0] / 5.0


def test_ideal_eigenphases_match_hamiltonian(hyd2d_spec):
    box = SimulationBox(2, 3, 10.0, 0.5)
    dt = 0.02
    u_ideal, _ = build_dense_step_matrices(box, hyd2d_spec, dt)
    evals, _ = cached_eig(box, hyd2d_spec)
    phases = np.linalg.eigvals(u_ideal)
    expect = np.exp(-1j * evals * dt)
    # compare as sorted sets of complex numbers
    assert np.abs(np.sort_complex(phases) - np.sort_complex(expect)).max() < 1e-8


def test_dense_threshold_guard(hyd2d_spec):
    box = SimulationBox(2, 7, 10.0, 0.5)
    with pytest.raises(ConfigError):
        build_dense_step_matrices(box, hyd2d_spec, 0.01)
    with pytest.raises(ConfigError):
        pixel_hamiltonian(box, hyd2d_spec)


def test_hamiltonian_hermitian(hyd2d_spec):
    box = SimulationBox(2, 3, 10.0, 0.5)
    h = pixel_hamiltonian(box, hyd2d_spec)
    assert np.abs(h - h.conj().T).max() < 1e-12


def test_split_cycle_matches_oracle(hyd2d_spec):
    # U_SO of both dense builders is the cycle the oracle assembles from
    # per-basis-state sums
    box = SimulationBox(2, 3, 10.0, 0.5)
    u = dense_split_cycle(3, 2, 1, 10.0, 0.5, 0.01, [1.0], [-1.0],
                          [((0.0, 0.0), 1.0)], [[0.0]])
    assert np.abs(build_dense_step_matrices(box, hyd2d_spec, 0.01)[1] - u).max() < 1e-12
    assert np.abs(reference_step_matrix(box, hyd2d_spec, 0.01)[1] - u).max() < 1e-12
    # two coupled particles in 1D
    box = SimulationBox(1, 3, 8.0, 0.5)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                           (Nucleus((0.0,), 1.0),))
    u = dense_split_cycle(3, 1, 2, 8.0, 0.5, 0.02, [1.0, 1.0], [-1.0, -1.0],
                          [((0.0,), 1.0)], [[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(build_dense_step_matrices(box, spec, 0.02)[1] - u).max() < 1e-12


def test_split_cycle_matrix_is_the_kernel_cycle_bit_for_bit(hyd2d_spec):
    # U_SO of both dense builders is the kernel's kinetic cycle then its
    # interaction, applied to each basis vector, to the last bit; the last
    # layout's second kinetic block acts on rounded amplitudes
    for box, spec, dt in ((SimulationBox(2, 3, 10.0, 0.5), hyd2d_spec, 0.01),
                          (SimulationBox(1, 3, 8.0, 0.5), PAIR_1D, 0.02),
                          (SimulationBox(1, 5, 8.0, 0.5), PAIR_1D, 0.02)):
        layout = particle_layout(len(spec.particles), box.dims, box.n_r, box=box)
        kernel = compile_step(layout, StepPlan(dt), spec)
        expected = np.empty((1 << layout.num_qubits,) * 2, dtype=complex)
        for j in range(expected.shape[1]):
            state = StateVector.basis_state(layout.num_qubits, j, layout)
            expected[:, j] = kernel.interaction(kernel.kinetic_cycle(state)).amps
        assert np.array_equal(build_dense_step_matrices(box, spec, dt)[1], expected)
        if len(spec.particles) == 1:
            assert np.array_equal(reference_step_matrix(box, spec, dt)[1], expected)


def test_pixel_hamiltonian_matches_oracle(hyd2d_spec):
    h = dense_hamiltonian(3, 2, 1, 10.0, 0.5, [1.0], [-1.0], [((0.0, 0.0), 1.0)], [[0.0]])
    assert np.abs(pixel_hamiltonian(SimulationBox(2, 3, 10.0, 0.5), hyd2d_spec) - h).max() < 1e-12
    h = dense_hamiltonian(3, 1, 2, 8.0, 0.5, [1.0, 1.0], [-1.0, -1.0], [((0.0,), 1.0)],
                          [[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(pixel_hamiltonian(SimulationBox(1, 3, 8.0, 0.5), PAIR_1D) - h).max() < 1e-12


def test_reference_cache_keeps_latest_configuration(hyd2d_spec):
    reference_step_matrix(SimulationBox(2, 2, 10.0, 0.5), hyd2d_spec, 0.01)
    latest = reference_step_matrix(SimulationBox(2, 3, 10.0, 0.5), hyd2d_spec, 0.01)
    assert len(dense._REFERENCE_CACHE) == 1
    assert reference_step_matrix(SimulationBox(2, 3, 10.0, 0.5), hyd2d_spec, 0.01) is latest
