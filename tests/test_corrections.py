import numpy as np
import pytest

from gridwave.corrections import (CoreCorrection, apply_core_correction,
                                  derive_core_correction, derive_correction,
                                  patch_indices, pick_core_window, window_rows)
from gridwave.errors import ConfigError
from gridwave.grid import SimulationBox
from gridwave.propagator import StepKernel, StepPlan
from gridwave.registers import particle_layout, pattern_of_value
from gridwave.statevector import StateVector
from .conftest import hydrogen_spec, random_state
from .oracles import add_to_registers, shifted_window_round, signed_value


def test_core_window_selection():
    # half-pixel offset: nearest pixels are {0,1} then {-1..2}
    box = SimulationBox(2, 6, 10.0, 0.5)
    assert pick_core_window(box, 1) == 0
    assert pick_core_window(box, 2) == -1


def test_identity_when_cycle_already_ideal(rng):
    u = np.linalg.qr(rng.normal(size=(16, 16))
                     + 1j * rng.normal(size=(16, 16)))[0]
    layout = particle_layout(1, 2, 2)
    spans = list(layout.particles[0].spans)
    patch = patch_indices(spans, -1, 1)
    corr = derive_core_correction(u[patch], u[patch], dims=2, lo=-1, n_l=1, dt=0.01)
    assert np.abs(corr.u_core - np.eye(4)).max() < 1e-12


def test_unitarity_enforced():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 0.5
    with pytest.raises(ConfigError):
        CoreCorrection(2, -1, 1, bad, dt=0.01)


def test_rank_deficient_block_flagged(rng):
    u1 = np.linalg.qr(rng.normal(size=(16, 16))
                      + 1j * rng.normal(size=(16, 16)))[0]
    u2 = u1.copy()
    layout = particle_layout(1, 2, 2)
    spans = list(layout.particles[0].spans)
    patch = patch_indices(spans, -1, 1)
    # zero the window rows of the ideal step: the block becomes singular
    u2[patch, :] = 0.0
    with pytest.warns(UserWarning, match="rank-deficient"):
        corr = derive_core_correction(u2[patch], u1[patch], dims=2, lo=-1, n_l=1,
                                      dt=0.01)
    # the SVD factors still deliver a unitary
    assert np.abs(corr.u_core.conj().T @ corr.u_core - np.eye(4)).max() < 1e-10


def test_shift_maps_window_onto_low_patterns():
    # with G=1 the pixels (-1,-1),(-1,0),(0,-1),(0,0) land on
    # (0,0),(0,1),(1,0),(1,1)
    cases = {(-1, -1): (0, 0), (-1, 0): (0, 1), (0, -1): (1, 0), (0, 0): (1, 1)}
    for (x, y), (ex, ey) in cases.items():
        idx = (pattern_of_value(y, 6) << 6) | pattern_of_value(x, 6)
        amps = StateVector.basis_state(12, idx).amps
        shifted = add_to_registers(amps, [0, 6], 6, 1)
        out = int(np.argmax(np.abs(shifted)))
        assert (signed_value(out & 63, 6), signed_value(out >> 6, 6)) == (ex, ey)
        back = add_to_registers(shifted, [0, 6], 6, -1)
        assert int(np.argmax(np.abs(back))) == idx


def test_apply_identity_core_is_noop(rng):
    box = SimulationBox(2, 3, 8.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box)
    state = StateVector(random_state(rng, 6), layout)
    before = state.amps.copy()
    corr = CoreCorrection(2, -1, 1, np.eye(4, dtype=complex), dt=0.01)
    apply_core_correction(state, corr, window_rows(layout, corr))
    assert np.abs(state.amps - before).max() < 1e-12


def test_apply_matches_dense_embedding(rng):
    box = SimulationBox(2, 3, 8.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box)
    spans = list(layout.particles[0].spans)
    u_core = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    corr = CoreCorrection(2, -1, 1, u_core, dt=0.01)
    patch = patch_indices(spans, -1, 1)
    dense = np.eye(64, dtype=complex)
    dense[np.ix_(patch, patch)] = u_core
    psi = random_state(rng, 6)
    state = StateVector(psi.copy(), layout)
    apply_core_correction(state, corr, window_rows(layout, corr))
    assert np.abs(state.amps - dense @ psi).max() < 1e-14
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_apply_with_spectator_ancilla(rng):
    # the window gate must act identically on both branches of an ancilla
    box = SimulationBox(2, 3, 8.0, 0.5)
    layout = particle_layout(1, 2, 3, box=box).with_ancilla("probe")
    u_core = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    corr = CoreCorrection(2, -1, 1, u_core, dt=0.01)
    half = random_state(rng, 6)
    state = StateVector(np.concatenate([half, half]) / np.sqrt(2), layout)
    apply_core_correction(state, corr, window_rows(layout, corr))
    view = state.amps.reshape(2, 64)
    assert np.abs(view[0] - view[1]).max() < 1e-14


def test_derive_correction_small_case(hyd2d_spec):
    # end-to-end derivation at a tiny grid; the window gate is unitary and
    # the corrected cycle is closer to the reference step than the plain one
    from scipy.linalg import expm
    from gridwave.dense import (reference_ground, reference_hamiltonian,
                                split_cycle_matrix)
    box = SimulationBox(2, 4, 10.0, 0.5)
    dt = 0.01
    corr = derive_correction(box, hyd2d_spec, dt, 1)
    assert corr.dt == dt and corr.dims == 2
    q = 4
    assert np.abs(corr.u_core.conj().T @ corr.u_core - np.eye(q)).max() < 1e-10
    u_ideal = expm(-1j * dt * reference_hamiltonian(box, hyd2d_spec))
    u_so = split_cycle_matrix(box, hyd2d_spec, dt)
    layout = particle_layout(1, 2, 4, box=box)
    spans = list(layout.particles[0].spans)
    patch = patch_indices(spans, corr.lo, corr.n_l)
    dense_aug = np.eye(256, dtype=complex)
    dense_aug[np.ix_(patch, patch)] = corr.u_core
    _, ground = reference_ground(box, hyd2d_spec)
    before = np.linalg.norm((u_so - u_ideal) @ ground)
    after = np.linalg.norm((dense_aug @ u_so - u_ideal) @ ground)
    assert after < before


@pytest.mark.parametrize("dims, n_r, lo, n_l, ancilla", [
    (1, 4, -2, 2, False), (2, 3, -1, 1, False), (2, 3, -2, 2, True)])
def test_patched_step_matches_shift_round(rng, dims, n_r, lo, n_l, ancilla):
    # the window rows the kernel gathers are where the paper's shift by
    # G = -lo puts the window; the patched step is the plain step followed
    # by that round, bit for bit
    box = SimulationBox(dims, n_r, 8.0, 0.5)
    layout = particle_layout(1, dims, n_r, box=box)
    if ancilla:
        layout = layout.with_ancilla("probe")
    q = (1 << n_l) ** dims
    u_core = np.linalg.qr(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))[0]
    corr = CoreCorrection(dims, lo, n_l, u_core, dt=0.01)
    psi = random_state(rng, layout.num_qubits)
    patched = StateVector(psi.copy(), layout)
    plain = StateVector(psi.copy(), layout)
    StepKernel(layout, StepPlan(0.01, augmentation=corr), hydrogen_spec(dims)).apply(patched)
    StepKernel(layout, StepPlan(0.01), hydrogen_spec(dims)).apply(plain)
    starts = [s.start for s in layout.particles[0].spans]
    expect = shifted_window_round(plain.amps, starts, n_r, lo, n_l, u_core)
    assert np.array_equal(patched.amps, expect)


def test_window_wider_than_grid_rejected():
    corr = CoreCorrection(1, -2, 2, np.eye(4, dtype=complex), dt=0.01)
    with pytest.raises(ConfigError):
        window_rows(particle_layout(1, 1, 1), corr)
