import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gridwave
from gridwave import propagator
from gridwave.corrections import CoreCorrection
from gridwave.errors import ConfigError
from gridwave.grid import SimulationBox
from gridwave.hamiltonian import (AttenuationSpec, ExplicitRegion, HamiltonianSpec,
                                  Nucleus, ParticleSpec, UniformEdgeRegion)
from gridwave.propagator import (StepPlan, compile_step, kinetic_constant,
                                 propagate, split_step_inverse)
from gridwave.registers import (Particle, RegisterLayout, Span, particle_layout,
                                pattern_of_value)
from gridwave.scenario import bundled_scenarios, load_scenario
from gridwave.statevector import (StateVector, apply_qft, inner_product,
                                  register_add_sub)
from .conftest import cached_eig, hydrogen_spec, random_state
from .oracles import (ancilla_damping_round, dense_split_cycle,
                      free_gaussian_evolved, kinetic_cycle_reference,
                      value_phase)


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


KINETIC_LAYOUTS = {
    # name: (box, layout, masses); nuclei sit at the origin of every box
    "3d_pair": (SimulationBox(3, 3, 25.0, 0.5), particle_layout(2, 3, 3), (1.0, 1.0)),
    "2d_pair_cap": (SimulationBox(2, 4, 16.0, 0.5),
                    particle_layout(2, 2, 4).with_ancilla("cap"), (1.0, 1.0)),
    "ancilla_between": (SimulationBox(2, 2, 6.0, 0.5),
                        RegisterLayout((Particle((Span(0, 2), Span(2, 2))),
                                        Particle((Span(5, 2), Span(7, 2)))),
                                       {"tag": Span(4, 1)}), (1.0, 1.0)),
    "column_above": (SimulationBox(2, 3, 10.0, 0.5),
                     particle_layout(1, 2, 3).with_ancilla("column", 6), (1.0,)),
    # no run: each block has amplitudes below it that are not an axis
    "ancilla_below": (SimulationBox(2, 3, 10.0, 0.5),
                      RegisterLayout((Particle((Span(1, 3), Span(4, 3))),),
                                     {"low": Span(0, 1)}), (1.0,)),
    "mixed_masses": (SimulationBox(2, 2, 6.0, 0.5), particle_layout(2, 2, 2), (1.0, 7.5)),
    "1d_wide": (SimulationBox(1, 9, 40.0, 0.5), particle_layout(1, 1, 9), (1.0,)),
    # a lone 64-point axis: the widest one applied as a block
    "1d_64": (SimulationBox(1, 6, 20.0, 0.5), particle_layout(1, 1, 6), (1.0,)),
    # transformed axes with amplitudes below them: 128 below y, 1 below x
    "2d_odd_wide": (SimulationBox(2, 7, 30.0, 0.5), particle_layout(1, 2, 7), (1.0,)),
    "wide_ancilla_below": (SimulationBox(1, 8, 30.0, 0.5),
                           RegisterLayout((Particle((Span(1, 8),)),),
                                          {"low": Span(0, 1)}), (1.0,)),
    # eight slabs: the slab limit cuts the run below z, a block above it
    "3d_slabs": (SimulationBox(3, 6, 20.0, 0.5), particle_layout(1, 3, 6), (1.0,)),
    # no run: the ancilla below x puts both transforms in place
    "2d_wide_cut": (SimulationBox(2, 9, 40.0, 0.5),
                    RegisterLayout((Particle((Span(1, 9), Span(10, 9))),),
                                   {"low": Span(0, 1)}), (1.0,)),
    # odd runs, which end in the scratch slab and are copied back
    "3d_odd": (SimulationBox(3, 5, 20.0, 0.5), particle_layout(1, 3, 5), (1.0,)),
    "1d_narrow": (SimulationBox(1, 4, 10.0, 0.5), particle_layout(1, 1, 4), (1.0,)),
    # the ancilla gap ends the run: z starts above its top
    "gap_cuts_run": (SimulationBox(3, 5, 20.0, 0.5),
                     RegisterLayout((Particle((Span(0, 5), Span(5, 5), Span(14, 5))),),
                                    {"gap": Span(10, 4)}), (1.0,)),
    # below a 2-qubit column register: z is a block with 2^12 amplitudes below
    # it and 4 rows above it
    "3d_column": (SimulationBox(3, 6, 20.0, 0.5),
                  particle_layout(1, 3, 6).with_ancilla("column", 2), (1.0,)),
}


@pytest.mark.parametrize("name", sorted(KINETIC_LAYOUTS))
def test_kinetic_cycle_matches_fft_oracle(rng, name):
    box, layout, masses = KINETIC_LAYOUTS[name]
    layout = layout.with_box(box)
    spec = HamiltonianSpec(tuple(ParticleSpec(m, -1.0) for m in masses),
                           (Nucleus((0.0,) * box.dims, 1.0),))
    dt = 0.05
    kernel = compile_step(layout, StepPlan(dt), spec)
    psi = random_state(rng, layout.num_qubits)
    registers = [(s.start, s.width, 2.0 * np.pi ** 2 / (box.length ** 2 * m))
                 for particle, m in zip(layout.particles, masses) for s in particle.spans]
    state = kernel.kinetic_cycle(StateVector(psi.copy(), layout))
    assert np.abs(state.amps - kinetic_cycle_reference(psi, registers, dt)).max() < 1e-13
    kernel.adjoint.kinetic_cycle(state)
    assert np.abs(state.amps - psi).max() < 1e-14


@pytest.mark.parametrize("name, sizes", [
    ("3d_pair", ([(8, 8)] * 5, [(8, 8)])), ("2d_pair_cap", ([(16, 16)] * 4, [])),
    ("ancilla_between", ([(4, 4)] * 2, [(4, 4)] * 2)),
    ("mixed_masses", ([(4, 4)] * 4, [])), ("column_above", ([(8, 8)] * 2, [])),
    ("1d_wide", ([], [(512,)])), ("1d_64", ([(64, 64)], [])),
    ("ancilla_below", ([], [(8, 8)] * 2)), ("2d_odd_wide", ([(128,)] * 2, [])),
    ("wide_ancilla_below", ([], [(256,)])), ("3d_slabs", ([(64, 64)] * 2, [(64, 64)])),
    ("3d_odd", ([(32, 32)] * 3, [])), ("1d_narrow", ([(16, 16)], [])),
    ("gap_cuts_run", ([(32, 32)] * 2, [(32, 32)])), ("2d_wide_cut", ([], [(512,)] * 2)),
    ("3d_column", ([(64, 64)] * 2, [(64, 64)]))])
def test_each_narrow_axis_is_one_block(name, sizes):
    # each axis is one pass: below 128 points its dense block, from 128
    # points on its kinetic phases, applied between the axis's transform and
    # back.  The axes contiguous from qubit 0 that fit in one slab form the
    # slab run, unless it would be a lone transform axis; every other axis,
    # one above a gap among them, is a pass after the run
    box, layout, masses = KINETIC_LAYOUTS[name]
    spec = HamiltonianSpec(tuple(ParticleSpec(m, -1.0) for m in masses))
    kernel = compile_step(layout.with_box(box), StepPlan(0.05), spec)
    assert ([op.shape for op in kernel.run],
            [op.shape for _, op in kernel.passes]) == sizes
    assert kernel.extent == np.prod([op.shape[0] for op in kernel.run])


_DETERMINISM_SCRIPT = """
import hashlib
import sys
import numpy as np
from gridwave.dense import split_cycle_matrix
from gridwave.grid import SimulationBox
from gridwave.hamiltonian import (AttenuationSpec, HamiltonianSpec, Nucleus,
                                  ParticleSpec, UniformEdgeRegion)
from gridwave.propagator import StepPlan, compile_step, set_blas_threads
from gridwave.registers import Particle, RegisterLayout, Span, particle_layout
from gridwave.statevector import StateVector

# the pool's size; OPENBLAS_NUM_THREADS alone stops at the CPU count
set_blas_threads(int(sys.argv[1]))
digest = hashlib.sha256()
wide_cut = RegisterLayout((Particle((Span(1, 9), Span(10, 9))),), {"low": Span(0, 1)})
wide_col = RegisterLayout((Particle((Span(0, 9), Span(9, 9))),), {"column": Span(18, 2)})
block_col = particle_layout(1, 3, 6).with_ancilla("column", 2)
# (particles, box, layout, damping, steps): helium's and scattering's
# layouts, the probe's two 256-point axes transformed inside the slab run,
# eight slabs with a block above the run (damped), two transforms in place
# below an ancilla, a transform above the run below a column register, split
# into column groups of four rows, and a block above the run below that
# register, with four rows above it
for particles, box, layout, damping, steps in (
        (2, SimulationBox(3, 3, 25.0, 0.5), None, None, 20),
        (2, SimulationBox(2, 4, 16.0, 0.5), None, None, 20),
        (1, SimulationBox(2, 8, 30.0, 0.5), None, None, 20),
        (1, SimulationBox(3, 6, 20.0, 0.5), None, UniformEdgeRegion(4, 0.5), 5),
        (1, SimulationBox(2, 9, 40.0, 0.5), wide_cut, None, 5),
        (1, SimulationBox(2, 9, 40.0, 0.5), wide_col, None, 3),
        (1, SimulationBox(3, 6, 20.0, 0.5), block_col, None, 3)):
    electron = ParticleSpec(1.0, -1.0)
    nucleus = (Nucleus((0.0,) * box.dims, 2.0),)
    layout = (layout or particle_layout(particles, box.dims, box.n_r)).with_box(box)
    rng = np.random.default_rng(3)
    # not normalised: np.linalg.norm itself goes through BLAS
    psi = rng.normal(size=1 << layout.num_qubits) + 1j * rng.normal(size=1 << layout.num_qubits)
    state = StateVector(psi, layout)
    spec = HamiltonianSpec((electron,) * particles, nucleus)
    plan = StepPlan(0.05, attenuation=damping and AttenuationSpec(damping))
    kernel = compile_step(layout, plan, spec)
    for _ in range(steps):
        kernel.apply(state)
    digest.update(state.amps.tobytes())
    if particles == 2:
        digest.update(split_cycle_matrix(box, HamiltonianSpec((electron,), nucleus),
                                         0.05).tobytes())
print(digest.hexdigest())
"""


def test_block_products_run_on_one_blas_thread(monkeypatch, rng):
    pool = propagator._openblas_threads()
    if pool is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
    seen, pooled = [], []
    # the slab run's passes and the passes above it issue the products
    for name in ("_rotate", "_apply_axis"):
        monkeypatch.setattr(propagator, name, lambda *args, f=getattr(propagator, name):
                            (seen.append((f.__name__, pool[0](), threading.get_ident())),
                             f(*args)))
    monkeypatch.setattr(propagator, "_pool",
                        lambda f=propagator._pool: (pooled.append(1), f())[1])
    before = pool[0]()
    pool[1](2)
    try:
        # 2^16 amplitudes stay on this thread: one slab, and a run of two
        # slabs below a column register
        for box, layout in ((SimulationBox(2, 4, 16.0, 0.5), particle_layout(2, 2, 4)),
                            (SimulationBox(2, 3, 10.0, 0.5),
                             particle_layout(1, 2, 3).with_ancilla("column", 10))):
            layout = layout.with_box(box)
            spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),) * len(layout.particles))
            compile_step(layout, StepPlan(0.05), spec).kinetic_cycle(
                StateVector(random_state(rng, 16), layout))
        assert not pooled and {t for *_, t in seen} == {threading.get_ident()}
        seen.clear()
        box, layout, masses = KINETIC_LAYOUTS["3d_pair"]
        layout = layout.with_box(box)
        spec = HamiltonianSpec(tuple(ParticleSpec(m, -1.0) for m in masses))
        kernel = compile_step(layout, StepPlan(0.05), spec)
        kernel.kinetic_cycle(StateVector(random_state(rng, layout.num_qubits), layout))
        # eight slabs of the five low axes, then eight slabs of columns of
        # the top axis, split between this thread and the pool's
        assert Counter((f, n) for f, n, _ in seen) == {("_rotate", 1): 40,
                                                       ("_apply_axis", 1): 8}
        threads = {t for *_, t in seen}
        assert threading.get_ident() in threads and len(threads) > 1
        assert pool[0]() == 2       # the pool's size is restored
    finally:
        pool[1](before)


def test_block_cycle_is_byte_identical_across_blas_threads():
    # the slab passes split over as many threads as the BLAS pool holds, each
    # product on one BLAS thread; the dense step matrix's products run on the
    # BLAS pool itself
    src = str(Path(gridwave.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT, threads],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("above, n, post", [
    (128, 512, 1),      # a lone axis: units of whole rows
    (1, 512, 512),      # the top axis: units of columns
    (4, 512, 512),      # below a column register: columns of one row each
    (1, 1 << 16, 1),    # an axis wider than a slab: one row per unit
    (1, 8, 1 << 15),    # helium's top axis, a block: units of columns
    (4, 64, 1 << 12),   # a block below a column register: columns of one row each
])
def test_transform_units_cover_the_axis_once(rng, above, n, post):
    # every unit of _apply_axis together is the pass on the whole axis, a
    # transform bit for bit and a block to rounding: no amplitude is missed
    # or applied twice
    amps = random_state(rng, (above * n * post).bit_length() - 1)
    op = propagator._axis_pass(np.exp(-1j * rng.normal(size=n)))
    expect = amps.copy()
    view = expect.reshape(above, n, post)
    if op.ndim == 2:
        view[...] = op @ view
    else:
        np.fft.fft(view, axis=1, norm="ortho", out=view)
        view *= op[:, None]
        np.fft.ifft(view, axis=1, norm="ortho", out=view)
    scratch = np.empty(propagator.SLAB // 2, dtype=np.complex128)
    for k in range(amps.size // max(scratch.size, n)):
        propagator._apply_axis(amps, op, post, k, scratch)
    if op.ndim == 2:
        assert np.abs(amps - expect).max() < 1e-14
    else:
        assert np.array_equal(amps, expect)


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


@pytest.mark.parametrize("field", ["attenuation", "augmentation"])
def test_split_step_inverse_refuses_damped_and_patched_plans(rng, field):
    # a damped or patched cycle has no unitary inverse to undo it with
    box = SimulationBox(1, 3, 8.0, 0.5)
    layout = particle_layout(1, 1, 3, box=box)
    extra = {"attenuation": AttenuationSpec(UniformEdgeRegion(1, 1.0)),
             "augmentation": CoreCorrection(1, 0, 1, np.eye(2, dtype=complex), dt=0.01)}
    plan = StepPlan(0.01, **{field: extra[field]})
    state = _random_sv(rng, layout)
    before = state.amps.copy()
    with pytest.raises(ConfigError) as err:
        split_step_inverse(state, plan, hydrogen_spec(1))
    assert err.value.field == f"plan.{field}"
    assert np.array_equal(state.amps, before)


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
    amps = state.amps.copy()
    compile_step(layout, StepPlan(dt), spec).interaction(state)

    def nuclear(*values):
        r2 = sum(((v - box.origin_offset) * box.delta_r - 0.3) ** 2 for v in values)
        return dt * (-1.0 * 2.0) / np.sqrt(r2)

    def relative(*deltas):
        d = np.sqrt(sum(float(dv) ** 2 for dv in deltas))
        return dt / (box.delta_r * (d if d else 1.0))

    spans0, spans1 = layout.particles[0].spans, layout.particles[1].spans
    registers0, registers1 = ([(s.start, s.width) for s in spans]
                              for spans in (spans0, spans1))
    for registers in (registers0, registers1):
        amps = value_phase(amps, registers, nuclear)
    ref = StateVector(amps, layout)
    for a, b in zip(spans0, spans1):
        register_add_sub(ref, a, b, "subtract")
    ref = StateVector(value_phase(ref.amps, registers0, relative), layout)
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
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),))
    from gridwave.states import Gaussian, discretize
    amps, _ = discretize(Gaussian((-4.0,), (momentum,), (0.5,)), box)
    state = StateVector(np.concatenate([amps, np.zeros_like(amps)]), layout)
    return box, layout, spec, state, atten


def test_attenuation_zero_strength_is_identity():
    box, layout, spec, state, atten = _cap_setup(strength=0.0)
    before = state.amps.copy()
    plan = StepPlan(0.01, attenuation=atten)
    inc = compile_step(layout, plan, spec).damp(state)
    assert inc == 0.0
    assert np.abs(state.amps - before).max() == 0.0


def test_attenuation_detects_fully_inside_region():
    # all amplitude inside the strip, rotation near pi/2: detection -> 1
    box = SimulationBox(1, 4, 16.0, 0.5)
    layout = particle_layout(1, 1, 4, box=box).with_ancilla("cap")
    strength = 600.0   # theta = arccos(e^-6) close to pi/2
    atten = AttenuationSpec(UniformEdgeRegion(1, strength))
    spec = HamiltonianSpec((ParticleSpec(),))
    amps = np.zeros(16, dtype=complex)
    amps[pattern_of_value(-8, 4)] = 1.0   # leftmost pixel, inside the strip
    state = StateVector(np.concatenate([amps, np.zeros(16)]), layout)
    kernel = compile_step(layout, StepPlan(0.01, attenuation=atten), spec)
    inc = kernel.damp(kernel.interaction(state))
    assert inc > 1.0 - 1e-5
    # renormalising by the tiny survival amplifies rounding; stay within 1e-9
    assert abs(state.norm_sq() - 1.0) < 1e-9


def test_attenuation_cumulative_escape(rng):
    box, layout, spec, state, atten = _cap_setup()
    plan = StepPlan(0.01, attenuation=atten)
    escapes = []
    propagate(state, plan, spec, 1500, escape=escapes)
    from gridwave.observables import escape_tracker
    series = escape_tracker(escapes)
    assert np.all(np.diff(series.values) >= -1e-15)
    assert series.values[-1] > 0.9
    assert abs(state.norm_sq() - 1.0) < 1e-9


@pytest.mark.parametrize("cap", [False, True])
@pytest.mark.parametrize("case", ["strip_1d", "strip_2d_pair", "pixels_2d",
                                  "pixels_2d_pair"])
def test_damp_matches_ancilla_circuit(rng, case, cap):
    # the damping factors of the position table, then the renormalisation,
    # against the rotate / post-select round gate by gate, on the bare layout
    # and on one that still carries the ancilla; without nuclei and with the
    # couplings zeroed the table holds the damping alone, and an explicit
    # region damps each particle at its pixels, one factor per particle
    dt = 0.05
    if case == "strip_1d":
        particles, dims, n_r = 1, 1, 6
        region = UniformEdgeRegion(2, 1.5)
    elif case == "strip_2d_pair":
        particles, dims, n_r = 2, 2, 3
        region = UniformEdgeRegion(2, 0.8)
    elif case == "pixels_2d":
        particles, dims, n_r = 1, 2, 4
        region = ExplicitRegion({(-8, 3): 2.0, (7, -8): 0.5})
    else:
        particles, dims, n_r = 2, 2, 3
        region = ExplicitRegion({(-4, 3): 2.0, (3, -4): 0.5})
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
        masks = [np.logical_and.reduce([values[p * dims + d] == pix[d]
                                        for d in range(dims)])
                 for p in range(particles) for pix in region.pixels]
        angles = [np.arccos(np.exp(-v * dt))
                  for v in region.pixels.values()] * particles
    amps = random_state(rng, registers * n_r)
    expected, expected_escape = ancilla_damping_round(amps, masks, angles)
    assert expected_escape > 1e-3

    box = SimulationBox(dims, n_r, 12.0, 0.5)
    layout = particle_layout(particles, dims, n_r, box=box)
    if cap:
        layout = layout.with_ancilla("cap")
        amps = np.concatenate([amps, np.zeros_like(amps)])
    atten = AttenuationSpec(region)
    spec = HamiltonianSpec((ParticleSpec(),) * particles,
                           pair_couplings=np.zeros((particles, particles)))
    state = StateVector(amps, layout)
    kernel = compile_step(layout, StepPlan(dt, attenuation=atten), spec)
    escape = kernel.damp(kernel.interaction(state))
    assert np.abs(state.amps[:expected.size] - expected).max() <= 1e-14
    assert np.all(state.amps[expected.size:] == 0.0)
    assert abs(escape - expected_escape) <= 1e-15


def test_damping_folds_into_the_position_table():
    # on scattering_reduced's layout the damped kernel holds one position
    # table: the plain kernel's phases times the damping factors
    scen = load_scenario(bundled_scenarios()["scattering_reduced"])
    box = scen.box
    layout = particle_layout(scen.num_particles, box.dims, box.n_r, box=box)
    damped = compile_step(layout, StepPlan(scen.plan_dt, attenuation=scen.attenuation),
                          scen.spec)
    plain = compile_step(layout, StepPlan(scen.plan_dt), scen.spec)
    factors = damped._damping_factors(scen.attenuation)
    assert len(factors) == len(damped.spans)
    expected = plain.position.copy()
    for f in factors:   # one strip factor per axis, in the table's order
        expected *= f
    assert np.abs(damped.position - expected).max() <= 2e-16
    assert not hasattr(damped, "damping")


@pytest.mark.parametrize("pixel", [(99,), (8,), (-9,)])
def test_damping_pixel_outside_grid_refused(pixel):
    # a 1D n_r = 4 grid holds the pixels [-8, 8); none may wrap onto another
    box = SimulationBox(1, 4, 10.0, 0.5)
    atten = AttenuationSpec(ExplicitRegion({pixel: 1.0}))
    spec = HamiltonianSpec((ParticleSpec(),))
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


def test_propagate_clock_counts_steps_from_the_last_event(rng):
    # ten steps of 0.1 summed reach 0.9999999999999999; counted, they reach
    # 1.0, and after the event at step 10 the time counts on from there at
    # the new dt
    box = SimulationBox(1, 3, 8.0)
    layout = particle_layout(1, 1, 3, box=box)
    times = []

    def halve_dt(state_, plan_, spec_):
        return state_, plan_.with_dt(0.05), spec_

    propagate(_random_sv(rng, layout), StepPlan(0.1), hydrogen_spec(1), 30,
              callbacks=[lambda step, t, current: times.append(t)],
              events={10: halve_dt})
    assert times == ([k * 0.1 for k in range(1, 11)]
                     + [10 * 0.1 + k * 0.05 for k in range(1, 21)])
    assert times[9] == 1.0


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
    from gridwave.states import Gaussian, Hydrogen2D, discretize, exchange_product
    from gridwave.statevector import swap_particle_registers
    box = SimulationBox(2, 4, 16.0, 0.5)
    layout = particle_layout(2, 2, 4, box=box)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                           (Nucleus((0.0, 0.0), 1.0),))
    a, _ = discretize(Hydrogen2D(0, 0), box)
    b, _ = discretize(Gaussian((0.0, 5.0), (0.0, -1.5), (0.4, 0.4)), box)
    combined = exchange_product([a, b])
    combined /= np.linalg.norm(combined)
    state = StateVector(combined, layout)
    kernel = compile_step(layout, StepPlan(0.01), spec)
    for _ in range(100):
        kernel.apply(state)
    swapped = swap_particle_registers(state, 0, 1)
    assert inner_product(state, swapped).real == pytest.approx(-1.0, abs=1e-9)
