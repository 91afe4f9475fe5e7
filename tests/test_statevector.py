import math
import tracemalloc

import numpy as np
import pytest

from gridwave.errors import LayoutError, PostSelectionError
from gridwave.grid import SimulationBox
from gridwave.registers import Particle, RegisterLayout, Span, particle_layout
from gridwave.statevector import (StateVector, apply_inverse_qft, apply_qft,
                                  controlled_apply, enlarge_particle,
                                  inner_product, masked_ancilla_x_rotation,
                                  measure_qubit, register_add_sub,
                                  swap_particle_registers)
from .conftest import random_state
from .oracles import qft_matrix_reference, signed_value


# -- reductions ----------------------------------------------------------------

def _unnormalised_pair(rng, n):
    return [StateVector(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
            for _ in range(2)]


def test_norm_and_inner_product_match_fsum(rng):
    a, b = (StateVector(random_state(rng, 12)) for _ in range(2))
    assert a.norm_sq() == pytest.approx(math.fsum(np.abs(a.amps) ** 2), abs=1e-12)
    prod = np.conj(a.amps) * b.amps
    exact = complex(math.fsum(prod.real), math.fsum(prod.imag))
    assert abs(inner_product(a, b) - exact) < 1e-12


def test_norm_and_inner_product_are_numpy_add_reduce_bit_for_bit(rng):
    # numpy's pairwise reduce: single-threaded, no BLAS, a tree fixed by length
    for n in (0, 3, 10, 17):
        a, b = _unnormalised_pair(rng, n)
        assert a.norm_sq() == float(np.add.reduce(np.abs(a.amps) ** 2)), n
        assert inner_product(a, b) == complex(np.add.reduce(np.conj(a.amps) * b.amps)), n


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reductions_allocate_at_most_one_product_array(rng):
    # the product array is the only scratch: a state for the conjugate
    # product, half a state for the real squared moduli
    a, b = _unnormalised_pair(rng, 16)
    size = a.amps.nbytes
    assert _traced_peak(lambda: inner_product(a, b)) <= 1.05 * size
    assert _traced_peak(a.norm_sq) <= 0.55 * size


def test_inner_product_basics(rng):
    psi = StateVector(random_state(rng, 4))
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)
    e0 = StateVector.basis_state(4, 0)
    e7 = StateVector.basis_state(4, 7)
    assert inner_product(e0, e7) == 0.0
    with pytest.raises(LayoutError):
        inner_product(e0, StateVector.basis_state(3, 0))


# -- Fourier transform ----------------------------------------------------------

def test_qft_matches_reference_matrix(rng):
    n_r = 3
    f = qft_matrix_reference(n_r)
    layout = particle_layout(1, 1, n_r)
    a = random_state(rng, n_r)
    state = StateVector(a.copy(), layout)
    apply_qft(state, Span(0, n_r))
    assert np.abs(state.amps - f @ a).max() < 1e-12


def test_qft_inverse_roundtrip(rng):
    layout = particle_layout(1, 2, 4)
    a = random_state(rng, 8)
    state = StateVector(a.copy(), layout)
    for span in layout.particles[0].spans:
        apply_qft(state, span)
    for span in layout.particles[0].spans:
        apply_inverse_qft(state, span)
    assert np.abs(state.amps - a).max() < 1e-12
    # a sequence of spans in one call equals one call per span, with an
    # ancilla above the particle spans, and with one between them too
    between = RegisterLayout((Particle((Span(0, 3),)), Particle((Span(4, 3),))),
                             {"gap": Span(3, 1), "top": Span(7, 1)})
    for layout in (particle_layout(2, 2, 2).with_ancilla("probe"), between):
        spans = [s for p in layout.particles for s in p.spans]
        a = random_state(rng, layout.num_qubits)
        for transform in (apply_qft, apply_inverse_qft):
            joint = transform(StateVector(a.copy(), layout), spans)
            ref = StateVector(a.copy(), layout)
            for span in spans:
                transform(ref, span)
            assert np.abs(joint.amps - ref.amps).max() < 1e-14
        state = apply_qft(StateVector(a.copy(), layout), spans)
        apply_inverse_qft(state, spans)
        assert np.abs(state.amps - a).max() < 1e-14


def test_qft_zero_state_uniform():
    state = StateVector.zero_state(3)
    apply_qft(state, Span(0, 3))
    expect = np.full(8, 1 / np.sqrt(8))
    assert np.abs(state.amps - expect).max() < 1e-12


# -- controlled application -------------------------------------------------------

def test_controlled_apply_basis_controls(rng):
    layout = particle_layout(1, 1, 3).with_ancilla("c")
    a = random_state(rng, 3)

    def op(sub):
        apply_qft(sub, Span(0, 3))

    # control |0>: untouched
    state = StateVector(np.concatenate([a, np.zeros(8)]), layout)
    controlled_apply(state, 3, op)
    assert np.abs(state.amps[:8] - a).max() == 0.0
    # control |1>: equals unconditional op
    state = StateVector(np.concatenate([np.zeros(8), a]), layout)
    controlled_apply(state, 3, op)
    ref = StateVector(a.copy())
    apply_qft(ref, Span(0, 3))
    assert np.abs(state.amps[8:] - ref.amps).max() < 1e-12
    # a joint transform of two particle spans, written back from a copied
    # block (control between the particles) and through a view (control on top)
    layout = RegisterLayout((Particle((Span(0, 3),)), Particle((Span(4, 3),))),
                            {"gap": Span(3, 1), "top": Span(7, 1)})
    a = random_state(rng, 8)
    for control, upper in ((3, Span(3, 3)), (7, Span(4, 3))):
        state = StateVector(a.copy(), layout)
        controlled_apply(state, control, lambda sub: apply_qft(
            sub, [s for p in sub.layout.particles for s in p.spans]))
        before = a.reshape(1 << (7 - control), 2, 1 << control)
        after = state.amps.reshape(before.shape)
        ref = apply_qft(StateVector(before[:, 1, :].reshape(-1).copy()),
                        [Span(0, 3), upper])
        assert np.abs(after[:, 0, :] - before[:, 0, :]).max() == 0.0
        assert np.abs(after[:, 1, :].reshape(-1) - ref.amps).max() < 1e-14


def test_controlled_phase_traces_cosine(rng):
    # |+> control, op = global phase e^{-iEt}: <+| probability cos^2(Et/2)
    e, t = -2.0, 0.7
    layout = particle_layout(1, 1, 2).with_ancilla("c")
    a = random_state(rng, 2)
    state = StateVector(np.concatenate([a, a]) / np.sqrt(2), layout)

    def op(sub):
        sub.amps *= np.exp(-1j * e * t)

    controlled_apply(state, 2, op)
    view = state.amps.reshape(2, 4)
    plus = np.linalg.norm((view[0] + view[1]) / np.sqrt(2)) ** 2
    assert plus == pytest.approx(np.cos(e * t / 2) ** 2, abs=1e-12)


def test_controlled_apply_rejects_control_inside_span():
    layout = particle_layout(1, 1, 3)
    state = StateVector.zero_state(3, layout)
    with pytest.raises(LayoutError):
        controlled_apply(state, 1, lambda sub: apply_qft(sub, Span(0, 3)))


# -- measurement --------------------------------------------------------------------

def test_measure_zero_state():
    state = StateVector.zero_state(3)
    record, _ = measure_qubit(state, 0, "z", forced_outcome=0)
    assert record.outcome == 0 and record.probability == pytest.approx(1.0)


def test_measure_plus_state(rng):
    state = StateVector(np.array([1, 1]) / np.sqrt(2))
    record, state = measure_qubit(state, 0, "z", rng=rng)
    assert record.probability == pytest.approx(0.5, abs=1e-12)
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_impossible_post_selection():
    # ancilla phased to |->: forcing the |+> outcome must fail
    state = StateVector(np.array([1, -1]) / np.sqrt(2))
    with pytest.raises(PostSelectionError):
        measure_qubit(state, 0, "x", forced_outcome=0)
    record, _ = measure_qubit(StateVector(np.array([1, -1]) / np.sqrt(2)),
                              0, "x", forced_outcome=1)
    assert record.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_requires_rng_or_forcing():
    with pytest.raises(ValueError):
        measure_qubit(StateVector.zero_state(1), 0, "z")


# -- conditioned ancilla rotation ------------------------------------------------------

def test_x_rotation_identity_and_split():
    layout = particle_layout(1, 1, 2).with_ancilla("cap")
    spans = [Span(0, 2)]
    one_hot = np.zeros(4, dtype=bool)   # only the register value 1
    one_hot[1] = True
    state = StateVector.basis_state(3, 0b01, layout)   # value 1, ancilla 0
    masked_ancilla_x_rotation(state, spans, one_hot, 2, 0.0)
    assert state.amps[0b01] == pytest.approx(1.0)
    theta = np.pi / 2 * 0.5
    masked_ancilla_x_rotation(state, spans, one_hot, 2, theta)
    assert state.amps[0b001] == pytest.approx(np.cos(theta))
    assert state.amps[0b101] == pytest.approx(1j * np.sin(theta))
    # non-matching value untouched
    other = StateVector.basis_state(3, 0b10, layout)
    masked_ancilla_x_rotation(other, spans, one_hot, 2, theta)
    assert other.amps[0b10] == pytest.approx(1.0)


def test_attenuation_angle_value():
    from gridwave.hamiltonian import AttenuationSpec, UniformEdgeRegion
    spec = AttenuationSpec(UniformEdgeRegion(1, 1.0))
    # arccos(exp(-V dt)) at V=1, dt=0.01: leading order sqrt(2 V dt) = 0.14107,
    # exact value 0.1411858 (frozen from direct evaluation)
    assert spec.angle(1.0, 0.01) == pytest.approx(0.1411858, abs=1e-6)


# -- register arithmetic ------------------------------------------------------------

def test_add_sub_examples():
    layout = particle_layout(2, 1, 4)
    a_span, b_span = layout.span(0, 0), layout.span(1, 0)

    def mk(a, b):
        from gridwave.registers import pattern_of_value
        idx = (pattern_of_value(b, 4) << 4) | pattern_of_value(a, 4)
        return StateVector.basis_state(8, idx, layout)

    def read(state):
        idx = int(np.argmax(np.abs(state.amps)))
        return signed_value(idx & 15, 4), signed_value(idx >> 4, 4)

    st1 = mk(3, 5)
    register_add_sub(st1, a_span, b_span, "subtract")
    assert read(st1) == (-2, 5)
    register_add_sub(st1, a_span, b_span, "add")
    assert read(st1) == (3, 5)


def test_add_sub_wraparound():
    layout = particle_layout(2, 1, 3)
    state = StateVector.basis_state(6, (0b001 << 3) | 0b100, layout)  # |-4>|1>
    register_add_sub(state, layout.span(0, 0), layout.span(1, 0), "subtract")
    idx = int(np.argmax(np.abs(state.amps)))
    assert signed_value(idx & 7, 3) == 3 and signed_value(idx >> 3, 3) == 1


def test_add_sub_is_permutation():
    # round-trip over every basis state at n_r=4
    layout = particle_layout(2, 1, 4)
    a_span, b_span = layout.span(0, 0), layout.span(1, 0)
    dim = 1 << 8
    amps = np.arange(1, dim + 1, dtype=np.complex128)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps.copy(), layout)
    register_add_sub(state, a_span, b_span, "subtract")
    assert np.abs(np.sort(np.abs(state.amps)) - np.sort(np.abs(amps))).max() < 1e-15
    register_add_sub(state, a_span, b_span, "add")
    assert np.abs(state.amps - amps).max() < 1e-12


def test_add_sub_span_order_irrelevant(rng):
    # arithmetic register above the static one
    layout = particle_layout(2, 1, 3)
    a = random_state(rng, 6)
    s1 = StateVector(a.copy(), layout)
    register_add_sub(s1, layout.span(1, 0), layout.span(0, 0), "subtract")
    register_add_sub(s1, layout.span(1, 0), layout.span(0, 0), "add")
    assert np.abs(s1.amps - a).max() < 1e-12


# -- enlargement ---------------------------------------------------------------------

@pytest.mark.parametrize("value", [-1, 3])
def test_enlarge_sign_extension(value):
    from gridwave.registers import pattern_of_value
    box = SimulationBox(1, 3, 8.0)
    layout = particle_layout(1, 1, 3, box=box)
    state = StateVector.basis_state(3, pattern_of_value(value, 3), layout)
    grown = enlarge_particle(state, 0, 1)
    assert grown.num_qubits == 4
    idx = int(np.argmax(np.abs(grown.amps)))
    assert signed_value(idx, 4) == value


def test_enlarge_preserves_marginals(rng):
    from gridwave.observables import probability_density
    box = SimulationBox(2, 3, 8.0)
    layout = particle_layout(1, 2, 3, box=box)
    state = StateVector(random_state(rng, 6), layout)
    before = probability_density(state, 0)
    grown = enlarge_particle(state, 0, 1)
    after = probability_density(grown, 0)
    # old pixels sit in the centre of the doubled axis
    assert after.shape == (16, 16)
    core = after[4:12, 4:12]
    assert np.abs(core - before).max() < 1e-12
    assert after.sum() == pytest.approx(1.0, abs=1e-12)
    outer = after.copy()
    outer[4:12, 4:12] = 0.0
    assert outer.max() == 0.0


def test_swap_particles_is_exchange(rng):
    # 1D particles, then the scattering layout: two 2D particles, cap on top
    for dims, ancilla in ((1, False), (2, True)):
        layout = particle_layout(2, dims, 3)
        a, b = random_state(rng, 3 * dims), random_state(rng, 3 * dims)
        product = np.kron(b, a)   # particle0 = a, particle1 = b
        expect = np.kron(a, b)
        if ancilla:
            layout = layout.with_ancilla("cap")
            c = random_state(rng, 1)
            product, expect = np.kron(c, product), np.kron(c, expect)
        state = StateVector(product.copy(), layout)
        swapped = swap_particle_registers(state, 0, 1)
        assert np.abs(swapped.amps - expect).max() < 1e-12
        assert np.array_equal(state.amps, product)   # input left untouched


def test_statevector_length_validation():
    with pytest.raises(LayoutError):
        StateVector(np.ones(3))

