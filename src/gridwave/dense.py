"""Dense matrix forms of the step operators, for derivations and anchors.

Everything here scales as the cube of the grid size and refuses dense
dimensions above ``MAX_DIM``; production stepping never goes through these
matrices.  They exist to derive core patch corrections and to anchor tests
against exact eigenpairs of the pixelated Hamiltonian.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import SimulationBox
from .hamiltonian import HamiltonianSpec, pair_potential, single_particle_potential
from .propagator import kinetic_constant
from .registers import RegisterLayout, Span, particle_layout, span_values

MAX_DIM = 4096   # largest dense dimension built
REFINE = 8       # fine-grid points per pixel of the projected potential


def fourier_matrix(width: int) -> np.ndarray:
    """Position-to-momentum matrix for one sub-register (rows = k patterns)."""
    m = 1 << width
    j = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(j, j) / m) / np.sqrt(m)


def _field_over_index(num_qubits: int, span: Span, per_pattern: np.ndarray) -> np.ndarray:
    hi = 1 << (num_qubits - span.stop)
    lo = 1 << span.start
    return np.broadcast_to(per_pattern[None, :, None],
                           (hi, per_pattern.size, lo)).reshape(-1)


def full_fourier(layout: RegisterLayout) -> np.ndarray:
    """Kronecker product of per-sub-register transforms over all particle spans."""
    spans = sorted((s for p in layout.particles for s in p.spans),
                   key=lambda s: -s.start)
    f = np.ones((1, 1), dtype=np.complex128)
    for s in spans:
        f = np.kron(f, fourier_matrix(s.width))
    return f


def diagonal_vectors(layout: RegisterLayout, spec: HamiltonianSpec):
    """(kinetic energies, interaction potential) over the full dense index."""
    box = layout.box
    n = layout.num_qubits
    dim = 1 << n
    kin = np.zeros(dim)
    for p, particle in enumerate(layout.particles):
        mass = spec.particles[p].mass
        for s in particle.spans:
            k = span_values(s.width).astype(np.float64)
            kin += _field_over_index(n, s, kinetic_constant(box, s.width, mass) * k ** 2)
    pot = np.zeros(dim)
    for p, particle in enumerate(layout.particles):
        coords = [_field_over_index(n, s, box.coordinates(s.width))
                  for s in particle.spans]
        v, singular = single_particle_potential(spec, p, coords)
        pot += np.where(singular, 0.0, v)
    for p in range(len(layout.particles)):
        for q in range(p + 1, len(layout.particles)):
            if spec.coupling(p, q) == 0.0:
                continue
            deltas = []
            for sa, sb in zip(layout.particles[p].spans, layout.particles[q].spans):
                va = _field_over_index(n, sa, span_values(sa.width))
                vb = _field_over_index(n, sb, span_values(sb.width))
                # the relative coordinate lives in a register of the same
                # width, so differences wrap modulo the box (minimum image)
                half = 1 << (sa.width - 1)
                deltas.append((va - vb + half) % (2 * half) - half)
            pot += pair_potential(spec, p, q, box.delta_r, deltas)
    return kin, pot


def _dense_parts(box: SimulationBox, spec: HamiltonianSpec):
    """(F, kinetic energies, diagonal potential, kinetic matrix F^dag K F)
    over the standard packing of ``spec``'s particles."""
    layout = particle_layout(len(spec.particles), box.dims, box.n_r, box=box)
    dim = 1 << layout.num_qubits
    if dim > MAX_DIM:
        raise ConfigError(f"dense dimension {dim} exceeds threshold {MAX_DIM}")
    f = full_fourier(layout)
    kin, pot = diagonal_vectors(layout, spec)
    return f, kin, pot, f.conj().T @ (kin[:, None] * f)


def _step_pair(f, kin, pot, h, dt: float):
    """(U_ideal, U_SO, evals, evecs): the split cycle exactly as the stepper
    applies it, and the exact step exp(-i h dt) from the eigenpairs of h."""
    from scipy.linalg import eigh
    u_so = np.exp(-1j * pot * dt)[:, None] \
        * (f.conj().T @ (np.exp(-1j * kin * dt)[:, None] * f))
    evals, evecs = eigh(h)
    u_ideal = (evecs * np.exp(-1j * evals * dt)[None, :]) @ evecs.conj().T
    return u_ideal, u_so, evals, evecs


def pixel_hamiltonian(box: SimulationBox, spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hamiltonian of the discretised model: Fourier-built kinetic part
    plus the diagonal interaction potential."""
    _, _, pot, h = _dense_parts(box, spec)
    h[np.diag_indices_from(h)] += pot
    return h


def hamiltonian_eig(box: SimulationBox, spec: HamiltonianSpec):
    """Eigenvalues and eigenvectors of the pixelated Hamiltonian."""
    from scipy.linalg import eigh
    _, _, pot, h = _dense_parts(box, spec)
    h[np.diag_indices_from(h)] += pot
    return eigh(h)


def _projected_potential(box: SimulationBox, spec: HamiltonianSpec) -> np.ndarray:
    """Matrix elements of the interaction potential between grid basis
    functions, for a single particle.

    The diagonal-potential shortcut used by the split cycle is exact only for
    point-like basis functions; near a Coulomb singularity the finite width
    of the basis makes the true matrix elements differ appreciably.  They are
    evaluated here by band-limited upsampling onto a ``REFINE``-times finer
    grid (midpoint quadrature, exactly orthonormal for the band-limited
    factors).
    """
    if len(spec.particles) != 1:
        raise ConfigError("projected potential is built per particle")
    if box.dims not in (1, 2):
        raise ConfigError("projected potential supports 1D and 2D boxes")
    m = 1 << box.n_r
    nf = REFINE * m
    length = box.length
    hf = length / nf
    xj = (np.arange(nf) - nf / 2 + 0.5) * hf
    ks = span_values(box.n_r)  # physical wavenumbers by pattern
    e1 = np.exp(2j * np.pi * np.outer(xj, ks) / length) * np.sqrt(hf / length)
    a1 = e1 @ fourier_matrix(box.n_r)   # pixel -> fine samples
    # fine-grid potential, axes ordered (highest dim ... x) to match kron order
    grids = np.meshgrid(*([xj] * box.dims), indexing="ij")
    vf, singular = single_particle_potential(spec, 0, grids[::-1])
    vf = np.where(singular, 0.0, vf)
    g1 = np.einsum("jp,jn->jpn", a1.conj(), a1)
    if box.dims == 1:
        return np.tensordot(vf, g1, axes=([0], [0]))
    t1 = np.tensordot(vf, g1, axes=([1], [0]))       # (nf_y, m, m) over x
    vt = np.tensordot(g1, t1, axes=([0], [0]))       # (my', my, mx', mx)
    return np.ascontiguousarray(vt.transpose(0, 2, 1, 3).reshape(m * m, m * m))


_REFERENCE_CACHE: dict = {}   # the latest configuration only


def _spec_key(spec: HamiltonianSpec):
    coup = None if spec.pair_couplings is None else spec.pair_couplings.tobytes()
    return (tuple((p.mass, p.charge) for p in spec.particles),
            tuple((n.position, n.charge) for n in spec.nuclei),
            coup, spec.efield)


def reference_step_matrix(box: SimulationBox, spec: HamiltonianSpec, dt: float):
    """(U_ideal, U_SO, evals, evecs) with the ideal step generated by the
    reference Hamiltonian: Fourier kinetic part plus the projected (full
    matrix) potential.  This is the target the patch correction repairs
    towards; the plain :func:`build_dense_step_matrices` keeps the diagonal
    potential on both sides.  The result for the latest configuration is
    cached, since one diagonalisation feeds state preparation, correction
    derivation and anchoring alike."""
    key = ((box.dims, box.n_r, box.length, box.origin_offset), _spec_key(spec), dt)
    if key in _REFERENCE_CACHE:
        return _REFERENCE_CACHE[key]
    _REFERENCE_CACHE.clear()
    f, kin, pot, h = _dense_parts(box, spec)
    h += _projected_potential(box, spec)
    result = _step_pair(f, kin, pot, h, dt)
    _REFERENCE_CACHE[key] = result
    return result


def build_dense_step_matrices(box: SimulationBox, spec: HamiltonianSpec, dt: float):
    """(U_ideal, U_SO) as dense matrices.

    U_ideal is the exact exponential of the pixelated Hamiltonian over one
    time step; U_SO is the split cycle exactly as the stepper applies it.
    """
    f, kin, pot, h = _dense_parts(box, spec)
    h[np.diag_indices_from(h)] += pot
    return _step_pair(f, kin, pot, h, dt)[:2]
