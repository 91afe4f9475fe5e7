"""Dense matrix forms of the step operators, for derivations and anchors.

Every matrix here is built by the step kernel itself.  The identity is held
as a state with one more register, ``column``, above the particle spans, so
one call of a kernel sub-step acts on every column at once.  U_SO is the
kernel's kinetic cycle then its interaction on that state, a few of its rows
the inverse cycle on a few unit vectors; the kinetic matrix F^dag K F is the
kernel's transform, the kinetic energies of ``propagator.energy_tables`` and
the transform back.  No term of the Hamiltonian is mapped onto the register
a second time here.

Every builder refuses dense dimensions above ``MAX_DIM``; production stepping
never goes through these matrices.  Production reads only what it needs of
them: the ground pair of a Hamiltonian (one eigenpair, not the spectrum) and
the window rows of the reference step and of U_SO (a few columns of exp(+i h
dt) and of the inverse cycle, not the full matrices).  The full
eigendecomposition and both full steps stay for
:func:`build_dense_step_matrices`, which anchors the tests against exact
eigenpairs of the pixelated Hamiltonian.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import SimulationBox
from .hamiltonian import HamiltonianSpec, single_particle_potential
from .propagator import (StepKernel, StepPlan, basis_energies, span_axes,
                         split_step_inverse)
from .registers import particle_layout, span_values
from .statevector import (StateVector, apply_inverse_qft, apply_phase_table,
                          apply_qft, fourier_matrix)

MAX_DIM = 4096   # largest dense dimension built
REFINE = 8       # fine-grid points per pixel of the projected potential


def _identity(box: SimulationBox, spec: HamiltonianSpec, rows=None):
    """(layout, state, matrix): the standard packing of ``spec``'s particles,
    and the identity's columns at ``rows`` (all by default), padded with zero
    columns to a power of two, held as a state whose ``column`` register,
    above the particle spans, indexes them.  ``matrix`` views the same
    amplitudes, so the kernel's in-place sub-steps on the state act on it."""
    layout = particle_layout(len(spec.particles), box.dims, box.n_r, box=box)
    n = layout.num_qubits
    if 1 << n > MAX_DIM:
        raise ConfigError(f"dense dimension {1 << n} exceeds threshold {MAX_DIM}")
    rows = np.arange(1 << n) if rows is None else rows
    width = max(1, (len(rows) - 1).bit_length())
    units = np.zeros((1 << width, 1 << n), dtype=np.complex128)
    units[np.arange(len(rows)), rows] = 1.0
    state = StateVector(units.reshape(-1), layout.with_ancilla("column", width))
    return layout, state, units[:len(rows)].T


def split_cycle_matrix(box: SimulationBox, spec: HamiltonianSpec, dt: float) -> np.ndarray:
    """U_SO: the kernel's kinetic cycle then its interaction, applied to every
    column of the identity, so exactly the cycle the stepper applies."""
    layout, columns, matrix = _identity(box, spec)
    kernel = StepKernel(layout, StepPlan(dt), spec)
    kernel.interaction(kernel.kinetic_cycle(columns))
    return matrix


def _kinetic_matrix(box: SimulationBox, spec: HamiltonianSpec):
    """(F^dag K F, position energy) over the standard packing's dense index.

    The kinetic matrix is real, since k^2 is even under k -> -k mod 2^w; the
    transforms leave only rounding in its imaginary part, which is dropped.
    """
    layout, columns, matrix = _identity(box, spec)
    axes = span_axes(layout)
    kinetic, position = basis_energies(layout, spec)
    apply_inverse_qft(columns, axes)
    apply_phase_table(columns, axes, kinetic.reshape([1 << s.width for s in axes]))
    apply_qft(columns, axes)
    return np.ascontiguousarray(matrix.real), position


def pixel_hamiltonian(box: SimulationBox, spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hamiltonian of the discretised model, real symmetric: the
    kinetic matrix plus the diagonal position energy."""
    h, potential = _kinetic_matrix(box, spec)
    h[np.diag_indices_from(h)] += potential
    return h


def hamiltonian_eig(box: SimulationBox, spec: HamiltonianSpec):
    """Eigenvalues and (real) eigenvectors of the pixelated Hamiltonian."""
    from scipy.linalg import eigh
    return eigh(pixel_hamiltonian(box, spec))


def _ideal_step(evals: np.ndarray, evecs: np.ndarray, dt: float) -> np.ndarray:
    """The exact step exp(-i h dt) from the eigenpairs of h."""
    return (evecs * np.exp(-1j * evals * dt)[None, :]) @ evecs.conj().T


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
    vf = single_particle_potential(spec, 0, grids[::-1])
    g1 = np.einsum("jp,jn->jpn", a1.conj(), a1)
    if box.dims == 1:
        return np.tensordot(vf, g1, axes=([0], [0]))
    t1 = np.tensordot(vf, g1, axes=([1], [0]))       # (nf_y, m, m) over x
    vt = np.tensordot(g1, t1, axes=([0], [0]))       # (my', my, mx', mx)
    return np.ascontiguousarray(vt.transpose(0, 2, 1, 3).reshape(m * m, m * m))


def ground_pair(h: np.ndarray):
    """(E_0, psi_0): the lowest eigenvalue of a dense Hermitian matrix and its
    eigenvector, solved for alone rather than with the whole spectrum."""
    from scipy.linalg import eigh
    evals, evecs = eigh(h, subset_by_index=[0, 0], driver="evx")
    return float(evals[0]), evecs[:, 0]


_REFERENCE_CACHE: dict = {}   # the latest configuration only: h and its ground pair


def _spec_key(spec: HamiltonianSpec):
    coup = None if spec.pair_couplings is None else spec.pair_couplings.tobytes()
    return (tuple((p.mass, p.charge) for p in spec.particles),
            tuple((n.position, n.charge) for n in spec.nuclei),
            coup, spec.efield)


def _reference(box: SimulationBox, spec: HamiltonianSpec) -> dict:
    key = ((box.dims, box.n_r, box.length, box.origin_offset), _spec_key(spec))
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE.clear()
        kinetic, _ = _kinetic_matrix(box, spec)
        h = _projected_potential(box, spec)
        h += kinetic    # in place: one dense matrix fewer at the peak
        h.flags.writeable = False
        _REFERENCE_CACHE[key] = {"h": h}
    return _REFERENCE_CACHE[key]


def reference_hamiltonian(box: SimulationBox, spec: HamiltonianSpec) -> np.ndarray:
    """The reference Hamiltonian, complex Hermitian: the kinetic matrix plus
    the projected (full matrix) potential.  The patch correction repairs
    towards its exact step; the plain :func:`pixel_hamiltonian` keeps the
    diagonal potential.  The latest configuration's matrix is cached, read
    only, since it feeds state preparation and every window derivation."""
    return _reference(box, spec)["h"]


def reference_ground(box: SimulationBox, spec: HamiltonianSpec):
    """(E_0, psi_0) of :func:`reference_hamiltonian`, what ideal state
    preparation would deliver; cached beside the matrix."""
    entry = _reference(box, spec)
    if "ground" not in entry:
        entry["ground"] = ground_pair(entry["h"])
    return entry["ground"]


def reference_step_matrix(box: SimulationBox, spec: HamiltonianSpec, dt: float,
                          rows: np.ndarray):
    """(U_ideal[rows], U_SO[rows]): the given rows of the exact step of
    :func:`reference_hamiltonian` and of :func:`split_cycle_matrix`.

    Both are U[rows] = conj(U^dag E_rows)^T, E_rows the unit vectors at
    ``rows``.  U_SO^dag is :func:`split_step_inverse` on those columns alone.
    h is Hermitian, so U_ideal^dag = exp(+i h dt); ``expm_multiply`` builds
    that from products of h with the columns.  It is handed an operator, not
    the array, so that it forms no dense identity or shifted copy of h.
    """
    from scipy.sparse.linalg import LinearOperator, expm_multiply
    h = reference_hamiltonian(box, spec)

    def forward(x):     # i h dt
        return (1j * dt) * (h @ x)

    def adjoint(x):     # its adjoint, h being Hermitian
        return (-1j * dt) * (h @ x)

    a = LinearOperator(h.shape, matvec=forward, rmatvec=adjoint, matmat=forward,
                       rmatmat=adjoint, dtype=np.complex128)
    _, columns, units = _identity(box, spec, rows)
    ideal = expm_multiply(a, units, traceA=1j * dt * np.trace(h)).conj().T
    split_step_inverse(columns, StepPlan(dt), spec)
    return ideal, units.T.conj()


def build_dense_step_matrices(box: SimulationBox, spec: HamiltonianSpec, dt: float):
    """(U_ideal, U_SO) as dense matrices: the exact exponential of the
    pixelated Hamiltonian over one time step, and :func:`split_cycle_matrix`."""
    evals, evecs = hamiltonian_eig(box, spec)
    return _ideal_step(evals, evecs, dt), split_cycle_matrix(box, spec, dt)
