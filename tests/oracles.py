"""Independent reference implementations used only by the tests.

Everything here is derived straight from the defining formulas with explicit
loops or textbook quadrature, deliberately avoiding the production code paths
it is used to check.
"""

from itertools import permutations, product
from math import factorial

import numpy as np


def qft_matrix_reference(n_r: int) -> np.ndarray:
    """Momentum-to-position matrix from the b_n = sum_k exp(i pi n k / rho) a_k
    relation, signed indices, built by explicit loops."""
    rho = 1 << (n_r - 1)
    m = 2 * rho
    vals = [v if v < rho else v - m for v in range(m)]
    f = np.zeros((m, m), dtype=complex)
    for ni, n in enumerate(vals):
        for ki, k in enumerate(vals):
            f[ni, ki] = np.exp(1j * np.pi * n * k / rho) / np.sqrt(m)
    return f


def signed_value(pattern: int, width: int) -> int:
    half = 1 << (width - 1)
    return pattern if pattern < half else pattern - (1 << width)


def value_phase(amps, registers, phase_fn) -> np.ndarray:
    """Multiply each amplitude by exp(-i theta), theta = phase_fn of the signed
    values its basis state holds in ``registers`` ((start qubit, width) each),
    one basis state at a time."""
    psi = np.array(amps, dtype=complex)
    for idx in range(psi.size):
        values = [signed_value((idx >> start) & ((1 << width) - 1), width)
                  for start, width in registers]
        psi[idx] *= np.exp(-1j * phase_fn(*values))
    return psi


def wrapped_difference(a: int, b: int, width: int) -> int:
    """a - b folded back into the signed range of a width-qubit register."""
    m = 1 << width
    half = m >> 1
    return (a - b + half) % m - half


def _dense_terms(n_r: int, dims: int, particles: int, length: float,
                 offset: float, masses, charges, nuclei, couplings, efield=()):
    """(F, kinetic energies, potential) over the dense index, from explicit
    per-basis-state sums (position-to-momentum F = conj-transpose of the
    reference transform above, per sub-register)."""
    m = 1 << n_r
    delta_r = length / m
    width_total = n_r * dims * particles
    dim = 1 << width_total
    f1 = qft_matrix_reference(n_r).conj().T     # position -> momentum
    f = np.ones((1, 1), dtype=complex)
    for _ in range(dims * particles):
        f = np.kron(f, f1)

    kin = np.zeros(dim)
    pot = np.zeros(dim)
    for idx in range(dim):
        vals = []
        for reg in range(dims * particles):
            pattern = (idx >> (reg * n_r)) & (m - 1)
            vals.append(signed_value(pattern, n_r))
        for p in range(particles):
            c = 2.0 * np.pi ** 2 / (length ** 2 * masses[p])
            coords = []
            for d in range(dims):
                v = vals[p * dims + d]
                kin[idx] += c * v * v
                coords.append((v - offset) * delta_r)
            for pos, z in nuclei:
                r = np.sqrt(sum((coords[d] - pos[d]) ** 2 for d in range(dims)))
                pot[idx] += charges[p] * z / r
            for d in range(dims):
                if d < len(efield) and efield[d]:
                    pot[idx] += charges[p] * efield[d] * coords[d]
        for p in range(particles):
            for q in range(p + 1, particles):
                if couplings[p][q] == 0.0:
                    continue
                d2 = 0
                for d in range(dims):
                    dv = wrapped_difference(vals[p * dims + d], vals[q * dims + d], n_r)
                    d2 += dv * dv
                if d2 == 0:
                    pot[idx] += couplings[p][q] / delta_r
                else:
                    pot[idx] += couplings[p][q] / (delta_r * np.sqrt(d2))
    return f, kin, pot


def dense_split_cycle(n_r: int, dims: int, particles: int, length: float,
                      offset: float, dt: float, masses, charges,
                      nuclei, couplings, efield=()) -> np.ndarray:
    """The product  e^{-i D_int dt} F^dag e^{-i D_kin dt} F  of the terms
    above."""
    f, kin, pot = _dense_terms(n_r, dims, particles, length, offset, masses,
                               charges, nuclei, couplings, efield)
    return np.exp(-1j * pot * dt)[:, None] * (
        f.conj().T @ (np.exp(-1j * kin * dt)[:, None] * f))


def dense_hamiltonian(n_r: int, dims: int, particles: int, length: float,
                      offset: float, masses, charges, nuclei, couplings,
                      efield=()) -> np.ndarray:
    """The pixel Hamiltonian  F^dag D_kin F + D_int  of the terms above."""
    f, kin, pot = _dense_terms(n_r, dims, particles, length, offset, masses,
                               charges, nuclei, couplings, efield)
    return f.conj().T @ (kin[:, None] * f) + np.diag(pot)


def kinetic_cycle_reference(amps, registers, dt: float) -> np.ndarray:
    """The split cycle's kinetic part on every listed register: the
    position-to-momentum DFT of each, the phase exp(-i dt sum_r c_r k_r^2)
    per basis state, and the inverse DFT of each.  ``registers`` lists
    (start qubit, width, c) with c = 2 pi^2 / (L^2 m); k_r is the signed
    value of register r's bits."""
    psi = np.array(amps, dtype=complex)
    size = psi.size
    for start, width, _ in registers:
        view = psi.reshape(size >> (start + width), 1 << width, 1 << start)
        view[...] = np.fft.fft(view, axis=1, norm="ortho")
    idx = np.arange(size)
    energy = np.zeros(size)
    for start, width, c in registers:
        pattern = (idx >> start) & ((1 << width) - 1)
        k = np.where(pattern < 1 << (width - 1), pattern, pattern - (1 << width))
        energy += c * k * k
    psi *= np.exp(-1j * dt * energy)
    for start, width, _ in registers:
        view = psi.reshape(size >> (start + width), 1 << width, 1 << start)
        view[...] = np.fft.ifft(view, axis=1, norm="ortho")
    return psi


def add_to_registers(amps, starts, width: int, g: int) -> np.ndarray:
    """Add the constant g, modulo 2^width, to each width-qubit register
    starting at a qubit in ``starts``: a relabelling of the basis states."""
    amps = np.asarray(amps, dtype=complex)
    m = 1 << width
    idx = np.arange(amps.size)
    new = idx.copy()
    for s in starts:
        pattern = (idx >> s) & (m - 1)
        new = new & ~((m - 1) << s) | (((pattern + g) % m) << s)
    out = np.empty_like(amps)
    out[new] = amps
    return out


def shifted_window_round(amps, starts, width: int, lo: int, n_l: int,
                         u_core) -> np.ndarray:
    """The paper's core patch as its circuit addresses the window.

    Add G = -lo to every listed register, so the window pixels [lo, lo+2^n_l)
    land on the patterns [0, 2^n_l); act with u_core on each block of basis
    states whose listed registers all hold such patterns (blocks by ascending
    setting of the other qubits, each ordered first register slowest); then
    subtract G again.
    """
    shifted = add_to_registers(amps, starts, width, -lo)
    mask = sum(((1 << width) - 1) << s for s in starts)
    rest = np.array([i for i in range(shifted.size) if not i & mask])
    window = np.array([sum(v << s for v, s in zip(values, starts))
                       for values in product(range(1 << n_l), repeat=len(starts))])
    rows = rest[:, None] | window[None, :]
    shifted[rows] = shifted[rows] @ np.asarray(u_core).T
    return add_to_registers(shifted, starts, width, lo)


def free_gaussian_evolved(x, t, x_c, p_c, alpha, mass=1.0):
    """Closed-form free evolution of the normalised Gaussian wavepacket."""
    x = np.asarray(x, dtype=np.float64)
    a = complex(alpha)
    denom = 1.0 + 2j * a * t / mass
    xt = x - x_c - p_c * t / mass
    return ((2.0 * a.real / np.pi) ** 0.25 / np.sqrt(denom)
            * np.exp(-a * xt ** 2 / denom
                     + 1j * p_c * (x - x_c) - 1j * p_c ** 2 * t / (2 * mass)))


def phase_register_kernel(phi: float, s_qubits: int) -> np.ndarray:
    """Readout distribution of ideal phase estimation of eigenphase phi."""
    m = 1 << s_qubits
    y = np.arange(m)
    amp = np.zeros(m, dtype=complex)
    for k in range(m):
        amp += np.exp(1j * (2 * np.pi * y / m - phi) * k)
    return np.abs(amp / m) ** 2


def tag_erasure_success(deviations, tag_width: int) -> float:
    """Closed-form all-plus probability: product over particles of the
    squared Dirichlet average sum_m exp(2 pi i dev m / M) / M."""
    m = 1 << tag_width
    total = 1.0
    for dev in deviations:
        s = np.mean(np.exp(2j * np.pi * dev * np.arange(m) / m))
        total *= abs(s) ** 2
    return float(total)


def permutation_parity(perm) -> int:
    """+1 or -1: the sign of the permutation, counted by explicit
    transpositions that sort it."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def permuted_tagged_state(states, energies, tag_width: int,
                          symmetrize: bool = False) -> np.ndarray:
    """The paper's tagged permutation superposition.

    Slot i holds (tag_i above particle_i), slots stack low to high, and each
    particle state travels with the tag |round(E)> of its energy.  Distinct
    tags make the branches orthogonal, so 1/sqrt(P!) normalises exactly.
    """
    p = len(states)
    tags = [int(round(e)) for e in energies]
    out = 0.0
    for perm in permutations(range(p)):
        sign = 1.0 if symmetrize else float(permutation_parity(perm))
        full = np.ones(1, dtype=complex)
        for i in range(p):      # slot i lands above slots 0 .. i-1
            tag_vec = np.zeros(1 << tag_width, dtype=complex)
            tag_vec[tags[perm[i]]] = 1.0
            full = np.kron(np.kron(tag_vec, states[perm[i]]), full)
        out = out + sign * full
    return out / np.sqrt(factorial(p))


def tagged_exchange_circuit(states, energies, tag_width: int,
                            symmetrize: bool = False):
    """The paper's tag-register exchange symmetrisation, on the full tagged
    state.

    Each slot's tag register is Fourier-analysed; Fourier component mm
    applies W(mm) = 1 + sum_k (exp(2 pi i mm E_k / m) - 1) |s_k><s_k| to that
    slot's particle register; every tag register is then projected onto
    |+...+>.  Returns (particle-register vector normalised, probability of
    the all-plus outcome).
    """
    p = len(states)
    m = 1 << tag_width
    d = np.asarray(states[0]).size
    vec = permuted_tagged_state(states, energies, tag_width, symmetrize)
    # interleaved axes, most significant first: (tag_{P-1}, part_{P-1}, ..., tag_0, part_0)
    work = vec.reshape((m, d) * p)
    phases = np.exp(2j * np.pi * np.outer(np.arange(m), energies) / m)
    projectors = [np.outer(s, np.conj(s)) for s in states]
    eye = np.eye(d, dtype=complex)
    for slot in range(p):
        tag_axis = 2 * (p - 1 - slot)
        part_axis = tag_axis + 1
        work = np.fft.fft(work, axis=tag_axis) / np.sqrt(m)
        moved = np.moveaxis(work, (tag_axis, part_axis), (0, 1))
        for mm in range(m):
            w = eye + sum((phases[mm, j] - 1.0) * projectors[j] for j in range(p))
            moved[mm] = np.einsum("ab,b...->a...", w, moved[mm])
        work = np.moveaxis(moved, (0, 1), (tag_axis, part_axis))
    for slot in range(p):
        tag_axis = 2 * (p - 1 - slot)
        work = work.sum(axis=tag_axis, keepdims=True) / np.sqrt(m)
    projected = work.reshape(-1)
    success = float(np.sum(np.abs(projected) ** 2))
    return projected / np.sqrt(success), success


def ancilla_damping_round(amps, masks, angles):
    """The paper's boundary-damping round, gate by gate.

    For each (mask, theta): a fresh ancilla qubit in |0> above the register
    is rotated by exp(i theta sigma_x) on every basis state where ``mask``
    (boolean, one entry per amplitude) holds, then projected onto |0> and the
    state renormalised.  Returns (new amplitudes, probability that any of the
    projections would have failed).
    """
    psi = np.asarray(amps, dtype=complex)
    survival = 1.0
    for mask, theta in zip(masks, angles):
        # the rotation takes |x>|0> to cos(theta)|x>|0> + i sin(theta)|x>|1>
        lower = np.where(mask, np.cos(theta) * psi, psi)          # ancilla |0>
        upper = np.where(mask, 1j * np.sin(theta) * psi, 0.0)     # ancilla |1>
        p0 = np.sum(np.abs(lower) ** 2)
        survival *= p0 / (p0 + np.sum(np.abs(upper) ** 2))
        psi = lower / np.sqrt(p0)
    return psi, 1.0 - survival


def controlled_evolution_plus(u, psi, n: int):
    """The paper's |+>-controlled U^n with the control read in the X basis.

    The joint vector (|0> psi + |1> U^n psi)/sqrt(2) is built with the
    control as the top qubit, a Hadamard is applied to the control, and the
    control's |0> block (the |+> outcome) is kept.  Returns (that branch
    normalised, its probability).
    """
    psi = np.asarray(psi, dtype=complex)
    dim = psi.size
    evolved = np.linalg.matrix_power(u, n) @ psi
    joint = np.concatenate([psi, evolved]) / np.sqrt(2.0)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    joint = np.kron(hadamard, np.eye(dim)) @ joint
    branch = joint[:dim]
    p = float(np.vdot(branch, branch).real)
    return branch / np.sqrt(p), p


def phase_register_readout(u, psi, s_qubits: int, base: int) -> np.ndarray:
    """Readout distribution of the S-ancilla phase register.

    The register (above psi) starts in |+>^S; ancilla j controls
    U^(2^j * base) on the blocks where its bit is set; the register is then
    Fourier-analysed with amplitude(y) = sum_r e^{2 pi i y r/M} a_r / sqrt(M)
    and read in the computational basis.
    """
    psi = np.asarray(psi, dtype=complex)
    m = 1 << s_qubits
    blocks = np.array([psi / np.sqrt(m)] * m)
    for j in range(s_qubits):
        gate = np.linalg.matrix_power(u, (1 << j) * base)
        for r in range(m):
            if (r >> j) & 1:
                blocks[r] = gate @ blocks[r]
    y = np.arange(m)
    fourier = np.exp(2j * np.pi * np.outer(y, y) / m) / np.sqrt(m)
    readout = fourier @ blocks
    return np.sum(np.abs(readout) ** 2, axis=1)
