"""Independent reference implementations used only by the tests.

Everything here is derived straight from the defining formulas with explicit
loops or textbook quadrature, deliberately avoiding the production code paths
it is used to check.
"""

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


def wrapped_difference(a: int, b: int, width: int) -> int:
    """a - b folded back into the signed range of a width-qubit register."""
    m = 1 << width
    half = m >> 1
    return (a - b + half) % m - half


def dense_split_cycle(n_r: int, dims: int, particles: int, length: float,
                      offset: float, dt: float, masses, charges,
                      nuclei, couplings, efield=()) -> np.ndarray:
    """The product  e^{-i D_int dt} F^dag e^{-i D_kin dt} F  assembled from
    explicit per-basis-state sums (position-to-momentum F = conj-transpose of
    the reference transform above, per sub-register)."""
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
    return np.exp(-1j * pot * dt)[:, None] * (
        f.conj().T @ (np.exp(-1j * kin * dt)[:, None] * f))


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
