"""Analytic reference states, grid discretisation, exchange products, and
distribution overlap.

All quantities are in Hartree atomic units.  The hydrogenic closed forms use
generalised Laguerre polynomials evaluated by the stable three-term upward
recurrence (degrees here never exceed a handful) and spherical harmonics in
the Condon-Shortley phase convention.  ``exchange_product`` is the one
permutation sum over particle vectors: the two-orbital initial states of the
scenarios and the tag protocol of ``prep.antisymmetrize_tagged`` both build
on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ConfigError, DegenerateStateError, ResolutionWarning
from .grid import SimulationBox


def generalized_laguerre(k: int, alpha: float, x):
    """L^alpha_k(x) by upward recurrence."""
    x = np.asarray(x, dtype=np.float64)
    if k < 0:
        raise ValueError("degree must be non-negative")
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = 1.0 + alpha - x
    for i in range(1, k):
        prev, cur = cur, ((2 * i + 1 + alpha - x) * cur - (i + alpha) * prev) / (i + 1)
    return cur


_LEGENDRE = {
    # associated Legendre P_l^m(c) with Condon-Shortley phase, s = sin(theta)
    (0, 0): lambda c, s: np.ones_like(c),
    (1, 0): lambda c, s: c,
    (1, 1): lambda c, s: -s,
    (2, 0): lambda c, s: 0.5 * (3 * c ** 2 - 1),
    (2, 1): lambda c, s: -3 * c * s,
    (2, 2): lambda c, s: 3 * s ** 2,
    (3, 0): lambda c, s: 0.5 * (5 * c ** 3 - 3 * c),
    (3, 1): lambda c, s: -1.5 * (5 * c ** 2 - 1) * s,
    (3, 2): lambda c, s: 15 * c * s ** 2,
    (3, 3): lambda c, s: -15 * s ** 3,
}


def spherical_harmonic(l: int, m: int, theta, phi):
    """Y_l^m(theta, phi), Condon-Shortley convention, l <= 3."""
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    am = abs(m)
    if (l, am) not in _LEGENDRE:
        raise NotImplementedError(f"spherical harmonic l={l} not tabulated")
    from math import factorial
    norm = np.sqrt((2 * l + 1) / (4 * np.pi) * factorial(l - am) / factorial(l + am))
    y = norm * _LEGENDRE[(l, am)](np.cos(theta), np.sin(theta)) * np.exp(1j * am * phi)
    if m < 0:
        y = (-1) ** am * np.conj(y)
    return y


def hydrogen2d_energy(n: int) -> float:
    """Bound-state energy of the two-dimensional hydrogen atom (a.u.)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return -1.0 / (2.0 * (n + 0.5) ** 2)


def hydrogen2d_eigenstate(n: int, m: int, r, theta):
    """Closed-form 2D hydrogen eigenstate Psi_{n,m}(r, theta)."""
    if n < 0 or abs(m) > n:
        raise ValueError(f"invalid 2D quantum numbers (n={n}, m={m})")
    from math import factorial
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    q0 = 1.0 / (n + 0.5)
    pref = np.sqrt(q0 ** 3 * factorial(n - abs(m)) / (np.pi * factorial(n + abs(m))))
    radial = (2 * q0 * r) ** abs(m) * np.exp(-q0 * r) \
        * generalized_laguerre(n - abs(m), 2 * abs(m), 2 * q0 * r)
    return pref * radial * np.exp(1j * m * theta)


def hydrogen3d_eigenstate(n: int, l: int, m: int, z: float, r, theta, phi):
    """Closed-form hydrogenic eigenstate with effective nuclear charge ``z``."""
    if n < 1 or not (0 <= l < n) or abs(m) > l or z <= 0:
        raise ValueError(f"invalid 3D quantum numbers (n={n}, l={l}, m={m}, Z={z})")
    from math import factorial
    r = np.asarray(r, dtype=np.float64)
    rho = 2.0 * z * r / n
    pref = np.sqrt((2 * z / n) ** 3 * factorial(n - l - 1) / (2 * n * factorial(n + l)))
    radial = rho ** l * np.exp(-rho / 2.0) * generalized_laguerre(n - l - 1, 2 * l + 1, rho)
    return pref * radial * spherical_harmonic(l, m, theta, phi)


def gaussian_wavepacket(x, x_c: float = 0.0, p_c: float = 0.0, alpha: complex = 1.0):
    """Normalised 1D Gaussian with centre, momentum and width parameters."""
    alpha = complex(alpha)
    if alpha.real <= 0:
        raise ValueError("Re(alpha) must be positive")
    x = np.asarray(x, dtype=np.float64)
    dx = x - x_c
    return (2.0 * alpha.real / np.pi) ** 0.25 * np.exp(-alpha * dx ** 2 + 1j * p_c * dx)


# -- declarative state descriptions -------------------------------------------

@dataclass(frozen=True)
class Hydrogen2D:
    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or abs(self.m) > self.n:
            raise ConfigError(f"invalid (n={self.n}, m={self.m})", field="initial_state")
        # the normalisation takes (n + |m|)!, which overflows a float past 170
        if self.n + abs(self.m) > 170:
            raise ConfigError(f"n + |m| = {self.n + abs(self.m)} exceeds 170; "
                              "the normalisation overflows", field="initial_state")

    def wavefunction(self, x, y):
        return hydrogen2d_eigenstate(self.n, self.m, np.hypot(x, y), np.arctan2(y, x))

    dims = 2


@dataclass(frozen=True)
class Hydrogen3D:
    n: int
    l: int
    m: int
    z: float = 1.0

    def __post_init__(self):
        if not (0 <= self.l < self.n) or abs(self.m) > self.l:
            raise ConfigError(
                f"invalid (n={self.n}, l={self.l}, m={self.m})", field="initial_state")
        if (self.l, abs(self.m)) not in _LEGENDRE:
            raise ConfigError(f"spherical harmonic l={self.l} not tabulated (l <= 3)",
                              field="initial_state")
        # the normalisation divides by 2n (n + l)!, which overflows a float
        # from n + l = 170 on
        if self.n + self.l > 169:
            raise ConfigError(f"n + l = {self.n + self.l} exceeds 169; "
                              "the normalisation overflows", field="initial_state")

    def wavefunction(self, x, y, z):
        r = np.sqrt(x ** 2 + y ** 2 + z ** 2)
        theta = np.arctan2(np.hypot(x, y), z)
        phi = np.arctan2(y, x)
        return hydrogen3d_eigenstate(self.n, self.l, self.m, self.z, r, theta, phi)

    dims = 3


@dataclass(frozen=True)
class Gaussian:
    """Product of 1D Gaussians, one parameter set per dimension."""

    centers: tuple[float, ...]
    momenta: tuple[float, ...] = ()
    alphas: tuple[complex, ...] = ()

    def _param(self, seq, i, default):
        return seq[i] if i < len(seq) else default

    @property
    def dims(self):
        return len(self.centers)

    def wavefunction(self, *coords):
        coords = tuple(np.asarray(c, dtype=np.float64) for c in coords)
        out = np.ones(np.broadcast_shapes(*(c.shape for c in coords)), dtype=np.complex128)
        for i, c in enumerate(coords):
            out = out * gaussian_wavepacket(
                c, self.centers[i], self._param(self.momenta, i, 0.0),
                self._param(self.alphas, i, 1.0))
        return out


@dataclass(frozen=True)
class Superposition:
    terms: tuple[tuple[complex, object], ...]

    @property
    def dims(self):
        return self.terms[0][1].dims

    def wavefunction(self, *coords):
        out = 0.0
        for weight, state in self.terms:
            out = out + weight * state.wavefunction(*coords)
        return out


def grid_eval(state, box: SimulationBox) -> np.ndarray:
    """Sample a state's wavefunction on the box grid, flattened in register
    order (dimension 0 varies fastest)."""
    coords = box.coordinates()
    # axes ordered (dim_{d-1}, ..., dim_0) so that C-order flattening puts
    # dimension 0 in the lowest bits
    grids = np.meshgrid(*([coords] * box.dims), indexing="ij")
    values = state.wavefunction(*grids[::-1])
    return np.asarray(values, dtype=np.complex128).reshape(-1)


def sample_weight(state, box: SimulationBox):
    """(:func:`grid_eval` samples, the sum of their squares), refused with
    DegenerateStateError where that sum, which normalises the state on the
    grid, is 0 or not finite."""
    samples = grid_eval(state, box)
    total = float(np.add.reduce(np.abs(samples) ** 2))
    if not 0.0 < total < np.inf:
        raise DegenerateStateError(f"its squared samples on the grid sum to {total}, "
                                   "not to a positive finite number")
    return samples, total


def discretize(state, box: SimulationBox, sampled=None):
    """Sample an analytic state onto the pixel grid.

    Returns (unit-norm amplitude vector, C) where C is the normalisation
    constant of the pixel expansion; C strays from unity when the state is
    clipped by the box or varies quickly on the grid scale.  ``sampled``, the
    :func:`sample_weight` of ``state`` on ``box`` when already taken, is used
    instead of sampling again.
    """
    samples, total = sampled or sample_weight(state, box)
    c = 1.0 / np.sqrt(total * box.delta_r ** box.dims)
    if abs(c - 1.0) > 1e-3:
        warnings.warn(
            f"pixel expansion constant C={c:.6f} strays from 1; "
            "the grid may be too coarse or the box too small",
            ResolutionWarning, stacklevel=2)
    amps = samples / np.sqrt(total)
    return amps, c


def exchange_product(vectors, symmetrize: bool = False) -> np.ndarray:
    """Sum over permutations of (sign) (x)_i v_{perm i}, particle 0 in the low bits.

    ``vectors`` holds one single-particle vector per particle, all of one
    size; the sign is the permutation's parity unless ``symmetrize``.  The
    sum is written by outer products into one preallocated array and
    returned unnormalised.
    """
    vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if any(v.shape != vectors[0].shape for v in vectors):
        raise ConfigError("particle amplitude shapes differ")
    p, d = len(vectors), vectors[0].size
    if p < 2:
        raise ConfigError("an exchange product needs two or more particles")
    # axes most significant first, so C order puts particle 0 lowest; terms
    # after the first are added one top-particle row at a time, so the
    # scratch is 1/d of the state
    out = np.empty((d,) * p, dtype=np.complex128)
    row = np.empty((d,) * (p - 1), dtype=np.complex128)
    partials = [np.empty((d,) * k, dtype=np.complex128) for k in range(2, p)]
    for k, perm in enumerate(permutations(range(p))):
        top, rest = vectors[perm[-1]], vectors[perm[-2]]
        for j, dest in zip(reversed(perm[:-2]), partials):
            rest = np.multiply.outer(rest, vectors[j], out=dest)
        if k == 0:
            np.multiply.outer(top, rest, out=out)
            continue
        combine = np.add if symmetrize or _permutation_sign(perm) > 0 else np.subtract
        for amp, out_row in zip(top, out):
            np.multiply.outer(amp, rest, out=row)
            combine(out_row, row, out=out_row)
    return out.reshape(-1)


def _permutation_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def bhattacharyya(p: np.ndarray, q: np.ndarray) -> float:
    """Overlap coefficient sum(sqrt(p_i q_i)) between two discrete distributions."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if p.shape != q.shape:
        raise ValueError("distributions must have equal size")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("distributions must be non-negative")
    for name, d in (("p", p), ("q", q)):
        if abs(float(np.add.reduce(d)) - 1.0) > 1e-9:
            raise ValueError(f"distribution {name} does not sum to 1")
    return float(np.add.reduce(np.sqrt(p * q)))
