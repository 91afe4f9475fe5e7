"""Physical system description: particles, nuclei, couplings, boundary damping.

Coulomb coefficients are products of charges: a particle with charge Q near a
nucleus of charge Z sees the potential Q*Z/r (attractive for an electron,
Q=-1, around a real nucleus, Z>0).  Pair couplings default to Q_p*Q_q and may
be overridden (or zeroed) explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ParticleSpec:
    mass: float = 1.0
    charge: float = -1.0

    def __post_init__(self):
        if self.mass <= 0:
            raise ConfigError("particle mass must be positive", field="particles.mass")


@dataclass(frozen=True)
class Nucleus:
    position: tuple[float, ...]
    charge: float = 1.0


@dataclass(frozen=True)
class UniformEdgeRegion:
    """Uniform damping strip of per-side width 2^-msb_qubits of the box width.

    Selected by the msb_qubits most significant qubits of each sub-register
    (the two extreme bit patterns), so both box edges of every dimension are
    covered; the total damped fraction per dimension is 2^(1-msb_qubits).
    """

    msb_qubits: int
    strength: float

    def __post_init__(self):
        if self.msb_qubits < 1:
            raise ConfigError("msb_qubits must be >= 1", field="attenuation.msb_qubits")
        if self.strength < 0:
            raise ConfigError("strength must be >= 0", field="attenuation.strength")

    def member_values(self, width: int) -> np.ndarray:
        """Signed grid indices falling inside the strip, for one sub-register."""
        if self.msb_qubits >= width:
            raise ConfigError("msb_qubits must be smaller than the sub-register width",
                              field="attenuation.msb_qubits")
        half = 1 << (width - 1)
        side = 1 << (width - self.msb_qubits)
        v = np.arange(-half, half)
        return v[(v < -half + side) | (v >= half - side)]


@dataclass(frozen=True)
class ExplicitRegion:
    """Per-pixel damping strengths, keyed by signed grid index tuples."""

    pixels: dict[tuple[int, ...], float]

    def __post_init__(self):
        for pix, v in self.pixels.items():
            if v < 0:
                raise ConfigError(f"strength at {pix} must be >= 0",
                                  field="attenuation.pixels")


@dataclass(frozen=True)
class AttenuationSpec:
    region: UniformEdgeRegion | ExplicitRegion

    def angle(self, strength: float, dt: float) -> float:
        """Ancilla rotation angle arccos(exp(-V*dt)); lies in [0, pi/2)."""
        theta = float(np.arccos(np.exp(-strength * dt)))
        if not 0.0 <= theta < np.pi / 2:
            raise ConfigError(f"damping strength {strength} over dt {dt} gives "
                              f"rotation angle {theta}, outside [0, pi/2)",
                              field="attenuation")
        return theta


@dataclass(frozen=True)
class HamiltonianSpec:
    particles: tuple[ParticleSpec, ...]
    nuclei: tuple[Nucleus, ...] = ()
    pair_couplings: np.ndarray | None = None   # symmetric, zero diagonal
    efield: tuple[float, ...] = ()

    def __post_init__(self):
        if self.pair_couplings is not None:
            q = np.asarray(self.pair_couplings, dtype=np.float64)
            n = len(self.particles)
            if q.shape != (n, n):
                raise ConfigError("pair coupling matrix shape mismatch",
                                  field="hamiltonian.pair_couplings")
            if not np.allclose(q, q.T):
                raise ConfigError("pair coupling matrix must be symmetric",
                                  field="hamiltonian.pair_couplings")
            if np.any(np.diag(q) != 0):
                raise ConfigError("pair coupling diagonal must be zero",
                                  field="hamiltonian.pair_couplings")
            object.__setattr__(self, "pair_couplings", q)

    def coupling(self, p: int, q: int) -> float:
        if self.pair_couplings is not None:
            return float(self.pair_couplings[p, q])
        return self.particles[p].charge * self.particles[q].charge

    def with_couplings_zeroed(self) -> "HamiltonianSpec":
        n = len(self.particles)
        return replace(self, pair_couplings=np.zeros((n, n)))


def single_particle_potential(spec: HamiltonianSpec, particle: int,
                              coords: list[np.ndarray]):
    """Nuclear Coulomb plus static-field potential on one particle's grid.

    ``coords`` holds one pixel-coordinate array per dimension (broadcastable
    meshgrid).  A pixel where a nucleus sits exactly on the grid point gets
    potential 0.
    """
    q_p = spec.particles[particle].charge
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    v = np.zeros(shape, dtype=np.float64)
    singular = np.zeros(shape, dtype=bool)
    for nuc in spec.nuclei:
        r2 = 0.0
        for d, c in enumerate(coords):
            pos = nuc.position[d] if d < len(nuc.position) else 0.0
            r2 = r2 + (c - pos) ** 2
        zero = r2 == 0.0
        singular |= zero
        v += q_p * nuc.charge / np.sqrt(np.where(zero, 1.0, r2))
    for d, c in enumerate(coords):
        e_d = spec.efield[d] if d < len(spec.efield) else 0.0
        if e_d:
            v = v + q_p * e_d * c
    return np.where(singular, 0.0, v)


def pair_potential(spec: HamiltonianSpec, p: int, q: int, delta_r: float,
                   deltas: list[np.ndarray]):
    """Coulomb coupling on the relative-coordinate grid; the coincident pixel
    is capped at the nearest off-diagonal shell value."""
    coupling = spec.coupling(p, q)
    d2 = 0.0
    for dv in deltas:
        d2 = d2 + dv.astype(np.float64) ** 2
    zero = d2 == 0.0
    return np.where(zero, coupling / delta_r,
                    coupling / (delta_r * np.sqrt(np.where(zero, 1.0, d2))))
