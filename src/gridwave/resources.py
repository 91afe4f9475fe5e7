"""Closed-form qubit-count and gate-depth audits for target molecules.

The qubit formula is n_r = round(C3 + log2(Zmax) + log2(P)/3), three qubits
per particle and dimension.  The depth model charges 10*n_r^2 gates per
sub-step, with ceil(3.5*(P-1)) + 4 sequential sub-steps per cycle: one
arithmetic/phase/un-arithmetic block per pairing stage (the P-1 stages run
pairs in parallel) plus the transform/kinetic/field overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class MoleculeSpec:
    name: str
    particles: int          # electrons plus explicitly modelled nuclei
    z_max: int
    c3: float               # dimensionless root constant of the qubit formula

    def __post_init__(self):
        if self.particles < 1:
            raise ConfigError("particle count must be >= 1", field="molecule.particles")
        if self.z_max < 1:
            raise ConfigError("Z_max must be >= 1", field="molecule.z_max")


def qubits_required(spec: MoleculeSpec) -> tuple[int, int]:
    """(n_r, total computational qubits = 3 * P * n_r)."""
    n_r = int(round(spec.c3 + math.log2(spec.z_max) + math.log2(spec.particles) / 3.0))
    return n_r, 3 * spec.particles * n_r


@dataclass(frozen=True)
class DepthEstimate:
    sub_steps: int
    per_cycle: int
    cycles: int
    total: int

    @property
    def order(self) -> int:
        """floor(log10(total)): the bare order of magnitude."""
        return int(math.floor(math.log10(self.total)))

    @property
    def conservative_order(self) -> int:
        """ceil(log10(total)): the order rounded up."""
        return int(math.ceil(math.log10(self.total)))


def gate_depth_estimate(n_r: int, particles: int, cycles: int = 1) -> DepthEstimate:
    if n_r < 1 or particles < 1 or cycles < 1:
        raise ConfigError("depth estimate needs positive inputs")
    sub_steps = math.ceil(3.5 * max(particles - 1, 1)) + 4
    per_cycle = sub_steps * 10 * n_r ** 2
    return DepthEstimate(sub_steps, per_cycle, cycles, cycles * per_cycle)


FAST_EVENT_CYCLES = 10 ** 3     # sub-femtosecond event at fine stepping
SLOW_EVENT_CYCLES = 10 ** 5     # picosecond-scale event at adaptive stepping


PRESETS = {
    # electrons + nuclei, highest nuclear charge, audited root constant
    "NH3": MoleculeSpec("NH3", particles=14, z_max=7, c3=6.0),
    "C2F6": MoleculeSpec("C2F6", particles=74, z_max=9, c3=5.0),
    "H": MoleculeSpec("H", particles=1, z_max=1, c3=7.0),
}


def audit(spec: MoleculeSpec) -> dict:
    """Full report row: qubits plus fast/slow-event depth anchors."""
    n_r, qubits = qubits_required(spec)
    fast = gate_depth_estimate(n_r, spec.particles, FAST_EVENT_CYCLES)
    slow = gate_depth_estimate(n_r, spec.particles, SLOW_EVENT_CYCLES)
    return {
        "molecule": spec.name,
        "particles": spec.particles,
        "z_max": spec.z_max,
        "c3": spec.c3,
        "n_r": n_r,
        "qubits": qubits,
        "per_cycle_depth": fast.per_cycle,
        "depth_fast": fast.total,
        "depth_slow": slow.total,
    }


# -- heuristic box sizing from surface charge density ---------------------------
#
# Place the highest occupied hydrogen-like orbital of each atom at its nucleus
# with a screened effective charge, sum the radial densities, and grow a cube
# until the maximum density on its surface drops below a reference taken from
# a known-good two-electron configuration.  This is advisory only.

_PERIOD_SHELL = ((2, 1), (10, 2), (18, 3), (36, 4), (54, 5), (86, 6))


def _valence_shell(z: int) -> tuple[int, int]:
    """(principal quantum number, electrons in that shell), aufbau-coarse."""
    prev = 0
    for limit, n in _PERIOD_SHELL:
        if z <= limit:
            return n, z - prev
        prev = limit
    raise ConfigError(f"element Z={z} beyond tabulated periods")


def _screened_charge(z: int) -> float:
    """Slater-style screening of the valence shell, coarse variant."""
    n, n_val = _valence_shell(z)
    inner = z - n_val
    screen = 0.35 * max(n_val - 1, 0) + 0.85 * inner
    return max(z - screen, 1.0)


def _shell_density(r: np.ndarray, z: int) -> np.ndarray:
    """Spherically averaged valence charge density of one atom (a.u.)."""
    from .states import generalized_laguerre
    n, n_val = _valence_shell(z)
    zeff = _screened_charge(z)
    rho = 2.0 * zeff * r / n
    pref = math.sqrt((2 * zeff / n) ** 3
                     * math.factorial(n - 1) / (2 * n * math.factorial(n)))
    radial = pref * np.exp(-rho / 2.0) * generalized_laguerre(n - 1, 1, rho)
    return n_val * np.abs(radial) ** 2 / (4.0 * np.pi)


@dataclass(frozen=True)
class BoxAdvisory:
    length: float           # recommended cube side, a.u.
    threshold: float        # surface density threshold used


def surface_density(atoms, length: float, samples: int = 24) -> float:
    """Maximum summed valence density on the surface of a centred cube."""
    u = np.linspace(-length / 2, length / 2, samples)
    faces = []
    for axis in range(3):
        for side in (-length / 2, length / 2):
            g = np.meshgrid(u, u, indexing="ij")
            pts = [None, None, None]
            k = 0
            for d in range(3):
                if d == axis:
                    pts[d] = np.full_like(g[0], side)
                else:
                    pts[d] = g[k]
                    k += 1
            faces.append(np.stack(pts, axis=-1).reshape(-1, 3))
    pts = np.concatenate(faces)
    total = np.zeros(len(pts))
    for z, pos in atoms:
        r = np.linalg.norm(pts - np.asarray(pos, dtype=float), axis=1)
        total += _shell_density(r, z)
    return float(total.max())


def reference_density() -> float:
    """Surface density of a lone Z=2 atom centred in the 25 a.u. cube that is
    known to hold a two-electron state comfortably."""
    return surface_density([(2, (0.0, 0.0, 0.0))], 25.0)


def advise_box(atoms, threshold: float | None = None) -> BoxAdvisory:
    """Smallest cube whose surface density stays below the threshold."""
    thr = reference_density() if threshold is None else threshold
    lo, hi = 2.0, 400.0
    if surface_density(atoms, hi) > thr:
        raise ConfigError("no tabulated box reaches the target surface density")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if surface_density(atoms, mid) > thr:
            lo = mid
        else:
            hi = mid
    return BoxAdvisory(hi, thr)


# equilibrium geometries, atomic units (public structural data)
GEOMETRIES = {
    "NH3": [(7, (0.0, 0.0, 0.214)),
            (1, (0.0, 1.771, -0.499)),
            (1, (1.534, -0.886, -0.499)),
            (1, (-1.534, -0.886, -0.499))],
    "C2F6": [(6, (0.0, 0.0, 1.459)), (6, (0.0, 0.0, -1.459)),
             (9, (0.0, 2.339, 2.356)), (9, (2.026, -1.169, 2.356)),
             (9, (-2.026, -1.169, 2.356)), (9, (0.0, -2.339, -2.356)),
             (9, (-2.026, 1.169, -2.356)), (9, (2.026, 1.169, -2.356))],
}
