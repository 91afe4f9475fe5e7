import numpy as np
import pytest

from gridwave.dense import hamiltonian_eig
from gridwave.grid import SimulationBox
from gridwave.hamiltonian import HamiltonianSpec, Nucleus, ParticleSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def hydrogen_spec(dims: int, charge: float = 1.0) -> HamiltonianSpec:
    return HamiltonianSpec((ParticleSpec(1.0, -1.0),),
                           (Nucleus((0.0,) * dims, charge),))


@pytest.fixture(scope="session")
def hyd2d_spec():
    return hydrogen_spec(2)


_EIG_CACHE = {}


def cached_eig(box: SimulationBox, spec: HamiltonianSpec):
    """Session-wide cache of dense diagonalisations keyed by configuration."""
    key = (box.dims, box.n_r, box.length, box.origin_offset,
           tuple((p.mass, p.charge) for p in spec.particles),
           tuple((n.position, n.charge) for n in spec.nuclei),
           spec.efield)
    if key not in _EIG_CACHE:
        _EIG_CACHE[key] = hamiltonian_eig(box, spec)
    return _EIG_CACHE[key]


def random_state(rng, num_qubits):
    dim = 1 << num_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
