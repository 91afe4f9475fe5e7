import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gridwave.errors import DegenerateStateError, ResolutionWarning
from gridwave.grid import SimulationBox
from gridwave.states import (Gaussian, Hydrogen2D, Hydrogen3D, bhattacharyya,
                             discretize, exchange_product, gaussian_wavepacket,
                             generalized_laguerre, grid_eval,
                             hydrogen2d_eigenstate, hydrogen2d_energy,
                             hydrogen3d_eigenstate, spherical_harmonic)


def test_hydrogen2d_energies_exact():
    assert hydrogen2d_energy(0) == -2.0
    assert hydrogen2d_energy(1) == -2.0 / 9.0
    assert hydrogen2d_energy(2) == -0.08


def test_laguerre_against_scipy():
    from scipy.special import genlaguerre
    x = np.linspace(0.0, 10.0, 50)
    for k in range(4):
        for alpha in (0, 1, 2, 3):
            ref = genlaguerre(k, alpha)(x)
            assert np.abs(generalized_laguerre(k, alpha, x) - ref).max() < 1e-10


def test_spherical_harmonics_against_scipy():
    import scipy.special as sp
    theta = np.linspace(0.1, np.pi - 0.1, 7)
    phi = np.linspace(0.0, 2 * np.pi, 7)
    t, p = np.meshgrid(theta, phi)
    fn = getattr(sp, "sph_harm_y", None)
    for l in range(4):
        for m in range(-l, l + 1):
            if fn is not None:
                ref = fn(l, m, t, p)
            else:
                ref = sp.sph_harm(m, l, p, t)
            mine = spherical_harmonic(l, m, t, p)
            assert np.abs(mine - ref).max() < 1e-10


def test_hydrogen2d_normalised():
    # integral of |Psi_{1,1}|^2 over the plane equals 1
    def radial(r):
        return abs(hydrogen2d_eigenstate(1, 1, r, 0.0)) ** 2 * 2 * np.pi * r

    total = quad(radial, 0, 60, limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-8)


def test_hydrogen2d_invalid_numbers():
    with pytest.raises(ValueError):
        hydrogen2d_eigenstate(1, 2, 1.0, 0.0)


def test_hydrogen3d_at_origin():
    # (1,0,0,Z=1) at r=0 equals 1/sqrt(pi)
    v = hydrogen3d_eigenstate(1, 0, 0, 1.0, 0.0, 0.0, 0.0)
    assert v == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-12)


def test_hydrogen3d_normalised():
    # radial integral for (2,1,0), Z=2; angular part is normalised by construction
    def radial(r):
        val = hydrogen3d_eigenstate(2, 1, 0, 2.0, r, 0.123, 0.0)
        y = spherical_harmonic(1, 0, 0.123, 0.0)
        return abs(val / y) ** 2 * r ** 2

    total = quad(radial, 0, 40, limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-8)


def test_hydrogen3d_conjugation_relation():
    # m -> -m relates by conjugation up to the Condon-Shortley sign
    r, th, ph = 1.3, 0.8, 2.1
    plus = hydrogen3d_eigenstate(2, 1, 1, 2.0, r, th, ph)
    minus = hydrogen3d_eigenstate(2, 1, -1, 2.0, r, th, ph)
    assert minus == pytest.approx(-np.conj(plus), abs=1e-12)


def test_gaussian_normalised_and_centred():
    norm = quad(lambda x: abs(gaussian_wavepacket(x, 1.2, 0.0, 1.0)) ** 2,
                -20, 20, limit=200)[0]
    assert norm == pytest.approx(1.0, abs=1e-10)
    mean = quad(lambda x: x * abs(gaussian_wavepacket(x, 1.2, 0.0, 1.0)) ** 2,
                -20, 20, limit=200)[0]
    assert mean == pytest.approx(1.2, abs=1e-9)


def test_gaussian_real_positive_when_still():
    x = np.linspace(-3, 3, 11)
    v = gaussian_wavepacket(x, 0.0, 0.0, 1.0)
    assert np.abs(v.imag).max() == 0.0
    assert (v.real > 0).all()


# -- discretisation ------------------------------------------------------------------

def test_discretize_constant_is_uniform():
    class Flat:
        dims = 1

        def wavefunction(self, x):
            return np.ones_like(x, dtype=complex)

    box = SimulationBox(1, 4, 8.0)
    with pytest.warns(ResolutionWarning):
        amps, c = discretize(Flat(), box)
    assert np.abs(amps - amps[0]).max() < 1e-12
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def test_discretize_fidelity_anchor():
    """Sampled-overlap fidelity of the discretised 2D ground state vs the
    analytic one (normalised over the plane): the quoted five-digit value is
    reproduced at box width 5.2 a.u. with 64 points per axis."""
    box = SimulationBox(2, 6, 5.2, 0.5)
    samples = grid_eval(Hydrogen2D(0, 0), box)
    fidelity = float(np.sum(np.abs(samples) ** 2)) * box.delta_r ** 2
    assert fidelity == pytest.approx(0.99946, abs=5e-5)


def test_discretize_overlap_grows_with_resolution(hyd2d_spec):
    # overlap of the discretised ground state against the exact ground
    # eigenvector of the pixelated Hamiltonian rises monotonically with n_r
    from .conftest import cached_eig
    overlaps = []
    for n_r in (4, 5, 6):
        box = SimulationBox(2, n_r, 5.2, 0.5)
        evals, evecs = cached_eig(box, hyd2d_spec)
        amps, _ = discretize(Hydrogen2D(0, 0), box)
        overlaps.append(abs(np.vdot(evecs[:, 0], amps)) ** 2)
    assert overlaps[0] < overlaps[1] < overlaps[2]


def test_discretize_warns_on_subgrid_feature():
    box = SimulationBox(1, 4, 8.0)   # delta_r = 0.5
    narrow = Gaussian((0.0,), (), (200.0,))   # width well under one pixel
    with pytest.warns(ResolutionWarning):
        _, c = discretize(narrow, box)
    assert abs(c - 1.0) > 1e-3


def test_discretize_rejects_all_zero():
    box = SimulationBox(1, 3, 4.0)

    class Zero:
        dims = 1

        def wavefunction(self, x):
            return np.zeros_like(x, dtype=complex)

    with pytest.raises(DegenerateStateError):
        discretize(Zero(), box)


# -- exchange combination ---------------------------------------------------------------

def _unit(v):
    return v / np.linalg.norm(v)


def test_antisymmetrize_direct_swap_negates(rng):
    from gridwave.registers import particle_layout
    from gridwave.statevector import StateVector, swap_particle_registers
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    a /= np.linalg.norm(a)
    b -= np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    combined = exchange_product([a, b])
    assert np.linalg.norm(combined) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    state = StateVector(_unit(combined), particle_layout(2, 1, 3))
    swapped = swap_particle_registers(state, 0, 1)
    assert np.abs(swapped.amps + state.amps).max() < 1e-12


def test_antisymmetrize_direct_rejects_identical():
    # identical orbitals cancel exactly: loading refuses them at the exchange
    # key, and the initial state, which meets states that loading does not
    # sample (step eigenstates, grids above 2^18 points), refuses them too
    from dataclasses import replace
    from gridwave.errors import ConfigError
    from gridwave.scenario import build_initial_state, load_scenario
    a = np.full(8, 1.0 / np.sqrt(8.0), dtype=complex)
    assert not exchange_product([a, a]).any()
    text = """
box {{ dims = 1  n_r = 3  length = 8.0 }}
particles {{ particle {{ }} particle {{ }} }}
initial_state {{ {0} {1} antisymmetrize = true }}
plan {{ dt = 0.01  steps = 0 }}
"""
    orbital = "orbital { gaussian { center = 0.5  alpha = 1.0 } }"
    with pytest.raises(ConfigError, match="line 4: the two orbitals are parallel") as err:
        load_scenario(text.format(orbital, orbital))
    assert err.value.field == "initial_state.antisymmetrize"
    scen = load_scenario(text.format(orbital, orbital.replace("0.5", "1.5")))
    same = scen.initial.orbitals[0]
    with pytest.raises(DegenerateStateError, match="vanishes"):
        build_initial_state(replace(scen, initial=scen.initial._replace(
            orbitals=(same, same))))


def test_antisymmetrize_matches_tensor_oracle():
    # helium-style pair (2,1,0) and (2,1,-1), Z=2, L=25, n_r=4, explicit tensor
    box = SimulationBox(3, 4, 25.0, 0.5)
    a, _ = discretize(Hydrogen3D(2, 1, 0, 2.0), box)
    b, _ = discretize(Hydrogen3D(2, 1, -1, 2.0), box)
    combined = _unit(exchange_product([a, b]))
    tensor = np.einsum("i,j->ji", a, b) - np.einsum("i,j->ji", b, a)
    tensor = tensor.reshape(-1)
    tensor /= np.linalg.norm(tensor)
    assert np.abs(combined - tensor).max() < 1e-12


@pytest.mark.parametrize("symmetrize", [False, True])
def test_two_orbital_exchange_is_the_kron_difference_bit_for_bit(rng, symmetrize):
    # the initial state of every exchange scenario: outputs stay byte-identical
    from gridwave.scenario import build_initial_state, load_scenario
    key = "symmetrize" if symmetrize else "antisymmetrize"
    text = f"""
box {{ dims = 2  n_r = 4  length = 16.0  origin_offset = 0.5 }}
particles {{ particle {{ }} particle {{ }} }}
initial_state {{
    orbital {{ hydrogen2d {{ n = 0  m = 0 }} }}
    orbital {{ gaussian {{ center = 0.0 5.0  momentum = 0.0 -1.5  alpha = 0.4 0.4 }} }}
    {key} = true
}}
plan {{ dt = 0.01  steps = 0 }}
"""
    box = SimulationBox(2, 4, 16.0, 0.5)
    a, _ = discretize(Hydrogen2D(0, 0), box)
    b, _ = discretize(Gaussian((0.0, 5.0), (0.0, -1.5), (0.4, 0.4)), box)
    plain = np.kron(b, a) + np.kron(a, b) if symmetrize else np.kron(b, a) - np.kron(a, b)
    raw = float(np.sqrt(np.add.reduce(np.abs(plain) ** 2)))
    amps = build_initial_state(load_scenario(text)).amps
    assert amps.tobytes() == (plain / raw).tobytes()
    c = rng.normal(size=64) + 1j * rng.normal(size=64)
    d = rng.normal(size=64) + 1j * rng.normal(size=64)
    sign = 1.0 if symmetrize else -1.0
    assert (exchange_product([c, d], symmetrize).tobytes()
            == (np.kron(d, c) + sign * np.kron(c, d)).tobytes())


def test_symmetrize_flag():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    sym = exchange_product([a, b], symmetrize=True)
    assert np.linalg.norm(sym) == pytest.approx(np.sqrt(2.0))
    # |01> + |10> with particle 0 in the low bit
    assert sym[0b01] == pytest.approx(1.0)
    assert sym[0b10] == pytest.approx(1.0)


# -- distribution overlap ------------------------------------------------------------------

def test_bhattacharyya_basics():
    p = np.array([0.5, 0.5, 0.0, 0.0])
    q = np.array([1.0, 0.0, 0.0, 0.0])
    assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-12)
    assert bhattacharyya(p, q) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    disjoint = np.array([0.0, 0.0, 1.0, 0.0])
    assert bhattacharyya(q, disjoint) == 0.0


def test_bhattacharyya_validation():
    with pytest.raises(ValueError):
        bhattacharyya(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        bhattacharyya(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_bhattacharyya_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    p = rng.random(16)
    q = rng.random(16)
    p /= p.sum()
    q /= q.sum()
    b1, b2 = bhattacharyya(p, q), bhattacharyya(q, p)
    assert b1 == pytest.approx(b2, abs=1e-12)
    assert 0.0 <= b1 <= 1.0 + 1e-12
    # equality with itself, strictly below 1 when distinct enough
    assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-12)
