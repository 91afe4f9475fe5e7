import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gridwave.errors import ConfigError
from gridwave.grid import SimulationBox, pixel_function
from gridwave.observables import probability_density
from gridwave.registers import particle_layout
from gridwave.statevector import StateVector


def test_box_invariants():
    box = SimulationBox(2, 6, 10.0, 0.5)
    assert box.delta_r * (1 << box.n_r) == pytest.approx(10.0, abs=0.0)
    coords = box.coordinates()
    # pixel coordinate x_n = (n - offset) * delta_r
    from gridwave.registers import span_values
    vals = span_values(6)
    assert np.abs(coords - (vals - 0.5) * box.delta_r).max() == 0.0


def test_box_validation():
    with pytest.raises(ConfigError):
        SimulationBox(4, 6, 10.0)
    with pytest.raises(ConfigError):
        SimulationBox(2, 6, -1.0)
    with pytest.raises(ConfigError):
        SimulationBox(2, 6, 10.0, 1.0)


def test_enlarged_width():
    box = SimulationBox(1, 5, 10.0)
    assert box.width_for(6) == pytest.approx(20.0)
    assert box.coordinates(6).size == 64


def test_pixel_peak_value():
    # at its own grid point the function equals 1/sqrt(delta_r)
    for n_r, length in ((4, 8.0), (6, 10.0)):
        delta_r = length / (1 << n_r)
        for n in (0, 1, -3):
            v = pixel_function(n, n_r, length, n * delta_r)
            assert v == pytest.approx(1.0 / np.sqrt(delta_r), abs=1e-10)


def test_pixel_zero_at_other_grid_points():
    n_r, length = 5, 10.0
    delta_r = length / (1 << n_r)
    others = np.array([m * delta_r for m in range(-8, 8) if m != 2])
    vals = pixel_function(2, n_r, length, others)
    assert np.abs(vals).max() < 1e-10


def test_pixel_continuum_orthonormality():
    # quadrature over the box: <P^0|P^1> = 0 and <P^0|P^0> = 1
    n_r, length = 4, 4.0

    def overlap(n, m):
        re = quad(lambda x: (np.conj(pixel_function(n, n_r, length, x))
                             * pixel_function(m, n_r, length, x)).real,
                  -length / 2, length / 2, limit=400)[0]
        im = quad(lambda x: (np.conj(pixel_function(n, n_r, length, x))
                             * pixel_function(m, n_r, length, x)).imag,
                  -length / 2, length / 2, limit=400)[0]
        return complex(re, im)

    assert abs(overlap(0, 1)) < 1e-8
    assert overlap(0, 0) == pytest.approx(1.0, abs=1e-8)


def test_pixel_family_orthonormal_under_grid_sampling():
    # finite check over all pairs at n_r=4: delta_r * sum_m P_n(x_m)* P_k(x_m)
    n_r, length = 4, 6.0
    m = 1 << n_r
    delta_r = length / m
    xs = np.array([(n - m // 2) * delta_r for n in range(m)])
    ns = list(range(-m // 2, m // 2))
    mat = np.zeros((m, m), dtype=complex)
    for i, n in enumerate(ns):
        mat[i] = pixel_function(n, n_r, length, xs)
    gram = delta_r * (mat.conj() @ mat.T)
    assert np.abs(gram - np.eye(m)).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_ascending_order_sorts_coordinates(n_r):
    # an exported density runs by increasing coordinate along x and along y:
    # give basis state i the probability (i + 1) / Z, so each entry of the
    # density names the basis state, hence the two pixels, it came from
    box = SimulationBox(2, n_r, 4.0)
    size = 1 << 2 * n_r
    probs = np.arange(1, size + 1) / (size * (size + 1) / 2)
    state = StateVector(np.sqrt(probs), particle_layout(1, 2, n_r, box=box))
    index = (np.rint(probability_density(state, 0) * size * (size + 1) / 2) - 1).astype(int)
    coords = box.coordinates()
    x, y = coords[index & ((1 << n_r) - 1)], coords[index >> n_r]
    assert np.all(np.diff(x, axis=0) > 0) and np.all(np.diff(x, axis=1) == 0)
    assert np.all(np.diff(y, axis=1) > 0) and np.all(np.diff(y, axis=0) == 0)
