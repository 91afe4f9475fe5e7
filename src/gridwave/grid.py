"""Simulation box geometry and the sharp grid basis functions.

Grid indices are signed integers n in [-2^(n_r-1), 2^(n_r-1)-1], stored in
two's complement on the register; the pixel coordinate is
x_n = (n - origin_offset) * delta_r, so with the default half-pixel offset
the potential origin sits between the two central points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .registers import span_values


@dataclass(frozen=True)
class SimulationBox:
    """Uniform Cartesian grid: ``2^n_r`` points per dimension over width ``length``."""

    dims: int
    n_r: int
    length: float               # box width per dimension, Bohr radii
    origin_offset: float = 0.5  # fraction of delta_r in [0, 1)

    def __post_init__(self):
        if self.dims not in (1, 2, 3):
            raise ConfigError("dims must be 1, 2 or 3", field="box.dims")
        if self.n_r < 1:
            raise ConfigError("n_r must be positive", field="box.n_r")
        if self.length <= 0:
            raise ConfigError("length must be positive", field="box.length")
        if not 0.0 <= self.origin_offset < 1.0:
            raise ConfigError("origin_offset must lie in [0, 1)", field="box.origin_offset")

    @property
    def delta_r(self) -> float:
        return self.length / (1 << self.n_r)

    def coordinates(self, width: int | None = None) -> np.ndarray:
        """Pixel coordinates indexed by raw register pattern.

        ``width`` may exceed ``n_r`` after register enlargement; the spacing
        stays fixed so the represented box widens.
        """
        w = self.n_r if width is None else width
        return (span_values(w) - self.origin_offset) * self.delta_r

    def width_for(self, span_width: int) -> float:
        """Box width represented by a sub-register of ``span_width`` qubits."""
        return self.delta_r * (1 << span_width)


def pixel_function(n: int, n_r: int, length: float, x, origin_offset: float = 0.0):
    """Value (with complex phase) of the sharp basis function peaked at pixel ``n``.

    The function is 1/sqrt(delta_r) at its own grid point and zero at every
    other one; between points it oscillates like a Dirichlet kernel.
    """
    x = np.asarray(x, dtype=np.float64)
    rho = 1 << (n_r - 1)
    delta_r = length / (1 << n_r)
    xp = x - (n - origin_offset) * delta_r
    j = np.arange(1, rho + 1, dtype=np.float64)
    cosines = np.cos(np.pi * np.multiply.outer(2.0 * j - 1.0, xp) / length)
    return np.exp(-1j * np.pi * xp / length) * np.sqrt(2.0 / (rho * length)) * cosines.sum(axis=0)
