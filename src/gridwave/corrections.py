"""Per-step patch correction for dynamics near the Coulomb singularity.

The split cycle deviates from the ideal step mostly on the few pixels around
the potential origin.  A small unitary acting on just that pixel window,
distilled from the repair operator U_ideal * U_SO^dagger by a singular value
decomposition, is appended to every step.  The window is addressed by first
adding a constant G to every sub-register so its pixels land on the patterns
whose high-order qubits are all zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError, LayoutError
from .registers import Span, pattern_of_value
from .statevector import StateVector


@dataclass(frozen=True)
class CoreCorrection:
    """A dense window unitary tied to the time step it was derived for."""

    dims: int
    lo: int            # lowest grid index of the window, per dimension
    n_l: int           # window holds 2^n_l pixels per dimension
    u_core: np.ndarray
    dt: float

    def __post_init__(self):
        q = (1 << self.n_l) ** self.dims
        u = np.asarray(self.u_core, dtype=np.complex128)
        if u.shape != (q, q):
            raise ConfigError(f"window unitary must be {q}x{q}, got {u.shape}")
        residual = np.abs(u.conj().T @ u - np.eye(q)).max()
        if residual > 1e-10:
            raise ConfigError(f"window matrix fails unitarity by {residual:.2e}")
        object.__setattr__(self, "u_core", u)

    @property
    def shift(self) -> int:
        """Constant G added to every sub-register before the window gate."""
        return -self.lo

    @property
    def window_values(self) -> range:
        return range(self.lo, self.lo + (1 << self.n_l))


def pick_core_window(box, n_l: int) -> int:
    """Lowest index of the 2^n_l consecutive pixels closest to the origin."""
    return int(np.ceil(box.origin_offset - (1 << (n_l - 1))))


def patch_indices(spans: list[Span], lo: int, n_l: int) -> np.ndarray:
    """Dense indices of the window basis states (last dimension fastest)."""
    q = 1 << n_l
    out = []
    for values in product(range(lo, lo + q), repeat=len(spans)):
        idx = 0
        for v, s in zip(values, spans):
            idx |= pattern_of_value(v, s.width) << s.start
        out.append(idx)
    return np.asarray(out, dtype=np.int64)


def derive_core_correction(u_ideal: np.ndarray, u_so: np.ndarray,
                           patch: np.ndarray, *, dims: int, lo: int, n_l: int,
                           dt: float) -> CoreCorrection:
    """Distil the window unitary from the repair operator U_ideal * U_SO^dagger.

    Only the window rows of the two step matrices enter.  A nearly singular
    window block is flagged but the SVD factors still yield a unitary.
    """
    a = u_ideal[patch, :]
    b = u_so[patch, :]
    m_core = a @ b.conj().T
    u, sigma, vh = np.linalg.svd(m_core)
    if sigma.min() < 1e-8:
        warnings.warn(f"window block nearly rank-deficient (sigma_min={sigma.min():.2e})",
                      stacklevel=2)
    return CoreCorrection(dims, lo, n_l, u @ vh, dt)


def derive_correction(box, spec, dt: float, n_l: int, *,
                      max_dim: int | None = None,
                      reference: str = "projected") -> CoreCorrection:
    """Dense derivation for a single particle: build the step matrices and
    distil the window unitary for the pixels nearest the origin.

    ``reference`` selects the ideal step the repair targets: "projected" uses
    the full potential matrix elements between grid basis functions (the
    defect the split cycle actually makes near the singularity), "diagonal"
    keeps the point-sampled potential on both sides and so repairs only the
    splitting error.
    """
    from .dense import (DEFAULT_MAX_DIM, _default_layout,
                        build_dense_step_matrices, reference_step_matrix)
    md = DEFAULT_MAX_DIM if max_dim is None else max_dim
    if reference == "projected":
        u_ideal, u_so, _, _ = reference_step_matrix(box, spec, dt, max_dim=md)
    elif reference == "diagonal":
        u_ideal, u_so = build_dense_step_matrices(box, spec, dt, max_dim=md)
    else:
        raise ConfigError("reference must be 'projected' or 'diagonal'")
    layout = _default_layout(box, spec)
    lo = pick_core_window(box, n_l)
    spans = list(layout.particles[0].spans)
    patch = patch_indices(spans, lo, n_l)
    return derive_core_correction(u_ideal, u_so, patch,
                                  dims=box.dims, lo=lo, n_l=n_l, dt=dt)


def shift_subregisters(state: StateVector, spans: list[Span], g: int) -> StateVector:
    """Add the constant g to every listed sub-register (modular relabelling)."""
    for s in spans:
        view = state._view(s)
        view[...] = np.roll(view, g % (1 << s.width), axis=1)
    return state


def _rest_indices(num_qubits: int, spans: list[Span]) -> np.ndarray:
    other = [qb for qb in range(num_qubits)
             if not any(s.start <= qb < s.stop for s in spans)]
    r = np.arange(1 << len(other), dtype=np.int64)
    out = np.zeros_like(r)
    for i, pos in enumerate(other):
        out |= ((r >> i) & 1) << pos
    return out


def apply_core_correction(state: StateVector, corr: CoreCorrection,
                          particle: int = 0) -> StateVector:
    """Shift by G, act with the window unitary on the flagged subspace, shift back."""
    layout = state.layout
    if layout is None:
        raise LayoutError("core correction needs a layout")
    spans = list(layout.particles[particle].spans)
    if len(spans) != corr.dims:
        raise ConfigError("correction dimensionality does not match the particle")
    g = corr.shift
    shift_subregisters(state, spans, g)
    # after the shift the window occupies values [0, 2^n_l) per dimension
    window = patch_indices(spans, 0, corr.n_l)
    rest = _rest_indices(state.num_qubits, spans)
    idx = rest[:, None] | window[None, :]
    block = state.amps[idx]
    state.amps[idx] = block @ corr.u_core.T
    shift_subregisters(state, spans, -g)
    return state
