"""Per-step patch correction for dynamics near the Coulomb singularity.

The split cycle deviates from the ideal step mostly on the few pixels around
the potential origin.  A small unitary acting on just that pixel window,
distilled from the repair operator U_ideal * U_SO^dagger by a singular value
decomposition, is appended to every step.  On hardware the window is
addressed by adding a constant G to every sub-register, so its pixels land on
the patterns whose high-order qubits are all zero (``tests/oracles.py`` keeps
that round as the reference).  Here the window's rows of the statevector are
indexed once per compiled step and the gate is one gather, one product and
one scatter on them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError
from .registers import RegisterLayout, Span, particle_layout, pattern_of_value
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


def derive_core_correction(ideal_rows: np.ndarray, cycle_rows: np.ndarray, *,
                           dims: int, lo: int, n_l: int, dt: float) -> CoreCorrection:
    """Distil the window unitary from the repair operator U_ideal * U_SO^dagger.

    Only the window rows of the two step matrices enter, so they are what is
    passed: ``ideal_rows`` = U_ideal[patch] and ``cycle_rows`` = U_SO[patch],
    with ``patch`` the window's :func:`patch_indices`.  A nearly singular
    window block is flagged but the SVD factors still yield a unitary.
    """
    m_core = ideal_rows @ cycle_rows.conj().T
    u, sigma, vh = np.linalg.svd(m_core)
    if sigma.min() < 1e-8:
        warnings.warn(f"window block nearly rank-deficient (sigma_min={sigma.min():.2e})",
                      stacklevel=2)
    return CoreCorrection(dims, lo, n_l, u @ vh, dt)


def derive_correction(box, spec, dt: float, n_l: int) -> CoreCorrection:
    """Dense derivation for a single particle: distil the window unitary for
    the pixels nearest the origin, repairing towards the reference step (the
    full potential matrix elements between grid basis functions, the defect
    the split cycle actually makes near the singularity).  Only the window
    rows of either step are built (:func:`dense.reference_step_matrix`)."""
    from .dense import reference_step_matrix
    lo = pick_core_window(box, n_l)
    spans = list(particle_layout(1, box.dims, box.n_r).particles[0].spans)
    ideal_rows, cycle_rows = reference_step_matrix(box, spec, dt,
                                                   patch_indices(spans, lo, n_l))
    return derive_core_correction(ideal_rows, cycle_rows, dims=box.dims, lo=lo,
                                  n_l=n_l, dt=dt)


def window_rows(layout: RegisterLayout, corr: CoreCorrection) -> np.ndarray:
    """Flat statevector indices the window gate acts on, for particle 0: one
    row per setting of the qubits outside the particle's spans (ascending),
    holding the window pixels in :func:`patch_indices` order."""
    spans = list(layout.particles[0].spans)
    if len(spans) != corr.dims:
        raise ConfigError("correction dimensionality does not match the particle")
    if corr.n_l > spans[0].width:
        raise ConfigError(f"a window of 2^{corr.n_l} pixels per dimension exceeds "
                          f"the {1 << spans[0].width}-pixel grid")
    inside = {q for s in spans for q in s.qubits()}
    other = [q for q in range(layout.num_qubits) if q not in inside]
    r = np.arange(1 << len(other), dtype=np.int64)
    rest = np.zeros_like(r)
    for i, q in enumerate(other):
        rest |= ((r >> i) & 1) << q
    return rest[:, None] | patch_indices(spans, corr.lo, corr.n_l)[None, :]


def apply_core_correction(state: StateVector, corr: CoreCorrection,
                          rows: np.ndarray) -> StateVector:
    """Act with the window unitary on the window rows from :func:`window_rows`."""
    state.amps[rows] = state.amps[rows] @ corr.u_core.T
    return state
