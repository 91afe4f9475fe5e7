"""First-order split-operator time stepping on the register statevector.

One step applies, in order: the kinetic cycle, one position-diagonal table
(every nuclear, field and pairwise phase times any real damping factor), a
damped plan's renormalisation and an optional core patch correction.

The kinetic cycle is the paper's transform / quadratic kinetic phase /
inverse transform on every sub-register.  The kinetic energy is a sum over
axes, so on each axis that sandwich is one unitary F^dag exp(-i dt C k^2) F,
and the cycle is one pass per axis.  An axis narrower than ``BLOCK`` points
applies it as a dense block by matrix products, on one BLAS thread; a wider
axis as numpy's transform along that axis, its kinetic phases and the
transform back.  The lowest axes, those that fit in a cache-sized slab with
every qubit below them, go slab by slab: each pass reads its axis as the
contiguous last one and writes it transposed to the front of one scratch
slab, the perfect-shuffle evaluation of a Kronecker product (M. Davio, IEEE
Trans. Comput. C-30, 116 (1981)), so a block is one product per slab and a
transform runs along contiguous rows; a lone transform axis, which needs
no rotation, stays out of the run.  The axes above that run are applied in
place, a block one slab of columns per product.  On a state of more than
one slab, each pass splits its slabs (a transform its rows, or its
columns where a slab holds no whole row) over as many threads as numpy's
OpenBLAS pool holds, in units fixed by the shape alone, so every product is
the same call and the bytes are the same at any thread count; the position
multiply and the damping norm stay on one thread.  The pairwise factors are
what the paper's register subtract / relative-coordinate phase / add circuit
produces (``statevector.register_add_sub`` keeps that circuit as the
reference); here they are gathered once into the position table.

:func:`energy_tables` is the one place where the Hamiltonian is mapped onto
the register axes.  The kernel's passes and tables are built from exp(-i dt E)
of its real energies; ``observables.sampled_energy_expectation`` reads the
energies themselves, and ``dense`` builds its matrices by running the
kernel's sub-steps on the identity.

Boundary damping is the paper's conditioned-ancilla round: an ancilla
rotated by arccos(exp(-V dt)) on the edge pixels, then post-selected to |0>.
That outcome leaves the particle registers multiplied by the real diagonal
exp(-V dt) with the ancilla back in |0>, so the kernel folds that diagonal
into its position table and renormalises after it, instead of carrying the
always-zero ancilla half (``tests/oracles.py`` keeps the round,
``ancilla_damping_round``, as the reference).
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import os
from copy import copy
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial

import numpy as np

from . import corrections
from .errors import ConfigError, LayoutError, PostSelectionError
from .hamiltonian import (AttenuationSpec, ExplicitRegion, HamiltonianSpec,
                          UniformEdgeRegion, pair_potential,
                          single_particle_potential)
from .registers import RegisterLayout, pattern_of_value, span_values
from .statevector import (StateVector, _span_axes, apply_phase_table,
                          fourier_matrix)
# unused here; benchmark/tracing.py wraps these by name in this module's namespace
from .statevector import apply_inverse_qft, apply_qft, register_add_sub  # noqa: F401
from .statevector import masked_ancilla_x_rotation, measure_qubit  # noqa: F401

# An axis narrower than this, in grid points, is applied as its own dense
# block; an axis of this many points or more as its transform pass.  Per
# pass on 2^22 amplitudes, one BLAS thread on a 2-vCPU Intel Xeon, dense
# block against transform (ms): inside the slab run, 32 points 31 vs 63,
# 64 points 48 vs 44, 128 points 78 vs 48; above it, 32 points 36 vs 99,
# 64 points 52 vs 77, 128 points 83 vs 121.  Over the whole
# kinetic cycle, interleaved in one process, 64-point axes as blocks took
# 0.092 ms against 0.114 on 2^12 amplitudes (two axes), 9.2 against 10.5 on
# 2^18 (three) and 833 against 1133 on 2^24 (four); 128-point axes as blocks
# took 0.57 ms against 0.34 on 2^14 (two) and 122 against 111 on 2^21 (three).
# Bailey's two-level split of a wide axis into blocks (an h-point DFT block,
# one twiddled l-point block per high momentum, the DFT block back) took
# 1.06, 1.04 and 1.20 ms at 64, 128 and 256 points on 2^16 amplitudes against
# 0.61, 0.66 and 0.67 for the transform.  Merging narrow axes into one block
# costs more than it saves: on 2^18 amplitudes, six 8-point blocks took
# 2.4 ms and three 64-point blocks of the same six axes 4.5 ms.
BLOCK = 128
# The kinetic cycle's cache-sized unit, in amplitudes.  From the bottom up,
# the axes that fit in SLAB amplitudes with every qubit below them are
# applied slab by slab, each through one product or transform that writes
# its axis transposed into a scratch slab; a slab and its scratch together
# hold SLAB amplitudes unless one run of those axes needs more, and each
# block product above the run covers one scratch slab.  Kinetic cycle at
# SLAB 2^15 against 2^16 (min of 100 interleaved calls, one BLAS thread):
# helium's six 8-point axes (2^18 amplitudes) 4.8 vs 5.2 ms, the probe's two
# 256-point axes (2^16) 1.59 vs 1.32 ms; 2^17 was no faster on either.  Half
# a SLAB per slab below a full run took helium from 5.2 to 4.9 ms and seven
# 8-point axes (2^21) from 54 to 50 ms.
SLAB = 1 << 16


@dataclass(frozen=True)
class StepPlan:
    """One split-operator cycle description."""

    dt: float
    augmentation: object | None = None     # CoreCorrection, see corrections.py
    attenuation: AttenuationSpec | None = None

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt < 0:
            raise ConfigError("dt must be finite and non-negative", field="plan.dt")

    def with_dt(self, dt: float) -> "StepPlan":
        # a patch correction is derived for one specific dt; changing dt
        # silently would apply a stale correction
        if self.augmentation is not None and dt != self.dt:
            raise ConfigError(
                "changing dt invalidates the attached core correction; "
                "derive a new one", field="plan.dt")
        return replace(self, dt=dt)


def _along(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """View of a 1D array laid along ``axis`` of an ``ndim``-axis broadcast."""
    shape = [1] * ndim
    shape[axis] = vec.size
    return vec.reshape(shape)


def _product_table(factors: list, shape: tuple) -> np.ndarray:
    """Contiguous ``shape`` table: the broadcast product of ``factors``.  Once
    the product spans every axis, each later factor multiplies it in place;
    one that lies along a single axis multiplies only the slice of that axis
    holding its entries other than 1 (a damping strip), for the same product."""
    table = factors[0]
    for f in factors[1:]:
        if table.shape != shape:
            table = table * f
            continue
        box = [slice(None)] * f.ndim
        if f.size in f.shape:
            hit = np.flatnonzero(f.reshape(-1) != 1.0)
            if hit.size == 0:
                continue
            box[f.shape.index(f.size)] = slice(hit[0], hit[-1] + 1)
        table[tuple(box)] *= f[tuple(box)]
    return np.ascontiguousarray(np.broadcast_to(table, shape))


def kinetic_constant(box, width: int, mass: float) -> float:
    """Phase prefactor C with phases exp(-i*C*dt*k^2); C = 2*pi^2/(L^2 m)."""
    box_width = box.width_for(width)
    return 2.0 * np.pi ** 2 / (box_width ** 2 * mass)


def span_axes(layout: RegisterLayout) -> list:
    """Every particle span, highest start first: the axis order of the
    reshaped state, so tables over these axes broadcast onto it as views."""
    return sorted((s for particle in layout.particles for s in particle.spans),
                  key=lambda s: s.start, reverse=True)


def energy_tables(layout: RegisterLayout, spec: HamiltonianSpec):
    """The one map from the Hamiltonian onto the register: real energy tables
    on the axes of :func:`span_axes`.

    Returns (kinetic, position).  ``kinetic`` holds one (span, energies)
    pair per axis, in axis order: the kinetic energy C k^2 of the span's
    particle along that axis at each momentum pattern.  ``position`` lists the
    terms of the joint position energy as (table, index) pairs, each term's
    energy on the axes being ``table[index]``.  A pair term is its
    relative-coordinate table gathered at (pattern_p - pattern_q) mod 2^w per
    dimension (two's complement makes that the value difference, wrapped to
    the minimum image); a particle's nuclear and field term broadcasts onto
    the axes as it is (index ``()``).  Kept as small terms, they are
    exponentiated before the gather or broadcast, not once per basis state.
    """
    box = layout.box
    axes = span_axes(layout)
    axis = {s: i for i, s in enumerate(axes)}
    ndim = len(axes)
    mass = {s: spec.particles[p].mass
            for p, particle in enumerate(layout.particles) for s in particle.spans}
    kinetic = [(s, kinetic_constant(box, s.width, mass[s])
                * span_values(s.width).astype(np.float64) ** 2) for s in axes]

    terms = []
    for p in range(len(layout.particles)):
        for q in range(p + 1, len(layout.particles)):
            if spec.coupling(p, q) == 0.0:
                continue
            spans_p, spans_q = layout.particles[p].spans, layout.particles[q].spans
            if [s.width for s in spans_p] != [s.width for s in spans_q]:
                raise LayoutError("paired particles need equal-shape registers")
            deltas = np.meshgrid(*[span_values(s.width) for s in spans_p], indexing="ij")
            index = []
            for sp, sq in zip(spans_p, spans_q):
                patterns = np.arange(1 << sp.width)
                index.append((_along(patterns, axis[sp], ndim)
                              - _along(patterns, axis[sq], ndim)) % patterns.size)
            terms.append((pair_potential(spec, p, q, box.delta_r, deltas), tuple(index)))
    if spec.nuclei or any(spec.efield):
        for p, particle in enumerate(layout.particles):
            coords = [_along(box.coordinates(s.width), axis[s], ndim)
                      for s in particle.spans]
            terms.append((single_particle_potential(spec, p, coords), ()))
    return kinetic, terms


def basis_energies(layout: RegisterLayout, spec: HamiltonianSpec):
    """(kinetic, position): the energies of :func:`energy_tables` at every
    basis index of a ``layout`` register, each summed over its terms (0
    without any)."""
    kinetic, position = energy_tables(layout, spec)

    def spread(spans, table):
        full_shape, table_shape, _ = _span_axes(layout.num_qubits, spans)
        table = np.broadcast_to(table, [1 << s.width for s in spans])
        return np.broadcast_to(table.reshape(table_shape), full_shape).reshape(-1)

    return (sum(spread([s], e) for s, e in kinetic),
            sum(spread(span_axes(layout), e[index]) for e, index in position))


def _axis_pass(phases: np.ndarray) -> np.ndarray:
    """The pass of F^dag diag(phases) F on one axis, F = ``fourier_matrix``:
    below ``BLOCK`` points that dense matrix, applied by matrix products;
    from there on the phases themselves, applied between numpy's transform
    along the axis and the transform back."""
    if phases.size >= BLOCK:
        return phases
    f = fourier_matrix(phases.size.bit_length() - 1)
    return f.conj().T @ (phases[:, None] * f)


def _rotate(src: np.ndarray, dst: np.ndarray, op) -> None:
    """Apply ``op`` to the last axis of each (rows, m) group of ``src`` and
    write that axis transposed to the front of ``dst``'s (m, rows) group: a
    dense block as one product, a transform pass's phases between the fft
    and ifft along the contiguous axis and then one transposed copy, and
    None (ancilla qubits between or below the axes) as the copy alone."""
    if op is not None and op.ndim == 2:
        np.matmul(op, src.swapaxes(-1, -2), out=dst)
        return
    if op is not None:
        np.fft.fft(src, axis=-1, norm="ortho", out=src)
        src *= op
        np.fft.ifft(src, axis=-1, norm="ortho", out=src)
    dst[...] = src.swapaxes(-1, -2)


def _apply_run(amps: np.ndarray, run: list, extent: int, k: int,
               scratch: np.ndarray) -> None:
    """Apply the (m, op) passes of ``run``, the lowest ``extent`` amplitudes'
    axes from the bottom up, to the k-th ``scratch``-sized slab of ``amps``.
    Each pass reads its axis as the last one and writes it as the first, so
    the axes are back in order after the run, between the slab and
    ``scratch`` in turn; an odd run ends in ``scratch`` and is copied back."""
    slab = amps[k * scratch.size:(k + 1) * scratch.size]
    src, dst = slab, scratch
    for m, op in run:
        _rotate(src.reshape(-1, extent // m, m), dst.reshape(-1, m, extent // m), op)
        src, dst = dst, src
    if src is scratch:
        slab[...] = scratch


def _apply_block(amps: np.ndarray, block: np.ndarray, post: int, k: int,
                 scratch: np.ndarray) -> None:
    """Multiply, in place, the k-th ``scratch`` slab of columns of the axis
    of ``block.shape[0]`` points that has ``post`` amplitudes below it by
    ``block``, as one product; the axis and those below it span more than a
    slab."""
    out = scratch.reshape(block.shape[0], -1)
    row, j = divmod(k * out.shape[1], post)
    part = amps.reshape(-1, block.shape[0], post)[row, :, j:j + out.shape[1]]
    np.matmul(block, part, out=out)
    part[...] = out


def _apply_transform(amps: np.ndarray, phases: np.ndarray, post: int, k: int,
                     scratch: np.ndarray) -> None:
    """F^dag diag(phases) F, in place, on the axis of ``phases.size`` points
    that has ``post`` amplitudes below it, in the k-th unit of max(slab,
    axis) amplitudes: a group of whole rows of the axis where a slab holds
    them, else a group of its columns (one column where the axis alone
    outgrows a slab).  That is numpy's orthonormal fft along the axis, which
    is F, then the phases, then the ifft back, one column at a time."""
    n = phases.size
    cols = min(post, max(scratch.size // n, 1))
    rows = max(scratch.size // (n * post), 1)
    row, j = divmod(k * cols, post)
    view = amps.reshape(-1, n, post)[row * rows:(row + 1) * rows, :, j:j + cols]
    np.fft.fft(view, axis=1, norm="ortho", out=view)
    view *= phases[:, None]
    np.fft.ifft(view, axis=1, norm="ortho", out=view)


@cache
def _openblas_threads(package: str = "numpy"):
    """(get, set) of the thread count of the OpenBLAS bundled with the wheels
    of ``package``, numpy or scipy, or None where it links another BLAS."""
    root = os.path.dirname(importlib.import_module(package).__file__)
    libs = os.path.join(root, os.pardir, package + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def set_blas_threads(threads: int, package: str = "numpy") -> int:
    """Set the pool of ``package``'s OpenBLAS to ``threads``; return its size
    before (1, and nothing set, where the package links another BLAS)."""
    pool = _openblas_threads(package)
    if pool is None:
        return 1
    before = pool[0]()
    if before != threads:
        pool[1](threads)
    return before


@cache
def _pool():
    """The worker threads of :func:`_each`, started only when a part finds
    none idle: one fewer than the most parts of any pass, which never exceed
    its slabs.  OpenBLAS reports at most 64 threads, the caller among them."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(63, thread_name_prefix="gridwave-slab")


def _part(unit, lo: int, hi: int, scratch: np.ndarray) -> None:
    for k in range(lo, hi):
        unit(k, scratch)


def _each(count: int, unit, scratch: list) -> None:
    """``unit(k, s)`` for every k below ``count``, split into contiguous
    parts, one per scratch slab ``s`` of ``scratch``, and at most ``count``:
    the first part on this thread, the others on the pool.  Which
    part a k falls in changes nothing, since every unit is the same call on
    the same amplitudes whatever the number of parts."""
    parts = min(len(scratch), count)
    if parts == 1:
        return _part(unit, 0, count, scratch[0])
    futures = [_pool().submit(_part, unit, count * i // parts,
                              count * (i + 1) // parts, scratch[i])
               for i in range(1, parts)]
    try:
        _part(unit, 0, count // parts, scratch[0])
    finally:
        for f in futures:
            f.exception()       # waits for every part before leaving
    for f in futures:
        f.result()


def _apply_kinetic(amps: np.ndarray, run: list, extent: int, passes: list) -> None:
    """Apply the slab run, then each (post, :func:`_axis_pass`) pass outside
    it, every pass split by :func:`_each` over as many threads as numpy's
    OpenBLAS pool holds, with one scratch slab each, while that pool is held
    at one thread.  A state of one slab or less stays on this thread.

    Each block product is cache-sized, and a BLAS pool of several threads
    stalls on such products whenever other processes hold the CPUs, since
    its idle threads spin waiting for work: on 2 vCPUs beside two busy
    processes, ``scattering_reduced`` took 2 s on one BLAS thread and up to
    40 s on two.  So every product runs on one BLAS thread, and the threads
    here split the slabs between them instead: an idle pool thread blocks
    on the pool's queue and this thread on its futures, neither spins, so a
    busy host costs them only their share of the CPUs."""
    # a slab and its scratch fill SLAB amplitudes, unless one run needs more
    size = min(max(extent, SLAB // 2), amps.size)
    slabs = amps.size // size
    # the pool's own get and set, not set_blas_threads: this runs every step
    pool = _openblas_threads()
    threads = pool[0]() if pool is not None else 1
    if threads > 1:
        pool[1](1)
    scratch = [np.empty(size, dtype=np.complex128)
               for _ in range(min(threads, slabs) if amps.size > SLAB else 1)]
    try:
        if run:
            _each(slabs, partial(_apply_run, amps, run, extent), scratch)
        for post, op in passes:
            if op.ndim == 2:
                _each(slabs, partial(_apply_block, amps, op, post), scratch)
            else:
                _each(amps.size // max(size, op.size),
                      partial(_apply_transform, amps, op, post), scratch)
    finally:
        if threads > 1:
            pool[1](threads)


class StepKernel:
    """Kinetic passes and phase tables for one (layout, plan, spec) triple,
    reused across steps: built from exp(-i dt E) of the tables of
    :func:`energy_tables`."""

    def __init__(self, layout: RegisterLayout, plan: StepPlan, spec: HamiltonianSpec):
        if layout.box is None:
            raise LayoutError("propagation needs a layout with an attached box")
        if len(spec.particles) != len(layout.particles):
            raise ConfigError("particle count differs between layout and spec")
        if plan.augmentation is not None and plan.augmentation.dt != plan.dt:
            raise ConfigError(
                f"core correction was derived for dt={plan.augmentation.dt}, "
                f"plan has dt={plan.dt}", field="plan.augmentation")
        self.layout = layout
        self.plan = plan
        self.spec = spec
        self.spans = span_axes(layout)
        self.shape = tuple(1 << s.width for s in self.spans)
        kinetic, position = energy_tables(layout, spec)
        # the kinetic cycle, one pass per axis, from the bottom up: the run
        # of (points, op) passes on the axes that fit in a slab with every
        # qubit below them, ancilla qubits below or between them as a pass of
        # op None, then the (amplitudes below, op) passes above the run.  A
        # lone transform axis is left out of the run: rotating it only copies
        self.run, self.passes, top = [], [], 0
        for s, e in reversed(kinetic):
            op = _axis_pass(np.exp(-1j * plan.dt * e))
            if 1 << s.stop > SLAB:
                self.passes.append((1 << s.start, op))
                continue
            if s.start > top:
                self.run.append((1 << (s.start - top), None))
            self.run.append((1 << s.width, op))
            top = s.stop
        if len(self.run) == 1 and self.run[0][1].ndim == 1:
            self.passes.insert(0, (1, self.run.pop()[1]))
            top = 0
        self.extent = 1 << top
        # one position table: every phase, then the real damping factors
        damping = (self._damping_factors(plan.attenuation)
                   if plan.attenuation is not None else [])
        self.damped = bool(damping)
        factors = [np.exp(-1j * plan.dt * e)[index] for e, index in position] + damping
        self.position = _product_table(factors, self.shape) if factors else None

        # core patch: the statevector rows of its pixel window
        self.window_rows = None
        if plan.augmentation is not None:
            self.window_rows = corrections.window_rows(layout, plan.augmentation)

    def _damping_factors(self, atten: AttenuationSpec) -> list:
        """Real factors over ``self.spans`` (axes as the position table): the
        factor cos(theta) = exp(-V dt) that the |0> outcome of the ancilla
        round leaves on each damped pixel, 1 elsewhere.  [] if all are 1."""
        dt = self.plan.dt
        axis = {s: i for i, s in enumerate(self.spans)}
        ndim = len(self.spans)
        region = atten.region
        factors = []
        if isinstance(region, UniformEdgeRegion):
            # a pixel in the strip of several registers is rotated once per register
            keep = np.cos(atten.angle(region.strength, dt))
            for s in self.spans:
                vec = np.ones(1 << s.width)
                vec[pattern_of_value(region.member_values(s.width), s.width)] = keep
                factors.append(_along(vec, axis[s], ndim))
        elif isinstance(region, ExplicitRegion):
            for particle in self.layout.particles:
                spans = particle.spans
                table = np.ones([1 << s.width if s in spans else 1 for s in self.spans])
                for pix, strength in region.pixels.items():
                    if len(pix) != len(spans):
                        raise ConfigError(
                            f"pixel {pix} has wrong dimensionality",
                            field="attenuation.pixels")
                    idx = [0] * ndim
                    for v, s in zip(pix, spans):
                        if not -(1 << (s.width - 1)) <= v < 1 << (s.width - 1):
                            raise ConfigError(f"pixel {pix} lies outside the grid",
                                              field="attenuation.pixels")
                        idx[axis[s]] = pattern_of_value(v, s.width)
                    table[tuple(idx)] = np.cos(atten.angle(strength, dt))
                factors.append(table)
        else:
            raise ConfigError("unknown attenuation region type", field="attenuation")
        if all(np.all(f == 1.0) for f in factors):
            return []
        return factors

    @cached_property
    def adjoint(self) -> "StepKernel":
        """This kernel with every kinetic and interaction table conjugated, so
        that its sub-steps undo the ones of this kernel.  Only the plain
        cycle has that inverse: damping and a patch are refused."""
        for name in ("attenuation", "augmentation"):
            if getattr(self.plan, name) is not None:
                raise ConfigError(f"a cycle with plan {name} has no unitary inverse",
                                  field=f"plan.{name}")
        adj = copy(self)
        # a block is symmetric (k^2 is even in k), so its conjugate is its
        # adjoint; conjugated phases undo a transform pass
        adj.run = [(m, op if op is None else op.conj()) for m, op in self.run]
        adj.passes = [(post, op.conj()) for post, op in self.passes]
        if self.position is not None:
            adj.position = np.conj(self.position)
        return adj

    # -- application --------------------------------------------------------

    def kinetic_cycle(self, state: StateVector) -> StateVector:
        _apply_kinetic(state.amps, self.run, self.extent, self.passes)
        return state

    def interaction(self, state: StateVector) -> StateVector:
        if self.position is not None:
            apply_phase_table(state, self.spans, self.position)
        return state

    def damp(self, state: StateVector) -> float:
        """The damping round's post-selection, once :meth:`interaction` has
        applied the damping factors: renormalisation.  Returns this step's
        detection probability 1 - survival (0 when every factor is 1)."""
        if not self.damped:
            return 0.0
        survival = min(state.norm_sq(), 1.0)
        if survival < 1e-15:
            raise PostSelectionError(
                f"damping leaves a survival probability of {survival:.3e}")
        state.amps *= 1.0 / np.sqrt(survival)
        return 1.0 - survival

    def apply(self, state: StateVector, escape=None) -> StateVector:
        self.kinetic_cycle(state)
        self.interaction(state)
        if self.plan.attenuation is not None:
            increment = self.damp(state)
            if escape is not None:
                escape.append(increment)
        if self.plan.augmentation is not None:
            # looked up at call time, where benchmark/tracing.py wraps it
            corrections.apply_core_correction(state, self.plan.augmentation,
                                              self.window_rows)
        return state


def compile_step(layout: RegisterLayout, plan: StepPlan,
                 spec: HamiltonianSpec) -> StepKernel:
    return StepKernel(layout, plan, spec)


def split_step_inverse(state: StateVector, plan: StepPlan, spec: HamiltonianSpec,
                       kernel: StepKernel | None = None) -> StateVector:
    """Exact inverse of one plain cycle: the interaction, then the kinetic
    cycle, each with conjugated tables.  A damped or patched cycle has no
    unitary inverse; its kernel's ``adjoint`` raises ConfigError."""
    if kernel is None:
        kernel = compile_step(state.layout, plan, spec)
    kernel.adjoint.interaction(state)
    kernel.adjoint.kinetic_cycle(state)
    return state


def propagate(state: StateVector, plan: StepPlan, spec: HamiltonianSpec,
              steps: int, callbacks=(), events: dict | None = None,
              escape=None, t0: float = 0.0) -> StateVector:
    """Repeated split-operator stepping with observable callbacks.

    ``callbacks`` are called as cb(step_index, time, state) after every step
    (the state must be treated as read-only).  ``events`` maps a step index
    to a callable (state, plan, spec) -> (state, plan, spec) applied after
    that step completes; the kernel is recompiled, so mid-run dt changes,
    register enlargement and coupling changes are supported.  The time is
    counted, not summed: t0 + (step - s) * dt from the step s and time t0 of
    the last event (the start, before any), so it carries no rounding drift.
    """
    if steps < 0:
        raise ConfigError("steps must be non-negative", field="plan.steps")
    kernel = compile_step(state.layout, plan, spec) if steps else None
    start = 0
    for step in range(1, steps + 1):
        kernel.apply(state, escape)
        t = t0 + (step - start) * plan.dt
        for cb in callbacks:
            cb(step, t, state)
        if events and step in events:
            state, plan, spec = events[step](state, plan, spec)
            t0, start = t, step
            if step < steps:
                kernel = compile_step(state.layout, plan, spec)
    return state
