"""Dense statevector storage and the primitive register operations.

The amplitude array is the single source of quantum truth.  All mutating
operations write through ``state.amps`` in place (so views into a larger
buffer keep working) and return the state; only :func:`enlarge_subregister`
allocates a new, wider state.

Every sum over a state (norms, inner products, measurement probabilities) is
one ``np.add.reduce`` over one product array: numpy's pairwise summation,
whose tree is fixed by the length, single-threaded and free of BLAS, so
results are bit-identical at any thread count.  ``np.vdot``, ``np.dot`` and
``@`` go to BLAS, whose kernels may thread, and are not used for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, PostSelectionError
from .registers import (RegisterLayout, Span, pattern_of_value, span_values)

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass
class MeasurementRecord:
    """Outcome statistics of one ancilla/qubit measurement."""

    qubit: int
    basis: str
    outcome: int          # Z: 0/1; X: 0 means |+>, 1 means |->
    probability: float    # probability of this outcome before collapse
    post_selected: bool = False

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"probability {self.probability} outside [0, 1]")


class StateVector:
    """2^N complex amplitudes plus the register layout that interprets them."""

    __slots__ = ("amps", "num_qubits", "layout")

    def __init__(self, amps: np.ndarray, layout: RegisterLayout | None = None):
        amps = np.asarray(amps, dtype=np.complex128)
        n = amps.size.bit_length() - 1
        if amps.size != (1 << n):
            raise LayoutError(f"amplitude count {amps.size} is not a power of two")
        if layout is not None:
            layout.check_within(n)
        self.amps = amps
        self.num_qubits = n
        self.layout = layout

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int, layout: RegisterLayout | None = None):
        return cls.basis_state(num_qubits, 0, layout)

    @classmethod
    def basis_state(cls, num_qubits: int, index: int, layout=None):
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps, layout)

    def copy(self) -> "StateVector":
        return StateVector(self.amps.copy(), self.layout)

    # -- reductions ---------------------------------------------------------

    def norm_sq(self) -> float:
        return float(np.add.reduce(np.abs(self.amps) ** 2))


def inner_product(state_a: StateVector, state_b: StateVector) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    if state_a.amps.size != state_b.amps.size:
        raise LayoutError("dimension mismatch in inner product")
    return complex(np.add.reduce(np.conj(state_a.amps) * state_b.amps))


# -- the axis map and factor tables --------------------------------------------

def _span_axes(num_qubits: int, spans: list[Span]):
    """Shapes that let a joint table over ``spans`` broadcast over the state.

    Returns (full_shape, table_shape, descending_order) where the state is
    reshaped to full_shape and the table, with its axes permuted into
    descending-start order, is reshaped to table_shape.
    """
    order = sorted(range(len(spans)), key=lambda i: spans[i].start, reverse=True)
    full, table = [], []
    pos = num_qubits
    for i in order:
        s = spans[i]
        if s.stop > pos:
            raise LayoutError("spans must be disjoint and inside the register")
        if pos > s.stop:
            full.append(1 << (pos - s.stop))
            table.append(1)
        full.append(1 << s.width)
        table.append(1 << s.width)
        pos = s.start
    if pos > 0:
        full.append(1 << pos)
        table.append(1)
    return tuple(full), tuple(table), order


def _broadcast_table(state: StateVector, spans: list[Span], table: np.ndarray):
    """Permute/reshape ``table`` (axes = spans in given order) for broadcasting."""
    full_shape, table_shape, order = _span_axes(state.num_qubits, spans)
    t = np.transpose(table, axes=order) if len(spans) > 1 else table
    return state.amps.reshape(full_shape), np.ascontiguousarray(t).reshape(table_shape)


def apply_phase_table(state: StateVector, spans: list[Span], factors: np.ndarray) -> StateVector:
    """Multiply amplitudes by a precomputed factor table: unit-modulus phases,
    real energies, or ``StepKernel``'s position table, whose damped pixels
    carry phases times real damping factors below 1."""
    view, factor = _broadcast_table(state, spans, factors)
    view *= factor
    return state


# -- Fourier transforms ------------------------------------------------------

def fourier_matrix(width: int) -> np.ndarray:
    """The matrix of :func:`apply_inverse_qft` on one sub-register of
    ``width`` qubits, position to momentum (rows = k patterns): the
    orthonormal DFT, its phases reduced exactly mod 2^width.  Built without
    ``np.fft``, so layouts of narrow axes only never load it."""
    m = 1 << width
    k = np.arange(m)
    return np.exp(-2j * np.pi * (np.outer(k, k) % m) / m) / np.sqrt(m)


def _transform_view(state: StateVector, spans):
    """amps reshaped with one axis per span, and the positions of those axes."""
    spans = [spans] if isinstance(spans, Span) else list(spans)
    full_shape, table_shape, _ = _span_axes(state.num_qubits, spans)
    axes = tuple(i for i, t in enumerate(table_shape) if t > 1)
    return state.amps.reshape(full_shape), axes


def apply_qft(state: StateVector, spans) -> StateVector:
    """Fourier transform of one sub-register, or of several jointly (a span or
    a sequence of spans), momentum-to-position direction.

    In terms of signed values n, k the matrix element is
    exp(+i*pi*n*k / 2^(w-1)) / 2^(w/2); on two's-complement bit patterns this
    is the plain inverse DFT, so an orthonormal ifft implements it exactly.
    """
    view, axes = _transform_view(state, spans)
    np.fft.ifftn(view, axes=axes, norm="ortho", out=view)
    return state


def apply_inverse_qft(state: StateVector, spans) -> StateVector:
    view, axes = _transform_view(state, spans)
    np.fft.fftn(view, axes=axes, norm="ortho", out=view)
    return state


# -- controlled application --------------------------------------------------

def _layout_without_qubit(layout: RegisterLayout | None, qubit: int):
    if layout is None:
        return None
    def shift(s: Span) -> Span:
        if s.start <= qubit < s.stop:
            raise LayoutError("control qubit lies inside an operand span")
        return Span(s.start - 1, s.width) if s.start > qubit else s
    from .registers import Particle
    particles = tuple(Particle(tuple(shift(s) for s in p.spans)) for p in layout.particles)
    ancillas = {name: shift(s) for name, s in layout.ancillas.items()
                if not (s.width == 1 and s.start == qubit)}
    return RegisterLayout(particles, ancillas, layout.box)


def controlled_apply(state: StateVector, control_qubit: int, op) -> StateVector:
    """Apply ``op`` on the subspace where ``control_qubit`` is 1.

    ``op`` receives a StateVector over the remaining N-1 qubits (the layout
    is adjusted accordingly) and must mutate it in place.
    """
    n = state.num_qubits
    if not 0 <= control_qubit < n:
        raise LayoutError(f"control qubit {control_qubit} out of range")
    sub_layout = _layout_without_qubit(state.layout, control_qubit)
    if control_qubit == n - 1:
        # contiguous upper half: operate on a view, no copies
        block = self_view = state.amps[state.amps.size >> 1:]
        sub = StateVector.__new__(StateVector)
        sub.amps, sub.num_qubits, sub.layout = block, n - 1, sub_layout
        op(sub)
        if sub.amps is not self_view:
            self_view[...] = sub.amps
        return state
    hi = 1 << (n - 1 - control_qubit)
    lo = 1 << control_qubit
    view = state.amps.reshape(hi, 2, lo)
    block = np.ascontiguousarray(view[:, 1, :]).reshape(-1)
    sub = StateVector(block, sub_layout)
    op(sub)
    view[:, 1, :] = sub.amps.reshape(hi, lo)
    return state


# -- measurement -------------------------------------------------------------

def _hadamard_on(state: StateVector, qubit: int) -> None:
    view = state.amps.reshape(1 << (state.num_qubits - 1 - qubit), 2, 1 << qubit)
    a0 = view[:, 0, :].copy()
    view[:, 0, :] = (a0 + view[:, 1, :]) * _SQRT_HALF
    view[:, 1, :] = (a0 - view[:, 1, :]) * _SQRT_HALF


def measure_qubit(state: StateVector, qubit: int, basis: str = "z",
                  forced_outcome: int | None = None,
                  rng: np.random.Generator | None = None):
    """Measure one qubit; returns (MeasurementRecord, state).

    With ``forced_outcome`` the collapse is post-selected deterministically
    (emulator privilege) and the pre-collapse probability recorded.  X-basis
    outcome 0 means |+>.
    """
    if basis not in ("z", "x"):
        raise ValueError("basis must be 'z' or 'x'")
    if basis == "x":
        _hadamard_on(state, qubit)
    view = state.amps.reshape(1 << (state.num_qubits - 1 - qubit), 2, 1 << qubit)
    p1 = float(np.add.reduce((np.abs(view[:, 1, :]) ** 2).reshape(-1)))
    p1 = min(max(p1, 0.0), 1.0)
    if forced_outcome is None:
        if rng is None:
            raise ValueError("measure_qubit needs rng when outcome is not forced")
        outcome = int(rng.random() < p1)
        post_selected = False
    else:
        outcome = int(forced_outcome)
        post_selected = True
    p = p1 if outcome == 1 else 1.0 - p1
    if p < 1e-15:
        raise PostSelectionError(
            f"outcome {outcome} on qubit {qubit} has probability {p:.3e}")
    view[:, 1 - outcome, :] = 0.0
    state.amps *= 1.0 / np.sqrt(p)
    if basis == "x":
        _hadamard_on(state, qubit)
    return MeasurementRecord(qubit, basis, outcome, p, post_selected), state


# -- conditioned ancilla rotation ---------------------------------------------

def _condition_mask(num_qubits: int, spans: list[Span], table: np.ndarray) -> np.ndarray:
    """Boolean mask over the 2^num_qubits index space from a joint span table."""
    full_shape, table_shape, order = _span_axes(num_qubits, spans)
    t = np.transpose(table, axes=order) if len(spans) > 1 else table
    t = np.ascontiguousarray(t).reshape(table_shape)
    mask = np.zeros(full_shape, dtype=bool)
    mask |= t
    return mask.reshape(-1)


def masked_ancilla_x_rotation(state: StateVector, spans: list[Span],
                              allowed: np.ndarray, ancilla: int,
                              theta: float) -> StateVector:
    """exp(i*sigma_x*theta) on ``ancilla`` wherever the span values satisfy
    the boolean ``allowed`` table (axes = spans in given order)."""
    n = state.num_qubits
    for s in spans:
        if s.start <= ancilla < s.stop:
            raise LayoutError("ancilla must lie outside the control spans")
    reduced = [Span(s.start - 1, s.width) if s.start > ancilla else s for s in spans]
    mask = _condition_mask(n - 1, reduced, allowed)
    hi = 1 << (n - 1 - ancilla)
    lo = 1 << ancilla
    view = state.amps.reshape(hi, 2, lo)
    m2 = mask.reshape(hi, lo)
    a0 = view[:, 0, :][m2]
    a1 = view[:, 1, :][m2]
    c, s_ = np.cos(theta), np.sin(theta)
    view[:, 0, :][m2] = c * a0 + 1j * s_ * a1
    view[:, 1, :][m2] = 1j * s_ * a0 + c * a1
    return state


# -- register arithmetic -------------------------------------------------------

def register_add_sub(state: StateVector, span_a: Span, span_b: Span,
                     mode: str = "subtract") -> StateVector:
    """Relabel |a>|b> -> |a -+ b mod 2^w>|b>; exact permutation of basis states."""
    if span_a.width != span_b.width:
        raise LayoutError("add/sub requires equal-width spans")
    if span_a.overlaps(span_b):
        raise LayoutError("add/sub spans overlap")
    if mode not in ("subtract", "add"):
        raise ValueError("mode must be 'subtract' or 'add'")
    w = span_a.width
    m = 1 << w
    ua = np.arange(m)[:, None]   # new pattern of register a
    ub = np.arange(m)[None, :]
    if mode == "subtract":       # new = old - b  =>  old = new + b
        src = (ua + ub) % m
    else:                        # new = old + b  =>  old = new - b
        src = (ua - ub) % m
    a_hi = span_a.start > span_b.start
    first, second = (span_a, span_b) if a_hi else (span_b, span_a)
    n = state.num_qubits
    shape = (1 << (n - first.stop), 1 << first.width,
             1 << (first.start - second.stop), 1 << second.width,
             1 << second.start)
    view = state.amps.reshape(shape)
    if a_hi:
        ia = np.broadcast_to(src, (m, m))
        ib = np.broadcast_to(np.arange(m)[None, :], (m, m))
        out = view[:, ia, :, ib, :]          # axes: (a, b, P, Q, R)
        view[...] = np.moveaxis(out, (0, 1), (1, 3))
    else:
        ib = np.broadcast_to(np.arange(m)[:, None], (m, m))
        ia = np.broadcast_to(src.T, (m, m))  # indexed as [b, a]
        out = view[:, ib, :, ia, :]
        view[...] = np.moveaxis(out, (0, 1), (1, 3))
    return state


def _enlarge_one_axis(amps: np.ndarray, num_qubits: int, span: Span,
                      extra: int) -> np.ndarray:
    hi = 1 << (num_qubits - span.stop)
    lo = 1 << span.start
    old = amps.reshape(hi, 1 << span.width, lo)
    new = np.zeros((hi, 1 << (span.width + extra), lo), dtype=np.complex128)
    dest = pattern_of_value(span_values(span.width), span.width + extra)
    new[:, dest, :] = old
    return new.reshape(-1)


def enlarge_particle(state: StateVector, particle: int, extra_qubits: int) -> StateVector:
    """Sign-extend every sub-register of one particle by ``extra_qubits``.

    Represented coordinate values are unchanged; at fixed grid spacing the
    box width for that particle doubles per added qubit.  Returns a new,
    wider state with a rebuilt layout (spans repacked in ascending order).
    """
    from .registers import Particle
    layout = state.layout
    if layout is None:
        raise LayoutError("enlargement needs a layout")
    amps = state.amps
    n = state.num_qubits
    # widen the target spans one dimension at a time, highest start first so
    # lower span positions stay valid
    target = sorted(layout.particles[particle].spans, key=lambda s: -s.start)
    grown = {}
    for s in target:
        amps = _enlarge_one_axis(amps, n, s, extra_qubits)
        n += extra_qubits
        grown[s.start] = extra_qubits
    # rebuild spans: everything above an enlarged span shifts up
    def new_start(old_start: int) -> int:
        return old_start + sum(e for st, e in grown.items() if st < old_start)
    particles = []
    for ip, p in enumerate(layout.particles):
        spans = []
        for s in p.spans:
            w = s.width + (extra_qubits if ip == particle else 0)
            spans.append(Span(new_start(s.start), w))
        particles.append(Particle(tuple(spans)))
    ancillas = {name: Span(new_start(s.start), s.width)
                for name, s in layout.ancillas.items()}
    new_layout = RegisterLayout(tuple(particles), ancillas, layout.box)
    return StateVector(amps, new_layout)


def swap_particle_registers(state: StateVector, p1: int, p2: int) -> StateVector:
    """New state with the two particles' register contents exchanged."""
    layout = state.layout
    s1 = layout.particles[p1].spans
    s2 = layout.particles[p2].spans
    if tuple(s.width for s in s1) != tuple(s.width for s in s2):
        raise LayoutError("swap requires equal-shape particle registers")
    # one array axis per span (plus gap axes); exchanging the paired axes
    # exchanges the bit fields of the two particles
    full_shape, table_shape, order = _span_axes(state.num_qubits, list(s1 + s2))
    axis = dict(zip(order, (i for i, t in enumerate(table_shape) if t > 1)))
    perm = list(range(len(full_shape)))
    for i in range(len(s1)):
        a, b = axis[i], axis[len(s1) + i]
        perm[a], perm[b] = b, a
    swapped = state.amps.reshape(full_shape).transpose(perm)
    return StateVector(swapped.reshape(-1), layout)
