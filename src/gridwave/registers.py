"""Register bookkeeping: qubit spans, the signed value encoding, layouts.

A basis index is an integer in [0, 2^N); qubit q is bit q (LSB = qubit 0).
A sub-register is a contiguous span of qubits whose bit pattern encodes a
signed grid index in two's complement, the one value encoding used
throughout: a w-qubit span holds the values [-2^(w-1), 2^(w-1)-1], and
value 0 is pattern 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LayoutError


@dataclass(frozen=True)
class Span:
    """A contiguous run of ``width`` qubits starting at ``start``."""

    start: int
    width: int

    def __post_init__(self):
        if self.start < 0 or self.width < 1:
            raise LayoutError(f"bad span ({self.start}, {self.width})")

    @property
    def stop(self) -> int:
        return self.start + self.width

    def qubits(self) -> range:
        return range(self.start, self.stop)

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.stop and other.start < self.stop


def span_values(width: int) -> np.ndarray:
    """Vector of signed values indexed by raw bit pattern, for one span."""
    raw = np.arange(1 << width, dtype=np.int64)
    return np.where(raw < (1 << (width - 1)), raw, raw - (1 << width))


def pattern_of_value(value, width: int):
    """Inverse of :func:`span_values`: raw bit pattern encoding ``value``.

    Accepts scalars or arrays; values wrap modulo 2^width.
    """
    out = np.mod(np.asarray(value, dtype=np.int64), 1 << width)
    if out.ndim == 0:
        return int(out)
    return out


@dataclass(frozen=True)
class Particle:
    """One particle's sub-registers, ordered x, y, z."""

    spans: tuple[Span, ...]

    def __post_init__(self):
        widths = {s.width for s in self.spans}
        if len(widths) != 1:
            raise LayoutError("all sub-registers of one particle must have equal width")

    @property
    def n_r(self) -> int:
        return self.spans[0].width

    @property
    def dims(self) -> int:
        return len(self.spans)


@dataclass(frozen=True)
class RegisterLayout:
    """Maps particles x dimensions x qubits, plus named ancilla spans.

    ``box`` optionally attaches grid geometry so that propagation code can
    convert register integers to coordinates.
    """

    particles: tuple[Particle, ...]
    ancillas: dict[str, Span] = field(default_factory=dict)
    box: object | None = None

    def __post_init__(self):
        spans = list(self.all_spans())
        for i, a in enumerate(spans):
            for b in spans[i + 1:]:
                if a.overlaps(b):
                    raise LayoutError(f"overlapping spans {a} and {b}")

    def all_spans(self):
        for p in self.particles:
            yield from p.spans
        yield from self.ancillas.values()

    @property
    def num_qubits(self) -> int:
        return max((s.stop for s in self.all_spans()), default=0)

    def span(self, particle: int, dim: int) -> Span:
        return self.particles[particle].spans[dim]

    def check_within(self, total_qubits: int) -> None:
        if self.num_qubits > total_qubits:
            raise LayoutError(
                f"layout needs {self.num_qubits} qubits, state has {total_qubits}"
            )

    def with_ancilla(self, name: str, width: int = 1) -> "RegisterLayout":
        """New layout with an extra ancilla span on top of all current qubits."""
        anc = dict(self.ancillas)
        anc[name] = Span(self.num_qubits, width)
        return RegisterLayout(self.particles, anc, self.box)

    def with_box(self, box) -> "RegisterLayout":
        return RegisterLayout(self.particles, dict(self.ancillas), box)


def particle_layout(num_particles: int, dims: int, n_r: int, *,
                    box=None) -> RegisterLayout:
    """Standard packing: particle p, dimension q occupies qubits starting
    at (p*dims + q)*n_r; x is lowest."""
    particles = []
    for p in range(num_particles):
        spans = tuple(Span((p * dims + q) * n_r, n_r) for q in range(dims))
        particles.append(Particle(spans))
    return RegisterLayout(tuple(particles), {}, box)
