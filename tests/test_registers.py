import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwave.errors import LayoutError
from gridwave.registers import (Particle, RegisterLayout, Span, particle_layout,
                                pattern_of_value, span_values)
from .oracles import signed_value


def test_get_reg_val_examples():
    # two's complement: the top bit weighs -2^(w-1), in the oracle's decoding
    # and in span_values' table alike
    for pattern, value in ((0b011, 3), (0b111, -1), (0b000, 0)):    # 0b111: 3 - 4
        assert signed_value(pattern, 3) == value
        assert span_values(3)[pattern] == value


def test_get_reg_val_respects_start():
    idx = 0b111_000
    assert signed_value((idx >> 3) & 0b111, 3) == -1
    assert signed_value(idx & 0b111, 3) == 0
    assert (pattern_of_value(-1, 3) << 3) | pattern_of_value(0, 3) == idx


@given(st.integers(min_value=1, max_value=8), st.data())
def test_get_reg_val_roundtrip(width, data):
    half = 1 << (width - 1)
    value = data.draw(st.integers(min_value=-half, max_value=half - 1))
    idx = pattern_of_value(value, width) << 2
    assert signed_value((idx >> 2) & ((1 << width) - 1), width) == value


@given(st.integers(min_value=1, max_value=10))
def test_span_values_cover_range(width):
    vals = span_values(width)
    half = 1 << (width - 1)
    assert sorted(vals) == list(range(-half, half))


def test_span_validation():
    with pytest.raises(LayoutError):
        Span(-1, 3)
    with pytest.raises(LayoutError):
        Span(0, 0)
    assert Span(0, 3).overlaps(Span(2, 2))
    assert not Span(0, 3).overlaps(Span(3, 2))


def test_particle_requires_equal_widths():
    with pytest.raises(LayoutError):
        Particle((Span(0, 3), Span(3, 4)))


def test_layout_rejects_overlap():
    with pytest.raises(LayoutError):
        RegisterLayout((Particle((Span(0, 3), Span(2, 3))),))


def test_particle_layout_packing():
    layout = particle_layout(2, 3, 4)
    assert layout.num_qubits == 24
    assert layout.span(0, 0) == Span(0, 4)
    assert layout.span(0, 2) == Span(8, 4)
    assert layout.span(1, 0) == Span(12, 4)
    grown = layout.with_ancilla("cap")
    assert grown.ancillas["cap"] == Span(24, 1)
    assert grown.num_qubits == 25
