import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwave.errors import LayoutError
from gridwave.registers import (Particle, RegisterLayout, Span, get_reg_val,
                                particle_layout, pattern_of_value, span_values)


def test_get_reg_val_examples():
    # bit-sum then sign branch
    assert get_reg_val(0b011, 0, 3) == 3
    assert get_reg_val(0b111, 0, 3) == -1    # 3 - 4
    assert get_reg_val(0b000, 0, 3) == 0


def test_get_reg_val_respects_start():
    idx = 0b111_000
    assert get_reg_val(idx, 3, 3) == -1
    assert get_reg_val(idx, 0, 3) == 0


@given(st.integers(min_value=1, max_value=8), st.data())
def test_get_reg_val_roundtrip(width, data):
    half = 1 << (width - 1)
    value = data.draw(st.integers(min_value=-half, max_value=half - 1))
    pattern = pattern_of_value(value, width)
    assert get_reg_val(pattern << 2, 2, width) == value


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
    back = grown.without_ancilla("cap")
    assert back.num_qubits == 24
