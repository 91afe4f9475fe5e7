from hypothesis import given, settings
from hypothesis import strategies as st

from gridwave.resources import (GEOMETRIES, PRESETS, BoxAdvisory, MoleculeSpec,
                                advise_box, audit, gate_depth_estimate,
                                qubits_required, reference_density,
                                surface_density)


def test_published_qubit_audits():
    n_r, total = qubits_required(PRESETS["NH3"])
    assert (n_r, total) == (10, 420)
    n_r, total = qubits_required(PRESETS["C2F6"])
    assert (n_r, total) == (10, 2220)


def test_single_hydrogen_audit():
    n_r, total = qubits_required(PRESETS["H"])
    assert (n_r, total) == (7, 21)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=30))
def test_qubits_monotone(particles, z_max):
    base = qubits_required(MoleculeSpec("a", particles, z_max, 6.0))
    more_p = qubits_required(MoleculeSpec("b", particles + 10, z_max, 6.0))
    more_z = qubits_required(MoleculeSpec("c", particles, z_max + 3, 6.0))
    assert more_p[0] >= base[0] and more_p[1] > base[1]
    assert more_z[0] >= base[0]


def test_depth_per_cycle_anchor():
    d = gate_depth_estimate(10, 74)
    assert d.sub_steps == 260
    assert d.per_cycle == 260 * 10 * 10 ** 2
    assert d.conservative_order == 6


def test_depth_event_anchors():
    fast = gate_depth_estimate(10, 74, 10 ** 3)
    slow = gate_depth_estimate(10, 74, 10 ** 5)
    assert fast.order == 8            # hundreds of millions
    assert slow.conservative_order == 11
    assert slow.total == 100 * fast.total


def test_depth_quadratic_in_n_r():
    base = gate_depth_estimate(10, 20, 100)
    double = gate_depth_estimate(20, 20, 100)
    assert double.total == 4 * base.total


def test_audit_row_shape():
    row = audit(PRESETS["C2F6"])
    assert row["qubits"] == 2220
    assert row["depth_fast"] == 260 * 10 * 100 * 10 ** 3


def test_box_advisory_is_heuristic_and_monotone():
    atoms = GEOMETRIES["NH3"]
    adv = advise_box(atoms)
    assert isinstance(adv, BoxAdvisory)
    assert adv.length > 0
    looser = advise_box(atoms, threshold=adv.threshold * 100)
    assert looser.length < adv.length
    # surface density falls with box size
    assert surface_density(atoms, adv.length * 2) < surface_density(atoms, adv.length)


def test_reference_density_positive():
    assert reference_density() > 0
