import numpy as np
import pytest

from gridwave.config_text import canonical_text, parse_config
from gridwave.errors import CeilingExceededError, ConfigError
from gridwave.scenario import (build_initial_state, bundled_scenarios,
                               load_scenario, resolve_scenario, run_scenario,
                               validate_scenario)

MINIMAL = """
seed = 7
box { dims = 1  n_r = 3  length = 8.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
hamiltonian { nucleus { position = 0.0  charge = 1.0 } }
initial_state { gaussian { center = 0.0  alpha = 1.0 } }
plan { dt = 0.01  steps = 5 }
observables { autocorrelation = 1 }
"""


def test_config_parser_nesting():
    root = parse_config(MINIMAL)
    assert root.get("seed") == 7
    assert root.child("box").get("n_r") == 3
    inline = parse_config('a { b { x = 1 } c = 2.5 } d = "two words"')
    assert inline.child("a").child("b").get("x") == 1
    assert inline.child("a").get("c") == 2.5
    assert inline.get("d") == "two words"


def test_config_parser_errors():
    with pytest.raises(ConfigError):
        parse_config("a = ")
    with pytest.raises(ConfigError):
        parse_config("a { b = 1")
    with pytest.raises(ConfigError):
        parse_config("}")


def test_canonical_text_stability():
    a = canonical_text(parse_config(MINIMAL), drop=("seed",))
    b = canonical_text(parse_config(MINIMAL.replace("seed = 7", "seed = 9")),
                       drop=("seed",))
    assert a == b


def test_load_scenario_fields():
    scen = load_scenario(MINIMAL)
    assert scen.box.n_r == 3
    assert scen.plan_steps == 5
    assert scen.num_particles == 1
    assert scen.required_qubits() == 3


def test_validation_field_diagnostics():
    broken = MINIMAL.replace("plan { dt = 0.01  steps = 5 }",
                             "plan { steps = 5 }")
    with pytest.raises(ConfigError) as err:
        load_scenario(broken)
    assert "plan.dt" in str(err.value)
    with pytest.raises(ConfigError) as err:
        load_scenario(MINIMAL.replace("initial_state { gaussian { center = 0.0  alpha = 1.0 } }", ""))
    assert "initial_state" in str(err.value)


def test_ceiling_enforced(monkeypatch):
    big = MINIMAL.replace("n_r = 3", "n_r = 27")
    with pytest.raises(CeilingExceededError):
        validate_scenario(big)
    monkeypatch.setenv("GRIDWAVE_MAX_QUBITS", "30")
    validate_scenario(big)


def test_extended_flag_gates():
    ext = MINIMAL + "\nextended = true\n"
    with pytest.raises(ConfigError):
        validate_scenario(ext)
    validate_scenario(ext, allow_extended=True)


def test_bundled_scenarios_all_validate():
    bundle = bundled_scenarios()
    assert {"psi11_resolution_nr7", "aso_core", "helium_reduced",
            "gaussian_cap_1d", "state_edit", "pite_ground"} <= set(bundle)
    for name, text in bundle.items():
        validate_scenario(text, allow_extended=True)


def test_initial_state_product_and_antisym(rng):
    text = """
seed = 1
box { dims = 1  n_r = 3  length = 8.0 }
particles {
    particle { mass = 1.0  charge = -1.0 }
    particle { mass = 1.0  charge = -1.0 }
}
hamiltonian { nucleus { position = 0.0  charge = 1.0 } }
initial_state {
    orbital { gaussian { center = -1.0  alpha = 1.0 } }
    orbital { gaussian { center = 1.5  momentum = -0.5  alpha = 1.0 } }
    antisymmetrize = true
}
plan { dt = 0.01  steps = 0 }
"""
    scen = load_scenario(text)
    state = build_initial_state(scen)
    from gridwave.statevector import inner_product, swap_particle_registers
    swapped = swap_particle_registers(state, 0, 1)
    assert inner_product(state, swapped).real == pytest.approx(-1.0, abs=1e-9)


def test_run_scenario_zero_steps_writes_density(tmp_path):
    text = MINIMAL.replace("steps = 5", "steps = 0")
    result = run_scenario(text, tmp_path / "out")
    names = set(result["outputs"])
    assert "density_000000.gwdg" in names
    assert "manifest.json" in names


def test_run_scenario_deterministic_and_seed_independent(tmp_path):
    r1 = run_scenario(MINIMAL, tmp_path / "a", seed=1)
    r2 = run_scenario(MINIMAL, tmp_path / "b", seed=1)
    csv1 = (tmp_path / "a" / "autocorrelation.csv").read_bytes()
    csv2 = (tmp_path / "b" / "autocorrelation.csv").read_bytes()
    assert csv1 == csv2
    # exact-probability outputs do not depend on the seed at all
    run_scenario(MINIMAL, tmp_path / "c", seed=99)
    from gridwave.iofmt import diff_manifests
    assert diff_manifests(tmp_path / "a" / "manifest.json",
                          tmp_path / "c" / "manifest.json") == []


def test_resolve_scenario_names(tmp_path):
    assert "box" in resolve_scenario("gaussian_cap_1d")
    path = tmp_path / "custom.cfg"
    path.write_text(MINIMAL)
    assert resolve_scenario(str(path)) == MINIMAL
    with pytest.raises(ConfigError):
        resolve_scenario("no_such_scenario")


def test_run_patch_comparison_variants(tmp_path):
    text = """
seed = 2
box { dims = 2  n_r = 3  length = 8.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
hamiltonian { nucleus { position = 0.0 0.0  charge = 1.0 } }
initial_state { model_ground { } }
plan { dt = 0.01  steps = 6  augmentation { patches = 0 2 } }
observables { autocorrelation = 2 }
"""
    result = run_scenario(text, tmp_path / "out")
    names = set(result["outputs"])
    assert {"autocorrelation_patch0.csv", "autocorrelation_patch2.csv"} <= names


def test_run_imaginary_time_prep_logs_both_clocks(tmp_path):
    text = """
seed = 2
box { dims = 1  n_r = 4  length = 10.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
hamiltonian { nucleus { position = 0.0  charge = 1.0 } }
initial_state { gaussian { center = 0.0  alpha = 0.5 } }
plan { dt = 0.001  steps = 0 }
prep { imaginary_time { m0 = 0.9  steps = 30  record = 10  track_ground = true } }
"""
    result = run_scenario(text, tmp_path / "out")
    assert "prep_log.csv" in result["outputs"]
    lines = (tmp_path / "out" / "prep_log.csv").read_text().splitlines()
    assert lines[0] == "step,dt,dtau,success_probability,ground_overlap"
    assert len(lines) == 4
    last = [float(x) for x in lines[-1].split(",")]
    assert 0.0 < last[4] <= 1.0


def test_run_prep_edit_logs(tmp_path):
    text = """
seed = 3
box { dims = 1  n_r = 4  length = 10.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
hamiltonian { }
initial_state {
    superposition {
        term { weight = 0.7071067811865476  gaussian { center = -1.0  alpha = 1.0 } }
        term { weight = 0.7071067811865476  gaussian { center = 1.0  alpha = 1.0 } }
    }
}
plan { dt = 0.05  steps = 4 }
prep { edit { energy = -1.0 } }
observables { autocorrelation = 1 }
"""
    result = run_scenario(text, tmp_path / "out")
    assert "prep_log.csv" in result["outputs"]
    log = (tmp_path / "out" / "prep_log.csv").read_text().splitlines()
    assert log[0] == "step,success_probability"


def test_prep_with_attenuation_rejected_at_validate():
    damped = """
seed = 4
box { dims = 1  n_r = 4  length = 10.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
hamiltonian { attenuation { uniform { msb = 2  strength = 1.0 } } }
initial_state { gaussian { center = 0.0  alpha = 0.5 } }
plan { dt = 0.01  steps = 4  attenuation = true }
"""
    for prep, field in (("prep { edit { energy = -1.0 } }", "prep.edit"),
                        ("prep { imaginary_time { m0 = 0.9  steps = 3 } }",
                         "prep.imaginary_time")):
        with pytest.raises(ConfigError) as err:
            validate_scenario(damped + prep)
        assert field in str(err.value)
        # without damping the same preparation validates
        validate_scenario(damped.replace("attenuation = true", "attenuation = false")
                          + prep)


def test_prep_edit_with_imaginary_time_rejected_at_validate():
    base = """
seed = 4
box { dims = 1  n_r = 4  length = 10.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
initial_state { gaussian { center = 0.0  alpha = 0.5 } }
plan { dt = 0.01  steps = 4 }
"""
    edit = "edit { energy = -1.0 }"
    imaginary = "imaginary_time { m0 = 0.9  steps = 3 }"
    with pytest.raises(ConfigError) as err:
        validate_scenario(base + f"prep {{ {edit} {imaginary} }}")
    assert "prep.imaginary_time" in str(err.value)
    # each preparation on its own validates
    validate_scenario(base + f"prep {{ {edit} }}")
    validate_scenario(base + f"prep {{ {imaginary} }}")


def test_step_eigenstate_orbitals_share_one_schur_form(monkeypatch):
    from gridwave import dense
    calls = []
    inner = dense.build_dense_step_matrices

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(dense, "build_dense_step_matrices", counted)
    text = """
seed = 5
box { dims = 1  n_r = 3  length = 8.0 }
particles {
    particle { mass = 1.0  charge = -1.0 }
    particle { mass = 1.0  charge = -1.0 }
}
hamiltonian { nucleus { position = 0.0  charge = 1.0 } }
initial_state {
    orbital { step_eigenstate { gaussian { center = -1.0  alpha = 1.0 } } }
    orbital { step_eigenstate { gaussian { center = 1.0  alpha = 1.0 } } }
    antisymmetrize = true
}
plan { dt = 0.01  steps = 0 }
"""
    state = build_initial_state(load_scenario(text))
    assert len(calls) == 1
    from gridwave.statevector import inner_product, swap_particle_registers
    swapped = swap_particle_registers(state, 0, 1)
    assert inner_product(state, swapped).real == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("bad", ["nan", "inf", "-0.01"])
def test_bad_time_step_rejected_at_validate(bad):
    with pytest.raises(ConfigError) as err:
        validate_scenario(MINIMAL.replace("dt = 0.01", f"dt = {bad}"))
    assert "plan.dt" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate_scenario(MINIMAL + f"event {{ at_step = 2  dt = {bad} }}")
    assert "event.dt" in str(err.value)
    validate_scenario(MINIMAL + "event { at_step = 2  dt = 0.02 }")


def test_enlarge_event_outputs_use_the_enlarged_state(tmp_path):
    from gridwave.iofmt import read_density_grid, read_statevector
    text = """
seed = 3
box { dims = 1  n_r = 4  length = 10.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
initial_state { gaussian { center = 0.0  alpha = 0.5 } }
plan { dt = 0.01  steps = 4 }
event { at_step = 2  enlarge_particle = 0 }
observables { density = 2  dump_state = true }
"""
    run_scenario(text, tmp_path)
    # step 2's callbacks run before its event, step 4's after it
    assert read_density_grid(tmp_path / "density_000002.gwdg")[0].size == 16
    assert read_density_grid(tmp_path / "density_000004.gwdg")[0].size == 32
    amps, num_qubits = read_statevector(tmp_path / "final_state.gwsv")
    assert (amps.size, num_qubits) == (32, 5)


DAMPED = """
seed = 4
box { dims = 1  n_r = 5  length = 10.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
hamiltonian { attenuation { uniform { msb = 2  strength = 1.0 } } }
initial_state { gaussian { center = 2.0  momentum = 3.0  alpha = 0.5 } }
plan { dt = 0.02  steps = 6  attenuation = true }
observables { dump_state = true }
"""


def test_damped_initial_state_has_no_ancilla():
    scen = load_scenario(DAMPED)
    state = build_initial_state(scen)
    assert state.num_qubits == scen.base_qubits == 5
    assert state.layout.ancillas == {}
    # a device still needs the ancilla the damping round rotates
    assert scen.required_qubits() == 6


def test_damped_final_state_restarts_same_scenario(tmp_path):
    from gridwave.iofmt import read_statevector, read_timeseries_csv
    run_scenario(DAMPED, tmp_path / "first")
    dump = tmp_path / "first" / "final_state.gwsv"
    assert read_statevector(dump)[1] == 5
    restart = DAMPED.replace(
        "initial_state { gaussian { center = 2.0  momentum = 3.0  alpha = 0.5 } }",
        f'initial_state {{ file = "{dump}" }}')
    run_scenario(restart, tmp_path / "second")
    # six more steps from the dump continue the twelve-step run exactly
    run_scenario(DAMPED.replace("steps = 6", "steps = 12"), tmp_path / "whole")
    second, _ = read_statevector(tmp_path / "second" / "final_state.gwsv")
    whole, _ = read_statevector(tmp_path / "whole" / "final_state.gwsv")
    assert np.abs(second - whole).max() <= 1e-15
    escape = read_timeseries_csv(tmp_path / "second" / "escape.csv").values
    assert len(escape) == 6 and escape[-1] > 0.0
