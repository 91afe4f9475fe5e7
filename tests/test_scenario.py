import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from gridwave.config_text import Section, canonical_text, parse_config
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


def test_config_parser_rejects_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config("box { dims = 1\n  n_r = 3\n  dims = 2 }")
    assert "line 3" in str(err.value) and "'dims'" in str(err.value)
    # the same key in two sections, or a repeated section, is fine
    parse_config("a { x = 1 } b { x = 2 } a { x = 3 }")


def test_config_parser_records_paths_and_lines():
    root = parse_config("seed = 1\nbox {\n    dims = 1\n    inner { x = 2 }\n}")
    box = root.child("box")
    assert (box.path, box.line, box.lines) == ("box", 2, {"dims": 3})
    inner = box.child("inner")
    assert (inner.path, inner.line, inner.lines) == ("box.inner", 4, {"x": 4})


def test_config_parser_keeps_hash_inside_quotes():
    root = parse_config('description = "Figure #3 run"   # a comment')
    assert root.get("description") == "Figure #3 run"


@pytest.mark.parametrize("value", ["a{b", "12", "true", "1e5", "nan", "x = y",
                                   "#3", "", "plain"])
def test_canonical_text_strings_reparse_as_strings(value):
    text = canonical_text(Section(entries={"s": value}))
    assert parse_config(text).get("s") == value


_NAMES = hs.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True)
_SCALARS = hs.one_of(hs.integers(), hs.floats(allow_nan=False), hs.booleans(),
                     hs.text(alphabet="ab1.-_ #{}=", max_size=8))
_VALUES = hs.one_of(_SCALARS, hs.lists(_SCALARS, min_size=2, max_size=4))
_ENTRIES = hs.dictionaries(_NAMES, _VALUES, max_size=4)
_TREES = hs.recursive(
    hs.builds(lambda e: Section(entries=e), _ENTRIES),
    lambda inner: hs.builds(lambda e, c: Section(entries=e, children=c), _ENTRIES,
                            hs.lists(hs.tuples(_NAMES, inner), max_size=3)),
    max_leaves=8)


def _same_value(a, b):
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
                and all(map(_same_value, a, b)))
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)):
        return type(a) is type(b) and a == b
    return a == b       # numbers by value: 2.0 is written "2" and reads back as 2


def _same_tree(a, b):
    return (a.entries.keys() == b.entries.keys()
            and all(_same_value(a.entries[k], b.entries[k]) for k in a.entries)
            and [n for n, _ in a.children] == [n for n, _ in b.children]
            and all(_same_tree(x, y) for (_, x), (_, y) in zip(a.children, b.children)))


@given(_TREES)
def test_canonical_text_round_trip(tree):
    text = canonical_text(tree)
    again = parse_config(text)
    assert _same_tree(tree, again)
    assert canonical_text(again) == text


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


def test_run_checks_the_ceiling_once(monkeypatch, tmp_path):
    from gridwave import scenario
    calls = []
    monkeypatch.setattr(scenario, "emulation_ceiling", lambda: calls.append(1) or 26)
    run_scenario(MINIMAL, tmp_path / "plain")
    assert len(calls) == 1
    run_scenario(MINIMAL + "extended = true\n", tmp_path / "extended",
                 allow_extended=True)
    assert len(calls) == 2


def test_extended_scenario_gated_at_run(tmp_path):
    big = MINIMAL.replace("n_r = 3", "n_r = 27") + "extended = true\n"
    # validation leaves an extended scenario's scale to the run
    validate_scenario(big, allow_extended=True)
    with pytest.raises(CeilingExceededError):
        run_scenario(big, tmp_path, allow_extended=True)


def test_bundled_scenarios_all_validate():
    bundle = bundled_scenarios()
    assert {"psi11_resolution_nr7", "aso_core", "helium_reduced",
            "gaussian_cap_1d", "state_edit", "pite_ground"} <= set(bundle)
    for name, text in bundle.items():
        validate_scenario(text, allow_extended=True)


@pytest.mark.parametrize("seed", [1, 7])
def test_benchmark_scenarios_validate(seed):
    from benchmark.workloads import make_core_patch, make_helium, make_scattering
    for make in (make_scattering, make_helium, make_core_patch):
        validate_scenario(make(seed)["text"])


# Each case is valid but for one field; (text, field, line) of the error.
BASE = """seed = 7
box { dims = 1  n_r = 4  length = 10.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
hamiltonian { nucleus { position = 0.0  charge = 1.0 } }
initial_state { gaussian { center = 0.0  alpha = 1.0 } }
plan { dt = 0.01  steps = 5 }
observables { density = 1 }
"""
TWO_ORBITALS = """initial_state {
    orbital { gaussian { center = 0.0  alpha = 1.0 } }
    orbital { gaussian { center = 1.0  alpha = 1.0 } }
}"""
BAD_FIELDS = {
    "unknown_key": (BASE.replace("density = 1", "densty = 300"),
                    "observables.densty", 7),
    "negative_cadence": (BASE.replace("density = 1", "bhattacharyya = -3"),
                         "observables.bhattacharyya", 7),
    "float_cadence": (BASE.replace("density = 1", "density = 2.5"),
                      "observables.density", 7),
    "ipe_every_zero": (BASE.replace("density = 1", "ipe { every = 0 }"),
                       "observables.ipe.every", 7),
    "nan_length": (BASE.replace("length = 10.0", "length = nan"), "box.length", 2),
    "float_n_r": (BASE.replace("n_r = 4", "n_r = 8.7"), "box.n_r", 2),
    "unknown_state": (BASE.replace("gaussian {", "gausian {"),
                      "initial_state.gausian", 5),
    # a global phase, which a superposition term's weight already sets
    "gaussian_gamma": (BASE.replace("alpha = 1.0 }", "alpha = 1.0  gamma = 0.5 }"),
                       "initial_state.gaussian.gamma", 5),
    "swap_one_particle": (BASE.replace("density = 1", "swap = 1"),
                          "observables.swap", 7),
    "enlarge_missing_particle": (BASE + "event { at_step = 2  enlarge_particle = 3 }",
                                 "event.enlarge_particle", 8),
    "two_orbitals_one_particle": (
        BASE.replace("initial_state { gaussian { center = 0.0  alpha = 1.0 } }",
                     TWO_ORBITALS), "initial_state.orbital", 7),
    "duplicate_event": (BASE + "event { at_step = 2  dt = 0.02 }\n"
                        "event { at_step = 2  drop_couplings = true }",
                        "event.at_step", 9),
    "zero_edit_energy": (BASE + "prep { edit { energy = 0.0 } }",
                         "prep.edit.energy", 8),
    # 20 steps every 4 give 5 probe samples, short of the fit's 8
    "ipe_fit_too_few_samples": (BASE.replace("steps = 5", "steps = 20").replace(
        "density = 1", "ipe { every = 4  fit = true }"), "observables.ipe.fit", 7),
}
# the dense layer builds at most MAX_DIM dimensions, and its projected
# potential one particle in 1D or 2D; a patch fits inside the grid; a damped
# pixel lies on it
PATCHED = ("steps = 5 }", "steps = 5  augmentation { patches = 2 } }")


def _on_grid(text, dims, n_r):
    zeros = "0.0 " * dims
    return (text.replace("dims = 1  n_r = 4", f"dims = {dims}  n_r = {n_r}")
            .replace("position = 0.0 ", "position = " + zeros)
            .replace("center = 0.0 ", "center = " + zeros))


BAD_FIELDS.update({
    "patch_two_particles": (
        BASE.replace("particle { mass = 1.0  charge = -1.0 }", "particle { } particle { }")
        .replace("initial_state { gaussian { center = 0.0  alpha = 1.0 } }",
                 "initial_state { orbital { gaussian { center = 0.0  alpha = 1.0 } } "
                 "orbital { gaussian { center = 1.0  alpha = 1.0 } } }")
        .replace(*PATCHED), "plan.augmentation.patches", 6),
    "patch_3d": (_on_grid(BASE.replace(*PATCHED), 3, 2), "plan.augmentation.patches", 6),
    "patch_dense_too_large": (_on_grid(BASE.replace(*PATCHED), 2, 7),
                              "plan.augmentation.patches", 6),
    "patch_repeated": (BASE.replace("steps = 5 }", "steps = 5  augmentation { patches = 2 2 } }"),
                       "plan.augmentation.patches", 6),
    "patch_wider_than_grid": (
        BASE.replace("n_r = 4", "n_r = 1").replace(
            "steps = 5 }", "steps = 5  augmentation { patches = 4 } }"),
        "plan.augmentation.patches", 6),
    "model_ground_3d": (_on_grid(BASE, 3, 2).replace(
        "gaussian { center = 0.0 0.0 0.0  alpha = 1.0 }", "model_ground { }"),
        "initial_state.model_ground", 5),
    "step_eigenstate_too_large": (_on_grid(BASE, 2, 7).replace(
        "gaussian { center = 0.0 0.0  alpha = 1.0 }",
        "orbital { step_eigenstate { gaussian { center = 0.0 0.0  alpha = 1.0 } } }"),
        "initial_state.orbital.step_eigenstate", 5),
    "track_ground_too_large": (
        _on_grid(BASE, 2, 7)
        + "prep { imaginary_time { m0 = 0.9  steps = 3  track_ground = true } }",
        "prep.imaginary_time.track_ground", 8),
    # exp(-V dt) rounds to 0, which no damping round can apply
    "damping_zeroes_plan_step": (BASE.replace(
        "charge = 1.0 } }",
        "charge = 1.0 }  attenuation { uniform { msb = 1  strength = 1e6 } } }"),
        "plan", 6),
    "damping_zeroes_event_step": (BASE.replace(
        "charge = 1.0 } }",
        "charge = 1.0 }  attenuation { pixel { at = 3  strength = 1.0 } } }")
        + "event { at_step = 2  dt = 1e6 }", "event", 8),
    # (n + |m|)! of the normalisation overflows a float past 170
    "hydrogen2d_normalisation_overflows": (_on_grid(BASE, 2, 4).replace(
        "gaussian { center = 0.0 0.0  alpha = 1.0 }", "hydrogen2d { n = 171  m = 0 }"),
        "initial_state.hydrogen2d", 5),
    # spherical harmonics are tabulated to l = 3, and 2n (n + l)! overflows a
    # float from n + l = 170 on
    "hydrogen3d_l_not_tabulated": (_on_grid(BASE, 3, 2).replace(
        "gaussian { center = 0.0 0.0 0.0  alpha = 1.0 }", "hydrogen3d { n = 5  l = 4  m = 0 }"),
        "initial_state.hydrogen3d", 5),
    "hydrogen3d_normalisation_overflows": (_on_grid(BASE, 3, 2).replace(
        "gaussian { center = 0.0 0.0 0.0  alpha = 1.0 }", "hydrogen3d { n = 170  l = 0  m = 0 }"),
        "initial_state.hydrogen3d", 5),
    # a state whose squared samples on the grid sum to 0, which the run
    # cannot normalise: a packet far outside the box, and one narrower than
    # a pixel between two pixel centres
    "gaussian_outside_box": (bundled_scenarios()["gaussian_cap_1d"].replace(
        "center = -4.0", "center = 40.0"), "initial_state.gaussian", 19),
    "gaussian_between_pixels": (bundled_scenarios()["scattering_reduced"].replace(
        "alpha = 0.4 0.4", "alpha = 0.4 1e6"), "initial_state.orbital.gaussian", 22),
    "damping_pixel_outside_grid": (BASE.replace(
        "charge = 1.0 } }",
        "charge = 1.0 }  attenuation { pixel { at = 99  strength = 1.0 } } }"),
        "hamiltonian.attenuation.pixel.at", 4),
    # identical orbitals, whose antisymmetrised product is 0
    "antisymmetrize_identical_orbitals": (bundled_scenarios()["scattering_reduced"].replace(
        "hydrogen2d { n = 0  m = 0 }",
        "gaussian { center = 0.0 5.0  momentum = 0.0 -1.5  alpha = 0.4 0.4 }"),
        "initial_state.antisymmetrize", 23),
    # a step eigenstate needs dt (dT + dV) < pi; here it is 3.9 rad
    "step_eigenstate_dt_past_the_arc": (BASE.replace(
        "gaussian { center = 0.0  alpha = 1.0 }",
        "orbital { step_eigenstate { gaussian { center = 0.0  alpha = 1.0 } } }")
        .replace("dt = 0.01", "dt = 0.25"), "plan.dt", 6),
    # a second strength for the same pixel would silently replace the first
    "damping_pixel_given_twice": (BASE.replace(
        "charge = 1.0 } }",
        "charge = 1.0 }  attenuation { pixel { at = 7  strength = 1.0 }\n"
        "    pixel { at = 7  strength = 5.0 } } }"),
        "hamiltonian.attenuation.pixel.at", 5),
})


@pytest.mark.parametrize("name", BAD_FIELDS)
def test_bad_field_rejected_at_validate(name):
    validate_scenario(BASE)
    text, field, line = BAD_FIELDS[name]
    with pytest.raises(ConfigError) as err:
        validate_scenario(text)
    assert err.value.field == field
    assert f"line {line}:" in str(err.value)


def test_ipe_fit_refusal_counts_samples():
    short = BASE.replace("steps = 5", "steps = 20").replace("density = 1",
                                                            "ipe { every = 4 }")
    # fit defaults to true, so the error names the ipe block's line
    with pytest.raises(ConfigError, match=r"line 7: .*8 probe samples.* give 5"
                                          r".*fit = false") as err:
        validate_scenario(short)
    assert err.value.field == "observables.ipe.fit"
    validate_scenario(short.replace("every = 4", "every = 4  fit = false"))
    validate_scenario(short.replace("steps = 20", "steps = 32"))


def test_enlargement_counts_toward_the_ceiling():
    grown = BASE + "event { at_step = 2  enlarge_particle = 0  enlarge_by = 30 }"
    assert load_scenario(grown).required_qubits() == 4 + 30
    with pytest.raises(CeilingExceededError):
        validate_scenario(grown)


def test_events_run_in_step_order(tmp_path):
    from gridwave.iofmt import read_statevector
    # listed out of order: the enlargement at step 2 still runs before step 3
    text = (BASE.replace("density = 1", "dump_state = true")
            + "event { at_step = 3  dt = 0.02 }\n"
            + "event { at_step = 2  enlarge_particle = 0 }\n")
    assert [e.at_step for e in load_scenario(text).events] == [2, 3]
    run_scenario(text, tmp_path)
    assert read_statevector(tmp_path / "final_state.gwsv")[1] == 5


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


def test_run_scenario_keeps_each_cadence(tmp_path):
    # the overlap every 3 steps and the probe every 2: over 24 steps each CSV
    # holds its own 8 and 12 rows, and the fit reads the probe's rows only
    from gridwave.iofmt import read_timeseries_csv
    from gridwave.observables import TimeSeries, fit_energy_from_signal
    text = MINIMAL.replace("steps = 5", "steps = 24").replace(
        "autocorrelation = 1", "autocorrelation = 3  ipe { every = 2 }")
    run_scenario(text, tmp_path)
    auto = read_timeseries_csv(tmp_path / "autocorrelation.csv")
    probe = read_timeseries_csv(tmp_path / "ipe.csv")
    assert (len(auto), len(probe)) == (8, 12)
    assert np.allclose(auto.times, 0.03 * np.arange(1, 9))
    assert np.allclose(probe.times, 0.02 * np.arange(1, 13))
    # where the cadences meet, both read the same overlap
    assert np.array_equal((1 + auto.values[1::2].real) / 2, probe.values[2::3])
    fit = float((tmp_path / "ipe_fit.csv").read_text().splitlines()[1].split(",")[0])
    assert fit == fit_energy_from_signal(TimeSeries(probe.times, probe.values)).energy


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


def test_run_probe_series_is_phase_probe_series(tmp_path):
    # the run's clock counts steps, so its probe series and energy fit are the
    # library's phase_probe_series and fit, times included, bit for bit
    from gridwave.iofmt import read_timeseries_csv
    from gridwave.observables import fit_energy_from_signal, phase_probe_series
    from gridwave.propagator import StepPlan
    text = """
box { dims = 2  n_r = 5  length = 20.0 }
hamiltonian { nucleus { position = 0.0 0.0 } }
initial_state { hydrogen2d { n = 1  m = 1 } }
plan { dt = 0.01  steps = 3000 }
observables { ipe { every = 10 } }
"""
    run_scenario(text, tmp_path)
    scen = load_scenario(text)
    series = phase_probe_series(build_initial_state(scen), StepPlan(0.01), scen.spec,
                                3000, 10)
    written = read_timeseries_csv(tmp_path / "ipe.csv")
    assert written.times.tolist() == series.times.tolist()
    assert written.values.tolist() == series.values.tolist()
    est = fit_energy_from_signal(series)
    assert (tmp_path / "ipe_fit.csv").read_text().splitlines()[1] == (
        f"{est.energy:.17g},{est.uncertainty:.17g},{est.method}")


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


def test_reference_readers_solve_only_what_they_read(tmp_path, monkeypatch):
    # model_ground, track_ground and the patch derivation take one eigenpair
    # and the window rows: no run forms the full exact step or the full
    # eigendecomposition
    import scipy.linalg
    from gridwave import dense

    def refuse(*args, **kwargs):
        raise AssertionError("full dense solve on a run's path")

    full_eigh = scipy.linalg.eigh

    def one_pair(a, *args, **kwargs):
        assert kwargs.get("subset_by_index") == [0, 0]
        return full_eigh(a, *args, **kwargs)

    monkeypatch.setattr(dense, "_ideal_step", refuse)
    monkeypatch.setattr(dense, "hamiltonian_eig", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", one_pair)
    run_scenario("""
box { dims = 2  n_r = 3  length = 8.0 }
hamiltonian { nucleus { position = 0.0 0.0 } }
initial_state { model_ground { } }
plan { dt = 0.01  steps = 4  augmentation { patches = 2 4 } }
observables { autocorrelation = 2 }
""", tmp_path / "patched")
    run_scenario("""
box { dims = 1  n_r = 4  length = 10.0 }
hamiltonian { nucleus { position = 0.0 } }
initial_state { gaussian { center = 0.0  alpha = 0.5 } }
plan { dt = 0.001  steps = 0 }
prep { imaginary_time { m0 = 0.9  steps = 10  record = 10  track_ground = true } }
""", tmp_path / "tracked")
    assert (tmp_path / "tracked" / "prep_log.csv").exists()


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


# two orbitals of one particle kind, 1D n_r = 3: dt (dT + dV) is 0.067 rad
TWO_STEP_ORBITALS = """
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


def test_step_eigenstate_orbitals_share_one_eigensolve(monkeypatch):
    from gridwave import dense
    calls = {"cycle": 0, "eigh": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dense, "split_cycle_matrix",
                        counted("cycle", dense.split_cycle_matrix))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    state = build_initial_state(load_scenario(TWO_STEP_ORBITALS))
    assert calls == {"cycle": 1, "eigh": 1}
    from gridwave.statevector import inner_product, swap_particle_registers
    swapped = swap_particle_registers(state, 0, 1)
    assert inner_product(state, swapped).real == pytest.approx(-1.0, abs=1e-9)


def _helium_reduced(offset):
    return bundled_scenarios()["helium_reduced"].replace(
        "origin_offset = 0.5", f"origin_offset = {offset}")


@pytest.mark.parametrize("text", [_helium_reduced(0.5), _helium_reduced(0.426873),
                                  TWO_STEP_ORBITALS],
                         ids=["helium_0.5", "helium_0.426873", "1d_two_orbitals"])
def test_step_eigenstate_picks_match_the_schur_reference(text):
    from gridwave.dense import split_cycle_matrix
    from gridwave.hamiltonian import HamiltonianSpec
    from gridwave.scenario import _step_eigenvector
    from gridwave.states import discretize
    from .oracles import step_eigenbasis_reference
    scen = load_scenario(text)
    kinds = {}
    targets = [o.target for o in scen.initial.orbitals]
    picks = [_step_eigenvector(scen, p, t, kinds) for p, t in enumerate(targets)]
    # both orbitals are of one particle kind
    single = HamiltonianSpec(scen.spec.particles[:1], scen.spec.nuclei)
    reference = step_eigenbasis_reference(
        split_cycle_matrix(scen.box, single, scen.plan_dt),
        [discretize(t, scen.box)[0] for t in targets])
    assert np.abs(np.array(picks) - np.array(reference)).max() <= 1e-12


def test_step_eigenbasis_diagonalises_the_cycle():
    # 1024 dimensions: a 2D n_r = 5 grid, dt (dT + dV) = 1.37 rad
    from gridwave.dense import split_cycle_matrix
    from gridwave.grid import SimulationBox
    from gridwave.hamiltonian import HamiltonianSpec, Nucleus, ParticleSpec
    from gridwave.scenario import _step_eigenbasis
    box = SimulationBox(2, 5, 20.0, 0.5)
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),), (Nucleus((0.0, 0.0), 1.0),))
    q, phases = _step_eigenbasis(box, spec, spec.particles[0], 0.05)
    u = split_cycle_matrix(box, spec, 0.05)
    assert np.all(np.diff(phases) >= 0)
    assert np.linalg.norm(u @ q - q * np.exp(1j * phases), 2) <= 1e-13


def test_step_eigenstate_solve_refuses_an_arc_of_pi():
    from types import SimpleNamespace
    from gridwave.scenario import _step_eigenvector
    scen = load_scenario(TWO_STEP_ORBITALS)
    # dt (dT + dV) = 6.7 rad; the scenario's own dt is far below the bound
    wide = SimpleNamespace(spec=scen.spec, box=scen.box, plan_dt=1.0)
    with pytest.raises(ConfigError, match="pi") as err:
        _step_eigenvector(wide, 0, scen.initial.orbitals[0].target, {})
    assert err.value.field == "plan.dt"


def test_step_eigenstate_set_up_leaves_scipy_linalg_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path
    code = ("import sys\n"
            "from gridwave.scenario import build_initial_state, bundled_scenarios, "
            "load_scenario\n"
            "build_initial_state(load_scenario(bundled_scenarios()['helium_reduced']))\n"
            "print('scipy.linalg' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["scattering_reduced", "helium_reduced"])
def test_each_orbital_is_sampled_once(monkeypatch, name):
    # load samples every analytic orbital and step-eigenstate target; the
    # build takes those samples as they are
    from gridwave import states
    calls = []
    inner = states.grid_eval

    def counted(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(states, "grid_eval", counted)
    scen = load_scenario(bundled_scenarios()[name])
    build_initial_state(scen)
    assert len(calls) == len(scen.initial.orbitals) == 2


@pytest.mark.parametrize("offset", [0.5, 0.426873])
def test_step_eigenstate_pick_ignores_rounding_in_the_cycle(monkeypatch, offset):
    # helium's 2p eigenphases agree to 1e-11, so rounding in U_SO rotates the
    # eigenvectors inside that eigenspace; the picked orbitals must not move
    from gridwave import dense
    scen = load_scenario(_helium_reduced(offset))
    clean = build_initial_state(scen).amps
    inner = dense.split_cycle_matrix
    rng = np.random.default_rng(11)

    def noisy(*args):
        u = inner(*args)
        return u + 1e-15 * (rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape))

    monkeypatch.setattr(dense, "split_cycle_matrix", noisy)
    assert np.abs(build_initial_state(scen).amps - clean).max() < 1e-12


def test_step_eigenstate_picks_are_kept_per_particle_kind():
    # two nearly equal masses are two particle kinds: each orbital is the one
    # its particle picks when alone
    def state(masses):
        particles = "".join(f"particle {{ mass = {m}  charge = -1.0 }}" for m in masses)
        orbitals = "orbital { step_eigenstate { gaussian { center = 0.0  alpha = 1.0 } } }"
        return build_initial_state(load_scenario(f"""
seed = 5
box {{ dims = 1  n_r = 4  length = 8.0 }}
particles {{ {particles} }}
hamiltonian {{ nucleus {{ position = 0.0  charge = 1.0 }}  couplings = none }}
initial_state {{ {orbitals * len(masses)} }}
plan {{ dt = 0.01  steps = 0 }}
""")).amps
    alone = np.kron(state([1.001]), state([1.0]))
    assert abs(np.vdot(alone, state([1.0, 1.001]))) == pytest.approx(1.0, abs=1e-12)


def test_step_eigenstate_with_nothing_left_to_pick_is_refused():
    # a 2-pixel grid has two step eigenstates; a third orbital of the same
    # kind has no part of its target left outside the first two
    from gridwave.errors import DegenerateStateError
    orbital = "orbital { step_eigenstate { gaussian { center = 0.0  alpha = 1.0 } } }"
    particle = "particle { mass = 1.0  charge = -1.0 }"
    with pytest.raises(DegenerateStateError):
        build_initial_state(load_scenario(f"""
seed = 5
box {{ dims = 1  n_r = 1  length = 8.0 }}
particles {{ {particle * 3} }}
hamiltonian {{ nucleus {{ position = 0.3  charge = 1.0 }}  couplings = none }}
initial_state {{ {orbital * 3} }}
plan {{ dt = 0.01  steps = 0 }}
"""))


@pytest.mark.parametrize("bad", ["nan", "inf", "-0.01", "0.0"])
def test_bad_time_step_rejected_at_validate(bad):
    with pytest.raises(ConfigError) as err:
        validate_scenario(MINIMAL.replace("dt = 0.01", f"dt = {bad}"))
    assert "plan.dt" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate_scenario(MINIMAL + f"event {{ at_step = 2  dt = {bad} }}")
    assert "event.dt" in str(err.value)
    validate_scenario(MINIMAL + "event { at_step = 2  dt = 0.02 }")


ENLARGED = """
seed = 3
box { dims = 1  n_r = 4  length = 10.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
initial_state { gaussian { center = 0.0  alpha = 0.5 } }
plan { dt = 0.01  steps = 4 }
event { at_step = 2  enlarge_particle = 0 }
observables { density = 2  dump_state = true }
"""


def test_enlarge_event_outputs_use_the_enlarged_state(tmp_path):
    from gridwave.iofmt import read_density_grid, read_statevector
    run_scenario(ENLARGED, tmp_path)
    # step 2's callbacks run before its event, step 4's after it
    assert read_density_grid(tmp_path / "density_000002.gwdg")[0].size == 16
    assert read_density_grid(tmp_path / "density_000004.gwdg")[0].size == 32
    amps, num_qubits = read_statevector(tmp_path / "final_state.gwsv")
    assert (amps.size, num_qubits) == (32, 5)


ENLARGED_PAIR = """
seed = 3
box { dims = 1  n_r = 3  length = 8.0 }
particles {
    particle { mass = 1.0  charge = -1.0 }
    particle { mass = 1.0  charge = -1.0 }
}
hamiltonian { nucleus { position = 0.0  charge = 1.0 }  couplings = none }
initial_state {
    orbital { gaussian { center = -1.0  alpha = 1.0 } }
    orbital { gaussian { center = 1.0  alpha = 1.0 } }
}
plan { dt = 0.01  steps = 4 }
event { at_step = 2  enlarge_particle = 0 }
observables { density = 2 }
"""


@pytest.mark.parametrize("text", [
    ENLARGED.replace("density = 2", "bhattacharyya = 1"),
    ENLARGED.replace("density = 2", "autocorrelation = 1"),
    ENLARGED.replace("density = 2", "ipe { every = 1 }"),
    ENLARGED_PAIR.replace("density = 2", "swap = 1"),
    ENLARGED_PAIR.replace("couplings = none", ""),
    # couplings dropped only after the enlargement
    ENLARGED_PAIR.replace("couplings = none", "")
    + "event { at_step = 3  drop_couplings = true }",
], ids=["bhattacharyya", "autocorrelation", "ipe", "swap", "coupled",
        "coupled_until_later"])
def test_enlarge_event_conflicts_rejected_at_validate(text):
    with pytest.raises(ConfigError) as err:
        validate_scenario(text)
    assert "event.enlarge_particle" in str(err.value)


def test_enlarge_event_allowed_combinations_run(tmp_path):
    coupled_dropped = ENLARGED_PAIR.replace("couplings = none", "").replace(
        "enlarge_particle = 0", "enlarge_particle = 0  drop_couplings = true")
    for name, text in (("single", ENLARGED), ("uncoupled", ENLARGED_PAIR),
                       ("dropped", coupled_dropped)):
        validate_scenario(text)
        run_scenario(text, tmp_path / name)
        assert (tmp_path / name / "density_000004.gwdg").exists()


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
