import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridwave import propagator
from gridwave.cli import _set_threads, build_parser, main
from gridwave.scenario import bundled_scenarios, load_scenario, validate_scenario

ROOT = Path(__file__).resolve().parents[1]

TINY = """
seed = 5
box { dims = 1  n_r = 3  length = 8.0 }
particles { particle { mass = 1.0  charge = -1.0 } }
hamiltonian { nucleus { position = 0.0  charge = 1.0 } }
initial_state { gaussian { center = 0.0  alpha = 1.0 } }
plan { dt = 0.01  steps = 3 }
observables { autocorrelation = 1 }
"""


def test_parser_covers_verbs():
    p = build_parser()
    args = p.parse_args(["run", "--config", "x.cfg", "--seed", "3",
                         "--threads", "2", "--repeat", "2"])
    assert args.command == "run" and args.seed == 3 and args.repeat == 2
    assert p.parse_args(["list"]).command == "list"
    assert p.parse_args(["diff", "a", "b"]).command == "diff"
    est = p.parse_args(["estimate", "--molecule", "NH3", "--cycles", "1000"])
    assert est.molecule == "NH3"


def test_threads_flag_sizes_numpys_blas_pool(monkeypatch):
    # numpy's OpenBLAS is loaded before the flag is read, so the variables
    # alone would leave its pool as it was
    pool = propagator._openblas_threads()
    if pool is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "")     # restored after the test
    before = pool[0]()
    try:
        for n in (1, 3):
            _set_threads(n)
            assert pool[0]() == n
            assert os.environ["OPENBLAS_NUM_THREADS"] == str(n)
    finally:
        pool[1](before)


@pytest.mark.parametrize("count", ["0", "-2", "two"])
def test_threads_below_one_is_refused(count, capsys):
    # the count sizes the step's thread pool, so it never reaches the pools
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", "gaussian_cap_1d", "--threads", count])
    assert exit_.value.code == 2
    assert "argument --threads: must be a whole number of at least 1" \
        in capsys.readouterr().err


def test_helium_outputs_are_byte_identical_across_thread_counts(tmp_path):
    # helium's step (eight slabs) and its dense step-eigenstate set-up (512
    # identity columns) both split over the threads that --threads sizes
    cfg = tmp_path / "helium.cfg"
    cfg.write_text(bundled_scenarios()["helium_reduced"].replace("steps = 500",
                                                                 "steps = 60"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    csvs = []
    for threads in ("1", "3"):
        out = tmp_path / f"threads_{threads}"
        proc = subprocess.run([sys.executable, "-m", "gridwave.cli", "run", "--config",
                               str(cfg), "--threads", threads, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        csvs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert sorted(csvs[0]) == ["bhattacharyya.csv", "swap.csv"]
    assert csvs[0] == csvs[1]


def test_cli_list_and_validate(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "aso_core" in out and "extended" in out
    assert main(["validate", "--config", "gaussian_cap_1d"]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_validate_failure(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("box { dims = 1 }")
    assert main(["validate", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_run_and_diff(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    assert main(["diff", str(tmp_path / "r1"), str(tmp_path / "r2")]) == 0
    assert capsys.readouterr().out == ""
    # different config -> non-empty diff, exit 1
    cfg2 = tmp_path / "tiny2.cfg"
    cfg2.write_text(TINY.replace("steps = 3", "steps = 2"))
    main(["run", "--config", str(cfg2), "--out", str(tmp_path / "r3")])
    capsys.readouterr()
    assert main(["diff", str(tmp_path / "r1"), str(tmp_path / "r3")]) == 1


def test_cli_repeat_mode(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep"),
                 "--repeat", "2"]) == 0
    assert (tmp_path / "rep" / "run_000" / "manifest.json").exists()
    assert (tmp_path / "rep" / "run_001" / "manifest.json").exists()


def test_cli_estimate(tmp_path, capsys):
    csv = tmp_path / "audit.csv"
    assert main(["estimate", "--molecule", "NH3", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "420" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "molecule,particles,z_max,n_r,qubits,depth_fast,depth_slow"
    assert lines[1].startswith("NH3,14,7,10,420,")
    # custom audits must state C3 explicitly
    assert main(["estimate", "--particles", "10", "--zmax", "3"]) == 2
    assert main(["estimate", "--particles", "10", "--zmax", "3", "--c3", "7"]) == 0


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "gridwave.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "psi11_resolution_nr7" in proc.stdout


# the retired per-study scripts, each now a study of scripts/studies.py
RETIRED_SCRIPTS = {"origin_offset_study.py": "origin_offset",
                   "patch_correction_study.py": "patch_correction",
                   "resolution_sweep.py": "resolution",
                   "two_particle_scattering.py": "scattering"}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
                         + sorted(RETIRED_SCRIPTS))
def test_script_help(script):
    # the scripts import gridwave's public names at start-up, so --help
    # catches an API change that breaks them; a retired script's case
    # checks that the driver still offers its study as a --study choice
    study = RETIRED_SCRIPTS.get(script)
    path = ROOT / "scripts" / ("studies.py" if study else script)
    assert not study or not (ROOT / "scripts" / script).exists()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path), "--help"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
    if study:
        choices = proc.stdout.split("--study {", 1)[1].split("}", 1)[0]
        assert study in choices.split(",")


def test_study_points_validate():
    # each study point is a bundled scenario with keys set, so all of them
    # pass validate, ceiling included, without running anything
    path = ROOT / "scripts" / "studies.py"
    spec = importlib.util.spec_from_file_location("studies", path)
    studies = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(studies)
    texts = studies.study_texts()
    assert len(texts) == 23
    for text in texts:
        validate_scenario(text)
    ground = load_scenario(studies.resolution_texts()["ground", 8, 1e-4])
    assert (ground.box.n_r, ground.box.length, ground.plan_steps) == (8, 10.0, 15000)
    assert ground.observables.ipe == 117 and ground.initial.orbitals[0].n == 0
    survivor = load_scenario(studies.scattering_text(321))
    assert survivor.plan_steps == 721 and survivor.observables.density == 1
    (event,) = survivor.events
    assert (event.at_step, event.dt, event.enlarge_particle, event.drop_couplings) \
        == (321, 0.05, 0, True)
    with pytest.raises(KeyError):
        studies.scenario_text("scattering_reduced", {"particles.particle.mass": 2.0})
