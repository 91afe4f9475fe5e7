import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridwave.cli import build_parser, main

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


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_script_help(script):
    # the scripts import gridwave's public names at start-up, so --help
    # catches an API change that breaks them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
