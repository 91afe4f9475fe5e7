"""The benchmark's hooks into the package and the test oracles still resolve.

``benchmark/tracing.py`` wraps package functions by name, and
``benchmark/checks.py`` replays cycles against ``tests/oracles.py``.  Both only
run under ``benchmark/run.py``, so a name deleted here would otherwise fail
there first.
"""

import ast
import importlib.util
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _load(name, monkeypatch):
    """Import ``benchmark/<name>.py`` by path, under the bare name the
    benchmark's own modules import each other by."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # nothing left in benchmark/
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_it(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    _load("workloads", monkeypatch)
    _load("checks", monkeypatch)
    originals = [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr, _), original in zip(tracing.TARGETS, originals):
            assert vars(owner)[attr].__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for (owner, attr, _), original in zip(tracing.TARGETS, originals):
        assert vars(owner)[attr] is original, attr


def test_benchmark_oracle_imports_resolve():
    import tests.oracles
    for path in BENCHMARK.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "tests.oracles":
                for alias in node.names:
                    assert hasattr(tests.oracles, alias.name), (path.name, alias.name)
