"""The benchmark tracer's rebinding of locgame names.

``benchmarks/tracing.py`` wraps public functions and methods by name for
the length of a traced pass.  Entering and leaving its context here makes a
renamed or deleted traced name fail the test suite, and checks that every
binding is put back afterwards.  The solver counters are read off the
constructor's arguments, so a solver is counted whether or not it is asked.
"""

import importlib.util
import math
import sys
from pathlib import Path

import locgame.cli  # noqa: F401  (loads every module the tracer rebinds in)
from locgame import LocalizationSolver, rotation_tournament

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing) -> dict:
    """Every locgame module attribute and traced class attribute, by owner."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "locgame" or name.startswith("locgame."))]
    owners += [getattr(sys.modules[module], cls) for module, cls, _, _ in tracing.METHODS]
    return {owner: dict(vars(owner)) for owner in owners}


def test_instrument_rebinds_and_restores(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before = _bindings(tracing)
    with tracing.instrument(tracing.Tracer()):
        for module, attr, _ in tracing.FUNCTIONS:
            assert getattr(sys.modules[module], attr) is not before[sys.modules[module]][attr]
        for module, cls, meth, _ in tracing.METHODS:
            owner = getattr(sys.modules[module], cls)
            assert vars(owner)[meth] is not before[owner][meth]
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [a for a, v in attrs.items() if after[owner][a] is not v]
        assert not changed, (owner, changed)


def test_an_unqueried_solver_is_counted(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    g = rotation_tournament(4)
    with tracing.instrument(tracer):
        solver = LocalizationSolver(g, 3)
    assert solver._cells is None  # never asked, so no partitions were built
    assert tracer.counts["game.solver_builds"] == 1
    assert tracer.counts["game.probe_sets"] == math.comb(9, 3)
    assert tracer.counts["game.explored_states"] == 0
