"""The benchmark tracer's rebinding of locgame names.

``benchmarks/tracing.py`` wraps public functions and methods by name for
the length of a traced pass.  Entering and leaving its context here makes a
renamed or deleted traced name fail the test suite, and checks that every
binding is put back afterwards.
"""

import importlib.util
import sys
from pathlib import Path

import locgame.cli  # noqa: F401  (loads every module the tracer rebinds in)

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
