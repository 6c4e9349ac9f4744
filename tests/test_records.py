"""The result records: value equality, ``Name(field=value, ...)`` reprs,
fixed fields, and hashing by value for the immutable ones.

The nine immutable records are NamedTuples and the mutable
``GameTranscript`` is a ``__slots__`` class, so importing the package
generates no code for them and never loads :mod:`dataclasses`.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locgame
from locgame.decomposition import ValidationResult
from locgame.experiment import ExperimentConfig
from locgame.game import GameTranscript, Outcome, Round, SolverStats
from locgame.hypergraph import FractionalCover
from locgame.lp import LpSolution
from locgame.stats import Sameness
from locgame.verify import CheckResult

ROUND = Round(1, (0, 2), (1.0, math.inf), frozenset({1, 3}), frozenset({0, 1, 3}))

# (record, fields in order, the same fields with every value changed)
RECORDS = [
    (
        ValidationResult,
        {"valid": False, "width": 2, "violation": "vertex 3 is in no bag"},
        {"valid": True, "width": 3, "violation": None},
    ),
    (
        ExperimentConfig,
        {"sizes": (8, 10), "p": 0.5, "trials": 2, "seed": 3, "eps": None},
        {"sizes": (12,), "p": 0.25, "trials": 1, "seed": 4, "eps": 0.5},
    ),
    (
        SolverStats,
        {
            "probe_sets": 9, "partitions": 7, "partition_bytes": 448,
            "automorphisms": 9, "automorphisms_truncated": False,
            "explored_states": 12, "opens": 20, "sweeps": 3,
            "init_s": 0.25, "solve_s": 0.5,
        },
        {
            "probe_sets": 36, "partitions": 30, "partition_bytes": 960,
            "automorphisms": 1, "automorphisms_truncated": True,
            "explored_states": 0, "opens": 0, "sweeps": 0,
            "init_s": 0.0, "solve_s": 0.0,
        },
    ),
    (
        Round,
        dict(zip(Round._fields, ROUND)),
        {
            "number": 2, "probe": (1,), "vector": (0.0,),
            "chosen_class": frozenset({1}), "stepped": frozenset({1}),
        },
    ),
    (
        Outcome,
        {"captured": True, "rounds": 4, "vertex": 2},
        {"captured": False, "rounds": 5, "vertex": None},
    ),
    (
        GameTranscript,
        {"rounds": [ROUND], "outcome": Outcome(False, 1)},
        {"rounds": [], "outcome": None},
    ),
    (
        FractionalCover,
        {"value": 1.5, "assignment": (0.5, 0.5, 0.5), "packing": (0.5, 0.5, 0.5)},
        {"value": 2.0, "assignment": (1.0, 1.0, 0.0), "packing": (1.0, 1.0, 0.0)},
    ),
    (
        LpSolution,
        {"value": -2.0, "x": (1.0, 1.0, 0.0), "duals": (-1.0,), "pivots": 2, "degenerate_pivots": 0},
        {"value": -1.0, "x": (1.0, 0.0, 0.0), "duals": (0.0,), "pivots": 1, "degenerate_pivots": 1},
    ),
    (
        Sameness,
        {"same": frozenset({2, 4}), "s": 2, "diff": frozenset({3})},
        {"same": frozenset({3}), "s": 1, "diff": frozenset({2, 4})},
    ),
    (
        CheckResult,
        {"check": "closed_forms", "name": "rotation(1)", "passed": True, "detail": "zeta=1"},
        {"check": "golden", "name": "paley(7)", "passed": False, "detail": "zeta=3"},
    ),
]
FROZEN = [case for case in RECORDS if case[0] is not GameTranscript]


def _names(cases):
    return [record.__name__ for record, _, _ in cases]


@pytest.mark.parametrize("record, fields, other", RECORDS, ids=_names(RECORDS))
class TestEveryRecord:
    def test_equal_by_value_and_unequal_in_any_one_field(self, record, fields, other):
        value = record(**fields)
        assert value == record(**fields) == record(*fields.values())
        assert not value != record(**fields)
        for name in fields:
            assert value != record(**{**fields, name: other[name]}), name

    def test_repr_names_every_field(self, record, fields, other):
        body = ", ".join(f"{name}={v!r}" for name, v in fields.items())
        assert repr(record(**fields)) == f"{record.__name__}({body})"

    def test_a_new_attribute_cannot_be_set(self, record, fields, other):
        with pytest.raises(AttributeError):
            record(**fields).note = "x"


@pytest.mark.parametrize("record, fields, other", FROZEN, ids=_names(FROZEN))
class TestFrozenRecords:
    def test_fields_cannot_be_assigned(self, record, fields, other):
        value = record(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, other[name])
        assert value == record(**fields)

    def test_hash_by_value(self, record, fields, other):
        assert hash(record(**fields)) == hash(record(**fields))
        assert len({record(**fields), record(**fields), record(**other)}) == 2

    def test_a_tuple_of_the_values(self, record, fields, other):
        value = record(**fields)
        assert value == tuple(fields.values())
        assert value._fields == tuple(fields)
        assert value._asdict() == fields


class TestGameTranscript:
    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(GameTranscript())

    def test_fields_are_assignable_and_rounds_are_not_shared(self):
        first, second = GameTranscript(), GameTranscript()
        first.rounds.append(ROUND)
        first.outcome = Outcome(True, 1, 3)
        assert second.rounds == [] and second.outcome is None
        assert first == GameTranscript([ROUND], Outcome(True, 1, 3)) != second

    def test_not_equal_to_its_fields_as_a_tuple(self):
        assert GameTranscript() != ([], None)

    def test_json_lines_round_trip(self):
        transcript = GameTranscript([ROUND], Outcome(False, 1))
        assert GameTranscript.from_json_lines(transcript.to_json_lines()) == transcript


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"trials": 0}, "trials must be at least 1"),
            ({"p": 1.5}, "p must be a probability"),
            ({"p": -0.5}, "p must be a probability"),
            ({"sizes": (8, 3)}, "sizes below 4 have no 4-cycle statistics"),
            ({"eps": 1.0}, "eps must lie strictly between 0 and 1, got 1.0"),
            ({"eps": 0.0}, "eps must lie strictly between 0 and 1, got 0.0"),
            ({"eps": math.nan}, "eps must lie strictly between 0 and 1, got nan"),
        ],
    )
    def test_rejects_bad_values_when_built(self, fields, message):
        with pytest.raises(ValueError) as err:
            ExperimentConfig(**{"sizes": (8,), **fields})
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            ExperimentConfig(sizes=(8,))._replace(**fields)
        assert str(err.value) == message

    def test_defaults(self):
        assert ExperimentConfig((8,)) == ExperimentConfig(sizes=(8,), p=0.5, trials=1, seed=0, eps=None)


def test_importing_the_cli_generates_no_dataclasses():
    """``import locgame.cli`` loads every module it loaded when the records
    were dataclasses, and not :mod:`dataclasses` itself."""
    src = str(Path(locgame.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import json, sys, locgame.cli; print(json.dumps(["
        "'dataclasses' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'locgame')]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded, modules = json.loads(done.stdout)
    assert not loaded
    assert modules == [
        "locgame", "locgame.cli", "locgame.decomposition", "locgame.digraph",
        "locgame.experiment", "locgame.families", "locgame.game", "locgame.hypergraph",
        "locgame.lp", "locgame.resolve", "locgame.stats", "locgame.strategies",
        "locgame.structure", "locgame.verify",
    ]
