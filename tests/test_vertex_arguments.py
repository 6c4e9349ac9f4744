"""Every public entry point that takes vertex ids reads them the same way:
Python and numpy integers in 0..n-1 are vertices and come back as Python
ints; a bool, a float, a string or an id out of range raises ValueError
(ProbeError for probes), and ``has_arc`` answers False."""

import json

import numpy as np
import pytest

from locgame import (
    Digraph,
    GameTranscript,
    LocalizationSolver,
    ProbeError,
    is_resolving,
    optimal_robber,
    paley_tournament,
    partition_by_probe,
    play,
    robber_step,
)
from locgame.digraph import from_json, to_json
from locgame.stats import sameness

G = paley_tournament(7)
BAD = [True, 1.0, "1", -1, G.n]
VALID = 3


class Probes:
    """A strategy that probes the same vertices every round."""

    cops = 2

    def __init__(self, probe):
        self.probe = probe

    def next(self, transcript):
        return self.probe


def play_probe(g, x):
    return play(g, Probes((0, x)), optimal_robber(g, 2), max_rounds=3)


# (name, call with one vertex argument x, error raised when x is no vertex)
CALLS = [
    ("out_neighbors", lambda g, x: g.out_neighbors(x), ValueError),
    ("in_neighbors", lambda g, x: g.in_neighbors(x), ValueError),
    ("out_degree", lambda g, x: g.out_degree(x), ValueError),
    ("in_degree", lambda g, x: g.in_degree(x), ValueError),
    ("is_source", lambda g, x: g.is_source(x), ValueError),
    ("induced", lambda g, x: g.induced([0, x]), ValueError),
    ("partition_candidate", lambda g, x: partition_by_probe(g, [0, x], (1,)), ValueError),
    ("partition_probe", lambda g, x: partition_by_probe(g, range(g.n), (0, x)), ProbeError),
    ("play_probe", play_probe, ProbeError),
    ("robber_step", lambda g, x: robber_step(g, [0, x]), ValueError),
    ("wins", lambda g, x: LocalizationSolver(g, 2).wins([0, x]), ValueError),
    ("is_resolving", lambda g, x: is_resolving(g, [0, x]), ValueError),
    ("sameness_u", lambda g, x: sameness(g, x, 0), ValueError),
    ("sameness_v", lambda g, x: sameness(g, 0, x), ValueError),
]
IDS = [name for name, _, _ in CALLS]


def python_values(value) -> bool:
    """True when no numpy scalar hides anywhere in the value."""
    if isinstance(value, np.generic):
        return False
    if isinstance(value, GameTranscript):
        return python_values((value.rounds, value.outcome))
    if isinstance(value, (tuple, list, set, frozenset)):
        return all(map(python_values, value))
    return True


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("call, error", [c[1:] for c in CALLS], ids=IDS)
def test_a_value_that_is_no_vertex_is_refused(call, error, bad):
    with pytest.raises(error, match="out of range for n=7|nonempty subset of V"):
        call(G, bad)


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_has_arc_answers_false_for_a_value_that_is_no_vertex(bad):
    assert not G.has_arc(bad, 1) and not G.has_arc(1, bad)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
@pytest.mark.parametrize("call", [c[1] for c in CALLS], ids=IDS)
def test_numpy_ids_answer_as_python_ints(call, kind):
    answer = call(G, kind(VALID))
    assert answer == call(G, VALID)
    assert python_values(answer)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_has_arc_reads_numpy_ids(kind):
    for u in range(G.n):
        assert [G.has_arc(kind(u), kind(v)) for v in range(G.n)] == G.adjacency[u].tolist()


def test_wins_reads_a_numpy_int_as_the_mask():
    solver = LocalizationSolver(G, 2)
    assert all(solver.wins(np.int64(m)) == solver.wins(m) for m in range(1, 1 << G.n))


@pytest.mark.parametrize("mask", [True, False, 1.0, None])
def test_wins_refuses_a_bool_or_float_with_the_solver_message(mask):
    with pytest.raises(ValueError, match="^candidate set must be a nonempty subset of V$"):
        LocalizationSolver(G, 2).wins(mask)


def test_a_transcript_of_numpy_probes_round_trips():
    class Flatnonzero:
        cops = 2

        def next(self, transcript):
            pick = np.zeros(G.n, dtype=bool)
            pick[[len(transcript.rounds) % G.n, 5]] = True
            return tuple(np.flatnonzero(pick))

    transcript = play(G, Flatnonzero(), optimal_robber(G, 2), max_rounds=4)
    assert python_values(transcript)
    text = transcript.to_json_lines()
    assert GameTranscript.from_json_lines(text) == transcript
    assert all(type(v) is int for v in json.loads(text.splitlines()[0])["probe"])


def test_a_numpy_vertex_count_is_kept_as_a_python_int():
    g = Digraph(np.int64(3), [(0, 1)])
    assert type(g.n) is int and from_json(to_json(g)) == g
