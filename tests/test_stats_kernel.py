"""The matrix kernel of locgame.stats and resolve.c_parameter against the
per-pair definitions, plus a guard on how often the tournament check runs."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from locgame import (
    Digraph,
    c_parameter,
    distinguisher_hypergraph,
    doubly_regular_check,
    neighborhood_profile,
    paley_tournament,
    quasirandom_deviation,
    random_tournament,
    rotation_tournament,
    sameness,
    sameness_matrix,
    transitive_tournament,
)
from locgame.cli import main
from locgame.digraph import write_digraph
from locgame.experiment import ExperimentConfig, run_experiment

from conftest import oriented_digraphs

NAMED = [
    paley_tournament(7),
    paley_tournament(11),
    paley_tournament(19),
    paley_tournament(23),
    rotation_tournament(1),  # the 3-cycle
    rotation_tournament(2),
    rotation_tournament(5),
    transitive_tournament(1),
    transitive_tournament(6),
]


@st.composite
def random_tournaments(draw, max_n=16):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, [(v, u) if f else (u, v) for (u, v), f in zip(pairs, flips)])


tournaments = st.one_of(random_tournaments(), st.sampled_from(NAMED))


def brute_doubly_regular(g):
    n = g.n
    if (n - 3) % 4 != 0 or any(g.out_degree(v) != (n - 1) // 2 for v in range(n)):
        return False
    target = (n - 3) // 4
    return all(
        neighborhood_profile(g, x, y).pp == target
        and neighborhood_profile(g, x, y).mm == target
        for x, y in itertools.combinations(range(n), 2)
    )


@settings(deadline=None)
@given(tournaments)
def test_sameness_matrix_matches_pairs(g):
    s = sameness_matrix(g)
    for u, v in itertools.permutations(range(g.n), 2):
        assert s[u, v] == sameness(g, u, v).s


@settings(deadline=None)
@given(tournaments)
def test_doubly_regular_matches_profiles(g):
    assert doubly_regular_check(g) == brute_doubly_regular(g)


@settings(deadline=None)
@given(tournaments)
def test_deviation_matches_pair_sum(g):
    expected = sum(
        abs(2 * sameness(g, u, v).s - g.n)
        for u, v in itertools.combinations(range(g.n), 2)
    )
    assert quasirandom_deviation(g) == expected


@settings(deadline=None)
@given(st.one_of(tournaments, oriented_digraphs()))
def test_c_parameter_is_smallest_distinguisher_edge(g):
    for direction in ("witness-to-pair", "pair-to-witness"):
        edges = distinguisher_hypergraph(g, direction=direction).edges
        c = c_parameter(g, direction=direction)
        if g.n < 2:
            assert c == 1
        else:
            assert c == Fraction(min(len(e) for e in edges), g.n)


def test_paley_is_doubly_regular_with_constant_sameness():
    for q in (7, 11, 19, 23):
        g = paley_tournament(q)
        assert doubly_regular_check(g)
        s = sameness_matrix(g)
        assert all(s[u, v] == (q - 3) // 2 for u, v in itertools.permutations(range(q), 2))


def _count_tournament_checks(monkeypatch):
    calls = []
    original = Digraph.is_tournament

    def counting(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(Digraph, "is_tournament", counting)
    return calls


def test_stats_checks_the_tournament_a_constant_number_of_times(
    monkeypatch, capsys, tmp_path
):
    calls = _count_tournament_checks(monkeypatch)
    per_call = []
    for n in (8, 24):
        path = tmp_path / f"t{n}.txt"
        write_digraph(random_tournament(n, 0.5, n), path)
        calls.clear()
        assert main(["stats", str(path)]) == 0
        per_call.append(len(calls))
    capsys.readouterr()
    assert per_call[0] == per_call[1] <= 8


def test_experiment_checks_the_tournament_a_constant_number_of_times(monkeypatch):
    calls = _count_tournament_checks(monkeypatch)
    per_trial = []
    for n in (8, 20):
        calls.clear()
        run_experiment(ExperimentConfig(sizes=(n,), trials=3, seed=5))
        per_trial.append(len(calls) / 3)
    assert per_trial[0] == per_trial[1] <= 4
