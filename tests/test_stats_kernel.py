"""The matrix kernel of locgame.stats and resolve.c_parameter against the
per-pair definitions, plus a guard on how often the tournament check runs."""

import itertools
import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from locgame import resolve, stats
from locgame import (
    Digraph,
    c_parameter,
    distinguisher_hypergraph,
    doubly_regular_check,
    e4c_count,
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

from conftest import brute_e4c, oriented_digraphs

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


@st.composite
def circulant_tournaments(draw, max_m=15):
    """Regular tournaments on Z_n, n = 2m+1: each difference d in 1..m
    points forward (v -> v+d) or backward (v -> v-d)."""
    m = draw(st.integers(1, max_m))
    n = 2 * m + 1
    steps = [d if draw(st.booleans()) else n - d for d in range(1, m + 1)]
    return Digraph(n, [(v, (v + d) % n) for v in range(n) for d in steps])


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


def two_product_doubly_regular(g):
    """The matrix definition: regular, and the off-diagonals of A A^T
    (common out-neighbors) and A^T A (common in-neighbors) all (n-3)/4."""
    a = g.adjacency.astype(np.int64)
    n = g.n
    if (n - 3) % 4 != 0 or np.any(a.sum(axis=1) != (n - 1) // 2):
        return False
    off = ~np.eye(n, dtype=bool)
    target = (n - 3) // 4
    return bool(np.all((a @ a.T)[off] == target) and np.all((a.T @ a)[off] == target))


@settings(deadline=None)
@given(tournaments)
def test_doubly_regular_matches_profiles(g):
    assert doubly_regular_check(g) == brute_doubly_regular(g)


@settings(deadline=None)
@given(st.one_of(tournaments, circulant_tournaments()))
def test_doubly_regular_matches_two_products(g):
    assert doubly_regular_check(g) == two_product_doubly_regular(g)


def test_circulants_include_regular_but_not_doubly_regular():
    # rotation_tournament(3), a circulant on Z_7: regular with
    # n = 7 = 3 (mod 4), yet not doubly regular
    g = rotation_tournament(3)
    assert all(g.out_degree(v) == 3 for v in range(7))
    assert not two_product_doubly_regular(g)
    assert not doubly_regular_check(g)
    assert two_product_doubly_regular(paley_tournament(7))


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


def matrix_power_e4c(g):
    """The 4-cycle count from tr(C^4) by matrix powers, as e4c_count
    computed it before it read the trace off the sameness kernel."""
    a = g.adjacency.astype(np.int64)
    c = a - a.T
    n = g.n
    if n < 4:
        return 0
    trace4 = int(np.trace(np.linalg.matrix_power(c, 4)))
    distinct_sum = trace4 - n * (n - 1) - 2 * n * (n - 1) * (n - 2)
    return (n * (n - 1) * (n - 2) * (n - 3) + distinct_sum) // 2


@settings(deadline=None)
@given(st.one_of(random_tournaments(max_n=8), st.sampled_from([g for g in NAMED if g.n <= 11])))
def test_e4c_matches_brute_force(g):
    assert e4c_count(g) == brute_e4c(g)
    assert stats._e4c(g.n, stats.pair_sameness(g)) == brute_e4c(g)


@settings(deadline=None)
@given(st.one_of(random_tournaments(max_n=50), circulant_tournaments(), st.sampled_from(NAMED)))
def test_e4c_matches_the_matrix_power_trace(g):
    assert e4c_count(g) == matrix_power_e4c(g)


def test_stats_builds_one_indicator_matrix(monkeypatch, capsys, tmp_path):
    built = []
    original = stats._indicator_matrix
    monkeypatch.setattr(stats, "_indicator_matrix", lambda g: built.append(g.n) or original(g))
    path = tmp_path / "p19.txt"
    write_digraph(paley_tournament(19), path)
    assert main(["stats", str(path)]) == 0
    assert built == [19]
    assert json.loads(capsys.readouterr().out)["e4c"] == matrix_power_e4c(paley_tournament(19))
    built.clear()
    run_experiment(ExperimentConfig(sizes=(8,), trials=2, seed=5))
    assert built == [8, 8]  # one per trial


def test_stats_builds_two_separations(monkeypatch, capsys, tmp_path):
    # the distinguisher hypergraph gives c and the greedy cover; only the
    # reversed convention builds a second matrix
    built = []
    original = resolve._separation
    monkeypatch.setattr(
        resolve, "_separation", lambda dist, direction: built.append(direction) or original(dist, direction)
    )
    g = random_tournament(13, 0.5, 4)
    path = tmp_path / "r13.txt"
    write_digraph(g, path)
    assert main(["stats", str(path)]) == 0
    assert sorted(built) == ["pair-to-witness", "witness-to-pair"]
    report = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(resolve, "_separation", original)
    assert report["c_parameter"] == float(c_parameter(g))
    reverse = float(c_parameter(g, direction="pair-to-witness"))
    assert report.get("c_parameter_pair_to_witness", report["c_parameter"]) == reverse


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
