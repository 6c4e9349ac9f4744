import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locgame import (
    CyclicGraphError,
    Digraph,
    INF,
    binary_source_extension,
    localization_lower_bound,
    out_degeneracy,
    rotation_tournament,
    sc_tight,
    spread_m,
    strong_components,
    topological_sort,
    transitive_tournament,
    tripartite_cycle,
)
from locgame.verify import random_dag, random_digraph

from conftest import bfs_distances, reference_strong_components


def assert_matches_tarjan(g):
    got, want = strong_components(g), reference_strong_components(g)
    assert got.components == want.components
    assert got.component_of == want.component_of
    assert got.condensation == want.condensation


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


class TestStrongComponents:
    def test_cycle_is_one_component(self):
        scc = strong_components(cycle3())
        assert len(scc) == 1
        assert scc.components == ((0, 1, 2),)

    def test_transitive_tournament_all_singletons(self):
        scc = strong_components(transitive_tournament(4))
        assert len(scc) == 4
        assert scc.condensation == transitive_tournament(4)

    def test_sc_tight_two_components_of_seven(self):
        scc = strong_components(sc_tight(3, 1))
        assert sorted(len(c) for c in scc.components) == [7, 7]

    def test_max_out_degree_of_condensation(self):
        assert strong_components(cycle3()).max_out_degree == 0
        assert strong_components(sc_tight(3, 1)).max_out_degree == 1
        assert strong_components(transitive_tournament(4)).max_out_degree == 3

    def test_component_ids_topologically_ordered(self, rng):
        for _ in range(30):
            g = random_digraph(rng, rng.randint(1, 9), 0.4)
            scc = strong_components(g)
            for (i, j) in scc.condensation.arcs:
                assert i < j
            # condensation is acyclic: the sort must succeed
            topological_sort(scc.condensation)
            # components partition V
            seen = sorted(v for comp in scc.components for v in comp)
            assert seen == list(range(g.n))
            for v in range(g.n):
                assert v in scc.components[scc.component_of[v]]

    def test_order_is_reversed_finishing_not_least_vertex(self):
        # the search from 0 finishes 2 then 0, and 1 is a later root
        scc = strong_components(Digraph(3, [(0, 2)]))
        assert scc.components == ((1,), (0,), (2,))
        assert scc.component_of == (1, 0, 2)

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from([random_digraph, random_dag]),
        st.integers(0, 14),
        st.floats(0.05, 0.9),
        st.integers(0, 2**32),
    )
    def test_matches_tarjan(self, make, n, p, seed):
        assert_matches_tarjan(make(random.Random(seed), n, p))

    @pytest.mark.parametrize(
        "g",
        [sc_tight(3, 1), sc_tight(3, 2), transitive_tournament(20),
         binary_source_extension(tripartite_cycle(2))],
        ids=["sc_tight-3-1", "sc_tight-3-2", "transitive-20", "binary_source-d3-2"],
    )
    def test_matches_tarjan_on_families(self, g):
        assert_matches_tarjan(g)


class TestTopologicalSort:
    def test_transitive_tournament_order(self):
        assert topological_sort(transitive_tournament(3)) == [0, 1, 2]

    def test_cycle_raises(self):
        with pytest.raises(CyclicGraphError):
            topological_sort(cycle3())

    def test_extension_of_cycle_raises_but_condensation_sorts(self):
        ext = binary_source_extension(tripartite_cycle(1))
        with pytest.raises(CyclicGraphError):
            topological_sort(ext)
        scc = strong_components(ext)
        order = topological_sort(scc.condensation)
        # the two added sources come before the cycle's component
        cycle_comp = scc.component_of[0]
        assert order.index(cycle_comp) == 2

    def test_respects_arcs(self, rng):
        for _ in range(20):
            n = rng.randint(1, 9)
            g = Digraph(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.4
                ],
            )
            pos = {v: i for i, v in enumerate(topological_sort(g))}
            for (u, v) in g.arcs:
                assert pos[u] < pos[v]


def exhaustive_out_degeneracy(g):
    best = 0
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            inside = set(subset)
            mindeg = min(
                sum(1 for w in g.out_neighbors(v) if w in inside) for v in subset
            )
            best = max(best, mindeg)
    return best


class TestOutDegeneracy:
    def test_acyclic_is_zero(self):
        assert out_degeneracy(transitive_tournament(5)) == 0

    def test_cycle_is_one(self):
        assert out_degeneracy(cycle3()) == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rotation_tournament(self, m):
        assert out_degeneracy(rotation_tournament(m)) == m

    def test_against_exhaustive_oracle(self, rng):
        for _ in range(25):
            g = random_digraph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
            assert out_degeneracy(g) == exhaustive_out_degeneracy(g)


def brute_spread(g):
    dist = bfs_distances(g)
    best = 0
    for u in range(g.n):
        for v in range(g.n):
            vals = [dist[u][w] for w in (v, *g.out_neighbors(v))]
            hi, lo = max(vals), min(vals)
            if hi is INF and lo is INF:
                continue
            if hi is INF:
                return INF
            best = max(best, hi - lo)
    return best + 1


class TestSpread:
    def test_single_vertex(self):
        assert spread_m(Digraph(1, [])) == 1

    def test_cycle(self):
        assert spread_m(cycle3()) == 3

    def test_transitive_flags_infinite(self):
        assert spread_m(transitive_tournament(3)) is INF

    def test_against_brute_oracle(self, rng):
        for _ in range(25):
            g = random_digraph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
            m = spread_m(g)
            assert m == brute_spread(g)
            assert m is INF or type(m) is int

    def test_lower_bound_vacuous_on_infinite_spread(self):
        assert localization_lower_bound(transitive_tournament(4)) == 0.0

    def test_lower_bound_on_cycle(self):
        # out-degeneracy 1, spread 3
        bound = localization_lower_bound(cycle3())
        assert 0 < bound < 1


class TestBoundsReportComponentBound:
    """``upper_sc`` reuses zeta when the graph is its own only component."""

    @staticmethod
    def solves(g, k_max=None):
        from unittest import mock

        from locgame import verify

        with mock.patch.object(
            verify, "localization_number_exact", wraps=verify.localization_number_exact
        ) as solve:
            report = verify.bounds_report(g, k_max=k_max)
        return report, solve.call_count

    def test_strongly_connected_solves_once(self):
        report, calls = self.solves(rotation_tournament(3))
        assert calls == 1
        assert report["zeta"] == 2 and report["upper_sc"] == 2

    def test_cut_short_zeta_still_solves_the_component(self):
        report, calls = self.solves(rotation_tournament(2), k_max=1)
        assert calls == 2
        assert report["zeta"] is None and report["upper_sc"] == 2

    def test_several_components_each_solved(self):
        g = binary_source_extension(rotation_tournament(1))
        report, calls = self.solves(g)
        assert calls == 1 + len(strong_components(g).components)
        assert report["zeta"] <= report["upper_sc"]

    def test_component_solves_are_bounded_by_the_probe_budget(self, monkeypatch):
        # the component solves run without k_max: with --max-cops 1 the
        # 8-vertex graph is solved for k = 1 only (8 probe sets), but its
        # 7-vertex component needs k = 2, C(7,2) = 21 probe sets
        from locgame import game, verify
        from locgame.game import BudgetExceededError

        rotation = rotation_tournament(3)
        g = Digraph(8, list(rotation.arcs) + [(7, v) for v in range(7)])
        monkeypatch.setattr(game, "MAX_PROBE_SETS", 20)
        with pytest.raises(BudgetExceededError, match=r"C\(7,2\) probe sets"):
            verify.bounds_report(g, k_max=1)
