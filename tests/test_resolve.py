import itertools
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locgame import (
    BudgetExceededError,
    Digraph,
    INF,
    all_pairs_distances,
    blowup,
    c_parameter,
    distinguisher_hypergraph,
    greedy_vertex_cover,
    is_resolving,
    lp_upper_bound,
    metric_dim_one_classifier,
    metric_dimension_exact,
    paley_tournament,
    random_tournament,
    rotation_tournament,
    transitive_tournament,
)
from locgame.resolve import CASE_NO, CASE_PATH, CASE_SOURCE_PLUS_PATH, MAX_SEPARATION_BYTES
from locgame.verify import random_digraph

from conftest import edge_sets, oriented_digraphs

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def directed_path(n):
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def brute_metric_dimension(g):
    """Independent oracle: Floyd-Warshall + full subset sweep."""
    n = g.n
    d = [[INF] * n for _ in range(n)]
    for v in range(n):
        d[v][v] = 0
    for (u, v) in g.arcs:
        d[u][v] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    for size in range(1, n + 1):
        for ws in itertools.combinations(range(n), size):
            if len({tuple(d[w][x] for w in ws) for x in range(n)}) == n:
                return size
    raise AssertionError


class TestIsResolving:
    def test_cycle_single_witness(self):
        g = cycle3()
        assert is_resolving(g, {0})

    def test_transitive_t3_fails(self):
        g = transitive_tournament(3)
        assert not is_resolving(g, {0})

    def test_directed_path(self):
        g = directed_path(4)
        assert is_resolving(g, {0})

    def test_infinities_collide(self):
        # vertices 2 and 3 are both unreachable from 0: INF == INF
        g = Digraph(4, [(0, 1)])
        assert not is_resolving(g, {0})
        # but a single INF is a distance like any other
        g2 = Digraph(3, [(0, 1)])
        assert is_resolving(g2, {0})

    def test_full_set_always_resolves(self, rng):
        for _ in range(20):
            g = random_digraph(rng, rng.randint(1, 6), 0.5)
            assert is_resolving(g, range(g.n))


class TestMetricDimension:
    def test_directed_path_is_one(self):
        assert metric_dimension_exact(directed_path(4))[0] == 1

    def test_cycle_is_one(self):
        assert metric_dimension_exact(cycle3())[0] == 1

    def test_rotation_t5(self):
        beta, witness = metric_dimension_exact(rotation_tournament(2))
        assert beta == 2 <= 5 // 2
        assert witness == frozenset({0, 1})  # lexicographically least

    def test_rotation_t7(self):
        assert metric_dimension_exact(rotation_tournament(3))[0] == 3

    def test_single_vertex(self):
        g = Digraph(1, [])
        beta, witness = metric_dimension_exact(g)
        assert beta == 1 and is_resolving(g, witness)

    def test_against_brute_oracle(self):
        rng = random.Random(31337)
        for _ in range(200):
            g = random_digraph(rng, rng.randint(1, 5), rng.uniform(0.1, 0.9))
            assert metric_dimension_exact(g)[0] == brute_metric_dimension(g)


    def test_budget_counts_every_size_searched(self, monkeypatch):
        # rotation T7 has beta = 3: sizes 1..3 take 7 + 21 + 35 = 63 sets
        from locgame import resolve

        g = rotation_tournament(3)
        monkeypatch.setattr(resolve, "MAX_PROBE_SETS", 63)
        assert metric_dimension_exact(g)[0] == 3
        monkeypatch.setattr(resolve, "MAX_PROBE_SETS", 62)
        with pytest.raises(BudgetExceededError, match=r"28 witness sets of size < 3 plus C\(7,3\) = 35"):
            metric_dimension_exact(g)


def reference_metric_dimension(g):
    """Lexicographic search testing one set at a time with is_resolving."""
    for size in range(1, g.n + 1):
        for ws in itertools.combinations(range(g.n), size):
            if is_resolving(g, ws):
                return size, frozenset(ws)
    raise AssertionError


class TestPackedWitnessSearch:
    # a set's mask packs one bit per vertex pair into 64-bit words: the 55
    # and 66 pairs of n = 11, 12 and the 120 and 136 of n = 16, 17 sit on
    # either side of a word boundary
    @pytest.mark.parametrize("n", [1, 2, 8, 9, 11, 12, 16, 17])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_matches_reference_at_every_block_size(self, n, data):
        from locgame import resolve

        g = data.draw(oriented_digraphs(min_n=n, max_n=n))
        want = reference_metric_dimension(g)
        # blocks of at most 1 set, 3 sets and the default size; the packed
        # mask of one witness set takes 8 * ceil(C(n, 2) / 64) bytes
        mask_bytes = 8 * -(-math.comb(n, 2) // 64)
        for block_bytes in (1, 3 * mask_bytes, resolve._WITNESS_BLOCK_BYTES):
            with mock.patch.object(resolve, "_WITNESS_BLOCK_BYTES", block_bytes):
                beta, witness = metric_dimension_exact(g)
            assert (beta, witness) == want

    def test_replays_the_pinned_benchmark_answers(self):
        # the 64 pool tournaments (random n = 22) of the benchmark, whose
        # beta and witness golden.json pins from the CLI
        golden = json.loads((BENCHMARKS / "golden.json").read_text())["answers"]
        pinned = {k: v["report"] for k, v in golden.items() if k.startswith("beta:random22-s")}
        assert len(pinned) == 64
        for key, report in pinned.items():
            g = random_tournament(22, 0.5, int(key.rsplit("-s", 1)[1]))
            beta, witness = metric_dimension_exact(g)
            assert (beta, sorted(witness)) == (report["beta"], report["witness"])

    def test_holds_about_one_separation_matrix(self):
        # the bool separation matrix is inverted in place and freed once
        # packed, so the peak stays near that matrix, not twice it
        import tracemalloc

        n = 300
        g = directed_path(n)
        tracemalloc.start()
        try:
            beta, witness = metric_dimension_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (beta, sorted(witness)) == (1, [0])
        assert peak < 1.25 * n * math.comb(n, 2)


class TestBetaLowerBound:
    @settings(max_examples=150, deadline=None)
    @given(oriented_digraphs(min_n=1, max_n=9))
    def test_at_most_beta(self, g):
        from locgame import resolve

        dist = all_pairs_distances(g)
        assert 1 <= resolve._beta_lower_bound(dist) <= reference_metric_dimension(g)[0]

    @pytest.mark.parametrize(
        "n, message",
        [
            (40, "760098 witness sets of size < 6 plus C(40,6) = 3838380 exceed the limit of 1000000"),
            (60, "523685 witness sets of size < 5 plus C(60,5) = 5461512 exceed the limit of 1000000"),
        ],
    )
    def test_random_tournaments_fail_fast(self, n, message):
        # every row holds the distances 1 and 2 only, so no set of fewer
        # than 6 vertices resolves, and the budget stops short of 6 (n = 40)
        # or 5 (n = 60): the error comes without a search
        from locgame import resolve

        g = random_tournament(n, 0.5, 0)
        with mock.patch.object(resolve, "_least_resolving", side_effect=AssertionError):
            with pytest.raises(BudgetExceededError) as err:
                metric_dimension_exact(g)
        assert str(err.value) == message

    def test_search_builds_no_size_below_the_bound(self, monkeypatch):
        # the blow-up of the 3-cycle by 3 has beta = 6 but a bound of 2: the
        # search builds the lower levels of sizes 2..6 only
        from locgame import resolve

        g = blowup(rotation_tournament(1), 3)
        assert resolve._beta_lower_bound(g.distances()) == 2
        built = mock.Mock(wraps=resolve._lower_level)
        monkeypatch.setattr(resolve, "_lower_level", built)
        assert metric_dimension_exact(g)[0] == 6
        assert [call.args[1] for call in built.call_args_list] == [2, 3, 4, 5, 6]

    def test_budget_reached_after_search(self, monkeypatch):
        # the blow-up of the 3-cycle by 3 has beta = 6 but a bound of 2, so
        # size 2 is searched before the budget stops size 3
        from locgame import resolve

        monkeypatch.setattr(resolve, "MAX_PROBE_SETS", 9 + 36)
        searched = mock.Mock(wraps=resolve._least_resolving)
        monkeypatch.setattr(resolve, "_least_resolving", searched)
        with pytest.raises(BudgetExceededError) as err:
            metric_dimension_exact(blowup(rotation_tournament(1), 3))
        assert str(err.value) == "45 witness sets of size < 3 plus C(9,3) = 84 exceed the limit of 45"
        assert searched.call_count == 1


class TestDimOneClassifier:
    def test_path_is_case1(self):
        assert metric_dim_one_classifier(directed_path(5)) == CASE_PATH

    def test_source_plus_path_is_case2(self):
        # source 4 feeding into a path on 0..3
        g = Digraph(5, [(0, 1), (1, 2), (2, 3), (4, 1), (4, 3)])
        assert metric_dim_one_classifier(g) == CASE_SOURCE_PLUS_PATH

    def test_two_disjoint_arcs_is_no(self):
        g = Digraph(4, [(0, 2), (1, 3)])
        assert metric_dim_one_classifier(g) == CASE_NO
        assert metric_dimension_exact(g)[0] == 2

    def test_skip_arc_alone_is_not_case1(self):
        # Hamiltonian path plus a skip arc: the path start no longer works,
        # but removing the source leaves a clean path
        g = Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        assert metric_dim_one_classifier(g) == CASE_SOURCE_PLUS_PATH

    def test_agreement_with_exact_dimension(self):
        rng = random.Random(95014)
        disagreements = []
        for _ in range(200):
            g = random_digraph(rng, rng.randint(1, 5), rng.uniform(0.1, 0.9))
            verdict = metric_dim_one_classifier(g)
            beta = metric_dimension_exact(g)[0]
            if (verdict != CASE_NO) != (beta == 1):
                disagreements.append((g.sorted_arcs(), verdict, beta))
        assert disagreements == []


class TestDistinguisherHypergraph:
    def test_cycle_every_edge_is_v(self):
        h = distinguisher_hypergraph(cycle3())
        assert edge_sets(h) == (frozenset({0, 1, 2}),) * 3

    def test_edges_always_contain_their_pair(self, rng):
        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 6), 0.5)
            h = distinguisher_hypergraph(g)
            for (x, y), e in zip(itertools.combinations(range(g.n), 2), edge_sets(h)):
                assert x in e and y in e

    def test_rotation_t5_edges_nonempty(self):
        h = distinguisher_hypergraph(rotation_tournament(2))
        assert all(edge_sets(h))

    def test_reverse_convention_differs_somewhere(self, rng):
        found = False
        for _ in range(50):
            g = random_digraph(rng, 5, 0.5)
            a = distinguisher_hypergraph(g)
            b = distinguisher_hypergraph(g.converse())
            if edge_sets(a) != edge_sets(b):
                found = True
                break
        assert found

    def test_distance_array_of_another_size_rejected(self):
        g = rotation_tournament(3)
        with pytest.raises(ValueError, match=r"shape \(5, 5\) for n=7"):
            distinguisher_hypergraph(g, all_pairs_distances(transitive_tournament(5)))
        given = distinguisher_hypergraph(g, all_pairs_distances(g))
        assert edge_sets(given) == edge_sets(distinguisher_hypergraph(g))


def reference_separation(g, direction):
    """separated[w][t] by the definition, over ``combinations`` order:
    "witness-to-pair" compares d(w, x) with d(w, y), "pair-to-witness"
    d(x, w) with d(y, w)."""
    d = g.distances().tolist()
    if direction == "pair-to-witness":
        d = [list(col) for col in zip(*d)]
    return [
        [d[w][x] != d[w][y] for x, y in itertools.combinations(range(g.n), 2)]
        for w in range(g.n)
    ]


class TestSeparation:
    @settings(max_examples=40, deadline=None)
    @given(oriented_digraphs(max_n=12), st.sampled_from(["witness-to-pair", "pair-to-witness"]))
    def test_matches_reference_in_every_block_size(self, g, direction):
        from locgame import resolve

        want = reference_separation(g, direction)
        # the reverse convention is the default one on the converse
        dist = (g if direction == "witness-to-pair" else g.converse()).distances()
        # blocks of one pair, of 3 pairs (the last one short unless 3
        # divides C(n, 2)), and the default, one block: a block's two
        # gathers take 8 n bytes per pair
        for block_bytes in (1, 8 * g.n * 3, resolve._WITNESS_BLOCK_BYTES):
            with mock.patch.object(resolve, "_WITNESS_BLOCK_BYTES", block_bytes):
                got = resolve._separation(dist)
            assert got.shape == (g.n, math.comb(g.n, 2))
            assert got.tolist() == want


class TestCParameterAndBound:
    def test_cycle_c_is_one(self):
        assert c_parameter(cycle3()) == 1

    def test_c_at_least_two_over_n(self, rng):
        # the pair itself always separates, so c >= 2/n on every digraph
        from fractions import Fraction

        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 6), 0.5)
            assert c_parameter(g) >= Fraction(2, g.n)

    def test_cycle_bound_value(self):
        bound = lp_upper_bound(cycle3())
        assert bound == pytest.approx(1 + 2 * math.log(3))
        assert metric_dimension_exact(cycle3())[0] <= bound

    def test_paley7_bound_exceeds_beta(self):
        g = paley_tournament(7)
        assert metric_dimension_exact(g)[0] <= lp_upper_bound(g)

    def test_bound_holds_on_random_instances(self, rng):
        for _ in range(30):
            g = random_digraph(rng, rng.randint(2, 6), 0.5)
            beta = metric_dimension_exact(g)[0]
            assert beta <= lp_upper_bound(g) + 1e-9

    def test_separation_budget_admits_813_vertices(self):
        assert 813 * math.comb(813, 2) <= MAX_SEPARATION_BYTES < 814 * math.comb(814, 2)

    @pytest.mark.parametrize("direction", ["witness-to-pair", "pair-to-witness"])
    def test_separation_over_budget_raises_before_allocating(self, direction):
        g = Digraph(814, [])
        if direction == "pair-to-witness":
            g = g.converse()
        with pytest.raises(BudgetExceededError, match="needs 269345274 bytes"):
            c_parameter(g)
        with pytest.raises(BudgetExceededError, match="needs 269345274 bytes"):
            distinguisher_hypergraph(g)

    def test_greedy_cover_resolves(self, rng):
        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 7), 0.5)
            dm = all_pairs_distances(g)
            cover = greedy_vertex_cover(distinguisher_hypergraph(g, dm))
            assert is_resolving(g, cover)
