import itertools
import json
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locgame import (
    INF,
    UNREACHABLE,
    Digraph,
    all_pairs_distances,
    blowup,
    diameter,
    localization_number_exact,
    optimal_robber,
    paley_tournament,
    play,
    random_tournament,
    rotation_strategy,
    rotation_tournament,
    sc_tight,
    transitive_tournament,
    tripartite_cycle,
    write_digraph,
)
from locgame import cli, digraph, game
from locgame.digraph import (
    MAX_ADJACENCY_BYTES,
    MAX_AUTOMORPHISMS,
    MAX_DISTANCE_BYTES,
    BudgetExceededError,
    from_edge_list,
    from_json,
    to_edge_list,
    to_json,
)
from locgame.verify import bounds_report, random_digraph

from conftest import (
    arc_lists,
    bfs_distances,
    bool_matrices,
    circulants,
    oriented_digraphs,
    reference_arcs,
    reference_automorphisms,
)


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def listed(dist):
    """The distance array as lists, INF in place of the unreachable sentinel,
    to compare with the reference oracles."""
    return [[INF if d == UNREACHABLE else d for d in row] for row in dist.tolist()]


def floyd_warshall(g):
    d = [[INF] * g.n for _ in range(g.n)]
    for v in range(g.n):
        d[v][v] = 0
    for (u, v) in g.arcs:
        d[u][v] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


class TestDigraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, [(0, 0)])

    def test_rejects_digon(self):
        with pytest.raises(ValueError, match="digon"):
            Digraph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(2, [(0, 2)])

    def test_rejects_an_endpoint_too_large_for_intp(self):
        huge = 2**64 - 1
        for arcs in ([(0, 1), (huge, 1)], np.array([(0, 1), (huge, 1)], dtype=np.uint64)):
            with pytest.raises(ValueError, match=rf"^arc \({huge},1\) out of range for n=3$"):
                Digraph(3, arcs)

    @settings(max_examples=300, deadline=None)
    @given(arc_lists())
    def test_matches_reference_constructor(self, case):
        # the arcs as Python pairs and as the (m, 2) int64 array an edge
        # list is parsed into give one graph, or one error
        n, arcs = case
        for given_arcs in (arcs, np.array(arcs, dtype=np.int64).reshape(-1, 2)):
            try:
                expected = reference_arcs(n, arcs)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    Digraph(n, given_arcs)
                assert str(info.value) == str(exc)
                continue
            g = Digraph(n, given_arcs)
            assert g.arcs == expected
            assert g.sorted_arcs() == sorted(expected)
            assert g.arc_count == len(expected)
            for u in range(n):
                out = tuple(sorted(v for (t, v) in expected if t == u))
                into = tuple(sorted(t for (t, v) in expected if v == u))
                assert g.out_neighbors(u) == out and g.out_degree(u) == len(out)
                assert g.in_neighbors(u) == into and g.in_degree(u) == len(into)
                assert g.is_source(u) == (not into)
                assert all(type(v) is int for v in out + into)

    @settings(max_examples=300, deadline=None)
    @given(bool_matrices())
    def test_matrix_matches_its_arc_array(self, case):
        # a bool matrix, C-ordered or a transposed view, gives the graph or
        # the error of its arcs in row-major order, as argwhere lists them
        n, m = case
        for matrix in (m.copy(), m.copy().T):
            try:
                expected = Digraph(n, np.argwhere(matrix))
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    Digraph(n, matrix)
                assert str(info.value) == str(exc)
                continue
            g = Digraph(n, matrix)
            assert g == expected and g.adjacency.flags.c_contiguous
            reverse = g.converse()
            assert reverse.adjacency.flags.c_contiguous
            assert np.array_equal(reverse.adjacency, matrix.T)
            # the graph holds a copy: writing to the caller's array changes nothing
            matrix ^= True
            assert g == expected

    @pytest.mark.parametrize(
        "n, shape", [(3, (3, 4)), (3, (2, 2)), (3, (9,)), (0, (0,)), (2, (2, 2, 1)), (1, ())]
    )
    def test_rejects_a_matrix_of_the_wrong_shape(self, n, shape):
        message = rf"^adjacency matrix of shape {re.escape(str(shape))} for n={n}$"
        with pytest.raises(ValueError, match=message):
            Digraph(n, np.zeros(shape, dtype=bool))

    @pytest.mark.parametrize(
        "arcs",
        [
            [(0, 1, 2), (3, 4, 5)],
            [(0, 1), (2,)],
            [(0.0, 1)],
            [(True, 2)],
            [(0, False)],
            [("0", 1)],
            [(0, 1), (None, 2)],
        ],
    )
    def test_rejects_arcs_that_are_not_integer_pairs(self, arcs):
        with pytest.raises(ValueError):
            Digraph(6, arcs)

    @pytest.mark.parametrize("n", [True, 2.0, "3", None])
    def test_rejects_a_vertex_count_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            Digraph(n, [])

    @pytest.mark.parametrize("u", [-3, -2, -1, 3, 4])
    @pytest.mark.parametrize(
        "query", ["out_neighbors", "in_neighbors", "out_degree", "in_degree", "is_source"]
    )
    def test_vertex_queries_reject_ids_out_of_range(self, query, u):
        g = Digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=f"vertex {u} out of range for n=3"):
            getattr(g, query)(u)
        assert not g.has_arc(u, 1) and not g.has_arc(1, u)

    def test_accepts_numpy_integer_endpoints(self):
        g = Digraph(3, [(np.int64(0), np.int32(2))])
        assert g.arcs == frozenset({(0, 2)})

    def test_adjacency_is_the_only_state_and_read_only(self):
        g = cycle3()
        assert Digraph.__slots__ == ("n", "adjacency", "_distances", "_automorphisms")
        assert g.adjacency.dtype == bool and g.adjacency.shape == (3, 3)
        with pytest.raises(ValueError):
            g.adjacency[1, 0] = True
        assert g.arcs == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_equality_and_hash_ignore_arc_order_and_repeats(self):
        a = Digraph(4, [(0, 1), (2, 3), (1, 2)])
        b = Digraph(4, [(1, 2), (0, 1), (2, 3), (0, 1), (1, 2)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Digraph(4, [(0, 1), (2, 3)])
        assert a != Digraph(5, [(0, 1), (2, 3), (1, 2)])
        assert a != Digraph(4, [(1, 0), (2, 3), (1, 2)])

    def test_adjacency_consistency(self, rng):
        for _ in range(20):
            g = random_digraph(rng, rng.randint(1, 8), 0.5)
            for u in range(g.n):
                for v in g.out_neighbors(u):
                    assert g.has_arc(u, v)
                    assert u in g.in_neighbors(v)
            assert sum(g.out_degree(v) for v in range(g.n)) == g.arc_count

    def test_tournament_predicate(self):
        assert rotation_tournament(2).is_tournament()
        assert not cycle3() == rotation_tournament(2)
        assert not Digraph(3, [(0, 1)]).is_tournament()

    def test_induced_subgraph(self):
        g = transitive_tournament(4)
        sub, back = g.induced([1, 3])
        assert back == [1, 3]
        assert sub.arcs == frozenset({(0, 1)})

    @pytest.mark.parametrize("vertices, bad", [([-1, 0], -1), ([5], 5)])
    def test_induced_rejects_ids_out_of_range(self, vertices, bad):
        # numpy would wrap -1 to vertex 2, and index past n with IndexError
        g = Digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=rf"vertex {bad} out of range for n=3"):
            g.induced(vertices)


class TestDistances:
    def test_cycle_distances(self):
        dist = all_pairs_distances(cycle3())
        assert dist[0].tolist() == [0, 1, 2]

    def test_unreachable_is_inf(self):
        # the array holds the int sentinel; values handed out carry INF
        g = Digraph(2, [(0, 1)])
        dist = all_pairs_distances(g)
        assert dist.dtype == np.int32
        assert dist.tolist() == [[0, 1], [UNREACHABLE, 0]]
        assert UNREACHABLE == np.iinfo(np.int32).max
        assert diameter(g) is INF

    def test_rotation_t5_distance(self):
        dist = all_pairs_distances(rotation_tournament(2))
        assert dist[0, 4] == 2

    def test_arc_iff_distance_one(self, rng):
        g = random_digraph(rng, 7, 0.4)
        dist = all_pairs_distances(g)
        for u in range(7):
            for v in range(7):
                if u != v:
                    assert (dist[u, v] == 1) == g.has_arc(u, v)

    def test_matches_floyd_warshall_oracle(self, rng):
        for _ in range(30):
            g = random_digraph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
            assert listed(all_pairs_distances(g)) == floyd_warshall(g)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 8), 0.5)
            d = listed(all_pairs_distances(g))
            for u in range(g.n):
                for v in range(g.n):
                    for w in range(g.n):
                        assert d[u][w] <= d[u][v] + d[v][w]

    def test_diameter(self):
        assert diameter(cycle3()) == 2
        assert diameter(transitive_tournament(3)) is INF

    def test_diameter_is_a_plain_int(self):
        # read from the int32 array, it must still reach JSON as an int
        d = diameter(random_tournament(12, 0.5, 3))
        assert type(d) is int
        assert json.dumps({"diameter": d}) == f'{{"diameter": {d}}}'
        assert type(diameter(Digraph(1, []))) is int

    @settings(max_examples=60, deadline=None)
    @given(oriented_digraphs(max_n=30))
    def test_matches_reference_bfs(self, g):
        dist = all_pairs_distances(g)
        assert dist.shape == (g.n, g.n)
        assert listed(dist) == bfs_distances(g)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 30), st.data())
    def test_long_paths_match_reference_bfs(self, n, data):
        # a Hamiltonian path plus a few chords: many BFS levels with few
        # arcs each, where the search gathers out-arcs instead of a product
        order = data.draw(st.permutations(range(n)))
        arcs = set(zip(order, order[1:]))
        for _ in range(data.draw(st.integers(0, 3))):
            u, v = data.draw(st.sampled_from(order)), data.draw(st.sampled_from(order))
            if u != v and (v, u) not in arcs:
                arcs.add((u, v))
        g = Digraph(n, arcs)
        assert listed(all_pairs_distances(g)) == bfs_distances(g)

    def test_switches_gather_product_gather_in_one_search(self):
        # a circulant core i -> i + 1, i + 3, i + 9 on 24 vertices and a
        # path of 4 more vertices out of it and back in: the frontier's
        # expected out-arcs start below n**3 / 64, pass it in the core and
        # fall back below it along the path
        k, tail = 24, 4
        arcs = [(i, (i + step) % k) for i in range(k) for step in (1, 3, 9)]
        arcs += [(k - 1 + i, k + i) for i in range(tail)] + [(k + tail - 1, 0)]
        g = Digraph(k + tail, arcs)
        want = bfs_distances(g)
        n, m = g.n, g.arc_count
        # the graph is strong, so levels 2..diameter run, and level L's
        # frontier is the pairs at distance L - 1
        sizes = [sum(row.count(d) for row in want) for d in range(1, max(map(max, want)))]
        modes = "".join("g" if 64 * size * m < n**4 else "p" for size in sizes)
        assert re.fullmatch("g+p+g+", modes), modes
        assert listed(all_pairs_distances(g)) == want

    def test_array_is_read_only(self):
        dist = all_pairs_distances(cycle3())
        with pytest.raises(ValueError, match="read-only"):
            dist[0, 1] = 5
        assert dist[0, 1] == 1


class TestDistanceCache:
    def test_computed_once_and_kept(self):
        g = rotation_tournament(3)
        assert g.distances() is g.distances()
        assert listed(g.distances()) == bfs_distances(g)

    def test_equality_and_hash_ignore_the_cache(self):
        a, b = paley_tournament(7), paley_tournament(7)
        a.distances()
        a.automorphisms()
        assert a == b and hash(a) == hash(b)

    @pytest.fixture
    def apsp_calls(self, monkeypatch):
        calls = []
        apsp = digraph.all_pairs_distances
        monkeypatch.setattr(
            digraph, "all_pairs_distances", lambda g: calls.append(g) or apsp(g)
        )
        return calls

    def test_bounds_report_computes_once(self, apsp_calls):
        report = bounds_report(paley_tournament(7))  # one strong component
        assert report["zeta"] == 2 and report["consistent"]
        assert len(apsp_calls) == 1

    def test_stats_command_computes_once(self, apsp_calls, tmp_path):
        # the reverse c reads the converse, whose distances are seeded
        path = tmp_path / "paley7.edges"
        write_digraph(paley_tournament(7), path)
        assert cli.main(["stats", str(path), "--out", str(tmp_path / "out.json")]) == 0
        assert len(apsp_calls) == 1

    def test_play_computes_once(self, apsp_calls):
        g = rotation_tournament(2)
        transcript = play(g, rotation_strategy(2), optimal_robber(g, 2), 10)
        assert transcript.outcome.captured
        assert len(apsp_calls) == 1

    @settings(deadline=None)
    @given(oriented_digraphs(max_n=12))
    def test_converse_transposes_the_distances(self, g):
        assert g.converse().converse() == g
        assert g.converse().arcs == {(v, u) for u, v in g.arcs}
        cold = g.converse()  # built before g's distances are cached
        g.distances()
        seeded = g.converse()
        for h in (cold, seeded):
            dist = h.distances()
            assert np.array_equal(dist, g.distances().T)
            assert not dist.flags.writeable and dist.flags.c_contiguous


class TestDistanceBudget:
    def test_budget_admits_3973_vertices(self):
        assert 17 * 3973**2 <= MAX_DISTANCE_BYTES < 17 * 3974**2

    @pytest.mark.parametrize("n, need", [(7906, 1062582212), (66858, 75989866788)])
    def test_refuses_before_reading_the_graph(self, n, need):
        # a stand-in with a vertex count and nothing else: the check comes
        # before any array is made or any attribute but n is read
        class Sized:
            pass

        g = Sized()
        g.n = n
        with pytest.raises(BudgetExceededError) as err:
            all_pairs_distances(g)
        assert str(err.value) == (
            f"the distance arrays of {n} vertices need {need} bytes, "
            f"over the limit of {MAX_DISTANCE_BYTES}"
        )

    def test_the_solver_raises_the_same_class(self):
        assert game.BudgetExceededError is BudgetExceededError

    @pytest.mark.parametrize("command", ["stats", "beta", "bounds"])
    def test_command_exits_2_with_one_line(self, monkeypatch, capsys, tmp_path, command):
        monkeypatch.setattr(digraph, "MAX_DISTANCE_BYTES", 17 * 9 * 9)
        path = tmp_path / "p7.txt"
        write_digraph(paley_tournament(7), path)
        assert cli.main([command, str(path)]) == 0
        capsys.readouterr()
        path = tmp_path / "r5.txt"
        write_digraph(rotation_tournament(5), path)  # 11 vertices
        assert cli.main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the distance arrays of 11 vertices need 2057 bytes, "
            "over the limit of 1377\n"
        )


# fragments that must take the line loop: comments, signs, CR line ends,
# Unicode digits and spaces, "1_0"
EDGE_LIST_NOISE = ["#", "-", "+", "\r\n", "x", "1_0", "\u0663", "\u2028", "\x0b", "\xa0", "9" * 19]


@st.composite
def edge_list_texts(draw):
    """Edge lists of small numbers, spaced with blanks, tabs and empty
    lines, and at times one fragment of noise inserted anywhere."""
    number = st.integers(0, 9).map(str) | st.sampled_from(["007", "10", "12"])
    space = st.sampled_from([" ", "\t", "  ", " \t"])
    end = st.sampled_from(["\n", "\n\n", " \n", "\n \n"])
    lines = [draw(st.sampled_from(["", " ", "\n"])) + draw(number) + draw(end)]
    for _ in range(draw(st.integers(0, 6))):
        lines.append(draw(number) + draw(space) + draw(number) + draw(end))
    text = "".join(lines)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(EDGE_LIST_NOISE)) + text[at:]
    return text


class TestAdjacencyBudget:
    def test_budget_admits_11585_vertices(self):
        assert 2 * 11585**2 <= MAX_ADJACENCY_BYTES < 2 * 11586**2

    @pytest.mark.parametrize("n", [11586, 66858])
    def test_refuses_before_allocating(self, n):
        with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
            with pytest.raises(BudgetExceededError) as err:
                Digraph(n, [])
        assert str(err.value) == (
            f"the adjacency matrix of {n} vertices needs {2 * n * n} bytes, "
            f"over the limit of {MAX_ADJACENCY_BYTES}"
        )

    def test_boundary_under_a_smaller_cap(self, monkeypatch):
        monkeypatch.setattr(digraph, "MAX_ADJACENCY_BYTES", 2 * 9 * 9)
        assert Digraph(9, [(0, 1)]).arc_count == 1
        with pytest.raises(BudgetExceededError, match="needs 200 bytes"):
            Digraph(10, [(0, 1)])

    @pytest.mark.parametrize("command", ["beta", "stats"])
    def test_command_exits_3_with_one_line(self, capsys, tmp_path, command):
        # a vertex count the reader refuses is bad input, like one whose
        # matrix cannot be allocated
        path = tmp_path / "huge.txt"
        path.write_text("66858\n")
        assert cli.main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: the adjacency matrix of 66858 vertices needs "
            "8939984328 bytes, over the limit of 268435456\n"
        )


class TestPairIndex:
    def test_matches_triu_indices(self):
        for n in range(71):
            xs, ys = digraph._pair_index(n)
            want_xs, want_ys = np.triu_indices(n, 1)
            assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
            assert not xs.flags.writeable and not ys.flags.writeable

    def test_a_repeated_count_gets_the_same_arrays(self):
        first = digraph._pair_index(9)
        again = digraph._pair_index(9)
        assert again[0] is first[0] and again[1] is first[1]


class TestFileFormats:
    def test_edge_list_round_trip(self, rng):
        g = random_digraph(rng, 6, 0.5)
        assert from_edge_list(to_edge_list(g)) == g

    def test_json_round_trip(self, rng):
        g = random_digraph(rng, 6, 0.5)
        assert from_json(to_json(g)) == g

    def test_edge_list_comments_and_blanks(self):
        text = "# oriented triangle\n3\n\n0 1  # first arc\n1 2\n2 0\n"
        assert from_edge_list(text) == cycle3()

    def test_edge_list_requires_header(self):
        with pytest.raises(ValueError, match="vertex count"):
            from_edge_list("# nothing\n")

    @settings(max_examples=300)
    @given(st.text(max_size=30) | edge_list_texts())
    def test_edge_list_matches_the_line_loop(self, text):
        def outcome(read):
            try:
                return read(text)
            except ValueError as error:
                return str(error)

        # the arguments each reader hands the constructor, or its parse error
        with mock.patch.object(digraph, "Digraph", lambda n, arcs: (n, list(map(tuple, arcs)))):
            read = outcome(from_edge_list)
        assert read == outcome(digraph._edge_list_lines)
        # a graph too large to build in a test is judged by its arguments only
        if isinstance(read, str) or read[0] <= 64:
            line_loop = outcome(lambda t: Digraph(*digraph._edge_list_lines(t)))
            assert outcome(from_edge_list) == line_loop


class TestTournamentPredicate:
    """The arc-count test against the pairwise definition."""

    @staticmethod
    def pairwise(g):
        return all(
            g.has_arc(u, v) or g.has_arc(v, u)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )

    @given(oriented_digraphs(max_n=10))
    def test_matches_pairwise_definition(self, g):
        assert g.is_tournament() == self.pairwise(g)

    @given(st.integers(2, 10), st.integers(0, 2**32), st.data())
    def test_near_tournament_is_not_a_tournament(self, n, seed, data):
        arcs = sorted(random_tournament(n, 0.5, seed).arcs)
        missing = data.draw(st.sampled_from(arcs))
        kept = [a for a in arcs if a != missing]
        # a repeated arc collapses, so it cannot stand in for the missing one
        g = Digraph(n, kept + kept[:1])
        assert not g.is_tournament()
        assert not self.pairwise(g)


class TestAutomorphisms:
    """The distance-preserving permutations ``Digraph.automorphisms`` finds.

    A graph caches its automorphisms, so a test that patches a budget builds
    its graph after the patch."""

    @staticmethod
    def check_maps(g, maps):
        assert maps[0] == tuple(range(g.n))
        assert len(set(maps)) == len(maps)
        for image in maps:
            assert sorted(image) == list(range(g.n))
            assert {(image[u], image[v]) for u, v in g.arcs} == g.arcs

    @pytest.mark.parametrize(
        "g, order",
        [(rotation_tournament(m), 2 * m + 1) for m in range(1, 10)]
        + [(paley_tournament(q), q * (q - 1) // 2) for q in (3, 7, 11, 19)]
        + [(transitive_tournament(20), 1), (sc_tight(3, 2), 14)],
    )
    def test_group_orders(self, g, order):
        maps = g.automorphisms()
        assert len(maps) == order
        self.check_maps(g, maps)

    @settings(max_examples=40)
    @given(oriented_digraphs(max_n=6))
    def test_finds_every_automorphism(self, g):
        maps = g.automorphisms()
        self.check_maps(g, maps)
        brute = [
            p for p in itertools.permutations(range(g.n))
            if {(p[u], p[v]) for u, v in g.arcs} == g.arcs
        ]
        assert set(maps) == set(brute)

    @pytest.mark.parametrize(
        "g", [Digraph(24, []), blowup(rotation_tournament(1), 4)], ids=["edgeless", "blowup"]
    )
    def test_map_budget_stops_large_groups(self, g):
        started = time.perf_counter()
        maps = g.automorphisms()
        assert time.perf_counter() - started < 5
        assert len(maps) == MAX_AUTOMORPHISMS
        self.check_maps(g, maps)

    def test_node_budget_keeps_the_identity(self, monkeypatch):
        monkeypatch.setattr(digraph, "MAX_AUTOMORPHISM_NODES", 10)
        assert paley_tournament(19).automorphisms() == (tuple(range(19)),)
        monkeypatch.setattr(digraph, "MAX_AUTOMORPHISM_NODES", 50)
        g = paley_tournament(19)
        maps = g.automorphisms()
        assert 1 < len(maps) < 171
        self.check_maps(g, maps)

    @pytest.mark.parametrize(
        "build, budget",
        [(lambda: paley_tournament(19), b) for b in (10, 50, 70)]
        + [(lambda: rotation_tournament(12), b) for b in (30, 115)]
        + [(lambda: sc_tight(3, 2), b) for b in (40, 58)]
        + [(lambda: tripartite_cycle(8), b) for b in (30, 35, 40)],
        ids=["paley19-10", "paley19-50", "paley19-70", "rot12-30", "rot12-115",
             "sc_tight-40", "sc_tight-58", "tripartite8-30", "tripartite8-35",
             "tripartite8-40"],
    )
    def test_node_budget_keeps_a_subgroup(self, monkeypatch, build, budget):
        # each budget runs out short of the whole group (or of 256 maps)
        monkeypatch.setattr(digraph, "MAX_AUTOMORPHISM_NODES", budget)
        g = build()
        maps = set(g.automorphisms())
        assert g.automorphisms_truncated()
        for a in maps:
            assert tuple(sorted(range(g.n), key=a.__getitem__)) in maps
            assert all(tuple(a[x] for x in b) in maps for b in maps)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(oriented_digraphs(max_n=9), circulants()), st.sampled_from([2, 3, 256]))
    def test_matches_the_reference_search(self, g, cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(digraph, "MAX_AUTOMORPHISMS", cap)
            g = Digraph(g.n, g.sorted_arcs())
            assert g.automorphisms() == reference_automorphisms(g.distances().tolist())

    @pytest.mark.parametrize(
        "g",
        [rotation_tournament(m) for m in range(1, 13)]
        + [paley_tournament(q) for q in (3, 7, 11, 19, 23)]
        + [sc_tight(3, 2), tripartite_cycle(5), tripartite_cycle(8)]
        + [blowup(rotation_tournament(1), 4)]
        + [Digraph(n, []) for n in (0, 1, 24)],
        ids=[f"rot{m}" for m in range(1, 13)]
        + [f"paley{q}" for q in (3, 7, 11, 19, 23)]
        + ["sc_tight", "tripartite5", "tripartite8", "blowup", "edgeless0", "edgeless1",
           "edgeless24"],
    )
    def test_family_matches_the_reference_search(self, g):
        assert g.automorphisms() == reference_automorphisms(g.distances().tolist())

    def test_searched_once_per_graph(self, monkeypatch):
        calls = []
        search = digraph._search_automorphisms
        monkeypatch.setattr(
            digraph, "_search_automorphisms", lambda dist: calls.append(1) or search(dist)
        )
        game._graph_tables.cache_clear()  # else an equal graph's tables answer for g
        g = paley_tournament(7)
        assert localization_number_exact(g) == 2  # solvers for k = 1, 2
        assert optimal_robber(g, 1).solver.wins(range(7)) is False
        assert len(calls) == 1
