import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locgame import (
    BudgetExceededError,
    Digraph,
    GameTranscript,
    INF,
    LocalizationSolver,
    ProbeError,
    blowup,
    cops_win,
    is_resolving,
    localization_number_exact,
    metric_dimension_exact,
    optimal_robber,
    paley_tournament,
    partition_by_probe,
    play,
    robber_step,
    rotation_tournament,
    sc_composite,
    sc_tight,
    transitive_tournament,
    tripartite_cycle,
)
from locgame import digraph, game
from locgame.strategies import BagSweep, RotationStrategy
from locgame.verify import random_dag, random_digraph

from conftest import (
    ReferenceRobber,
    bfs_distances,
    circulants,
    oriented_digraphs,
    reference_play,
)


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


class TestPartition:
    def test_cycle_fully_split(self):
        parts = partition_by_probe(cycle3(), {0, 1, 2}, (0,))
        assert [(vec, sorted(cls)) for vec, cls in parts] == [
            ((0,), [0]), ((1,), [1]), ((2,), [2]),
        ]

    def test_transitive_t3_merges(self):
        parts = partition_by_probe(transitive_tournament(3), {1, 2}, (0,))
        assert parts == [((1,), frozenset({1, 2}))]

    def test_classes_partition_candidates(self, rng):
        g = rotation_tournament(2)
        parts = partition_by_probe(g, range(5), (0, 4))
        union = frozenset().union(*(cls for _, cls in parts))
        assert union == frozenset(range(5))
        assert sum(len(cls) for _, cls in parts) == 5

    def test_duplicate_probe_rejected(self):
        with pytest.raises(ProbeError, match="two cops"):
            partition_by_probe(cycle3(), {0, 1}, (1, 1))

    @pytest.mark.parametrize("candidates", [{-1, 0}, {7}, {0, 5}])
    def test_candidates_out_of_range_rejected(self, candidates):
        g = rotation_tournament(2)
        with pytest.raises(ValueError, match="candidate -?[0-9]+ out of range for n=5"):
            partition_by_probe(g, candidates, (0,))

    @settings(max_examples=80, deadline=None)
    @given(oriented_digraphs(max_n=8, min_n=1), st.data())
    def test_matches_grouping_by_reference_vectors(self, g, data):
        # oriented digraphs leave pairs unreachable, so vectors hold INF
        vertices = st.sampled_from(range(g.n))
        probe = sorted(data.draw(st.sets(vertices, min_size=1)))
        candidates = data.draw(st.sets(vertices))
        dist = bfs_distances(g)
        cells = {}
        for x in candidates:
            cells.setdefault(tuple(dist[u][x] for u in probe), set()).add(x)
        parts = partition_by_probe(g, candidates, probe)
        assert parts == [(vec, frozenset(cells[vec])) for vec in sorted(cells)]
        for vec, _ in parts:
            assert all(d is INF or type(d) is int for d in vec)
        witnesses = data.draw(st.sets(vertices))
        vectors = {tuple(dist[w][x] for w in witnesses) for x in range(g.n)}
        assert is_resolving(g, witnesses) == (len(vectors) == g.n)


class TestRobberStep:
    def test_sink_stays(self):
        g = transitive_tournament(3)
        assert robber_step(g, {2}) == frozenset({2})

    def test_cycle_spreads(self):
        assert robber_step(cycle3(), {0}) == frozenset({0, 1})

    def test_tripartite_part_moves_forward(self):
        g = tripartite_cycle(2)
        assert robber_step(g, {0, 1}) == frozenset({0, 1, 2, 3})


class TestCopsWin:
    def test_cycle_one_cop(self):
        assert cops_win(cycle3(), 1)

    def test_t5_needs_two(self):
        g = rotation_tournament(2)
        assert not cops_win(g, 1)
        assert cops_win(g, 2)

    def test_acyclic_one_cop(self, rng):
        for _ in range(10):
            g = random_dag(rng, rng.randint(1, 6), 0.5)
            assert cops_win(g, 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            cops_win(cycle3(), 0)
        with pytest.raises(ValueError):
            cops_win(cycle3(), 4)

    def test_budget_guard_vertices(self):
        big = transitive_tournament(25)
        with pytest.raises(BudgetExceededError, match="vertices"):
            cops_win(big, 1)

    def test_budget_guard_probe_count(self):
        # C(24, 12) is about 2.7 million probe sets
        big = transitive_tournament(24)
        with pytest.raises(BudgetExceededError, match="probe sets"):
            LocalizationSolver(big, 12)

    def test_monotone_in_k(self, rng):
        for _ in range(15):
            g = random_digraph(rng, rng.randint(2, 6), 0.5)
            wins = [cops_win(g, k) for k in range(1, g.n + 1)]
            assert wins == sorted(wins)  # False... then True

    def test_anti_monotone_in_candidates(self, rng):
        # a winning set stays winning for every nonempty subset
        g = rotation_tournament(2)
        solver = LocalizationSolver(g, 2)
        assert solver.cops_win()
        full = frozenset(range(5))
        for size in (1, 2, 3, 4):
            for _ in range(5):
                sub = frozenset(rng.sample(sorted(full), size))
                assert solver.wins(sub)


def oracle_win_sets(g, k):
    """Independent game oracle: value iteration over the whole powerset,
    no reachability analysis, no win propagation, no symmetry.  Returns
    every winning candidate set as a bitmask."""
    from itertools import combinations

    n = g.n
    dist = bfs_distances(g)
    closed = [(1 << v) | sum(1 << w for w in g.out_neighbors(v)) for v in range(n)]
    step = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        step[s] = step[s ^ low] | closed[low.bit_length() - 1]
    probe_cells = []
    for p in combinations(range(n), k):
        cells = {}
        for x in range(n):
            vec = tuple(dist[u][x] for u in p)
            cells[vec] = cells.get(vec, 0) | (1 << x)
        probe_cells.append(list(cells.values()))
    win = set()
    changed = True
    while changed:
        changed = False
        for s in range(1, 1 << n):
            if s in win:
                continue
            for cells in probe_cells:
                parts = [c & s for c in cells]
                if all(not p & (p - 1) or step[p] in win for p in parts):
                    win.add(s)
                    changed = True
                    break
    return win


def oracle_cops_win(g, k):
    return (1 << g.n) - 1 in oracle_win_sets(g, k)


def assert_every_set_agrees(g):
    """One solver per k answers every nonempty set as the oracle does."""
    for k in range(1, g.n + 1):
        oracle = oracle_win_sets(g, k)
        solver = LocalizationSolver(g, k)
        for s in range(1, 1 << g.n):
            assert solver.wins(s) == (s in oracle), (g.arcs, k, s)


class TestSolverOracle:
    def test_agrees_with_powerset_value_iteration(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(1, 5)
            g = random_digraph(rng, n, rng.uniform(0.1, 0.9))
            for k in range(1, n + 1):
                assert cops_win(g, k) == oracle_cops_win(g, k)

    @pytest.mark.parametrize(
        "g",
        [
            rotation_tournament(1),
            rotation_tournament(2),
            rotation_tournament(3),
            paley_tournament(7),
            tripartite_cycle(2),
            sc_tight(1, 1),
            Digraph(6, []),
            Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
            blowup(rotation_tournament(1), 3),
        ],
        ids=[
            "rot1", "rot2", "rot3", "paley7", "tripartite", "sc_tight", "edgeless",
            "two_cycles", "blowup",
        ],
    )
    def test_every_set_agrees_on_symmetric_graphs(self, g):
        # these graphs have nontrivial automorphisms, so the solver answers
        # through orbit representatives; the oracle never does.  The 3-cycle
        # blown up by 2 is tripartite_cycle(2) (blowup itself wants k >= 3);
        # blown up by 3 it has 648 automorphisms, more than the search keeps,
        # so the solver quotients by a subset that is not a group
        assert len(g.automorphisms()) > 1
        assert_every_set_agrees(g)

    def test_every_set_agrees_on_random_digraphs(self):
        rng = random.Random(4244)
        for _ in range(30):
            assert_every_set_agrees(
                random_digraph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
            )

    @pytest.mark.parametrize("cap", [2, 3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: paley_tournament(7),
            lambda: rotation_tournament(3),
            lambda: Digraph(9, [(i, (i + d) % 9) for i in range(9) for d in (6, 7)]),
        ],
        ids=["paley7", "rot3", "circulant9"],
    )
    def test_every_set_agrees_under_truncated_symmetry(self, monkeypatch, build, cap):
        # the truncated search keeps the identity and cap - 1 more maps; these
        # groups have odd order, so at cap 2 the second map's inverse is not
        # kept (at cap 3 Paley-7 happens to keep the subgroup x -> 2^i x).
        # On the circulant, a solver that left out the inverses would answer
        # some sets wrongly at cap 2, k = 1.  A graph caches its maps, so
        # each case builds its own after the patch; the solver tables kept
        # for an equal graph found its maps under another cap, so they go too
        monkeypatch.setattr(digraph, "MAX_AUTOMORPHISMS", cap)
        game._graph_tables.cache_clear()
        g = build()
        maps = g.automorphisms()
        inverses = {tuple(sorted(range(g.n), key=m.__getitem__)) for m in maps}
        assert len(maps) == cap
        assert cap != 2 or not inverses <= set(map(tuple, maps))
        assert LocalizationSolver(g, 1).stats.automorphisms == cap
        assert_every_set_agrees(g)

    def test_lazy_queries_match_cold_solves(self):
        rng = random.Random(999)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = random_digraph(rng, n, rng.uniform(0.2, 0.9))
            k = rng.randint(1, min(3, n))
            cold = LocalizationSolver(g, k).cops_win()
            warm = LocalizationSolver(g, k)
            for _ in range(4):
                warm.wins(frozenset(rng.sample(range(n), rng.randint(1, n))))
            assert warm.cops_win() == cold


def assert_queries_in_any_order_agree(g, k, rnd):
    """One solver asked every nonempty set in a shuffled order answers as
    the oracle does and as a fresh solver asked only that set."""
    oracle = oracle_win_sets(g, k)
    sets = list(range(1, 1 << g.n))
    rnd.shuffle(sets)
    solver = LocalizationSolver(g, k)
    for s in sets:
        assert solver.wins(s) == (s in oracle) == LocalizationSolver(g, k).wins(s), (g.arcs, k, s)


class TestQueryOrder:
    """Answers must not depend on what a solver was asked before: the
    verdict table keeps -1 marks and the sweeps skip states between
    queries."""

    @settings(deadline=None, max_examples=40)
    @given(oriented_digraphs(min_n=1, max_n=8), st.data(), st.randoms(use_true_random=False))
    def test_oriented_digraphs(self, g, data, rnd):
        assert_queries_in_any_order_agree(g, data.draw(st.integers(1, g.n)), rnd)

    @pytest.mark.parametrize("cap", [2, 3])
    @settings(deadline=None, max_examples=15)
    @given(circulants(max_n=9), st.data(), st.randoms(use_true_random=False))
    def test_circulants_under_truncated_symmetry(self, cap, g, data, rnd):
        # the graph finds its maps on first use, so under the patched cap
        with mock.patch.object(digraph, "MAX_AUTOMORPHISMS", cap):
            assert len(g.automorphisms()) <= cap
            assert_queries_in_any_order_agree(g, data.draw(st.integers(1, g.n)), rnd)


@settings(deadline=None, max_examples=30)
@given(oriented_digraphs(max_n=8), st.randoms(use_true_random=False))
def test_relabeling_keeps_zeta_and_wins(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs])
    if g.n == 0:
        return
    assert localization_number_exact(h) == localization_number_exact(g)
    sets = [frozenset(rnd.sample(range(g.n), rnd.randint(1, g.n))) for _ in range(4)]
    for k in range(1, g.n + 1):
        sg, sh = LocalizationSolver(g, k), LocalizationSolver(h, k)
        for s in sets:
            assert sh.wins(perm[x] for x in s) == sg.wins(s)


def reference_partitions(g, k):
    """Non-singleton cells of each distinct probe partition, by the
    definition: group by reference distance vector, keep the first probe of
    each partition in combinations order, cells in order of their lowest
    vertex."""
    from itertools import combinations

    dist = bfs_distances(g)
    seen = {}
    for p in combinations(range(g.n), k):
        cells = {}
        for x in range(g.n):
            cells.setdefault(tuple(dist[u][x] for u in p), []).append(x)
        key = frozenset(frozenset(c) for c in cells.values())
        if key not in seen:
            seen[key] = tuple(sum(1 << x for x in c) for c in cells.values() if len(c) > 1)
    return list(seen.values())


def listed_partitions(g, k):
    """The solver's cell matrix as a list of cell tuples, padding dropped."""
    return [tuple(c for c in row if c) for row in game._probe_partitions(g, k).T.tolist()]


class TestProbePartitions:
    def test_rotation_counts(self):
        g = rotation_tournament(9)
        assert game._probe_partitions(g, 4).shape[1] == 2888  # of C(19, 4) = 3876
        assert listed_partitions(g, 2) == reference_partitions(g, 2)

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_matches_reference_across_blocks(self, monkeypatch, block):
        monkeypatch.setattr(game, "_PROBE_BLOCK", block)
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 8)
            g = random_digraph(rng, n, rng.uniform(0.1, 0.9))
            for k in range(1, n + 1):
                assert listed_partitions(g, k) == reference_partitions(g, k)


def reference_level(same, i, k):
    """Level i of the k-set row build by its definition: the AND of the rows
    of each i-set whose least vertex is at least k - i, in combinations
    order (the empty set's row is all ones)."""
    from itertools import combinations

    rows = [
        np.bitwise_and.reduce(same[list(c)], axis=0) if c else np.full(same.shape[1], -1)
        for c in combinations(range(k - i, len(same)), i)
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, same.shape[1])


class TestLevelRows:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_split_into_blocks_gives_the_whole_level(self, data):
        n = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(1, n))
        j = data.draw(st.integers(1, k))
        word = st.integers(-(1 << 63), (1 << 63) - 1)
        same = np.array(data.draw(st.lists(word, min_size=2 * n, max_size=2 * n)), dtype=np.int64)
        same = same.reshape(n, 2)
        prev, whole = reference_level(same, j - 1, k), reference_level(same, j, k)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(whole)), max_size=6)))
        bounds = [0, *cuts, len(whole)]
        blocks = [game._level_rows(prev, same, j, k, a, b) for a, b in zip(bounds, bounds[1:])]
        assert np.concatenate(blocks).tolist() == whole.tolist()


def lexsort_first_rows(a):
    """Ascending indices of the first occurrence of each distinct row, by a
    stable sort on every column."""
    order = np.lexsort(a.T[::-1])
    ranked = a[order]
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[starts])


@st.composite
def matrices_with_duplicates(draw):
    """int64 matrices whose rows are drawn, with repeats, from a few
    distinct rows, each a base row with one column changed."""
    width = draw(st.integers(1, 64))
    entry = st.integers(0, 3) | st.integers(-(1 << 63), (1 << 63) - 1)
    base = draw(st.lists(entry, min_size=width, max_size=width))
    changes = draw(st.lists(st.tuples(st.integers(0, width - 1), entry), min_size=1, max_size=8))
    distinct = np.array([base] * len(changes), dtype=np.int64)
    for row, (column, value) in enumerate(changes):
        distinct[row, column] = value
    picks = draw(st.lists(st.integers(0, len(changes) - 1), min_size=1, max_size=40))
    return distinct[picks]


class TestFirstRows:
    @settings(max_examples=100)
    @given(matrices_with_duplicates())
    def test_matches_the_lexsort_oracle(self, a):
        assert game._first_rows(a).tolist() == lexsort_first_rows(a).tolist()

    def test_many_shuffled_duplicates(self):
        # large enough that the unstable key sort reorders equal keys, so
        # each run must keep its least index, not its first sorted one
        rng = np.random.default_rng(3)
        distinct = rng.integers(-(1 << 62), 1 << 62, size=(7, 24))
        a = distinct[rng.integers(0, 7, size=20_000)]
        key = a @ game._HASH[:24]
        assert (np.argsort(key)[:2000] != np.argsort(key, kind="stable")[:2000]).any()
        assert game._first_rows(a).tolist() == lexsort_first_rows(a).tolist()

    def test_rows_with_one_key_that_differ(self):
        # (c1, 0) and (0, c0) have the same key, c0 * c1
        c0, c1 = game._HASH[:2].tolist()
        a = np.array([[c1, 0], [0, c0], [c1, 0], [0, c0], [0, 0]], dtype=np.int64)
        assert (a @ game._HASH[:2])[0] == (a @ game._HASH[:2])[1]
        assert game._first_rows(a).tolist() == [0, 1, 4]

    def test_every_key_colliding_keeps_the_answers(self, monkeypatch):
        monkeypatch.setattr(game, "_HASH", np.zeros(64, dtype=np.int64))
        rng = random.Random(11)
        for _ in range(5):
            n = rng.randint(1, 8)
            g = random_digraph(rng, n, rng.uniform(0.1, 0.9))
            for k in range(1, n + 1):
                assert listed_partitions(g, k) == reference_partitions(g, k)
        solver = LocalizationSolver(rotation_tournament(9), 5)
        stats = solver.stats
        assert (stats.probe_sets, stats.partitions, stats.automorphisms) == (11628, 5567, 19)
        assert solver.cops_win() and solver.explored_states == 7


class TestSolverStats:
    def test_counters_on_rotation(self):
        solver = LocalizationSolver(rotation_tournament(9), 5)
        before = solver.stats
        assert (before.probe_sets, before.partitions, before.automorphisms) == (11628, 5567, 19)
        assert before.partition_bytes == solver._cells.nbytes == 5567 * 6 * 8
        assert before.explored_states == 0 and before.solve_s == 0 and before.init_s > 0
        assert (before.opens, before.sweeps) == (0, 0)
        assert solver.cops_win()
        after = solver.stats
        assert after.explored_states == solver.explored_states == 7
        # each explored state is opened once exploring and once in one sweep
        assert (after.opens, after.sweeps) == (14, 1)
        assert after.solve_s > 0 and after.init_s == before.init_s
        solver.wins(range(3))
        last = solver.stats
        assert last.solve_s > after.solve_s
        assert (last.explored_states, last.opens, last.sweeps) == (8, 16, 2)

    def test_counters_on_a_lost_run(self):
        # the sweep re-opens a state only after a win was marked since its
        # last open: 18 opens for 13 states here, where re-opening every
        # state in every sweep took 36
        solver = LocalizationSolver(sc_tight(3, 2), 3)
        assert not solver.cops_win()
        stats = solver.stats
        assert (stats.explored_states, stats.opens, stats.sweeps) == (13, 18, 2)

    def test_representative_is_least_orbit_image(self):
        # 19 vertices, so all three byte tables take part
        solver = LocalizationSolver(paley_tournament(19), 1)
        maps = solver.g.automorphisms()
        rng = random.Random(5)
        for _ in range(100):
            mask = rng.randrange(1, 1 << 19)
            images = [sum(1 << m[x] for x in range(19) if mask >> x & 1) for m in maps]
            assert solver._representative(mask) == min(images)

    def test_no_symmetry(self):
        stats = LocalizationSolver(transitive_tournament(6), 2).stats
        assert (stats.probe_sets, stats.automorphisms) == (15, 1)
        assert not stats.automorphisms_truncated

    @pytest.mark.parametrize(
        "g, truncated",
        [
            (paley_tournament(19), False),
            (rotation_tournament(9), False),
            (Digraph(24, []), True),
            (tripartite_cycle(8), True),
        ],
        ids=["paley19", "rot9", "edgeless24", "tripartite8"],
    )
    def test_reports_a_truncated_automorphism_search(self, g, truncated):
        assert LocalizationSolver(g, 1).stats.automorphisms_truncated is truncated

    def test_reports_the_node_budget(self, monkeypatch):
        monkeypatch.setattr(digraph, "MAX_AUTOMORPHISM_NODES", 50)
        stats = LocalizationSolver(paley_tournament(19), 1).stats
        assert stats.automorphisms_truncated and stats.automorphisms == 9


class TestLazySetUp:
    def test_an_unasked_robber_builds_no_partitions(self, monkeypatch):
        # sc_composite resolves sc_tight(3, 2) in its first probe, so the
        # robber never asks its solver anything
        built = []
        build = game._probe_partitions
        monkeypatch.setattr(game, "_probe_partitions", lambda g, k: built.append(k) or build(g, k))
        g = sc_tight(3, 2)
        robber = optimal_robber(g, 5)
        transcript = play(g, sc_composite(g), robber, max_rounds=5 * g.n)
        assert transcript.outcome.captured and built == []
        # the first read of the stats builds the partitions, counted in init_s
        init_s = robber.solver.stats.init_s
        assert built == [5] and robber.solver.stats.solve_s == 0
        assert robber.solver.stats.init_s == init_s

    @pytest.mark.parametrize(
        "build, k, error, match",
        [
            (lambda: transitive_tournament(25), 1, BudgetExceededError, "25 vertices"),
            (lambda: rotation_tournament(2), 3, BudgetExceededError, r"C\(5,3\) probe sets"),
            (lambda: rotation_tournament(2), 6, ValueError, "cop count 6"),
            (lambda: rotation_tournament(2), 0, ValueError, "cop count 0"),
        ],
        ids=["vertices", "probe_sets", "k_above_n", "k_zero"],
    )
    def test_checks_raise_at_construction(self, monkeypatch, build, k, error, match):
        def unreached(*args):
            raise AssertionError("set-up ran before the checks")

        monkeypatch.setattr(game, "MAX_PROBE_SETS", 9)  # C(5, 3) = 10
        monkeypatch.setattr(game, "_graph_tables", unreached)
        monkeypatch.setattr(game, "_probe_partitions", unreached)
        with pytest.raises(error, match=match):
            LocalizationSolver(build(), k)

    def test_zeta_builds_the_graph_tables_once_per_graph(self, monkeypatch):
        # equal graphs have equal automorphisms, so they share one build
        searches = []
        search = digraph._search_automorphisms
        monkeypatch.setattr(
            digraph, "_search_automorphisms", lambda dist: searches.append(1) or search(dist)
        )
        game._graph_tables.cache_clear()
        g = rotation_tournament(4)
        twin = digraph.from_edge_list(digraph.to_edge_list(g))
        assert twin == g and twin is not g
        assert localization_number_exact(g) == 3  # solvers for k = 1, 2, 3
        assert localization_number_exact(twin) == 3
        assert game._graph_tables.cache_info().misses == 1
        first, *rest = [LocalizationSolver(h, k) for h in (g, twin) for k in (2, 3)]
        for solver in rest:
            assert solver._step is first._step and solver._maps is first._maps
        assert not any(t.flags.writeable for t in first._step + first._maps)
        # the twin's stats come with the shared tables, not from a search of its own
        assert rest[-1].stats.automorphisms == 9 and not rest[-1].stats.automorphisms_truncated
        assert len(searches) == 1
        other = LocalizationSolver(paley_tournament(7), 2)
        assert other._step is not first._step and other._maps is not first._maps
        assert game._graph_tables.cache_info().misses == 2

    def test_every_set_agrees_for_solvers_sharing_tables(self):
        # the solvers for k = 1..n are made one after another on one graph,
        # then the memo moves to another graph before any is asked
        g = paley_tournament(7)
        solvers = [LocalizationSolver(g, k) for k in range(1, g.n + 1)]
        assert all(s._maps is solvers[0]._maps for s in solvers)
        assert all(s._cells is None for s in solvers)
        LocalizationSolver(rotation_tournament(2), 1)
        for k, solver in reversed(list(enumerate(solvers, 1))):
            oracle = oracle_win_sets(g, k)
            for s in range(1, 1 << g.n):
                assert solver.wins(s) == (s in oracle), (k, s)


class TestLocalizationNumber:
    def test_known_small_values(self):
        assert localization_number_exact(cycle3()) == 1
        assert localization_number_exact(tripartite_cycle(2)) == 2
        assert localization_number_exact(rotation_tournament(2)) == 2

    def test_blowup(self):
        assert localization_number_exact(blowup(rotation_tournament(1), 3)) == 3

    def test_closed_forms_at_more_points(self):
        # circulant: floor(m/2)+1 at m=4; blow-up: (k-1)*j+1 at (1,4), (2,3);
        # layered instance: component value + 1 at (m, delta) = (1, 1)
        from locgame import sc_tight

        assert localization_number_exact(rotation_tournament(4)) == 3
        assert localization_number_exact(blowup(rotation_tournament(1), 4)) == 4
        assert localization_number_exact(blowup(rotation_tournament(2), 3)) == 5
        assert localization_number_exact(sc_tight(1, 1)) == 2

    def test_k_max_exceeded(self):
        assert localization_number_exact(tripartite_cycle(2), k_max=1) is None

    def test_sandwich_with_metric_dimension(self, rng):
        for _ in range(25):
            g = random_digraph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.8))
            zeta = localization_number_exact(g)
            beta, _ = metric_dimension_exact(g)
            assert 1 <= zeta <= beta


class TestWidthBounds:
    def test_zeta_within_path_width_bound(self):
        from locgame import PathDecomposition, validate_path_decomposition

        cases = [
            (transitive_tournament(4), PathDecomposition([{i} for i in range(4)])),
            (cycle3(), PathDecomposition([{0, 1}, {0, 2}])),
            (Digraph(3, [(0, 1), (1, 2)]), PathDecomposition([{0, 1}, {1, 2}])),
        ]
        for g, pd in cases:
            result = validate_path_decomposition(g, pd)
            assert result.valid
            assert localization_number_exact(g) <= result.width + 1

    def test_zeta_within_dag_width_bound(self):
        from locgame import DagDecomposition, validate_dag_decomposition
        from locgame import sc_tight

        cases = [
            (transitive_tournament(5), DagDecomposition(
                transitive_tournament(5), [{v} for v in range(5)])),
            (cycle3(), DagDecomposition(Digraph(1, []), [{0, 1, 2}])),
            (sc_tight(1, 1), DagDecomposition(
                Digraph(2, [(0, 1)]), [{0, 1, 2}, {3, 4, 5}])),
        ]
        for g, dd in cases:
            result = validate_dag_decomposition(g, dd)
            assert result.valid
            assert localization_number_exact(g) <= result.width


class TestPlayEngine:
    def test_optimal_robber_concedes_only_when_resolved(self):
        g = cycle3()
        robber = optimal_robber(g, 1)
        vec, cls = robber.choose(partition_by_probe(g, frozenset(range(3)), (0,)))
        assert len(cls) == 1  # every class is a singleton here

    def test_evasion_on_t5_single_cop(self):
        g = rotation_tournament(2)

        class FixedProbe:
            cops = 1

            def next(self, transcript):
                return (len(transcript.rounds) % 5,)

        transcript = play(g, FixedProbe(), optimal_robber(g, 1), max_rounds=25)
        assert not transcript.outcome.captured
        assert transcript.outcome.rounds == 25

    def test_budget_enforced(self):
        g = cycle3()

        class Greedy:
            cops = 1

            def next(self, transcript):
                return (0, 1)

        with pytest.raises(ProbeError, match="budget"):
            play(g, Greedy(), optimal_robber(g, 1), max_rounds=5)

    @pytest.mark.parametrize(
        "cheat",
        [
            # a class that is not in the partition
            lambda classes: (classes[0][0], frozenset({0, 2})),
            # a real class paired with another class's vector
            lambda classes: (classes[1][0], classes[0][1]),
        ],
    )
    def test_robber_answer_outside_the_partition_rejected(self, cheat):
        g = rotation_tournament(2)  # probe 0 splits V into {0}, {1, 2}, {3, 4}

        class Probe0:
            cops = 1

            def next(self, transcript):
                return (0,)

        class Cheat:
            def choose(self, classes):
                return cheat(classes)

        with pytest.raises(ValueError, match="not in the current partition"):
            play(g, Probe0(), Cheat(), max_rounds=3)

    def test_transcript_round_trip(self):
        g = transitive_tournament(4)

        class Sweep:
            cops = 1

            def next(self, transcript):
                return (len(transcript.rounds),)

        transcript = play(g, Sweep(), optimal_robber(g, 1), max_rounds=10)
        assert transcript.outcome.captured
        text = transcript.to_json_lines()
        again = GameTranscript.from_json_lines(text)
        assert again.rounds == transcript.rounds
        assert again.outcome == transcript.outcome

    def test_transcript_classes_are_partition_blocks(self):
        g = rotation_tournament(3)

        class Pair:
            cops = 2

            def next(self, transcript):
                k = len(transcript.rounds)
                return (k % 7, (k + 3) % 7)

        transcript = play(g, Pair(), optimal_robber(g, 2), max_rounds=10)
        candidates = frozenset(range(7))
        for r in transcript.rounds:
            parts = dict(partition_by_probe(g, candidates, r.probe))
            assert parts[r.vector] == r.chosen_class
            if len(r.chosen_class) > 1:
                assert r.stepped == robber_step(g, r.chosen_class)
            candidates = r.stepped

    def test_infinite_distances_serialize_as_null(self):
        g = Digraph(4, [(0, 1), (2, 3)])

        class Probe0:
            cops = 1

            def next(self, transcript):
                return (0,)

        transcript = play(g, Probe0(), optimal_robber(g, 1), max_rounds=1)
        text = transcript.to_json_lines()
        assert "null" in text.splitlines()[0]
        again = GameTranscript.from_json_lines(text)
        assert again.rounds[0].vector == transcript.rounds[0].vector
        assert INF in again.rounds[0].vector


@st.composite
def bag_schedules(draw, n):
    """A BagSweep over a short drawn pattern of bags, repeated, so a game
    revisits its probes; rounds never outrun the schedule."""
    cops = draw(st.integers(1, n))
    bag = st.lists(st.integers(0, n - 1), min_size=1, max_size=cops, unique=True)
    pattern = draw(st.lists(bag.map(lambda b: tuple(sorted(b))), min_size=1, max_size=4))
    return BagSweep(pattern * draw(st.integers(1, 6)), cops)


class Recording:
    """A robber that records a copy of every partition it is offered, then
    reverses the list it got and appends a class of its own to it."""

    def __init__(self, inner):
        self.inner = inner
        self.offered = []

    def choose(self, classes):
        self.offered.append(list(classes))
        answer = self.inner.choose(list(classes))
        classes.reverse()
        classes.append(((-1,), frozenset({-1})))
        return answer


class TestPlayAgainstReference:
    """play keeps each round's partition and step for the rest of the game;
    the transcripts must not show it."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_optimal_robber_against_bag_schedules(self, data):
        g = data.draw(oriented_digraphs(min_n=1, max_n=8))
        k = data.draw(st.integers(1, g.n))
        sweep = data.draw(bag_schedules(g.n))
        rounds = data.draw(st.integers(1, len(sweep.bags)))
        got = play(g, sweep, optimal_robber(g, k), rounds)
        want = reference_play(g, sweep, ReferenceRobber(g, k), rounds)
        assert got.to_json_lines() == want.to_json_lines()

    @settings(max_examples=40, deadline=None)
    @given(circulants(max_n=13).filter(lambda g: g.n % 2 and g.n > 1), st.data())
    def test_optimal_robber_against_rotation_on_odd_circulants(self, g, data):
        m = g.n // 2
        strategy = RotationStrategy(m, data.draw(st.integers(1, m // 2 + 1)))
        k = data.draw(st.integers(1, min(4, g.n)))
        got = play(g, strategy, optimal_robber(g, k), 3 * g.n)
        want = reference_play(g, strategy, ReferenceRobber(g, k), 3 * g.n)
        assert got.to_json_lines() == want.to_json_lines()

    def test_evading_games_on_rotation_tournaments(self):
        for m, cops in ((7, 3), (9, 4), (9, 5)):
            g = rotation_tournament(m)
            strategy = RotationStrategy(m, cops)
            got = play(g, strategy, optimal_robber(g, cops), 5 * g.n)
            want = reference_play(g, strategy, ReferenceRobber(g, cops), 5 * g.n)
            assert got.to_json_lines() == want.to_json_lines()

    def test_a_robber_that_changes_its_list_changes_no_later_round(self):
        g = rotation_tournament(2)
        fixed = BagSweep([(v % 5,) for v in range(25)], 1)
        robber, reference = Recording(optimal_robber(g, 1)), Recording(ReferenceRobber(g, 1))
        got = play(g, fixed, robber, 25)
        want = reference_play(g, fixed, reference, 25)
        assert not got.outcome.captured  # the game revisits its candidate sets
        assert robber.offered == reference.offered
        assert got.to_json_lines() == want.to_json_lines()


def asked_masks(solver):
    """Wrap the solver's wins to record the mask of every set it is asked."""
    asked = []
    wins = solver.wins

    def recording(candidates):
        mask = candidates if isinstance(candidates, int) else sum(1 << v for v in candidates)
        asked.append(mask)
        return wins(candidates)

    solver.wins = recording
    return asked


class TestOptimalRobberChoice:
    def test_matches_the_key_based_min_with_size_ties(self):
        ties = 0
        for g in (rotation_tournament(3), rotation_tournament(4), paley_tournament(7),
                  tripartite_cycle(3), Digraph(6, [(0, 1), (2, 3), (4, 5)])):
            for k in (1, 2):
                robber, reference = optimal_robber(g, k), ReferenceRobber(g, k)
                asked, asked_reference = asked_masks(robber.solver), asked_masks(reference.solver)
                for probe in [(u,) for u in range(g.n)] + [(u, (u + 2) % g.n) for u in range(g.n)]:
                    for candidates in (range(g.n), range(0, g.n, 2), range(1, g.n)):
                        classes = partition_by_probe(g, candidates, probe)
                        sizes = [len(c) for _, c in classes]
                        ties += len(sizes) != len(set(sizes))
                        assert robber.choose(classes) == reference.choose(classes)
                assert asked == asked_reference
        assert ties > 50
