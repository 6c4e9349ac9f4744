import tracemalloc

import pytest

from locgame import (
    BudgetExceededError,
    Digraph,
    binary_source_extension,
    blowup,
    paley_tournament,
    random_tournament,
    rotation_tournament,
    sc_tight,
    strong_components,
    transitive_tournament,
    tripartite_cycle,
)
from locgame import digraph
from locgame.cli import main
from locgame.stats import doubly_regular_check

from conftest import (
    reference_binary_source_extension,
    reference_blowup,
    reference_paley_tournament,
    reference_random_tournament,
    reference_rotation_tournament,
    reference_sc_tight,
    reference_transitive_tournament,
    reference_tripartite_cycle,
)


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


class TestRotation:
    def test_m1_is_directed_triangle(self):
        assert rotation_tournament(1) == cycle3()

    def test_m2_out_degrees(self):
        g = rotation_tournament(2)
        assert all(g.out_degree(v) == 2 for v in range(5))
        assert g.is_tournament()

    def test_m3_specific_arc(self):
        assert rotation_tournament(3).has_arc(6, 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_vertex_transitive(self, m):
        g = rotation_tournament(m)
        n = g.n
        for c in range(1, n):
            shifted = frozenset(((u + c) % n, (v + c) % n) for (u, v) in g.arcs)
            assert shifted == g.arcs

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rotation_tournament(0)


class TestTripartite:
    def test_i1_is_triangle(self):
        assert tripartite_cycle(1) == cycle3()

    def test_i2_counts(self):
        g = tripartite_cycle(2)
        assert g.n == 6 and g.arc_count == 12

    def test_parts_are_independent(self):
        g = tripartite_cycle(3)
        for j in range(3):
            part = range(3 * j, 3 * j + 3)
            for u in part:
                for v in part:
                    if u != v:
                        assert not g.has_arc(u, v)


class TestBlowup:
    def test_counts(self):
        g = blowup(cycle3(), 3)
        assert g.n == 9 and g.arc_count == 27

    def test_single_vertex_base(self):
        g = blowup(Digraph(1, []), 3)
        assert g.n == 3 and g.arc_count == 0

    def test_labeling(self):
        g = blowup(cycle3(), 3)
        # I_0 = {0,1,2} -> I_1 = {3,4,5}
        assert g.has_arc(0, 3) and g.has_arc(2, 5)
        assert not g.has_arc(3, 0)

    def test_rejects_non_tournament(self):
        with pytest.raises(ValueError, match="tournament"):
            blowup(Digraph(3, [(0, 1)]), 3)

    def test_rejects_small_sets(self):
        with pytest.raises(ValueError):
            blowup(cycle3(), 2)


class TestScTight:
    def test_m3_delta1_shape(self):
        g = sc_tight(3, 1)
        assert g.n == 14
        scc = strong_components(g)
        assert sorted(len(c) for c in scc.components) == [7, 7]

    def test_m1_delta1_size(self):
        assert sc_tight(1, 1).n == 6

    def test_condensation_star(self):
        scc = strong_components(sc_tight(3, 2))
        cond = scc.condensation
        degrees = sorted(cond.out_degree(i) for i in range(cond.n))
        assert degrees == [0, 0, 2]

    def test_layers_induce_rotation_tournament(self):
        g = sc_tight(3, 1)
        for layer in range(2):
            sub, _ = g.induced(range(7 * layer, 7 * layer + 7))
            assert sub == rotation_tournament(3)

    def test_rejects_even_m(self):
        with pytest.raises(ValueError, match="odd"):
            sc_tight(2, 1)


class TestBinarySource:
    def test_m4_adds_two_sources(self):
        g = binary_source_extension(transitive_tournament(4))
        assert g.n == 6
        assert g.is_source(4) and g.is_source(5)

    def test_m1_unchanged(self):
        g = Digraph(1, [])
        assert binary_source_extension(g) is g

    def test_m3_vertex_zero_gets_both(self):
        g = binary_source_extension(Digraph(3, [(0, 1)]))
        assert g.n == 5
        assert g.has_arc(3, 0) and g.has_arc(4, 0)
        # vertex 2 has label "10": only the second source reaches it
        assert not g.has_arc(3, 2) and g.has_arc(4, 2)


class TestPaley:
    def test_q3_is_triangle(self):
        assert paley_tournament(3) == cycle3()

    def test_q7_regular_with_residue_arcs(self):
        g = paley_tournament(7)
        assert all(g.out_degree(v) == 3 for v in range(7))
        assert g.has_arc(0, 1) and g.has_arc(0, 2) and g.has_arc(0, 4)

    @pytest.mark.parametrize("q", [3, 7, 11, 19])
    def test_doubly_regular(self, q):
        assert doubly_regular_check(paley_tournament(q))

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError, match="3 mod 4"):
            paley_tournament(5)
        with pytest.raises(ValueError, match="prime"):
            paley_tournament(9)


class TestRandomTournament:
    def test_p_one_is_transitive(self):
        assert random_tournament(5, 1.0, 42) == transitive_tournament(5)

    def test_p_zero_all_backward(self):
        g = random_tournament(4, 0.0, 42)
        assert all(g.has_arc(j, i) for i in range(4) for j in range(i + 1, 4))

    def test_deterministic_given_seed(self):
        a = random_tournament(5, 0.5, 12345)
        b = random_tournament(5, 0.5, 12345)
        assert a == b
        c = random_tournament(5, 0.5, 12346)
        assert a != c  # overwhelmingly likely for this seed pair

    @pytest.mark.parametrize("p", [0, 0.3, 0.5, 1])
    def test_matches_the_pair_loop(self, p):
        # the same draws in the same order as one draw per pair i < j
        for n in range(1, 61):
            for seed in (0, 7, n, 2**64 - 1):
                want = reference_random_tournament(n, p, seed)
                assert random_tournament(n, p, seed) == want, (n, seed)

    def test_always_tournament(self, rng):
        for _ in range(20):
            g = random_tournament(rng.randint(1, 10), rng.random(), rng.getrandbits(64))
            assert g.is_tournament()


def _blowup_of(build):
    """build(base, p, k) on the blow-up of base(p) by k."""
    return lambda base, p, k: build(base(p), k)


def _extension_of(build):
    """build on the seeded random tournament (n, seed)."""
    return lambda n, seed: build(random_tournament(n, 0.5, seed))


class TestAgainstReferenceLoops:
    """Each family's adjacency pattern against the arc loop it was once
    built by, over a range of parameters."""

    BASES = [(rotation_tournament, j) for j in range(1, 5)] + [
        (paley_tournament, 7),
        (transitive_tournament, 4),
    ]

    @pytest.mark.parametrize(
        "build, reference, cases",
        [
            (rotation_tournament, reference_rotation_tournament, [(m,) for m in range(1, 30)]),
            (tripartite_cycle, reference_tripartite_cycle, [(i,) for i in range(1, 15)]),
            (sc_tight, reference_sc_tight, [(m, d) for m in range(1, 12, 2) for d in range(1, 5)]),
            (
                paley_tournament,
                reference_paley_tournament,
                [(q,) for q in (3, 7, 11, 19, 23, 31, 43, 47, 59)],
            ),
            (
                transitive_tournament,
                reference_transitive_tournament,
                [(n,) for n in range(1, 30)],
            ),
            (
                _blowup_of(blowup),
                _blowup_of(reference_blowup),
                [(base, p, k) for base, p in BASES for k in (3, 4, 5)],
            ),
            (
                _extension_of(binary_source_extension),
                _extension_of(reference_binary_source_extension),
                [(n, seed) for n in range(1, 14) for seed in range(9)],
            ),
        ],
        ids=["rotation", "d3", "sc_tight", "paley", "transitive", "blowup", "binary_source"],
    )
    def test_same_adjacency(self, build, reference, cases):
        for args in cases:
            assert build(*args) == reference(*args), args


class TestAdjacencyBudget:
    """Each family refuses a vertex count over the constructor's budget
    before it builds an arc list."""

    # a cap that admits n <= 40: 2 bytes per pair
    CAP = 2 * 40 * 40

    @pytest.mark.parametrize(
        "build, n",
        [
            (lambda: rotation_tournament(200), 401),
            (lambda: transitive_tournament(400), 400),
            (lambda: tripartite_cycle(134), 402),
            (lambda: sc_tight(99, 1), 398),
            (lambda: paley_tournament(419), 419),
            (lambda: random_tournament(400, 0.5, 1), 400),
            (lambda: blowup(rotation_tournament(16), 12), 396),
        ],
    )
    def test_refuses_before_building(self, monkeypatch, build, n):
        monkeypatch.setattr(digraph, "MAX_ADJACENCY_BYTES", self.CAP)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as err:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            f"the adjacency matrix of {n} vertices needs {2 * n * n} bytes, "
            f"over the limit of {self.CAP}"
        )
        # the arc list of about 80 000 arcs alone would take some 15 MB
        assert peak < 1 << 20

    def test_gen_exits_2_with_one_line(self, monkeypatch, capsys):
        monkeypatch.setattr(digraph, "MAX_ADJACENCY_BYTES", self.CAP)
        assert main(["gen", "transitive", "401"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the adjacency matrix of 401 vertices needs {2 * 401 * 401} bytes, "
            f"over the limit of {self.CAP}\n"
        )
