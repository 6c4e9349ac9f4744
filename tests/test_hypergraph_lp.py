import itertools
import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from locgame import (
    EmptyEdgeError,
    Hypergraph,
    fractional_vertex_cover,
    greedy_vertex_cover,
    lovasz_bound,
)
from locgame.hypergraph import max_membership

LP_TOL = 1e-9


def scipy_tau_star(h):
    """Independent LP oracle via HiGHS."""
    n, m = h.n, len(h.edges)
    a = np.zeros((m, n))
    for i, e in enumerate(h.edges):
        for v in e:
            a[i, v] = -1.0
    res = linprog(
        c=np.ones(n),
        A_ub=a,
        b_ub=-np.ones(m),
        bounds=[(0, 1)] * n,
        method="highs",
    )
    assert res.success
    return res.fun


def brute_tau(h):
    for size in range(h.n + 1):
        for subset in itertools.combinations(range(h.n), size):
            chosen = set(subset)
            if all(e & chosen for e in h.edges):
                return size
    raise AssertionError


class TestFractionalCover:
    def test_single_edge(self):
        h = Hypergraph(3, [{0, 1, 2}])
        frac = fractional_vertex_cover(h)
        assert frac.value == pytest.approx(1.0, abs=LP_TOL)

    def test_triangle_is_three_halves(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
        frac = fractional_vertex_cover(h)
        assert frac.value == pytest.approx(1.5, abs=LP_TOL)

    def test_no_edges(self):
        frac = fractional_vertex_cover(Hypergraph(4, []))
        assert frac.value == 0.0

    def test_empty_edge_raises(self):
        with pytest.raises(EmptyEdgeError):
            fractional_vertex_cover(Hypergraph(3, [{0}, set()]))

    def test_assignment_feasible(self, rng):
        for _ in range(20):
            h = _random_hypergraph(rng)
            frac = fractional_vertex_cover(h)
            x = frac.assignment
            assert all(-LP_TOL <= xi <= 1 + LP_TOL for xi in x)
            for e in h.edges:
                assert sum(x[v] for v in e) >= 1 - 1e-7
            assert frac.value == pytest.approx(sum(x), abs=1e-7)

    def test_matches_scipy_oracle(self, rng):
        for _ in range(25):
            h = _random_hypergraph(rng)
            ours = fractional_vertex_cover(h).value
            theirs = scipy_tau_star(h)
            assert ours == pytest.approx(theirs, abs=1e-7)


class TestGreedyCover:
    def test_single_edge(self):
        h = Hypergraph(3, [{0, 1, 2}])
        assert len(greedy_vertex_cover(h)) == 1

    def test_triangle_needs_two(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
        cover = greedy_vertex_cover(h)
        assert len(cover) == 2 == brute_tau(h)

    def test_cover_hits_everything(self, rng):
        for _ in range(30):
            h = _random_hypergraph(rng)
            cover = greedy_vertex_cover(h)
            assert all(e & cover for e in h.edges)

    def test_empty_edge_raises(self):
        with pytest.raises(EmptyEdgeError):
            greedy_vertex_cover(Hypergraph(2, [set()]))

    def test_duality_sandwich(self, rng):
        # tau* <= greedy size and greedy size within the rounding bound
        for _ in range(25):
            h = _random_hypergraph(rng)
            frac = fractional_vertex_cover(h)
            cover = greedy_vertex_cover(h)
            tau = brute_tau(h)
            assert frac.value <= tau + 1e-7
            assert tau <= len(cover)
            assert len(cover) <= lovasz_bound(h, frac.value) + LP_TOL

    def test_lovasz_bound_value(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}])
        # vertex 1 is in both edges: d = 2
        assert max_membership(h) == 2
        assert lovasz_bound(h, 1.0) == pytest.approx(1 + math.log(2))


class TestHypergraphBasics:
    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(2, [{0, 5}])

    def test_label_arity(self):
        with pytest.raises(ValueError, match="label"):
            Hypergraph(2, [{0}], labels=[])


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    n = rng.randint(2, 8)
    m = rng.randint(1, 10)
    edges = []
    for _ in range(m):
        size = rng.randint(1, n)
        edges.append(set(rng.sample(range(n), size)))
    return Hypergraph(n, edges)
