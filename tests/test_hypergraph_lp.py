import itertools
import math
import random
import signal

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog

from locgame import (
    EmptyEdgeError,
    Hypergraph,
    distinguisher_hypergraph,
    fractional_vertex_cover,
    greedy_vertex_cover,
    lovasz_bound,
    random_tournament,
)
from locgame.hypergraph import max_membership
from locgame.lp import UnboundedError, solve_min_equality

from conftest import edge_sets, hypergraph_of, reference_simplex

LP_TOL = 1e-9


def scipy_tau_star(h):
    """Independent LP oracle via HiGHS."""
    n, m = h.n, h.edge_count
    a = -h.incidence().astype(float)
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
    edges = edge_sets(h)
    for size in range(h.n + 1):
        for subset in itertools.combinations(range(h.n), size):
            chosen = set(subset)
            if all(e & chosen for e in edges):
                return size
    raise AssertionError


def set_greedy(h):
    """Reference max-coverage greedy on Python sets, lowest id on ties."""
    edges = edge_sets(h)
    uncovered = set(range(len(edges)))
    membership = [{i for i, e in enumerate(edges) if v in e} for v in range(h.n)]
    cover = set()
    while uncovered:
        best = max(range(h.n), key=lambda v: (len(membership[v] & uncovered), -v))
        cover.add(best)
        uncovered -= membership[best]
    return frozenset(cover)


@st.composite
def degenerate_hypergraphs(draw):
    """Hypergraphs on up to 8 vertices whose edges repeat and nest, the
    cases that make the packing LP degenerate."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 6))):
        edge = draw(st.sampled_from(edges))
        if draw(st.booleans()):
            edges.append(set(edge))
        else:
            edges.append(draw(st.sets(st.sampled_from(sorted(edge)), min_size=1)))
    return hypergraph_of(n, edges)


BEALE = (
    np.array([-3 / 4, 150, -1 / 50, 6, 0, 0, 0]),
    np.array([
        [1 / 4, -60, -1 / 25, 9, 1, 0, 0],
        [1 / 2, -90, -1 / 50, 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]),
    np.array([0.0, 0.0, 1.0]),
)


def packing_lp(inc):
    """The packing LP ``fractional_vertex_cover`` solves for an edge x vertex
    incidence matrix, with the edge columns in the given row order."""
    m, n = inc.shape
    c = np.zeros(m + n)
    c[:m] = -1.0
    return c, np.hstack([inc.T, np.eye(n)]), np.ones(n)


@st.composite
def slack_basis_lps(draw):
    """LPs feasible at their slack basis: packing LPs of degenerate
    hypergraphs in a drawn edge order, small integer LPs with mixed-sign
    entries (some unbounded), and Beale's cycling LP."""
    kind = draw(st.sampled_from(["packing", "integer", "beale"]))
    if kind == "beale":
        return BEALE
    if kind == "packing":
        inc = draw(degenerate_hypergraphs()).incidence()
        order = draw(st.permutations(range(len(inc))))
        return packing_lp(inc[list(order)])
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.integers(-2, 3)
    body = np.array(draw(st.lists(entries, min_size=m * k, max_size=m * k)), float).reshape(m, k)
    c = np.array(draw(st.lists(st.integers(-3, 1), min_size=k, max_size=k)) + [0] * m, float)
    b = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), float)
    return c, np.hstack([body, np.eye(m)]), b


def assert_certified(h):
    """The fractional cover of h, checked against its packing: a feasible
    cover and a feasible packing with equal sums are both optimal (weak
    duality), so this checks optimality without scipy."""
    frac = fractional_vertex_cover(h)
    x, y = frac.assignment, frac.packing
    edges = edge_sets(h)
    assert len(x) == h.n and len(y) == len(edges)
    assert min(x) >= -LP_TOL and min(y) >= -LP_TOL
    for e in edges:
        assert sum(x[v] for v in e) >= 1 - LP_TOL
    for v in range(h.n):
        assert sum(w for w, e in zip(y, edges) if v in e) <= 1 + LP_TOL
    assert sum(x) == pytest.approx(frac.value, abs=LP_TOL)
    assert sum(y) == pytest.approx(frac.value, abs=LP_TOL)
    return frac


def tournament_hypergraphs(rng, count=8):
    """Distinguisher hypergraphs of random tournaments with n <= 14."""
    return [
        distinguisher_hypergraph(random_tournament(rng.randint(3, 14), 0.5, rng.randrange(1000)))
        for _ in range(count)
    ]


class TestFractionalCover:
    def test_single_edge(self):
        h = hypergraph_of(3, [{0, 1, 2}])
        frac = fractional_vertex_cover(h)
        assert frac.value == pytest.approx(1.0, abs=LP_TOL)

    def test_triangle_is_three_halves(self):
        h = hypergraph_of(3, [{0, 1}, {1, 2}, {0, 2}])
        frac = fractional_vertex_cover(h)
        assert frac.value == pytest.approx(1.5, abs=LP_TOL)

    def test_no_edges(self):
        frac = fractional_vertex_cover(hypergraph_of(4, []))
        assert frac.value == 0.0

    def test_empty_edge_raises(self):
        with pytest.raises(EmptyEdgeError):
            fractional_vertex_cover(hypergraph_of(3, [{0}, set()]))

    def test_assignment_feasible(self, rng):
        for _ in range(20):
            h = _random_hypergraph(rng)
            frac = fractional_vertex_cover(h)
            x = frac.assignment
            assert all(-LP_TOL <= xi <= 1 + LP_TOL for xi in x)
            for e in edge_sets(h):
                assert sum(x[v] for v in e) >= 1 - 1e-7
            assert frac.value == pytest.approx(sum(x), abs=1e-7)

    def test_duality_certificate(self, rng):
        for h in [_random_hypergraph(rng) for _ in range(25)] + tournament_hypergraphs(rng):
            assert_certified(h)

    def test_tournament_tau_matches_scipy_oracle(self, rng):
        for h in tournament_hypergraphs(rng):
            assert fractional_vertex_cover(h).value == pytest.approx(scipy_tau_star(h), abs=LP_TOL)

    @pytest.mark.parametrize("seed", [4, 9])
    def test_tau_where_the_primal_tableau_lost_its_pivot(self, seed):
        # the primal LP (one row per vertex pair) once raised UnboundedError
        # in phase 1 on these n = 22 tournaments
        h = distinguisher_hypergraph(random_tournament(22, 0.5, seed))
        assert fractional_vertex_cover(h).value == pytest.approx(scipy_tau_star(h), abs=LP_TOL)

    def test_matches_scipy_oracle(self, rng):
        for _ in range(25):
            h = _random_hypergraph(rng)
            ours = fractional_vertex_cover(h).value
            theirs = scipy_tau_star(h)
            assert ours == pytest.approx(theirs, abs=1e-7)

    @given(degenerate_hypergraphs())
    def test_certificate_on_repeated_and_nested_edges(self, h):
        frac = assert_certified(h)
        assert frac.value == pytest.approx(scipy_tau_star(h), abs=LP_TOL)


class TestEdgeOrder:
    def _largest_first(self, h):
        sizes = h.incidence().sum(axis=1)
        return Hypergraph(h.incidence()[np.argsort(-sizes, kind="stable")])

    def _check(self, h):
        frac = assert_certified(h)
        assert frac.value == pytest.approx(scipy_tau_star(h), abs=LP_TOL)
        # the LP sees the edges smallest first; given in that order, it
        # solves the same LP, so the caller's packing is its permutation
        order = np.argsort(h.incidence().sum(axis=1), kind="stable")
        ascending = fractional_vertex_cover(Hypergraph(h.incidence()[order]))
        assert [frac.packing[i] for i in order] == list(ascending.packing)
        assert frac.value == ascending.value

    def test_largest_edges_first_on_tournaments(self, rng):
        for h in tournament_hypergraphs(rng):
            self._check(self._largest_first(h))

    @given(degenerate_hypergraphs())
    def test_largest_edges_first_on_repeated_and_nested_edges(self, h):
        self._check(self._largest_first(h))


class TestSimplex:
    def test_entries_below_tolerance_do_not_price_a_column(self):
        # ten entries of 5e-10 sum to a phase-1 reduced cost below -TOL,
        # yet none exceeds TOL, so the ratio test could not pivot on them;
        # the column must not be chosen to enter
        m = 10
        a = np.hstack([np.full((m, 1), 5e-10), np.eye(m)])
        sol = solve_min_equality(np.zeros(m + 1), a, np.ones(m))
        assert sol.x == (0.0,) + (1.0,) * m

    def test_entries_below_tolerance_do_not_price_a_column_against_a_costed_basis(self):
        # once x_0..x_9 (cost -1) are basic, ten entries of -5e-10 give the
        # last real column a reduced cost of -5e-9, below -TOL, yet none of
        # them exceeds TOL: pricing it would end in a false UnboundedError
        m = 10
        a = np.hstack([np.eye(m), np.full((m, 1), -5e-10), np.eye(m)])
        c = np.zeros(2 * m + 1)
        c[:m] = -1.0
        sol = solve_min_equality(c, a, np.ones(m))
        assert sol.value == -m
        assert sol.x == (1.0,) * m + (0.0,) * (m + 1)

    def test_bland_fallback_breaks_beales_cycle(self):
        # Beale's LP: Dantzig pricing alone cycles through degenerate bases
        # at the origin; the Bland fallback reaches the optimum -1/20
        a = np.array([
            [1 / 4, -60, -1 / 25, 9, 1, 0, 0],
            [1 / 2, -90, -1 / 50, 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ])
        c = np.array([-3 / 4, 150, -1 / 50, 6, 0, 0, 0])

        def cycled(signum, frame):
            raise AssertionError("the simplex cycled")

        previous = signal.signal(signal.SIGALRM, cycled)
        signal.alarm(10)
        try:
            sol = solve_min_equality(c, a, np.array([0.0, 0.0, 1.0]))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert sol.value == pytest.approx(-1 / 20, abs=LP_TOL)
        assert sol.degenerate_pivots > 0
        assert sol.pivots == 6

    @given(slack_basis_lps())
    def test_matches_the_reference_loop(self, lp):
        # the preallocated pivot takes the reference loop's decisions, so
        # every field agrees exactly, pivot counts included
        try:
            want = reference_simplex(*lp)
        except UnboundedError:
            with pytest.raises(UnboundedError):
                solve_min_equality(*lp)
        else:
            assert solve_min_equality(*lp) == want

    def test_matches_the_reference_loop_on_tournament_packings(self):
        for seed in range(8):
            inc = distinguisher_hypergraph(random_tournament(14, 0.5, seed)).incidence()
            for order in (np.arange(len(inc)), np.argsort(inc.sum(axis=1), kind="stable")):
                lp = packing_lp(inc[order])
                assert solve_min_equality(*lp) == reference_simplex(*lp)

    @pytest.mark.parametrize(
        "slack",
        [np.eye(3)[[1, 0, 2]], 2 * np.eye(3), np.eye(3) + np.eye(3, k=1)],
        ids=["permuted", "scaled", "upper-triangular"],
    )
    def test_slack_block_must_be_the_identity(self, slack):
        a = np.hstack([np.ones((3, 2)), slack])
        with pytest.raises(ValueError, match="identity"):
            solve_min_equality(np.zeros(5), a, np.ones(3))

    def test_right_hand_side_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_min_equality(np.zeros(2), np.eye(2), np.array([1.0, -1.0]))


class TestGreedyCover:
    def test_single_edge(self):
        h = hypergraph_of(3, [{0, 1, 2}])
        assert len(greedy_vertex_cover(h)) == 1

    def test_triangle_needs_two(self):
        h = hypergraph_of(3, [{0, 1}, {1, 2}, {0, 2}])
        cover = greedy_vertex_cover(h)
        assert len(cover) == 2 == brute_tau(h)

    def test_cover_hits_everything(self, rng):
        for _ in range(30):
            h = _random_hypergraph(rng)
            cover = greedy_vertex_cover(h)
            assert all(e & cover for e in edge_sets(h))

    def test_empty_edge_raises(self):
        with pytest.raises(EmptyEdgeError):
            greedy_vertex_cover(hypergraph_of(2, [set()]))

    def test_matches_set_based_reference(self, rng):
        for h in [_random_hypergraph(rng) for _ in range(40)] + tournament_hypergraphs(rng):
            assert greedy_vertex_cover(h) == set_greedy(h)
            edges = edge_sets(h)
            assert max_membership(h) == max(sum(v in e for e in edges) for v in range(h.n))

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
        h = hypergraph_of(3, [{0, 1}, {1, 2}])
        # vertex 1 is in both edges: d = 2
        assert max_membership(h) == 2
        assert lovasz_bound(h, 1.0) == pytest.approx(1 + math.log(2))


class TestHypergraphBasics:
    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            hypergraph_of(2, [{0, 5}])


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    n = rng.randint(2, 8)
    m = rng.randint(1, 10)
    edges = []
    for _ in range(m):
        size = rng.randint(1, n)
        edges.append(set(rng.sample(range(n), size)))
    return hypergraph_of(n, edges)


def test_incidence_round_trip(rng):
    for _ in range(20):
        h = _random_hypergraph(rng)
        inc = h.incidence()
        assert inc.shape == (h.edge_count, h.n) and not inc.flags.writeable
        assert [set(np.flatnonzero(row)) for row in inc] == [set(e) for e in edge_sets(h)]
        again = Hypergraph(inc)
        assert edge_sets(again) == edge_sets(h) and again.n == h.n
