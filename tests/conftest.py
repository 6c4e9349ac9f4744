import itertools
import random
from collections import deque

import pytest
from hypothesis import strategies as st

from locgame import INF, Digraph


def random_oriented_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, arcs)


def reference_arcs(n: int, arcs) -> frozenset[tuple[int, int]]:
    """Reference constructor: the arc-by-arc loop that validates each arc in
    input order and raises the ValueError of the first faulty one."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    arc_set = set()
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if (v, u) in arc_set:
            raise ValueError(f"digon between {u} and {v} (graph must be oriented)")
        arc_set.add((u, v))
    return frozenset(arc_set)


def bfs_distances(g: Digraph) -> list[list[float]]:
    """Reference all-pairs distances: one Python BFS per source, INF where
    a vertex is unreachable."""
    dist = []
    for s in range(g.n):
        row = [INF] * g.n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.out_neighbors(u):
                if row[v] is INF:
                    row[v] = row[u] + 1
                    queue.append(v)
        dist.append(row)
    return dist


@st.composite
def oriented_digraphs(draw, max_n=10, min_n=0):
    """Hypothesis strategy: each pair gets an arc either way or none."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    kinds = draw(st.lists(st.sampled_from("+-0"), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, [(u, v) if k == "+" else (v, u) for (u, v), k in zip(pairs, kinds) if k != "0"])


@st.composite
def arc_lists(draw, max_n=8):
    """Hypothesis strategy: (n, arcs) with out-of-range arcs, self-loops,
    digons and repeated arcs all likely."""
    n = draw(st.integers(0, max_n))
    if n and draw(st.booleans()):
        vertex = st.integers(0, n - 1)
    else:
        vertex = st.integers(-2, n + 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    if arcs:
        # repeats and reversals of drawn arcs, at drawn places
        for (u, v), flip in draw(st.lists(st.tuples(st.sampled_from(arcs), st.booleans()), max_size=4)):
            arcs.insert(draw(st.integers(0, len(arcs))), (v, u) if flip else (u, v))
    return n, arcs


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
