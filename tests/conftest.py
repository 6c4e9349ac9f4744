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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
