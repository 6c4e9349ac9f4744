"""Resolving sets and metric dimension, plus the pair-distinguishing
hypergraph that links them to covering LPs.

A witness w separates a vertex pair (x, y) when d(w, x) != d(w, y), with
unreachable treated as a distance equal only to itself.  That matches the
probe direction of the game (witness to candidate).  The reverse convention
(candidate to witness) is available behind a flag for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import numpy as np

from .digraph import Digraph, DistanceMatrix, all_pairs_distances
from .game import MAX_PROBE_SETS, BudgetExceededError
from .hypergraph import Hypergraph

CASE_PATH = "case1"
CASE_SOURCE_PLUS_PATH = "case2"
CASE_NO = "no"


@dataclass(frozen=True)
class ResolvingSet:
    vertices: frozenset[int]
    resolved: bool

    def __len__(self) -> int:
        return len(self.vertices)


def is_resolving(dm: DistanceMatrix, witnesses: Iterable[int]) -> bool:
    """True iff no two vertices share their distance vector from the witness set."""
    ws = sorted(set(witnesses))
    if any(not 0 <= w < dm.n for w in ws):
        raise ValueError(f"witnesses {ws} out of range")
    seen = set()
    for x in range(dm.n):
        vec = tuple(dm.dist[w][x] for w in ws)
        if vec in seen:
            return False
        seen.add(vec)
    return True


def metric_dimension_exact(
    g: Digraph, dm: DistanceMatrix | None = None
) -> tuple[int, ResolvingSet]:
    """Smallest resolving set by cardinality-ascending, lexicographic search.

    The witness is the lexicographically least optimum.  The probe set V
    always resolves, so the search terminates at size n; sizes start at 1
    because a resolving set stands for a one-round cop placement.  Before
    each size, :class:`BudgetExceededError` is raised if the sets of the
    smaller sizes plus those of this size exceed ``MAX_PROBE_SETS``.
    """
    if g.n < 1:
        raise ValueError("metric dimension needs at least one vertex")
    dm = dm or all_pairs_distances(g)
    tried = 0
    for size in range(1, g.n + 1):
        sets = math.comb(g.n, size)
        if tried + sets > MAX_PROBE_SETS:
            raise BudgetExceededError(
                f"{tried} witness sets of size < {size} plus C({g.n},{size}) = "
                f"{sets} exceed the limit of {MAX_PROBE_SETS}"
            )
        tried += sets
        for ws in combinations(range(g.n), size):
            if is_resolving(dm, ws):
                return size, ResolvingSet(frozenset(ws), True)
    raise AssertionError("the full vertex set always resolves")


def metric_dim_one_classifier(g: Digraph) -> str:
    """Classify whether one witness suffices, and how.

    ``case1``: some start vertex sees distances exactly 0..n-1 and the
    distance order has no forward arc skipping an intermediate vertex.
    ``case2``: some source vertex can be removed to leave a case1 digraph.
    ``no`` otherwise.
    """
    if _has_spine(g):
        return CASE_PATH
    for u in range(g.n):
        if g.is_source(u) and g.n > 1:
            sub, _ = g.induced(v for v in range(g.n) if v != u)
            if _has_spine(sub):
                return CASE_SOURCE_PLUS_PATH
    return CASE_NO


def _has_spine(g: Digraph) -> bool:
    """A start whose distances are 0..n-1 with no skip-forward arc."""
    if g.n == 0:
        return False
    dm = all_pairs_distances(g)
    for s in range(g.n):
        row = dm.dist[s]
        if sorted(row) != list(range(g.n)):
            continue
        order = sorted(range(g.n), key=lambda v: row[v])
        pos = {v: i for i, v in enumerate(order)}
        if all(pos[v] - pos[u] <= 1 for (u, v) in g.arcs):
            return True
    return False


def distinguisher_hypergraph(
    g: Digraph,
    dm: DistanceMatrix | None = None,
    direction: str = "witness-to-pair",
) -> Hypergraph:
    """One labeled hyperedge per vertex pair: the witnesses separating it.

    ``direction="witness-to-pair"`` puts w in edge (x, y) when
    d(w, x) != d(w, y); ``"pair-to-witness"`` compares d(x, w) and d(y, w)
    instead.  Note every edge contains x and y themselves under either
    convention (a vertex is at distance 0 only from itself).
    """
    if direction not in ("witness-to-pair", "pair-to-witness"):
        raise ValueError(f"unknown direction {direction!r}")
    dm = dm or all_pairs_distances(g)
    edges = []
    labels = []
    for x, y in combinations(range(g.n), 2):
        if direction == "witness-to-pair":
            edge = [w for w in range(g.n) if dm.dist[w][x] != dm.dist[w][y]]
        else:
            edge = [w for w in range(g.n) if dm.dist[x][w] != dm.dist[y][w]]
        edges.append(edge)
        labels.append((x, y))
    return Hypergraph(g.n, edges, labels)


def c_parameter(
    g: Digraph,
    dm: DistanceMatrix | None = None,
    direction: str = "witness-to-pair",
) -> Fraction:
    """Worst-case separation rate: min over pairs of |separating set| / n.

    The separating-set sizes of all pairs come from one broadcast comparison
    per witness (INF stays a float infinity, equal only to itself); the
    result equals the smallest edge of ``distinguisher_hypergraph`` over n.
    """
    if g.n < 2:
        return Fraction(1)
    if direction not in ("witness-to-pair", "pair-to-witness"):
        raise ValueError(f"unknown direction {direction!r}")
    dm = dm or all_pairs_distances(g)
    dist = np.array(dm.dist, dtype=float)
    # row w holds the distances compared for witness w: d(w, .) when the
    # witness probes the pair, d(., w) when the pair reaches the witness
    rows = dist if direction == "witness-to-pair" else dist.T
    separated = np.zeros((g.n, g.n), dtype=np.int64)
    for row in rows:
        separated += row[:, None] != row
    return Fraction(int(separated[np.triu_indices(g.n, 1)].min()), g.n)


def lp_upper_bound(g: Digraph, dm: DistanceMatrix | None = None) -> float:
    """Covering bound on the metric dimension: (1 + 2 ln n) / c.

    Always finite: every distinguisher edge contains its own pair x, y, so
    c >= 2/n.
    """
    c = c_parameter(g, dm)
    return (1.0 + 2.0 * math.log(g.n)) / float(c)
