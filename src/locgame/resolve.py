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
from itertools import chain, combinations, islice
from typing import Iterable

import numpy as np

from .digraph import Digraph, DistanceMatrix, all_pairs_distances
from .game import MAX_PROBE_SETS, BudgetExceededError
from .hypergraph import Hypergraph

CASE_PATH = "case1"
CASE_SOURCE_PLUS_PATH = "case2"
CASE_NO = "no"

# bytes of packed masks one block of witness sets ANDs together; the search
# holds about three such arrays at a time
_WITNESS_BLOCK_BYTES = 1 << 20


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

    Witness sets are tested in numpy blocks, in ``combinations`` order: a set
    resolves when the AND over its witnesses w of "the vertices y with
    d(w, y) == d(w, x)" leaves each x alone, i.e. equals the identity.  The
    masks are packed 8 vertices to a byte, so n has no limit; the first
    hit is confirmed once with :func:`is_resolving`.
    """
    if g.n < 1:
        raise ValueError("metric dimension needs at least one vertex")
    dm = dm or all_pairs_distances(g)
    n = g.n
    # same[w, x]: packed mask of the vertices y with d(w, y) == d(w, x)
    same = np.stack([np.packbits(row[:, None] == row, axis=1)
                     for row in np.array(dm.dist, dtype=float)])
    identity = np.packbits(np.eye(n, dtype=bool), axis=1)
    per_block = max(1, _WITNESS_BLOCK_BYTES // identity.nbytes)
    tried = 0
    for size in range(1, n + 1):
        sets = math.comb(n, size)
        if tried + sets > MAX_PROBE_SETS:
            raise BudgetExceededError(
                f"{tried} witness sets of size < {size} plus C({n},{size}) = "
                f"{sets} exceed the limit of {MAX_PROBE_SETS}"
            )
        tried += sets
        witness_sets = combinations(range(n), size)
        # blocks double from one set up to per_block: on random n = 22
        # tournaments beta is 5 and the witness lies among the first 3 000
        # of the 26 334 sets of size 5, well inside one full block
        count = 1
        while True:
            block = np.fromiter(
                chain.from_iterable(islice(witness_sets, count)), dtype=np.intp
            ).reshape(-1, size)
            count = min(2 * count, per_block)
            if not len(block):
                break
            rows = same[block[:, 0]]
            for j in range(1, size):
                rows &= same[block[:, j]]
            hits = np.flatnonzero((rows == identity).all(axis=(1, 2)))
            if len(hits):
                ws = block[hits[0]].tolist()
                if not is_resolving(dm, ws):
                    raise AssertionError(f"packed search accepted non-resolving {ws}")
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


def _compared_rows(dm: DistanceMatrix, direction: str) -> np.ndarray:
    """Row w holds the distances compared for witness w: d(w, .) when the
    witness probes the pair, d(., w) when the pair reaches the witness (INF
    is a float infinity, equal only to itself)."""
    if direction not in ("witness-to-pair", "pair-to-witness"):
        raise ValueError(f"unknown direction {direction!r}")
    dist = np.array(dm.dist, dtype=float)
    return dist if direction == "witness-to-pair" else dist.T


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
    dm = dm or all_pairs_distances(g)
    rows = _compared_rows(dm, direction)
    xs, ys = np.triu_indices(g.n, 1)
    # separated[w, t]: witness w separates the t-th pair of combinations order
    separated = np.empty((g.n, len(xs)), dtype=bool)
    for w, row in enumerate(rows):
        np.not_equal(row[xs], row[ys], out=separated[w])
    return Hypergraph.from_incidence(separated.T, combinations(range(g.n), 2))


def c_parameter(
    g: Digraph,
    dm: DistanceMatrix | None = None,
    direction: str = "witness-to-pair",
) -> Fraction:
    """Worst-case separation rate: min over pairs of |separating set| / n,
    the smallest edge of ``distinguisher_hypergraph`` over n.

    The separating-set sizes of all pairs are counted in one n x n
    accumulator, one broadcast comparison per witness row.
    """
    if g.n < 2:
        return Fraction(1)
    dm = dm or all_pairs_distances(g)
    separated = np.zeros((g.n, g.n), dtype=np.int64)
    for row in _compared_rows(dm, direction):
        separated += row[:, None] != row
    return Fraction(int(separated[np.triu_indices(g.n, 1)].min()), g.n)


def lp_upper_bound(g: Digraph, dm: DistanceMatrix | None = None) -> float:
    """Covering bound on the metric dimension: (1 + 2 ln n) / c.

    Always finite: every distinguisher edge contains its own pair x, y, so
    c >= 2/n.
    """
    c = c_parameter(g, dm)
    return (1.0 + 2.0 * math.log(g.n)) / float(c)
