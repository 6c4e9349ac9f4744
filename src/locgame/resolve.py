"""Resolving sets and metric dimension, plus the pair-distinguishing
hypergraph that links them to covering LPs.

A witness w separates a vertex pair (x, y) when d(w, x) != d(w, y), with
unreachable treated as a distance equal only to itself.  That matches the
probe direction of the game (witness to candidate).  The reverse convention
(candidate to witness) is this one on the converse digraph, whose distances
are the transpose: ``c_parameter(g.converse())``.

One kernel, the witness x pair separation matrix read off the distance
array, feeds the three users: the distinguisher hypergraph is its
transpose, c counts its columns, and the exact metric dimension ANDs its
complement's rows, packed into 64-bit words, over witness sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .digraph import Digraph, _check_bytes, _pair_index
from .game import MAX_PROBE_SETS, BudgetExceededError, _level_rows, _lower_level
from .hypergraph import Hypergraph

CASE_PATH = "case1"
CASE_SOURCE_PLUS_PATH = "case2"
CASE_NO = "no"

# bytes of packed masks one block of witness sets ANDs together, and the sets
# in a size's first block: blocks double from there, since on random n = 22
# tournaments beta is 5 and the witness is among the first 3 000 of the
# 26 334 sets of size 5
_WITNESS_BLOCK_BYTES = 1 << 20
_FIRST_BLOCK = 256

# the largest witness x pair separation matrix built, one byte per entry:
# n C(n, 2) bytes fit for n <= 813 (the benchmark's n = 60 needs 106 KB)
MAX_SEPARATION_BYTES = 1 << 28


def is_resolving(g: Digraph, witnesses: Iterable[int]) -> bool:
    """True iff no two vertices share their distance vector from the witness set."""
    ws = sorted(set(witnesses))
    if any(not 0 <= w < g.n for w in ws):
        raise ValueError(f"witnesses {ws} out of range")
    return len(set(map(tuple, g.distances()[ws].T.tolist()))) == g.n


def metric_dimension_exact(g: Digraph) -> tuple[int, frozenset[int]]:
    """Smallest resolving set by cardinality-ascending, lexicographic search.

    The witness is the lexicographically least optimum.  The probe set V
    always resolves, so the search terminates at size n; sizes start at 1
    because a resolving set stands for a one-round cop placement.  Sizes are
    searched while the sets of all sizes so far fit ``MAX_PROBE_SETS``; the
    first size past it raises :class:`BudgetExceededError`.  That error comes
    at once, without a search, when :func:`_beta_lower_bound` shows that no
    size within the budget can resolve.

    A set resolves when its witnesses together separate every vertex pair,
    i.e. when the AND of their rows of the complement of the witness x pair
    separation matrix (see :func:`distinguisher_hypergraph`), packed into
    64-bit words, is all zeros.  Sizes from the lower bound on run on the
    solver's k-set row build (:func:`locgame.game._level_rows`), in
    ``combinations`` order, so the first hit is the lexicographically least
    witness.  It is confirmed once with :func:`is_resolving`.  A size's
    C(n-1, size-1) masks of (size-1)-sets are kept while it is searched:
    within the budget at most 15.2 MiB for n <= 120 (at n = 70) and
    31.3 MiB for n <= 181; past that the bool separation matrix is larger.
    """
    if g.n < 1:
        raise ValueError("metric dimension needs at least one vertex")
    dist = g.distances()
    n = g.n
    tried, stop = 0, 1  # the sizes below stop fit the budget together
    while stop <= n and tried + math.comb(n, stop) <= MAX_PROBE_SETS:
        tried += math.comb(n, stop)
        stop += 1
    least = _beta_lower_bound(dist)
    ws = _least_resolving(dist, least, stop) if least < stop else None
    if ws is None:
        raise BudgetExceededError(
            f"{tried} witness sets of size < {stop} plus C({n},{stop}) = "
            f"{math.comb(n, stop)} exceed the limit of {MAX_PROBE_SETS}"
        )
    if not is_resolving(g, ws):
        raise AssertionError(f"packed search accepted non-resolving {ws}")
    return len(ws), frozenset(ws)


def _beta_lower_bound(dist: np.ndarray) -> int:
    """Least k such that n - k is at most the product of the k largest
    counts of distinct nonzero distances in a row (unreachable counts as one
    value): no smaller set resolves.

    The n - k vertices outside a resolving set W need distinct vectors, and
    coordinate w of such a vector is a nonzero distance from w.
    """
    n = len(dist)
    counts = (np.diff(np.sort(dist, axis=1), axis=1) != 0).sum(axis=1)
    product = 1
    for k, count in enumerate(sorted(counts.tolist(), reverse=True), 1):
        product *= count
        if n - k <= product:
            return k
    return n


def _least_resolving(dist: np.ndarray, least: int, stop: int) -> list[int] | None:
    """The first resolving set of a size in ``least..stop-1``, in
    size-then-lexicographic order, or None.  Sizes below ``least`` are not
    built."""
    n = len(dist)
    unseparated = _separation(dist)
    np.logical_not(unseparated, out=unseparated)
    packed = np.packbits(unseparated, axis=1)  # the last byte's spare bits: 0
    del unseparated  # freed before the padded copy is made
    same = np.zeros((n, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    same[:, : packed.shape[1]] = packed
    same = same.view(np.int64)
    per_block = max(1, _WITNESS_BLOCK_BYTES // max(1, same[0].nbytes))
    for size in range(least, stop):
        level, total = _lower_level(same, size), math.comb(n, size)
        done, count = 0, min(_FIRST_BLOCK, per_block)
        while done < total:
            block = _level_rows(level, same, size, size, done, min(done + count, total))
            hits = np.flatnonzero(~block.any(axis=1))
            if len(hits):
                return _combination(done + int(hits[0]), n, size)
            done += len(block)
            count = min(2 * count, per_block)
    return None


def _combination(rank: int, n: int, k: int) -> list[int]:
    """The k-subset of range(n) at ``rank`` in ``combinations`` order."""
    out = []
    for v in range(n):
        if len(out) == k:
            break
        below = math.comb(n - v - 1, k - len(out) - 1)  # the sets taking v next
        if rank < below:
            out.append(v)
        else:
            rank -= below
    return out


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
    for row in g.distances().tolist():
        # when the row is a permutation of 0..n-1, row[v] is v's place on the spine
        if sorted(row) == list(range(g.n)) and all(
            row[v] - row[u] <= 1 for (u, v) in g.arcs
        ):
            return True
    return False


def _separation(dist: np.ndarray) -> np.ndarray:
    """separated[w, t]: witness w separates the t-th vertex pair (x, y) of
    ``combinations`` order, d(w, x) != d(w, y).  Raises
    :class:`BudgetExceededError`, before allocating, when the matrix would
    exceed ``MAX_SEPARATION_BYTES``.

    The pairs are compared in blocks, one ``!=`` per block of columns: the
    array ``sides`` holds in row v what every witness reads of v, column v
    of the distances, so a block gathers whole contiguous rows for both
    ends of its pairs.  The two int32 gathers stay within
    ``_WITNESS_BLOCK_BYTES``, which makes one block for n <= 64.
    """
    n = len(dist)
    need = n * math.comb(n, 2)
    _check_bytes(f"the separation matrix of {n} vertices needs", need, MAX_SEPARATION_BYTES)
    sides = np.ascontiguousarray(dist.T)
    xs, ys = _pair_index(n)
    separated = np.empty((n, len(xs)), dtype=bool)
    per_block = max(1, _WITNESS_BLOCK_BYTES // (8 * max(1, n)))
    for lo in range(0, len(xs), per_block):
        hi = lo + per_block
        separated[:, lo:hi] = (sides[xs[lo:hi]] != sides[ys[lo:hi]]).T
    return separated


def distinguisher_hypergraph(g: Digraph, dm: np.ndarray | None = None) -> Hypergraph:
    """One hyperedge per vertex pair: the witnesses separating it.  Edge t
    belongs to the t-th pair (x, y) of ``combinations(range(n), 2)`` and
    holds w when d(w, x) != d(w, y), so every edge contains x and y
    themselves (a vertex is at distance 0 only from itself).  ``dm``, when
    given, must be ``g``'s distance array; it defaults to ``g.distances()``
    and is kept for callers that pass one positionally.  An array of another
    shape than n x n raises ValueError.
    """
    if dm is None:
        dm = g.distances()
    elif dm.shape != (g.n, g.n):
        raise ValueError(f"distance array of shape {dm.shape} for n={g.n}")
    return Hypergraph(_separation(dm).T)


def c_parameter(g: Digraph) -> Fraction:
    """Worst-case separation rate: min over pairs of |separating set| / n,
    the smallest edge of ``distinguisher_hypergraph`` over n."""
    return _separation_rate(_separation(g.distances()).T)


def _separation_rate(incidence: np.ndarray) -> Fraction:
    """c read off the edge x vertex incidence of a distinguisher
    hypergraph: its smallest edge over n, or 1 when there is no pair."""
    pairs, n = incidence.shape
    if not pairs:
        return Fraction(1)
    return Fraction(int(incidence.sum(axis=1).min()), n)


def lp_upper_bound(g: Digraph) -> float:
    """Covering bound on the metric dimension: (1 + 2 ln n) / c.

    Always finite: every distinguisher edge contains its own pair x, y, so
    c >= 2/n.
    """
    c = c_parameter(g)
    return (1.0 + 2.0 * math.log(g.n)) / float(c)
