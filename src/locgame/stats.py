"""Tournament statistics: arc-indicator sameness sets, joint neighborhood
profiles, double regularity, the oriented-4-cycle count, and the sameness
deviation used to screen quasi-randomness.

The whole-graph statistics come from products of the +-1 indicator matrix C,
built once per call; double regularity, the deviation and the 4-cycle count
are read off the sameness kernel C C^T, which their private forms take
ready-made, so one report builds it once.  The per-pair ``sameness`` and
``neighborhood_profile`` loops stay as their independent definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, _pair_index


def _require_tournament(g: Digraph) -> None:
    if not g.is_tournament():
        raise ValueError("operation requires a tournament")


def _indicator_matrix(g: Digraph) -> np.ndarray:
    """The +-1 indicator matrix C of a tournament: C[u, v] = 1 for an arc
    u -> v, -1 for v -> u, and 0 on the diagonal."""
    _require_tournament(g)
    a = g.adjacency.astype(np.int64)
    return a - a.T


def arc_indicator(g: Digraph, u: int, v: int) -> int:
    """+1 if (u, v) is an arc, -1 otherwise; u and v must differ."""
    if u == v:
        raise ValueError("arc indicator undefined on the diagonal")
    return 1 if g.has_arc(u, v) else -1


@dataclass(frozen=True)
class Sameness:
    same: frozenset[int]
    s: int
    diff: frozenset[int]


def sameness(g: Digraph, u: int, v: int) -> Sameness:
    """Third vertices whose arc orientation agrees toward u and v.

    ``same`` collects z outside {u, v} with matching indicators, ``diff``
    the rest; s = |same| and |same| + |diff| = n - 2.
    """
    _require_tournament(g)
    if u == v:
        raise ValueError("sameness needs two distinct vertices")
    same, diff = set(), set()
    for z in range(g.n):
        if z in (u, v):
            continue
        if arc_indicator(g, u, z) == arc_indicator(g, v, z):
            same.add(z)
        else:
            diff.add(z)
    return Sameness(frozenset(same), len(same), frozenset(diff))


def sameness_matrix(g: Digraph) -> np.ndarray:
    """s(u, v) for every pair at once, as an n x n int64 array.

    Off the diagonal, (C C^T)[u, v] counts the third vertices that agree
    minus those that differ, so s = (n - 2 + C C^T) / 2.  The diagonal holds
    no sameness value.
    """
    c = _indicator_matrix(g)
    return (g.n - 2 + c @ c.T) // 2


def pair_sameness(g: Digraph) -> np.ndarray:
    """s(u, v) for the pairs u < v, in row-major order."""
    return sameness_matrix(g)[_pair_index(g.n)]


@dataclass(frozen=True)
class NeighborhoodProfile:
    pp: int  # common out-neighbors
    pm: int  # out of x, into y
    mp: int  # into x, out of y
    mm: int  # common in-neighbors


def neighborhood_profile(g: Digraph, x: int, y: int) -> NeighborhoodProfile:
    """Partition of the other n-2 vertices by their orientation toward x and y."""
    _require_tournament(g)
    if x == y:
        raise ValueError("profile needs two distinct vertices")
    counts = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
    for z in range(g.n):
        if z in (x, y):
            continue
        counts[(arc_indicator(g, x, z), arc_indicator(g, y, z))] += 1
    return NeighborhoodProfile(
        counts[(1, 1)], counts[(1, -1)], counts[(-1, 1)], counts[(-1, -1)]
    )


def doubly_regular_check(g: Digraph) -> bool:
    """Regular tournament where every pair has exactly (n-3)/4 common
    out-neighbors and (n-3)/4 common in-neighbors.

    For x != y with pp common out- and mm common in-neighbors,
    mm = pp + n - 1 - d+(x) - d+(y), so regularity gives mm = pp and
    s(x, y) = pp + mm = 2 pp: the test reads s = (n-3)/2 off the sameness
    kernel.
    """
    return _doubly_regular(g, pair_sameness(g))


def _doubly_regular(g: Digraph, s: np.ndarray) -> bool:
    """:func:`doubly_regular_check` on a tournament whose pair sameness
    vector ``s`` is already built."""
    n = g.n
    regular = (n - 3) % 4 == 0 and np.all(g.adjacency.sum(axis=1) == (n - 1) // 2)
    return bool(regular and np.all(s == (n - 3) // 2))


def e4c_count(g: Digraph) -> int:
    """Ordered 4-tuples of distinct vertices whose cyclic arc-indicator
    product is +1.

    Computed through trace(C^4) of the +-1 indicator matrix: tuples with a
    repeated adjacent entry vanish on the zero diagonal, and the two
    non-adjacent repeat patterns contribute a closed form thanks to
    antisymmetry, leaving

        sum over distinct tuples = tr(C^4) - n(n-1) - 2 n(n-1)(n-2).

    The count is then (T + sum)/2 with T = n(n-1)(n-2)(n-3) ordered tuples.
    Equals the quartic brute-force count (see tests); the trace is read off
    the sameness kernel (see :func:`_e4c`).
    """
    return _e4c(g.n, pair_sameness(g))


def _e4c(n: int, s: np.ndarray) -> int:
    """:func:`e4c_count` of an n-vertex tournament from its pair sameness
    vector ``s``.

    C is antisymmetric, so C^2 = -C C^T and tr(C^4) is the sum of the
    squared entries of C C^T: n - 1 on the diagonal and 2 s - n + 2 off it,
    so tr(C^4) = n(n-1)^2 + 2 sum over u < v of (2 s(u, v) - n + 2)^2.
    """
    if n < 4:
        return 0
    off = 2 * s - (n - 2)
    trace4 = n * (n - 1) ** 2 + 2 * int(off @ off)
    distinct_sum = trace4 - n * (n - 1) - 2 * n * (n - 1) * (n - 2)
    total = n * (n - 1) * (n - 2) * (n - 3)
    count2, rem = divmod(total + distinct_sum, 2)
    if rem:
        raise AssertionError("parity violation in cycle-count identity")
    return count2


def quasirandom_deviation(g: Digraph) -> int:
    """Exact sum over ordered pairs of |s(u, v) - n/2|.

    Each term is a half-integer; doubling over ordered pairs makes the total
    an integer, returned exactly: the sum of |2 s(u, v) - n| over u < v.
    """
    return _deviation(g.n, pair_sameness(g))


def _deviation(n: int, s: np.ndarray) -> int:
    """:func:`quasirandom_deviation` of an n-vertex tournament from its
    pair sameness vector ``s``."""
    return int(np.abs(2 * s - n).sum())
