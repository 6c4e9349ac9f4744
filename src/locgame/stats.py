"""Tournament statistics: arc-indicator sameness sets, double regularity,
the oriented-4-cycle count, and the sameness deviation used to screen
quasi-randomness.

The whole-graph statistics come from products of the +-1 indicator matrix C:
:func:`tournament_stats` builds the sameness kernel C C^T once and reads
every statistic off it into one record, which the per-statistic functions
read too.  The per-pair ``sameness`` loop stays as the independent
definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    # in a tournament the indicators toward z agree exactly when z is an
    # out-neighbour of both u and v or of neither
    out_u, out_v = set(g.out_neighbors(u)), set(g.out_neighbors(v))
    same = frozenset(z for z in range(g.n) if z not in (u, v) and (z in out_u) == (z in out_v))
    return Sameness(same, len(same), frozenset(range(g.n)) - same - {u, v})


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


class TournamentStats(NamedTuple):
    """The statistics of one tournament; see :func:`tournament_stats`."""

    sameness: np.ndarray  # s(u, v) for the pairs u < v, as pair_sameness
    s_min: int | None  # None when there are no pairs
    s_max: int | None
    e4c: int
    e4c_ratio: float  # e4c over n^4 / 2, 0.0 when n = 0
    deviation: int
    doubly_regular: bool


def tournament_stats(g: Digraph) -> TournamentStats:
    """Every statistic of a tournament read off one sameness kernel.

    C is antisymmetric, so C^2 = -C C^T and tr(C^4) is the sum of the
    squared entries of C C^T: n - 1 on the diagonal and 2 s - n + 2 off it,
    so tr(C^4) = n(n-1)^2 + 2 sum over u < v of (2 s(u, v) - n + 2)^2.  Put
    into the identity of :func:`e4c_count`, that gives
    e4c = n(n-1)(n-2)(n-4)/2 + sum over u < v of (2 s(u, v) - n + 2)^2,
    an integer since n(n-1) is even, and 0 for every n < 4.
    """
    s = pair_sameness(g)
    n = g.n
    off = 2 * s - (n - 2)
    e4c = n * (n - 1) * (n - 2) * (n - 4) // 2 + int(off @ off)
    regular = (n - 3) % 4 == 0 and np.all(g.adjacency.sum(axis=1) == (n - 1) // 2)
    return TournamentStats(
        sameness=s,
        s_min=int(s.min()) if len(s) else None,
        s_max=int(s.max()) if len(s) else None,
        e4c=e4c,
        e4c_ratio=e4c / (n ** 4 / 2) if n else 0.0,
        deviation=int(np.abs(2 * s - n).sum()),
        doubly_regular=bool(regular and np.all(s == (n - 3) // 2)),
    )


def doubly_regular_check(g: Digraph) -> bool:
    """Regular tournament where every pair has exactly (n-3)/4 common
    out-neighbors and (n-3)/4 common in-neighbors.

    For x != y with pp common out- and mm common in-neighbors,
    mm = pp + n - 1 - d+(x) - d+(y), so regularity gives mm = pp and
    s(x, y) = pp + mm = 2 pp: the test reads s = (n-3)/2 off the sameness
    kernel.
    """
    return tournament_stats(g).doubly_regular


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
    the sameness kernel (see :func:`tournament_stats`).
    """
    return tournament_stats(g).e4c


def quasirandom_deviation(g: Digraph) -> int:
    """Exact sum over ordered pairs of |s(u, v) - n/2|.

    Each term is a half-integer; doubling over ordered pairs makes the total
    an integer, returned exactly: the sum of |2 s(u, v) - n| over u < v.
    """
    return tournament_stats(g).deviation
