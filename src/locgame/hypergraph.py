"""Hypergraphs and their vertex covers: exact-ish machinery for the
covering bounds (greedy cover, fractional cover via LP, and the
log-degree rounding bound)."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lp import solve_min_equality


class EmptyEdgeError(ValueError):
    """A hyperedge with no vertices cannot be covered."""


class Hypergraph:
    """Vertex set 0..n-1 plus a list of hyperedges, given and stored as a
    boolean edge x vertex incidence matrix: edge i is the set of columns
    marked in row i.  The matrix is held as a read-only view, not a copy.
    """

    __slots__ = ("n", "_incidence")

    def __init__(self, incidence: np.ndarray):
        incidence = np.asarray(incidence, dtype=bool).view()
        incidence.flags.writeable = False
        self.n = incidence.shape[1]
        self._incidence = incidence

    def incidence(self) -> np.ndarray:
        """Read-only edge x vertex membership matrix: row i marks the
        vertices of edge i."""
        return self._incidence

    @property
    def edge_count(self) -> int:
        return len(self._incidence)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={self.edge_count})"


def _cover_incidence(h: Hypergraph) -> np.ndarray:
    """The incidence matrix of a hypergraph that has a vertex cover.

    Raises :class:`EmptyEdgeError` when an edge is empty.
    """
    inc = h.incidence()
    empty = np.flatnonzero(~inc.any(axis=1))
    if len(empty):
        raise EmptyEdgeError(f"edge {empty[0]} is empty")
    return inc


def max_membership(h: Hypergraph) -> int:
    """Largest number of hyperedges any one vertex belongs to."""
    return int(h.incidence().sum(axis=0).max(initial=0))


def greedy_vertex_cover(h: Hypergraph) -> frozenset[int]:
    """Max-coverage greedy: repeatedly take the vertex hitting the most
    uncovered edges (lowest id on ties, as ``argmax`` returns the first
    maximum)."""
    inc = _cover_incidence(h)
    uncovered = np.ones(len(inc), dtype=bool)
    # hits[v]: uncovered edges containing v; all zero once every edge is hit
    hits = inc.sum(axis=0)
    cover: set[int] = set()
    while hits.any():
        best = int(np.argmax(hits))
        hit = uncovered & inc[:, best]
        cover.add(best)
        uncovered &= ~hit
        hits -= inc[hit].sum(axis=0)
    return frozenset(cover)


class FractionalCover(NamedTuple):
    """An optimal fractional cover (``assignment``, one weight per vertex)
    with an optimal packing (``packing``, one weight per edge) certifying
    it: both sum to ``value``."""

    value: float
    assignment: tuple[float, ...]
    packing: tuple[float, ...]


def fractional_vertex_cover(h: Hypergraph) -> FractionalCover:
    """Optimal fractional cover: minimize sum(x) with sum over each edge >= 1
    and x >= 0.  No upper bound x <= 1 is needed: lowering any x_v > 1 to 1
    keeps every edge covered, so no optimum exceeds 1.

    The in-package simplex solves the dual packing LP, maximize sum(y) with
    sum over the edges at each vertex <= 1 and y >= 0: it has one row per
    vertex rather than one per edge, and its slack basis is feasible.  The
    cover is the negated dual of the packing's vertex rows.

    The edge columns go into the LP smallest edge first (a stable sort, so
    equal sizes keep their order).  At the slack basis every edge prices at
    -1 and the solver enters the first, so its opening pivots build a
    greedy packing of small edges, and fewer pivots remain: on the
    distinguisher hypergraphs of ``random_tournament(14, 0.5, s)`` for
    s < 64 it takes 1 298 pivots in all against 1 964 in edge order.
    ``packing`` is written back in the hypergraph's own edge order.

    Raises :class:`EmptyEdgeError` when an edge is empty (infeasible).
    """
    inc = _cover_incidence(h)
    m, n = inc.shape
    if m == 0:
        return FractionalCover(0.0, (0.0,) * n, ())

    # standard form: edge weight y (m, smallest edge first) | vertex slack (n)
    order = np.argsort(inc.sum(axis=1), kind="stable")
    a = np.hstack([inc[order].T, np.eye(n)])
    c = np.zeros(m + n)
    c[:m] = -1.0
    sol = solve_min_equality(c, a, np.ones(n))
    packing = np.empty(m)
    packing[order] = sol.x[:m]
    return FractionalCover(-sol.value, tuple(-d for d in sol.duals), tuple(packing.tolist()))


def lovasz_bound(h: Hypergraph, tau_star: float) -> float:
    """Rounding bound (1 + ln d) * tau_star, where d is the largest edge
    membership of a vertex; 0 when the hypergraph has no edges."""
    d = max_membership(h)
    if d == 0:
        return 0.0
    return (1.0 + math.log(d)) * tau_star
