"""Hypergraphs and their vertex covers: exact-ish machinery for the
covering bounds (greedy cover, fractional cover via LP, and the
log-degree rounding bound)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .lp import InfeasibleError, solve_min_equality


class EmptyEdgeError(ValueError):
    """A hyperedge with no vertices cannot be covered."""


class Hypergraph:
    """Vertex set 0..n-1 plus a list of hyperedges (vertex sets).

    ``labels``, when present, names each edge; distinguisher hypergraphs
    label edge t with the vertex pair it separates.
    """

    __slots__ = ("n", "edges", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[Iterable[int]],
        labels: Iterable[tuple[int, int]] | None = None,
    ):
        self.n = n
        self.edges = tuple(frozenset(e) for e in edges)
        for e in self.edges:
            if any(not 0 <= v < n for v in e):
                raise ValueError(f"edge {sorted(e)} out of range for n={n}")
        self.labels = tuple(tuple(l) for l in labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != len(self.edges):
            raise ValueError("one label per edge required")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={self.edge_count})"


def max_membership(h: Hypergraph) -> int:
    """Largest number of hyperedges any one vertex belongs to."""
    counts = [0] * h.n
    for e in h.edges:
        for v in e:
            counts[v] += 1
    return max(counts, default=0)


def greedy_vertex_cover(h: Hypergraph) -> frozenset[int]:
    """Max-coverage greedy: repeatedly take the vertex hitting the most
    uncovered edges (lowest id on ties)."""
    for i, e in enumerate(h.edges):
        if not e:
            raise EmptyEdgeError(f"edge {i} is empty")
    uncovered = set(range(len(h.edges)))
    cover: set[int] = set()
    membership: list[set[int]] = [set() for _ in range(h.n)]
    for i, e in enumerate(h.edges):
        for v in e:
            membership[v].add(i)
    while uncovered:
        best = max(
            range(h.n),
            key=lambda v: (len(membership[v] & uncovered), -v),
        )
        hit = membership[best] & uncovered
        if not hit:
            raise AssertionError("uncovered edge with no vertices")
        cover.add(best)
        uncovered -= hit
    return frozenset(cover)


@dataclass(frozen=True)
class FractionalCover:
    value: float
    assignment: tuple[float, ...]


def fractional_vertex_cover(h: Hypergraph) -> FractionalCover:
    """Optimal fractional cover: minimize sum(x) with sum over each edge >= 1
    and x >= 0, solved by the in-package simplex.  No upper bound x <= 1 is
    needed: lowering any x_v > 1 to 1 keeps every edge covered, so no
    optimum exceeds 1.

    Raises :class:`EmptyEdgeError` when an edge is empty (infeasible).
    """
    for i, e in enumerate(h.edges):
        if not e:
            raise EmptyEdgeError(f"edge {i} is empty")
    n, m = h.n, len(h.edges)
    if m == 0:
        return FractionalCover(0.0, (0.0,) * n)

    # standard form: x (n) | edge surplus (m)
    cols = n + m
    a = np.zeros((m, cols))
    b = np.ones(m)
    for i, e in enumerate(h.edges):
        for v in e:
            a[i, v] = 1.0
        a[i, n + i] = -1.0
    c = np.zeros(cols)
    c[:n] = 1.0
    try:
        sol = solve_min_equality(c, a, b)
    except InfeasibleError as exc:  # cannot happen with nonempty edges
        raise EmptyEdgeError(str(exc)) from exc
    return FractionalCover(sol.value, sol.x[:n])


def lovasz_bound(h: Hypergraph, tau_star: float) -> float:
    """Rounding bound (1 + ln d) * tau_star, where d is the largest edge
    membership of a vertex; 0 when the hypergraph has no edges."""
    d = max_membership(h)
    if d == 0:
        return 0.0
    return (1.0 + math.log(d)) * tau_star
