"""Structural digraph algorithms: strong components (mutual reachability in
the graph's distance array, ordered by one depth-first search), topological
order, out-degeneracy, and the distance-spread parameter used by the
probe-count lower bound."""

from __future__ import annotations

import heapq
import math

import numpy as np

from .digraph import INF, UNREACHABLE, Digraph


class CyclicGraphError(ValueError):
    """Raised when an operation requires an acyclic digraph."""


class SccDecomposition:
    """Strong components with their acyclic condensation.

    Component ids are assigned in a topological order of the condensation,
    so every condensation arc (i, j) has i < j.
    """

    __slots__ = ("component_of", "components", "condensation")

    def __init__(self, component_of, components, condensation: Digraph):
        self.component_of = tuple(component_of)
        self.components = tuple(tuple(c) for c in components)
        self.condensation = condensation

    def __len__(self) -> int:
        return len(self.components)

    @property
    def max_out_degree(self) -> int:
        """Largest out-degree in the condensation (0 for a single component)."""
        return int(np.count_nonzero(self.condensation.adjacency, axis=1).max(initial=0))


def strong_components(g: Digraph) -> SccDecomposition:
    """Strong components, the classes of mutual reachability in the graph's
    cached distance array, each listed in ascending vertex order.

    Components are numbered by the first appearance of their vertices in the
    reverse finishing order of one depth-first search (roots 0..n-1,
    out-neighbours ascending): Tarjan's emission order reversed, since his
    search emits a component when its first-visited vertex, the last of its
    vertices to finish, finishes.
    """
    reach = g.distances() != UNREACHABLE
    mutual = reach & reach.T
    seen = [False] * g.n
    finished: list[int] = []
    # a virtual root whose out-neighbours are the roots 0..n-1
    work = [(-1, iter(range(g.n)))]
    while work:
        v, out = work[-1]
        for w in out:
            if not seen[w]:
                seen[w] = True
                work.append((w, iter(g.out_neighbors(w))))
                break
        else:
            finished.append(work.pop()[0])

    comp_of = [-1] * g.n
    comps: list[list[int]] = []
    for v in finished[-2::-1]:  # the virtual root finishes last
        if comp_of[v] == -1:
            comps.append(np.flatnonzero(mutual[v]).tolist())
            for u in comps[-1]:
                comp_of[u] = len(comps) - 1
    pairs = np.array(comp_of, dtype=np.intp)[np.argwhere(g.adjacency)]  # arcs as component pairs
    return SccDecomposition(comp_of, comps, Digraph(len(comps), pairs[pairs[:, 0] != pairs[:, 1]]))


def topological_sort(g: Digraph) -> list[int]:
    """Kahn's algorithm; lowest vertex id first among ready vertices.

    Raises :class:`CyclicGraphError` if the digraph has a directed cycle.
    """
    indeg = [g.in_degree(v) for v in range(g.n)]
    ready = [v for v in range(g.n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in g.out_neighbors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != g.n:
        raise CyclicGraphError("digraph has a directed cycle")
    return order


def out_degeneracy(g: Digraph) -> int:
    """Largest min-out-degree over all induced subgraphs, by iterative peeling.

    Repeatedly removes a vertex of minimum remaining out-degree (lowest id on
    ties) and returns the largest minimum seen.  Peeling is exact for this
    max-min quantity.
    """
    n = g.n
    alive = np.ones(n, dtype=bool)
    outdeg = np.count_nonzero(g.adjacency, axis=1)
    best = 0
    for _ in range(n):
        # removed vertices read n, above every out-degree; argmin takes the lowest id
        u = int(np.argmin(np.where(alive, outdeg, n)))
        best = max(best, int(outdeg[u]))
        alive[u] = False
        outdeg -= g.adjacency[:, u]
    return best


def spread_m(g: Digraph) -> float:
    """Distance-spread parameter: 1 + the largest range of d(u, .) over a
    closed out-neighborhood N+[v], maximized over ordered pairs (u, v).

    Returns INF when some N+[v] mixes reachable and unreachable vertices
    from some u; two unreachable vertices count as spread 0.
    """
    if g.n == 0:
        raise ValueError("spread of the empty digraph is undefined")
    dist = g.distances()
    worst = 0
    for v in range(g.n):
        closed = dist[:, [v, *g.out_neighbors(v)]]
        hi, lo = closed.max(axis=1), closed.min(axis=1)
        if ((hi == UNREACHABLE) & (lo != UNREACHABLE)).any():
            return INF
        # rows with every vertex unreachable read UNREACHABLE - UNREACHABLE = 0
        worst = max(worst, int((hi - lo).max()))
    return worst + 1


def localization_lower_bound(g: Digraph) -> float:
    """Probe-count lower bound log_M(k+1), with k the out-degeneracy and M
    the distance spread; 0 (vacuous) when M is infinite or the digraph has
    no arcs."""
    k = out_degeneracy(g)
    if k == 0:
        return 0.0
    m = spread_m(g)
    if m == INF:
        return 0.0
    # k >= 1 forces m >= 2: the pair (v, v) already spreads over N+[v].
    return math.log(k + 1) / math.log(m)
