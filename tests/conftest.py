import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from locgame import (
    INF,
    UNREACHABLE,
    DagDecomposition,
    Digraph,
    Hypergraph,
    SccDecomposition,
    digraph,
    game,
)
from locgame.lp import TOL, LpSolution, UnboundedError


def hypergraph_of(n: int, edges) -> Hypergraph:
    """The hypergraph on 0..n-1 with the given edges, each an iterable of
    vertices, in order; a vertex out of range raises ValueError."""
    edges = [sorted(set(e)) for e in edges]
    incidence = np.zeros((len(edges), n), dtype=bool)
    for i, e in enumerate(edges):
        if any(not 0 <= v < n for v in e):
            raise ValueError(f"edge {e} out of range for n={n}")
        incidence[i, e] = True
    return Hypergraph(incidence)


def edge_sets(h: Hypergraph) -> tuple[frozenset[int], ...]:
    """The edges of h as vertex sets, in edge order."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in h.incidence())


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


def reference_random_tournament(n: int, p: float, seed: int) -> Digraph:
    """Reference random tournament: one draw per pair i < j in
    lexicographic order, arc i -> j when it falls below p."""
    rng = random.Random(seed)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            arcs.append((i, j) if rng.random() < p else (j, i))
    return Digraph(n, arcs)


# the arc-by-arc loops the families were once built by, to check their
# adjacency patterns against

def reference_rotation_tournament(m: int) -> Digraph:
    n = 2 * m + 1
    return Digraph(n, [(i, (i + j) % n) for i in range(n) for j in range(1, m + 1)])


def reference_tripartite_cycle(i: int) -> Digraph:
    arcs = []
    for j in range(3):
        src = range(j * i, j * i + i)
        dst = range(((j + 1) % 3) * i, ((j + 1) % 3) * i + i)
        arcs.extend((u, v) for u in src for v in dst)
    return Digraph(3 * i, arcs)


def reference_blowup(t: Digraph, k: int) -> Digraph:
    arcs = [(u * k + a, v * k + b) for (u, v) in t.arcs for a in range(k) for b in range(k)]
    return Digraph(t.n * k, arcs)


def reference_sc_tight(m: int, delta: int) -> Digraph:
    n_layer = 2 * m + 1
    arcs = []

    def vid(u: int, layer: int) -> int:
        return (layer - 1) * n_layer + u

    for layer in range(1, delta + 2):
        for u in range(n_layer):
            for j in range(1, m + 1):
                w = (u + j) % n_layer
                if layer == 1:
                    arcs.extend((vid(u, 1), vid(w, l2)) for l2 in range(1, delta + 2))
                else:
                    arcs.append((vid(u, layer), vid(w, layer)))
    return Digraph(n_layer * (delta + 1), arcs)


def reference_binary_source_extension(d: Digraph) -> Digraph:
    m = d.n
    b = math.ceil(math.log2(m)) if m > 1 else 0
    if b == 0:
        return d
    arcs = list(d.arcs)
    for i in range(b):
        source = m + i
        for u in range(m):
            if format(u, f"0{b}b")[i] == "0":
                arcs.append((source, u))
    return Digraph(m + b, arcs)


def reference_paley_tournament(q: int) -> Digraph:
    residues = {(x * x) % q for x in range(1, q)}
    arcs = [
        (i, j)
        for i in range(q)
        for j in range(q)
        if i != j and (j - i) % q in residues
    ]
    return Digraph(q, arcs)


def reference_transitive_tournament(n: int) -> Digraph:
    return Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def reference_simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LpSolution:
    """Reference simplex: the pricing, ratio test and pivot rules of
    ``lp.solve_min_equality`` written plainly, with fresh arrays each pivot,
    the basis as a Python list and the pivot as a separate function.  Its
    callers pass a valid slack basis, so it skips the input checks."""
    m, n = a.shape
    tableau = np.column_stack([a, b]).astype(float, copy=False)
    basis = list(range(n - m, n))
    pivots = degenerate = run = 0
    while True:
        body = tableau[:, :n]
        reduced = c - c[basis] @ np.where(np.abs(body) > TOL, body, 0.0)
        entering = int(np.argmin(reduced))
        if reduced[entering] >= -TOL:
            break
        if run >= m:
            entering = int(np.argmax(reduced < -TOL))
        col = tableau[:, entering]
        rows = np.flatnonzero(col > TOL)
        if not len(rows):
            raise UnboundedError("no leaving row for entering column")
        ratios = tableau[rows, -1] / col[rows]
        step = ratios.min()
        ties = rows[ratios <= step + TOL]
        leaving = min(ties.tolist(), key=basis.__getitem__)
        _reference_pivot(tableau, basis, leaving, entering)
        pivots += 1
        if step > TOL:
            run = 0
        else:
            degenerate += 1
            run += 1

    x = np.zeros(n)
    x[basis] = tableau[:, -1]
    duals = c[basis] @ tableau[:, n - m : n]
    return LpSolution(
        float(c @ x),
        tuple(x.tolist()),
        tuple(duals.tolist()),
        pivots,
        degenerate,
    )


def _reference_pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


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


def reference_strong_components(g: Digraph) -> SccDecomposition:
    """Reference strong components: Tarjan's algorithm, iterative, with the
    components renumbered topologically (his emission order reversed) and
    each listed in ascending vertex order."""
    n = g.n
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        # explicit DFS stack: (vertex, iterator position into out-neighbors)
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index_of[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            out = g.out_neighbors(v)
            while pi < len(out):
                w = out[pi]
                pi += 1
                if index_of[w] == -1:
                    work.append((v, pi))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            if lowlink[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    k = len(comps)
    comps.reverse()
    comp_of = [k - 1 - c for c in comp_of]
    cond_arcs = {
        (comp_of[u], comp_of[v])
        for (u, v) in g.arcs
        if comp_of[u] != comp_of[v]
    }
    return SccDecomposition(comp_of, comps, Digraph(k, cond_arcs))


def reference_automorphisms(dist: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Reference automorphism search: backtracking over vertex images in
    vertex order with forward checking, on the distance array as nested
    lists, which yields every leaf in lexicographic order.  It stops once it
    has kept ``digraph.MAX_AUTOMORPHISMS`` maps or visited
    ``digraph.MAX_AUTOMORPHISM_NODES`` nodes.

    ``fits[w][(a, b)]`` is the mask of vertices x with d(w, x) = a and
    d(x, w) = b.  Mapping v to w narrows the domain of every later vertex u
    to ``fits[w][(d(v, u), d(u, v))]``, and its cell, the later vertices
    that agree with u on every mapped vertex, to ``fits[v][...]`` alike; a
    map onto a domain of another size than the cell cannot be a bijection,
    so the branch is cut.  Domains and cells start as the vertices with the
    same multiset of such pairs.
    """
    n = len(dist)
    fits: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for w in range(n):
        for x in range(n):
            key = (dist[w][x], dist[x][w])
            fits[w][key] = fits[w].get(key, 0) | (1 << x)
    profile = [
        sorted((key, mask.bit_count()) for key, mask in fits[v].items())
        for v in range(n)
    ]
    domains = [
        sum(1 << w for w in range(n) if profile[w] == profile[v]) for v in range(n)
    ]
    found: list[tuple[int, ...]] = []
    image = [0] * n
    nodes = 0

    def extend(v: int, domains: list[int], cells: list[int]) -> bool:
        """Try every image of v; True once the budget stops the search."""
        nonlocal nodes
        if v == n:
            found.append(tuple(image))
            return len(found) >= digraph.MAX_AUTOMORPHISMS
        dom = domains[v]
        while dom:
            low = dom & -dom
            dom ^= low
            nodes += 1
            if nodes > digraph.MAX_AUTOMORPHISM_NODES:
                return True
            w = low.bit_length() - 1
            image[v] = w
            narrowed, split = domains[:], cells[:]
            for u in range(v + 1, n):
                key = (dist[v][u], dist[u][v])
                narrowed[u] &= fits[w].get(key, 0)
                split[u] &= fits[v][key]
                if narrowed[u].bit_count() != split[u].bit_count():
                    break
            else:
                if extend(v + 1, narrowed, split):
                    return True
        return False

    extend(0, domains, domains)
    return tuple(found) or (tuple(range(n)),)


class ReferenceRobber:
    """The optimal robber's choice written plainly: the least class under
    the key (caught, single, -size, least vertex), with ``wins`` asked of
    every non-singleton's ``robber_step``, in partition order."""

    def __init__(self, g: Digraph, k: int):
        self.g = g
        self.solver = game.LocalizationSolver(g, k)

    def choose(self, classes):
        def order(item):
            _, cls = item
            single = len(cls) == 1
            caught = single or self.solver.wins(game.robber_step(self.g, cls))
            return (caught, single, -len(cls), min(cls))

        return min(classes, key=order)


def reference_play(g: Digraph, cop_strategy, robber, max_rounds: int) -> game.GameTranscript:
    """Reference play engine: the round loop with nothing kept between
    rounds, calling ``partition_by_probe`` every round and ``robber_step``
    on every chosen non-singleton class."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    transcript = game.GameTranscript()
    candidates = frozenset(range(g.n))
    for number in range(1, max_rounds + 1):
        probe = game._normalize_probe(cop_strategy.next(transcript), g.n)
        if len(probe) > cop_strategy.cops:
            raise game.ProbeError(
                f"strategy probed {len(probe)} vertices with budget {cop_strategy.cops}"
            )
        classes = game.partition_by_probe(g, candidates, probe)
        vector, chosen = robber.choose(classes)
        if (vector, chosen) not in classes:
            raise ValueError("robber chose a class not in the current partition")
        if len(chosen) == 1:
            transcript.rounds.append(game.Round(number, probe, vector, chosen, chosen))
            transcript.outcome = game.Outcome(True, number, next(iter(chosen)))
            return transcript
        stepped = game.robber_step(g, chosen)
        transcript.rounds.append(game.Round(number, probe, vector, chosen, stepped))
        candidates = stepped
    transcript.outcome = game.Outcome(False, max_rounds)
    return transcript


def brute_e4c(g: Digraph) -> int:
    """Ordered 4-tuples of distinct vertices whose cyclic arc-indicator
    product is +1, by enumeration."""
    chi = lambda u, v: 1 if g.has_arc(u, v) else -1
    return sum(
        1
        for w, x, y, z in itertools.permutations(range(g.n), 4)
        if chi(w, x) * chi(x, y) * chi(y, z) * chi(z, w) == 1
    )


def arc_indicator(g: Digraph, u: int, v: int) -> int:
    """+1 if (u, v) is an arc, -1 otherwise; u and v must differ."""
    if u == v:
        raise ValueError("arc indicator undefined on the diagonal")
    return 1 if g.has_arc(u, v) else -1


@dataclass(frozen=True)
class NeighborhoodProfile:
    pp: int  # common out-neighbors
    pm: int  # out of x, into y
    mp: int  # into x, out of y
    mm: int  # common in-neighbors


def neighborhood_profile(g: Digraph, x: int, y: int) -> NeighborhoodProfile:
    """Partition of the other n-2 vertices by their orientation toward x and y."""
    if not g.is_tournament():
        raise ValueError("operation requires a tournament")
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


def dag_guard_condition(g: Digraph, dd: DagDecomposition) -> bool:
    """Cross-check of the DAG decomposition's arc condition in its original
    guard form.

    For every index arc (a, b): X_a ∩ X_b must guard X_{⪰b} \\ X_a, and for
    every source the whole down-set must be closed under out-arcs.  W guards
    V' when every arc leaving V' lands in V' ∪ W.
    """
    d = dd.index_dag
    bags = dd.bags
    reach = d.distances() != UNREACHABLE
    down = [frozenset().union(*(bags[k] for k in range(d.n) if reach[j, k])) for j in range(d.n)]

    def guards(w: frozenset, vs: frozenset) -> bool:
        return all(
            v in vs or v in w
            for u in vs
            for v in g.out_neighbors(u)
        )

    for j in range(d.n):
        if d.is_source(j) and not guards(frozenset(), down[j]):
            return False
    for (a, b) in d.arcs:
        if not guards(bags[a] & bags[b], down[b] - bags[a]):
            return False
    return True


@st.composite
def oriented_digraphs(draw, max_n=10, min_n=0):
    """Hypothesis strategy: each pair gets an arc either way or none."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    kinds = draw(st.lists(st.sampled_from("+-0"), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, [(u, v) if k == "+" else (v, u) for (u, v), k in zip(pairs, kinds) if k != "0"])


@st.composite
def circulants(draw, max_n=13):
    """Hypothesis strategy: circulant oriented digraphs i -> i + d (mod n)
    over a drawn set of steps d with no step and its negative both drawn."""
    n = draw(st.integers(1, max_n))
    half = (n - 1) // 2
    kinds = draw(st.lists(st.sampled_from("+-0"), min_size=half, max_size=half))
    steps = [d if k == "+" else n - d for d, k in enumerate(kinds, 1) if k != "0"]
    return Digraph(n, [(i, (i + d) % n) for i in range(n) for d in steps])


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
