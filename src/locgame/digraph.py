"""Immutable oriented digraphs, directed distances, and graph file formats.

Vertices are dense integers ``0..n-1``.  Graphs are *oriented*: at most one
arc per unordered vertex pair, no self-loops.  :class:`Digraph` holds them
as one read-only n x n bool matrix, the only adjacency format, and caches
what is derived from it: its distance array and its automorphisms.  The
distance array holds unreachability as the int sentinel
:data:`UNREACHABLE`, which sorts above every finite distance and equals only
itself.  Python values leaving the package (probe answers, diameter, spread)
carry :data:`INF` (``math.inf``) in its place, which orders the same way.
"""

from __future__ import annotations

import functools
import json
import math
import re
from pathlib import Path
from typing import Iterable

import numpy as np

INF = math.inf
UNREACHABLE = np.iinfo(np.int32).max
# the n x n arrays all_pairs_distances may hold at once, 17 bytes per pair;
# admits n <= 3 973
MAX_DISTANCE_BYTES = 1 << 28
# the constructor's bool adjacency matrix and its digon-check temporary,
# 2 bytes per pair; admits n <= 11 585
MAX_ADJACENCY_BYTES = 1 << 28


class BudgetExceededError(RuntimeError):
    """The instance exceeds an explicit size budget of an exact routine."""


def _check_bytes(what: str, need: int, limit: int) -> None:
    """Raise :class:`BudgetExceededError` when ``need`` bytes exceed
    ``limit``; ``what`` opens the message, up to the byte count."""
    if need > limit:
        raise BudgetExceededError(f"{what} {need} bytes, over the limit of {limit}")


def _check_adjacency(n: int) -> None:
    """The constructor's preflight for ``n`` vertices; the families call it
    before they build their adjacency patterns."""
    need = 2 * int(n) ** 2
    _check_bytes(f"the adjacency matrix of {n} vertices needs", need, MAX_ADJACENCY_BYTES)


class Digraph:
    """An immutable simple oriented digraph.

    ``adjacency[u, v]`` is True exactly when u -> v is an arc; the matrix is
    read-only.  The arcs are pairs of integers, an (m, 2) integer array of
    them, or an n x n bool matrix, which is copied.  Construction validates
    every arc and orientation, with the same messages for every input;
    instances are safe to share between threads.  The distances and the
    automorphisms are computed once per graph, on the first call that needs
    them.  A vertex count whose matrix and digon check would exceed
    :data:`MAX_ADJACENCY_BYTES` raises :class:`BudgetExceededError` before
    anything is allocated.
    """

    __slots__ = ("n", "adjacency", "_distances", "_automorphisms")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] | np.ndarray):
        if not _is_int(type(n)):
            raise ValueError(f"vertex count must be an integer, not {type(n).__name__}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        _check_adjacency(n)
        if isinstance(arcs, np.ndarray) and arcs.dtype == bool:
            if arcs.shape != (n, n):
                raise ValueError(f"adjacency matrix of shape {arcs.shape} for n={n}")
            # copy() is C-ordered, a transposed view's too, and aliases nothing
            adjacency, ends, in_range = arcs.copy(), None, True
        else:
            if isinstance(arcs, np.ndarray) and arcs.dtype.kind in "iu" and arcs.shape[1:] == (2,):
                # wrapping a huge unsigned endpoint to a negative one keeps it out of range
                ends = arcs.T.astype(np.intp)
            else:
                arcs = list(arcs)
                ends = _endpoints(n, arcs)
            adjacency = np.zeros((n, n), dtype=bool)
            in_range = ((ends >= 0) & (ends < n)).all()
            if in_range:
                adjacency[tuple(ends)] = True
        # a self-loop or a digon puts an arc u -> v with v -> u in the matrix
        if not in_range or (adjacency & adjacency.T).any():
            if ends is None:  # the matrix's arcs in row-major order, as argwhere lists them
                arcs = np.argwhere(adjacency)
                ends = arcs.T
            raise ValueError(_first_fault(n, arcs, ends))
        adjacency.flags.writeable = False
        self.n = int(n)  # a numpy count too, so JSON can write it
        self.adjacency = adjacency
        self._distances: np.ndarray | None = None
        # the maps automorphisms() keeps, and whether a budget cut them short
        self._automorphisms: tuple[tuple[tuple[int, ...], ...], bool] | None = None

    # -- queries -----------------------------------------------------------

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(self.adjacency[self._vertex(u)].nonzero()[0].tolist())

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(self.adjacency[:, self._vertex(u)].nonzero()[0].tolist())

    def out_degree(self, u: int) -> int:
        return int(np.count_nonzero(self.adjacency[self._vertex(u)]))

    def in_degree(self, u: int) -> int:
        return int(np.count_nonzero(self.adjacency[:, self._vertex(u)]))

    def has_arc(self, u: int, v: int) -> bool:
        try:
            return bool(self.adjacency[tuple(_vertices(self.n, (u, v), "vertex"))])
        except ValueError:  # u or v is not a vertex
            return False

    def is_source(self, u: int) -> bool:
        return not self.adjacency[:, self._vertex(u)].any()

    def _vertex(self, u: int) -> int:
        return _vertices(self.n, (u,), "vertex")[0]

    def is_tournament(self) -> bool:
        """True iff exactly one arc joins every pair of distinct vertices.

        The constructor admits at most one arc per pair, so counting the
        arcs suffices.
        """
        return self.arc_count == self.n * (self.n - 1) // 2

    @property
    def arc_count(self) -> int:
        return int(np.count_nonzero(self.adjacency))

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_arcs())

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return list(map(tuple, np.argwhere(self.adjacency).tolist()))

    def distances(self) -> np.ndarray:
        """All-pairs directed distances, by :func:`all_pairs_distances` on
        the first call and cached; two threads racing here compute the same
        array twice."""
        if self._distances is None:
            self._distances = all_pairs_distances(self)
        return self._distances

    def converse(self) -> Digraph:
        """The digraph with every arc reversed.  Its distances are the
        transpose of these, d'(u, v) = d(v, u), so when these are cached it
        starts with a read-only contiguous copy of them and runs no BFS."""
        reverse = Digraph(self.n, self.adjacency.T)
        if self._distances is not None:
            reverse._distances = np.ascontiguousarray(self._distances.T)
            reverse._distances.flags.writeable = False
        return reverse

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Vertex permutations preserving every distance, in lexicographic
        order, so the identity comes first.

        A map preserves distances exactly when it preserves arcs, since
        d = 1 exactly on arcs.  On a group of at most
        :data:`MAX_AUTOMORPHISMS` maps the result is the whole group.  On a
        larger one it is the lexicographically least
        :data:`MAX_AUTOMORPHISMS` maps, which all lie in the stabiliser of
        some prefix 0..v-1 of the vertices.  When the search spends its
        :data:`MAX_AUTOMORPHISM_NODES` nodes first, the result is the
        stabiliser of the longest prefix it finished, a subgroup.  Every
        kept map is a verified automorphism; :meth:`automorphisms_truncated`
        tells whether a budget cut the search short.  Computed on the first
        call and cached.
        """
        if self._automorphisms is None:
            self._automorphisms = _search_automorphisms(self.distances())
        return self._automorphisms[0]

    def automorphisms_truncated(self) -> bool:
        """True when a budget stopped the search of :meth:`automorphisms`,
        so its maps may be only part of the group."""
        self.automorphisms()
        return self._automorphisms[1]

    def induced(self, vertices: Iterable[int]) -> tuple["Digraph", list[int]]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (relabeled to ``0..k-1``) together with the
        list mapping new ids back to the original ids.  An id that is not
        a vertex raises ValueError.
        """
        keep = sorted(set(_vertices(self.n, vertices, "vertex")))
        sub = self.adjacency[np.ix_(keep, keep)]
        return Digraph(len(keep), sub), keep

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


def _is_int(kind: type) -> bool:
    """Whether the type's values are integers: numpy's count, bool does not."""
    return kind is not bool and issubclass(kind, (int, np.integer))


def _vertices(n: int, values: Iterable, what: str) -> list[int]:
    """The values as Python ints; ValueError, naming ``what``, at the first
    that is not an integer in 0..n-1 (numpy would read a bool as a mask)."""
    vertices = []
    for v in values:
        if not (_is_int(type(v)) and 0 <= v < n):
            raise ValueError(f"{what} {v} out of range for n={n}")
        vertices.append(int(v))
    return vertices


def _check_integers(values: Iterable, what: str) -> None:
    """Raise unless every value is :func:`_is_int`, naming the other types."""
    odd = [t.__name__ for t in set(map(type, values)) if not _is_int(t)]
    if odd:
        raise ValueError(f"{what} must be integers, not {', '.join(sorted(odd))}")


def _endpoints(n: int, arcs: list) -> np.ndarray:
    """The tails and heads of the arcs as the two rows of an intp array;
    raises unless every arc is a pair of integers."""
    if set(map(len, arcs)) - {2}:
        # unpacking the first arc that is not a pair raises the error for it
        u, v = next(arc for arc in arcs if len(arc) != 2)
    ends = sum(zip(*arcs), ())  # every tail, then every head
    _check_integers(ends, "arc endpoints")
    try:
        ends = np.fromiter(ends, np.intp, len(ends))
    except OverflowError:
        # an endpoint too large for intp is out of range: -1 stands for it
        ends = np.fromiter((x if 0 <= x < n else -1 for x in ends), np.intp, len(ends))
    return ends.reshape(2, -1)


def _first_fault(n: int, arcs: list | np.ndarray, ends: np.ndarray) -> str:
    """The error for the first arc, in input order, that is out of range, a
    self-loop or the later arc of a digon."""
    tails, heads = ends
    bad = ((ends < 0) | (ends >= n)).any(axis=0) | (tails == heads)
    kept = np.flatnonzero(~bad)
    # the kept arcs by key u * n + v, stably, so the first of equal keys is
    # the first such arc in input order; no n x n array is made
    keys = tails[kept] * n + heads[kept]
    order = np.argsort(keys, kind="stable")
    reverse = heads[kept] * n + tails[kept]
    at = np.minimum(np.searchsorted(keys[order], reverse), len(keys) - 1)
    bad[kept] = (keys[order[at]] == reverse) & (kept[order[at]] < kept)
    u, v = arcs[int(np.argmax(bad))]
    if not (0 <= u < n and 0 <= v < n):
        return f"arc ({u},{v}) out of range for n={n}"
    if u == v:
        return f"self-loop at vertex {u}"
    return f"digon between {u} and {v} (graph must be oriented)"


# budget of the automorphism search: maps kept, and search-tree nodes visited
MAX_AUTOMORPHISMS = 256
MAX_AUTOMORPHISM_NODES = 20_000


class _NodeBudgetSpent(Exception):
    """Ends the automorphism search once it has visited
    :data:`MAX_AUTOMORPHISM_NODES` nodes."""


def _search_automorphisms(dist: np.ndarray) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """The maps :meth:`Digraph.automorphisms` keeps, and whether a
    budget cut the search short, from the distance array.

    A coset search along the base 0..n-1.  Images are assigned in vertex
    order with forward checking.  The pair (d(w, x), d(x, w)), unreachable
    read as n, is coded as one int, its rank among the distinct pairs of
    the graph, and ``fits[w][code]`` is the mask of vertices x whose pair
    with w has that code.  Mapping v to w narrows the domain of every later
    vertex u to ``fits[w][codes[v][u]]``, and its cell, the later vertices
    that agree with u on every mapped vertex, to ``fits[v][...]`` alike; a
    map onto a domain of another size than the cell cannot be a bijection,
    so the branch is cut.  Domains and cells start as the vertices with the
    same multiset of codes.  Only x = w is at distance 0 from w, so images
    stay distinct and every leaf preserves all distances.  Each assignment
    tried is one search node.

    The domains are first narrowed along the identity.  Then, for v from
    n-1 down to 0, the orbit of v under the maps found so far grows: for
    each w in v's domain outside that orbit, a depth-first search looks for
    one leaf that fixes 0..v-1 and sends v to w, and keeps it as a
    generator.  Once v is done, its orbit is v's orbit under G_v, the
    stabiliser of 0..v-1, and |G_v| is the product of the orbit sizes so
    far; the search stops at the first v where that reaches
    :data:`MAX_AUTOMORPHISMS`.  G_v is listed as the products of the orbit
    transversals, sorted and cut to the budget.  A map that moves some
    vertex below v sends the first such vertex higher, so it sorts above
    all of G_v: the kept maps are the least of the whole group.  When the
    node budget runs out, the stabiliser of the last finished level is
    kept.
    """
    n = len(dist)
    codes, count = _pair_codes(dist)
    bits = [1 << x for x in range(n)]
    fits = [[0] * count for _ in range(n)]
    for fit, row in zip(fits, codes):
        for code, bit in zip(row, bits):
            fit[code] |= bit
    # a vertex's domain: the vertices with the same multiset of codes
    groups: dict[tuple[int, ...], int] = {}
    profile = [tuple(sorted(row)) for row in codes]
    for v, key in enumerate(profile):
        groups[key] = groups.get(key, 0) | 1 << v
    domains = [groups[key] for key in profile]
    # every leaf searched fixes a prefix 0..v-1, so image[:v] is the identity
    image = list(range(n))
    nodes = 0

    def visit() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > MAX_AUTOMORPHISM_NODES:
            raise _NodeBudgetSpent

    def narrow(v: int, w: int, domains: list[int], cells: list[int]):
        """The domains and cells after mapping v to w, or None when the
        branch is cut."""
        narrowed, split = domains[:], cells[:]
        to_w, to_v, row = fits[w], fits[v], codes[v]
        for u in range(v + 1, n):
            code = row[u]
            narrowed[u] &= to_w[code]
            split[u] &= to_v[code]
            if narrowed[u].bit_count() != split[u].bit_count():
                return None
        return narrowed, split

    def first_leaf(v: int, domains: list[int], cells: list[int]):
        """The least map extending ``image[:v]`` within the domains, or None."""
        if v == n:
            return tuple(image)
        dom = domains[v]
        while dom:
            low = dom & -dom
            dom ^= low
            visit()
            image[v] = w = low.bit_length() - 1
            step = narrow(v, w, domains, cells)
            leaf = step and first_leaf(v + 1, *step)
            if leaf:
                return leaf
        return None

    # path[v]: the domains once 0..v-1 are fixed, which equal their cells
    path = [domains]
    generators: list[tuple[int, ...]] = []
    transversals = []
    order = 1
    truncated = False
    try:
        for v in range(n):
            visit()
            path.append(narrow(v, v, path[v], path[v])[0])
        for v in reversed(range(n)):
            reps = _transversal(v, generators, n)
            rest = path[v][v]
            while rest:
                low = rest & -rest
                rest ^= low
                if low.bit_length() - 1 in reps:
                    continue
                only_w = path[v][:]
                only_w[v] = low
                leaf = first_leaf(v, only_w, path[v])
                if leaf:
                    generators.append(leaf)
                    reps = _transversal(v, generators, n)
            transversals.append(list(reps.values()))
            order *= len(reps)
            if order >= MAX_AUTOMORPHISMS and v > 0:
                truncated = True
                break
    except _NodeBudgetSpent:
        truncated = True
    group = np.arange(n)[None]
    for reps in transversals:
        group = np.array(reps)[:, group].reshape(-1, n)
    if len(group) > 1:
        truncated |= len(group) > MAX_AUTOMORPHISMS
        group = group[np.lexsort(group.T[::-1])][:MAX_AUTOMORPHISMS]
    return tuple(map(tuple, group.tolist())), truncated


def _pair_codes(dist: np.ndarray) -> tuple[list[list[int]], int]:
    """codes[w][x], the rank of the pair (d(w, x), d(x, w)), unreachable
    read as n, among the C distinct pairs of the distance array; and C."""
    n = len(dist)
    d = np.minimum(np.asarray(dist, dtype=np.int64), n)
    pairs = (d * (n + 1) + d.T).ravel()
    order = np.argsort(pairs)
    codes = np.empty_like(pairs)
    codes[order] = np.cumsum(_run_starts(pairs[order])) - 1
    return codes.reshape(n, n).tolist(), int(codes.max(initial=-1)) + 1


def _transversal(
    v: int, generators: list[tuple[int, ...]], n: int
) -> dict[int, tuple[int, ...]]:
    """For each w in the orbit of v under the generators, a product of them
    that sends v to w."""
    reps = {v: tuple(range(n))}
    queue = [v]
    for u in queue:
        for g in generators:
            if g[u] not in reps:
                reps[g[u]] = tuple(g[x] for x in reps[u])
                queue.append(g[u])
    return reps


def _run_starts(ranked: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted 1-d array starts, as a bool
    mask: with the sort, ``np.unique`` without its first call's megabytes of RSS."""
    starts = np.empty(len(ranked), dtype=bool)
    starts[:1] = True  # preset: a tenth of the time of np.diff(prepend=...)
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    return starts


@functools.lru_cache(maxsize=1)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``: the two vertices of every pair u < v, in
    ``combinations`` order, as read-only arrays.  The last n asked is kept,
    since the kernels of one graph ask for the same n in turn."""
    xs, ys = np.triu_indices(n, 1)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def all_pairs_distances(g: Digraph) -> np.ndarray:
    """Shortest directed path lengths as a read-only int32 n x n array,
    :data:`UNREACHABLE` where there is no path, by a BFS from every vertex.

    Level 1 is the arcs.  Each later level finds the out-neighbours of the
    frontier, the pairs (s, v) with v first reached from s at the level
    before, that are not yet reached.  The frontier is held in one of two
    forms, converted only when the choice below changes:

    - flat indices s * n + v, when its out-arcs are expected to number
      below n**3 / 64 (frontier size times mean out-degree): the level
      gathers those arcs, so a long path costs O(n * arcs) in all, not the
      O(n**4) of a product per level;
    - otherwise an n x n float32 0/1 matrix F: the level is one product
      ``F @ A`` with the float32 adjacency matrix A, kept where it exceeds
      the reached state.

    The reached state is one float32 n x n array holding n + d(s, v) for
    each pair reached and 0 for the rest.  A product entry is at most n, so
    it exceeds the state exactly on the pairs it newly reaches.  The search
    stops once a level reaches nothing or every pair is reached.

    Raises :class:`BudgetExceededError`, before allocating, when the n x n
    arrays held at once (the state, A, F, its product and the bool mask of
    new pairs) would exceed ``MAX_DISTANCE_BYTES`` at 17 bytes per pair.
    """
    n = g.n
    _check_bytes(f"the distance arrays of {n} vertices need", 17 * n * n, MAX_DISTANCE_BYTES)
    arc_count = np.count_nonzero(g.adjacency)
    adjacency = g.adjacency.astype(np.float32)
    seen = adjacency * np.float32(n + 1)
    seen.ravel()[:: n + 1] = n
    flat = seen.ravel()
    # the level-1 frontier is the arcs, as a matrix, or as flat indices
    dense, frontier = adjacency, None
    count, reached = arc_count, n + arc_count
    arc_lists = None  # out-degrees, heads and first out-arcs, for gathers
    level = 1
    while count and reached < n * n:
        level += 1
        if 64 * count * arc_count < n**4:
            if frontier is None:
                frontier, dense = np.flatnonzero(dense > 0), None
            if arc_lists is None:
                # the out-arcs in row-major order: grouped by tail, heads ascending
                arc_tails, heads = np.divmod(np.flatnonzero(g.adjacency), n)
                degree = np.bincount(arc_tails, minlength=n)
                arc_lists = degree, heads, np.cumsum(degree) - degree
            degree, heads, first_arc = arc_lists
            sources, tails = np.divmod(frontier, n)
            steps = degree[tails]
            # gathered arc j is out-arc j - start of its pair's tail, where
            # start is the first gathered arc of that pair
            start = np.cumsum(steps) - steps
            arcs = np.arange(steps.sum()) + np.repeat(first_arc[tails] - start, steps)
            step = np.repeat(sources * n, steps) + heads[arcs]
            step = step[flat[step] == 0]
            step.sort()
            frontier = step[_run_starts(step)]
            flat[frontier] = n + level
            count = len(frontier)
        else:
            if dense is None:
                dense = np.zeros((n, n), dtype=np.float32)
                dense.ravel()[frontier] = 1
                frontier = None
            new = dense @ adjacency > seen
            dense = new.astype(np.float32)
            np.putmask(seen, new, n + level)
            count = np.count_nonzero(new)
        reached += count
    dist = seen.astype(np.int32)
    dist -= n
    # an unreached pair now holds -n, which read as uint32 lies above
    # UNREACHABLE: one minimum puts the sentinel there
    np.minimum(dist.view(np.uint32), UNREACHABLE, out=dist.view(np.uint32))
    dist.flags.writeable = False
    return dist


def diameter(g: Digraph) -> float:
    """Largest pairwise distance as an int; INF if any ordered pair is
    unreachable."""
    if g.n == 0:
        raise ValueError("diameter of the empty digraph is undefined")
    d = int(g.distances().max())
    return INF if d == UNREACHABLE else d


# -- file formats ----------------------------------------------------------
#
# Edge-list text: first non-comment line is n, then one "u v" arc per line.
# JSON: {"n": int, "arcs": [[u, v], ...]}.  Both round-trip losslessly.


def to_edge_list(g: Digraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.sorted_arcs())
    return "\n".join(lines) + "\n"


# An edge list of ASCII digits, spaces, tabs and newlines only: the count
# line, then one "u v" line per arc, blank lines anywhere, and no number too
# long for int64.  (``int`` also reads Unicode digits and "1_0", so those
# texts, like comments and negative ids, take the line loop.)
_PLAIN_EDGE_LIST = re.compile(
    r"[ \t\n]*[0-9]{1,18}[ \t]*(?:\n[ \t\n]*[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*)*[ \t\n]*"
)


def from_edge_list(text: str) -> Digraph:
    """The digraph of an edge list.  A plain one (see ``_PLAIN_EDGE_LIST``)
    is read as one array of numbers; any other text line by line, which
    gives the same graph or raises the same error."""
    if _PLAIN_EDGE_LIST.fullmatch(text):
        numbers = np.array(text.split(), dtype=np.int64)
        return Digraph(int(numbers[0]), numbers[1:].reshape(-1, 2))
    return Digraph(*_edge_list_lines(text))


def _edge_list_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and arcs of an edge list, read line by line."""
    n = None
    arcs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = int(line)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed arc line: {raw!r}")
        arcs.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise ValueError("edge list is missing the vertex count line")
    return n, arcs


def to_json(g: Digraph) -> str:
    return json.dumps({"n": g.n, "arcs": [list(a) for a in g.sorted_arcs()]})


def from_json(text: str) -> Digraph:
    return _from_data(json.loads(text))


def _from_data(data: object) -> Digraph:
    data = _json_object(data, "n, arcs", "arcs")
    return Digraph(data["n"], [tuple(a) for a in data["arcs"]])


def _json_object(data: object, keys: str, rows: str) -> dict:
    """``data``, checked to be a JSON object whose field ``rows``, where
    present, is a list of lists; a missing key is left to the caller."""
    value = data.get(rows, []) if isinstance(data, dict) else None
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValueError(f"expected an object with keys {keys} ({rows}: a list of lists)")
    return data


def write_digraph(g: Digraph, path: str | Path) -> None:
    path = Path(path)
    text = to_json(g) + "\n" if _is_json(path) else to_edge_list(g)
    path.write_text(text)


def read_digraph(path: str | Path) -> Digraph:
    path = Path(path)
    text = path.read_text()
    return from_json(text) if _is_json(path) else from_edge_list(text)


def _is_json(path: Path) -> bool:
    return path.suffix.lower() == ".json"
