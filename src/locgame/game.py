"""The localization game on digraphs: game state, the exact solver, the
worst-case robber, and the play engine.

The solver treats the game as a reachability game over candidate sets (the
vertices still consistent with every probe answer, measured just before a
probe).  A set S is a cop win when some probe splits S so that every part is
either a single vertex or leads, after the robber's move, to another winning
set.  The least fixpoint of that rule decides the game: any play that never
reaches it is a robber win.

States are vertex bitmasks.  Each distinct partition the probes induce on
the graph's cached distance array is one column of a zero-padded,
cell-major matrix of its non-singleton cells, so ``cells & S`` holds the
parts of S under every probe at once, one contiguous row per cell slot, and
two 12-bit tables of closed out-neighbourhoods step all of them through the
robber's move in two lookups.  The partitions are built level by level, a
probe set's row being its least vertex's row ANDed with the row of the
rest, and repeats are dropped by a sort on one hashed key per partition,
checked exactly.  The metric dimension search of :mod:`locgame.resolve`
runs on the same build.  An automorphism of the digraph maps winning sets
to winning sets, so each state is replaced by its representative: its least
image under the graph's cached automorphisms (:meth:`Digraph.automorphisms`)
and their inverses, read through byte tables.

One int8 verdict table over all 2^n masks (16 MB at n = 24) holds what is
known: 1 for won, -1 for an image of an explored representative not won,
0 for unknown.  When a representative is explored its undecided images are
marked -1, and when it wins all its images are marked 1, so any nonzero
entry answers for its mask in one lookup: ``wins`` needs no representative
there, and the explore computes representatives only for stepped parts
still at 0.

Set-up is paid only where it is needed.  The tables that do not depend on
k (the step tables and the automorphism tables) are kept for the last
graph asked about and shared by its solvers for k = 1, 2, ... and by those
of any equal graph.  A solver builds its partition matrix on its first
query (or the first read of its stats), so a robber that is never asked
builds none.

The fixpoint is computed by sweeps.  A query explores the representatives
newly reachable from it, breadth first, then re-evaluates only those, last
explored first, until a sweep wins no further state.  Earlier states are not
swept again: each of their successors was explored or won before them, so
they are at their fixpoint already, and a state lost there stays lost.
Within the sweeps a state is re-opened only when some win has been marked
since its last open; otherwise the open would give the same answer (a
local fixpoint in the sense of Liu and Smolka, ICALP 1998).

The play engine keeps, for the length of one game, the classes of each
(candidates, probe) and the robber's step of each chosen class, both pure
functions of their keys, since an evading game revisits the same candidate
sets round after round.  The optimal robber works on int masks: it reads
each class's step off the solver's step tables and asks ``wins`` about it.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .digraph import INF, UNREACHABLE, BudgetExceededError, Digraph

MAX_SOLVER_VERTICES = 24  # two 12-bit step chunks, three map bytes; see _byte_tables
MAX_PROBE_SETS = 1_000_000
_PROBE_BLOCK = 1 << 16  # probes per block of the partition build
_STEP_BITS = 12  # chunk width of the robber-step tables
_STEP_LOW = (1 << _STEP_BITS) - 1
_BITS = tuple(1 << v for v in range(MAX_SOLVER_VERTICES))  # vertex -> its mask bit


class ProbeError(ValueError):
    """A cop strategy emitted an invalid probe."""


Vector = tuple[float, ...]


def partition_by_probe(
    g: Digraph, candidates: Iterable[int], probe: Sequence[int]
) -> list[tuple[Vector, frozenset[int]]]:
    """Group candidates by their distance vector from the sorted probe.

    A vector holds ints, and INF where the candidate is unreachable from a
    probe vertex.  Returned classes are ordered by vector (unreachable sorts
    last), so the output is deterministic.  A candidate outside 0..n-1
    raises ValueError.
    """
    probe = _normalize_probe(probe, g.n)
    rows = g.distances()[list(probe)]
    columns = rows.T.tolist()
    cells: dict[tuple[int, ...], list[int]] = {}
    for x in candidates:
        if not 0 <= x < g.n:
            raise ValueError(f"candidate {x} out of range for n={g.n}")
        cells.setdefault(tuple(columns[x]), []).append(x)
    vectors = sorted(cells)
    if UNREACHABLE in rows:
        return [
            (tuple(INF if d == UNREACHABLE else d for d in vec), frozenset(cells[vec]))
            for vec in vectors
        ]
    return [(vec, frozenset(cells[vec])) for vec in vectors]


def robber_step(g: Digraph, vertices: Iterable[int]) -> frozenset[int]:
    """One robber move: union of closed out-neighborhoods."""
    vertices = list(vertices)
    return frozenset(vertices + g.adjacency[vertices].nonzero()[1].tolist())


def _normalize_probe(probe: Sequence[int], n: int) -> tuple[int, ...]:
    ps = tuple(sorted(probe))
    if not ps:
        raise ProbeError("probe must contain at least one vertex")
    if len(set(ps)) != len(ps):
        raise ProbeError(f"probe {ps} places two cops on one vertex")
    if ps[0] < 0 or ps[-1] >= n:
        raise ProbeError(f"probe {ps} out of range for n={n}")
    return ps


def _hash_constants(count: int) -> np.ndarray:
    """``count`` odd int64 multipliers: splitmix64 outputs of 1..count, made
    by arithmetic (importing ``numpy.random`` costs megabytes of RSS)."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).view(np.int64) | 1


_HASH = _hash_constants(64)  # one per column of the rows _first_rows takes


def _first_rows(a: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row of an
    int64 matrix of at most 64 columns.

    Rows are sorted on one key, their wrapping dot product with ``_HASH``,
    and each run of equal keys keeps its least index.  Each row whose key
    repeats is then compared with the row before it, one column at a time;
    only when two rows with one key differ does the sort fall back to all
    the columns, so the result is always exact."""
    key = a @ _HASH[: a.shape[1]]
    order = np.argsort(key)  # unstable: a run of equal keys is in any order
    ranked = key[order]
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    repeated = ~starts[1:]
    later, earlier = order[1:][repeated], order[:-1][repeated]
    if len(later) and any((column[later] != column[earlier]).any() for column in a.T):
        order = np.lexsort(a.T[::-1])  # stable, so equal rows keep index order
        ranked = a[order]
        starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        return np.sort(order[starts])
    return np.sort(np.minimum.reduceat(order, np.flatnonzero(starts)))


def _level_rows(
    prev: np.ndarray, same: np.ndarray, j: int, k: int, start: int, stop: int
) -> np.ndarray:
    """Rows start..stop-1 of level j of the k-set row build, from level j-1;
    a set's row is the AND of its vertices' int64 rows of ``same``.

    Level j holds the rows of the j-sets whose least vertex is at least
    k - j (the sets that k - j smaller vertices can still extend to k-sets),
    in ``combinations`` order.  Those with least vertex x come in turn:
    x's row ANDed with each row of level j-1 whose sets lie above x, which
    are its last C(n-1-x, j-1) rows.  So each x is one AND of a slice of
    level j-1 written straight into the output: no gather, no temporary."""
    if j == 1:  # one set per vertex: a slice of the rows, in one AND
        return same[k - 1 + start : k - 1 + stop] & prev[0]
    n = len(same)
    out = np.empty((stop - start, same.shape[1]), dtype=np.int64)
    first = 0  # level j index of the first set with least vertex x
    for x in range(k - j, n - j + 1):
        if first >= stop:
            break
        size = math.comb(n - 1 - x, j - 1)
        if first + size > start:
            lo, hi = max(start, first), min(stop, first + size)
            shift = len(prev) - size - first  # level j-1 index minus level j index
            np.bitwise_and(prev[shift + lo : shift + hi], same[x], out=out[lo - start : hi - start])
        first += size
    return out


def _lower_level(same: np.ndarray, k: int) -> np.ndarray:
    """Level k-1 of the k-set row build, from the empty set's all-ones row."""
    level = np.full((1, same.shape[1]), -1, dtype=np.int64)
    for j in range(1, k):
        level = _level_rows(level, same, j, k, 0, math.comb(len(same) - k + j, j))
    return level


def _probe_partitions(g: Digraph, k: int) -> np.ndarray:
    """The non-singleton cells of each distinct partition of V by k probes,
    one zero-padded column of cell masks per partition: a C x P matrix for
    P partitions of at most C such cells, so each cell slot is a
    contiguous row.

    A probe's partition is encoded as its row of "cell mask of x" over all
    x: the AND over probe vertices u of the mask of vertices at the same
    distance from u as x.  That row is a canonical form of the partition, so
    equal rows are equal partitions; one row is kept per distinct partition,
    in the order of the first probe (in ``combinations`` order) inducing it.
    Each cell is listed once, at its lowest vertex, in vertex order.

    The rows are built level by level, each set's row being its least
    vertex's row ANDed with the row of the rest (see :func:`_level_rows`).
    Levels 1..k-1 are built whole; the k-set rows come in blocks of
    ``_PROBE_BLOCK``, each deduplicated by :func:`_first_rows` and turned
    into its narrow cell rows (:func:`_cell_rows`) as it comes, so no block
    is held n wide.  With several blocks, the cell rows, padded to one
    width, are deduplicated once more: they too are a canonical form.
    """
    n = g.n
    dist = g.distances()
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    # same[u, x]: mask of the vertices y with d(u, y) == d(u, x)
    same = ((dist[:, :, None] == dist[:, None, :]) * bits).sum(axis=2)
    level = _lower_level(same, k)
    total = math.comb(n, k)
    blocks = []
    for start in range(0, total, _PROBE_BLOCK):
        rows = _level_rows(level, same, k, k, start, min(start + _PROBE_BLOCK, total))
        rows = rows[_first_rows(rows)]
        blocks.append(_cell_rows(rows, bits))
        del rows  # before the next block's rows are built
    del level  # the merge below needs only the cell rows
    if len(blocks) == 1:
        return np.ascontiguousarray(blocks[0].T)
    cells = np.zeros((sum(map(len, blocks)), max(b.shape[1] for b in blocks)), dtype=np.int64)
    at = 0
    for block in blocks:
        cells[at : at + len(block), : block.shape[1]] = block
        at += len(block)
    blocks.clear()  # before the dedupe copies the rows again
    return cells.T.take(_first_rows(cells), axis=1)


def _cell_rows(rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The non-singleton cells of each partition row (see
    :func:`_probe_partitions`), one zero-padded row of cell masks per
    partition, each cell listed at its lowest vertex, in vertex order.

    The cells are scattered from the flat indices of the listed
    (row, vertex) pairs: the i-th listed pair goes to slot i minus the
    count listed in earlier rows."""
    # x lists its cell when x is the cell's lowest vertex and not alone in it
    listed = ((rows & (bits - 1)) == 0) & (rows != bits)
    at = np.flatnonzero(listed)
    counts = np.count_nonzero(listed, axis=1)
    width = int(counts.max())
    # the flat index in the output of the first slot of each row, less the
    # count listed before that row
    shift = np.arange(len(rows)) * width - (np.cumsum(counts) - counts)
    cells = np.zeros((len(rows), width), dtype=np.int64)
    cells.ravel()[np.arange(len(at)) + np.repeat(shift, counts)] = rows.ravel()[at]
    return cells


def _byte_tables(images: np.ndarray, bits: int = 8) -> tuple[np.ndarray, ...]:
    """Lookup tables of OR-preserving maps on masks of up to 24 bits, one per
    chunk of ``bits`` bits (a byte by default).

    ``images[a, v]`` is the mask vertex v goes to under map a, and
    ``tables[j][a, b]`` the OR of the images of the vertices in chunk value
    b at chunk j; a mask's image ORs one lookup per chunk (:func:`_images`
    for bytes)."""
    tables = []
    for base in range(0, MAX_SOLVER_VERTICES, bits):
        table = np.zeros((len(images), 1), dtype=np.int64)
        # doubling: chunk values with bit v - base set follow those without it
        for v in range(base, min(base + bits, images.shape[1])):
            table = np.concatenate([table, table | images[:, v : v + 1]], axis=1)
        tables.append(table)
    return tuple(tables)


def _images(tables: tuple[np.ndarray, ...], masks):
    """The images of masks (an int or an array) under every map of the tables;
    the leading axis of 2-d tables runs over the maps."""
    t0, t1, t2 = tables
    return (
        t0.take(masks & 255, axis=-1)
        | t1.take((masks >> 8) & 255, axis=-1)
        | t2.take(masks >> 16, axis=-1)
    )


@functools.lru_cache(maxsize=1)
def _graph_tables(g: Digraph) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], int, bool]:
    """What a solver needs of g at any k: the two 12-bit tables stepping a
    mask through the robber's move, the byte tables of the kept
    automorphisms with their inverses, the number of maps kept and whether
    a budget cut their search short.  The last graph asked is kept, so the
    solvers for k = 1, 2, ... of one graph, or of equal graphs (whose
    automorphisms are equal), share its tables; they are read-only for
    that reason."""
    n = g.n
    # closed[v]: mask of v and its out-neighbours
    closed = (g.adjacency | np.eye(n, dtype=bool)) @ (np.int64(1) << np.arange(n))
    step = tuple(t[0] for t in _byte_tables(closed[None], _STEP_BITS))
    maps = np.array(g.automorphisms(), dtype=np.int64)
    # the kept maps need not be closed under inverses (a truncated search
    # keeps a subset of the group); with the inverses added, every mask
    # is an image of its representative, so marking a winning
    # representative's images lets win[mask] answer for any mask
    both = np.concatenate([maps, np.argsort(maps, axis=1)])
    images = _byte_tables(np.int64(1) << both[_first_rows(both)])
    for table in step + images:
        table.flags.writeable = False
    return step, images, len(maps), g.automorphisms_truncated()


@dataclass(frozen=True)
class SolverStats:
    """What a solver did: its probe sets, the distinct partitions they
    induce and the bytes of their cell matrix, the automorphisms it
    quotients by and whether a budget cut their search short, the states it
    explored, the times it opened a state and the sweeps it ran, and the
    seconds spent building it and answering ``wins``."""

    probe_sets: int
    partitions: int
    partition_bytes: int
    automorphisms: int
    automorphisms_truncated: bool
    explored_states: int
    opens: int
    sweeps: int
    init_s: float
    solve_s: float


class LocalizationSolver:
    """Exact win/lose analysis for a fixed cop count k.

    The reachable candidate-set graph is explored lazily from whichever sets
    are queried, and only newly explored states are swept, so the play
    engine can keep asking about new sets mid-game.  The constructor checks
    the budgets; the partition matrix is built on the first query, and its
    seconds count to ``init_s``, not ``solve_s``.
    """

    def __init__(self, g: Digraph, k: int):
        started = time.perf_counter()
        if not 1 <= k <= g.n:
            raise ValueError(f"cop count {k} out of range 1..{g.n}")
        if g.n > MAX_SOLVER_VERTICES:
            raise BudgetExceededError(
                f"{g.n} vertices exceeds the solver limit of {MAX_SOLVER_VERTICES}"
            )
        if math.comb(g.n, k) > MAX_PROBE_SETS:
            raise BudgetExceededError(
                f"C({g.n},{k}) probe sets exceed the limit of {MAX_PROBE_SETS}"
            )
        self.g = g
        self.k = k
        self._full = (1 << g.n) - 1
        self._step, self._maps, self._automorphisms, self._truncated = _graph_tables(g)
        # the classes of any S are the nonempty intersections with these
        # cells; built by _build_partitions on the first query
        self._cells: np.ndarray | None = None
        # per mask: 1 won, -1 an image of an explored representative not
        # (yet) won, 0 unknown
        self._verdict = np.zeros(1 << g.n, dtype=np.int8)
        self._explored = 0  # representatives explored
        self._won = 0  # opens that marked a new win
        self._blocked_at: dict[int, int] = {}  # state -> _won at its last losing open
        self._opens = 0
        self._sweeps = 0
        self._init_s = time.perf_counter() - started
        self._solve_s = 0.0

    # -- public API --------------------------------------------------------

    def wins(self, candidates: Iterable[int] | int) -> bool:
        """Can k cops force a unique candidate starting from this set?"""
        mask = candidates if isinstance(candidates, int) else self._mask(candidates)
        if not 0 < mask <= self._full:
            raise ValueError("candidate set must be a nonempty subset of V")
        self._build_partitions()
        started = time.perf_counter()
        if not self._verdict[mask]:
            # the mask is an image of its representative, so exploring that
            # marks the mask too
            self._sweep(self._explore(int(self._representative(mask))))
        self._solve_s += time.perf_counter() - started
        return bool(self._verdict[mask] == 1)

    def cops_win(self) -> bool:
        return self.wins(self._full)

    @property
    def explored_states(self) -> int:
        return self._explored

    @property
    def stats(self) -> SolverStats:
        self._build_partitions()
        return SolverStats(
            probe_sets=math.comb(self.g.n, self.k),
            partitions=self._cells.shape[1],
            partition_bytes=self._cells.nbytes,
            automorphisms=self._automorphisms,
            automorphisms_truncated=self._truncated,
            explored_states=self._explored,
            opens=self._opens,
            sweeps=self._sweeps,
            init_s=self._init_s,
            solve_s=self._solve_s,
        )

    # -- internals ---------------------------------------------------------

    def _build_partitions(self) -> None:
        """Build the cell matrix, once; its seconds count to ``init_s``."""
        if self._cells is None:
            started = time.perf_counter()
            self._cells = _probe_partitions(self.g, self.k)
            self._init_s += time.perf_counter() - started

    def _mask(self, vertices: Iterable[int]) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return mask

    def _representative(self, masks):
        """The least image of each mask under the kept automorphisms and
        their inverses."""
        return _images(self._maps, masks).min(axis=0)

    def _open(self, s: int) -> np.ndarray | None:
        """None once the representative s is won, with every image of s
        marked; else the stepped parts that keep s from winning.

        s wins when some probe leaves every part a single vertex or a set
        that wins after the robber's move."""
        self._opens += 1
        verdict = self._verdict
        if verdict[s] != 1:
            parts = self._cells & s
            low, high = self._step
            stepped = low.take(parts & _STEP_LOW) | high.take(parts >> _STEP_BITS)
            done = (verdict[stepped] == 1) | ((parts & (parts - 1)) == 0)
            if not done.all(axis=0).any():
                self._blocked_at[s] = self._won
                return stepped[~done]
        images = _images(self._maps, s)
        # s may be marked already as an image of another representative (the
        # kept maps need not form a group), with its own images not marked
        if (verdict[images] != 1).any():
            verdict[images] = 1
            self._won += 1
        return None

    def _mark_explored(self, states: list[int]) -> None:
        """Count the states explored and mark their images -1 where still
        unknown, so a stepped part that is one of those images needs no
        representative."""
        self._explored += len(states)
        images = _images(self._maps, np.array(states, dtype=np.int64)).ravel()
        self._verdict[images[self._verdict[images] == 0]] = -1

    def _explore(self, root: int) -> list[int]:
        """The representatives newly reachable from root, in BFS order; a
        state already won is not expanded."""
        queue = [root]
        self._mark_explored(queue)
        for s in queue:
            blocking = self._open(s)
            if blocking is None:
                continue
            blocking = blocking[self._verdict[blocking] == 0]
            # sort-based dedupe: the first np.unique call costs megabytes of RSS
            blocking.sort()
            first = np.empty(len(blocking), dtype=bool)
            first[:1] = True
            np.not_equal(blocking[1:], blocking[:-1], out=first[1:])
            # a part is an image of its representative (the maps include their
            # inverses), so no part at 0 has an explored representative
            new = sorted(set(self._representative(blocking[first]).tolist()))
            if new:
                self._mark_explored(new)
                queue += new
        return queue

    def _sweep(self, states: list[int]) -> None:
        """Re-open the states, last explored first, until a sweep wins none.

        Only new states need it: every successor of an earlier state was
        explored or won before, so earlier states are at their fixpoint.
        A state that lost its last open, with no win marked since, would
        lose again, so it is not opened."""
        pending = states[::-1]
        while pending:
            self._sweeps += 1
            left = [
                s for s in pending
                if self._blocked_at.get(s) == self._won or self._open(s) is not None
            ]
            if len(left) == len(pending):
                return
            pending = left


def cops_win(g: Digraph, k: int) -> bool:
    """Do k cops win the localization game on g from a cold start?"""
    return LocalizationSolver(g, k).cops_win()


def localization_number_exact(g: Digraph, k_max: int | None = None) -> int | None:
    """Least winning cop count, or None when it exceeds k_max.

    Winning is monotone in k, so the first winning count is the answer.
    """
    if g.n < 1:
        raise ValueError("localization number needs at least one vertex")
    k_max = g.n if k_max is None else min(k_max, g.n)
    for k in range(1, k_max + 1):
        if LocalizationSolver(g, k).cops_win():
            return k
    return None


# -- transcripts and the play engine ----------------------------------------


@dataclass(frozen=True)
class Round:
    number: int
    probe: tuple[int, ...]
    vector: Vector
    chosen_class: frozenset[int]
    stepped: frozenset[int]


@dataclass(frozen=True)
class Outcome:
    captured: bool
    rounds: int
    vertex: int | None = None


@dataclass
class GameTranscript:
    rounds: list[Round] = field(default_factory=list)
    outcome: Outcome | None = None

    def to_json_lines(self) -> str:
        lines = []
        for r in self.rounds:
            lines.append(
                json.dumps(
                    {
                        "round": r.number,
                        "probe": list(r.probe),
                        "vector": [None if d == INF else int(d) for d in r.vector],
                        "class": sorted(r.chosen_class),
                        "stepped": sorted(r.stepped),
                    }
                )
            )
        if self.outcome is not None:
            lines.append(
                json.dumps(
                    {
                        "outcome": "captured" if self.outcome.captured else "evaded",
                        "rounds": self.outcome.rounds,
                        "vertex": self.outcome.vertex,
                    }
                )
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_json_lines(text: str) -> "GameTranscript":
        transcript = GameTranscript()
        for line in text.splitlines():
            if not line.strip():
                continue
            data = json.loads(line)
            if "outcome" in data:
                transcript.outcome = Outcome(
                    data["outcome"] == "captured", data["rounds"], data["vertex"]
                )
            else:
                transcript.rounds.append(
                    Round(
                        data["round"],
                        tuple(data["probe"]),
                        tuple(INF if d is None else d for d in data["vector"]),
                        frozenset(data["class"]),
                        frozenset(data["stepped"]),
                    )
                )
        return transcript


class OptimalRobber:
    """Information-set adversary backed by the exact solver.

    Facing the classes of a probe, it picks one whose post-move set the cops
    cannot win (largest class first, then lexicographically smallest); when
    every class is winnable it stalls on the largest non-singleton class,
    and concedes only when every class is a single vertex.
    """

    def __init__(self, g: Digraph, k: int):
        self.g = g
        self.k = k
        self.solver = LocalizationSolver(g, k)

    def choose(
        self, classes: list[tuple[Vector, frozenset[int]]]
    ) -> tuple[Vector, frozenset[int]]:
        # escape (a class the cops cannot win), else stall on a
        # non-singleton, else concede; wins is asked of every non-singleton,
        # in partition order, about its step read off the solver's step
        # tables.  The classes are disjoint, so the least vertex orders them
        # as their sorted tuples would.
        wins = self.solver.wins
        low, high = self.solver._step
        keys = []
        for _, cls in classes:
            mask = sum(map(_BITS.__getitem__, cls))
            single = len(cls) == 1
            caught = single or wins(low.item(mask & _STEP_LOW) | high.item(mask >> _STEP_BITS))
            keys.append((caught, single, -len(cls), (mask & -mask).bit_length() - 1))
        return classes[keys.index(min(keys))]


def optimal_robber(g: Digraph, k: int) -> OptimalRobber:
    return OptimalRobber(g, k)


def play(g: Digraph, cop_strategy, robber, max_rounds: int) -> GameTranscript:
    """Run the game until capture or the round limit.

    The strategy object must expose ``cops`` (its budget) and
    ``next(transcript) -> probe``; the robber must expose
    ``choose(classes) -> (vector, class)``, where ``classes`` is the
    partition of the candidates by the probe as :func:`partition_by_probe`
    returns it, and answer with one of its pairs.  Capture happens the
    moment the chosen class is a single vertex; the robber does not move
    again that round.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    transcript = GameTranscript()
    candidates = frozenset(range(g.n))
    # both are pure functions of their keys, and evading games revisit
    # the same candidate sets round after round
    partitions: dict[tuple[frozenset[int], tuple[int, ...]], list] = {}
    steps: dict[frozenset[int], frozenset[int]] = {}
    for number in range(1, max_rounds + 1):
        probe = _normalize_probe(cop_strategy.next(transcript), g.n)
        if len(probe) > cop_strategy.cops:
            raise ProbeError(
                f"strategy probed {len(probe)} vertices with budget {cop_strategy.cops}"
            )
        classes = partitions.get((candidates, probe))
        if classes is None:
            classes = partitions[candidates, probe] = partition_by_probe(g, candidates, probe)
        # a fresh list, so a robber that changes its list cannot change the memo
        vector, chosen = robber.choose(classes[:])
        if (vector, chosen) not in classes:
            raise ValueError("robber chose a class not in the current partition")
        if len(chosen) == 1:
            transcript.rounds.append(Round(number, probe, vector, chosen, chosen))
            transcript.outcome = Outcome(True, number, next(iter(chosen)))
            return transcript
        stepped = steps.get(chosen)
        if stepped is None:
            stepped = steps[chosen] = robber_step(g, chosen)
        transcript.rounds.append(Round(number, probe, vector, chosen, stepped))
        candidates = stepped
    transcript.outcome = Outcome(False, max_rounds)
    return transcript
