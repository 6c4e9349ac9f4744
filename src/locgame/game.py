"""The localization game on digraphs: game state, the exact solver, the
worst-case robber, and the play engine.

The solver treats the game as a reachability game over candidate sets (the
vertices still consistent with every probe answer, measured just before a
probe).  A set S is a cop win when some probe splits S so that every part is
either a single vertex or leads, after the robber's move, to another winning
set.  The least fixpoint of that rule decides the game: any play that never
reaches it is a robber win.

States are vertex bitmasks.  The partition of the full vertex set is built
once for each distinct partition the probes induce (probes inducing the same
partition are one option); partitioning any S is then a handful of mask
intersections.  An automorphism of the digraph maps winning sets to winning
sets, so every state is replaced by its orbit representative: the least mask
image under the automorphisms :meth:`DistanceMatrix.automorphisms` keeps.
The fixpoint runs over representatives only.  A counting attractor
propagates wins backwards, so the whole computation is linear in the
explored game graph.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Iterable, Sequence

import numpy as np

from .digraph import INF, Digraph, DistanceMatrix, all_pairs_distances

MAX_SOLVER_VERTICES = 24  # three bytes of a state mask; see _byte_tables
MAX_PROBE_SETS = 1_000_000
_PROBE_BLOCK = 1 << 16  # probes per block of the partition build


class BudgetExceededError(RuntimeError):
    """The instance exceeds the solver's explicit-state budget."""


class ProbeError(ValueError):
    """A cop strategy emitted an invalid probe."""


Vector = tuple[float, ...]


def partition_by_probe(
    dm: DistanceMatrix, candidates: Iterable[int], probe: Sequence[int]
) -> list[tuple[Vector, frozenset[int]]]:
    """Group candidates by their distance vector from the sorted probe.

    Returned classes are ordered by vector (unreachable sorts last), so the
    output is deterministic.
    """
    probe = _normalize_probe(probe, dm.n)
    cells: dict[Vector, set[int]] = {}
    for x in candidates:
        vec = tuple(dm.dist[u][x] for u in probe)
        cells.setdefault(vec, set()).add(x)
    return [(vec, frozenset(cells[vec])) for vec in sorted(cells)]


def robber_step(g: Digraph, vertices: Iterable[int]) -> frozenset[int]:
    """One robber move: union of closed out-neighborhoods."""
    out: set[int] = set()
    for v in vertices:
        out.add(v)
        out.update(g.out_neighbors(v))
    return frozenset(out)


def _normalize_probe(probe: Sequence[int], n: int) -> tuple[int, ...]:
    ps = tuple(sorted(probe))
    if not ps:
        raise ProbeError("probe must contain at least one vertex")
    if len(set(ps)) != len(ps):
        raise ProbeError(f"probe {ps} places two cops on one vertex")
    if ps[0] < 0 or ps[-1] >= n:
        raise ProbeError(f"probe {ps} out of range for n={n}")
    return ps


def _first_rows(a: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row."""
    order = np.lexsort(a.T[::-1])  # stable, so equal rows keep index order
    ranked = a[order]
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[starts])


def _probe_partitions(dm: DistanceMatrix, k: int) -> list[tuple[int, ...]]:
    """The non-singleton cells of each distinct partition of V by k probes.

    A probe's partition is encoded as its row of "cell mask of x" over all
    x: the AND over probe vertices u of the mask of vertices at the same
    distance from u as x.  That row is a canonical form of the partition, so
    equal rows are equal partitions; one entry is kept per distinct row, in
    the order of the first probe (in ``combinations`` order) inducing it.
    Each cell is listed once, at its lowest vertex, in vertex order.
    """
    n = dm.n
    dist = np.array(dm.dist)
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    # same[u, x]: mask of the vertices y with d(u, y) == d(u, x)
    same = ((dist[:, :, None] == dist[:, None, :]) * bits).sum(axis=2)
    probes = combinations(range(n), k)
    kept = []
    while True:
        block = np.fromiter(
            chain.from_iterable(islice(probes, _PROBE_BLOCK)), dtype=np.intp
        ).reshape(-1, k)
        if not len(block):
            break
        rows = same[block[:, 0]]
        for j in range(1, k):
            rows &= same[block[:, j]]
        kept.append(rows[_first_rows(rows)])
    rows = np.concatenate(kept)
    if len(kept) > 1:
        rows = rows[_first_rows(rows)]
    # x lists its cell when x is the cell's lowest vertex and not alone in it
    listed = ((rows & -rows) == bits) & ((rows & (rows - 1)) != 0)
    flat = rows[listed].tolist()
    ends = np.cumsum(listed.sum(axis=1)).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _byte_tables(maps: Sequence[Sequence[int]], n: int) -> tuple[np.ndarray, ...]:
    """For each byte of a mask, a table of its image under every map:
    ``tables[j][a, b]`` is the image under map a of byte value b at byte j."""
    images = np.int64(1) << np.array(maps, dtype=np.int64)
    tables = []
    for base in (0, 8, 16):
        table = np.zeros((len(maps), 1 << max(0, min(8, n - base))), dtype=np.int64)
        for b in range(1, table.shape[1]):
            low = b & -b
            table[:, b] = table[:, b ^ low] | images[:, base + low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


@dataclass(frozen=True)
class SolverStats:
    """What a solver did: its probe sets, the distinct partitions they
    induce, the automorphisms it quotients by, the states it explored, and
    the seconds spent building it and answering ``wins``."""

    probe_sets: int
    partitions: int
    automorphisms: int
    explored_states: int
    init_s: float
    solve_s: float


class LocalizationSolver:
    """Exact win/lose analysis for a fixed cop count k.

    The reachable candidate-set graph is explored lazily from whichever sets
    are queried; the win fixpoint is maintained incrementally, so the play
    engine can keep asking about new sets mid-game.
    """

    def __init__(self, g: Digraph, k: int, dm: DistanceMatrix | None = None):
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
        self.dm = dm or all_pairs_distances(g)
        n = g.n
        self._full = (1 << n) - 1
        self._step1 = [
            (1 << v) | sum(1 << w for w in g.out_neighbors(v)) for v in range(n)
        ]
        # non-singleton cells of V under each distinct probe partition; the
        # classes of any S are the nonempty intersections with these
        self._partitions = _probe_partitions(self.dm, k)
        maps = self.dm.automorphisms()
        self._automorphisms = len(maps)
        self._tables = _byte_tables(maps, n) if len(maps) > 1 else None
        self._canon: dict[int, int] = {}
        # part of a state -> representative of the part after the robber moves
        self._succ: dict[int, int] = {}
        self._win: set[int] = set()
        self._explored: set[int] = set()
        # state -> list of requirement tuples (deduped successor masks);
        # the state wins once any tuple is fully won
        self._options: dict[int, list[tuple[int, ...]]] = {}
        self._watchers: dict[int, list[tuple[int, int]]] = {}
        self._counts: dict[tuple[int, int], int] = {}
        self._queue: list[int] = []
        self._init_s = time.perf_counter() - started
        self._solve_s = 0.0

    # -- public API --------------------------------------------------------

    def wins(self, candidates: Iterable[int] | int) -> bool:
        """Can k cops force a unique candidate starting from this set?"""
        started = time.perf_counter()
        mask = candidates if isinstance(candidates, int) else self._mask(candidates)
        if not 0 < mask <= self._full:
            raise ValueError("candidate set must be a nonempty subset of V")
        mask = self._representative(mask)
        self._explore(mask)
        self._propagate()
        self._solve_s += time.perf_counter() - started
        return mask in self._win

    def cops_win(self) -> bool:
        return self.wins(self._full)

    @property
    def explored_states(self) -> int:
        return len(self._explored)

    @property
    def stats(self) -> SolverStats:
        return SolverStats(
            probe_sets=math.comb(self.g.n, self.k),
            partitions=len(self._partitions),
            automorphisms=self._automorphisms,
            explored_states=len(self._explored),
            init_s=self._init_s,
            solve_s=self._solve_s,
        )

    def step_mask(self, mask: int) -> int:
        stepped = 0
        while mask:
            low = mask & -mask
            stepped |= self._step1[low.bit_length() - 1]
            mask ^= low
        return stepped

    # -- internals ---------------------------------------------------------

    def _mask(self, vertices: Iterable[int]) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return mask

    def _representative(self, mask: int) -> int:
        """The least image of the mask under the kept automorphisms."""
        if self._tables is None:
            return mask
        rep = self._canon.get(mask)
        if rep is None:
            t0, t1, t2 = self._tables
            rep = int((t0[:, mask & 255] | t1[:, (mask >> 8) & 255] | t2[:, mask >> 16]).min())
            self._canon[mask] = rep
        return rep

    def _explore(self, root: int) -> None:
        stack = [root]
        explored = self._explored
        win = self._win
        succ_of = self._succ
        while stack:
            s = stack.pop()
            if s in explored:
                continue
            explored.add(s)
            options: dict[tuple[int, ...], None] = {}
            immediate = False
            for cells in self._partitions:
                succs: set[int] = set()
                for cell in cells:
                    part = cell & s
                    if part & (part - 1):
                        t = succ_of.get(part)
                        if t is None:
                            t = succ_of[part] = self._representative(self.step_mask(part))
                        succs.add(t)
                if not succs:
                    immediate = True
                    break
                options[tuple(sorted(succs))] = None
            if immediate:
                win.add(s)
                self._queue.append(s)
                continue
            opts = list(options)
            self._options[s] = opts
            for idx, req in enumerate(opts):
                remaining = 0
                for t in req:
                    if t in win:
                        continue
                    remaining += 1
                    self._watchers.setdefault(t, []).append((s, idx))
                    if t not in explored:
                        stack.append(t)
                if remaining == 0:
                    if s not in win:
                        win.add(s)
                        self._queue.append(s)
                    break
                self._counts[(s, idx)] = remaining

    def _propagate(self) -> None:
        queue = self._queue
        win = self._win
        while queue:
            t = queue.pop()
            for (s, idx) in self._watchers.pop(t, ()):
                if s in win:
                    continue
                key = (s, idx)
                left = self._counts.get(key)
                if left is None:
                    continue
                if left == 1:
                    del self._counts[key]
                    win.add(s)
                    queue.append(s)
                else:
                    self._counts[key] = left - 1


def cops_win(g: Digraph, k: int, dm: DistanceMatrix | None = None) -> bool:
    """Do k cops win the localization game on g from a cold start?"""
    return LocalizationSolver(g, k, dm).cops_win()


def localization_number_exact(
    g: Digraph, k_max: int | None = None, dm: DistanceMatrix | None = None
) -> int | None:
    """Least winning cop count, or None when it exceeds k_max.

    Winning is monotone in k, so the first winning count is the answer.
    """
    if g.n < 1:
        raise ValueError("localization number needs at least one vertex")
    dm = dm or all_pairs_distances(g)
    k_max = g.n if k_max is None else min(k_max, g.n)
    for k in range(1, k_max + 1):
        if LocalizationSolver(g, k, dm).cops_win():
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

    Facing a probe, it picks a class whose post-move candidate set the cops
    cannot win (largest class first, then lexicographically smallest); when
    every class is winnable it stalls on the largest non-singleton class,
    and concedes only when every class is a single vertex.
    """

    def __init__(self, g: Digraph, k: int, dm: DistanceMatrix | None = None):
        self.g = g
        self.k = k
        self.dm = dm or all_pairs_distances(g)
        self.solver = LocalizationSolver(g, k, self.dm)

    def choose(
        self, candidates: frozenset[int], probe: Sequence[int]
    ) -> tuple[Vector, frozenset[int]]:
        parts = partition_by_probe(self.dm, candidates, probe)

        def order(item):
            _, cls = item
            return (-len(cls), tuple(sorted(cls)))

        escaping = [
            (vec, cls)
            for vec, cls in parts
            if len(cls) > 1 and not self.solver.wins(robber_step(self.g, cls))
        ]
        if escaping:
            return min(escaping, key=order)
        stalling = [(vec, cls) for vec, cls in parts if len(cls) > 1]
        if stalling:
            return min(stalling, key=order)
        return min(parts, key=order)


def optimal_robber(g: Digraph, k: int, dm: DistanceMatrix | None = None) -> OptimalRobber:
    return OptimalRobber(g, k, dm)


def play(
    g: Digraph,
    cop_strategy,
    robber,
    max_rounds: int,
    dm: DistanceMatrix | None = None,
) -> GameTranscript:
    """Run the game until capture or the round limit.

    The strategy object must expose ``cops`` (its budget) and
    ``next(transcript) -> probe``; the robber must expose
    ``choose(candidates, probe) -> (vector, class)``.  Capture happens the
    moment the chosen class is a single vertex; the robber does not move
    again that round.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    dm = dm or all_pairs_distances(g)
    transcript = GameTranscript()
    candidates = frozenset(range(g.n))
    for number in range(1, max_rounds + 1):
        probe = _normalize_probe(cop_strategy.next(transcript), g.n)
        if len(probe) > cop_strategy.cops:
            raise ProbeError(
                f"strategy probed {len(probe)} vertices with budget {cop_strategy.cops}"
            )
        vector, chosen = robber.choose(candidates, probe)
        legal = dict(partition_by_probe(dm, candidates, probe))
        if legal.get(vector) != chosen:
            raise ValueError("robber chose a class not in the current partition")
        if len(chosen) == 1:
            transcript.rounds.append(Round(number, probe, vector, chosen, chosen))
            transcript.outcome = Outcome(True, number, next(iter(chosen)))
            return transcript
        stepped = robber_step(g, chosen)
        transcript.rounds.append(Round(number, probe, vector, chosen, stepped))
        candidates = stepped
    transcript.outcome = Outcome(False, max_rounds)
    return transcript
