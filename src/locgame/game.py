"""The localization game on digraphs: game state, the exact solver, the
worst-case robber, and the play engine.

The solver treats the game as a reachability game over candidate sets (the
vertices still consistent with every probe answer, measured just before a
probe).  A set S is a cop win when some probe splits S so that every part is
either a single vertex or leads, after the robber's move, to another winning
set.  The least fixpoint of that rule decides the game: any play that never
reaches it is a robber win.

States are vertex bitmasks.  For each probe the partition of the full vertex
set is precomputed once; partitioning any S is then a handful of mask
intersections.  A counting attractor propagates wins backwards, so the whole
computation is linear in the explored game graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .digraph import INF, Digraph, DistanceMatrix, all_pairs_distances

MAX_SOLVER_VERTICES = 24
MAX_PROBE_SETS = 1_000_000


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


class LocalizationSolver:
    """Exact win/lose analysis for a fixed cop count k.

    The reachable candidate-set graph is explored lazily from whichever sets
    are queried; the win fixpoint is maintained incrementally, so the play
    engine can keep asking about new sets mid-game.
    """

    def __init__(self, g: Digraph, k: int, dm: DistanceMatrix | None = None):
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
        # partition of the full vertex set under each probe, as bitmasks;
        # the classes of any S are the nonempty intersections with these
        self._probe_cells: list[tuple[int, ...]] = []
        for probe in combinations(range(n), k):
            cells: dict[Vector, int] = {}
            for x in range(n):
                vec = tuple(self.dm.dist[u][x] for u in probe)
                cells[vec] = cells.get(vec, 0) | (1 << x)
            self._probe_cells.append(tuple(cells.values()))
        self._step_cache: dict[int, int] = {}
        self._win: set[int] = set()
        self._explored: set[int] = set()
        # state -> list of requirement tuples (deduped successor masks);
        # the state wins once any tuple is fully won
        self._options: dict[int, list[tuple[int, ...]]] = {}
        self._watchers: dict[int, list[tuple[int, int]]] = {}
        self._counts: dict[tuple[int, int], int] = {}
        self._queue: list[int] = []

    # -- public API --------------------------------------------------------

    def wins(self, candidates: Iterable[int] | int) -> bool:
        """Can k cops force a unique candidate starting from this set?"""
        mask = candidates if isinstance(candidates, int) else self._mask(candidates)
        if not 0 < mask <= self._full:
            raise ValueError("candidate set must be a nonempty subset of V")
        self._explore(mask)
        self._propagate()
        return mask in self._win

    def cops_win(self) -> bool:
        return self.wins(self._full)

    @property
    def explored_states(self) -> int:
        return len(self._explored)

    def step_mask(self, mask: int) -> int:
        cached = self._step_cache.get(mask)
        if cached is None:
            cached = 0
            m = mask
            while m:
                low = m & -m
                cached |= self._step1[low.bit_length() - 1]
                m ^= low
            self._step_cache[mask] = cached
        return cached

    # -- internals ---------------------------------------------------------

    def _mask(self, vertices: Iterable[int]) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return mask

    def _explore(self, root: int) -> None:
        stack = [root]
        explored = self._explored
        win = self._win
        while stack:
            s = stack.pop()
            if s in explored:
                continue
            explored.add(s)
            options: dict[tuple[int, ...], None] = {}
            immediate = False
            for cells in self._probe_cells:
                succs: set[int] = set()
                for cell in cells:
                    part = cell & s
                    if part and part & (part - 1):
                        succs.add(self.step_mask(part))
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
