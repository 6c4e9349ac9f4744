"""Executable cop strategies.

Every strategy exposes ``name``, ``cops`` (its budget), and
``next(transcript) -> probe``.  Strategies carry no hidden mutable state:
each call derives everything from the transcript, so replaying a transcript
reproduces the probes exactly.  All strategies but ``rotation`` are a
``BagSweep``: a fixed list of bags built once, probed one per round.  A path
decomposition is swept as the DAG decomposition on the path of its bags, by
the same builder; both sweeps skip empty bags.
"""

from __future__ import annotations

from .digraph import INF, Digraph
from .decomposition import (
    DagDecomposition,
    PathDecomposition,
    _path_indexed,
    validate_dag_decomposition,
)
from .game import GameTranscript
from .resolve import metric_dimension_exact
from .structure import strong_components, topological_sort


class StrategyError(RuntimeError):
    """The transcript contradicts the strategy's guarantees."""


class BagSweep:
    """Probe a fixed schedule of bags, one bag per round.

    ``dag_sweep``, ``path_sweep``, ``dag_decomp_sweep`` and ``ScComposite``
    build the schedule and the budget; the sweep is the same for all four.
    """

    def __init__(self, name: str, bags: list[tuple[int, ...]], cops: int):
        self.name = name
        self.bags = bags
        self.cops = cops

    def next(self, transcript: GameTranscript) -> tuple[int, ...]:
        done = len(transcript.rounds)
        if done >= len(self.bags):
            raise StrategyError("all bags swept without capture")
        return self.bags[done]


# the name benchmarks/tracing.py instruments
DagSweep = BagSweep


class ScComposite(BagSweep):
    """Sweep the strong components in topological order, one round each.

    Each round probes an exact metric basis of its component plus one marker
    inside every child component.  If the robber sits on the component, the
    basis pins it down that very round (markers exclude look-alikes in
    descendant components).  Otherwise some basis probe returns unreachable
    or some marker returns a finite distance: the robber has moved on.
    Budget: largest component basis plus the condensation's maximum
    out-degree.
    """

    def __init__(self, g: Digraph):
        scc = strong_components(g)
        self.bases: list[tuple[int, ...]] = []
        bags = []
        for i, comp in enumerate(scc.components):
            sub, back = g.induced(comp)
            _, witness = metric_dimension_exact(sub)
            basis = {back[w] for w in witness}
            markers = {scc.components[c][0] for c in scc.condensation.out_neighbors(i)}
            self.bases.append(tuple(sorted(basis)))
            bags.append(tuple(sorted(basis | markers)))
        cops = max(len(b) for b in self.bases) + scc.max_out_degree
        super().__init__("sc_composite", bags, cops)

    def next(self, transcript: GameTranscript) -> tuple[int, ...]:
        for r, bag, basis in zip(transcript.rounds, self.bags, self.bases):
            if r.probe != bag:
                raise StrategyError("transcript probes diverge from the schedule")
            # a basis probe reading unreachable or a marker reading finite
            if not any((u in basis) == (d == INF) for u, d in zip(r.probe, r.vector)):
                raise StrategyError(
                    "finite basis reads with silent markers should have "
                    "localized the robber"
                )
        return super().next(transcript)


class RotationStrategy:
    """Three-move schedule for the circulant tournament on 2m+1 vertices.

    First move: cops on every fourth vertex, which localizes the robber to a
    short arc of consecutive vertices (or catches it outright).  Later
    moves: cops on alternating vertices just ahead of the window the
    candidates currently occupy.  At full budget floor(m/2)+1 this captures
    within three moves; a smaller budget truncates each placement and loses,
    which is exactly what the tightness tests exercise.
    """

    name = "rotation"

    def __init__(self, m: int, cops: int | None = None):
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        self.m = m
        self.n = 2 * m + 1
        full = m // 2 + 1
        self.cops = full if cops is None else cops
        if not 1 <= self.cops <= full:
            raise ValueError(f"cop budget must be in 1..{full}")

    def next(self, transcript: GameTranscript) -> tuple[int, ...]:
        if not transcript.rounds:
            return tuple(sorted((4 * s) % self.n for s in range(self.cops)))
        candidates = transcript.rounds[-1].stepped
        start = _window_start(sorted(candidates), self.n)
        return tuple(sorted((start + 2 * s + 1) % self.n for s in range(self.cops)))


def _window_start(members: list[int], n: int) -> int:
    """Start of the tightest cyclic window covering the members (the vertex
    after the largest cyclic gap; smallest such vertex on ties)."""
    if len(members) == 1:
        return members[0]
    best_gap = -1
    best_start = members[0]
    for i, v in enumerate(members):
        nxt = members[(i + 1) % len(members)]
        gap = (nxt - v) % n
        if gap > best_gap or (gap == best_gap and nxt < best_start):
            best_gap = gap
            best_start = nxt
    return best_start


def dag_sweep(g: Digraph) -> BagSweep:
    """One cop probing a topological order; sound on acyclic digraphs only.

    Arcs only move the robber toward later vertices, so once a vertex is
    probed it can never rejoin the candidate class; after n rounds nothing
    is left to hide on.
    """
    return BagSweep("dag_sweep", [(v,) for v in topological_sort(g)], 1)


def path_sweep(g: Digraph, pd: PathDecomposition) -> BagSweep:
    """Probe the bags of a valid path decomposition in order; budget width+1."""
    return _decomposition_sweep("path_sweep", "path", g, _path_indexed(pd))


def dag_decomp_sweep(g: Digraph, dd: DagDecomposition) -> BagSweep:
    """Probe the bags of a valid DAG decomposition along a topological order
    of its index digraph; budget = width = largest bag."""
    return _decomposition_sweep("dag_decomp_sweep", "DAG", g, dd)


def _decomposition_sweep(name: str, kind: str, g: Digraph, dd: DagDecomposition) -> BagSweep:
    """The nonempty bags of a valid ``dd`` in topological order; budget = largest bag."""
    result = validate_dag_decomposition(g, dd)
    if not result.valid:
        raise ValueError(f"invalid {kind} decomposition: {result.violation}")
    bags = [tuple(sorted(dd.bags[i])) for i in topological_sort(dd.index_dag) if dd.bags[i]]
    return BagSweep(name, bags, result.width)


def sc_composite(g: Digraph) -> ScComposite:
    return ScComposite(g)


def rotation_strategy(m: int, cops: int | None = None) -> RotationStrategy:
    return RotationStrategy(m, cops)
