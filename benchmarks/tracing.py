"""Spans and work counters around calls into locgame's public functions.

Nothing here edits the package.  For the length of a traced pass,
:func:`instrument` rebinds each public function, wherever a locgame module
holds a reference to it, and each traced method on its class, to a wrapper
that records a span (name, parent span, op id, start, end) and, for some
calls, a work counter read from the public API.  Leaving the context
restores every binding.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name); each rebinding covers every locgame module
# that imported the function by name
FUNCTIONS = (
    ("locgame.digraph", "read_digraph", "digraph.read"),
    ("locgame.digraph", "all_pairs_distances", "digraph.apsp"),
    ("locgame.families", "rotation_tournament", "families.build"),
    ("locgame.families", "paley_tournament", "families.build"),
    ("locgame.families", "sc_tight", "families.build"),
    ("locgame.families", "transitive_tournament", "families.build"),
    ("locgame.families", "random_tournament", "families.build"),
    ("locgame.structure", "strong_components", "structure.scc"),
    ("locgame.structure", "localization_lower_bound", "structure.lower_bound"),
    ("locgame.game", "localization_number_exact", "game.zeta"),
    ("locgame.game", "partition_by_probe", "game.partition"),
    ("locgame.game", "robber_step", "game.step"),
    ("locgame.game", "play", "game.play"),
    ("locgame.strategies", "dag_sweep", "strategies.build"),
    ("locgame.strategies", "sc_composite", "strategies.build"),
    ("locgame.strategies", "rotation_strategy", "strategies.build"),
    ("locgame.resolve", "metric_dimension_exact", "resolve.metric_dim"),
    ("locgame.resolve", "distinguisher_hypergraph", "resolve.hypergraph"),
    ("locgame.resolve", "c_parameter", "resolve.c_param"),
    ("locgame.resolve", "lp_upper_bound", "resolve.lp_upper"),
    ("locgame.hypergraph", "greedy_vertex_cover", "hypergraph.greedy"),
    ("locgame.hypergraph", "fractional_vertex_cover", "hypergraph.frac_cover"),
    ("locgame.lp", "solve_min_equality", "lp.simplex"),
    ("locgame.stats", "sameness", "stats.sameness"),
    ("locgame.stats", "e4c_count", "stats.e4c"),
    ("locgame.stats", "quasirandom_deviation", "stats.deviation"),
    ("locgame.stats", "doubly_regular_check", "stats.doubly_regular"),
    ("locgame.experiment", "run_experiment", "experiment.run"),
    ("locgame.experiment", "rows_to_csv", "cli.emit"),
    ("locgame.cli", "_emit", "cli.emit"),
    ("locgame.cli", "_write", "cli.emit"),
)

# (module, class, method, span name)
METHODS = (
    ("locgame.game", "LocalizationSolver", "__init__", "game.init"),
    ("locgame.game", "LocalizationSolver", "wins", "game.solve"),
    ("locgame.game", "OptimalRobber", "choose", "game.robber_choose"),
    ("locgame.game", "GameTranscript", "to_json_lines", "cli.emit"),
    ("locgame.strategies", "DagSweep", "next", "strategies.next"),
    ("locgame.strategies", "ScComposite", "next", "strategies.next"),
    ("locgame.strategies", "RotationStrategy", "next", "strategies.next"),
)

# called once per candidate witness set; counted without a span
COUNTED = (("locgame.resolve", "is_resolving", "resolve.sets_tried"),)

# every span name above, in report order; each gets <name>_s (inclusive)
# and <name>_self_s (minus child spans) in the per-layer metrics
LAYERS = (
    "digraph.read", "digraph.apsp", "families.build", "structure.scc",
    "structure.lower_bound", "game.zeta", "game.init", "game.solve",
    "game.robber_choose", "game.partition", "game.step", "game.play",
    "strategies.build", "strategies.next", "resolve.metric_dim",
    "resolve.hypergraph", "resolve.c_param", "resolve.lp_upper",
    "hypergraph.greedy", "hypergraph.frac_cover", "lp.simplex",
    "stats.sameness", "stats.e4c", "stats.deviation", "stats.doubly_regular",
    "experiment.run", "cli.emit",
)

# work counters; each must repeat exactly between two traced passes
COUNTERS = (
    "digraph.apsp_calls", "game.solver_builds", "game.probe_sets",
    "game.explored_states", "game.robber_choices", "game.rounds",
    "resolve.sets_tried", "resolve.hypergraph_calls", "hypergraph.edges",
    "lp.solves", "lp.tableau_bytes", "stats.sameness_calls",
)


class Tracer:
    """In-memory span log plus work counters for one traced pass."""

    def __init__(self):
        # each span: [name, parent index or -1, op id, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Span name -> (inclusive seconds, self seconds).

        Inclusive time counts only the outermost span of a name, so a span
        nested in one of its own name is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl: Counter = Counter()
        own: Counter = Counter()
        for sid, (name, parent, _, t0, t1) in enumerate(self.spans):
            own[name] += t1 - t0 - child[sid]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                incl[name] += t1 - t0
        return {name: (incl[name], own[name]) for name in incl}


def _after_init(tr: Tracer, args, result) -> None:
    g, k = args[1], args[2]
    tr.counts["game.solver_builds"] += 1
    tr.counts["game.probe_sets"] += math.comb(g.n, k)


def _after_play(tr: Tracer, args, transcript) -> None:
    tr.counts["game.rounds"] += transcript.outcome.rounds


def _after_simplex(tr: Tracer, args, result) -> None:
    rows, cols = args[1].shape
    tr.counts["lp.solves"] += 1
    # the float64 tableau [A | I_art | b] built by solve_min_equality
    tr.counts["lp.tableau_bytes"] += 8 * rows * (cols + rows + 1)


def _after_cover(tr: Tracer, args, result) -> None:
    tr.counts["hypergraph.edges"] += args[0].edge_count


def _counting(counter: str):
    def after(tr: Tracer, args, result) -> None:
        tr.counts[counter] += 1
    return after


AFTER = {
    "all_pairs_distances": _counting("digraph.apsp_calls"),
    "distinguisher_hypergraph": _counting("resolve.hypergraph_calls"),
    "sameness": _counting("stats.sameness_calls"),
    "choose": _counting("game.robber_choices"),
    "__init__": _after_init,
    "play": _after_play,
    "solve_min_equality": _after_simplex,
    "greedy_vertex_cover": _after_cover,
    "fractional_vertex_cover": _after_cover,
}


def _spanned(tr: Tracer, name: str, fn, after):
    def wrapper(*args, **kwargs):
        sid = tr.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.end(sid)
        if after is not None:
            after(tr, args, result)
        return result
    return wrapper


def _wins(tr: Tracer, fn):
    def wrapper(solver, *args, **kwargs):
        before = solver.explored_states
        sid = tr.begin("game.solve")
        try:
            return fn(solver, *args, **kwargs)
        finally:
            tr.end(sid)
            tr.counts["game.explored_states"] += solver.explored_states - before
    return wrapper


def _counted(tr: Tracer, counter: str, fn):
    def wrapper(*args, **kwargs):
        tr.counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def instrument(tr: Tracer):
    """Rebind locgame's public functions and methods to traced wrappers."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "locgame" or name.startswith("locgame."))]
    undo: list[tuple[object, str, object]] = []

    def rebind_everywhere(orig, wrapper) -> None:
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is orig]:
                undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    try:
        for module, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            rebind_everywhere(orig, _spanned(tr, name, orig, AFTER.get(attr)))
        for module, attr, counter in COUNTED:
            orig = getattr(sys.modules[module], attr)
            rebind_everywhere(orig, _counted(tr, counter, orig))
        for module, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            if (cls_name, meth) == ("LocalizationSolver", "wins"):
                setattr(cls, meth, _wins(tr, orig))
            else:
                setattr(cls, meth, _spanned(tr, name, orig, AFTER.get(meth)))
        yield tr
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
