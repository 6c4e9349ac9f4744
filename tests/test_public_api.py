"""Distances belong to the graph: ``Digraph.distances()`` computes them once,
so no public callable takes a distance array, required or optional, beside
or instead of its graph.  Separation has one convention, witness to pair,
so no public callable takes a ``direction``.  The tournament statistics are
read through ``stats``'s public names alone.
"""

import importlib
import inspect
import pkgutil

import locgame
from locgame import digraph, game, resolve, stats

MODULES = [
    importlib.import_module(f"locgame.{info.name}")
    for info in pkgutil.iter_modules(locgame.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]

# kept because benchmarks/workloads.py passes an array positionally
OPTIONAL_DM_ALLOWED = {"locgame.resolve.distinguisher_hypergraph"}


def public_callables():
    """(qualified name, callable) for every public function and class defined
    in a locgame module, and every public method of those classes."""
    for module in [locgame, *MODULES]:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{meth}", fn


def test_the_walk_reaches_the_callables_that_read_distances():
    names = {name for name, _ in public_callables()}
    assert {
        "locgame.digraph.diameter",
        "locgame.game.LocalizationSolver",
        "locgame.game.OptimalRobber",
        "locgame.game.OptimalRobber.choose",
        "locgame.game.play",
        "locgame.verify.bounds_report",
        "locgame.resolve.distinguisher_hypergraph",
        "locgame.game.partition_by_probe",
        "locgame.resolve.is_resolving",
    } <= names


def parameters_named(param):
    """(qualified name, parameter) for every public callable with a
    parameter named ``param``."""
    for name, obj in public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if param in params:
            yield name, params[param]


def test_no_optional_distance_matrix_parameter():
    optional = [name for name, param in parameters_named("dm") if param.default is None]
    assert sorted(optional) == sorted(OPTIONAL_DM_ALLOWED)


def test_no_distance_matrix_parameter():
    # a required dm fails too: the kernels take the graph
    assert sorted(name for name, _ in parameters_named("dm")) == sorted(OPTIONAL_DM_ALLOWED)


def test_no_direction_parameter():
    # one separation convention, witness to pair; the reverse one is read
    # on the converse digraph
    assert list(parameters_named("direction")) == []


def test_distances_are_computed_only_through_the_graph():
    # every other module reaches all_pairs_distances through g.distances()
    holders = [
        m.__name__
        for m in [locgame, *MODULES]
        if vars(m).get("all_pairs_distances") is digraph.all_pairs_distances
    ]
    assert sorted(holders) == ["locgame", "locgame.digraph"]


def test_witness_sets_are_enumerated_by_the_probe_row_build():
    # one k-set kernel: the beta search runs on the solver's level build
    assert resolve._level_rows is game._level_rows
    assert resolve._lower_level is game._lower_level


def test_private_stats_functions_stay_in_stats():
    # the other modules read the statistics through tournament_stats
    private = {
        id(obj)
        for name, obj in vars(stats).items()
        if name.startswith("_") and getattr(obj, "__module__", None) == stats.__name__
    }
    holders = [
        f"{m.__name__}.{name}"
        for m in [locgame, *MODULES]
        if m is not stats
        for name, obj in vars(m).items()
        if id(obj) in private
    ]
    assert private and holders == []
