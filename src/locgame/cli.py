"""Command-line interface.

Subcommands: gen, zeta, beta, bounds, stats, verify, play, experiment.
Graph files are auto-detected by extension (.json, anything else is treated
as an edge list).  JSON reports encode unreachable/unbounded values as null.
Exit status: 0 when the report is consistent, the play captured or every
check passed; 1 for a negative answer; 2 when a solver budget is exceeded
or the command line is malformed (rejected by argparse, missing an argument
its other arguments require, or giving an option the chosen play strategy
does not read); 3 for bad input: a graph or decomposition file that cannot
be read, has no vertices or does not fit the requested strategy, or a
family, experiment or count parameter out of range.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .digraph import INF, _is_json, diameter, read_digraph, to_edge_list, to_json
from .experiment import ExperimentConfig, run_experiment, rows_to_csv
from .families import FAMILIES, binary_source_extension, random_tournament
from .game import BudgetExceededError, localization_number_exact, optimal_robber, play
from .hypergraph import greedy_vertex_cover
from .resolve import (
    _separation_rate,
    c_parameter,
    distinguisher_hypergraph,
    metric_dimension_exact,
)
from .stats import tournament_stats
from .decomposition import DagDecomposition, PathDecomposition, read_decomposition
from .strategies import (
    dag_decomp_sweep,
    dag_sweep,
    path_sweep,
    rotation_strategy,
    sc_composite,
)
from .verify import CHECKS, bounds_report, run_checks


class UsageError(Exception):
    """A malformed command line: an argument that the other arguments
    require is missing, or one is given that they do not read."""


class InputError(Exception):
    """Bad input: an unreadable or empty graph, a decomposition that does not
    fit the requested strategy, or a parameter out of range."""


def _read(reader, path):
    """``reader(path)``, with any failure to read raised as InputError."""
    try:
        return reader(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (MemoryError, BudgetExceededError) as exc:
        # a vertex count whose adjacency matrix is over its byte budget or
        # cannot be allocated
        raise InputError(f"{path}: {str(exc) or 'out of memory'}") from exc


def _read_graph(path):
    g = _read(read_digraph, path)
    if g.n == 0:
        raise InputError(f"{path}: the graph has no vertices")
    return g


def _count(value: int | None, flag: str) -> int | None:
    """An optional count from the command line, rejected below 1."""
    if value is not None and value < 1:
        raise InputError(f"{flag} must be at least 1, got {value}")
    return value


def _jsonable(value):
    return None if value == INF else value


def _emit(data, out: str | None) -> None:
    _write(json.dumps(data, indent=2) + "\n", out)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _family(args):
    if args.family == "random":
        # accept the probability positionally (gen random 10 0.5) or via --p
        p = args.p
        raw = list(args.params)
        if len(raw) == 2 and p is None:
            p = float(raw.pop())
        if len(raw) != 1 or p is None:
            raise UsageError(
                "gen random needs <n> and a probability: gen random <n> <p> or --p <p>"
            )
        return random_tournament(int(raw[0]), p, args.seed)
    if args.family == "binary_source":
        if not args.base:
            raise UsageError("gen binary_source needs --base <graph-file>")
        names, build = (), lambda: binary_source_extension(_read_graph(args.base))
    else:
        names, build = FAMILIES[args.family]
    params = tuple(int(x) for x in args.params)
    if len(params) != len(names):
        raise ValueError(f"{args.family} expects parameters {names}, got {params}")
    return build(*params)


def cmd_gen(args) -> int:
    try:
        g = _family(args)
    except ValueError as exc:
        # a parameter outside the family's range
        raise InputError(f"{args.family}: {exc}") from exc
    fmt = args.format or ("json" if args.out and _is_json(Path(args.out)) else "edgelist")
    _write(to_json(g) + "\n" if fmt == "json" else to_edge_list(g), args.out)
    return 0


def cmd_zeta(args) -> int:
    max_cops = _count(args.max_cops, "--max-cops")
    g = _read_graph(args.graph)
    report: dict = {"n": g.n}
    try:
        zeta = localization_number_exact(g, k_max=max_cops)
    except BudgetExceededError as exc:
        report["zeta"] = None
        report["error"] = f"budget: {exc}"
        _emit(report, args.out)
        return 2
    report["zeta"] = zeta
    if zeta is None:
        report["exceeds"] = max_cops
    _emit(report, args.out)
    return 0 if zeta is not None else 1


def cmd_beta(args) -> int:
    g = _read_graph(args.graph)
    beta, witness = metric_dimension_exact(g)
    _emit({"n": g.n, "beta": beta, "witness": sorted(witness)}, args.out)
    return 0


def cmd_bounds(args) -> int:
    max_cops = _count(args.max_cops, "--max-cops")
    g = _read_graph(args.graph)
    report = bounds_report(g, k_max=max_cops)
    _emit({"n": g.n, **{k: _jsonable(v) for k, v in report.items()}}, args.out)
    return 0 if report["consistent"] else 1


def cmd_stats(args) -> int:
    g = _read_graph(args.graph)
    tournament = g.is_tournament()
    # c and the greedy cover read one separation matrix
    h = distinguisher_hypergraph(g)
    c = _separation_rate(h.incidence())
    report: dict = {
        "n": g.n,
        "arcs": g.arc_count,
        "tournament": tournament,
        "diameter": _jsonable(diameter(g)),
        "c_parameter": float(c),
        "beta_greedy": len(greedy_vertex_cover(h)),
    }
    # the separation rate under the reversed distance convention, when it
    # disagrees with the default witness-to-pair reading; the converse's
    # distances are the transpose of g's, so no second BFS runs
    c_reverse = c_parameter(g.converse())
    if c_reverse != c:
        report["c_parameter_pair_to_witness"] = float(c_reverse)
    if tournament:
        t = tournament_stats(g)
        report.update(
            doubly_regular=t.doubly_regular, s_min=t.s_min, s_max=t.s_max,
            e4c=t.e4c, e4c_ratio=t.e4c_ratio, sameness_deviation=t.deviation,
        )
    _emit(report, args.out)
    return 0


def cmd_verify(args) -> int:
    ids = sorted(CHECKS) if "all" in args.checks else args.checks
    results = run_checks(ids)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def _strategy(g, args):
    if args.strategy == "dag_sweep":
        return dag_sweep(g)
    if args.strategy == "sc_composite":
        return sc_composite(g)
    if args.strategy == "rotation":
        if g.n % 2 == 0:
            raise ValueError(f"needs an odd vertex count, got {g.n}")
        return rotation_strategy((g.n - 1) // 2, cops=args.cops)
    # the remaining choices, path_sweep and dag_decomp_sweep, read a file
    if not args.decomposition:
        raise UsageError(f"{args.strategy} needs --decomposition <file>")
    decomp = _read(read_decomposition, args.decomposition)
    if args.strategy == "path_sweep":
        if not isinstance(decomp, PathDecomposition):
            raise ValueError(f"{args.decomposition} is not a path decomposition")
        return path_sweep(g, decomp)
    if not isinstance(decomp, DagDecomposition):
        raise ValueError(f"{args.decomposition} is not a DAG decomposition")
    return dag_decomp_sweep(g, decomp)


def cmd_play(args) -> int:
    if args.cops is not None and args.strategy != "rotation":
        raise UsageError("--cops applies only to --strategy rotation")
    if args.decomposition is not None and args.strategy not in ("path_sweep", "dag_decomp_sweep"):
        raise UsageError("--decomposition applies only to --strategy path_sweep or dag_decomp_sweep")
    max_rounds = _count(args.max_rounds, "--max-rounds")
    g = _read_graph(args.graph)
    try:
        strategy = _strategy(g, args)
    except ValueError as exc:
        # the graph, decomposition or cop budget does not fit the strategy
        raise InputError(f"{args.strategy}: {exc}") from exc
    robber = optimal_robber(g, strategy.cops)
    transcript = play(g, strategy, robber, max_rounds=max_rounds or 5 * g.n)
    _write(transcript.to_json_lines(), args.out)
    return 0 if transcript.outcome.captured else 1


def cmd_experiment(args) -> int:
    try:
        config = ExperimentConfig(
            sizes=tuple(args.n),
            p=args.p,
            trials=args.trials,
            seed=args.seed,
            eps=args.eps,
        )
    except ValueError as exc:
        raise InputError(f"experiment: {exc}") from exc
    rows = run_experiment(config)
    _write(rows_to_csv(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locgame",
        description="Localization game on digraphs: generators, exact solvers, "
        "bounds, strategies, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance")
    p.add_argument("family", choices=sorted(FAMILIES) + ["random", "binary_source"])
    p.add_argument("params", nargs="*", help="integer family parameters")
    p.add_argument("--p", type=float, help="arc probability (random family)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", help="base graph file (binary_source family)")
    p.add_argument("--format", choices=["edgelist", "json"], help="default: by the --out suffix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    for name, func, extra in (
        ("zeta", cmd_zeta, True),
        ("beta", cmd_beta, False),
        ("bounds", cmd_bounds, True),
        ("stats", cmd_stats, False),
    ):
        p = sub.add_parser(name, help=f"compute the {name} report")
        p.add_argument("graph")
        if extra:
            p.add_argument("--max-cops", type=int, default=None)
        p.add_argument("--out")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument(
        "checks",
        nargs="+",
        choices=sorted(CHECKS) + ["all"],
        metavar="checks",
        help=f"check ids or 'all'; known: {sorted(CHECKS)}",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("play", help="run a cop strategy against the exact robber")
    p.add_argument("graph")
    p.add_argument(
        "--strategy",
        required=True,
        choices=["dag_sweep", "sc_composite", "path_sweep", "dag_decomp_sweep", "rotation"],
    )
    p.add_argument("--decomposition", help="decomposition JSON (sweep strategies)")
    p.add_argument("--cops", type=int, default=None, help="override the cop budget (rotation)")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("experiment", help="seeded random-tournament CSV experiment")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first :func:`main` call, not at import, and
    reused by later calls, since building it costs milliseconds."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
