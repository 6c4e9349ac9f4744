"""The benchmark's workloads: seeded inputs, the ops one pass runs, and how
each op's answer is read back.

Every op but ``lovasz`` is a locgame CLI command run in-process through
``locgame.cli.main`` on a generated graph file.  ``lovasz`` does the
per-instance work of ``locgame verify lovasz`` (greedy cover, fractional
cover, rounding bound) through the library, since no command exposes it.

Random tournaments come from a pool of instance seeds ``0..POOL-1`` whose
answers are pinned in ``golden.json``; the benchmark seed picks which pool
members a run uses, so every answer a run gives has a pinned counterpart.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL = 64
COVER_PICKS = 24  # random tournaments per op kind in one cover pass
BETA_N = 22
LOVASZ_N = 14
STATS_N = 60
EXPERIMENT_ARGS = ("--n", "30", "50", "--trials", "10")


@dataclass(frozen=True)
class Instance:
    key: str
    family: str  # a generator in locgame.families
    args: tuple


@dataclass(frozen=True)
class Op:
    command: str
    graph: str | None  # Instance.key of the graph file the op reads
    args: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Name of the op's answer in golden.json."""
        return ":".join((self.command, self.graph or "-") + self.args)


def _rotation(m: int) -> Instance:
    return Instance(f"rotation-{m}", "rotation_tournament", (m,))


SC_TIGHT = Instance("sc_tight-3-2", "sc_tight", (3, 2))
PALEY = Instance("paley-19", "paley_tournament", (19,))
TRANSITIVE = Instance("transitive-20", "transitive_tournament", (20,))


def _random(n: int, seed: int) -> Instance:
    return Instance(f"random{n}-s{seed}", "random_tournament", (n, 0.5, seed))


def _experiment(seed: int) -> Op:
    return Op("experiment", None, EXPERIMENT_ARGS + ("--seed", str(seed)))


def _exact(rng) -> tuple[list[Instance], list[Op]]:
    r7 = _rotation(7)
    insts = [r7, SC_TIGHT, PALEY]
    return insts, [Op("zeta", i.key) for i in insts] + [Op("bounds", r7.key)]


def _play(rng) -> tuple[list[Instance], list[Op]]:
    r9, r7 = _rotation(9), _rotation(7)
    return [r9, r7, SC_TIGHT, TRANSITIVE], [
        Op("play", r9.key, ("--strategy", "rotation")),
        Op("play", r9.key, ("--strategy", "rotation", "--cops", "4")),
        Op("play", r7.key, ("--strategy", "rotation", "--cops", "3")),
        Op("play", SC_TIGHT.key, ("--strategy", "sc_composite")),
        Op("play", TRANSITIVE.key, ("--strategy", "dag_sweep")),
    ]


def _tournament(rng) -> tuple[list[Instance], list[Op]]:
    r60 = _random(STATS_N, rng.randrange(POOL))
    return [r60, PALEY], [Op("stats", r60.key), Op("stats", PALEY.key),
                          _experiment(rng.randrange(POOL))]


def _cover(rng) -> tuple[list[Instance], list[Op]]:
    beta = [_random(BETA_N, s) for s in rng.sample(range(POOL), COVER_PICKS)]
    lov = [_random(LOVASZ_N, s) for s in rng.sample(range(POOL), COVER_PICKS)]
    return beta + lov, [Op("beta", i.key) for i in beta] + [Op("lovasz", i.key) for i in lov]


# Two workloads, each a pair of op groups run back to back in one pass.
# exact_play loads only the game solver and the play engine; tournament_cover
# loads only statistics, resolving sets, covering and the LP.  Each is the
# other's control: a change to one side's layers should leave the other
# workload unmoved.
WORKLOADS = {
    "exact_play": (_exact, _play),
    "tournament_cover": (_tournament, _cover),
}


def plan(workload: str, seed: int) -> tuple[list[Instance], list[Op]]:
    """The instances a workload writes as graph files and the ops of one pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    rng = random.Random(seed)
    insts: dict[str, Instance] = {}
    ops: list[Op] = []
    for group in WORKLOADS[workload]:
        group_insts, group_ops = group(rng)
        insts.update((i.key, i) for i in group_insts)
        ops += group_ops
    return list(insts.values()), ops


def pool_plan() -> tuple[list[Instance], list[Op]]:
    """Every instance and op any seed can draw; golden.json pins all of them."""
    insts, ops = plan("exact_play", 0)
    ops.append(Op("stats", PALEY.key))
    for s in range(POOL):
        r60, rb, rl = _random(STATS_N, s), _random(BETA_N, s), _random(LOVASZ_N, s)
        insts += [r60, rb, rl]
        ops += [Op("stats", r60.key), _experiment(s),
                Op("beta", rb.key), Op("lovasz", rl.key)]
    return insts, ops


def build(inst: Instance):
    from locgame import families

    return getattr(families, inst.family)(*inst.args)


def write_inputs(insts: list[Instance], workdir: Path) -> dict[str, Path]:
    """Build each instance and write it as an edge-list graph file."""
    from locgame import digraph

    paths = {}
    for inst in insts:
        path = workdir / f"{inst.key}.edges"
        digraph.write_digraph(build(inst), path)
        paths[inst.key] = path
    return paths


def out_path(workdir: Path, index: int, op: Op) -> Path:
    ext = {"play": "jsonl", "experiment": "csv"}.get(op.command, "json")
    return workdir / f"out-{index}.{ext}"


def run_op(op: Op, graphs: dict[str, Path], out: Path):
    """Run one op; returns the CLI exit code, or the answer for ``lovasz``."""
    if op.command == "lovasz":
        return _lovasz(graphs[op.graph])
    from locgame import cli

    argv = [op.command]
    if op.graph is not None:
        argv.append(str(graphs[op.graph]))
    return cli.main(argv + list(op.args) + ["--out", str(out)])


def _lovasz(path: Path) -> dict:
    from locgame import digraph, hypergraph, resolve

    g = digraph.read_digraph(path)
    dm = digraph.all_pairs_distances(g)
    h = resolve.distinguisher_hypergraph(g, dm)
    cover = hypergraph.greedy_vertex_cover(h)
    frac = hypergraph.fractional_vertex_cover(h)
    bound = hypergraph.lovasz_bound(h, frac.value)
    return {"tau_star": frac.value, "greedy": sorted(cover), "bound": bound}


def answer(op: Op, raw, out: Path) -> dict:
    """The op's answer in the form golden.json stores it."""
    if op.command == "lovasz":
        return raw
    data = out.read_bytes()
    ans = {"exit": raw, "sha256": hashlib.sha256(data).hexdigest()}
    if op.command == "play":
        last = json.loads(data.decode().splitlines()[-1])
        ans.update(outcome=last["outcome"], rounds=last["rounds"])
    elif op.command == "experiment":
        ans["rows"] = len(data.decode().splitlines()) - 1
    else:
        ans["report"] = json.loads(data)
    return ans


def same_answer(got: dict, want: dict) -> bool:
    """Exact equality, except that the LP values of ``lovasz`` may differ in
    the last bits between BLAS builds."""
    if "tau_star" not in want:
        return got == want
    return (
        got["greedy"] == want["greedy"]
        and abs(got["tau_star"] - want["tau_star"]) <= 1e-9
        and abs(got["bound"] - want["bound"]) <= 1e-9
    )
