"""Byte-exact CLI outputs on a small pinned corpus.

``golden_cli.json`` holds the corpus graphs, the decomposition files and,
for every command line, the exit code and the exact stdout.  The test writes
the files into a temporary directory, runs each command in-process, and
compares the bytes.  Regenerate the file only when an output change is
intended:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from locgame.cli import main
from locgame.digraph import Digraph, to_edge_list, to_json

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _random_oriented(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, arcs)


def _random_dag(rng: random.Random, n: int, p: float) -> Digraph:
    order = list(range(n))
    rng.shuffle(order)
    arcs = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Digraph(n, arcs)


def build_corpus() -> dict:
    """Graphs, decompositions and command lines of the corpus (no outputs)."""
    from locgame import families as fam

    graphs: dict[str, Digraph] = {
        "rotation1": fam.rotation_tournament(1),
        "rotation2": fam.rotation_tournament(2),
        "rotation3": fam.rotation_tournament(3),
        "rotation4": fam.rotation_tournament(4),
        "d3_2": fam.tripartite_cycle(2),
        "blowup1_3": fam.blowup(fam.rotation_tournament(1), 3),
        "sc_tight11": fam.sc_tight(1, 1),
        "sc_tight31": fam.sc_tight(3, 1),
        "paley7": fam.paley_tournament(7),
        "paley11": fam.paley_tournament(11),
        "transitive5": fam.transitive_tournament(5),
        "path5_alt": Digraph(5, [(0, 1), (2, 1), (2, 3), (4, 3)]),
        "two_cycles": Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
        "single": Digraph(1, []),
    }
    rng = random.Random(20261017)
    for t in range(6):
        n = rng.randint(4, 11)
        graphs[f"random{t}_n{n}"] = _random_oriented(rng, n, rng.uniform(0.3, 0.8))
    for t in range(3):
        n = rng.randint(4, 9)
        graphs[f"dag{t}_n{n}"] = _random_dag(rng, n, rng.uniform(0.3, 0.7))
    for t, n in enumerate((6, 9)):
        graphs[f"tournament{t}_n{n}"] = fam.random_tournament(n, 0.5, 100 + t)

    decompositions = {
        "pd_transitive5": {"bags": [[v] for v in range(5)]},
        "pd_path5_alt": {"bags": [[0], [2], [4], [1], [3]]},
        "pd_rotation1": {"bags": [[0, 1], [0, 2]]},
        "pd_sc_tight11": {"bags": [[0, 1, 2], [3, 4, 5]]},
        "dd_transitive5": {
            "index": {"n": 5, "arcs": [[u, v] for u in range(5) for v in range(u + 1, 5)]},
            "bags": [[v] for v in range(5)],
        },
        "dd_rotation1": {"index": {"n": 1, "arcs": []}, "bags": [[0, 1, 2]]},
        "dd_sc_tight11": {"index": {"n": 2, "arcs": [[0, 1]]}, "bags": [[0, 1, 2], [3, 4, 5]]},
    }

    commands: list[list[str]] = []
    for name in graphs:
        commands.append(["bounds", f"@{name}"])
        commands.append(["bounds", f"@{name}", "--max-cops", "1"])
        if graphs[name].n > 1:  # stats of a one-vertex tournament is undefined
            commands.append(["stats", f"@{name}"])
    for name in ("transitive5", "path5_alt", "single") + tuple(
        name for name in graphs if name.startswith("dag")
    ):
        commands.append(["play", f"@{name}", "--strategy", "dag_sweep"])
    for name in graphs:
        commands.append(["play", f"@{name}", "--strategy", "sc_composite"])
    for name in ("rotation1", "rotation2", "rotation3", "rotation4"):
        commands.append(["play", f"@{name}", "--strategy", "rotation"])
    commands.append(["play", "@rotation4", "--strategy", "rotation", "--cops", "2"])
    commands.append(["play", "@rotation3", "--strategy", "rotation", "--cops", "1"])
    for name in ("transitive5", "path5_alt", "rotation1", "sc_tight11"):
        commands.append(
            ["play", f"@{name}", "--strategy", "path_sweep", "--decomposition", f"@pd_{name}"]
        )
    for name in ("transitive5", "rotation1", "sc_tight11"):
        commands.append(
            ["play", f"@{name}", "--strategy", "dag_decomp_sweep",
             "--decomposition", f"@dd_{name}"]
        )
    commands.append(["play", "@rotation2", "--strategy", "sc_composite", "--max-rounds", "1"])
    for check in ("chain", "sc", "strategies", "lovasz"):
        commands.append(["verify", check])
    for name in graphs:
        commands.append(["beta", f"@{name}"])
        commands.append(["zeta", f"@{name}"])
    for check in ("rotation", "d3", "blowup", "sc_tight"):
        commands.append(["verify", check])
    for check in ("dag", "dim1", "paley", "random"):
        commands.append(["verify", check])
    for argv in (
        "rotation 3", "d3 2", "blowup 1 3", "sc_tight 3 1", "paley 7", "transitive 5",
        "random 10 0.5 --seed 1", "sc_tight 1 1 --format json",
    ):
        commands.append(["gen"] + argv.split())

    return {
        "graphs": {
            # every third graph as JSON, the rest as edge lists
            name: {"file": f"{name}.json" if i % 3 == 0 else f"{name}.txt",
                   "n": g.n, "arcs": [list(a) for a in g.sorted_arcs()]}
            for i, (name, g) in enumerate(graphs.items())
        },
        "decompositions": decompositions,
        "commands": commands,
    }


def write_files(corpus: dict, workdir: Path) -> dict[str, str]:
    """Write the corpus files; returns ``@name`` -> path."""
    paths = {}
    for name, spec in corpus["graphs"].items():
        g = Digraph(spec["n"], [tuple(a) for a in spec["arcs"]])
        path = workdir / spec["file"]
        path.write_text(to_json(g) + "\n" if path.suffix == ".json" else to_edge_list(g))
        paths[f"@{name}"] = str(path)
    for name, data in corpus["decompositions"].items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[f"@{name}"] = str(path)
    return paths


def run_command(argv: list[str], paths: dict[str, str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([paths.get(a, a) for a in argv])
    return code, buf.getvalue()


def _case_id(argv: list[str]) -> str:
    return " ".join(a.lstrip("@") for a in argv)


def _load_cases() -> list[dict]:
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text())["cases"]


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    golden = json.loads(GOLDEN.read_text())
    return write_files(golden, tmp_path_factory.mktemp("golden_cli"))


@pytest.mark.parametrize("case", _load_cases(), ids=lambda c: _case_id(c["argv"]))
def test_cli_output_is_pinned(case, corpus_paths):
    code, out = run_command(case["argv"], corpus_paths)
    assert code == case["exit"]
    assert out == case["stdout"]


def test_every_verify_check_is_pinned():
    from locgame.verify import CHECKS

    pinned = {c["argv"][1] for c in _load_cases() if c["argv"][0] == "verify"}
    assert pinned == set(CHECKS)


def _write_golden() -> None:
    import tempfile

    corpus = build_corpus()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(corpus, Path(tmp))
        for argv in corpus["commands"]:
            code, out = run_command(argv, paths)
            cases.append({"argv": argv, "exit": code, "stdout": out})
    golden = {
        "graphs": corpus["graphs"],
        "decompositions": corpus["decompositions"],
        "cases": cases,
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write_golden()
