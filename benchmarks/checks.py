"""Independent cross-checks of op answers.

These recompute what they can without locgame's solvers: distances come
from scipy's graph BFS on the graph file as read here, tournament statistics
from the +-1 indicator matrix, and the fractional cover from
``scipy.optimize.linprog``.  Transcripts go through
``GameTranscript.from_json_lines`` and are replayed move by move.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

LP_TOL = 1e-6


def read_adjacency(path: Path) -> np.ndarray:
    """0/1 adjacency matrix of an edge-list graph file."""
    lines = [ln.split("#", 1)[0].strip() for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0])
    a = np.zeros((n, n), dtype=np.int64)
    for ln in lines[1:]:
        u, v = map(int, ln.split())
        a[u, v] = 1
    return a


def distances(a: np.ndarray) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    return shortest_path(csr_matrix(a), directed=True, unweighted=True)


def _resolves(dist: np.ndarray, witnesses) -> bool:
    vectors = {tuple(dist[w, x] for w in witnesses) for x in range(len(dist))}
    return len(vectors) == len(dist)


def _report_value(d: float):
    return None if math.isinf(d) else int(d)


def cross_check(op, ans: dict, graphs: dict[str, Path], out: Path) -> str | None:
    """None when the answer agrees with every independent check, else why not.

    ``out`` is the file the op wrote its answer to.
    """
    if op.command == "experiment":
        return _check_experiment(op, out.read_text())
    a = read_adjacency(graphs[op.graph])
    if op.command == "lovasz":
        return _check_lovasz(a, ans)
    if op.command == "play":
        return _check_play(a, ans["exit"], out.read_text())
    report = ans["report"]
    if op.command in ("zeta", "bounds") and op.graph.startswith("rotation-"):
        m = int(op.graph.split("-")[1])
        if report["zeta"] != m // 2 + 1:
            return f"zeta {report['zeta']} != floor(m/2)+1 = {m // 2 + 1}"
    if op.command == "bounds" and not report["consistent"]:
        return "bound chain reported inconsistent"
    if op.command == "beta":
        w = report["witness"]
        if len(w) != report["beta"] or not _resolves(distances(a), w):
            return f"witness {w} does not resolve with {report['beta']} vertices"
    if op.command == "stats":
        return _check_stats(a, report)
    return None


def _sameness(a: np.ndarray) -> np.ndarray:
    """s(u, v) for all pairs of a tournament: (n - 2 + C C^T) / 2."""
    c = a - a.T
    return (len(a) - 2 + c @ c.T) // 2


def _check_stats(a: np.ndarray, report: dict) -> str | None:
    n = len(a)
    dist = distances(a)
    tournament = bool(np.all(a + a.T + np.eye(n, dtype=np.int64) == 1))
    want = {
        "n": n,
        "arcs": int(a.sum()),
        "tournament": tournament,
        "diameter": _report_value(dist.max()),
    }
    if tournament:
        iu = np.triu_indices(n, 1)
        s = _sameness(a)[iu]
        t = (n - 3) // 4
        want.update(
            s_min=int(s.min()),
            s_max=int(s.max()),
            sameness_deviation=int(np.abs(2 * s - n).sum()),
            doubly_regular=bool(
                (n - 3) % 4 == 0
                and np.all(a.sum(1) == (n - 1) // 2)
                and np.all((a @ a.T)[iu] == t)
                and np.all((a.T @ a)[iu] == t)
            ),
        )
    wrong = {k: (report.get(k), v) for k, v in want.items() if report.get(k) != v}
    return f"stats fields (reported, independent): {wrong}" if wrong else None


def _check_play(a: np.ndarray, exit_code: int, text: str) -> str | None:
    from locgame.game import GameTranscript

    transcript = GameTranscript.from_json_lines(text)
    if transcript.to_json_lines() != text:
        return "transcript does not round-trip through from_json_lines"
    dist = distances(a)
    n = len(a)
    cands = set(range(n))
    for number, r in enumerate(transcript.rounds, start=1):
        if r.number != number:
            return f"round {r.number} out of order"
        vec = tuple(r.vector)
        cls = {x for x in cands if tuple(dist[p, x] for p in r.probe) == vec}
        if cls != set(r.chosen_class):
            return f"round {number}: class is not the cell of vector {vec}"
        stepped = set(cls)
        if len(cls) > 1:
            stepped.update(int(v) for v in np.nonzero(a[sorted(cls)].any(0))[0])
        if stepped != set(r.stepped):
            return f"round {number}: stepped set is not the robber's closed move"
        cands = stepped
    out = transcript.outcome
    captured = bool(transcript.rounds) and len(transcript.rounds[-1].chosen_class) == 1
    if out.captured != captured or out.rounds != len(transcript.rounds):
        return "outcome does not match the replayed rounds"
    if not captured and out.rounds != 5 * n:
        return f"evaded after {out.rounds} rounds, default limit is {5 * n}"
    if exit_code != (0 if captured else 1):
        return f"exit code {exit_code} for outcome {out}"
    return None


def _flag(args: tuple[str, ...], name: str) -> list[int]:
    values = []
    for a in args[args.index(name) + 1:]:
        if a.startswith("--"):
            break
        values.append(int(a))
    return values


def _check_experiment(op, text: str) -> str | None:
    from locgame.families import random_tournament

    rows = list(csv.DictReader(io.StringIO(text)))
    sizes = _flag(op.args, "--n")
    (trials,) = _flag(op.args, "--trials")
    (seed,) = _flag(op.args, "--seed")
    if len(rows) != len(sizes) * trials:
        return f"{len(rows)} rows for {sizes} x {trials} trials"
    for row, (n, t) in zip(rows, [(n, t) for n in sizes for t in range(trials)]):
        g = random_tournament(n, 0.5, seed + t)
        a = np.zeros((n, n), dtype=np.int64)
        for u, v in g.arcs:
            a[u, v] = 1
        s = _sameness(a)[np.triu_indices(n, 1)]
        want = {"n": n, "seed": seed, "trial": t, "s_min": int(s.min()),
                "s_max": int(s.max()), "diameter": _report_value(distances(a).max())}
        got = {k: None if row[k] == "inf" else int(row[k]) for k in want}
        if got != want:
            return f"row n={n} trial={t}: {got} != {want}"
    return None


def _check_lovasz(a: np.ndarray, ans: dict) -> str | None:
    from scipy.optimize import linprog

    dist = distances(a)
    n = len(a)
    edges = [
        [w for w in range(n) if dist[w, x] != dist[w, y]]
        for x in range(n) for y in range(x + 1, n)
    ]
    m = np.zeros((len(edges), n))
    for i, e in enumerate(edges):
        m[i, e] = 1.0
    lp = linprog(np.ones(n), A_ub=-m, b_ub=-np.ones(len(edges)), bounds=(0, 1), method="highs")
    if not lp.success or abs(lp.fun - ans["tau_star"]) > LP_TOL:
        return f"tau* {ans['tau_star']} vs linprog {lp.fun}"
    d = int(m.sum(0).max())
    if abs((1 + math.log(d)) * ans["tau_star"] - ans["bound"]) > 1e-9:
        return f"bound {ans['bound']} != (1 + ln {d}) * tau*"
    if len(ans["greedy"]) > ans["bound"] + 1e-9 or not _resolves(dist, ans["greedy"]):
        return f"greedy cover {ans['greedy']} exceeds the bound or does not resolve"
    return None
