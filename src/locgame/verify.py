"""Data-driven verification suites.

Each check is a named callable returning ``CheckResult`` rows; the CLI
``verify`` subcommand and the acceptance tests run the same registry, so a
new check is one more entry in ``CHECKS``.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Callable, Iterator, NamedTuple

from .digraph import Digraph, diameter
from .decomposition import DagDecomposition, PathDecomposition
from .experiment import ExperimentConfig, rows_to_csv, run_experiment
from .families import (
    FAMILIES,
    paley_tournament,
    rotation_tournament,
    sc_tight,
    transitive_tournament,
)
from .game import localization_number_exact, optimal_robber, play
from .hypergraph import fractional_vertex_cover, greedy_vertex_cover, lovasz_bound
from .resolve import (
    CASE_NO,
    distinguisher_hypergraph,
    is_resolving,
    lp_upper_bound,
    metric_dim_one_classifier,
    metric_dimension_exact,
)
from .stats import tournament_stats
from .structure import (
    localization_lower_bound,
    out_degeneracy,
    spread_m,
    strong_components,
)
from .strategies import (
    dag_decomp_sweep,
    dag_sweep,
    path_sweep,
    rotation_strategy,
    sc_composite,
)

LP_TOL = 1e-9


class CheckResult(NamedTuple):
    check: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check}/{self.name}: {self.detail}"


def _result(check: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(check, name, bool(passed), detail)


# -- closed forms --------------------------------------------------------------

# (family, parameters, localization number); rotation has zeta = m // 2 + 1
CLOSED_FORMS: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("rotation", (1,), 1),
    ("rotation", (2,), 2),
    ("rotation", (3,), 2),
    ("d3", (1,), 1),
    ("d3", (2,), 2),
    ("blowup", (1, 3), 3),
    ("sc_tight", (3, 1), 3),
)


def closed_form_instances() -> list[tuple[str, Digraph]]:
    """The closed-form digraphs, each named by its family and parameter
    initials (``blowup_j1_k3``)."""
    rows = []
    for family, params, _ in CLOSED_FORMS:
        names, build = FAMILIES[family]
        label = "_".join(f"{name[0]}{value}" for name, value in zip(names, params))
        rows.append((f"{family}_{label}", build(*params)))
    return rows


def check_closed_form(family: str) -> list[CheckResult]:
    """zeta of each of the family's closed-form instances."""
    names, build = FAMILIES[family]
    out = []
    for fam, params, expected in CLOSED_FORMS:
        if fam == family:
            zeta = localization_number_exact(build(*params))
            out.append(
                _result(
                    family, ",".join(f"{name}={value}" for name, value in zip(names, params)),
                    zeta == expected, f"zeta={zeta} expected={expected}",
                )
            )
    return out


# -- the bound report ----------------------------------------------------------


def bounds_report(g: Digraph, k_max: int | None = None) -> dict:
    """zeta and beta with every bound around them, as the ``bounds`` command
    reports them (unreachable values stay INF).

    ``upper_sc`` is the strong-component bound: the largest component zeta
    plus the condensation's maximum out-degree.  ``consistent`` holds when
    lower_dt <= zeta <= beta <= min(upper_lp, n) and zeta <= upper_sc; it is
    False when zeta exceeds ``k_max`` (zeta is then None).

    The component solves run without ``k_max``, so ``upper_sc`` stays exact
    even when zeta itself is cut short (the ``bounds --max-cops`` output is
    pinned with that value).  ``game.MAX_SOLVER_VERTICES`` and
    ``game.MAX_PROBE_SETS`` bound them instead: past either, they raise
    ``game.BudgetExceededError``.
    """
    zeta = localization_number_exact(g, k_max=k_max)
    beta, _ = metric_dimension_exact(g)
    lower_dt = localization_lower_bound(g)
    upper_lp = lp_upper_bound(g)
    scc = strong_components(g)
    if len(scc.components) == 1 and zeta is not None:
        # the only component is g itself, already solved
        upper_sc = scc.max_out_degree + zeta
    else:
        upper_sc = scc.max_out_degree + max(
            localization_number_exact(g.induced(comp)[0]) for comp in scc.components
        )
    return {
        "zeta": zeta,
        "beta": beta,
        "lower_dt": lower_dt,
        "upper_lp": upper_lp,
        "upper_sc": upper_sc,
        "spread": spread_m(g),
        "out_degeneracy": out_degeneracy(g),
        "consistent": (
            zeta is not None
            and lower_dt <= zeta <= beta <= min(upper_lp, g.n)
            and zeta <= upper_sc
        ),
    }


# -- random structural suites ------------------------------------------------


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    """Oriented random digraph: each unordered pair independently carries an
    arc with probability p, directed uniformly."""
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, arcs)


def random_dag(rng: random.Random, n: int, p: float) -> Digraph:
    """Random acyclic digraph via a random topological order."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                arcs.append((order[i], order[j]))
    return Digraph(n, arcs)


def _draws(
    rng: random.Random,
    make: Callable[[random.Random, int, float], Digraph],
    sizes: tuple[int, int],
    p: float | tuple[float, float],
    count: int | None = None,
) -> Iterator[Digraph]:
    """``count`` graphs ``make(rng, n, p)``, or graphs without end when
    ``count`` is None.  Each draws n by ``rng.randint(*sizes)``, then p by
    ``rng.uniform(*p)`` unless p is a fixed float, in that order: the
    suites pin their graphs by their seeds."""
    for _ in range(count) if count is not None else itertools.count():
        n = rng.randint(*sizes)
        yield make(rng, n, p if isinstance(p, float) else rng.uniform(*p))


def _instances(
    seed: int, dags: int, smalls: int, small_n: int, extra: tuple = ()
) -> list[tuple[str, Digraph]]:
    """The closed forms, then ``extra``, then ``dags`` random DAGs and
    ``smalls`` random digraphs on 2..small_n vertices, drawn in that order
    from one generator seeded with ``seed``."""
    rng = random.Random(seed)
    dag_graphs = _draws(rng, random_dag, (2, 8), 0.5, dags)
    small_graphs = _draws(rng, random_digraph, (2, small_n), (0.2, 0.9), smalls)
    return [
        *closed_form_instances(),
        *extra,
        *((f"dag_{t}", g) for t, g in enumerate(dag_graphs)),
        *((f"small_{t}", g) for t, g in enumerate(small_graphs)),
    ]


def check_dag() -> list[CheckResult]:
    trials = 50
    failures = []
    for t, g in enumerate(_draws(random.Random(20240), random_dag, (2, 8), (0.2, 0.8), trials)):
        zeta = localization_number_exact(g, k_max=2)
        if zeta != 1:
            failures.append((t, g.sorted_arcs(), zeta))
    return [
        _result(
            "dag", f"{trials}_random_dags", not failures,
            f"{trials - len(failures)}/{trials} acyclic digraphs have zeta=1"
            + (f"; failures={failures[:3]}" if failures else ""),
        )
    ]


def check_dim1() -> list[CheckResult]:
    trials = 200
    disagreements = []
    for t, g in enumerate(_draws(random.Random(20241), random_digraph, (1, 5), (0.2, 0.9), trials)):
        beta, _ = metric_dimension_exact(g)
        verdict = metric_dim_one_classifier(g)
        if (verdict != CASE_NO) != (beta == 1):
            disagreements.append((t, g.sorted_arcs(), verdict, beta))
    detail = f"{trials} digraphs on <=5 vertices, {len(disagreements)} disagreements"
    if disagreements:
        detail += f"; first={disagreements[0]}"
    return [_result("dim1", "classifier_vs_exact", not disagreements, detail)]


def check_chain() -> list[CheckResult]:
    """The bound report is consistent on every exactly solved instance."""
    instances = _instances(20242, dags=10, smalls=20, small_n=5)
    bad = []
    for name, g in instances:
        report = bounds_report(g)
        if not report["consistent"]:
            bad.append((name, report))
    return [
        _result(
            "chain", "lower<=zeta<=beta<=upper", not bad,
            f"{len(instances)} instances checked" + (f"; violations={bad}" if bad else ""),
        )
    ]


def check_sc_bound() -> list[CheckResult]:
    trials = 100
    # the exact solves stay small: no strong component above 6 vertices
    graphs = (
        g for g in _draws(random.Random(20243), random_digraph, (2, 10), (0.2, 0.7))
        if max(len(c) for c in strong_components(g).components) <= 6
    )
    bad = []
    for g in itertools.islice(graphs, trials):
        report = bounds_report(g)
        if report["zeta"] > report["upper_sc"]:
            bad.append((g.sorted_arcs(), report["zeta"], report["upper_sc"]))
    return [
        _result(
            "sc", f"{trials}_random_digraphs", not bad,
            f"zeta <= max component zeta + Delta held on {trials - len(bad)}/{trials}"
            + (f"; violations={bad[:2]}" if bad else ""),
        )
    ]


# -- strategy execution -------------------------------------------------------


def _strategy_case(name, g, strategy, bound, evade=False):
    """Play ``strategy`` against the optimal robber for at most ``bound``
    rounds: it must capture within them or, with ``evade``, never."""
    outcome = play(g, strategy, optimal_robber(g, strategy.cops), max_rounds=bound).outcome
    if evade:
        return _result(
            "strategies", name, not outcome.captured,
            f"unexpected capture in {outcome.rounds}" if outcome.captured
            else f"{strategy.cops} cops evaded for {outcome.rounds} rounds",
        )
    return _result(
        "strategies", name, outcome.captured and outcome.rounds <= bound,
        f"captured in {outcome.rounds} <= {bound} rounds" if outcome.captured
        else f"evaded for {outcome.rounds} rounds",
    )


def check_strategies() -> list[CheckResult]:
    t4, t5, c3 = transitive_tournament(4), transitive_tournament(5), rotation_tournament(1)
    single = Digraph(1, [])
    p6 = Digraph(6, [(i, i + 1) for i in range(5)])
    p5 = Digraph(5, [(0, 1), (2, 1), (2, 3), (4, 3)])  # alternating orientation
    sc11, sc31 = sc_tight(1, 1), sc_tight(3, 1)
    two_cycles = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    rotations = [(m, rotation_tournament(m)) for m in (2, 3, 4)]
    # (name, graph, strategy, round bound[, evade])
    rows = [
        ("dag_sweep_T4", t4, dag_sweep(t4), 4),
        ("dag_sweep_single", single, dag_sweep(single), 1),
        ("dag_sweep_P6", p6, dag_sweep(p6), 6),
        ("path_sweep_T4", t4, path_sweep(t4, PathDecomposition([{i} for i in range(4)])), 4),
        ("path_sweep_P5", p5, path_sweep(p5, PathDecomposition([{v} for v in (0, 2, 4, 1, 3)])), 5),
        ("path_sweep_cycle", c3, path_sweep(c3, PathDecomposition([{0, 1}, {0, 2}])), 2),
        (
            "dag_decomp_T5", t5,
            dag_decomp_sweep(t5, DagDecomposition(t5, [{v} for v in range(5)])), 5,
        ),
        ("dag_decomp_cycle", c3, dag_decomp_sweep(c3, DagDecomposition(single, [{0, 1, 2}])), 1),
        (
            "dag_decomp_sc_tight11", sc11,
            dag_decomp_sweep(sc11, DagDecomposition(Digraph(2, [(0, 1)]), [{0, 1, 2}, {3, 4, 5}])),
            2,
        ),
        ("sc_composite_sc_tight31", sc31, sc_composite(sc31), 2),
        ("sc_composite_T4", t4, sc_composite(t4), 4),
        ("sc_composite_two_cycles", two_cycles, sc_composite(two_cycles), 2),
        *(
            (f"rotation_T{2 * m + 1}", g, rotation_strategy(m), 2 if m % 2 == 0 else 3)
            for m, g in rotations
        ),
        # tightness: one cop short never captures within 5n rounds
        *(
            (f"rotation_T{2 * m + 1}_short_budget", g, rotation_strategy(m, cops=m // 2),
             5 * g.n, True)
            for m, g in rotations
        ),
    ]
    return [_strategy_case(*row) for row in rows]


# -- covering bounds -----------------------------------------------------------


def check_lovasz() -> list[CheckResult]:
    extra = (("paley_7", paley_tournament(7)), ("paley_11", paley_tournament(11)))
    out = []
    for name, g in _instances(20247, dags=5, smalls=10, small_n=6, extra=extra):
        h = distinguisher_hypergraph(g)
        cover = greedy_vertex_cover(h)
        frac = fractional_vertex_cover(h)
        bound = lovasz_bound(h, frac.value)
        ok_bound = len(cover) <= bound + LP_TOL
        ok_resolving = is_resolving(g, cover)
        out.append(
            _result(
                "lovasz", name, ok_bound and ok_resolving,
                f"greedy={len(cover)} <= (1+ln d)*tau*={bound:.4f}, "
                f"resolving={ok_resolving}",
            )
        )
    return out


def check_paley() -> list[CheckResult]:
    out = []
    for q in (7, 11, 19):
        g = paley_tournament(q)
        t = tournament_stats(g)
        target = (q - 3) // 2
        s_ok = bool((t.sameness == target).all())
        diam = diameter(g)
        out.append(
            _result(
                "paley", f"q={q}", t.doubly_regular and s_ok and diam == 2,
                f"doubly_regular={t.doubly_regular}, s(x,y)=={target}: {s_ok}, diameter={diam}",
            )
        )
    for q in (7, 11):
        g = paley_tournament(q)
        beta, _ = metric_dimension_exact(g)
        zeta = localization_number_exact(g)
        out.append(
            _result(
                "paley", f"beta_zeta_q={q}", zeta <= beta,
                f"zeta={zeta} <= beta={beta}",
            )
        )
    return out


def check_random_empirical() -> list[CheckResult]:
    """Seed-pinned empirical screens on T(n, 1/2); only determinism is strict."""
    config = ExperimentConfig(sizes=(30, 50), p=0.5, trials=10, seed=20249)
    rows = run_experiment(config)
    rows_again = run_experiment(config)
    deterministic = rows_to_csv(rows) == rows_to_csv(rows_again)

    out = [
        _result(
            "random", "determinism", deterministic,
            "identical CSV bytes across two runs",
        )
    ]
    for n in (30, 50):
        sub = [r for r in rows if r["n"] == n]
        diam_ok = all(r["diameter"] == 2 for r in sub)
        ratio_ok = all(0.8 <= r["e4c_ratio"] <= 1.2 for r in sub)
        s_ok = all(r["s_frac_in_bracket"] >= 0.95 for r in sub)
        # advisory screens: reported, not enforced
        out.append(
            _result(
                "random", f"screens_n={n}", True,
                f"diameter2={diam_ok}, e4c_in_[0.8,1.2]={ratio_ok}, "
                f"s_bracket_95pct={s_ok} (advisory)",
            )
        )
    return out


CHECKS: dict[str, Callable[[], list[CheckResult]]] = {
    **{family: partial(check_closed_form, family) for family, _, _ in CLOSED_FORMS},
    "dag": check_dag,
    "dim1": check_dim1,
    "chain": check_chain,
    "sc": check_sc_bound,
    "strategies": check_strategies,
    "lovasz": check_lovasz,
    "paley": check_paley,
    "random": check_random_empirical,
}


def run_checks(ids: list[str]) -> list[CheckResult]:
    results = []
    for check_id in ids:
        if check_id not in CHECKS:
            raise ValueError(f"unknown check {check_id!r}; known: {sorted(CHECKS)}")
        results.extend(CHECKS[check_id]())
    return results
