"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-8 are exact (LP comparisons at 1e-9); criterion 9's statistical
screens are advisory by design, with only determinism enforced strictly.
Run with ``pytest tests/test_acceptance.py -v -s`` or ``locgame verify all``.
"""

import math
import random

import pytest

from locgame import (
    blowup,
    localization_lower_bound,
    localization_number_exact,
    lp_upper_bound,
    metric_dimension_exact,
    paley_tournament,
    rotation_tournament,
    sc_tight,
    tripartite_cycle,
)
from locgame.verify import (
    CheckResult,
    check_closed_form,
    check_dag,
    check_dim1,
    check_lovasz,
    check_paley,
    check_random_empirical,
    check_sc_bound,
    check_strategies,
    closed_form_instances,
)

LP_TOL = 1e-9


def report(criterion: str, results: list[CheckResult]) -> None:
    ok = all(r.passed for r in results)
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
    for r in results:
        print(f"    {r.line()}")
    assert ok, f"{criterion}: " + "; ".join(r.line() for r in results if not r.passed)


class TestCriterion1ExactValues:
    def test_rotation_tournaments(self):
        report(
            "criterion 1a: zeta of circulant tournaments (m=1,2,3)",
            check_closed_form("rotation"),
        )

    def test_tripartite(self):
        report(
            "criterion 1b: zeta of the tripartite cycle (i=1,2)",
            check_closed_form("d3"),
        )

    def test_blowup(self):
        report(
            "criterion 1c: zeta of the 9-vertex blow-up",
            check_closed_form("blowup"),
        )

    def test_sc_tight(self):
        report(
            "criterion 1d: zeta of the 14-vertex layered instance",
            check_closed_form("sc_tight"),
        )


def test_criterion_2_acyclic_digraphs():
    report("criterion 2: zeta = 1 on 50 seeded random acyclic digraphs", check_dag())


def test_criterion_3_dimension_one_classifier():
    report("criterion 3: classifier vs exact beta on 200 seeded digraphs", check_dim1())


def test_criterion_4_bound_chain():
    rows = []
    instances = closed_form_instances()
    rng = random.Random(20242)
    from locgame.verify import random_dag, random_digraph

    for t in range(50):
        instances.append((f"dag_{t}", random_dag(rng, rng.randint(2, 8), 0.5)))
    for t in range(200):
        n = rng.randint(2, 5)
        instances.append((f"small_{t}", random_digraph(rng, n, rng.uniform(0.2, 0.9))))
    bad = []
    for name, g in instances:
        zeta = localization_number_exact(g)
        beta, _ = metric_dimension_exact(g)
        lower = localization_lower_bound(g)
        upper = min(lp_upper_bound(g), float(g.n))
        if not (lower <= zeta <= beta <= upper):
            bad.append((name, lower, zeta, beta, upper))
    result = CheckResult(
        "chain", "all_instances", not bad,
        f"log_M(k+1) <= zeta <= beta <= min((1+2 ln n)/c, n) on "
        f"{len(instances) - len(bad)}/{len(instances)} exactly solved instances"
        + (f"; violations={bad[:3]}" if bad else ""),
    )
    report("criterion 4: bound chain on every exactly solved instance", [result])


def test_criterion_5_strong_component_bound():
    report(
        "criterion 5: zeta <= max component zeta + condensation out-degree "
        "on 100 seeded digraphs",
        check_sc_bound(),
    )


def test_criterion_6_strategies():
    report("criterion 6: strategy capture bounds and rotation tightness", check_strategies())


def test_criterion_7_covering_bounds():
    report("criterion 7: greedy cover within (1+ln d)*tau*, cover resolves", check_lovasz())


def test_criterion_8_doubly_regular():
    report("criterion 8: Paley checks (q=7,11,19) and exact beta/zeta", check_paley())


class TestCriterion8FrozenValues:
    """Exact values pinned from the brute-force oracle runs."""

    def test_beta_values(self):
        assert metric_dimension_exact(paley_tournament(7))[0] == 3
        assert metric_dimension_exact(paley_tournament(11))[0] == 3

    def test_zeta_values(self):
        assert localization_number_exact(paley_tournament(7)) == 2
        assert localization_number_exact(paley_tournament(11)) == 3


def test_criterion_9_random_tournament_screens():
    report(
        "criterion 9: seeded T(n,1/2) screens (determinism strict, "
        "statistics advisory)",
        check_random_empirical(),
    )


class TestExactValuesPinned:
    """Belt-and-braces restatement of criterion 1's numbers."""

    @pytest.mark.parametrize("m,expected", [(1, 1), (2, 2), (3, 2)])
    def test_rotation(self, m, expected):
        assert localization_number_exact(rotation_tournament(m)) == expected

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_tripartite(self, i):
        assert localization_number_exact(tripartite_cycle(i)) == i

    def test_blowup_value_matches_closed_form(self):
        # (k-1)*j + 1 at j=1, k=3, i.e. n/2 - sqrt(n) + 3/2 at n=9
        n = 9
        assert localization_number_exact(blowup(rotation_tournament(1), 3)) == int(
            n / 2 - math.sqrt(n) + 3 / 2
        )

    def test_sc_tight_value(self):
        assert localization_number_exact(sc_tight(3, 1)) == 3
