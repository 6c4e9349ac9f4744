"""The random graphs the seeded ``verify`` suites draw.

The golden ``verify`` outputs print only counts, so a suite that drew other
graphs would still match them.  Each reference below is the suite's drawing
loop as it stood before the suites drew through ``verify._draws``, copied
as it was; the suite must draw the same graphs in the same order.
"""

import random

import pytest

from locgame import verify
from locgame.structure import strong_components
from locgame.verify import random_dag, random_digraph


def dag_reference():
    graphs = []
    trials = 50
    rng = random.Random(20240)
    for t in range(trials):
        n = rng.randint(2, 8)
        g = random_dag(rng, n, rng.uniform(0.2, 0.8))
        graphs.append(g)
    return graphs


def dim1_reference():
    graphs = []
    trials = 200
    rng = random.Random(20241)
    for t in range(trials):
        n = rng.randint(1, 5)
        g = random_digraph(rng, n, rng.uniform(0.2, 0.9))
        graphs.append(g)
    return graphs


def chain_reference():
    instances = []
    rng = random.Random(20242)
    for t in range(10):
        instances.append((f"dag_{t}", random_dag(rng, rng.randint(2, 8), 0.5)))
    for t in range(20):
        n = rng.randint(2, 5)
        instances.append((f"small_{t}", random_digraph(rng, n, rng.uniform(0.2, 0.9))))
    return [g for _, g in instances]


def sc_reference():
    """Every graph drawn, the ones skipped for a large component too."""
    graphs = []
    trials = 100
    rng = random.Random(20243)
    done = 0
    while done < trials:
        n = rng.randint(2, 10)
        g = random_digraph(rng, n, rng.uniform(0.2, 0.7))
        graphs.append(g)
        scc = strong_components(g)
        if max(len(c) for c in scc.components) > 6:
            continue
        done += 1
    return graphs


def lovasz_reference():
    instances = []
    rng = random.Random(20247)
    for t in range(5):
        instances.append((f"dag_{t}", random_dag(rng, rng.randint(2, 8), 0.5)))
    for t in range(10):
        n = rng.randint(2, 6)
        instances.append((f"small_{t}", random_digraph(rng, n, rng.uniform(0.2, 0.9))))
    return [g for _, g in instances]


@pytest.mark.parametrize(
    "check, reference",
    [
        ("dag", dag_reference),
        ("dim1", dim1_reference),
        ("chain", chain_reference),
        ("sc", sc_reference),
        ("lovasz", lovasz_reference),
    ],
)
def test_suite_draws_the_pinned_graphs(monkeypatch, check, reference):
    drawn = []
    draws = verify._draws

    def recorded(*args, **kwargs):
        for g in draws(*args, **kwargs):
            drawn.append((g.n, g.sorted_arcs()))
            yield g

    monkeypatch.setattr(verify, "_draws", recorded)
    results = verify.CHECKS[check]()
    assert all(r.passed for r in results)
    assert drawn == [(g.n, g.sorted_arcs()) for g in reference()]
