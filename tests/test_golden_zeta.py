"""Exact ζ on seeded random tournaments and oriented digraphs (n = 12–20).

``golden_zeta.json`` was pinned from an earlier, independently written
solver; any rewrite of the fixpoint must reproduce every value.  Its
'oriented' instances come from ``locgame.verify.random_digraph``, line for
line the test helper the table's ``about`` text names.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from locgame import localization_number_exact, random_tournament
from locgame.verify import random_digraph


GOLDEN = json.loads(Path(__file__).with_name("golden_zeta.json").read_text())["instances"]


def _build(spec):
    if spec["kind"] == "tournament":
        return random_tournament(spec["n"], spec["p"], spec["seed"])
    return random_digraph(random.Random(spec["seed"]), spec["n"], spec["p"])


def test_table_shape():
    assert len(GOLDEN) == 20
    assert all(12 <= spec["n"] <= 20 for spec in GOLDEN)
    assert sum(spec["n"] == 20 for spec in GOLDEN) <= 2


@pytest.mark.parametrize(
    "spec", GOLDEN, ids=[f"{s['kind']}-n{s['n']}-seed{s['seed']}" for s in GOLDEN]
)
def test_zeta_matches_pinned_value(spec):
    g = _build(spec)
    assert g.arc_count == spec["arcs"]
    assert localization_number_exact(g) == spec["zeta"]
