import random

import numpy as np
import pytest

from locgame import (
    DagDecomposition,
    Digraph,
    PathDecomposition,
    transitive_tournament,
    validate_dag_decomposition,
    validate_path_decomposition,
)
from locgame.decomposition import (
    dag_decomposition_from_json,
    dag_decomposition_to_json,
    path_decomposition_from_json,
    path_decomposition_to_json,
    read_decomposition,
)
from locgame.verify import random_digraph

from conftest import dag_guard_condition


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def literal_path_conditions(g, bags):
    """Independent re-implementation: the three conditions verbatim as loops."""
    bags = [set(b) for b in bags]
    union = set().union(*bags)
    if union != set(range(g.n)):
        return False
    k = len(bags)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                if not (bags[i] & bags[l]) <= bags[j]:
                    return False
    for (v, u) in g.arcs:
        together = any(u in b and v in b for b in bags)
        ordered = any(
            v in bags[i] and u in bags[j] for i in range(k) for j in range(i + 1, k)
        )
        if not (together or ordered):
            return False
    return True


class TestPathDecomposition:
    def test_transitive_singleton_bags_width_zero(self):
        g = transitive_tournament(4)
        pd = PathDecomposition([{i} for i in range(4)])
        result = validate_path_decomposition(g, pd)
        assert result.valid and result.width == 0

    def test_cycle_singleton_bags_invalid(self):
        result = validate_path_decomposition(
            cycle3(), PathDecomposition([{0}, {1}, {2}])
        )
        assert not result.valid
        assert "arc" in result.violation

    def test_path_two_bags_valid_width_one(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        result = validate_path_decomposition(g, PathDecomposition([{0, 1}, {1, 2}]))
        assert result.valid and result.width == 1

    def test_missing_vertex(self):
        result = validate_path_decomposition(
            cycle3(), PathDecomposition([{0, 1}])
        )
        assert not result.valid and "not in any bag" in result.violation

    def test_gap_in_bag_run(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        pd = PathDecomposition([{0, 2}, {1}, {2}])
        result = validate_path_decomposition(g, pd)
        assert not result.valid

    def test_matches_literal_checker(self):
        rng = random.Random(7)
        agree = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            g = random_digraph(rng, n, rng.uniform(0.2, 0.8))
            nbags = rng.randint(1, 4)
            bags = [
                {v for v in range(n) if rng.random() < 0.6} for _ in range(nbags)
            ]
            pd = PathDecomposition(bags)
            expected = literal_path_conditions(g, bags)
            assert validate_path_decomposition(g, pd).valid == expected
            agree += 1
        assert agree == 300


class TestDagDecomposition:
    def test_identity_decomposition_of_dag(self):
        g = transitive_tournament(5)
        dd = DagDecomposition(g, [{v} for v in range(5)])
        result = validate_dag_decomposition(g, dd)
        assert result.valid and result.width == 1

    def test_single_bag_cycle(self):
        dd = DagDecomposition(Digraph(1, []), [{0, 1, 2}])
        result = validate_dag_decomposition(cycle3(), dd)
        assert result.valid and result.width == 3

    def test_missing_vertex_invalid(self):
        dd = DagDecomposition(Digraph(1, []), [{0, 1}])
        result = validate_dag_decomposition(cycle3(), dd)
        assert not result.valid and "not in any bag" in result.violation

    def test_cyclic_index_invalid(self):
        index = Digraph(2, [(0, 1)])
        # sneak a cycle in via a custom index digraph is impossible (digon);
        # use a 3-node cycle instead
        index = cycle3()
        dd = DagDecomposition(index, [{0}, {1}, {2}])
        result = validate_dag_decomposition(cycle3(), dd)
        assert not result.valid and "cycle" in result.violation

    def test_arc_leaving_bag_without_successor(self):
        g = Digraph(2, [(1, 0)])
        index = Digraph(2, [(0, 1)])
        dd = DagDecomposition(index, [{0}, {1}])
        result = validate_dag_decomposition(g, dd)
        assert not result.valid and "successor" in result.violation

    def test_connectivity_condition(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        index = Digraph(3, [(0, 1), (1, 2)])
        # vertex 0 appears in bags 0 and 2 but not bag 1
        dd = DagDecomposition(index, [{0, 1}, {1, 2}, {0, 2}])
        result = validate_dag_decomposition(g, dd)
        assert not result.valid

    def test_guard_form_agrees_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 5)
            g = random_digraph(rng, n, rng.uniform(0.2, 0.8))
            k = rng.randint(1, 3)
            index = Digraph(
                k,
                [
                    (i, j)
                    for i in range(k)
                    for j in range(i + 1, k)
                    if rng.random() < 0.5
                ],
            )
            bags = [
                {v for v in range(n) if rng.random() < 0.7} for _ in range(k)
            ]
            dd = DagDecomposition(index, bags)
            result = validate_dag_decomposition(g, dd)
            if not result.valid and "bag" in (result.violation or ""):
                # coverage failures are outside the guard condition's scope
                if "not in any bag" in result.violation:
                    continue
            if result.valid:
                assert dag_guard_condition(g, dd)

    def test_acyclic_identity_bags_guard_form(self):
        g = transitive_tournament(4)
        dd = DagDecomposition(g, [{v} for v in range(4)])
        assert dag_guard_condition(g, dd)


class TestBagMembers:
    @pytest.mark.parametrize(
        "make", [PathDecomposition, lambda bags: DagDecomposition(Digraph(2, []), bags)]
    )
    def test_members_must_be_integers(self, make):
        # checked before the sets are built, so True does not merge into 1
        with pytest.raises(ValueError, match=r"^bag members must be integers, not bool, str$"):
            make([[0, True], [1, "a"]])
        with pytest.raises(ValueError, match=r"not float$"):
            make([[0.0], [1]])

    def test_numpy_integers_are_read_as_ints(self):
        bags = PathDecomposition([np.arange(3), [np.int8(3)]]).bags
        assert bags == (frozenset({0, 1, 2}), frozenset({3}))
        assert {type(v) for b in bags for v in b} == {int}


class TestDecompositionFiles:
    def test_path_round_trip(self):
        pd = PathDecomposition([{0, 1}, {1, 2}])
        again = path_decomposition_from_json(path_decomposition_to_json(pd))
        assert again.bags == pd.bags

    def test_dag_round_trip(self):
        dd = DagDecomposition(Digraph(2, [(0, 1)]), [{0, 1, 2}, {3, 4, 5}])
        again = dag_decomposition_from_json(dag_decomposition_to_json(dd))
        assert again.bags == dd.bags and again.index_dag == dd.index_dag

    def test_read_decomposition_detects_kind(self, tmp_path):
        p1 = tmp_path / "pd.json"
        p1.write_text(path_decomposition_to_json(PathDecomposition([{0}, {1}])))
        assert isinstance(read_decomposition(p1), PathDecomposition)
        p2 = tmp_path / "dd.json"
        p2.write_text(
            dag_decomposition_to_json(DagDecomposition(Digraph(1, []), [{0}]))
        )
        assert isinstance(read_decomposition(p2), DagDecomposition)

    @pytest.mark.parametrize(
        "text,keys",
        [
            ("null", "keys bags"),
            ('{"bags": 5}', "keys bags"),
            ('{"bags": [5]}', "keys bags"),
            ('{"index": 5, "bags": [[0]]}', "keys n, arcs"),
            ('{"index": {"n": 1, "arcs": []}, "bags": 5}', "keys index, bags"),
        ],
    )
    def test_wrong_shape_names_the_keys(self, tmp_path, text, keys):
        path = tmp_path / "d.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"expected an object with {keys}"):
            read_decomposition(path)
