"""Directed path-decompositions and DAG-decompositions: containers,
validity checkers, and their JSON file format.

Width conventions differ on purpose: path decompositions use
``max bag size - 1``, DAG decompositions use ``max bag size``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .digraph import UNREACHABLE, Digraph, _check_integers, _from_data, _json_object


class PathDecomposition:
    """An ordered sequence of vertex bags."""

    __slots__ = ("bags",)

    def __init__(self, bags: Iterable[Iterable[int]]):
        self.bags = _bag_sets(bags)
        if not self.bags:
            raise ValueError("a path decomposition needs at least one bag")

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def __repr__(self) -> str:
        return f"PathDecomposition(bags={len(self.bags)}, width={self.width})"


class DagDecomposition:
    """Bags indexed by the nodes of an acyclic digraph.

    ``bags[d]`` is the bag of index node ``d``; the index digraph must be
    acyclic (checked by the validator, not the constructor).
    """

    __slots__ = ("index_dag", "bags")

    def __init__(self, index_dag: Digraph, bags: Iterable[Iterable[int]]):
        self.index_dag = index_dag
        self.bags = _bag_sets(bags)
        if len(self.bags) != index_dag.n:
            raise ValueError(
                f"{index_dag.n} index nodes but {len(self.bags)} bags"
            )

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0)

    def __repr__(self) -> str:
        return f"DagDecomposition(nodes={self.index_dag.n}, width={self.width})"


def _bag_sets(bags: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """The bags as sets of ints; the members are checked before the sets are
    built, so that ``True`` cannot merge into ``1``."""
    bags = [tuple(b) for b in bags]
    _check_integers((v for b in bags for v in b), "bag members")
    return tuple(frozenset(map(int, b)) for b in bags)


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    width: int
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def validate_path_decomposition(g: Digraph, pd: PathDecomposition) -> ValidationResult:
    """Check the three path-decomposition conditions.

    (1) bags cover every vertex; (2) a vertex's bags form a contiguous run
    (W_i ∩ W_k ⊆ W_j for i < j < k); (3) each arc is either co-bagged or
    its source appears in a strictly earlier bag than its target.
    """
    bags = pd.bags
    width = pd.width

    violation = _coverage_violation(g, bags)
    if violation:
        return ValidationResult(False, width, violation)

    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, bag in enumerate(bags):
        for v in bag:
            first.setdefault(v, i)
            last[v] = i
    for v in range(g.n):
        for j in range(first[v] + 1, last[v]):
            if v not in bags[j]:
                return ValidationResult(
                    False, width,
                    f"vertex {v} in bags {first[v]} and {last[v]} but not {j}",
                )

    for (v, u) in sorted(g.arcs):
        # co-bagged, or v somewhere before u
        if any(v in bag and u in bag for bag in bags):
            continue
        if first[v] < last[u]:
            continue
        return ValidationResult(
            False, width,
            f"arc ({v},{u}) has no common bag and source never precedes target",
        )
    return ValidationResult(True, width)


def validate_dag_decomposition(g: Digraph, dd: DagDecomposition) -> ValidationResult:
    """Check coverage, the connectivity condition along index paths, and the
    successor-bag condition for arcs leaving a bag."""
    d = dd.index_dag
    bags = dd.bags
    width = dd.width

    reach = d.distances() != UNREACHABLE
    # an oriented digraph has a cycle iff two distinct nodes reach each other
    if np.count_nonzero(reach & reach.T) > d.n:
        return ValidationResult(False, width, "index digraph has a directed cycle")

    violation = _coverage_violation(g, bags)
    if violation:
        return ValidationResult(False, width, violation)

    # connectivity: for index nodes a <= b <= c in the reach order,
    # X_a ∩ X_c ⊆ X_b
    for a in range(d.n):
        for c in range(d.n):
            shared = bags[a] & bags[c]
            if not shared or not reach[a, c]:
                continue
            for b in range(d.n):
                if b in (a, c) or not (reach[a, b] and reach[b, c]):
                    continue
                if not shared <= bags[b]:
                    lost = sorted(shared - bags[b])
                    return ValidationResult(
                        False, width,
                        f"vertices {lost} in bags {a} and {c} but not in {b} between them",
                    )

    # successor-bag condition: a vertex introduced at an index node must have
    # all its out-arcs covered by bags at or after that node, the bags of the
    # nodes it reaches, itself included
    succ_union = [frozenset().union(*(bags[k] for k in np.flatnonzero(r).tolist())) for r in reach]
    for j in range(d.n):
        parents = d.in_neighbors(j)
        intro_sets = [bags[j] - bags[i] for i in parents] if parents else [bags[j]]
        for intro in intro_sets:
            for u in sorted(intro):
                for v in g.out_neighbors(u):
                    if v not in succ_union[j]:
                        return ValidationResult(
                            False, width,
                            f"arc ({u},{v}) leaves bag {j} but {v} is in no successor bag",
                        )
    return ValidationResult(True, width)


def _coverage_violation(g: Digraph, bags: tuple[frozenset[int], ...]) -> str | None:
    """Why the bags fail to cover exactly the vertices of g, or None."""
    covered = frozenset().union(*bags)
    missing = set(range(g.n)) - covered
    if missing:
        return f"vertices {sorted(missing)} not in any bag"
    extra = covered - set(range(g.n))
    if extra:
        return f"bags mention unknown vertices {sorted(extra)}"
    return None


# -- JSON files ------------------------------------------------------------
#
# Path: {"bags": [[...], ...]}
# DAG:  {"index": {"n": k, "arcs": [[a,b], ...]}, "bags": [[...], ...]}


def path_decomposition_to_json(pd: PathDecomposition) -> str:
    return json.dumps({"bags": [sorted(b) for b in pd.bags]})


def path_decomposition_from_json(text: str) -> PathDecomposition:
    return _path_decomposition(json.loads(text))


def dag_decomposition_to_json(dd: DagDecomposition) -> str:
    return json.dumps(
        {
            "index": {
                "n": dd.index_dag.n,
                "arcs": [list(a) for a in dd.index_dag.sorted_arcs()],
            },
            "bags": [sorted(b) for b in dd.bags],
        }
    )


def dag_decomposition_from_json(text: str) -> DagDecomposition:
    return _dag_decomposition(json.loads(text))


def _path_decomposition(data: object) -> PathDecomposition:
    return PathDecomposition(_json_object(data, "bags", "bags")["bags"])


def _dag_decomposition(data: object) -> DagDecomposition:
    data = _json_object(data, "index, bags", "bags")
    return DagDecomposition(_from_data(data["index"]), data["bags"])


def read_decomposition(path: str | Path) -> PathDecomposition | DagDecomposition:
    """Load either decomposition kind; the presence of "index" decides."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "index" in data:
        return _dag_decomposition(data)
    return _path_decomposition(data)
