"""Generators for the digraph families used throughout the package.

All constructors are pure and deterministic; the random tournament takes an
explicit 64-bit seed.  Vertex labelings are documented per family so tests
and file outputs can name vertices.  Each family hands its bool adjacency
matrix to :class:`Digraph`; rotation, Paley and each ``sc_tight`` layer
are circulants on Z_n.  A vertex count over the adjacency budget raises
:class:`BudgetExceededError` before any matrix is built.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .digraph import Digraph, _check_adjacency, _pair_index


def rotation_tournament(m: int) -> Digraph:
    """Circulant tournament on 2m+1 vertices: arcs i -> i+1, ..., i+m (mod 2m+1)."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    n = 2 * m + 1
    _check_adjacency(n)
    return Digraph(n, _circulant(n, np.arange(1, m + 1)))


def tripartite_cycle(i: int) -> Digraph:
    """Three independent sets of size i wired cyclically.

    Part j occupies vertices {j*i, ..., j*i + i - 1}; every vertex of part j
    has an arc to every vertex of part (j+1) mod 3.
    """
    if i < 1:
        raise ValueError(f"part size must be positive, got {i}")
    _check_adjacency(3 * i)
    parts = np.kron(_circulant(3, [1]), np.ones((i, i), dtype=bool))
    return Digraph(3 * i, parts)


def blowup(t: Digraph, k: int) -> Digraph:
    """Replace each vertex v of a tournament by an independent set I_v of size k.

    I_v = {v*k, ..., v*k + k - 1}; an arc joins x in I_u to y in I_v exactly
    when (u, v) is an arc of the base tournament.
    """
    if k < 3:
        raise ValueError(f"independent-set size must be at least 3, got {k}")
    if not t.is_tournament():
        raise ValueError("blowup base must be a tournament")
    _check_adjacency(t.n * k)
    return Digraph(t.n * k, np.kron(t.adjacency, np.ones((k, k), dtype=bool)))


def sc_tight(m: int, delta: int) -> Digraph:
    """Layered circulant digraph whose localization number meets the
    strong-component upper bound.

    Vertices are (u, layer) with u in Z_{2m+1} and layer in 1..delta+1,
    flattened as (layer-1)*(2m+1) + u.  Every layer induces the circulant
    tournament on 2m+1 vertices; layer 1 additionally sends its forward
    arcs into every other layer, making it the unique source component.

    m must be odd.  The bound is known to be met only when delta is small
    relative to m (roughly delta*zeta(layer) <= (m+1)/2); larger deltas are
    generated but carry no exactness guarantee.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and positive, got {m}")
    if delta < 1:
        raise ValueError(f"delta must be positive, got {delta}")
    n_layer = 2 * m + 1
    _check_adjacency(n_layer * (delta + 1))
    layer = _circulant(n_layer, np.arange(1, m + 1))
    adjacency = np.kron(np.eye(delta + 1, dtype=bool), layer)
    adjacency[:n_layer] = np.tile(layer, delta + 1)
    return Digraph(n_layer * (delta + 1), adjacency)


def binary_source_extension(d: Digraph) -> Digraph:
    """Add ceil(log2(m)) source vertices wired by binary labels.

    Vertex u < m carries the width-b binary string of u (coordinate 0 is the
    most significant bit); added source m+i has an arc to every original
    vertex whose coordinate i is 0.  For m = 1 the digraph is returned
    unchanged.
    """
    m = d.n
    if m < 1:
        raise ValueError("base digraph must have at least one vertex")
    b = math.ceil(math.log2(m)) if m > 1 else 0
    if b == 0:
        return d
    _check_adjacency(m + b)
    adjacency = np.zeros((m + b, m + b), dtype=bool)
    adjacency[:m, :m] = d.adjacency
    adjacency[m:, :m] = (np.arange(m) >> np.arange(b - 1, -1, -1)[:, None]) & 1 == 0
    return Digraph(m + b, adjacency)


def paley_tournament(q: int) -> Digraph:
    """Quadratic-residue tournament on Z_q: arc (i, j) iff j-i is a nonzero square.

    Requires q prime with q = 3 (mod 4), which makes exactly one of x, -x a
    residue for every nonzero x.  Prime powers are not supported.
    """
    if q < 3 or not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q % 4 != 3:
        raise ValueError(f"q must be 3 mod 4, got {q}")
    _check_adjacency(q)
    return Digraph(q, _circulant(q, np.arange(1, q) ** 2 % q))


def random_tournament(n: int, p: float, seed: int) -> Digraph:
    """Seeded random tournament: arc (i, j) with probability p for each i < j,
    else (j, i).  Pairs are drawn in lexicographic order from one stream, so
    a seed pins the whole tournament."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must be a probability, got {p}")
    _check_adjacency(n)
    r = random.Random(seed).random
    i, j = _pair_index(n)
    forward = np.fromiter((r() < p for _ in range(len(i))), bool, len(i))
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[i, j], adjacency[j, i] = forward, ~forward
    return Digraph(n, adjacency)


def transitive_tournament(n: int) -> Digraph:
    """All arcs point from lower to higher id."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_adjacency(n)
    return Digraph(n, np.triu(np.ones((n, n), dtype=bool), 1))


def _circulant(n: int, shifts) -> np.ndarray:
    """Adjacency of the circulant digraph on Z_n: u -> v exactly when
    (v - u) mod n is in ``shifts``."""
    row = np.zeros(2 * n, dtype=bool)
    row[shifts] = True
    row[n:] = row[:n]
    # row u is row[n - u : 2n - u]: a view of the doubled row whose rows step
    # back one entry each, with no n x n index array; the buffer constructor
    # checks that every row lies inside the doubled row
    return np.ndarray((n, n), bool, row, n, (-1, 1)).copy()


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


# -- the named families, read by gen and verify's closed-form checks --------

# family -> (parameter names, constructor taking those integer parameters)
FAMILIES: dict[str, tuple[tuple[str, ...], object]] = {
    "rotation": (("m",), rotation_tournament),
    "d3": (("i",), tripartite_cycle),
    "blowup": (("j", "k"), lambda j, k: blowup(rotation_tournament(j), k)),
    "sc_tight": (("m", "delta"), sc_tight),
    "paley": (("q",), paley_tournament),
    "transitive": (("n",), transitive_tournament),
}

