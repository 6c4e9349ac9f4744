"""A small dense primal simplex solver for LPs feasible at their slack basis.

Only covering-style linear programs arise here: the fractional vertex cover
is solved as its dual packing LP, one row per vertex, so the tableau has n
rows however many hyperedges there are.  A packing LP (A y <= b, y >= 0,
b >= 0) is feasible at its slack basis, so the solver starts there, with no
artificial columns and no phase 1.  One numpy tableau; each pivot is one
rank-1 update.  The entering column has the most negative reduced cost
(Dantzig's rule).  Dantzig's rule alone can cycle on degenerate LPs, so
after a run of m degenerate pivots (m rows) pricing falls back to Bland's
rule (Bland 1977), which cannot cycle, until the next pivot that moves.  The
leaving row breaks ratio ties by the lowest basic variable.  The slack
columns always hold B^-1, so the optimal duals come for free.  All
comparisons use an absolute tolerance, and pricing reads only the entries
above it, the same ones the ratio test may pivot on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9


class UnboundedError(ValueError):
    """The objective is unbounded below on the feasible region."""


@dataclass(frozen=True)
class LpSolution:
    """Optimal value, primal point and the dual values c_B B^-1, one per
    equality row, with the pivots taken and how many of them were
    degenerate (a step of length 0)."""

    value: float
    x: tuple[float, ...]
    duals: tuple[float, ...]
    pivots: int
    degenerate_pivots: int


def solve_min_equality(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LpSolution:
    """Minimize c.x subject to a @ x = b, x >= 0, starting from the slack
    basis: the last m columns of the m-row ``a`` must be the identity and
    ``b`` must be nonnegative, otherwise :class:`ValueError`.
    """
    m, n = a.shape
    if n < m or not np.array_equal(a[:, n - m :], np.eye(m)):
        raise ValueError("the last m columns of a must be the identity")
    if np.any(b < 0):
        raise ValueError("right-hand side must be nonnegative")

    # tableau: [B^-1 A | B^-1 b], the slacks start basic
    tableau = np.column_stack([a, b]).astype(float, copy=False)
    basis = list(range(n - m, n))
    pivots = degenerate = run = 0
    while True:
        # price only on entries the ratio test can pivot on: round-off
        # summed over many rows could otherwise make a column look
        # improving when no entry of it exceeds the tolerance
        body = tableau[:, :n]
        reduced = c - c[basis] @ np.where(np.abs(body) > TOL, body, 0.0)
        entering = int(np.argmin(reduced))
        if reduced[entering] >= -TOL:
            break
        if run >= m:
            # Bland's rule: the lowest improving column
            entering = int(np.argmax(reduced < -TOL))
        col = tableau[:, entering]
        rows = np.flatnonzero(col > TOL)
        if not len(rows):
            raise UnboundedError("no leaving row for entering column")
        ratios = tableau[rows, -1] / col[rows]
        step = ratios.min()
        ties = rows[ratios <= step + TOL]
        leaving = min(ties.tolist(), key=basis.__getitem__)
        _pivot(tableau, basis, leaving, entering)
        pivots += 1
        if step > TOL:
            run = 0
        else:
            degenerate += 1
            run += 1

    x = np.zeros(n)
    x[basis] = tableau[:, -1]
    duals = c[basis] @ tableau[:, n - m : n]
    return LpSolution(
        float(c @ x),
        tuple(x.tolist()),
        tuple(duals.tolist()),
        pivots,
        degenerate,
    )


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col
