"""A small dense two-phase primal simplex solver.

Only covering-style linear programs arise here: the fractional vertex cover
is solved as its dual packing LP, one row per vertex, so the tableau has n
rows however many hyperedges there are.  The implementation favors clarity
over sparsity: one numpy tableau, each pivot one rank-1 update, Bland's
entering/leaving rule throughout, which rules out cycling.  The artificial
columns always hold B^-1, so the optimal duals come for free.  All
comparisons use an absolute tolerance, and pricing reads only the entries
above it, the same ones the ratio test may pivot on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9


class InfeasibleError(ValueError):
    """The constraint system admits no feasible point."""


class UnboundedError(ValueError):
    """The objective is unbounded below on the feasible region."""


@dataclass(frozen=True)
class LpSolution:
    """Optimal value, primal point and the dual values c_B B^-1, one per
    equality row."""

    value: float
    x: tuple[float, ...]
    duals: tuple[float, ...]


def solve_min_equality(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LpSolution:
    """Minimize c.x subject to a @ x = b, x >= 0 (b must be nonnegative).

    Phase 1 drives artificial variables out of the basis; phase 2 optimizes
    the real objective.
    """
    m, n = a.shape
    if np.any(b < -TOL):
        raise ValueError("right-hand side must be nonnegative")

    # tableau: [A | I_art | b], artificials start basic
    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = a
    tableau[:, n : n + m] = np.eye(m)
    tableau[:, -1] = b
    basis = list(range(n, n + m))

    phase1_cost = np.zeros(n + m)
    phase1_cost[n:] = 1.0
    _optimize(tableau, basis, phase1_cost, allowed=n + m)
    if _objective(tableau, basis, phase1_cost) > TOL:
        raise InfeasibleError("phase-1 optimum is positive")
    _drive_out_artificials(tableau, basis, n)

    phase2_cost = np.zeros(n + m)
    phase2_cost[:n] = c
    _optimize(tableau, basis, phase2_cost, allowed=n)

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tableau[row, -1]
    duals = phase2_cost[basis] @ tableau[:, n : n + m]
    return LpSolution(
        float(phase2_cost[:n] @ x),
        tuple(float(v) for v in x),
        tuple(float(v) for v in duals),
    )


def _objective(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> float:
    return float(cost[basis] @ tableau[:, -1])


def _optimize(tableau: np.ndarray, basis: list[int], cost: np.ndarray, allowed: int) -> None:
    """Primal simplex loop with Bland's rule, restricted to columns < allowed."""
    while True:
        # price only on entries the ratio test can pivot on: round-off
        # summed over many rows could otherwise make a column look
        # improving when no entry of it exceeds the tolerance
        body = tableau[:, :allowed]
        reduced = cost[:allowed] - cost[basis] @ np.where(np.abs(body) > TOL, body, 0.0)
        improving = np.flatnonzero(reduced < -TOL)
        if not len(improving):
            return
        entering = improving[0]
        col = tableau[:, entering]
        rows = np.flatnonzero(col > TOL)
        if not len(rows):
            raise UnboundedError("no leaving row for entering column")
        ratios = tableau[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + TOL]
        leaving = min(ties.tolist(), key=basis.__getitem__)
        _pivot(tableau, basis, leaving, entering)


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _drive_out_artificials(tableau: np.ndarray, basis: list[int], n: int) -> None:
    """Pivot any artificial variable still basic (at value 0) onto a real
    column; degenerate rows with no usable column are dropped from play by
    leaving them in place (their row is all-zero on real columns)."""
    for row, var in enumerate(basis):
        if var < n:
            continue
        usable = np.flatnonzero(np.abs(tableau[row, :n]) > TOL)
        if len(usable):
            _pivot(tableau, basis, row, usable[0])
