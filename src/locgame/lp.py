"""A small dense primal simplex solver for LPs feasible at their slack basis.

Only covering-style linear programs arise here: the fractional vertex cover
is solved as its dual packing LP, one row per vertex, so the tableau has n
rows however many hyperedges there are.  A packing LP (A y <= b, y >= 0,
b >= 0) is feasible at its slack basis, so the solver starts there, with no
artificial columns and no phase 1.  One numpy tableau; each pivot is one
rank-1 update, written into buffers allocated once per solve.  The entering
column has the most negative reduced cost (Dantzig's rule), the first such
column on ties: at the slack basis every hyperedge column prices alike, so
the caller puts the smallest edges first, and the opening pivots build a
greedy packing of them.  Dantzig's rule alone can cycle on degenerate LPs, so
after a run of m degenerate pivots (m rows) pricing falls back to Bland's
rule (Bland 1977), which cannot cycle, until the next pivot that moves.  The
leaving row breaks ratio ties by the lowest basic variable.  The slack
columns always hold B^-1, so the optimal duals come for free.  All
comparisons use an absolute tolerance, and pricing reads only the entries
above it, the same ones the ratio test may pivot on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TOL = 1e-9


class UnboundedError(ValueError):
    """The objective is unbounded below on the feasible region."""


class LpSolution(NamedTuple):
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

    # tableau: [B^-1 A | B^-1 b], the slacks start basic; every array the
    # pivots write is allocated once, here
    tableau = np.column_stack([a, b]).astype(float, copy=False)
    body, rhs = tableau[:, :n], tableau[:, -1]
    basis = np.arange(n - m, n)
    cb = c[basis].astype(float)  # the basic costs, kept in step with basis
    masked = np.empty((m, n))
    mask = np.empty((m, n), dtype=bool)
    reduced = np.empty(n)
    positive = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    factors = np.empty(m)
    update = np.empty_like(tableau)
    pivots = degenerate = run = 0
    while True:
        # price only on entries the ratio test can pivot on: round-off
        # summed over many rows could otherwise make a column look
        # improving when no entry of it exceeds the tolerance
        np.greater(np.abs(body, out=masked), TOL, out=mask)
        np.multiply(body, mask, out=masked)
        np.matmul(cb, masked, out=reduced)
        np.subtract(c, reduced, out=reduced)
        entering = int(reduced.argmin())
        if reduced[entering] >= -TOL:
            break
        if run >= m:
            # Bland's rule: the lowest improving column
            entering = int((reduced < -TOL).argmax())
        col = tableau[:, entering]
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=np.greater(col, TOL, out=positive))
        step = ratios.min()
        if step == np.inf:
            raise UnboundedError("no leaving row for entering column")
        ties = (ratios <= step + TOL).nonzero()[0]
        leaving = int(ties[basis[ties].argmin()])

        # the pivot: scale the leaving row, then one rank-1 update
        row = tableau[leaving]
        row /= row[entering]
        factors[:] = col
        factors[leaving] = 0.0
        tableau -= np.multiply.outer(factors, row, out=update)
        basis[leaving] = entering
        cb[leaving] = c[entering]
        pivots += 1
        if step > TOL:
            run = 0
        else:
            degenerate += 1
            run += 1

    x = np.zeros(n)
    x[basis] = rhs
    duals = cb @ tableau[:, n - m : n]
    return LpSolution(
        float(c @ x),
        tuple(x.tolist()),
        tuple(duals.tolist()),
        pivots,
        degenerate,
    )
