"""Seeded random-tournament experiments with deterministic CSV output.

One row per (size, trial): diameter, greedy resolving-set size against the
random-tournament probe bound, the sameness range, and the oriented-4-cycle
ratio.  Rows are emitted in (size, trial) order and trial t uses seed
``seed + t``, so a config pins the CSV byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digraph import INF, diameter
from .families import random_tournament
from .hypergraph import greedy_vertex_cover
from .resolve import distinguisher_hypergraph
from .stats import tournament_stats

CSV_COLUMNS = (
    "n", "p", "seed", "trial", "diameter", "beta_greedy",
    "k_bound", "s_min", "s_max", "e4c_ratio",
)


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...]
    p: float = 0.5
    trials: int = 1
    seed: int = 0
    eps: float | None = None  # per-n default: 1 / sqrt(ln n)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.p <= 1:
            raise ValueError("p must be a probability")
        if any(n < 4 for n in self.sizes):
            raise ValueError("sizes below 4 have no 4-cycle statistics")
        # at eps >= 1 the sameness lower bound 2(1-eps)p(1-p)(n-2) is vacuous;
        # the chained comparison also rejects nan
        if self.eps is not None and not 0 < self.eps < 1:
            raise ValueError(f"eps must lie strictly between 0 and 1, got {self.eps}")


def probe_bound(n: int, p: float, eps: float) -> float:
    """(2+eps) ln n / ln(1/rho) with rho = p^2 + (1-p)^2; INF when rho = 1."""
    rho = p * p + (1 - p) * (1 - p)
    if rho >= 1:
        return INF
    return (2 + eps) * math.log(n) / math.log(1 / rho)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    rows = []
    for n in config.sizes:
        eps = config.eps if config.eps is not None else 1 / math.sqrt(math.log(n))
        lo = 2 * (1 - eps) * config.p * (1 - config.p) * (n - 2)
        hi = (1 + eps) * (config.p ** 2 + (1 - config.p) ** 2) * (n - 2)
        for trial in range(config.trials):
            g = random_tournament(n, config.p, config.seed + trial)
            t = tournament_stats(g)
            in_bracket = int(np.count_nonzero((lo <= t.sameness) & (t.sameness <= hi)))
            cover = greedy_vertex_cover(distinguisher_hypergraph(g))
            rows.append(
                {
                    "n": n,
                    "p": config.p,
                    "seed": config.seed,
                    "trial": trial,
                    "diameter": diameter(g),
                    "beta_greedy": len(cover),
                    "k_bound": probe_bound(n, config.p, eps),
                    "s_min": t.s_min,
                    "s_max": t.s_max,
                    "e4c_ratio": t.e4c_ratio,
                    # diagnostics, not CSV columns
                    "s_frac_in_bracket": in_bracket / len(t.sameness),
                    "eps": eps,
                }
            )
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            value = row[col]
            if value == INF:
                cells.append("inf")
            elif isinstance(value, float):
                cells.append(f"{value:.6f}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

