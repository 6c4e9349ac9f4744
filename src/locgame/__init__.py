"""Localization game on directed graphs.

Cops place distance probes each round; an invisible robber walks along
arcs.  This package computes the exact localization number and metric
dimension at desk scale, plays the constructive cop strategies against an
exact worst-case robber, and checks the covering, spread, and width bounds
that frame both parameters.
"""

from .digraph import (
    INF,
    UNREACHABLE,
    Digraph,
    all_pairs_distances,
    diameter,
    read_digraph,
    write_digraph,
)
from .structure import (
    CyclicGraphError,
    SccDecomposition,
    localization_lower_bound,
    out_degeneracy,
    spread_m,
    strong_components,
    topological_sort,
)
from .decomposition import (
    DagDecomposition,
    PathDecomposition,
    ValidationResult,
    validate_dag_decomposition,
    validate_path_decomposition,
)
from .families import (
    binary_source_extension,
    blowup,
    paley_tournament,
    random_tournament,
    rotation_tournament,
    sc_tight,
    transitive_tournament,
    tripartite_cycle,
)
from .hypergraph import (
    EmptyEdgeError,
    FractionalCover,
    Hypergraph,
    fractional_vertex_cover,
    greedy_vertex_cover,
    lovasz_bound,
)
from .resolve import (
    c_parameter,
    distinguisher_hypergraph,
    is_resolving,
    lp_upper_bound,
    metric_dim_one_classifier,
    metric_dimension_exact,
)
from .stats import (
    Sameness,
    doubly_regular_check,
    e4c_count,
    pair_sameness,
    quasirandom_deviation,
    sameness,
    sameness_matrix,
    tournament_stats,
)
from .game import (
    BudgetExceededError,
    GameTranscript,
    LocalizationSolver,
    Outcome,
    ProbeError,
    Round,
    cops_win,
    localization_number_exact,
    optimal_robber,
    partition_by_probe,
    play,
    robber_step,
)
from .strategies import (
    StrategyError,
    dag_decomp_sweep,
    dag_sweep,
    path_sweep,
    rotation_strategy,
    sc_composite,
)

__version__ = "0.1.0"
