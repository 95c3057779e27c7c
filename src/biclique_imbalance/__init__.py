"""Minimum-imbalance vertex orderings for complete bipartite graphs and chains of them.

The imbalance of a vertex under a linear ordering is the absolute difference
between its neighbor counts to the left and to the right; the imbalance of a
graph is the minimum over all orderings of the per-vertex sum. This package
provides the closed forms, optimal-ordering constructions, an optimality
verifier, a chain decomposer with interval representations, and an
exhaustive-search oracle for cross-validation on small instances.

Result records are named tuples; Bipartition (alias ChainComponent) is an
immutable slotted class.
"""

from .chained import (
    ChainComponent,
    ChainDecomposition,
    ChainSpec,
    OverlapInequalityProbe,
    construct_component_subordering,
    construct_optimal_chained,
    decompose,
    format_decomposition,
    g_count,
    generate_chained,
    interval_representation,
    min_imbalance_chained,
    overlap_inequality_probe,
    parse_chain_spec,
)
from .complete import (
    OptimalityVerdict,
    YPositionProfile,
    construct_optimal_complete,
    min_imbalance_formula,
    shift_left,
    shift_right,
    verify_optimal_complete,
    y_position_profile,
)
from .errors import (
    ConstructionInvariantViolatedError,
    GraphParseError,
    NotBipartiteError,
    NotChainedError,
    NotCompleteBipartiteError,
    NotConnectedError,
    SizeCapExceededError,
    SpecInvalidError,
)
from .graph import (
    Bipartition,
    Graph,
    Ordering,
    bipartition,
    concat_orderings,
    is_complete_bipartite,
    ordering_imbalance,
    parse_edge_list,
    parse_ordering,
    subordering,
    vertex_imbalance,
    vertex_imbalances,
)
from .oracle import DEFAULT_CAP, OracleResult, brute_force_min, enumerate_optima

__all__ = [
    "Bipartition",
    "ChainComponent",
    "ChainDecomposition",
    "ChainSpec",
    "ConstructionInvariantViolatedError",
    "DEFAULT_CAP",
    "Graph",
    "GraphParseError",
    "NotBipartiteError",
    "NotChainedError",
    "NotCompleteBipartiteError",
    "NotConnectedError",
    "OptimalityVerdict",
    "OracleResult",
    "Ordering",
    "OverlapInequalityProbe",
    "SizeCapExceededError",
    "SpecInvalidError",
    "YPositionProfile",
    "bipartition",
    "brute_force_min",
    "concat_orderings",
    "construct_component_subordering",
    "construct_optimal_chained",
    "construct_optimal_complete",
    "decompose",
    "enumerate_optima",
    "format_decomposition",
    "g_count",
    "generate_chained",
    "interval_representation",
    "is_complete_bipartite",
    "min_imbalance_chained",
    "min_imbalance_formula",
    "ordering_imbalance",
    "overlap_inequality_probe",
    "parse_chain_spec",
    "parse_edge_list",
    "parse_ordering",
    "shift_left",
    "shift_right",
    "subordering",
    "verify_optimal_complete",
    "vertex_imbalance",
    "vertex_imbalances",
    "y_position_profile",
]
