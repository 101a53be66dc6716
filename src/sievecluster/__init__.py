"""Overlapping clustering methods on finite metric spaces.

The package provides flat clustering methods that produce flag covers
(possibly overlapping clusters), their scale sweeps (sieves), and a
verification harness that runs the methods' structural guarantees —
consistency under non-expansive maps, the refinement sandwich, refinement
chains — as randomized and exhaustive checks.

Modules load on first use: ``import sievecluster`` binds no public name
until one is read, and the command line imports only what a command runs.
No module imports numpy when it loads; the dense kernels import it only
for inputs of at least ``metric._NUMPY_MIN_POINTS`` points. A point cloud
of that size in 1 to 7 coordinates imports it only when its distances are
read: its threshold graphs come from a cell grid of the coordinates, so
``cluster`` for the families that read only that graph needs neither
numpy nor the n x n matrix.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it, grouped by module
_EXPORTS = {
    "covers": (
        "Cover", "FlagCover", "Relation", "co_blocking", "flagify", "is_consistent_map",
        "is_flag", "maximal_linked_sets", "preimage_cover", "reduce_to_maximal",
        "refines",
    ),
    "errors": (
        "AsymmetricMatrix", "BaseMismatch", "DuplicateLabel", "InputFormatError",
        "MonotonicityViolation", "NegativeDistance", "NestedCover", "NonzeroDiagonal",
        "SearchBudgetExceeded", "SieveclusterError", "TooLarge", "TriangleViolation",
        "TrivialFunctor",
    ),
    "fileio": (
        "canonical_json_bytes", "ingest_space", "load_schema", "write_matrix_csv",
    ),
    "functors": (
        "FAMILIES", "MethodSpec", "ProbeResult", "bk_clusters", "bk_star_clusters",
        "clustering_parameter", "cover_metric", "edge_linkage", "evaluate_method",
        "generated_cluster", "k_linkage", "maximal_linkage", "probe_relation",
        "single_linkage", "vertex_linkage",
    ),
    "graphs": (
        "Graph", "bk_closure", "bk_star_closure", "connected_components",
        "max_edge_connected_subgraphs", "max_vertex_connected_subgraphs",
        "read_edge_list", "relation_from_graph", "space_from_graph", "threshold_graph",
        "write_dot", "write_edge_list",
    ),
    "metric": (
        "FiniteMetricSpace", "MetricMap", "metric_closure", "path_space",
        "space_from_points", "validate_metric",
    ),
    "rng": (
        "SplitMix64", "derive_seed",
    ),
    "sieves": (
        "Sieve", "SieveAxiomReport", "block_births", "build_sieve",
        "check_sieve_axioms", "is_dendrogram", "sieve_consistent",
    ),
    "verify": (
        "TrialReport", "brute_force_maximal_linked", "check_functoriality",
        "check_sandwich", "find_counterexample", "iterative_flagify_oracle",
        "random_flag_cover", "random_map", "random_metric", "random_morphism",
        "verify_witness",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
