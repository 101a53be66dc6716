"""The public surface: every name in ``sievecluster.__all__``.

Everything behind these names may be rewritten; the names themselves are
the contract. Dropping or renaming one must show up here, not slip through
a refactor.
"""

import sievecluster

PUBLIC_NAMES = [
    "AsymmetricMatrix",
    "BaseMismatch",
    "Cover",
    "DuplicateLabel",
    "FAMILIES",
    "FiniteMetricSpace",
    "FlagCover",
    "Graph",
    "InputFormatError",
    "MethodSpec",
    "MetricMap",
    "MonotonicityViolation",
    "NegativeDistance",
    "NestedCover",
    "NonzeroDiagonal",
    "ProbeResult",
    "Relation",
    "SearchBudgetExceeded",
    "Sieve",
    "SieveAxiomReport",
    "SieveclusterError",
    "SplitMix64",
    "TooLarge",
    "TrialReport",
    "TriangleViolation",
    "TrivialFunctor",
    "bk_closure",
    "bk_clusters",
    "bk_star_closure",
    "bk_star_clusters",
    "block_births",
    "brute_force_maximal_linked",
    "build_sieve",
    "canonical_json_bytes",
    "check_functoriality",
    "check_sandwich",
    "check_sieve_axioms",
    "clustering_parameter",
    "co_blocking",
    "connected_components",
    "cover_metric",
    "derive_seed",
    "edge_linkage",
    "evaluate_method",
    "find_counterexample",
    "flagify",
    "generated_cluster",
    "ingest_space",
    "is_consistent_map",
    "is_dendrogram",
    "is_flag",
    "iterative_flagify_oracle",
    "k_linkage",
    "load_schema",
    "max_edge_connected_subgraphs",
    "max_vertex_connected_subgraphs",
    "maximal_linkage",
    "maximal_linked_sets",
    "metric_closure",
    "path_space",
    "preimage_cover",
    "probe_relation",
    "random_flag_cover",
    "random_map",
    "random_metric",
    "random_morphism",
    "read_edge_list",
    "reduce_to_maximal",
    "refines",
    "relation_from_graph",
    "sieve_consistent",
    "single_linkage",
    "space_from_graph",
    "space_from_points",
    "threshold_graph",
    "validate_metric",
    "verify_witness",
    "vertex_linkage",
    "write_dot",
    "write_edge_list",
    "write_matrix_csv",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 81
    assert sorted(sievecluster.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    # a star import fails on any name in __all__ that the package lacks
    namespace: dict = {}
    exec("from sievecluster import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
