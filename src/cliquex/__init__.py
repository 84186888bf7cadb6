"""Exact toolkit for s-clique maxima in connected graphs of given size
and order, the extremal families attaining them, and the last graph in
the spectral-moment order, with exhaustive verification harnesses."""

from .cliques import (
    clique_counts_upto,
    count_s_cliques,
    deletion_identity_check,
)
from .enumeration import (
    EnumerationTask,
    argmax_fold,
    connected_graphs,
)
from .extremal import (
    choose,
    construct_b1,
    construct_b2,
    construct_bridge,
    construct_extremal_star,
    construct_krt,
    decompose_connected,
    decompose_erdos,
    erdos_bound,
    kernel,
    kernel_vertices,
    max_cliques_bound,
    peel_random_order,
)
from .graphs import (
    Graph,
    Graph6Error,
    canonical_form,
    canonical_graph,
    from_edge_list,
    from_graph6,
    is_isomorphic,
    to_graph6,
)
from .spectral import (
    SOrderResult,
    count_c4,
    d_transformation,
    moment_sequence,
    realize_with_kernel,
    s4_via_subgraphs,
    s_order_compare,
    spectral_moments,
)
from .verify import (
    VerificationReport,
    verify_extremal_kernels,
    verify_lemma_suite,
    verify_max_cliques,
    verify_s_order_last,
)

__version__ = "0.1.0"

__all__ = [
    "EnumerationTask",
    "Graph",
    "Graph6Error",
    "SOrderResult",
    "VerificationReport",
    "argmax_fold",
    "canonical_form",
    "canonical_graph",
    "choose",
    "clique_counts_upto",
    "connected_graphs",
    "construct_b1",
    "construct_b2",
    "construct_bridge",
    "construct_extremal_star",
    "construct_krt",
    "count_c4",
    "count_s_cliques",
    "d_transformation",
    "decompose_connected",
    "decompose_erdos",
    "deletion_identity_check",
    "erdos_bound",
    "from_edge_list",
    "from_graph6",
    "is_isomorphic",
    "kernel",
    "kernel_vertices",
    "max_cliques_bound",
    "moment_sequence",
    "peel_random_order",
    "realize_with_kernel",
    "s4_via_subgraphs",
    "s_order_compare",
    "spectral_moments",
    "to_graph6",
    "verify_extremal_kernels",
    "verify_lemma_suite",
    "verify_max_cliques",
    "verify_s_order_last",
]
