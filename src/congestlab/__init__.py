"""congestlab: a round-synchronous CONGEST simulation lab.

Expander decomposition, truncated-walk sparse cuts, and distributed triangle
enumeration, each paired with sequential brute-force oracles so structural
guarantees are testable at desk scale.
"""

from .graphcore import (
    Cut,
    Graph,
    GraphError,
    boundary,
    conductance,
    generate,
    load_edge_list,
    mixing_time_exact,
    parse_edge_list,
    sparsest_cut_bruteforce,
    verify_orientation,
    volume,
)
from .runtime import (
    CongestError,
    Transcript,
    bfs_build,
    broadcast,
    pipelined_convergecast,
)
from .routing import (
    IdAssignment,
    assign_degree_class_ids,
    kappa_default,
    mixing_estimate,
    route,
)
from .nibble import (
    NibbleResult,
    WalkParams,
    distributed_nibble,
    make_walk_params,
    sample_by_degree,
    sweep_cut,
)
from .decomposition import (
    Decomposition,
    DecompositionReport,
    balanced_index,
    black_box_partition,
    decompose,
    decomposition_from_json,
    high_diameter_cut,
    low_degree_peel,
    verify_decomposition,
)
from .triangle import (
    ProbeResult,
    SubgraphSet,
    TriadAllocation,
    TriangleSet,
    brute_force_triangles,
    count_triangles,
    edge_concentration_probe,
    enumerate_expander,
    enumerate_general,
    enumerate_subgraphs,
)
from .cli import run_cli

__all__ = [
    "CongestError",
    "Cut",
    "Decomposition",
    "DecompositionReport",
    "Graph",
    "GraphError",
    "IdAssignment",
    "NibbleResult",
    "ProbeResult",
    "SubgraphSet",
    "Transcript",
    "TriadAllocation",
    "TriangleSet",
    "WalkParams",
    "assign_degree_class_ids",
    "balanced_index",
    "bfs_build",
    "black_box_partition",
    "boundary",
    "broadcast",
    "brute_force_triangles",
    "conductance",
    "count_triangles",
    "decompose",
    "decomposition_from_json",
    "distributed_nibble",
    "edge_concentration_probe",
    "enumerate_expander",
    "enumerate_general",
    "enumerate_subgraphs",
    "generate",
    "high_diameter_cut",
    "kappa_default",
    "load_edge_list",
    "low_degree_peel",
    "make_walk_params",
    "mixing_estimate",
    "mixing_time_exact",
    "parse_edge_list",
    "pipelined_convergecast",
    "route",
    "run_cli",
    "sample_by_degree",
    "sparsest_cut_bruteforce",
    "sweep_cut",
    "verify_decomposition",
    "verify_orientation",
    "volume",
]

__version__ = "0.1.0"
